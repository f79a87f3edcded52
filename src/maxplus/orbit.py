"""Orbit periodicity of reducible max-plus matrices.

A matrix is orbit periodic when every orbit {a^t (x) y} is ultimately
linear periodic.  For nodes of nontrivial components this reduces to two
conditions: (1) cycle means never decrease along access, and (2) any two
such nodes with different cycle means are connected by strong access in
one direction.  Condition (2) can be decided either directly through
strong access or through a support inclusion on the ultimate expansion
terms at exponent 1; both routes are exposed.

Matrices with an acyclic digraph are vacuously orbit periodic: every
orbit reaches the zero vector within n steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _agree, _check_node,
                   _exact_sums, _mp_rank1, _overflow_checked, _power_stack,
                   _stack_depth, as_vector)
from .errors import NotOrbitPeriodicError, TrivialColumnError, ZeroVectorError
from .expansions import ultimate_expand
from .csr import csr_product
from .graphs import _critical, gamma_u as _gamma_u, strong_access_matrix

# Equations compared per block in _detect's backward scan.
_DETECT_CHUNK = 1024


@dataclass
class OrbitReport:
    """Outcome of the orbit periodicity test.

    condition1_violations: (i, j) node pairs (component representatives)
    where i accesses j but the cycle mean drops.  condition2_violations:
    (i, j) pairs with different cycle means and no strong access either
    way (filled by the strong-access route).  support_violations:
    (mu, nu, i, j) with term indices into the ultimate expansion and
    witness columns i, j whose support inclusion fails (filled by the
    support route).  verdict is true iff all three lists are empty.
    """

    verdict: bool
    condition1_violations: list
    condition2_violations: list
    support_violations: list
    gamma_u: int
    method: str = "support"


@dataclass
class OrbitTrace:
    """Recorded orbit with the detected linear periodicity, if any.

    samples[t] is the orbit vector at time t.  period divides the critical
    lcm gamma_u; growth_rate is the additive rate per step (-inf for
    orbits that die out); transient is the first time from which
    samples[t + period] = period * growth_rate + samples[t] holds.  All
    three are None when no linear periodicity was detected by t_max.
    """

    y: np.ndarray
    samples: np.ndarray
    period: int | None
    growth_rate: float | None
    transient: int | None


def _condition1(cs, tol: float):
    violations = []
    dec = cs.scc
    for p in dec.nontrivial():
        for q in dec.nontrivial():
            if p == q or not dec.access[p][q]:
                continue
            if cs.lambda_of_component[p] > cs.lambda_of_component[q] + tol:
                violations.append((min(dec.components[p]), min(dec.components[q])))
    return violations


def _condition2_strong(a: TropicalMatrix, cs, tol: float):
    violations = []
    sa = strong_access_matrix(a)
    dec = cs.scc
    nontrivial = dec.nontrivial()
    for x in range(len(nontrivial)):
        for y in range(x + 1, len(nontrivial)):
            p, q = nontrivial[x], nontrivial[y]
            if _agree(cs.lambda_of_component[p], cs.lambda_of_component[q],
                      tol):
                continue
            i, j = min(dec.components[p]), min(dec.components[q])
            if not (sa[i, j] or sa[j, i]):
                violations.append((i, j))
    return violations


def _support_violations(a: TropicalMatrix, tol: float):
    supports = []
    for lam, triple in ultimate_expand(a).terms:
        nodes = list(triple.n_c)
        u1 = csr_product(triple, 1).matrix.arr[:, nodes]
        supports.append((lam, nodes, (u1 != NEG_INF).astype(int)))
    violations = []
    for mu, (lam_mu, nodes_mu, supp_mu) in enumerate(supports):
        for nu, (lam_nu, nodes_nu, supp_nu) in enumerate(supports):
            if not lam_mu < lam_nu - tol:
                continue
            # (i, j) counts the rows in the support of i and not of j; the
            # first failing pair, i then j increasing, is the witness
            bad = np.argwhere(supp_mu.T @ (1 - supp_nu) > 0)
            if bad.size:
                i, j = bad[0]
                violations.append((mu, nu, nodes_mu[i], nodes_nu[j]))
    return violations


def is_orbit_periodic(a: TropicalMatrix, method: str = "support",
                      tol: float = CRIT_TOL) -> OrbitReport:
    """Decide orbit periodicity.

    method "support" settles condition 2 through the ultimate-expansion
    support inclusions (the production route), "strong-access" through
    Boolean power windows, "both" runs the two independently.
    """
    if method not in ("support", "strong-access", "both"):
        raise ValueError("method must be 'support', 'strong-access' or 'both'")
    cs = _critical(a)
    if cs is None:
        return OrbitReport(True, [], [], [], 1, method)
    cond1 = _condition1(cs, tol)
    cond2 = []
    supp = []
    if method in ("strong-access", "both"):
        cond2 = _condition2_strong(a, cs, tol)
    if method in ("support", "both") and not cond1:
        supp = _support_violations(a, tol)
    verdict = not (cond1 or cond2 or supp)
    return OrbitReport(verdict, cond1, cond2, supp, _gamma_u(a), method)


def column_periodicity(a: TropicalMatrix, j: int,
                       tol: float = CRIT_TOL) -> bool:
    """Is the column orbit {a^t e_j} ultimately linear periodic?

    True iff no nontrivial component with access to j has a larger cycle
    mean than j's own component.  j must belong to a nontrivial component
    (DimensionError for a j outside 0 ... n - 1).
    """
    _check_node(a, j)
    cs = _critical(a)
    if cs is None:
        raise TrivialColumnError("trivial column: %d (digraph is acyclic)" % j)
    dec = cs.scc
    cj = int(dec.component_of[j])
    if dec.is_trivial[cj]:
        raise TrivialColumnError("trivial column: %d" % j)
    lam_j = cs.lambda_of_component[cj]
    for p in dec.nontrivial():
        if dec.access[p][cj] and cs.lambda_of_component[p] > lam_j + tol:
            return False
    return True


def pair_periodicity(a: TropicalMatrix, i: int, j: int,
                     tol: float = CRIT_TOL) -> bool:
    """Is the orbit of e_i (+) e_j ultimately linear periodic?

    Requires both single columns to be periodic; then the pair orbit is
    periodic iff one node strongly accesses the other or their component
    cycle means agree.
    """
    for v in (i, j):
        if not column_periodicity(a, v, tol):
            raise ValueError("column %d is not ultimately periodic" % v)
    cs = _critical(a)
    lam_i = cs.lambda_of_node(i)
    lam_j = cs.lambda_of_node(j)
    if _agree(lam_i, lam_j, tol):
        return True
    sa = strong_access_matrix(a)
    return bool(sa[i, j] or sa[j, i])


def orbit_growth_rate(a: TropicalMatrix, y, tol: float = CRIT_TOL) -> float:
    """Growth rate of the orbit of y for an orbit periodic matrix.

    The rate is the largest cycle mean among nontrivial components that
    access the support of y; -inf when only trivial parts are reachable
    (the orbit dies out).  Raises when a is not orbit periodic or y is the
    zero vector.
    """
    y = as_vector(y, a.n)
    if not (y != NEG_INF).any():
        raise ZeroVectorError("zero vector")
    if not is_orbit_periodic(a, tol=tol).verdict:
        raise NotOrbitPeriodicError("not orbit periodic")
    cs = _critical(a)
    if cs is None:
        return NEG_INF
    dec = cs.scc
    supp_comps = {int(dec.component_of[v]) for v in np.nonzero(y != NEG_INF)[0]}
    best = NEG_INF
    for p in dec.nontrivial():
        if any(dec.access[p][q] for q in supp_comps):
            best = max(best, cs.lambda_of_component[p])
    return float(best)


def _divisors(g: int):
    """Divisors of g in increasing order, from the pairs (d, g // d) with
    d <= sqrt(g)."""
    small, large = [], []
    for d in range(1, math.isqrt(g) + 1):
        if g % d == 0:
            small.append(d)
            if d * d != g:
                large.append(g // d)
    return small + large[::-1]


def _last_failure(samples: np.ndarray, p: int, rate: float, tol: float):
    """Largest s < t_max - p whose equation samples[s + p] =
    p * rate + samples[s] fails, or -1 when all of them hold.

    An equation holds when its rows agree entrywise (_agree) after the
    shift (rate -inf: both rows are all -inf).  Rows are compared
    _DETECT_CHUNK equations at a time from the tail down, so the scratch
    arrays stay O(_DETECT_CHUNK * n).
    """
    hi = samples.shape[0] - 1 - p
    shift = rate * p
    while hi > 0:
        lo = max(0, hi - _DETECT_CHUNK)
        below, above = samples[lo:hi], samples[lo + p:hi + p]
        if rate == NEG_INF:
            fail = (np.maximum(below, above) != NEG_INF).any(axis=1)
        else:
            # the shift comes off the later row: adding it to the earlier
            # one rounds exact equations into failures on scaled weights
            fail = ~_agree(above - shift, below, tol).all(axis=1)
        bad = np.flatnonzero(fail)
        if bad.size:
            return lo + int(bad[-1])
        hi = lo
    return -1


def _detect(samples: np.ndarray, gamma: int, tol: float):
    """Smallest (period dividing gamma, rate, transient) with the linear
    identity verified on at least gamma+1 trailing equations."""
    t_max = samples.shape[0] - 1
    for p in _divisors(gamma):
        if t_max - p < 0:
            continue
        top, bot = samples[t_max], samples[t_max - p]
        mask = top != NEG_INF
        if not np.array_equal(mask, bot != NEG_INF):
            continue
        if mask.any():
            diffs = (top[mask] - bot[mask]) / p
            if np.ptp(diffs) > tol:
                continue
            rate = float(diffs[0])
        else:
            rate = NEG_INF
        t = _last_failure(samples, p, rate, tol) + 1
        if t_max - p - t + 1 >= gamma + 1:
            return p, rate, t
    return None, None, None


@_overflow_checked
def _step_rows(arr: np.ndarray, samples: np.ndarray):
    """samples[t] = arr (x) samples[t-1], one row at a time through one
    n x n buffer, with the arithmetic of TropicalMatrix.apply."""
    buf = np.empty_like(arr)
    for t in range(1, samples.shape[0]):
        np.add(arr, samples[t - 1], out=buf)
        np.maximum.reduce(buf, axis=1, out=samples[t])


def _orbit_stack(a: TropicalMatrix, b: int) -> np.ndarray:
    """stack[j, s*n + i] = (a^(s+1))_ij for s < b: the powers of a^T side
    by side.  a's memo keeps one stack, the deepest built so far, and
    shorter requests read its first b blocks."""
    stack = a._memo.get("orbit_stack")
    if stack is None or stack.shape[1] < b * a.n:
        stack = _power_stack(a.arr.T, b, _mp_rank1)
        stack.setflags(write=False)
        a._memo["orbit_stack"] = stack
    return stack[:, :b * a.n]


def _step_blocks(stack: np.ndarray, samples: np.ndarray):
    """The rows of _step_rows, b at a time: rows t+1 ... t+b come from
    row t and the b powers in stack (see _orbit_stack) in one add and one
    reduction.  Bit-identical to _step_rows only when _exact_sums holds:
    then every stack entry is exact whatever depth it was built to, and no
    sum can overflow."""
    t_max, n = samples.shape[0] - 1, samples.shape[1]
    b = stack.shape[1] // n
    buf = np.empty_like(stack)
    flat = samples.reshape(-1)
    for t in range(0, t_max, b):
        w = min(b, t_max - t) * n
        np.add(stack[:, :w], samples[t][:, None], out=buf[:, :w])
        # over the leading axis: a short-last-axis reduction is slower
        np.maximum.reduce(buf[:, :w], axis=0,
                          out=flat[(t + 1) * n:(t + 1) * n + w])


def simulate_orbit(a: TropicalMatrix, y, t_max: int | None = None,
                   tol: float = CRIT_TOL) -> OrbitTrace:
    """Record the orbit of y and look for ultimate linear periodicity.

    Candidate periods are the divisors of the critical lcm gamma_u in
    increasing order; for each, the equations
    samples[s + p] = p * rate + samples[s] are checked from the tail
    backwards and the transient is one past the last failing one.  A
    detection must be backed by at least gamma_u + 1 trailing steps.
    t_max defaults to 6 n^2 + 2 gamma_u.

    When every sum is exact (finite entries of a and y integers, no -0.0
    in y, |y|max + (t_max + 1) |a|max < 2**53), rows are computed b at a
    time, b = min(t_max, 2**14 // n^2) (at least 1): the powers
    a^1 ... a^b are stacked by doubling, once per matrix (a's memo keeps
    the stack), and each block is one add and one reduction from the row
    before it.  Other input steps one row at a time,
    samples[t] = a (x) samples[t-1] with the arithmetic of
    TropicalMatrix.apply.  Both give the samples of a repeated apply loop
    bit for bit.  A sum that overflows float64 raises NonFiniteError.
    Memory is the (t_max + 1) x n sample array, the stack (at most 2**14
    floats, or n^2 when n > 128) and O(2**14 + _DETECT_CHUNK * n) scratch
    floats (_DETECT_CHUNK rows per detection block).
    """
    y = as_vector(y, a.n)
    if t_max is not None and t_max < 0:
        raise ValueError("negative t_max")
    gamma = _gamma_u(a)
    if t_max is None:
        t_max = 6 * a.n * a.n + 2 * gamma
    samples = np.empty((t_max + 1, a.n))
    samples[0] = y
    if t_max and _exact_sums(a, t_max, y=y):
        _step_blocks(_orbit_stack(a, _stack_depth(a.n, t_max)), samples)
    else:
        _step_rows(a.arr, samples)
    samples.setflags(write=False)
    period, rate, transient = _detect(samples, gamma, tol)
    return OrbitTrace(y=y, samples=samples, period=period, growth_rate=rate,
                      transient=transient)
