"""Orbit periodicity of reducible max-plus matrices.

A matrix is orbit periodic when every orbit {a^t (x) y} is ultimately
linear periodic.  For nodes of nontrivial components this reduces to two
conditions: (1) cycle means never decrease along access, and (2) any two
such nodes with different cycle means are connected by strong access in
one direction.  is_orbit_periodic decides (2) by a support inclusion on the
ultimate expansion terms at exponent 1 (method "support", the default) or
directly through strong access (method "strong-access").

Matrices with an acyclic digraph are vacuously orbit periodic: every
orbit reaches the zero vector within n steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _agree, _check_node,
                   _count, _exact_sums, _exceeds, _integral_max, _mp_matmul,
                   _overflow_checked, _shape, as_vector)
from .errors import (DomainError, NotOrbitPeriodicError, TrivialColumnError,
                     ZeroVectorError)
from .expansions import _known_threshold, _ultimate_terms
from .csr import _shift, csr_product
from .graphs import _critical, _strong_access, gamma_u as _gamma_u

# Equations compared per block in _detect's backward scan.
_DETECT_CHUNK = 1024


@dataclass(frozen=True)
class OrbitReport:
    """Outcome of the orbit periodicity test.

    condition1_violations: (i, j) node pairs (component representatives)
    where i accesses j but the cycle mean drops.  condition2_violations:
    (i, j) pairs with different cycle means and no strong access either
    way (filled by the strong-access route).  support_violations:
    (mu, nu, i, j) with term indices into the ultimate expansion and
    witness columns i, j whose support inclusion fails (filled by the
    support route; every report of a matrix shares its memoized tuple).
    verdict is true iff all three tuples are empty.
    """

    verdict: bool
    condition1_violations: tuple
    condition2_violations: tuple
    support_violations: tuple
    gamma_u: int
    method: str = "support"


@dataclass(frozen=True)
class OrbitTrace:
    """Recorded orbit with the detected linear periodicity, if any.

    samples[t] is the orbit vector at time t (y is samples[0]; both are
    read-only).  period divides the critical lcm gamma_u; growth_rate is
    the additive rate per step (-inf for orbits that die out); transient
    is the first time from which samples[t + period] = period *
    growth_rate + samples[t] holds.  All three are None when no linear
    periodicity was detected by t_max.
    """

    y: np.ndarray
    samples: np.ndarray
    period: int | None
    growth_rate: float | None
    transient: int | None


def _above(cs) -> np.ndarray:
    """above[p, q]: p and q are nontrivial and lam_p exceeds lam_q (a
    trivial component's -inf exceeds nothing, and its column is masked)."""
    lam = np.array(cs.lambda_of_component)
    return _exceeds(lam[:, None], lam, CRIT_TOL) & (lam != NEG_INF)


def _pairs(dec, table: np.ndarray) -> tuple:
    """The component pairs set in table, row-major, as least nodes."""
    return tuple((min(dec.components[p]), min(dec.components[q]))
                 for p, q in np.argwhere(table).tolist())


def _condition2_strong(a: TropicalMatrix, cs, above: np.ndarray):
    pairs = _pairs(cs.scc, np.triu(above | above.T, 1))
    if not pairs:
        return ()
    rows = sorted({v for pair in pairs for v in pair})
    sa = dict(zip(rows, _strong_access(a, rows)))
    return tuple((i, j) for i, j in pairs if not (sa[i][j] or sa[j][i]))


def _support_violations(a: TropicalMatrix) -> tuple:
    e = _ultimate_terms(a)
    supports = []
    for _, triple in e.terms:
        nodes = list(triple.n_c)
        u1 = csr_product(triple, 1).matrix.arr[:, nodes]
        supports.append((nodes, (u1 != NEG_INF).astype(int)))
    lams = np.array(e.lambdas)
    violations = []
    # the pairs (mu, nu), in order, where lam_nu exceeds lam_mu
    for mu, nu in np.argwhere(_exceeds(lams, lams[:, None],
                                       CRIT_TOL)).tolist():
        (nodes_mu, supp_mu), (nodes_nu, supp_nu) = supports[mu], supports[nu]
        # (i, j) counts the rows in the support of i and not of j; the
        # first failing pair, i then j increasing, is the witness
        bad = np.argwhere(supp_mu.T @ (1 - supp_nu) > 0)
        if bad.size:
            i, j = bad[0]
            violations.append((mu, nu, nodes_mu[i], nodes_nu[j]))
    return tuple(violations)


def is_orbit_periodic(a: TropicalMatrix,
                      method: str = "support") -> OrbitReport:
    """Decide orbit periodicity.

    method "support" settles condition 2 through the ultimate-expansion
    support inclusions (the production route), "strong-access" through
    the strong-access rows of the component representatives.
    """
    if method not in ("support", "strong-access"):
        raise DomainError("method must be 'support' or 'strong-access'")
    cs = _critical(a)
    if cs is None:
        return OrbitReport(True, (), (), (), 1, method)
    above = _above(cs)
    cond1 = _pairs(cs.scc, cs.scc.access & above)
    cond2 = supp = ()
    if method == "strong-access":
        cond2 = _condition2_strong(a, cs, above)
    elif not cond1:
        supp = a._cached("support_violations",
                         lambda: _support_violations(a))
    verdict = not (cond1 or cond2 or supp)
    return OrbitReport(verdict, cond1, cond2, supp, _gamma_u(a), method)


def column_periodicity(a: TropicalMatrix, j: int) -> bool:
    """Is the column orbit {a^t e_j} ultimately linear periodic?

    True iff no nontrivial component with access to j has a larger cycle
    mean than j's own component.  j must belong to a nontrivial component
    (DimensionError for a j outside 0 ... n - 1).
    """
    j = _check_node(a, j)
    cs = _critical(a)
    if cs is None:
        raise TrivialColumnError("trivial column: %d (digraph is acyclic)" % j)
    dec = cs.scc
    cj = int(dec.component_of[j])
    if dec.is_trivial[cj]:
        raise TrivialColumnError("trivial column: %d" % j)
    return not (dec.access[:, cj] & _above(cs)[:, cj]).any()


def pair_periodicity(a: TropicalMatrix, i: int, j: int) -> bool:
    """Is the orbit of e_i (+) e_j ultimately linear periodic?

    Requires both single columns to be periodic; then the pair orbit is
    periodic iff one node strongly accesses the other or their component
    cycle means agree.  Both nodes lie in nontrivial components, so their
    two rows of strong access (not memoized) return within the larger
    component's size in steps.
    """
    for v in (i, j):
        if not column_periodicity(a, v):
            raise DomainError("column %d is not ultimately periodic" % v)
    cs = _critical(a)
    lam_i = cs.lambda_of_node(i)
    lam_j = cs.lambda_of_node(j)
    if _agree(lam_i, lam_j, CRIT_TOL):
        return True
    sa = _strong_access(a, [i, j])
    return bool(sa[0, j] or sa[1, i])


def orbit_growth_rate(a: TropicalMatrix, y) -> float:
    """Growth rate of the orbit of y for an orbit periodic matrix.

    The rate is the largest cycle mean among nontrivial components that
    access the support of y; -inf when only trivial parts are reachable
    (the orbit dies out).  Raises when a is not orbit periodic or y is the
    zero vector.
    """
    y = as_vector(y, a.n)
    if not (y != NEG_INF).any():
        raise ZeroVectorError("zero vector")
    if not is_orbit_periodic(a).verdict:
        raise NotOrbitPeriodicError("not orbit periodic")
    cs = _critical(a)
    if cs is None:
        return NEG_INF
    dec = cs.scc
    reach = dec.access[:, dec.component_of[y != NEG_INF]].any(axis=1)
    return float(np.max(np.array(cs.lambda_of_component)[reach],
                        initial=NEG_INF))


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
    # every divisor p at once: the last row's -inf pattern and its
    # spread of slopes against the row p before, then the survivors in
    # increasing order
    ps = np.array([p for p in _divisors(gamma) if p <= t_max], dtype=int)
    top, bots = samples[t_max], samples[t_max - ps]
    mask = top != NEG_INF
    keep = ((bots != NEG_INF) == mask).all(axis=1)
    if mask.any():
        diffs = (top[mask] - bots[:, mask]) / ps[:, None]
        keep &= ~_exceeds(diffs.max(axis=1), diffs.min(axis=1), tol)
        rates = diffs[:, 0]
    else:
        rates = np.full(ps.size, NEG_INF)
    for p, rate in zip(ps[keep].tolist(), rates[keep].tolist()):
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


def _term_bound(a: TropicalMatrix, y: np.ndarray, t_max: int,
                gamma: int) -> int | None:
    """The threshold t' for the term route (A^t = E(t) at CRIT_TOL for
    every t >= t'), or None when the route does not apply: no t' is
    memoized (an ultimate_threshold scan memoizes the t' it proves), t'
    passes t_max, a component cycle mean is fractional, the terms' gammas
    sum past _DETECT_CHUNK, or a sum of the orbit or of the terms'
    factors and y is inexact (_exact_sums over t_max plus the
    4 n (gamma_u + 1) weights of a factor).  On the input admitted
    A^t = E(t) holds exactly and lam t is an integer, so the rows read
    off the terms are the stepped rows bit for bit.

    The route never proves t' itself: the scan's bound lines cost about
    2 n^2 m (gamma + 1) floats per term of m cyclic classes, which can
    pass the stepping they would spare (zero-weight cycles 2 ... 11:
    16 ms -> 0.24 s).
    """
    start = _known_threshold(a)
    if start is None or start > t_max:
        return None
    if (not _integral_max(np.array(_critical(a).lambda_of_component))[0]
            or sum(tr.gamma for _, tr in _ultimate_terms(a).terms)
            > _DETECT_CHUNK
            or not _exact_sums(a, t_max + 4 * a.n * (gamma + 1), y=y)):
        return None
    return start


def _term_rows(a: TropicalMatrix, samples: np.ndarray, start: int):
    """samples[t] = E(t) (x) y for t > start, y = samples[0]: the max over
    the ultimate terms of q[(t - start - 1) % gamma] + lam t, where
    q[k] = C^ (x) z[sigma_(start + 1 + k)] and z = R^ (x) y, for the first
    min(gamma, rows) residues.  lam t is an integer, so a -0.0 in q sums
    to +0.0, as it does in a stepped row.  _DETECT_CHUNK rows at a time,
    so O(_DETECT_CHUNK * n) scratch floats."""
    t_max = samples.shape[0] - 1
    parts = []
    for lam, tr in _ultimate_terms(a).terms:
        z = (tr.r_hat + samples[0]).max(axis=1)
        ks = start + 1 + np.arange(min(tr.gamma, t_max - start))
        parts.append((_mp_matmul(z[_shift(tr.slots, ks[:, None])],
                                 tr.c_hat.T), int(lam), tr.gamma))
    for lo in range(start + 1, t_max + 1, _DETECT_CHUNK):
        ts = np.arange(lo, min(lo + _DETECT_CHUNK, t_max + 1))
        out = samples[lo:lo + _DETECT_CHUNK]
        out.fill(NEG_INF)
        for q, lam, gamma in parts:
            part = q[(ts - start - 1) % gamma]
            part += (lam * ts)[:, None]
            np.maximum(out, part, out=out)


def simulate_orbit(a: TropicalMatrix, y,
                   t_max: int | None = None) -> OrbitTrace:
    """Record the orbit of y and look for ultimate linear periodicity.

    Candidate periods are the divisors of the critical lcm gamma_u in
    increasing order; for each, the equations
    samples[s + p] = p * rate + samples[s] are checked at CRIT_TOL from
    the tail backwards and the transient is one past the last failing
    one.  A detection must be backed by at least gamma_u + 1 trailing
    steps.  t_max defaults to 6 n^2 + 2 gamma_u.

    Rows are stepped one at a time with the arithmetic of
    TropicalMatrix.apply (_step_rows).  When _term_bound admits the
    threshold t' (a^t = E(t) for every t >= t') that ultimate_threshold
    proved and memoized on a, only the rows up to t' are stepped and
    every later row is read off the terms (_term_rows), bit for bit the
    rows of the loop.  This never proves t' itself, so for a long orbit
    call ultimate_threshold(a) first.  A sum that overflows float64
    raises NonFiniteError.  Memory is the (t_max + 1) x n sample array
    and O(n^2 + _DETECT_CHUNK * n) scratch floats (_DETECT_CHUNK rows per
    detection block or block of term rows).
    """
    y = as_vector(y, a.n)
    t_max = t_max if t_max is None else _count(t_max, "t_max")
    gamma = _gamma_u(a)
    if t_max is None:
        t_max = 6 * a.n * a.n + 2 * gamma
    samples = np.empty(_shape("t_max", t_max + 1, a.n))
    samples[0] = y
    start = _term_bound(a, y, t_max, gamma) if t_max else None
    if start is None:
        _step_rows(a.arr, samples)
    else:
        _step_rows(a.arr, samples[:start + 1])
        _term_rows(a, samples, start)
    samples.setflags(write=False)
    period, rate, transient = _detect(samples, gamma, CRIT_TOL)
    return OrbitTrace(y=samples[0], samples=samples, period=period,
                      growth_rate=rate, transient=transient)
