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

from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, TropicalMatrix, as_vector
from .errors import NotOrbitPeriodicError, TrivialColumnError, ZeroVectorError
from .expansions import ultimate_expand
from .csr import csr_product
from .graphs import _critical, gamma_u as _gamma_u, strong_access_matrix


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
            if abs(cs.lambda_of_component[p] - cs.lambda_of_component[q]) <= tol:
                continue
            i, j = min(dec.components[p]), min(dec.components[q])
            if not (sa[i, j] or sa[j, i]):
                violations.append((i, j))
    return violations


def _support_violations(a: TropicalMatrix, tol: float):
    e = ultimate_expand(a)
    supports = []
    for lam, triple in e.terms:
        u1 = csr_product(triple, 1).matrix.arr
        cols = {i: set(np.nonzero(u1[:, i] != NEG_INF)[0].tolist())
                for i in sorted(triple.crit.nodes)}
        supports.append((lam, cols))
    violations = []
    for mu, (lam_mu, cols_mu) in enumerate(supports):
        for nu, (lam_nu, cols_nu) in enumerate(supports):
            if not lam_mu < lam_nu - tol:
                continue
            for i, supp_i in cols_mu.items():
                for j, supp_j in cols_nu.items():
                    if not supp_i <= supp_j:
                        violations.append((mu, nu, i, j))
                        break
                else:
                    continue
                break
    return violations


def is_orbit_periodic(a: TropicalMatrix, method: str = "support",
                      tol: float = 1e-9) -> OrbitReport:
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


def column_periodicity(a: TropicalMatrix, j: int, tol: float = 1e-9) -> bool:
    """Is the column orbit {a^t e_j} ultimately linear periodic?

    True iff no nontrivial component with access to j has a larger cycle
    mean than j's own component.  j must belong to a nontrivial component.
    """
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


def pair_periodicity(a: TropicalMatrix, i: int, j: int, tol: float = 1e-9) -> bool:
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
    if abs(lam_i - lam_j) <= tol:
        return True
    sa = strong_access_matrix(a)
    return bool(sa[i, j] or sa[j, i])


def orbit_growth_rate(a: TropicalMatrix, y, tol: float = 1e-9) -> float:
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
    out = [d for d in range(1, g + 1) if g % d == 0]
    return out


def _detect(samples: np.ndarray, gamma: int, tol: float):
    """Smallest (period dividing gamma, rate, transient) with the linear
    identity verified on at least gamma+1 trailing equations."""
    t_max = samples.shape[0] - 1
    finite = samples != NEG_INF
    for p in _divisors(gamma):
        if t_max - p < 0:
            continue
        top, bot = samples[t_max], samples[t_max - p]
        if not np.array_equal(finite[t_max], finite[t_max - p]):
            continue
        mask = finite[t_max]
        if mask.any():
            diffs = (top[mask] - bot[mask]) / p
            if np.ptp(diffs) > tol:
                continue
            rate = float(diffs[0])
        else:
            rate = NEG_INF
        t = t_max - p
        while t >= 1:
            s = t - 1
            if not np.array_equal(finite[s + p], finite[s]):
                break
            m = finite[s]
            if m.any():
                if rate == NEG_INF:
                    break
                if np.max(np.abs(samples[s + p][m] - samples[s][m] - rate * p)) > tol:
                    break
            t = s
        if t_max - p - t + 1 >= gamma + 1:
            return p, rate, t
    return None, None, None


def simulate_orbit(a: TropicalMatrix, y, t_max: int | None = None,
                   tol: float = 1e-9) -> OrbitTrace:
    """Record the orbit of y and look for ultimate linear periodicity.

    Candidate periods are the divisors of the critical lcm gamma_u in
    increasing order; candidate transients increase from 0.  A detection
    must be backed by at least gamma_u + 1 trailing steps.
    """
    y = as_vector(y, a.n)
    gamma = _gamma_u(a)
    if t_max is None:
        t_max = 6 * a.n * a.n + 2 * gamma
    samples = np.empty((t_max + 1, a.n))
    samples[0] = y
    x = y
    for t in range(1, t_max + 1):
        x = a.apply(x)
        samples[t] = x
    samples.setflags(write=False)
    period, rate, transient = _detect(samples, gamma, tol)
    return OrbitTrace(y=y, samples=samples, period=period, growth_rate=rate,
                      transient=transient)
