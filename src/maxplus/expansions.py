"""Periodic expansions of max-plus matrix powers.

Both expansions write a^t as a max of terms lam_mu^t (x) P_mu^(t) where each
P_mu^(t) is a periodic CSR product.  The power expansion (Nachtigall form)
peels off critical nodes one level at a time and is valid for every
t >= 3 n^2.  The ultimate expansion peels off whole components grouped by
their maximum cycle mean; it has one term per distinct component cycle mean
and agrees with a^t from some finite threshold on, which
ultimate_threshold measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, mat_oplus, mat_power,
                   _EXACT_MEMO, _agree, _arr_eq, _exact_sums, _exactness,
                   _mp_matmul, _overflow_checked)
from .csr import (CsrTriple, csr_build, _class_factors, _class_product,
                  _shift)
from .errors import AnalysisError, NoCyclesError, ThresholdError
from .graphs import (CritSubgraph, CriticalStructure, _COMPONENT_MEMO, _bfs,
                     _critical)

# Floats in one chunk of residues of _term_lines and in the broadcast that
# forms it: bounds its memory independently of gamma.
_CHUNK_FLOATS = 2 ** 16


@dataclass(frozen=True)
class DeflationStep:
    """One level of a deflation sequence.

    k_set is the surviving node set, a_mu the restriction of the input to
    it, lambda_mu its maximum cycle mean, crit the critical selection whose
    nodes get removed next.  m_set is the set actually removed (equal to
    crit's nodes for the power expansion, the full components for the
    ultimate one).
    """

    mu: int
    k_set: tuple
    a_mu: TropicalMatrix
    lambda_mu: float
    crit: CritSubgraph
    m_set: tuple


class Term(NamedTuple):
    lam: float
    triple: CsrTriple


@dataclass
class Expansion:
    """Ordered terms (lam_mu, CsrTriple) of one expansion variant."""

    variant: str
    n: int
    terms: list
    steps: list
    sigma: tuple | None
    gamma_u: int
    validity_threshold: int | None

    @property
    def lambdas(self) -> tuple:
        return tuple(term.lam for term in self.terms)


@dataclass(frozen=True)
class ExpansionEvaluation:
    t: int
    matrix: TropicalMatrix
    per_term: list


def _shortest_critical_cycle(cs: CriticalStructure) -> list:
    """Shortest critical cycle through the smallest critical node, as a node
    sequence starting there.

    Breadth-first search over the critical edges, visiting successors in
    increasing order, so equally short cycles go to the one found first.
    Every critical edge lies on a cycle of critical edges, so the search
    returns to the start.  O(n^2): each critical edge is looked at once.
    When the tolerance has let that fail (weights too large for CRIT_TOL),
    AnalysisError names a critical node with no outgoing critical edge.
    """
    root = min(cs.critical_nodes)
    order, parent, succ = _bfs(cs.critical_edges, [root])
    for v in order:
        if v not in succ:
            raise AnalysisError("critical node %d has no outgoing critical "
                                "edge" % v)
        if root in succ[v]:
            break
    else:
        raise AnalysisError("no critical cycle through node %d" % root)
    cycle = []
    while v is not None:
        cycle.append(v)
        v = parent[v]
    return cycle[::-1]


def _select_crit(cs: CriticalStructure, rule: str) -> CritSubgraph:
    if rule == "canonical":
        return CritSubgraph.from_critical_structure(cs)
    if rule == "cycle":
        return CritSubgraph.from_cycle(_shortest_critical_cycle(cs))
    raise ValueError("rule must be 'canonical' or 'cycle'")


def _level(a: TropicalMatrix, keep) -> TropicalMatrix:
    """a restricted to keep, sharing a's component analyses and its
    exactness record; a itself (with its memo) when nothing is cut."""
    if len(keep) == a.n:
        return a
    sub = a.restrict(keep)
    sub._memo[_COMPONENT_MEMO] = a._cached(_COMPONENT_MEMO, dict)
    sub._memo[_EXACT_MEMO] = _exactness(a)
    return sub


def _deflation_steps(a: TropicalMatrix, rule: str) -> list:
    """Deflation levels of a under rule, computed once per matrix.  The list
    is shared: callers copy it before handing it out."""
    return a._cached(("deflation", rule), lambda: _deflate(a, rule))


def _deflate(a: TropicalMatrix, rule: str) -> list:
    steps = []
    keep = set(range(a.n))
    mu = 0
    while keep:
        a_mu = _level(a, keep)
        cs = _critical(a_mu)
        if cs is None:
            break
        if not cs.critical_nodes:
            # nothing would be removed, so the next level would be this one
            raise AnalysisError(
                "deflation level %d (cycle mean %g) has no critical node"
                % (mu, cs.lambda_global))
        crit = _select_crit(cs, rule)
        steps.append(DeflationStep(mu=mu, k_set=tuple(sorted(keep)), a_mu=a_mu,
                                   lambda_mu=float(cs.lambda_global), crit=crit,
                                   m_set=tuple(sorted(crit.nodes))))
        keep -= crit.nodes
        mu += 1
    if not steps:
        raise NoCyclesError("no cycles")
    return steps


def _ultimate_steps(a: TropicalMatrix) -> list:
    """Ultimate levels of a, computed once per matrix; shared like
    _deflation_steps."""
    return a._cached("ultimate", lambda: _ultimate_levels(a))


def _ultimate_levels(a: TropicalMatrix) -> list:
    cs = _critical(a)
    if cs is None:
        raise NoCyclesError("no cycles")
    # components by falling cycle mean (ties in component order); one joins
    # the current group when it agrees within CRIT_TOL with the group's
    # first, largest mean, so means that float sums left an ulp apart share
    # a level at that mean
    groups = []
    for c in sorted(cs.scc.nontrivial(),
                    key=lambda c: -cs.lambda_of_component[c]):
        lam = float(cs.lambda_of_component[c])
        if groups and _agree(groups[-1][0], lam, CRIT_TOL):
            groups[-1][1].append(c)
        else:
            groups.append((lam, [c]))
    steps = []
    keep = set(range(a.n))
    for mu, (lam, members) in enumerate(groups):
        crit = CritSubgraph._assemble([
            (pc.crit_edges, pc.crit_components, pc.cyclicity_of, pc.class_of)
            for pc in (cs.per_component[c] for c in members)])
        m_nodes = [v for c in members for v in cs.scc.components[c]]
        steps.append(DeflationStep(mu=mu, k_set=tuple(sorted(keep)),
                                   a_mu=_level(a, keep), lambda_mu=lam,
                                   crit=crit, m_set=tuple(sorted(m_nodes))))
        keep -= set(m_nodes)
    return steps


def _shared_star(st: DeflationStep) -> np.ndarray | None:
    """The star the component analysis formed of the level minus its cycle
    mean, when that is the (A - lam)^gamma* csr_build needs: the level is
    one component (so all its nodes are active), gamma is 1 and lam is the
    component's.  The entries and the subtraction are the same, so the
    arrays are equal bit for bit."""
    pc = st.a_mu._memo.get(_COMPONENT_MEMO, {}).get(st.k_set)
    if pc is None or st.crit.gamma != 1 or pc.lam != st.lambda_mu:
        return None
    return pc.star


def _build_expansion(a: TropicalMatrix, variant: str, steps: list,
                     sigma: tuple | None) -> Expansion:
    """The expansion over steps, with its terms built once per matrix and
    variant (the triples hold no mutable state) but fresh lists each call.
    A term depends on its level's node set, cycle mean and critical edges
    only, so levels that agree on those (the first canonical and ultimate
    levels, mostly) share one term."""
    terms = a._cached(("terms", variant), lambda: [a._cached(
        ("term", st.k_set, st.lambda_mu.hex(), st.crit.edges),
        lambda: Term(st.lambda_mu, csr_build(st.a_mu.scale(-st.lambda_mu),
                                             st.crit, check_definite=False,
                                             _star=_shared_star(st))))
        for st in steps])
    threshold = 3 * a.n * a.n if variant.startswith("nachtigall") else None
    return Expansion(variant=variant, n=a.n, terms=list(terms),
                     steps=list(steps), sigma=sigma,
                     gamma_u=math.lcm(*(tr.gamma for _, tr in terms)),
                     validity_threshold=threshold)


def nachtigall_expand(a: TropicalMatrix, rule: str = "canonical") -> Expansion:
    """Power expansion valid for all t >= 3 n^2.

    rule picks the critical selection per level: "canonical" removes the
    whole critical graph (cycle means then strictly decrease), "cycle"
    removes only the shortest critical cycle through the smallest critical
    node (ties go to the cycle a breadth-first search over successors in
    increasing order finds first).
    """
    steps = _deflation_steps(a, rule)
    return _build_expansion(a, "nachtigall-" + rule, steps, None)


def ultimate_expand(a: TropicalMatrix) -> Expansion:
    """Ultimate expansion: one term per distinct component cycle mean.

    sigma maps each term index to the index of the canonical power
    expansion term with the same cycle mean.
    """
    steps = _ultimate_steps(a)
    lams = np.array([st.lambda_mu for st in _deflation_steps(a, "canonical")])
    sigma = []
    for st in steps:
        matches = np.flatnonzero(_agree(lams, st.lambda_mu, CRIT_TOL)).tolist()
        if len(matches) != 1:
            raise AnalysisError(
                "cycle mean %g of ultimate level %d matches canonical levels %s"
                % (st.lambda_mu, st.mu, matches))
        sigma.append(matches[0])
    return _build_expansion(a, "ultimate", steps, tuple(sigma))


@_overflow_checked
def evaluate(e: Expansion, t: int) -> ExpansionEvaluation:
    """Max of lam^t-scaled periodic products over all terms.
    NonFiniteError when lam * t or a sum of it leaves float64."""
    if t < 0:
        raise ValueError("negative exponent")
    per = [TropicalMatrix(_class_product(tr.c_hat, tr.r_hat, tr.slots,
                                         t % tr.gamma) + np.float64(lam) * t,
                          copy=False)
           for lam, tr in e.terms]
    return ExpansionEvaluation(t=t, matrix=reduce(mat_oplus, per),
                               per_term=per)


def _periodic_steps(start: np.ndarray, step: np.ndarray, r: int, gamma: int,
                    budget: int) -> np.ndarray | None:
    """start (x) step^r, stepped one product at a time until the sequence
    repeats bit for bit after gamma steps; None when that takes more than
    budget steps.  Each term is a deterministic function of the bits of
    the one before, so from a repeat on the sequence is periodic and the
    term at r is one of the last gamma seen."""
    seen = [start]
    for k in range(1, budget + 1):
        seen.append(_mp_matmul(seen[-1], step))
        if k >= gamma and seen[k].tobytes() == seen[k - gamma].tobytes():
            return seen[k - gamma + (r - k) % gamma]
    return None


def _class_power(s: np.ndarray, rep: np.ndarray, gamma: int, r: int,
                 exact: bool) -> tuple | None:
    """(columns, rows) of s^r at the positions rep (the columns held as
    rows), stepped from the unit vectors there until they repeat after
    gamma steps; None when the stepping does not apply.

    It applies when every sum of r + 1 weights of s is exact (exact: see
    fast_terms), so the result equals the squaring chain's bit for bit up
    to the sign of a zero (a -0.0 weight sums to -0.0 there, to 0.0 from a
    unit start), which no term keeps: R^ adds potentials never -0.0.
    And it applies only within about two n x n squarings of work: each of
    the two sequences gets ceil(n / m) steps of an m x n by n x n product
    (m = rep.size classes), and a level with gamma above that is not
    tried."""
    budget = -(-len(s) // rep.size)
    if gamma >= budget or not exact:
        return None
    unit = np.full((rep.size, len(s)), NEG_INF)
    unit[np.arange(rep.size), rep] = 0.0
    cols = _periodic_steps(unit, s.T, r, gamma, budget)
    rows = None if cols is None else _periodic_steps(unit, s, r, gamma, budget)
    return None if rows is None else (cols, rows)


def fast_terms(a: TropicalMatrix, t: int, variant: str = "nachtigall",
               rule: str = "canonical") -> list:
    """All term matrices P_mu^(t) without forming any Kleene star.

    Each deflated level is normalized to S and only the columns and rows
    of S^r at its class representatives are needed, for the power of two
    r >= 3 n^2 (only the K_mu x K_mu block: entries outside are -inf and
    change no max).  When every sum is exact (_exact_sums(a, r, lambda)),
    they are stepped from the unit vectors, m x n
    by n x n products for m classes, until each sequence repeats after
    gamma steps (_class_power); critical columns and rows turn periodic
    after a transient bounded independently of the weights (Merlet,
    Nowak, Schneider and Sergeev, 2014), so this mostly ends long before
    a squaring chain would.  The stepping gets a budget of about two
    n x n squarings.  A level with fractional lambda, huge weights, a
    gamma beyond the budget or a longer transient is raised to S^r by
    repeated squaring instead (mat_power, which stops at a bitwise fixed
    point).  Both routes give the same terms, bit for bit.  The level's
    critical columns and rows are then those of C S^r and S^r R, and
    P(t) = C S^r (x) S^(t - 2r) (x) S^r R, so with the potentials of the
    level's normalized weights they are class factors (see csr) read at
    t - 2r: one n x m by m x n product, and no scaling.  Results match
    the literal CSR products.
    """
    if t < 0:
        raise ValueError("negative exponent")
    n = a.n
    if variant == "nachtigall":
        if t < 3 * n * n:
            raise ThresholdError("t below validity threshold 3n^2 = %d" % (3 * n * n))
        steps = _deflation_steps(a, rule)
    elif variant == "ultimate":
        steps = _ultimate_steps(a)
    else:
        raise ValueError("variant must be 'nachtigall' or 'ultimate'")

    r = 1
    while r < 3 * n * n:
        r <<= 1
    out = []
    for st in steps:
        k = np.array(st.k_set)
        level = TropicalMatrix(a.arr[np.ix_(k, k)],
                               copy=False).scale(-st.lambda_mu)
        rep = np.array([b[0] for bs in st.crit.members for b in bs])
        powered = np.full((n, n), NEG_INF)
        found = _class_power(level.arr, np.searchsorted(k, rep),
                             st.crit.gamma, r, _exact_sums(a, r, st.lambda_mu))
        if found is None:
            powered[np.ix_(k, k)] = mat_power(level, r).arr
        else:
            powered[np.ix_(k, rep)] = found[0].T
            powered[np.ix_(rep, k)] = found[1]
        factors = _class_factors(powered, st.crit, a.arr, st.lambda_mu)
        prod = _class_product(*factors, (t - 2 * r) % st.crit.gamma)
        out.append(TropicalMatrix(prod, copy=False))
    return out


def _term_lines(a: TropicalMatrix, lam: float, triple: CsrTriple,
                tol: float):
    """The lines one term adds to A (x) E(t) and to E(t + 1).

    On t = r (mod gamma) the term adds to entry (i, j) a line of slope lam
    with intercept (A (x) P(r))_ij on the first side and lam + P(r + 1)_ij
    on the second; the line agrees when the two match within tol (two -inf
    match).  Returns (low, high): per entry, low is the lowest agreeing
    intercept over all r (-inf as soon as one r disagrees or is -inf),
    high the highest intercept of a disagreeing r (-inf if none).

    [C^; A (x) C^] (x) R^[sigma_r] gives P(r) and A (x) P(r) together,
    for a chunk of residues at once: one broadcast over (classes,
    residues, 2n, n) reduced over the class axis, or a class at a time
    when that broadcast would pass _CHUNK_FLOATS floats, which also bounds
    the chunk.  So one multiplication for A (x) C^ and one batched product
    per chunk (each also forms the residue after it), O(n^2 +
    _CHUNK_FLOATS) memory, and the lines of one product per residue, bit
    for bit.
    """
    n = a.n
    low = np.full((n, n), np.inf)
    high = np.full((n, n), NEG_INF)
    left = np.vstack([triple.c_hat, _mp_matmul(a.arr, triple.c_hat)]).T
    m, gamma = len(left), triple.gamma
    chunk = max(1, min(gamma, _CHUNK_FLOATS // (2 * n * n) - 1))
    for start in range(0, gamma, chunk):
        # and the residue after the chunk, to pair its last A (x) P(r)
        # with P(r + 1); P(gamma) is P(0)
        rs = np.arange(start, min(start + chunk, gamma) + 1)
        right = triple.r_hat[_shift(triple.slots, rs[:, None]).T]
        if m * rs.size * 2 * n * n <= _CHUNK_FLOATS:
            out = (left[:, None, :, None] + right[:, :, None, :]).max(axis=0)
        else:   # a class at a time
            out = left[0, None, :, None] + right[0, :, None, :]
            for c in range(1, m):
                np.maximum(out, left[c, None, :, None] + right[c, :, None, :],
                           out=out)
        x, y = out[:-1, n:], out[1:, :n] + lam
        agree = _agree(x, y, tol)
        np.minimum(low, np.where(agree, np.minimum(x, y), NEG_INF).min(axis=0),
                   out=low)
        np.maximum(high, np.where(agree, NEG_INF, np.maximum(x, y)).max(axis=0),
                   out=high)
    return low, high


def _threshold_tables(a: TropicalMatrix, e: Expansion, tol: float):
    """A bound T with A (x) E(t) = E(t + 1) for every t >= T.

    A line that disagrees (see _term_lines) shows in neither side once an
    agreeing line of a larger slope lies above it for good.  Per entry and
    disagreeing term, T has to pass the earliest such overtaking among
    the terms of larger cycle mean, judged on the lowest agreeing and the
    highest disagreeing intercepts, so the residue of t never matters.
    Returns None when some disagreeing line has no agreeing line above it.

    Costs one n x n by n x m multiplication per term and one chunked
    broadcast per _CHUNK_FLOATS floats of residues (see _term_lines),
    O(len(terms)^2 n^2) array work and O(n m + _CHUNK_FLOATS) memory per
    term (m cyclic classes); nothing is sized by gamma_u.
    """
    lines = [(lam, _term_lines(a, lam, triple, tol)) for lam, triple in e.terms]
    bound = 0
    for lam_mu, (_, high) in lines:
        need = high != NEG_INF
        if not need.any():
            continue
        first = np.full(need.shape, np.inf)
        for lam_nu, (low, _) in lines:
            if lam_nu > lam_mu:
                ok = need & (low != NEG_INF)
                cross = (high[ok] - low[ok]) / (lam_nu - lam_mu)
                first[ok] = np.minimum(first[ok], np.floor(cross) + 1)
        last = float(first[need].max())
        if not math.isfinite(last):
            return None
        bound = max(bound, int(last))
    return bound


def _first_equal_past_bound(a: TropicalMatrix, cur: np.ndarray, lo: int,
                            t_max: int, matches) -> int | None:
    """Smallest t in (lo, t_max] with matches(A^t, t), given cur = A^lo
    that does not match; None if there is none.

    Only for a lo past the bound of _threshold_tables, where a match
    holds at every later exponent once it holds at one, and for input
    whose powers are the same bits in any grouping: it gallops with
    A^lo (x) A^(2^j) over j = 0, 1, ... while that fails, then lifts by
    the same squares, largest first.  O(log(t' - lo)) products, each
    square formed when a probe first needs it, and no power past t_max.
    """
    squares = [a.arr]
    j = 0
    while lo + (1 << j) <= t_max:
        if j == len(squares):
            squares.append(_mp_matmul(squares[-1], squares[-1]))
        probe = _mp_matmul(cur, squares[j])
        if matches(probe, lo + (1 << j)):
            break
        cur, lo, j = probe, lo + (1 << j), j + 1
    for i in range(j - 1, -1, -1):
        if lo + (1 << i) <= t_max:
            probe = _mp_matmul(cur, squares[i])
            if not matches(probe, lo + (1 << i)):
                cur, lo = probe, lo + (1 << i)
    return lo + 1 if lo < t_max else None


def ultimate_threshold(a: TropicalMatrix, e: Expansion | None = None,
                       t_max: int | None = None,
                       tol: float = CRIT_TOL) -> int | None:
    """Smallest t' <= t_max from which the ultimate expansion equals a^t.

    The scan compares a^t with E(t) for t = 0, 1, ... and tracks the
    current run of equal exponents.  It stops on a proof: a bound T with
    A (x) E(t) = E(t + 1) for all t >= T (see _threshold_tables), so once
    the run reaches some t >= T, induction carries a^t = E(t) to every
    later t and the run's start is t'.  The bound costs a product per term
    and per chunk of residues, nothing sized by gamma_u.  The scan steps
    one product for a^t and one for E(t) per exponent (E(t) is one
    product of the terms' stacked class factors: O(n * classes) memory)
    until the first unequal exponent at or past T.  From there on a^t =
    E(t), once true, stays true, so when every power's sums are exact
    (_exact_sums) the first equal exponent is searched for by galloping
    and halving over the squares of A (_first_equal_past_bound):
    O(log(t' - T)) products instead of t' - T.  On other input the scan
    keeps stepping.

    When no bound exists, or it lies beyond the window below, the scan
    falls back to accepting a run of gamma_u + ceil(log2 t_max) extra
    equal exponents past its start.  A run accepted through the bound
    never breaks, so both rules name the same t'.  Returns None when no
    qualifying t' exists below t_max (reported, not raised); t_max
    defaults to 30 n^2.
    """
    n = a.n
    if t_max is not None and t_max < 0:
        raise ValueError("negative t_max")
    if e is None:
        e = ultimate_expand(a)
    if t_max is None:
        t_max = 30 * n * n
    window = e.gamma_u + max(1, math.ceil(math.log2(max(t_max, 2))))
    bound = _threshold_tables(a, e, tol)
    # all terms side by side: a shift never leaves a term's own slots
    c_all = np.hstack([triple.c_hat for _, triple in e.terms])
    r_all = np.vstack([triple.r_hat for _, triple in e.terms])
    slots = tuple(map(np.concatenate, zip(*(tr.slots for _, tr in e.terms))))
    lams = np.concatenate([np.full((len(triple.r_hat), 1), lam)
                           for lam, triple in e.terms])

    def matches(power, t):
        right = r_all[_shift(slots, t)] + lams * t
        return _arr_eq(power, _mp_matmul(c_all, right), tol)

    search = bound is not None and _exact_sums(a, t_max + window)
    cur = TropicalMatrix.identity(n).arr
    run_start = None
    for t in range(t_max + window + 1):
        if matches(cur, t):
            if run_start is None:
                run_start = t
            if bound is not None and t >= bound:
                return run_start if run_start <= t_max else None
            if run_start <= t_max and t - run_start >= window:
                return run_start
        else:
            run_start = None
            if t > t_max:
                return None
            if search and t >= bound:
                return _first_equal_past_bound(a, cur, t, t_max, matches)
        cur = _mp_matmul(cur, a.arr)
    return None
