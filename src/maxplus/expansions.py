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

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, mat_oplus, _agree,
                   _arr_eq, _count, _exact_sums, _exceeds, _mp_matmul,
                   _overflow_checked)
from .csr import CsrTriple, csr_build, _class_product, _shift
from .errors import AnalysisError, DomainError, NonFiniteError, ThresholdError
from .graphs import (CritSubgraph, _bfs, _components, _known_component,
                     critical_structure)

# Floats in the live arrays of one chunk of residues of _term_lines:
# bounds its memory independently of gamma.
_CHUNK_FLOATS = 2 ** 16

# _memo key of (t', t_max of the scan that proved it): see _threshold_scan
_THRESHOLD_MEMO = "threshold"


@dataclass(frozen=True)
class DeflationStep:
    """One level of a deflation sequence (see _deflate): plain data.

    k_set is the surviving node set, so the level's matrix is
    a.restrict(k_set) for the input a; lambda_mu is its maximum cycle
    mean, crit the selection read off the critical parts of its top
    components.  m_set is the set removed (crit's nodes for the power
    expansion, the whole top components for the ultimate one).
    """

    mu: int
    k_set: tuple
    lambda_mu: float
    crit: CritSubgraph
    m_set: tuple


class Term(NamedTuple):
    lam: float
    triple: CsrTriple


@dataclass(frozen=True)
class Expansion:
    """Ordered terms (lam_mu, CsrTriple) of one expansion variant and the
    levels they come from: tuples that every call for the variant shares."""

    variant: str
    n: int
    terms: tuple
    steps: tuple
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


def _shortest_critical_cycle(crit: CritSubgraph) -> list:
    """Shortest cycle of crit through its smallest node, as a node
    sequence starting there.

    Breadth-first search over crit's edges, visiting successors in
    increasing order, so equally short cycles go to the one found first.
    Every critical edge lies on a cycle of critical edges, so the search
    returns to the start.  O(n^2): each critical edge is looked at once.
    When the tolerance has let that fail (weights too large for CRIT_TOL),
    AnalysisError names a critical node with no outgoing critical edge.
    """
    root = min(crit.nodes)
    order, parent, succ = _bfs(crit.edges, [root])
    for v in order:
        if v not in succ:
            raise AnalysisError("critical node %d has no outgoing critical "
                                "edge", node=v)
        if root in succ[v]:
            break
    else:
        raise AnalysisError("no critical cycle through node %d", node=root)
    cycle = []
    while v is not None:
        cycle.append(v)
        v = parent[v]
    return cycle[::-1]


def _select_crit(crit: CritSubgraph, rule: str) -> CritSubgraph:
    """crit, or under rule "cycle" its shortest cycle through its least node."""
    if rule == "cycle":
        return CritSubgraph.from_cycle(_shortest_critical_cycle(crit))
    return crit


def _deflation_steps(a: TropicalMatrix, rule: str) -> tuple:
    """Deflation levels of a under rule, computed once per matrix."""
    if rule not in ("canonical", "cycle"):
        raise DomainError("rule must be 'canonical' or 'cycle'")
    return a._cached(("deflation", rule), lambda: _deflate(a, rule))


def _ultimate_steps(a: TropicalMatrix) -> tuple:
    """Ultimate levels of a, computed once per matrix."""
    return a._cached("ultimate", lambda: _deflate(a, "ultimate"))


def _deflate(a: TropicalMatrix, rule: str) -> tuple:
    """The levels of a under rule ("canonical", "cycle" or "ultimate"),
    peeled off a's component analyses: each takes the components whose
    mean the largest left does not exceed at CRIT_TOL (so means an ulp
    apart share a level) and removes the selection of their critical
    parts, or under "ultimate" the whole components.  Removing nodes
    never joins components, so only the rest of a component that lost
    some is split, into the strong components of its own block; no level
    is analysed as a matrix."""
    live = [pc for pc in critical_structure(a).per_component
            if pc is not None]
    steps, keep = [], set(range(a.n))
    while live:
        lams = [pc.lam for pc in live]
        lam = float(max(lams))
        top = [pc for pc, below in zip(live, _exceeds(lam, lams, CRIT_TOL))
               if not below]
        crit = CritSubgraph._assemble([
            (pc.crit_edges, pc.crit_components, pc.cyclicity_of, pc.class_of)
            for pc in top])
        if not crit.nodes:
            raise AnalysisError(
                "%s level %d (cycle mean %g) has no critical node"
                % ("ultimate" if rule == "ultimate" else "deflation",
                   len(steps), lam))
        crit = _select_crit(crit, rule)
        gone = (crit.nodes if rule != "ultimate"
                else {v for pc in top for v in pc.nodes})
        steps.append(DeflationStep(mu=len(steps), k_set=tuple(sorted(keep)),
                                   lambda_mu=lam, crit=crit,
                                   m_set=tuple(sorted(gone))))
        keep -= gone
        lefts = [[v for v in pc.nodes if v not in gone] for pc in live]
        live = [part for pc, left in zip(live, lefts) if left for part in (
            [pc] if len(left) == len(pc.nodes) else _components(a, left))]
    return tuple(steps)


def _shared_star(a: TropicalMatrix, st: DeflationStep) -> np.ndarray | None:
    """The star the component analysis of a formed of the level minus its
    cycle mean, when that is the (A - lam)^gamma* csr_build needs: the
    level is one component (so all its nodes are active), gamma is 1 and
    lam is the component's.  That star has the relaxation's bytes (see
    graphs._certified_mean), so the arrays are equal bit for bit."""
    pc = _known_component(a, st.k_set)
    if pc is None or st.crit.gamma != 1 or pc.lam != st.lambda_mu:
        return None
    return pc.star


def _term(a: TropicalMatrix, st: DeflationStep) -> Term:
    """The CSR term of level st, built once per matrix.  A term depends on
    its level's node set, cycle mean and critical edges only, so levels
    that agree on those (the first canonical and ultimate levels, mostly)
    share one, and fast_terms reads the same one."""
    return a._cached(
        ("term", st.k_set, st.lambda_mu.hex(), st.crit.edges),
        lambda: Term(st.lambda_mu, csr_build(
            a, st.crit, check_definite=False,
            _level=(st.k_set, st.lambda_mu, _shared_star(a, st)))))


def _build_expansion(a: TropicalMatrix, variant: str, steps: tuple,
                     sigma: tuple | None) -> Expansion:
    """The expansion over steps, with its terms (_term) kept per matrix
    and variant."""
    terms = a._cached(("terms", variant),
                      lambda: tuple(_term(a, st) for st in steps))
    threshold = 3 * a.n * a.n if variant.startswith("nachtigall") else None
    return Expansion(variant=variant, n=a.n, terms=terms, steps=steps,
                     sigma=sigma,
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


def _ultimate_terms(a: TropicalMatrix) -> Expansion:
    """The ultimate expansion without sigma, which the orbit check and
    the threshold scan never read: it skips the canonical deflation."""
    return _build_expansion(a, "ultimate", _ultimate_steps(a), None)


def ultimate_expand(a: TropicalMatrix) -> Expansion:
    """Ultimate expansion: one term per distinct component cycle mean.

    sigma maps each term index to the index of the canonical power
    expansion term with the same cycle mean; the only route that forms
    it, and so the only ultimate route that runs the canonical deflation
    (ultimate_threshold calls it for that check before answering None).
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
    NonFiniteError when t, lam * t or a sum of it leaves float64."""
    t = _count(t, "exponent")
    try:
        float(t)
    except OverflowError:
        raise NonFiniteError("non-finite value: the exponent overflows "
                             "float64") from None
    per = [TropicalMatrix._wrap(np.float64(lam) * t + _class_product(
        tr.c_hat, tr.r_hat, tr.slots, t % tr.gamma)) for lam, tr in e.terms]
    return ExpansionEvaluation(t=t, matrix=reduce(mat_oplus, per),
                               per_term=per)


def fast_terms(a: TropicalMatrix, t: int, variant: str = "nachtigall",
               rule: str = "canonical") -> list:
    """All term matrices P_mu^(t): each level's CSR term (_term, memoized on
    a and shared with the expansions) read at t by cyclic class, so
    evaluate(e, t).per_term[mu] is lambda_mu t plus it, bit for bit.

    A cold call builds one term per distinct level, a power of the level
    to its cyclicity and one star, O(n^3 log n); over at most n levels
    O(n^4 log n).  Once the expansion over the same levels exists it
    builds none.
    """
    t = _count(t, "exponent")
    n = a.n
    if variant == "nachtigall":
        if t < 3 * n * n:
            raise ThresholdError("t below validity threshold 3n^2 = %d" % (3 * n * n))
        steps = _deflation_steps(a, rule)
    elif variant == "ultimate":
        if rule != "canonical":
            raise DomainError("the ultimate variant takes rule 'canonical'")
        steps = _ultimate_steps(a)
    else:
        raise DomainError("variant must be 'nachtigall' or 'ultimate'")
    return [TropicalMatrix._wrap(_class_product(
        tr.c_hat, tr.r_hat, tr.slots, t % tr.gamma))
        for tr in (_term(a, st).triple for st in steps)]


def _term_lines(a: TropicalMatrix, lam: float, triple: CsrTriple):
    """The lines one term adds to A (x) E(t) and to E(t + 1).

    On t = r (mod gamma) the term adds to entry (i, j) a line of slope lam
    with intercept (A (x) P(r))_ij on the first side and lam + P(r + 1)_ij
    on the second; the line agrees when the two match within CRIT_TOL (two
    -inf match).  Returns (low, high): per entry, low is the lowest agreeing
    intercept over all r (-inf as soon as one r disagrees or is -inf),
    high the highest intercept of a disagreeing r (-inf if none).

    [C^; A (x) C^] (x) R^[sigma_r] gives P(r) and A (x) P(r) together
    for a chunk of residues, one broadcast over (classes, residues, 2n,
    n) per group of classes, reduced into one buffer through a second;
    the second then holds P(r + 1) + lam and each pair's min or max.
    Chunk and group fit _CHUNK_FLOATS (at least one residue and class):
    the buffers take 4 n^2 floats per residue, and beside them a group
    2 n^2 per class and residue, or _agree's temporaries under 2 n^2.
    So O(n^2 + _CHUNK_FLOATS) memory, and the lines of one product per
    residue, bit for bit.
    """
    n = a.n
    low = np.full((n, n), np.inf)
    high = np.full((n, n), NEG_INF)
    left = np.vstack([triple.c_hat, _mp_matmul(a.arr, triple.c_hat)]).T
    m, gamma = len(left), triple.gamma
    chunk = max(1, min(gamma, _CHUNK_FLOATS // (6 * n * n) - 1))
    group = max(1, _CHUNK_FLOATS // ((chunk + 1) * 2 * n * n) - 2)
    out = np.empty((chunk + 1, 2 * n, n))
    work = np.empty_like(out)
    for start in range(0, gamma, chunk):
        # and the residue after the chunk, to pair its last A (x) P(r)
        # with P(r + 1); P(gamma) is P(0)
        rs = np.arange(start, min(start + chunk, gamma) + 1)
        k = rs.size
        right = triple.r_hat[_shift(triple.slots, rs[:, None]).T]
        for c in range(0, m, group):
            np.maximum.reduce(left[c:c + group, None, :, None]
                              + right[c:c + group, :, None, :], axis=0,
                              out=work[:k] if c else out[:k])
            if c:
                np.maximum(out[:k], work[:k], out=out[:k])
        x, y, pair = out[:k - 1, n:], work[:k - 1, :n], work[:k - 1, n:]
        np.add(out[1:k, :n], lam, out=y)
        agree = _agree(x, y, CRIT_TOL)
        np.minimum(x, y, out=pair)
        np.copyto(pair, NEG_INF, where=~agree)
        np.minimum(low, pair.min(axis=0), out=low)
        np.maximum(x, y, out=pair)
        np.copyto(pair, NEG_INF, where=agree)
        np.maximum(high, pair.max(axis=0), out=high)
    return low, high


def _threshold_tables(a: TropicalMatrix, e: Expansion):
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
    lines = [(lam, _term_lines(a, lam, triple)) for lam, triple in e.terms]
    # steeper[nu, mu]: lam_nu > lam_mu at tol 0, as slopes overtake exactly
    steeper = _exceeds(np.array(e.lambdas)[:, None], e.lambdas, 0.0)
    bound = 0
    for mu, (lam_mu, (_, high)) in enumerate(lines):
        need = high != NEG_INF
        if not need.any():
            continue
        first = np.full(need.shape, np.inf)
        for nu, (lam_nu, (low, _)) in enumerate(lines):
            if steeper[nu, mu]:
                ok = need & (low != NEG_INF)
                cross = (high[ok] - low[ok]) / (lam_nu - lam_mu)
                first[ok] = np.minimum(first[ok], np.floor(cross) + 1)
        last = float(first[need].max())
        if not math.isfinite(last):
            return None
        bound = max(bound, int(last))
    return bound


def _known_threshold(a: TropicalMatrix) -> int | None:
    """The threshold t' of a that an ultimate_threshold scan proved, if
    a's memo holds one, else None: never forms anything."""
    record = a._memo.get(_THRESHOLD_MEMO)
    return None if record is None else record[0]


def ultimate_threshold(a: TropicalMatrix,
                       t_max: int | None = None) -> int | None:
    """Smallest t' <= t_max from which the ultimate expansion equals a^t.

    The scan stops on a proof: a bound T with A (x) E(t) = E(t + 1) for
    all t >= T (see _threshold_tables).  From T on, a^t = E(t), once true,
    stays true, so the unequal exponents at or past T are a prefix.  The
    bound costs a product per term and per chunk of residues, nothing
    sized by gamma_u; E(t) is one product of the terms' stacked class
    factors (O(n * classes) memory).

    When T <= t_max and every power's sums are exact (_exact_sums), so
    that any grouping of the products gives the same bits, the scan
    searches over one ladder of squares A^(2^j), each formed once.  It
    forms A^T from the ladder.  If A^T differs from E(T), the squares
    past T are compared with E(2^j); the first equal one brackets t', and
    A^lo (x) A^(2^i) halves the bracket: O(log t') products plus one per
    set bit of T.  If A^T = E(T), t' is T when T = 0 or A^(T - 1), also
    from the ladder, differs from E(T - 1).  Only a t' below T is
    stepped to.

    Stepping compares a^t with E(t) for t = 0, 1, ..., one product for
    each, and tracks the current run of equal exponents; a run that
    reaches some t >= T starts at t'.  It serves t' < T, inexact input,
    T > t_max and input with no bound.  Before T, or without a bound, it
    also accepts a run of gamma_u + ceil(log2 t_max) extra equal
    exponents past its start; a run accepted through the bound never
    breaks, so both rules name the same t'.  Returns None when no
    qualifying t' exists below t_max (reported, not raised); t_max
    defaults to 30 n^2.

    Equality is decided at CRIT_TOL.  The scan reads the ultimate terms
    without sigma, which a's memo keeps.  A t' proven through the bound
    goes to a's memo with the scan's t_max (_known_threshold reads t'),
    even past t_max, and simulate_orbit starts its term rows there; the
    window's t' is no proof and is not kept.  A later call whose t_max is
    at least the recorded one answers from the record, forming nothing
    (see _threshold_scan).  Only a None answer runs
    ultimate_expand's pairing with the canonical levels: at weights too
    large for the absolute CRIT_TOL the two analyses disagree, and
    AnalysisError reports that where the scan finds no t'.
    """
    t_max = 30 * a.n * a.n if t_max is None else _count(t_max, "t_max")
    t = _threshold_scan(a, t_max)
    if t is None:
        ultimate_expand(a)
    return t


def _threshold_scan(a: TropicalMatrix, t_max: int) -> int | None:
    """ultimate_threshold's scan of a^t against the ultimate E(t): the
    search over the ladder of squares from the bound T (see
    _threshold_tables) on exact input with T <= t_max, else stepping.  A
    t' proven through T, by the search or by a stepped run that reaches
    T, goes to a's memo even past t_max, together with that t_max.

    A scan at a t_max no smaller than a proving scan's is read off the
    record: t' when t' <= t_max, else None.  The powers and E(t) do not
    depend on t_max, so both scans meet the same equal and unequal
    exponents, and every unequal one up to t' lay at or below the proving
    t_max, else that scan had stopped with None.  Past T the unequal
    exponents are a prefix, so stepping and searching name the same t'.
    Below T only the window could answer otherwise, and only by accepting
    a run that breaks before T; the recorded t' is the proven one.
    """
    record = a._memo.get(_THRESHOLD_MEMO)
    if record is not None and t_max >= record[1]:
        return record[0] if record[0] <= t_max else None
    e = _ultimate_terms(a)
    bound = _threshold_tables(a, e)
    identity = TropicalMatrix.identity(a.n).arr
    window = e.gamma_u + max(1, math.ceil(math.log2(max(t_max, 2))))
    # all terms side by side: a shift never leaves a term's own slots
    c_all = np.hstack([triple.c_hat for _, triple in e.terms])
    r_all = np.vstack([triple.r_hat for _, triple in e.terms])
    slots = tuple(map(np.concatenate, zip(*(tr.slots for _, tr in e.terms))))
    lams = np.concatenate([np.full((len(triple.r_hat), 1), lam)
                           for lam, triple in e.terms])

    def matches(power, t):
        right = r_all[_shift(slots, t)] + lams * t
        return _arr_eq(power, _mp_matmul(c_all, right), CRIT_TOL)

    if (bound is not None and bound <= t_max
            and _exact_sums(a, t_max + window)):
        squares = [a.arr]

        def square(j):  # A^(2^j), each formed once
            while len(squares) <= j:
                squares.append(_mp_matmul(squares[-1], squares[-1]))
            return squares[j]

        def power(t):
            bits = [square(j) for j in range(t.bit_length()) if t >> j & 1]
            return reduce(_mp_matmul, bits) if bits else identity

        cur = power(bound)
        if not matches(cur, bound):
            # the unequal exponents from T on are a prefix: probe the
            # squares past T, then halve the bracket with A^lo (x) A^(2^i)
            lo, j = bound, bound.bit_length()
            while 1 << j <= t_max and not matches(square(j), 1 << j):
                cur, lo, j = squares[j], 1 << j, j + 1
            top = min(t_max, (1 << j) - 1)
            for i in range(j - 1, -1, -1):
                if lo + (1 << i) <= top:
                    probe = _mp_matmul(cur, square(i))
                    if not matches(probe, lo + (1 << i)):
                        cur, lo = probe, lo + (1 << i)
            if lo == t_max:
                return None
            a._memo[_THRESHOLD_MEMO] = lo + 1, t_max
            return lo + 1
        if bound == 0 or not matches(power(bound - 1), bound - 1):
            a._memo[_THRESHOLD_MEMO] = bound, t_max
            return bound
    cur = identity
    run_start = None
    for t in range(t_max + window + 1):
        if matches(cur, t):
            if run_start is None:
                run_start = t
            if bound is not None and t >= bound:
                a._memo[_THRESHOLD_MEMO] = run_start, t_max
                return run_start if run_start <= t_max else None
            if run_start <= t_max and t - run_start >= window:
                return run_start
        else:
            run_start = None
            if t > t_max:
                return None
        cur = _mp_matmul(cur, a.arr)
    return None
