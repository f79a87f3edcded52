"""ultimate_threshold: the certified stop and the search from it against
the window scan they replaced, soundness of the bound, and the cost of a
scan."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from maxplus import (NEG_INF, MaxplusError, TropicalMatrix, csr_product_literal,
                     evaluate, mat_eq, mat_mul, ultimate_expand,
                     ultimate_threshold)
from maxplus import expansions
from maxplus.core import _agree, _arr_eq, _mp_matmul
from maxplus.csr import _shift

from conftest import cycle_chain, random_cyclic, random_definite, random_reducible

TOL = 1e-9


def threshold_window_reference(a, e=None, t_max=None, tol=1e-9):
    """The window scan ultimate_threshold used before it had a bound:
    accept a run of equal exponents once it is gamma_u + ceil(log2 t_max)
    long, with the residues of every term taken from csr_product_literal,
    so the reference shares no evaluation code with the route it checks."""
    n = a.n
    if e is None:
        e = ultimate_expand(a)
    if t_max is None:
        t_max = 30 * n * n
    window = e.gamma_u + max(1, math.ceil(math.log2(max(t_max, 2))))
    data = [(lam, [csr_product_literal(triple, r).arr
                   for r in range(triple.gamma)])
            for lam, triple in e.terms]

    def expansion_at(t):
        return np.max([arrs[t % len(arrs)] + lam * t for lam, arrs in data],
                      axis=0)

    cur = TropicalMatrix.identity(n).arr
    run_start = None
    for t in range(t_max + window + 1):
        if _arr_eq(cur, expansion_at(t), tol):
            if run_start is None:
                run_start = t
            if run_start <= t_max and t - run_start >= window:
                return run_start
        else:
            run_start = None
            if t > t_max:
                return None
        cur = _mp_matmul(cur, a.arr)
    return None


def two_bipartite_levels():
    """Two 2-cycles of means 1/2 (nodes 0, 1) and -5/2 (nodes 2, 3), the
    first feeding the second.  The lower term disagrees on the row of
    node 1, and only the upper term lies above it there, but that term is
    -inf on every entry at one of its two residues, so its lowest line is
    -inf and no bound comes out: the scan keeps the window."""
    return TropicalMatrix.from_rows([[None, -2, None, None, None],
                                     [3, None, -1, None, None],
                                     [None, None, None, -6, -7],
                                     [None, None, 1, None, None],
                                     [None, None, None, None, None]])


def fractional(rng, n, q):
    a = random_cyclic(rng, n)
    return TropicalMatrix(np.where(a.finite_mask(), a.arr / q, NEG_INF))


def reweighted(a, f):
    """a with every finite weight w replaced by f(w)."""
    return TropicalMatrix(np.where(a.finite_mask(), f(a.arr), NEG_INF))


# integer, /3, /7, x1e6 + 1e7/3 (inexact at that scale) and x2^40 weights
WEIGHTS = {"integer": lambda w: w, "third": lambda w: w / 3,
           "seventh": lambda w: w / 7,
           "scaled": lambda w: w * 1e6 + 1e7 / 3,
           "pow2": lambda w: w * 2.0 ** 40}


def two_loops(k):
    """Loops of weight 0 and -1 joined by edges of weight -k: t' = 2k and
    the bound T is 0, so nearly all of the scan lies past the bound."""
    return TropicalMatrix.from_rows([[0, -k], [-k, -1]])


def falling_bound(k):
    """A loop of weight 2 above a loop of weight 1, with one edge of weight
    2 - k back into the top: T = t' = k - 2, sized by the weights."""
    return TropicalMatrix.from_rows([[2, -3, 1], [2 - k, -2, -2],
                                     [None, None, 1]])


def late_break(k):
    """A 2-node component of mean 1 feeding a loop of weight -1 through a
    -k edge: T = k/2 + 1 and, for even k, t' = T + 1."""
    return TropicalMatrix.from_rows([[-3, -k, -3], [1, 1, None],
                                     [None, None, -1]])


def run_below_bound():
    """Integer weights whose last run of equal exponents starts at t' = 3,
    below the bound T = 9: the scan walks that run from its start."""
    return TropicalMatrix.from_rows([[-49, None, None, -16],
                                     [None, -34, -51, None],
                                     [None, 40, None, None],
                                     [14, 17, None, None]])


def corpus():
    rng = np.random.default_rng(601)
    out = [random_cyclic(rng, n) for n in range(2, 10) for _ in range(8)]
    out += [fractional(rng, int(rng.integers(2, 8)), q)
            for q in (3, 7) for _ in range(15)]
    out += [random_reducible(rng, n, blocks=int(rng.integers(2, 7)))
            for n in (4, 6, 9, 12, 16, 20, 25, 30)]
    return out


# ------------------------------------------------------- same answers

def test_matches_window_reference_on_corpora():
    for a in corpus():
        e = ultimate_expand(a)
        assert ultimate_threshold(a) == threshold_window_reference(a, e)


def test_matches_window_reference_on_chains():
    rng = np.random.default_rng(602)
    for _ in range(3):
        a = cycle_chain(rng)
        e = ultimate_expand(a)
        assert e.gamma_u == 420
        tp = ultimate_threshold(a)
        assert tp is not None and tp == threshold_window_reference(a, e)


def test_matches_window_reference_on_examples(ex1, ex2):
    two_cycle = TropicalMatrix.from_rows([[None, 0.0], [0.0, None]])
    for a in (ex1, ex2, two_cycle, two_bipartite_levels()):
        assert ultimate_threshold(a) == threshold_window_reference(a)


def test_small_t_max_matches_window_reference(ex1, ex2):
    rng = np.random.default_rng(603)
    mats = [ex1, ex2] + [random_cyclic(rng, int(rng.integers(3, 7)))
                         for _ in range(6)]
    for a in mats:
        e = ultimate_expand(a)
        tp = ultimate_threshold(a)
        for t_max in sorted({0, 1, 2, max(tp - 1, 0), tp, tp + 1}):
            want = threshold_window_reference(a, e, t_max=t_max)
            assert ultimate_threshold(a, t_max=t_max) == want
            assert (want is None) == (t_max < tp)


def oracle_corpus(f):
    """Small random_cyclic, random_reducible, cycle_chain and
    random_definite draws, two_bipartite_levels, a zero-cycle family,
    two_loops, the weight-sized bounds of falling_bound and late_break and
    run_below_bound, every weight mapped through f."""
    rng = np.random.default_rng(606)
    base = [random_cyclic(rng, int(rng.integers(2, 8))) for _ in range(8)]
    base += [random_reducible(rng, int(rng.integers(4, 10)),
                              blocks=int(rng.integers(2, 5)))
             for _ in range(4)]
    base += [random_definite(rng, int(rng.integers(2, 7))) for _ in range(3)]
    base += [cycle_chain(rng, lengths=(2, 3), means=(-1, 1), tail=1),
             two_bipartite_levels(), disjoint_zero_cycles((2, 3)),
             two_loops(7), falling_bound(100), late_break(100),
             run_below_bound()]
    return [reweighted(a, f) for a in base]


@pytest.mark.parametrize("weights", [
    "integer", "third", "seventh", "pow2",
    pytest.param("scaled", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: near 1e7 the absolute CRIT_TOL lies below the "
        "float spacing, and the reference's literal products round "
        "differently from the class factors")))])
def test_search_matches_the_stepping_oracle(weights):
    """Over a sweep of t_max, including the small ones where the last
    stretch below t_max has to be probed and not jumped past, and
    t_max at T - 1, T and T + 1 on the weight-sized bounds."""
    built = 0
    for a in oracle_corpus(WEIGHTS[weights]):
        try:
            e = ultimate_expand(a)
        except MaxplusError:
            continue    # weights near 1e7 the absolute CRIT_TOL cannot analyse
        built += 1
        tp = threshold_window_reference(a, e)
        sweep = {0, 1, 2, None}
        if tp is not None:
            sweep |= {max(tp - 1, 0), tp, tp + 1, 2 * tp}
        for t_max in sweep:
            want = tp if t_max is None else threshold_window_reference(
                a, e, t_max=t_max)
            assert ultimate_threshold(a, t_max=t_max) == want, (a, t_max)
    assert built >= 15


def test_negative_t_max_raises(ex1):
    with pytest.raises(ValueError, match="negative t_max"):
        ultimate_threshold(ex1, t_max=-1)


# ------------------------------------------------------------ the bound

def test_bound_is_sound():
    """A (x) E(t) = E(t + 1) on [T, T + 2 gamma_u + n^2], by brute force."""
    rng = np.random.default_rng(604)
    mats = corpus()[::3] + [cycle_chain(rng)]
    for a in mats:
        e = ultimate_expand(a)
        bound = expansions._threshold_tables(a, e)
        assert bound is not None
        nxt = evaluate(e, bound).matrix
        for t in range(bound, bound + 2 * e.gamma_u + a.n * a.n + 1):
            cur, nxt = nxt, evaluate(e, t + 1).matrix
            assert mat_eq(mat_mul(a, cur), nxt, TOL), t


def test_threshold_below_the_bound():
    a = run_below_bound()
    e = ultimate_expand(a)
    assert expansions._threshold_tables(a, e) == 9
    for t_max in (None, 8, 9, 10):
        want = threshold_window_reference(a, e, t_max=t_max)
        assert ultimate_threshold(TropicalMatrix(a.arr), t_max) == want == 3


def test_no_bound_without_an_agreeing_line_above():
    a = two_bipartite_levels()
    bound = expansions._threshold_tables(a, ultimate_expand(a))
    assert bound is None
    assert ultimate_threshold(a) == 2


def counting_matmul(monkeypatch):
    """Record each _mp_matmul call expansions makes in the list returned."""
    calls = []

    def counted(x, y):
        calls.append(1)
        return _mp_matmul(x, y)

    monkeypatch.setattr(expansions, "_mp_matmul", counted)
    return calls


def log_cost(e, t_max):
    """Products a search from the bound may make: one per term for the
    bound's lines, and per bit of t_max a square, a probe and their two
    comparisons with E(t)."""
    return len(e.terms) + 4 * math.ceil(math.log2(t_max + 1))


def test_scan_is_not_sized_by_gamma_u(monkeypatch):
    """Multiplications in one call stay within the log cost of the search
    from the bound: the bound batches the residues, and no exponent is
    stepped.  The window scan made more than gamma_u."""
    a = cycle_chain(np.random.default_rng(605))
    e = ultimate_expand(a)
    calls = counting_matmul(monkeypatch)
    tp = ultimate_threshold(a)
    assert len(calls) <= log_cost(e, 30 * a.n * a.n)
    assert len(calls) < e.gamma_u
    assert tp == threshold_window_reference(a, e)


def test_search_past_the_bound_costs_log_products(monkeypatch):
    """t' = 100 past T = 0: stepping made 203 products."""
    a = two_loops(50)
    e = ultimate_expand(a)
    bound = expansions._threshold_tables(a, e)
    assert bound == 0
    calls = counting_matmul(monkeypatch)
    assert ultimate_threshold(a) == 100
    assert len(calls) <= log_cost(e, 30 * a.n * a.n)


def test_weight_sized_threshold_is_found_quickly():
    """t' = 2 * 10^5: stepping every exponent took seconds."""
    a = two_loops(10 ** 5)
    start = time.perf_counter()
    assert ultimate_threshold(a, t_max=10 ** 6) == 200000
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("family,bound,want", [
    (falling_bound, 10 ** 5 - 2, 10 ** 5 - 2),
    (late_break, 10 ** 5 // 2 + 1, 10 ** 5 // 2 + 2)],
    ids=["falling_bound", "late_break"])
def test_weight_sized_bound_is_not_stepped_to(monkeypatch, family, bound,
                                              want):
    """k = 10^5: the search starts at T, so no exponent below it is
    stepped.  Stepping to T took 1.4-2.2 s and about 10^5 products."""
    a = family(10 ** 5)
    e = expansions._ultimate_terms(a)
    assert expansions._threshold_tables(a, e) == bound
    calls = counting_matmul(monkeypatch)
    start = time.perf_counter()
    assert ultimate_threshold(a, t_max=10 ** 6) == want
    elapsed = time.perf_counter() - start
    assert len(calls) <= log_cost(e, 10 ** 6)
    assert elapsed < 0.5


@pytest.mark.parametrize("weights,enters", [
    ("integer", True), ("third", False), ("scaled", False)])
def test_only_exact_input_is_searched(monkeypatch, weights, enters):
    """Inexact weights keep stepping: their powers can round differently
    when grouped as squares.  The search from the bound is entered exactly
    when the last clause of its gate, _exact_sums(a, t_max + window),
    holds: the clauses before it need a bound within t_max."""
    found = []
    gate = expansions._exact_sums

    def counted(*args):
        exact = gate(*args)
        if exact:
            found.append(1)
        return exact

    monkeypatch.setattr(expansions, "_exact_sums", counted)
    mats = oracle_corpus(WEIGHTS[weights])
    if not enters:  # zero weights stay integers under either map
        mats = [a for a in mats
                if (a.arr != np.rint(a.arr))[a.finite_mask()].any()]
        assert len(mats) >= 15
    for a in mats:
        try:
            ultimate_threshold(a)
        except MaxplusError:
            pass
    assert (len(found) >= 10) if enters else not found


def term_lines_per_residue(a, lam, triple, tol):
    """_term_lines as one product per residue, kept as its reference."""
    n = a.n
    low = np.full((n, n), np.inf)
    high = np.full((n, n), NEG_INF)

    def compare(ap, p_next):
        x, y = ap, p_next + lam
        agree = _agree(x, y, tol)
        np.minimum(low, np.where(agree, np.minimum(x, y), NEG_INF), out=low)
        np.maximum(high, np.where(agree, NEG_INF, np.maximum(x, y)), out=high)

    left = np.vstack([triple.c_hat, _mp_matmul(a.arr, triple.c_hat)])
    p0 = ap = None
    for r in range(triple.gamma):
        out = _mp_matmul(left, triple.r_hat[_shift(triple.slots, r)])
        if ap is None:
            p0 = out[:n]
        else:
            compare(ap, out[:n])
        ap = out[n:]
    compare(ap, p0)
    return low, high


def test_term_lines_match_one_product_per_residue():
    """Byte for byte, on terms whose residues fit one broadcast, and on
    gamma = 210 at n = 18, which takes several chunks formed a class at a
    time."""
    rng = np.random.default_rng(607)
    mats = [disjoint_zero_cycles((2, 3, 5, 7)),
            reweighted(cycle_chain(rng), WEIGHTS["seventh"])]
    mats += [reweighted(random_reducible(rng, 12), WEIGHTS[w])
             for w in ("integer", "third", "seventh") for _ in range(3)]
    for a in mats:
        for lam, triple in ultimate_expand(a).terms:
            got = expansions._term_lines(a, lam, triple)
            want = term_lines_per_residue(a, lam, triple, TOL)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def disjoint_zero_cycles(lengths):
    """Zero-weight cycles of the given lengths, each entered from one tail
    node 0; gamma_u is the lcm of the lengths."""
    n = 1 + sum(lengths)
    arr = np.full((n, n), NEG_INF)
    start = 1
    for length in lengths:
        for k in range(length):
            arr[start + k, start + (k + 1) % length] = 0.0
        arr[0, start] = 0.0
        start += length
    return TropicalMatrix(arr)


def test_memory_is_not_sized_by_gamma_u():
    """One term of cyclicity 2310 on n = 29: a table of its residues would
    take 2310 * 29^2 * 8 bytes (15.5 MB)."""
    a = disjoint_zero_cycles((2, 3, 5, 7, 11))
    assert a.n == 29
    tracemalloc.start()
    try:
        e = ultimate_expand(a)
        tp = ultimate_threshold(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.gamma_u == 2310 and tp == 1
    assert peak < 4e6


def test_bound_scratch_is_bounded():
    """Cycles 2 ... 13 with falling integer means (n = 43, six terms):
    with the terms formed, the bound's lines peak within 1 MB traced.  A
    chunk's temporaries around its broadcast took 1.27 MB."""
    a = cycle_chain(np.random.default_rng(99), (2, 3, 5, 7, 11, 13),
                    (2, 1, 0, -1, -2, -3))
    expansions._ultimate_terms(a)
    tracemalloc.start()
    try:
        bound = expansions._threshold_tables(a, expansions._ultimate_terms(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == 143
    assert peak <= 2 ** 20


def test_a_repeat_threshold_reads_the_record(monkeypatch):
    """A proving scan records t' with its t_max.  A later call whose t_max
    is at least that one forms no product and gives a fresh matrix's
    answer; a smaller t_max scans again, with a fresh matrix's answer."""
    rng = np.random.default_rng(76)
    mats = [disjoint_zero_cycles((2, 3, 5)), random_cyclic(rng, 6),
            random_cyclic(rng, 10)]
    products, matmul = [], expansions._mp_matmul

    def counted(x, y):
        products.append(1)
        return matmul(x, y)

    monkeypatch.setattr(expansions, "_mp_matmul", counted)
    for a in mats:
        tp = ultimate_threshold(a, 3 * a.n * a.n)
        recorded = a._memo[expansions._THRESHOLD_MEMO][1]
        assert tp >= 1 and (tp, recorded) == (expansions._known_threshold(a),
                                              3 * a.n * a.n)
        for t_max in (recorded, 2 * recorded, 30 * a.n * a.n, tp - 1):
            want = ultimate_threshold(TropicalMatrix(a.arr), t_max)
            products.clear()
            assert ultimate_threshold(a, t_max) == want
            assert (products == []) is (t_max >= recorded)
