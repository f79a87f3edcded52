"""Power and ultimate expansions: construction, evaluation, fast terms."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from maxplus import (NEG_INF, AnalysisError, NoCyclesError, NonFiniteError,
                     PathClassQuery, ThresholdError,
                     TropicalMatrix, best_path_weight, critical_structure,
                     csr_product, csr_product_literal, enumerate_small,
                     evaluate, fast_terms, is_orbit_periodic, mat_eq,
                     mat_oplus, mat_power, nachtigall_expand, scc_decompose,
                     ultimate_expand, ultimate_threshold)
from maxplus import csr, expansions

from conftest import (cycle_chain, dead_end_critical_matrix, random_cyclic,
                      random_matrix, random_reducible, scaled_hang_matrix)
from goldens import (EX1_A2, EX1_A3, EX1_A4, EX1_A10, EX1_GAMMAS, EX1_LAMBDAS,
                     EX1_N1_0, EX1_N1_1, EX1_N2_0, EX1_N3_0, EX1_THRESHOLD,
                     EX2_C1_COL0, EX2_C1_COL1, EX2_C2_COL4_ROWS46,
                     EX2_POWER_LAMBDAS, EX2_R1_ROWS01_COLS03,
                     EX2_R2_POWER_ROW4_COLS26, EX2_R2U_ROW4_COLS46,
                     EX2_THRESHOLD, EX2_ULT_GAMMAS, EX2_ULT_LAMBDAS)

TOL = 1e-9


def term_value(e, k: int, t: int) -> np.ndarray:
    lam, triple = e.terms[k]
    return csr_product(triple, t).matrix.arr + lam * t


def levels_of(e) -> tuple:
    lv = [None] * e.n
    for st in e.steps:
        for v in st.m_set:
            lv[v] = st.mu
    return tuple(lv)


def lam_of_nodes(a: TropicalMatrix) -> tuple:
    cs = critical_structure(a)
    out = [NEG_INF] * a.n
    for c in cs.scc.nontrivial():
        for v in cs.scc.components[c]:
            out[v] = float(cs.lambda_of_component[c])
    return tuple(out)


def random_irreducible(rng, n: int) -> TropicalMatrix:
    for _ in range(300):
        a = random_matrix(rng, n)
        dec = scc_decompose(a)
        if dec.k == 1 and dec.nontrivial():
            return a
    raise AssertionError("could not sample an irreducible matrix")


def deflation_lambdas_by_enumeration(a: TropicalMatrix) -> list:
    """Cycle means of the canonical deflation, via simple-cycle listing."""
    alive = set(range(a.n))
    out = []
    while True:
        g = nx.DiGraph()
        g.add_nodes_from(alive)
        for i in alive:
            for j in alive:
                if a.arr[i, j] != NEG_INF:
                    g.add_edge(i, j)
        best, cycles = NEG_INF, []
        for cyc in nx.simple_cycles(g):
            w = sum(a.arr[cyc[k], cyc[(k + 1) % len(cyc)]]
                    for k in range(len(cyc)))
            cycles.append((cyc, w / len(cyc)))
            best = max(best, w / len(cyc))
        if best == NEG_INF:
            return out
        out.append(best)
        for cyc, mean in cycles:
            if mean >= best - TOL:
                alive -= set(cyc)


# ----------------------------------------------------------- construction

def test_expand_example1_canonical(ex1):
    e = nachtigall_expand(ex1)
    assert e.variant == "nachtigall-canonical"
    assert e.lambdas == EX1_LAMBDAS
    assert tuple(t.triple.gamma for t in e.terms) == EX1_GAMMAS
    assert e.validity_threshold == 48
    assert e.gamma_u == 2
    assert mat_eq(csr_product(e.terms[0].triple, 0).matrix,
                  TropicalMatrix.from_rows(EX1_N1_0))
    assert mat_eq(csr_product(e.terms[0].triple, 1).matrix,
                  TropicalMatrix.from_rows(EX1_N1_1))
    n2 = csr_product(e.terms[1].triple, 0).matrix
    assert mat_eq(n2, TropicalMatrix.from_rows(EX1_N2_0))
    assert n2.arr[np.ix_((2, 3), (2, 3))].tolist() == [[0.0, -2.0],
                                                       [-2.0, -4.0]]
    assert mat_eq(csr_product(e.terms[2].triple, 0).matrix,
                  TropicalMatrix.from_rows(EX1_N3_0))


def test_expand_single_loop():
    e = nachtigall_expand(TropicalMatrix([[-3.0]]))
    assert e.lambdas == (-3.0,)
    assert csr_product(e.terms[0].triple, 0).matrix.arr[0, 0] == 0.0
    assert evaluate(e, 5).matrix.arr[0, 0] == -15.0


def test_expand_lambdas_match_enumeration(ex1, ex2):
    rng = np.random.default_rng(50)
    mats = [ex1, ex2] + [random_cyclic(rng, int(rng.integers(2, 6)))
                         for _ in range(10)]
    for a in mats:
        want = deflation_lambdas_by_enumeration(a)
        got = nachtigall_expand(a).lambdas
        assert len(got) == len(want)
        assert all(abs(x - y) <= TOL for x, y in zip(got, want))
    assert nachtigall_expand(ex2).lambdas == EX2_POWER_LAMBDAS


def test_canonical_lambdas_strictly_decrease():
    rng = np.random.default_rng(51)
    for _ in range(15):
        e = nachtigall_expand(random_cyclic(rng, int(rng.integers(2, 7))))
        lams = e.lambdas
        assert all(lams[k] > lams[k + 1] for k in range(len(lams) - 1))
        removed = [set(st.m_set) for st in e.steps]
        for p in range(len(removed)):
            for q in range(p + 1, len(removed)):
                assert not (removed[p] & removed[q])


def test_expand_rejects_acyclic():
    a = TropicalMatrix.from_rows([[None, 1.0], [None, None]])
    with pytest.raises(NoCyclesError):
        nachtigall_expand(a)
    with pytest.raises(NoCyclesError):
        ultimate_expand(a)


def test_expand_rejects_an_unknown_rule(ex1):
    with pytest.raises(ValueError):
        nachtigall_expand(ex1, rule="bogus")
    assert nachtigall_expand(ex1).variant == "nachtigall-canonical"


# ------------------------------------------------------------- evaluation

def test_evaluate_example1_powers(ex1):
    e = nachtigall_expand(ex1)
    for t, want in ((2, EX1_A2), (3, EX1_A3), (4, EX1_A4), (10, EX1_A10)):
        ev = evaluate(e, t)
        assert mat_eq(ev.matrix, TropicalMatrix.from_rows(want))
        combined = ev.per_term[0]
        for m in ev.per_term[1:]:
            combined = mat_oplus(combined, m)
        assert mat_eq(ev.matrix, combined)
    # at t = 4 the last term no longer contributes anywhere
    ev4 = evaluate(e, 4)
    assert mat_eq(ev4.matrix, mat_oplus(ev4.per_term[0], ev4.per_term[1]))
    assert np.all(ev4.per_term[2].arr <= ev4.matrix.arr)
    with pytest.raises(ValueError):
        evaluate(e, -1)


def test_evaluate_matches_power_random():
    rng = np.random.default_rng(52)
    for rule in ("canonical", "cycle"):
        for _ in range(8):
            a = random_cyclic(rng, int(rng.integers(2, 7)))
            e = nachtigall_expand(a, rule=rule)
            t0 = e.validity_threshold
            for t in range(t0, t0 + 2 * e.gamma_u + 1):
                assert mat_eq(evaluate(e, t).matrix, mat_power(a, t), tol=TOL)


def test_cycle_rule_lambdas_never_increase():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        lams = nachtigall_expand(a, rule="cycle").lambdas
        assert all(lams[k] >= lams[k + 1] - TOL for k in range(len(lams) - 1))


def test_cycle_rule_single_cycle_selection(ex1):
    e = nachtigall_expand(ex1, rule="cycle")
    assert e.variant == "nachtigall-cycle"
    assert set(e.steps[0].crit.nodes) == {0, 1}
    assert evaluate(e, 48).matrix.eq(mat_power(ex1, 48))


def loopless_zero(n: int) -> TropicalMatrix:
    return TropicalMatrix(np.where(np.eye(n, dtype=bool), NEG_INF, 0.0))


def test_cycle_rule_takes_shortest_cycle_through_smallest_node():
    # zero-weight cycles 0->1->5->0 and 0->2->0: the shorter one is taken,
    # although [0, 1, 5] is the lexicographically smaller node list
    arr = np.full((6, 6), NEG_INF)
    for i, j in [(0, 1), (1, 5), (5, 0), (0, 2), (2, 0)]:
        arr[i, j] = 0.0
    e = nachtigall_expand(TropicalMatrix(arr), rule="cycle")
    assert set(e.steps[0].crit.nodes) == {0, 2}


def test_cycle_rule_on_dense_critical_graph():
    # every edge is critical and every 2-cycle is shortest: the rule takes
    # node 0 and its smallest successor
    e = nachtigall_expand(loopless_zero(40), rule="cycle")
    assert set(e.steps[0].crit.nodes) == {0, 1}
    a = loopless_zero(12)
    e = nachtigall_expand(a, rule="cycle")
    assert set(e.steps[0].crit.nodes) == {0, 1}
    t0 = 3 * a.n * a.n
    assert mat_eq(evaluate(e, t0).matrix, mat_power(a, t0))


def test_per_suffix_identity():
    rng = np.random.default_rng(54)
    for _ in range(6):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        e = nachtigall_expand(a)
        t = e.validity_threshold
        for mu, st in enumerate(e.steps):
            want = mat_power(a.restrict(st.k_set), t)
            got = None
            for k in range(mu, len(e.terms)):
                contrib = TropicalMatrix(term_value(e, k, t))
                got = contrib if got is None else mat_oplus(got, contrib)
            assert mat_eq(got, want, tol=TOL)


# --------------------------------------------------------------- ultimate

def test_ultimate_example2(ex2):
    e = ultimate_expand(ex2)
    assert e.variant == "ultimate"
    assert e.lambdas == EX2_ULT_LAMBDAS
    assert tuple(t.triple.gamma for t in e.terms) == EX2_ULT_GAMMAS
    assert e.sigma == (0, 1)
    assert e.gamma_u == 2
    t1, t2 = e.terms[0].triple, e.terms[1].triple
    assert t1.n_c == (0, 1)
    assert np.array_equal(t1.c.arr[:, 0],
                          np.array([x if x is not None else NEG_INF
                                    for x in EX2_C1_COL0]))
    assert np.array_equal(t1.c.arr[:, 1],
                          np.array([x if x is not None else NEG_INF
                                    for x in EX2_C1_COL1]))
    want_r1 = np.array(EX2_R1_ROWS01_COLS03, dtype=float)
    assert np.array_equal(t1.r.arr[np.ix_((0, 1), (0, 1, 2, 3))], want_r1)
    assert t2.n_c == (4,)
    assert t2.c.arr[np.ix_((4, 5, 6), (4,))].ravel().tolist() == \
        EX2_C2_COL4_ROWS46
    assert t2.r.arr[4, 4:].tolist() == EX2_R2U_ROW4_COLS46
    # rows outside the deflated block never reach the loop node
    assert np.all(t2.c.arr[:4, 4] == NEG_INF)


def test_ultimate_r2_differs_from_power_expansion(ex2):
    eu = ultimate_expand(ex2)
    en = nachtigall_expand(ex2)
    ru = eu.terms[1].triple.r
    rn = en.terms[eu.sigma[1]].triple.r
    assert rn.arr[4, 2:].tolist() == EX2_R2_POWER_ROW4_COLS26
    assert ru.arr[4, 2] == NEG_INF and ru.arr[4, 3] == NEG_INF
    assert not mat_eq(ru, rn)


def test_ultimate_irreducible_single_term():
    rng = np.random.default_rng(55)
    for n in (2, 3, 4, 5):
        a = random_irreducible(rng, n)
        eu = ultimate_expand(a)
        en = nachtigall_expand(a)
        assert len(eu.terms) == 1 and eu.sigma == (0,)
        assert mat_eq(eu.terms[0].triple.c, en.terms[0].triple.c)
        assert mat_eq(eu.terms[0].triple.s, en.terms[0].triple.s)
        assert mat_eq(eu.terms[0].triple.r, en.terms[0].triple.r)


def test_sigma_enumerates_distinct_component_means():
    rng = np.random.default_rng(56)
    for _ in range(12):
        a = random_cyclic(rng, int(rng.integers(2, 7)))
        e = ultimate_expand(a)
        cs = critical_structure(a)
        want = sorted({float(cs.lambda_of_component[c])
                       for c in cs.scc.nontrivial()}, reverse=True)
        assert list(e.lambdas) == want
        assert all(e.sigma[k] < e.sigma[k + 1]
                   for k in range(len(e.sigma) - 1))


def test_ultimate_terms_below_matched_power_terms():
    rng = np.random.default_rng(57)
    for _ in range(10):
        a = random_cyclic(rng, int(rng.integers(2, 7)))
        eu, en = ultimate_expand(a), nachtigall_expand(a)
        for k, (lam, triple) in enumerate(eu.terms):
            ntriple = en.terms[eu.sigma[k]].triple
            for t in range(0, 7):
                u = csr_product(triple, t).matrix.arr
                nv = csr_product(ntriple, t).matrix.arr
                assert np.all(u <= nv + TOL)


def test_ultimate_cyclicity_divides_power_cyclicity():
    rng = np.random.default_rng(58)
    for _ in range(12):
        a = random_cyclic(rng, int(rng.integers(2, 7)))
        eu, en = ultimate_expand(a), nachtigall_expand(a)
        for k, term in enumerate(eu.terms):
            assert en.terms[eu.sigma[k]].triple.gamma % term.triple.gamma == 0


# --------------------------------------------------------- path classes

def test_mu_heavy_two_sided_bounds():
    rng = np.random.default_rng(59)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = random_cyclic(rng, n)
        e = nachtigall_expand(a)
        t_eq = 3 * n * n
        tables = enumerate_small(a, t_eq, levels=levels_of(e))
        for k in range(len(e.terms)):
            tab = tables["mu-heavy/%d" % k]
            for t in range(t_eq + 1):
                val = term_value(e, k, t)
                dp = np.array(tab[t])
                assert np.all(val >= dp - TOL)
            dp = np.array(tab[t_eq])
            val = term_value(e, k, t_eq)
            fin = dp != NEG_INF
            assert np.array_equal(fin, val != NEG_INF)
            assert np.allclose(val[fin], dp[fin], atol=TOL)


def test_mu_heavy_spot_probes_larger_sizes():
    rng = np.random.default_rng(60)
    for n in (5, 6):
        a = random_cyclic(rng, n)
        e = nachtigall_expand(a)
        lv = levels_of(e)
        t_eq = 3 * n * n
        for k in range(len(e.terms)):
            val = term_value(e, k, t_eq)
            for _ in range(6):
                i, j = int(rng.integers(n)), int(rng.integers(n))
                w = best_path_weight(a, PathClassQuery(
                    i=i, j=j, t=t_eq, kind="mu-heavy", levels=lv, mu=k))
                if w == NEG_INF:
                    assert val[i, j] == NEG_INF
                else:
                    assert abs(val[i, j] - w) <= TOL


def hard_classes(e):
    return [(st.lambda_mu, frozenset(st.crit.nodes)) for st in e.steps]


def test_mu_hard_two_sided_bounds():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = random_cyclic(rng, n)
        e = ultimate_expand(a)
        t_eq = 3 * n * n
        tables = enumerate_small(a, t_eq, lam_of=lam_of_nodes(a),
                                 hard=hard_classes(e))
        for k in range(len(e.terms)):
            tab = tables["mu-hard/%d" % k]
            for t in range(t_eq + 1):
                val = term_value(e, k, t)
                assert np.all(val >= np.array(tab[t]) - TOL)
            dp = np.array(tab[t_eq])
            val = term_value(e, k, t_eq)
            fin = dp != NEG_INF
            assert np.array_equal(fin, val != NEG_INF)
            assert np.allclose(val[fin], dp[fin], atol=TOL)


def test_hard_paths_below_heavy_paths():
    rng = np.random.default_rng(62)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a = random_cyclic(rng, n)
        eu, en = ultimate_expand(a), nachtigall_expand(a)
        tables = enumerate_small(a, 20, levels=levels_of(en),
                                 lam_of=lam_of_nodes(a),
                                 hard=hard_classes(eu))
        for k in range(len(eu.terms)):
            hard_tab = tables["mu-hard/%d" % k]
            heavy_tab = tables["mu-heavy/%d" % eu.sigma[k]]
            for t in range(21):
                assert np.all(np.array(hard_tab[t]) <=
                              np.array(heavy_tab[t]) + TOL)


def test_finite_entries_match_hard_path_residues():
    rng = np.random.default_rng(63)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = random_cyclic(rng, n)
        e = ultimate_expand(a)
        g = e.gamma_u
        t_max = min(3 * n * n + g - 1, 60)
        tables = enumerate_small(a, t_max, lam_of=lam_of_nodes(a),
                                 hard=hard_classes(e))
        for k, (lam, triple) in enumerate(e.terms):
            tab = tables["mu-hard/%d" % k]
            reachable = {l: np.zeros((n, n), dtype=bool) for l in range(g)}
            for t in range(t_max + 1):
                reachable[t % g] |= np.array(tab[t]) != NEG_INF
            for l in range(g):
                u = csr_product(triple, l).matrix.arr != NEG_INF
                assert np.array_equal(u, reachable[l])


# -------------------------------------------------------------- threshold

def test_ultimate_threshold_examples(ex1, ex2):
    assert ultimate_threshold(ex1) == EX1_THRESHOLD
    assert ultimate_threshold(ex2) == EX2_THRESHOLD
    two_cycle = TropicalMatrix.from_rows([[None, 0.0], [0.0, None]])
    assert ultimate_threshold(two_cycle) == 0
    assert ultimate_threshold(ex1, t_max=5) is None


def test_ultimate_threshold_random():
    rng = np.random.default_rng(64)
    for _ in range(10):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        e = ultimate_expand(a)
        tp = ultimate_threshold(a)
        assert tp is not None
        for t in range(tp, tp + 2 * e.gamma_u + 1):
            assert mat_eq(evaluate(e, t).matrix, mat_power(a, t), tol=TOL)
        if tp > 0:
            assert not mat_eq(evaluate(e, tp - 1).matrix,
                              mat_power(a, tp - 1), tol=TOL)


def test_threshold_detection_is_stable():
    """Equality keeps holding well past the detected threshold."""
    rng = np.random.default_rng(65)
    for _ in range(6):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        e = ultimate_expand(a)
        tp = ultimate_threshold(a)
        for t in range(tp + 10 * e.gamma_u, tp + 12 * e.gamma_u):
            assert mat_eq(evaluate(e, t).matrix, mat_power(a, t), tol=TOL)


# -------------------------------------------------------------- fast route

def test_fast_terms_example1(ex1):
    terms48 = fast_terms(ex1, 48)
    want48 = (EX1_N1_0, EX1_N2_0, EX1_N3_0)
    assert len(terms48) == 3
    for got, want in zip(terms48, want48):
        assert mat_eq(got, TropicalMatrix.from_rows(want), tol=TOL)
    terms49 = fast_terms(ex1, 49)
    for got, want in zip(terms49, (EX1_N1_1, EX1_N2_0, EX1_N3_0)):
        assert mat_eq(got, TropicalMatrix.from_rows(want), tol=TOL)


def test_fast_terms_example2_residues(ex2):
    e = ultimate_expand(ex2)
    for t in (0, 1):
        got = fast_terms(ex2, t, variant="ultimate")
        assert len(got) == len(e.terms)
        for k, m in enumerate(got):
            want = csr_product(e.terms[k].triple, t).matrix
            assert mat_eq(m, want, tol=TOL)


def test_fast_terms_match_literal_random():
    rng = np.random.default_rng(66)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        a = random_cyclic(rng, n)
        en = nachtigall_expand(a)
        eu = ultimate_expand(a)
        t0 = 3 * n * n
        for t in sorted(rng.integers(t0, t0 + 40, 5).tolist()):
            got = fast_terms(a, t)
            for k, m in enumerate(got):
                assert mat_eq(m, csr_product(en.terms[k].triple, t).matrix,
                              tol=TOL)
            gotu = fast_terms(a, t, variant="ultimate")
            for k, m in enumerate(gotu):
                assert mat_eq(m, csr_product(eu.terms[k].triple, t).matrix,
                              tol=TOL)
        for t in (0, 1, 2):
            gotu = fast_terms(a, t, variant="ultimate")
            for k, m in enumerate(gotu):
                assert mat_eq(m, csr_product(eu.terms[k].triple, t).matrix,
                              tol=TOL)


def test_fast_terms_guards(ex1):
    with pytest.raises(ThresholdError):
        fast_terms(ex1, 47)
    with pytest.raises(ValueError):
        fast_terms(ex1, -1)
    with pytest.raises(ValueError):
        fast_terms(ex1, 48, variant="other")
    acyclic = TropicalMatrix.from_rows([[None, 1.0], [None, None]])
    with pytest.raises(NoCyclesError):
        fast_terms(acyclic, 12)


def test_fast_terms_match_literal_on_shrinking_levels():
    # Each level is powered on its own K_mu block; n = 70 puts level 0
    # above the broadcast-matmul size limit and the later blocks below it.
    rng = np.random.default_rng(67)
    for n in (5, 7, 9, 12, 70):
        a = random_reducible(rng, n, blocks=6)
        en = nachtigall_expand(a)
        eu = ultimate_expand(a)
        sizes = [len(st.k_set) for st in en.steps]
        assert sizes[-1] < n
        t = 3 * n * n + int(rng.integers(0, 12))
        for e, variant in ((en, "nachtigall"), (eu, "ultimate")):
            got = fast_terms(a, t, variant=variant)
            assert len(got) == len(e.terms)
            for m, term in zip(got, e.terms):
                assert mat_eq(m, csr_product(term.triple, t).matrix, tol=TOL)


def divided(a: TropicalMatrix, q: int) -> TropicalMatrix:
    return TropicalMatrix(np.where(a.finite_mask(), a.arr / q, NEG_INF))


def two_zero_cycles_with_tail() -> TropicalMatrix:
    """Disjoint zero-weight cycles 0 -> 1 -> 0 and 2 -> 3 -> 4 -> 2 fed by a
    tail node 5: one critical selection with two components of
    cyclicities 2 and 3, so each component shifts by its own cyclicity."""
    arr = np.full((6, 6), NEG_INF)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 4), (4, 2)):
        arr[i, j] = 0.0
    arr[5, 0], arr[5, 2] = -1.0, -2.0
    return TropicalMatrix(arr)


def literal_corpus():
    """Reducible matrices up to n = 70 (so both matmul paths run), the
    smaller ones also with weights /3 and /7, and two zero cycles."""
    rng = np.random.default_rng(68)
    ints = [random_reducible(rng, n, blocks=int(rng.integers(2, 7)))
            for n in (4, 6, 9, 12, 20, 70)]
    fracs = [divided(a, q) for a in ints[:5] for q in (3, 7)]
    return ints + fracs + [two_zero_cycles_with_tail()]


def is_integral(x) -> bool:
    x = np.asarray(x, dtype=float)
    x = x[x != NEG_INF]
    return bool(np.array_equal(x, np.round(x)))


def assert_literal(got, lam, a, triple, t):
    """Bit for bit where the input and lam are integers, within TOL else."""
    want = csr_product_literal(triple, t)
    if is_integral(a.arr) and is_integral(lam):
        assert np.array_equal(got.arr, want.arr), t
    else:
        assert mat_eq(got, want, tol=TOL), t


def expansions_of(a):
    return [nachtigall_expand(a), nachtigall_expand(a, rule="cycle"),
            ultimate_expand(a)]


def test_csr_product_matches_literal():
    for a in literal_corpus():
        t0 = 3 * a.n * a.n
        for e in expansions_of(a):
            for lam, triple in e.terms:
                for t in [*range(2 * triple.gamma), t0, t0 + 7]:
                    assert_literal(csr_product(triple, t).matrix, lam, a,
                                   triple, t)


def test_fast_terms_match_literal_bit_for_bit_on_integer_lambda():
    exact = 0
    for a in literal_corpus():
        t0 = 3 * a.n * a.n
        en, ec, eu = expansions_of(a)
        gamma = max(triple.gamma for _, triple in eu.terms)
        runs = [(en, "nachtigall", "canonical", t0 + d) for d in (0, 1, 5)]
        runs += [(ec, "nachtigall", "cycle", t0 + 2)]
        small = range(2 * gamma) if a.n <= 20 else ()
        runs += [(eu, "ultimate", "canonical", t) for t in [*small, t0]]
        for e, variant, rule, t in runs:
            got = fast_terms(a, t, variant=variant, rule=rule)
            assert len(got) == len(e.terms)
            for m, (lam, triple) in zip(got, e.terms):
                assert_literal(m, lam, a, triple, t)
                exact += is_integral(a.arr) and is_integral(lam)
    assert exact > 200


def fast_terms_by_squaring(a, t, variant="nachtigall", rule="canonical"):
    """Reference: every level raised to S^r by mat_power, as fast_terms did
    before it stepped class rows and columns."""
    steps = (expansions._deflation_steps(a, rule) if variant == "nachtigall"
             else expansions._ultimate_steps(a))
    n, r = a.n, 1
    while r < 3 * n * n:
        r <<= 1
    out = []
    for st in steps:
        block = np.ix_(st.k_set, st.k_set)
        level = TropicalMatrix(a.arr[block])
        powered = np.full((n, n), NEG_INF)
        powered[block] = mat_power(level.scale(-st.lambda_mu), r).arr
        factors = csr._class_factors(powered, st.crit,
                                     a.arr - st.lambda_mu)
        out.append(csr._class_product(*factors,
                                      (t - 2 * r) % st.crit.gamma))
    return out


def critical_cycle_matrix(rng, n: int, length: int) -> np.ndarray:
    """Dense weights in [-9, -1] and a zero-weight cycle 0 -> 1 -> ... ->
    length - 1 -> 0: level 0 has cycle mean 0 and a periodic critical
    graph of cyclicity length."""
    arr = rng.integers(-9, 0, size=(n, n)).astype(float)
    for v in range(length):
        arr[v, (v + 1) % length] = 0.0
    return arr


def long_transient_matrix(n: int = 80, w: float = 1e5) -> TropicalMatrix:
    """A 0-weight 2-cycle on nodes 0 and 1, loops of -1 on 2 ... n-1
    chained 2 -> 3 -> ... -> n-1 at 0 with n-1 -> 2 at -1, and 0 -> 2 at
    w, n-1 -> 0 at -w: one critical component whose columns and rows
    turn periodic only after more than n steps."""
    arr = np.full((n, n), NEG_INF)
    arr[0, 1] = arr[1, 0] = 0.0
    for v in range(2, n):
        arr[v, v] = -1.0
    for v in range(2, n - 1):
        arr[v, v + 1] = 0.0
    arr[n - 1, 2] = -1.0
    arr[0, 2], arr[n - 1, 0] = w, -w
    return TropicalMatrix(arr)


def fast_terms_reads(monkeypatch, a, t, **kw):
    """fast_terms(a, t) and, per level, whether it read the level's term."""
    read = []
    term = expansions._term

    def spy_term(root, st):
        read.append(id(st))
        return term(root, st)

    monkeypatch.setattr(expansions, "_term", spy_term)
    got = fast_terms(a, t, **kw)
    monkeypatch.undo()
    steps = (expansions._deflation_steps(a, kw.get("rule", "canonical"))
             if kw.get("variant", "nachtigall") == "nachtigall"
             else expansions._ultimate_steps(a))
    return got, [id(st) in read for st in steps]


def counted_builds(monkeypatch) -> list:
    """A list that gains an entry per csr_build call from expansions."""
    calls = []
    build = expansions.csr_build

    def counted(*args, **kw):
        calls.append(1)
        return build(*args, **kw)

    monkeypatch.setattr(expansions, "csr_build", counted)
    return calls


def assert_as_squaring(a, t, variant="nachtigall", rule="canonical"):
    got = fast_terms(a, t, variant=variant, rule=rule)
    want = fast_terms_by_squaring(a, t, variant, rule)
    assert len(got) == len(want)
    for m, w in zip(got, want):
        assert m.arr.tobytes() == w.tobytes(), (variant, rule, t)


def assert_term_products(a, t, variant="nachtigall", rule="canonical"):
    """fast_terms at t is each level's term product, byte for byte.  It
    has the squaring chain's bytes on exact levels and agrees with it
    within TOL on the others."""
    got = fast_terms(a, t, variant=variant, rule=rule)
    steps = (expansions._deflation_steps(a, rule) if variant == "nachtigall"
             else expansions._ultimate_steps(a))
    chain = fast_terms_by_squaring(a, t, variant, rule)
    assert len(got) == len(steps) == len(chain)
    for m, st, w in zip(got, steps, chain):
        term = expansions._term(a, st).triple
        assert m.arr.tobytes() == csr_product(term, t).matrix.arr.tobytes()
        if is_exact(a, st):
            assert m.arr.tobytes() == w.tobytes(), (variant, rule, t)
        else:
            assert mat_eq(m, TropicalMatrix(w), tol=TOL), (variant, rule, t)


def gate_boundary_pair():
    """A gamma-3 critical cycle on n = 30 and an edge off it weighing
    -w and -(w + 1), w the largest weight with
    w (2 (r + n (gamma + 1)) + 1) < 2**53 for r = 4096 >= 3 n^2: the
    squaring chain's sums reach the float spacing of 2**53."""
    rng = np.random.default_rng(72)
    n, gamma, r = 30, 3, 4096
    base = critical_cycle_matrix(rng, n, gamma)
    w = (2 ** 53 - 1) // (2 * (r + n * (gamma + 1)) + 1)
    out = []
    for weight in (w, w + 1):
        big = base.copy()
        big[1, 0] = -float(weight)
        out.append(TropicalMatrix(big))
    return out


def test_fast_terms_bytes_equal_the_squaring_chain():
    rng = np.random.default_rng(69)
    mats = literal_corpus()
    mats += [random_cyclic(rng, n) for n in (16, 40, 64, 72)]
    mats += [cycle_chain(rng) for _ in range(3)]
    mats += [TropicalMatrix(critical_cycle_matrix(rng, n, g))
             for n, g in ((12, 2), (30, 3), (40, 4))]
    runs = (("nachtigall", "canonical"), ("nachtigall", "cycle"),
            ("ultimate", "canonical"))
    fractional = 0
    for a in mats + gate_boundary_pair():
        t0 = 3 * a.n * a.n
        gamma = max(st.crit.gamma for st in expansions._ultimate_steps(a))
        for t in (t0, t0 + 1, t0 + gamma, t0 + gamma + 1):
            for variant, rule in runs:
                assert_term_products(a, t, variant, rule)
        fractional += not all(is_exact(a, st)
                              for st in expansions._ultimate_steps(a))
    assert fractional > 10


def is_exact(a, st) -> bool:
    """Integer input and cycle mean: the level's sums are exact while
    they stay below 2**53."""
    return is_integral(a.arr) and is_integral(st.lambda_mu)


def test_fast_terms_reads_the_expansions_terms(monkeypatch):
    """After both expansions fast_terms builds no term, and each exact
    level is its term's class product at t, byte for byte."""
    rng = np.random.default_rng(73)
    mats = literal_corpus() + [random_cyclic(rng, n) for n in (16, 40)]
    calls, exact = counted_builds(monkeypatch), 0
    for a in mats:
        t0 = 3 * a.n * a.n
        runs = list(zip(expansions_of(a), ("nachtigall", "nachtigall",
                        "ultimate"), ("canonical", "cycle", "canonical")))
        calls.clear()
        for e, variant, rule in runs:
            for t in (t0, t0 + 1, t0 + 5):
                got = fast_terms(a, t, variant=variant, rule=rule)
                for m, st, term in zip(got, e.steps, e.terms):
                    if is_exact(a, st):
                        exact += 1
                        assert m.arr.tobytes() == csr_product(
                            term.triple, t).matrix.arr.tobytes()
        assert calls == []
    assert exact > 100


def test_cold_fast_terms_builds_each_exact_term_once(monkeypatch):
    """A cold fast_terms builds the term of each distinct level once,
    fractional ones included (levels that agree share it), and a later
    expansion builds none."""
    rng = np.random.default_rng(74)
    mats = [random_cyclic(rng, n) for n in (6, 9, 12, 20, 30)]
    mats += [cycle_chain(rng) for _ in range(3)] + [
        two_zero_cycles_with_tail()]
    calls, fractional = counted_builds(monkeypatch), 0
    for arr in (m.arr for m in mats):
        a = TropicalMatrix(arr)
        steps = expansions._deflation_steps(a, "canonical")
        keys = {(st.k_set, st.lambda_mu, st.crit.edges) for st in steps}
        fractional += not all(is_exact(a, st) for st in steps)
        calls.clear()
        got = fast_terms(a, 3 * a.n * a.n)
        assert len(calls) == len(keys)
        fast_terms(a, 3 * a.n * a.n + 1)
        nachtigall_expand(a)
        assert len(calls) == len(keys)
        want = fast_terms(TropicalMatrix(arr), 3 * a.n * a.n)
        assert [m.arr.tobytes() for m in got] == [
            m.arr.tobytes() for m in want]
    assert fractional >= 3


def fractional_cycles() -> TropicalMatrix:
    """Integer weights whose every cycle mean is fractional: 2-cycles of
    mean 1/2 and -3/2 and a 3-cycle of mean 1/3, chained by tail edges."""
    arr = np.full((8, 8), NEG_INF)
    for i, j, w in ((0, 1, 0), (1, 0, 1), (2, 3, 1), (3, 4, 0), (4, 2, 0),
                    (5, 6, -2), (6, 5, -1), (7, 0, -4), (1, 2, -3),
                    (4, 5, -6), (7, 6, 2)):
        arr[i, j] = w
    return TropicalMatrix(arr)


def test_fast_terms_forms_only_the_expansions_stars(monkeypatch):
    """A cold fast_terms forms exactly the stars the expansion over the
    same levels forms, on fractional levels too, and a later expansion
    forms none."""
    arr = fractional_cycles().arr
    levels = [st.lambda_mu for e in expansions_of(TropicalMatrix(arr))
              for st in e.steps]
    assert len(levels) >= 9 and not any(map(is_integral, levels))
    # one fractional level among integer ones
    rng = np.random.default_rng(72)
    frac = critical_cycle_matrix(rng, 30, 3)
    frac[1, 0] = 1.0            # the 2-cycle 0 <-> 1 weighs 1: lambda 1/2
    assert expansions._deflation_steps(
        TropicalMatrix(frac), "canonical")[0].lambda_mu == 0.5
    stars, star = [], csr.kleene_star

    def counted(m):
        stars.append(m.n)
        return star(m)

    monkeypatch.setattr(csr, "kleene_star", counted)
    runs = (("nachtigall", "canonical", nachtigall_expand),
            ("nachtigall", "cycle",
             lambda m: nachtigall_expand(m, rule="cycle")),
            ("ultimate", "canonical", ultimate_expand))
    formed = 0
    for arr in (arr, frac):
        for variant, rule, expand in runs:
            stars.clear()
            expand(TropicalMatrix(arr))
            want = list(stars)
            stars.clear()
            a = TropicalMatrix(arr)
            fast_terms(a, 3 * a.n * a.n, variant=variant, rule=rule)
            expand(a)
            assert stars == want, (variant, rule)
            formed += len(want)
    assert formed
    assert_term_products(TropicalMatrix(frac), 3 * 30 * 30)


def test_fast_terms_reads_zero_sign_long_gamma_and_transient_levels(
        monkeypatch):
    """A -0.0 cycle (S^r holds -0.0 where the term holds 0.0, and no
    term shows it), gamma 9 with 9 classes on 12 nodes, and columns and
    rows with a transient beyond n steps: each exact level reads its
    term and gives the squaring chain's bytes."""
    rng = np.random.default_rng(72)
    neg = critical_cycle_matrix(rng, 30, 2)
    neg[[0, 1], [1, 0]] = -0.0
    gamma9 = TropicalMatrix(critical_cycle_matrix(rng, 12, 9))
    assert expansions._deflation_steps(gamma9, "canonical")[0].crit.gamma \
        == 9
    for a, t in ((TropicalMatrix(neg), 2700), (TropicalMatrix(neg), 2701),
                 (gamma9, 432), (long_transient_matrix(), 3 * 80 * 80)):
        _, reads = fast_terms_reads(monkeypatch, a, t)
        assert reads[0]
        assert_as_squaring(a, t)


@hs.composite
def small_weighted(draw) -> TropicalMatrix:
    """n = 2 ... 7, integer weights in [-9, 3] at density 0.3 ... 1 from
    a drawn seed, divided by q in {1, 3, 7}, with every zero weight -0.0
    or none."""
    n = draw(hs.integers(2, 7))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    a = random_matrix(rng, n, density=draw(hs.floats(0.3, 1)))
    arr = a.arr / draw(hs.sampled_from((1, 3, 7)))
    if draw(hs.booleans()):
        arr[arr == 0] = -0.0
    return TropicalMatrix(arr)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_weighted())
def test_fast_terms_are_the_evaluated_terms(a):
    """evaluate's term matrices are lambda t plus fast_terms', byte for
    byte, for both variants past 3 n^2, and the Nachtigall max is A^t
    within 1e-9 max(1, |x|); an acyclic draw raises NoCyclesError."""
    t0 = 3 * a.n * a.n
    if mat_power(a, a.n).arr.max() == NEG_INF:      # no walk of length n
        for variant in ("nachtigall", "ultimate"):
            with pytest.raises(NoCyclesError):
                fast_terms(a, t0, variant=variant)
        return
    eu = ultimate_expand(a)
    for variant, e in (("nachtigall", nachtigall_expand(a)),
                       ("ultimate", eu)):
        for t in (t0, t0 + 1, t0 + eu.gamma_u):
            ev = evaluate(e, t)
            got = fast_terms(a, t, variant=variant)
            assert len(got) == len(ev.per_term)
            for lam, m, p in zip(e.lambdas, got, ev.per_term):
                assert p.arr.tobytes() == (np.float64(lam) * t
                                           + m.arr).tobytes()
            if variant == "nachtigall":
                x, y = ev.matrix.arr, mat_power(a, t).arr
                fin = y != NEG_INF
                assert np.array_equal(x != NEG_INF, fin)
                assert np.all(np.abs(x[fin] - y[fin])
                              <= 1e-9 * np.maximum(1, np.abs(y[fin])))


def test_cycle_rule_names_critical_node_without_outgoing_edge():
    """Weights too large for the absolute CRIT_TOL can leave a critical node
    with no outgoing critical edge; the cycle rule reports it typed."""
    a = dead_end_critical_matrix()
    with pytest.raises(AnalysisError,
                       match="critical node 0 has no outgoing critical edge"
                       ) as exc:
        nachtigall_expand(a, rule="cycle")
    assert exc.value.node == 0


def test_deflation_without_critical_node_raises():
    a = scaled_hang_matrix()
    assert critical_structure(a).critical_nodes == ()
    for rule in ("canonical", "cycle"):
        with pytest.raises(AnalysisError, match="no critical node"):
            nachtigall_expand(a, rule=rule)
    with pytest.raises(AnalysisError):
        fast_terms(a, 75)
    # the ultimate routes meet the level first: a typed error, not a
    # ZeroDivisionError or ValueError from the class factors
    for route in (lambda: fast_terms(a, 75, variant="ultimate"),
                  lambda: ultimate_threshold(a), lambda: ultimate_expand(a),
                  lambda: is_orbit_periodic(a)):
        with pytest.raises(AnalysisError,
                           match="ultimate level 0 .* has no critical node"):
            route()


def test_ultimate_sigma_mismatch_raises():
    # one component of cycle mean 0 (the loop at node 0) holding a 4-cycle
    # of mean -5e-10 whose edges are not critical: the canonical deflation
    # peels that cycle off as a level of its own, within 1e-9 of the first
    w = -5e-10
    a = TropicalMatrix.from_rows([[0.0, -5, None, None, None],
                                  [-5, None, w, None, None],
                                  [None, None, None, w, None],
                                  [None, None, None, None, w],
                                  [None, w, None, None, None]])
    assert nachtigall_expand(a).lambdas == (0.0, w)
    with pytest.raises(AnalysisError, match="matches canonical levels"):
        ultimate_expand(a)


def test_equal_cycle_means_share_one_ultimate_level():
    """Both components below have mean -1/3, but the 7-node one's float
    comes out one ulp above the loop's at node 3.  They form one level at
    the larger of the two, as the integer matrix (x3) does; two levels
    made the expansion wrong at every t and left no threshold."""
    rows = ["-1 -1 .  .  .  .  .  .",
            "-5 .  -8 .  .  .  .  -6",
            "2  .  -2 .  .  .  -5 0",
            ".  .  .  -1 2  -3 -3 3",
            "3  -2 -9 .  -2 1  -8 .",
            ".  .  -7 .  .  -9 .  .",
            "0  0  2  .  0  .  .  -5",
            "-9 -5 -3 .  -3 .  .  ."]
    a = TropicalMatrix.from_rows([[None if v == "." else int(v) / 3
                                   for v in row.split()] for row in rows])
    lams = critical_structure(a).lambda_of_component
    assert lams[0] == -0.3333333333333332 and lams[1] == -1 / 3
    e = ultimate_expand(a)
    assert e.lambdas == (lams[0],)
    assert ultimate_threshold(a) == 9
    for t in range(9, 109):
        assert mat_eq(evaluate(e, t).matrix, mat_power(a, t), TOL), t
    # means 0, -9e-10 and -1.8e-9: the first two within 1e-9 of the
    # group's largest, the third not, as in the canonical deflation
    a = TropicalMatrix.from_rows([[0.0, None, None], [None, -9e-10, None],
                                  [None, None, -1.8e-9]])
    assert (ultimate_expand(a).lambdas == nachtigall_expand(a).lambdas
            == (0.0, -1.8e-9))


def test_evaluate_overflow_raises_typed_error():
    """lam * t, or a term plus it, leaving float64 is a NonFiniteError in
    both expansions and both directions, not a silent -inf ("no path") or
    +inf."""
    for w in (-1e308, 1e308):
        a = TropicalMatrix([[w]])
        for e in (nachtigall_expand(a), ultimate_expand(a)):
            assert evaluate(e, 1).matrix.arr.tolist() == [[w]]
            with pytest.raises(NonFiniteError):
                evaluate(e, 3)
    # lam * 2 = +-1e308 is finite; the term's 1e308 on top of it is not
    for s in (-1.0, 1.0):
        a = TropicalMatrix.from_rows([[s * 5e307, s * 1.5e308],
                                      [None, s * 5e307]])
        for e in (nachtigall_expand(a), ultimate_expand(a)):
            assert len(e.terms) == 1
            evaluate(e, 1)
            with pytest.raises(NonFiniteError):
                evaluate(e, 2)
