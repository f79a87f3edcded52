"""Acceptance gate: nine end-to-end criteria.

Criteria 1-3 pin the bundled examples at tolerance 0.  Criteria 4-8 run
property suites over seeded random corpora at tolerance 1e-9: inputs are
integer matrices, but deflated levels are normalized by rational cycle
means, so equalities hold only to float precision.  Criterion 9 checks
the documented exclusions.  The terminal summary prints one line per
criterion (see conftest).
"""

import math
import time
from pathlib import Path

import networkx as nx
import numpy as np

from maxplus import (CritSubgraph, NEG_INF, PathClassQuery, TropicalMatrix,
                     best_path_weight, boolean_power_reach, critical_structure,
                     csr_build, csr_product, enumerate_small, evaluate,
                     fast_terms, is_orbit_periodic, kleene_star, mat_eq,
                     mat_mul, mat_power, nachtigall_expand, simulate_orbit,
                     strong_access, ultimate_expand, ultimate_threshold,
                     wielandt)

from conftest import has_cycle, random_definite, random_matrix
from goldens import (EX1_A2, EX1_A3, EX1_A4, EX1_GAMMAS, EX1_LAMBDAS,
                     EX1_N1_0, EX1_N1_1, EX1_N2_0, EX1_N3_0, EX1_THRESHOLD,
                     EX2_C2_COL4_ROWS46, EX2_R2_POWER_ROW4_COLS26,
                     EX2_R2U_ROW4_COLS46, EX2_STAR_A2, EX3A_SEQ_FROM_T4,
                     EX3B_SEQ_FROM_T2)

TOL = 1e-9


def grid(golden) -> np.ndarray:
    return np.array([[NEG_INF if x is None else float(x) for x in row]
                     for row in golden])


def exact(x, golden) -> bool:
    if isinstance(x, TropicalMatrix):
        x = x.arr
    return bool(np.array_equal(np.asarray(x), grid(golden)))


# --------------------------------------------------------------- criteria

def test_criterion_1_example1_golden_suite(ex1):
    started = time.perf_counter()
    e = nachtigall_expand(ex1)
    assert tuple(e.lambdas) == EX1_LAMBDAS
    assert tuple(term.triple.gamma for term in e.terms) == EX1_GAMMAS
    n1_0 = csr_product(e.terms[0].triple, 0).matrix.arr
    n1_1 = csr_product(e.terms[0].triple, 1).matrix.arr
    n2_0 = csr_product(e.terms[1].triple, 0).matrix.arr
    n3_0 = csr_product(e.terms[2].triple, 0).matrix.arr
    assert exact(n1_0, EX1_N1_0) and exact(n1_1, EX1_N1_1)
    assert exact(n2_0, EX1_N2_0) and exact(n3_0, EX1_N3_0)
    # expansion identities for the small powers, assembled from the
    # golden term matrices alone
    assert exact(np.maximum.reduce([n1_0, n2_0 - 2.0, n3_0 - 4.0]), EX1_A2)
    assert exact(np.maximum.reduce([n1_1, n2_0 - 3.0, n3_0 - 6.0]), EX1_A3)
    assert exact(np.maximum.reduce([n1_0, n2_0 - 4.0, n3_0 - 8.0]), EX1_A4)
    for t, golden in ((2, EX1_A2), (3, EX1_A3), (4, EX1_A4), (10, EX1_N1_0)):
        assert exact(mat_power(ex1, t), golden)
        assert exact(evaluate(e, t).matrix, golden)
    eu = ultimate_expand(ex1)
    assert exact(csr_product(eu.terms[0].triple, 0).matrix, EX1_N1_0)
    assert ultimate_threshold(ex1) == EX1_THRESHOLD == 10
    assert time.perf_counter() - started < 1.0


def test_criterion_2_example2_golden_suite(ex2):
    started = time.perf_counter()
    assert exact(kleene_star(mat_power(ex2, 2)), EX2_STAR_A2)
    eu = ultimate_expand(ex2)
    assert [float(x) for x in eu.lambdas] == [0.0, -1.0]
    c2u = eu.terms[1].triple.c.arr
    r2u = eu.terms[1].triple.r.arr
    assert c2u[4:7, 4].tolist() == EX2_C2_COL4_ROWS46
    assert r2u[4, 4:7].tolist() == EX2_R2U_ROW4_COLS46
    p = mat_power(ex2, 9)
    for t in range(9, 13):
        assert exact(evaluate(eu, t).matrix, p.arr.tolist())
        p = mat_mul(p, ex2)
    # the power-expansion R at the second level keeps columns that the
    # ultimate R drops
    en = nachtigall_expand(ex2)
    r2n = en.terms[1].triple.r.arr
    assert r2n[4, 2:7].tolist() == EX2_R2_POWER_ROW4_COLS26
    assert np.all(r2u[4, 2:4] == NEG_INF)
    assert not np.array_equal(r2n[4], r2u[4])
    assert time.perf_counter() - started < 1.0


def test_criterion_3_example3_golden_suite(ex3a, ex3b, ex3x):
    started = time.perf_counter()
    assert is_orbit_periodic(ex3a).verdict
    assert not is_orbit_periodic(ex3b).verdict
    tra = simulate_orbit(ex3a, ex3x)
    assert tra.samples[4:16, 5].tolist() == EX3A_SEQ_FROM_T4
    trb = simulate_orbit(ex3b, ex3x)
    seq = trb.samples[2:14, 5]
    assert seq.tolist() == EX3B_SEQ_FROM_T2
    # the case split: even exponents stay flat, odd exponents climb
    assert np.all(seq[0::2] == 0.0)
    assert trb.period is None
    assert not strong_access(ex3b, 5, 2)
    assert time.perf_counter() - started < 1.0


_CORPUS45 = None


def corpus45() -> list:
    """200 cyclic integer matrices shared by criteria 4 and 5."""
    global _CORPUS45
    if _CORPUS45 is None:
        rng = np.random.default_rng(450)
        out = []
        while len(out) < 200:
            a = random_matrix(rng, int(rng.integers(2, 8)))
            if has_cycle(a):
                out.append(a)
        _CORPUS45 = out
    return _CORPUS45


def test_criterion_4_nachtigall_property_suite():
    started = time.perf_counter()
    for a in corpus45():
        e = nachtigall_expand(a)
        gam = math.lcm(*[term.triple.gamma for term in e.terms])
        t0 = 3 * a.n * a.n
        p = mat_power(a, t0)
        for t in range(t0, t0 + 2 * gam + 1):
            assert mat_eq(evaluate(e, t).matrix, p, TOL)
            p = mat_mul(p, a)
    assert time.perf_counter() - started < 60.0


def test_criterion_5_ultimate_property_suite():
    started = time.perf_counter()
    for a in corpus45():
        en = nachtigall_expand(a)
        eu = ultimate_expand(a)
        tp = ultimate_threshold(a, t_max=10 * 3 * a.n * a.n)
        assert tp is not None
        p = mat_power(a, tp)
        for t in range(tp, tp + 2 * eu.gamma_u + 1):
            assert mat_eq(evaluate(eu, t).matrix, p, TOL)
            p = mat_mul(p, a)
        assert list(eu.sigma) == sorted(set(eu.sigma))
        for nu, k in enumerate(eu.sigma):
            assert abs(eu.lambdas[nu] - en.lambdas[k]) <= TOL
            gn = en.terms[k].triple.gamma
            gu = eu.terms[nu].triple.gamma
            assert gn % gu == 0
            for r in range(gn):
                un = csr_product(en.terms[k].triple, r).matrix.arr
                uu = csr_product(eu.terms[nu].triple, r).matrix.arr
                assert np.all(uu <= un + TOL)
    assert time.perf_counter() - started < 120.0


def test_criterion_6_csr_law_suite():
    rng = np.random.default_rng(600)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_definite(rng, n)
        cs = critical_structure(a)
        crit = CritSubgraph.from_critical_structure(cs)
        triple = csr_build(a, crit)
        gam = triple.gamma
        # periodicity, checked on literally accumulated s-powers
        lit = []
        sp = TropicalMatrix.identity(n)
        for t in range(31 + gam):
            lit.append(mat_mul(mat_mul(triple.c, sp), triple.r))
            assert mat_eq(lit[t], csr_product(triple, t).matrix, TOL)
            sp = mat_mul(sp, triple.s)
        for t in range(31):
            assert mat_eq(lit[t + gam], lit[t], TOL)
        # group law
        prods = [csr_product(triple, t).matrix for t in range(41)]
        for t1 in range(21):
            for t2 in range(21):
                assert mat_eq(prods[t1 + t2],
                              mat_mul(prods[t1], prods[t2]), TOL)
        # spectral projector rows and columns
        p0 = prods[0].arr
        for i in sorted(crit.nodes):
            assert np.allclose(p0[i], triple.r.arr[i], atol=TOL)
            assert np.allclose(p0[:, i], triple.c.arr[:, i], atol=TOL)
        # two-sided bounds against the restricted path oracle
        nodes = frozenset(crit.nodes)
        dp = enumerate_small(a, 12, crit_nodes=nodes)["crit-heavy"]
        for t in range(13):
            assert np.all(np.array(dp[t]) <= prods[t % gam].arr + TOL)
        tau = max(crit.cyclicity_of)
        t_eq = wielandt(len(nodes)) + 2 * tau * (n - 1)
        want = csr_product(triple, t_eq).matrix.arr
        for i in range(n):
            for j in range(n):
                got = best_path_weight(a, PathClassQuery(
                    i=i, j=j, t=t_eq, kind="crit-heavy", crit_nodes=nodes))
                if want[i, j] == NEG_INF:
                    assert got == NEG_INF
                else:
                    assert abs(got - want[i, j]) <= TOL


def test_criterion_7_fast_path_equivalence():
    rng = np.random.default_rng(700)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 8))
        a = random_matrix(rng, n)
        if not has_cycle(a):
            continue
        done += 1
        en = nachtigall_expand(a)
        eu = ultimate_expand(a)
        t0 = 3 * n * n
        for t in rng.integers(t0, t0 + 200, size=5):
            fast = fast_terms(a, int(t), variant="nachtigall")
            for f, term in zip(fast, en.terms, strict=True):
                assert mat_eq(f, csr_product(term.triple, int(t)).matrix, TOL)
        for t in rng.integers(0, 200, size=5):
            fast = fast_terms(a, int(t), variant="ultimate")
            for f, term in zip(fast, eu.terms, strict=True):
                assert mat_eq(f, csr_product(term.triple, int(t)).matrix, TOL)
    started = time.perf_counter()
    big = None
    rng2 = np.random.default_rng(701)
    while big is None or not has_cycle(big):
        big = random_matrix(rng2, 100)
    terms = fast_terms(big, 3 * 100 * 100, variant="nachtigall")
    assert terms
    assert time.perf_counter() - started < 30.0


# criterion 8 helpers: an independent reading of the periodicity theorem
# built on cycle enumeration and Boolean power windows

def _oracle_components(a: TropicalMatrix):
    g = nx.DiGraph()
    g.add_nodes_from(range(a.n))
    ii, jj = np.nonzero(a.arr != NEG_INF)
    g.add_edges_from(zip(ii.tolist(), jj.tolist()))
    comps = []
    for c in nx.strongly_connected_components(g):
        sub = g.subgraph(c)
        lens, means = [], []
        for cyc in nx.simple_cycles(sub):
            w = sum(a.arr[cyc[k], cyc[(k + 1) % len(cyc)]]
                    for k in range(len(cyc)))
            lens.append(len(cyc))
            means.append(w / len(cyc))
        if lens:
            comps.append((min(c), set(c), max(means), math.gcd(*lens)))
    return g, comps


def _oracle_verdict(a: TropicalMatrix) -> bool:
    g, comps = _oracle_components(a)
    if not comps:
        return True
    reach = nx.transitive_closure(g, reflexive=False)
    for _, nodes_p, lam_p, _ in comps:
        for rq, nodes_q, lam_q, _ in comps:
            if rq in nodes_p:
                continue
            if reach.has_edge(min(nodes_p), rq) and lam_p > lam_q + TOL:
                return False
    gam = math.lcm(*[g_c for _, _, _, g_c in comps])
    t0 = 3 * a.n * a.n
    acc = None
    for t in range(t0, t0 + gam):
        r = np.array(boolean_power_reach(a, t))
        acc = r if acc is None else acc & r
    for x in range(len(comps)):
        for y in range(x + 1, len(comps)):
            rp, _, lam_p, _ = comps[x]
            rq, _, lam_q, _ = comps[y]
            if abs(lam_p - lam_q) <= TOL:
                continue
            if not (acc[rp, rq] or acc[rq, rp]):
                return False
    return True


def _start_vectors(a: TropicalMatrix, rng) -> list:
    live = sorted({v for v in range(a.n)
                   if np.any(a.arr[:, v] != NEG_INF)
                   or np.any(a.arr[v] != NEG_INF)} or {0})
    starts = [_unit(a.n, i) for i in live]
    starts += [_unit(a.n, i, j) for k, i in enumerate(live)
               for j in live[k + 1:]]
    while len(starts) < 50:
        y = np.where(rng.random(a.n) < 0.6,
                     rng.integers(-4, 5, a.n).astype(float), NEG_INF)
        if not np.any(y != NEG_INF):
            y[int(rng.integers(a.n))] = 0.0
        starts.append(y)
    return starts[:max(50, len(starts))]


def _unit(n, *idx):
    y = np.full(n, NEG_INF)
    for i in idx:
        y[i] = 0.0
    return y


def test_criterion_8_orbit_periodicity_triangulation():
    started = time.perf_counter()
    rng = np.random.default_rng(800)
    for _ in range(300):
        a = random_matrix(rng, int(rng.integers(2, 8)))
        va = _oracle_verdict(a)
        vb = bool(is_orbit_periodic(a, method="support").verdict)
        vc = all(simulate_orbit(a, y).period is not None
                 for y in _start_vectors(a, rng))
        assert va == vb == vc
    assert time.perf_counter() - started < 180.0


def test_criterion_9_documented_exclusions():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "NP-hard" in text
    assert "Schwartz" in text
    assert "Wielandt" in text
