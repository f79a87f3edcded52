"""CSR factor triples: build, products, periodicity laws, rotations."""

import numpy as np
import pytest

from maxplus import (CritSubgraph, DivergentStarError, NEG_INF,
                     NotDefiniteError, PathClassQuery, TropicalMatrix,
                     best_path_weight, critical_structure, csr_build,
                     csr_product, csr_product_literal,
                     enumerate_small, kleene_star, mat_eq, mat_mul, mat_power,
                     mat_scalar_mul, nachtigall_expand, ultimate_expand)
from maxplus.csr import _shift

from conftest import random_definite, random_reducible
from goldens import (EX1_N1_0, EX1_N1_1, EX1_S_EDGES, EX1_STAR_COLS01,
                     EX1_STAR_ROWS01)

TOL = 1e-9


def vec_close(x: np.ndarray, y: np.ndarray) -> bool:
    fx, fy = x != NEG_INF, y != NEG_INF
    return bool(np.array_equal(fx, fy) and np.allclose(x[fx], y[fy], atol=TOL))


def full_triple(a: TropicalMatrix):
    crit = CritSubgraph.from_critical_structure(critical_structure(a))
    return csr_build(a, crit)


def test_build_single_loop():
    t = full_triple(TropicalMatrix([[0.0]]))
    assert t.gamma == 1 and t.n_c == (0,) and t.s_is_boolean
    for m in (t.c, t.s, t.r):
        assert m.arr[0, 0] == 0.0
    assert csr_product_literal(t, 7).arr[0, 0] == 0.0


def test_build_example1(ex1):
    t = full_triple(ex1)
    assert t.gamma == 2
    assert t.n_c == (0, 1)
    assert t.component_cyclicities == (2,)
    assert t.periodicity_threshold() == 2
    assert t.s_is_boolean
    assert {e for e in EX1_S_EDGES[0]} == set(t.crit.edges)
    # C holds the critical columns of (A^2)*, R the critical rows
    b = kleene_star(mat_power(ex1, 2))
    assert b.arr[0, 1] == -1.0
    star_cols = np.array(EX1_STAR_COLS01, dtype=float)
    star_rows = np.array(EX1_STAR_ROWS01, dtype=float)
    for k in (0, 1):
        assert np.array_equal(t.c.arr[:, k], star_cols[:, k])
        assert np.array_equal(t.r.arr[k, :], star_rows[k, :])
    assert np.all(t.c.arr[:, 2:] == NEG_INF)
    assert np.all(t.r.arr[2:, :] == NEG_INF)


def test_products_example1(ex1):
    t = full_triple(ex1)
    n0 = TropicalMatrix.from_rows(EX1_N1_0)
    n1 = TropicalMatrix.from_rows(EX1_N1_1)
    assert mat_eq(csr_product_literal(t, 0), n0)
    assert mat_eq(csr_product_literal(t, 1), n1)
    assert n0.arr[2, :].tolist() == [-5.0, -6.0, -10.0, -9.0]
    # the cached route agrees with the literal one and reports residues
    p = csr_product(t, 5)
    assert p.t_residue == 1 and mat_eq(p.matrix, n1)
    assert mat_eq(csr_product(t, 4).matrix, n0)


def test_cr_bounded_by_star():
    rng = np.random.default_rng(40)
    for _ in range(15):
        a = random_definite(rng, 5)
        t = full_triple(a)
        b = kleene_star(mat_power(a, t.gamma))
        assert np.all(mat_mul(t.c, t.r).arr <= b.arr + TOL)


def test_periodicity():
    rng = np.random.default_rng(41)
    mats = [random_definite(rng, int(rng.integers(2, 6))) for _ in range(8)]
    for a in mats:
        t = full_triple(a)
        for k in range(0, 31):
            assert mat_eq(csr_product_literal(t, k + t.gamma),
                          csr_product_literal(t, k), tol=TOL)


def group_law_holds(triple, t1: int, t2: int, tol: float = 0.0) -> bool:
    """Does product(t1 + t2) equal product(t1) (x) product(t2)?"""
    lhs = csr_product(triple, t1 + t2).matrix
    rhs = mat_mul(csr_product(triple, t1).matrix,
                  csr_product(triple, t2).matrix)
    return mat_eq(lhs, rhs, tol)


def test_group_law(ex1):
    t = full_triple(ex1)
    n0 = TropicalMatrix.from_rows(EX1_N1_0)
    n1 = TropicalMatrix.from_rows(EX1_N1_1)
    assert mat_eq(mat_mul(n1, n1), n0)
    assert group_law_holds(t, 1, 1)
    p0 = csr_product(t, 0).matrix
    assert mat_eq(mat_mul(p0, p0), p0)
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = random_definite(rng, int(rng.integers(2, 6)))
        tr = full_triple(a)
        t1, t2 = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        assert group_law_holds(tr, t1, t2, tol=TOL)


def test_spectral_projector(ex1):
    rng = np.random.default_rng(43)
    mats = [ex1] + [random_definite(rng, int(rng.integers(2, 7)))
                    for _ in range(10)]
    for a in mats:
        t = full_triple(a)
        p0 = csr_product(t, 0).matrix
        for i in t.n_c:
            assert np.allclose(p0.arr[i, :], t.r.arr[i, :], atol=TOL)
            assert np.allclose(p0.arr[:, i], t.c.arr[:, i], atol=TOL)


def test_critical_rows_and_columns(ex1):
    rng = np.random.default_rng(44)
    mats = [ex1] + [random_definite(rng, int(rng.integers(2, 6)))
                    for _ in range(8)]
    for a in mats:
        tr = full_triple(a)
        t0 = tr.periodicity_threshold()
        for t in range(t0, t0 + 2 * tr.gamma):
            p = csr_product_literal(tr, t)
            st = mat_power(tr.s, t)
            sr = mat_mul(st, tr.r)
            cs_ = mat_mul(tr.c, st)
            for i in tr.n_c:
                assert np.allclose(p.arr[i, :], sr.arr[i, :], atol=TOL)
                assert np.allclose(p.arr[:, i], cs_.arr[:, i], atol=TOL)


def test_columns_are_critical_combinations(ex1):
    rng = np.random.default_rng(45)
    mats = [ex1] + [random_definite(rng, int(rng.integers(2, 6)))
                    for _ in range(8)]
    for a in mats:
        tr = full_triple(a)
        for t in (0, 1, 3, 8):
            p = csr_product_literal(tr, t).arr
            for k in range(a.n):
                rebuilt = np.full(a.n, NEG_INF)
                for i in tr.n_c:
                    rebuilt = np.maximum(rebuilt, tr.r.arr[i, k] + p[:, i])
                assert vec_close(rebuilt, p[:, k])


def crit_heavy_oracle_entry(a, nc, i, j, t):
    q = PathClassQuery(i=i, j=j, t=t, kind="crit-heavy",
                       crit_nodes=frozenset(nc))
    return best_path_weight(a, q)


def test_crit_heavy_two_sided_bounds():
    rng = np.random.default_rng(46)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        a = random_definite(rng, n)
        tr = full_triple(a)
        tables = enumerate_small(a, 20, crit_nodes=tr.n_c)["crit-heavy"]
        for t in range(0, 21):
            p = csr_product_literal(tr, t).arr
            for i in range(n):
                for j in range(n):
                    assert p[i, j] >= tables[t][i][j] - TOL
        tau = max(tr.component_cyclicities)
        t_eq = tr.periodicity_threshold() + 2 * tau * (n - 1)
        p = csr_product_literal(tr, t_eq).arr
        for i in range(n):
            for j in range(n):
                w = crit_heavy_oracle_entry(a, tr.n_c, i, j, t_eq)
                if w == NEG_INF:
                    assert p[i, j] == NEG_INF
                else:
                    assert abs(p[i, j] - w) <= TOL


def full_matrix_factors(a: TropicalMatrix, crit: CritSubgraph):
    """C, S, R from (a^gamma)* over all n nodes, the unrestricted build."""
    b = kleene_star(mat_power(a, crit.gamma)).arr
    mask = np.zeros(a.n, dtype=bool)
    mask[sorted(crit.nodes)] = True
    s = np.full((a.n, a.n), NEG_INF)
    for i, j in crit.edges:
        s[i, j] = a.arr[i, j]
    return (np.where(mask[None, :], b, NEG_INF), s,
            np.where(mask[:, None], b, NEG_INF))


def test_build_on_restricted_levels_matches_full_matrix():
    # deeper deflation levels leave rows and columns all -inf; the build
    # stars only the rest.  n = 70 runs the rank-1 matmul loop on the
    # first levels and the broadcast product on the small late ones.
    rng = np.random.default_rng(68)
    restricted = 0
    for n in (6, 9, 12, 70):
        a = random_reducible(rng, n, blocks=6)
        for e in (nachtigall_expand(a), nachtigall_expand(a, rule="cycle"),
                  ultimate_expand(a)):
            for st, (_, triple) in zip(e.steps, e.terms):
                level = st.a_mu.scale(-st.lambda_mu)
                restricted += not level.finite_mask().any(axis=1).all()
                want = full_matrix_factors(level, st.crit)
                got = (triple.c.arr, triple.s.arr, triple.r.arr)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert restricted > 10


# ------------------------------------------------ rotations by cyclic class

def visualized_definite(rng, n: int) -> TropicalMatrix:
    """Random definite matrix, diagonally rescaled so that its critical
    edges weigh 0 (a Boolean S): a potential z summed along each critical
    component from its least node, then a_ij + z_i - z_j."""
    a = random_definite(rng, n)
    crit = CritSubgraph.from_critical_structure(critical_structure(a))
    z = np.zeros(n)
    for comp in crit.components:
        seen, stack = {min(comp)}, [min(comp)]
        while stack:
            v = stack.pop()
            for i, j in crit.edges:
                if i == v and j not in seen:
                    z[j] = z[v] + a.arr[v, j]
                    seen.add(j)
                    stack.append(j)
    return TropicalMatrix(a.arr + (z[:, None] - z[None, :]))


def slot_of(tr, node: int) -> int:
    """The slot (cyclic class, numbered component by component) of node."""
    starts = np.flatnonzero(tr.slots[1] == 0)
    k, c = tr.crit.class_of[node]
    return int(starts[k] + c)


def rotated_rows(tr, t: int) -> np.ndarray:
    """Critical rows of S^t R read off R^ moved t classes on, as in
    csr_product (x vanishes on a Boolean S)."""
    nodes = list(tr.n_c)
    return tr.r_hat[_shift(tr.slots, t)][[slot_of(tr, i) for i in nodes]]


def rotated_cols(tr, t: int) -> np.ndarray:
    """Critical columns of C S^t read off C^ moved t classes back."""
    nodes = list(tr.n_c)
    return tr.c_hat[:, _shift(tr.slots, -t)][:, [slot_of(tr, j) for j in nodes]]


def test_rotate_identity_shift(ex1):
    tr = full_triple(ex1)
    assert tr.s_is_boolean
    r0, nodes = tr.periodicity_threshold(), list(tr.n_c)
    m = mat_mul(mat_power(tr.s, r0), tr.r).arr[nodes]
    for shift in (0, tr.gamma, -tr.gamma):
        assert np.array_equal(rotated_rows(tr, r0 + shift), m)
        assert np.array_equal(tr.r_hat[_shift(tr.slots, shift)], tr.r_hat)


def test_rotate_example3_block(ex3a):
    a1 = mat_scalar_mul(-1.0, ex3a)
    tr = full_triple(a1)
    assert tr.gamma == 4 and tr.s_is_boolean
    r0, nodes = tr.periodicity_threshold(), list(tr.n_c)
    m = mat_mul(mat_power(tr.s, r0), tr.r).arr[nodes]
    want = mat_mul(mat_power(tr.s, r0 + 1), tr.r).arr[nodes]
    assert np.array_equal(rotated_rows(tr, r0 + 1), want)
    # one step on moves each critical row one cyclic class on
    nxt = [nodes.index(tr.crit.members[0][(tr.crit.class_of[i][1] + 1) % 4][0])
           for i in nodes]
    assert np.array_equal(m[nxt], want)


def test_rotate_matches_literal_products():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(8):
        a = visualized_definite(rng, int(rng.integers(2, 6)))
        tr = full_triple(a)
        if not tr.s_is_boolean:
            continue
        checked += 1
        r0, nodes = tr.periodicity_threshold(), list(tr.n_c)
        for dt in range(0, 2 * tr.gamma + 1):
            rows = mat_mul(mat_power(tr.s, r0 + dt), tr.r).arr[nodes]
            cols = mat_mul(tr.c, mat_power(tr.s, r0 + dt)).arr[:, nodes]
            assert vec_close(rotated_rows(tr, r0 + dt), rows)
            assert vec_close(rotated_cols(tr, r0 + dt), cols)
            assert mat_eq(csr_product(tr, r0 + dt).matrix,
                          csr_product_literal(tr, r0 + dt), tol=TOL)
        d1, d2 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        assert np.array_equal(tr.r_hat[_shift(tr.slots, d2)[_shift(tr.slots, d1)]],
                              tr.r_hat[_shift(tr.slots, d1 + d2)])
    assert checked >= 6


def test_build_rejects_non_definite():
    a = TropicalMatrix([[1.0]])
    crit = CritSubgraph.from_edges([(0, 0)])
    with pytest.raises(NotDefiniteError) as exc:
        csr_build(a, crit)
    assert exc.value.value == pytest.approx(1.0)
    # skipping the screen on a definite matrix gives the same triple
    good = TropicalMatrix([[0.0]])
    assert mat_eq(csr_build(good, crit, check_definite=False).c,
                  csr_build(good, crit).c)
    # unscreened, a positive loop fails the star; the error names the node
    # of the input although nodes 0 and 1 (no edges) are left out of it
    a = TropicalMatrix.from_rows([[None] * 3, [None] * 3, [None, None, 1.0]])
    with pytest.raises(DivergentStarError) as exc:
        csr_build(a, CritSubgraph.from_edges([(2, 2)]), check_definite=False)
    assert exc.value.node == 2 and "node 2" in str(exc.value)


def test_product_negative_exponent(ex1):
    tr = full_triple(ex1)
    with pytest.raises(ValueError):
        csr_product_literal(tr, -1)
    with pytest.raises(ValueError):
        csr_product(tr, -2)
