"""Kleene star, divergence detection, and diagonal similarity scalings."""

import numpy as np
import pytest

from maxplus import (DivergentStarError, NEG_INF, NotCriticalPartError,
                     PathClassQuery, Scaling, TropicalMatrix, apply_scaling,
                     best_path_weight, critical_structure, kleene_star,
                     mat_eq, mat_mul, total_visualizing_scaling,
                     visualizing_scaling)

from conftest import random_definite, random_matrix
from goldens import EX2_STAR_A2

TOL = 1e-9


def star_by_paths(a: TropicalMatrix) -> TropicalMatrix:
    """Identity joined with the best walk of each length below n."""
    out = np.where(np.eye(a.n, dtype=bool), 0.0, NEG_INF)
    for t in range(1, a.n):
        for i in range(a.n):
            for j in range(a.n):
                w = best_path_weight(a, PathClassQuery(i=i, j=j, t=t))
                out[i, j] = max(out[i, j], w)
    return TropicalMatrix(out, copy=False)


def test_star_of_zero_matrix_is_identity():
    s = kleene_star(TropicalMatrix.zeros(4))
    assert mat_eq(s, TropicalMatrix.identity(4))


def test_star_example2_square(ex2):
    s = kleene_star(mat_mul(ex2, ex2))
    assert mat_eq(s, TropicalMatrix.from_rows(EX2_STAR_A2))


def test_star_matches_path_oracle():
    rng = np.random.default_rng(30)
    for _ in range(15):
        a = random_definite(rng, int(rng.integers(1, 7)))
        assert mat_eq(kleene_star(a), star_by_paths(a), tol=TOL)


def test_star_laws():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_definite(rng, int(rng.integers(1, 7)))
        s = kleene_star(a)
        assert mat_eq(mat_mul(s, s), s, tol=TOL)
        assert mat_eq(kleene_star(s), s, tol=TOL)
        assert np.all(s.arr >= TropicalMatrix.identity(a.n).arr)
        assert np.all(s.arr >= a.arr)


def test_star_divergence_component_screen():
    a = TropicalMatrix.from_rows([[None, 2.0], [1.0, None]])
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a)
    assert exc.value.component == [0, 1]
    assert exc.value.value == pytest.approx(1.5)


def test_star_divergence_in_relaxation():
    a = TropicalMatrix([[1.0]])
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a, check=False)
    assert exc.value.node == 0


def test_star_divergence_after_relaxation_without_loops():
    # no loop, so every diagonal entry starts at 0; the positive 2-cycle
    # shows on the diagonal only once the relaxation has run
    a = TropicalMatrix.from_rows([[None, 1.0], [1.0, None]])
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a, check=False)
    assert exc.value.node == 0


def test_apply_scaling_laws():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        z = Scaling(rng.normal(size=n))
        assert mat_eq(apply_scaling(a, Scaling(np.zeros(n))), a)
        assert mat_eq(apply_scaling(apply_scaling(a, z), z.inverse()), a,
                      tol=TOL)
        # similarity is a semiring automorphism
        assert mat_eq(mat_mul(apply_scaling(a, z), apply_scaling(b, z)),
                      apply_scaling(mat_mul(a, b), z), tol=TOL)


def test_scaling_rejects_bad_vectors():
    with pytest.raises(ValueError):
        Scaling([0.0, NEG_INF])
    with pytest.raises(ValueError):
        Scaling([0.0, float("nan")])


def test_visualizing_scaling_boolean_fixed_point():
    s = TropicalMatrix.from_rows([[None, 0.0], [0.0, None]])
    z = visualizing_scaling(s)
    assert np.array_equal(z.z, np.zeros(2))
    assert mat_eq(apply_scaling(s, z), s)


def test_visualizing_scaling_two_cycle():
    s = TropicalMatrix.from_rows([[None, 1.0], [-1.0, None]])
    z = visualizing_scaling(s)
    v = apply_scaling(s, z)
    assert v.arr[0, 1] == 0.0 and v.arr[1, 0] == 0.0


def extract_critical_part(a: TropicalMatrix) -> TropicalMatrix:
    """Entries of a, shifted by the cycle mean, kept on critical edges."""
    cs = critical_structure(a)
    out = TropicalMatrix.zeros(a.n).arr.copy()
    for i, j in cs.critical_edges:
        out[i, j] = a.arr[i, j] - cs.lambda_global
    return TropicalMatrix(out, copy=False)


def test_visualizing_scaling_on_random_critical_parts():
    rng = np.random.default_rng(33)
    done = 0
    while done < 10:
        a = random_matrix(rng, int(rng.integers(2, 7)))
        cs_try = extract_critical_part(a) if has_edges(a) else None
        if cs_try is None or not cs_try.finite_mask().any():
            continue
        z = visualizing_scaling(cs_try)
        v = apply_scaling(cs_try, z)
        fin = v.finite_mask()
        assert np.allclose(v.arr[fin], 0.0, atol=TOL)
        done += 1


def has_edges(a: TropicalMatrix) -> bool:
    from maxplus import scc_decompose
    return bool(scc_decompose(a).nontrivial())


def test_visualizing_scaling_rejections():
    with pytest.raises(NotCriticalPartError, match="positive cycle"):
        visualizing_scaling(TropicalMatrix([[1.0]]))
    # the edge 0 -> 1 lies on no cycle at all
    hanging = TropicalMatrix.from_rows([
        [0.0, -1.0],
        [None, 0.0],
    ])
    with pytest.raises(NotCriticalPartError, match="off every"):
        visualizing_scaling(hanging)
    # a cycle of negative weight does not qualify either
    sagging = TropicalMatrix.from_rows([[None, -1.0], [-1.0, None]])
    with pytest.raises(NotCriticalPartError):
        visualizing_scaling(sagging)


def test_total_visualizing_scaling_single_term():
    s = TropicalMatrix.from_rows([
        [None, 1.0, None],
        [-1.0, None, None],
        [None, None, None],
    ])
    z = total_visualizing_scaling([s], 3)
    v = apply_scaling(s, z)
    assert v.arr[0, 1] == 0.0 and v.arr[1, 0] == 0.0
    assert z.z[2] == 0.0


def test_total_visualizing_scaling_disjoint_terms():
    s1 = TropicalMatrix.from_rows([
        [None, 2.0, None],
        [-2.0, None, None],
        [None, None, None],
    ])
    s2 = TropicalMatrix.from_rows([
        [None, None, None],
        [None, None, None],
        [None, None, -0.0],
    ])
    z = total_visualizing_scaling([s1, s2], 3)
    for s in (s1, s2):
        v = apply_scaling(s, z)
        fin = v.finite_mask()
        assert np.allclose(v.arr[fin], 0.0, atol=TOL)


def test_total_visualizing_scaling_guards():
    s = TropicalMatrix.from_rows([[0.0]])
    with pytest.raises(ValueError, match="does not match"):
        total_visualizing_scaling([s], 2)
    t = TropicalMatrix.from_rows([[0.0, None], [None, None]])
    with pytest.raises(ValueError, match="overlap"):
        total_visualizing_scaling([t, t], 2)
