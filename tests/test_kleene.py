"""Kleene star and divergence detection."""

import numpy as np
import pytest

from maxplus import (DivergentStarError, NEG_INF, PathClassQuery,
                     TropicalMatrix, best_path_weight, kleene_star, mat_eq,
                     mat_mul)

from conftest import random_definite
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

