"""Kleene star and divergence detection."""

import numpy as np
import pytest

from maxplus import (CRIT_TOL, DivergentStarError, NEG_INF, NonFiniteError,
                     PathClassQuery, TropicalMatrix, best_path_weight,
                     kleene_star, mat_eq, mat_mul, max_cycle_mean,
                     scc_decompose)
from maxplus import graphs

from conftest import random_definite, random_matrix, random_reducible
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
    return TropicalMatrix(out)


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
        kleene_star(a)
    assert exc.value.node == 0


def test_star_divergence_after_relaxation_without_loops():
    # no loop, so every diagonal entry starts at 0; the positive 2-cycle
    # shows on the diagonal only once the relaxation has run
    a = TropicalMatrix.from_rows([[None, 1.0], [1.0, None]])
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a)
    assert exc.value.node == 0



def test_star_divergence_that_overflows_names_the_component():
    # each pivot about doubles the positive cycles, so the relaxation
    # overflows float64 before it reads the diagonal
    a = TropicalMatrix(np.full((60, 60), 1e295))
    with pytest.raises(NonFiniteError):
        graphs._floyd_warshall_star(a.arr)
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a)
    assert exc.value.component == list(range(60))
    assert exc.value.value == max_cycle_mean(a)
    assert exc.value.node == 0
    assert str(exc.value).startswith("divergent star: component [0, 1, 2,")


def test_star_overflow_without_positive_cycle_stays_non_finite():
    a = TropicalMatrix.from_rows([[None, -1e308, None], [None, None, -1e308],
                                  [None, None, None]])
    with pytest.raises(NonFiniteError):
        kleene_star(a)


def test_star_divergence_below_tol_names_the_node():
    # the 2-cycle weighs 1.5e-9 > tol, but its mean 7.5e-10 does not
    # exceed tol, so no component is named
    a = TropicalMatrix.from_rows([[None, 1e-9], [5e-10, None]])
    with pytest.raises(DivergentStarError) as exc:
        kleene_star(a)
    assert str(exc.value) == "divergent star: positive cycle through node 0"
    assert (exc.value.component, exc.value.value, exc.value.node) == \
        (None, None, 0)


def test_convergent_star_runs_no_cycle_analysis(monkeypatch):
    rng = np.random.default_rng(33)
    mats = [random_definite(rng, int(rng.integers(1, 9))) for _ in range(20)]
    want = [kleene_star(TropicalMatrix(a.arr)).arr for a in mats]

    def forbidden(*args):
        raise AssertionError("cycle analysis on a convergent star")

    monkeypatch.setattr(graphs, "scc_decompose", forbidden)
    monkeypatch.setattr(graphs, "_karp", forbidden)
    for a, w in zip(mats, want):
        fresh = TropicalMatrix(a.arr)
        assert kleene_star(fresh).arr.tobytes() == w.tobytes()
        assert "critical" not in fresh._memo


def eager_screen(a: TropicalMatrix, tol: float):
    """(message, component, value, node) of a divergent star as a screen
    of every component's cycle mean before the relaxation reports it."""
    node = int(np.flatnonzero(
        np.diagonal(graphs._floyd_warshall_star(a.arr)) > tol)[0])
    dec = scc_decompose(a)
    for c in dec.nontrivial():
        lam = graphs._karp(a.arr, dec.components[c])
        if lam > tol:
            return ("divergent star: component %s has cycle mean %g"
                    % (list(dec.components[c]), lam), list(dec.components[c]),
                    float(lam), node)
    return ("divergent star: positive cycle through node %d" % node, None,
            None, node)


def test_divergent_star_error_matches_eager_screen():
    rng = np.random.default_rng(34)
    seen = 0
    for k in range(400):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n) if k % 2 else random_reducible(rng, n + 1)
        shift = float(rng.integers(1, 7)) / int(rng.choice([1, 3, 7]))
        a = TropicalMatrix(np.where(a.finite_mask(), a.arr + shift, NEG_INF))
        try:
            kleene_star(a)
        except DivergentStarError as exc:
            got = (str(exc), exc.component, exc.value, exc.node)
            assert got == eager_screen(a, CRIT_TOL)
            seen += 1
    assert seen > 200
