"""Self-checks for the brute-force path oracle.

The oracle validates the production code elsewhere; here we pin down
the oracle itself against matrix powers, hand-counted paths, and the
class-inclusion laws that any path classifier must satisfy.
"""

import numpy as np
import pytest

from maxplus import (NEG_INF, DomainError, OracleSizeError,
                     PathClassQuery, TropicalMatrix, best_path_weight,
                     boolean_power_reach, enumerate_small, mat_power)

from conftest import random_matrix
from goldens import EX1_A2, EX1_A3


def grid(golden) -> np.ndarray:
    return np.array([[NEG_INF if x is None else float(x) for x in row]
                     for row in golden])


def table_at(tables: dict, key: str, t: int) -> np.ndarray:
    return np.array(tables[key][t])


# ------------------------------------------------------------ base class

def test_length_one_is_the_matrix():
    rng = np.random.default_rng(80)
    for _ in range(5):
        a = random_matrix(rng, int(rng.integers(2, 7)))
        for i in range(a.n):
            for j in range(a.n):
                q = PathClassQuery(i=i, j=j, t=1)
                assert best_path_weight(a, q) == a.arr[i, j]


def test_length_zero_is_identity():
    a = TropicalMatrix.from_rows([[None, 2.0], [3.0, None]])
    assert best_path_weight(a, PathClassQuery(i=0, j=0, t=0)) == 0.0
    assert best_path_weight(a, PathClassQuery(i=0, j=1, t=0)) == NEG_INF


def test_example1_small_powers(ex1):
    # two steps 1 -> 0 -> 1 close the critical cycle at weight 0
    assert best_path_weight(ex1, PathClassQuery(i=1, j=1, t=2)) == 0.0
    tables = enumerate_small(ex1, 3)
    assert np.array_equal(table_at(tables, "all", 2), grid(EX1_A2))
    assert np.array_equal(table_at(tables, "all", 3), grid(EX1_A3))


def test_all_class_matches_matrix_powers():
    rng = np.random.default_rng(81)
    for _ in range(6):
        a = random_matrix(rng, int(rng.integers(2, 7)))
        tables = enumerate_small(a, 12)
        for t in range(13):
            assert np.array_equal(table_at(tables, "all", t),
                                  mat_power(a, t).arr)


def test_single_loop_scales_linearly():
    a = TropicalMatrix.from_rows([[-2.5]])
    for t in range(8):
        assert best_path_weight(a, PathClassQuery(i=0, j=0, t=t)) == -2.5 * t
    b = TropicalMatrix.from_rows([[None]])
    assert best_path_weight(b, PathClassQuery(i=0, j=0, t=0)) == 0.0
    assert best_path_weight(b, PathClassQuery(i=0, j=0, t=3)) == NEG_INF


# ----------------------------------------------------------- reachability

def test_boolean_identity_and_pattern():
    rng = np.random.default_rng(82)
    for _ in range(5):
        a = random_matrix(rng, int(rng.integers(2, 7)))
        assert np.array_equal(np.array(boolean_power_reach(a, 0)),
                              np.eye(a.n, dtype=bool))
        for t in (1, 2, 5, 9):
            want = mat_power(a, t).arr != NEG_INF
            assert np.array_equal(np.array(boolean_power_reach(a, t)), want)


def test_boolean_wielandt_extremal_case():
    # 4-cycle plus one chord: primitive, and full reachability first
    # appears at (n - 1)^2 + 1 = 10 steps, the worst case for n = 4
    rows = [[None] * 4 for _ in range(4)]
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (3, 1)):
        rows[u][v] = 0.0
    a = TropicalMatrix.from_rows(rows)
    full_at_9 = np.array(boolean_power_reach(a, 9)).all()
    full_at_10 = np.array(boolean_power_reach(a, 10)).all()
    assert not full_at_9 and full_at_10


def test_boolean_rejects_negative_power():
    a = TropicalMatrix.from_rows([[0.0]])
    with pytest.raises(ValueError, match="power must be nonnegative"):
        boolean_power_reach(a, -1)


# ------------------------------------------------------- class inclusions

def test_restricted_classes_never_exceed_all():
    rng = np.random.default_rng(83)
    for _ in range(5):
        a = random_matrix(rng, int(rng.integers(2, 5)))
        crit = {0}
        levels = [v % 2 for v in range(a.n)]
        lam_of = [float(v == 0) for v in range(a.n)]
        tables = enumerate_small(a, 10, crit_nodes=crit, levels=levels,
                                 lam_of=lam_of, hard=[(1.0, {0})])
        base = [table_at(tables, "all", t) for t in range(11)]
        for key in tables:
            if key == "all":
                continue
            for t in range(11):
                assert (table_at(tables, key, t) <= base[t]).all()


def test_level_classes_partition_all_paths():
    # with a total level assignment every path lands in exactly one
    # min-level class, so the classwise max rebuilds the full table
    rng = np.random.default_rng(84)
    for _ in range(5):
        a = random_matrix(rng, int(rng.integers(2, 6)))
        levels = [int(v % 3) for v in range(a.n)]
        tables = enumerate_small(a, 10, levels=levels)
        keys = [k for k in tables if k.startswith("mu-heavy/")]
        assert keys
        for t in range(11):
            union = np.maximum.reduce([table_at(tables, k, t) for k in keys])
            assert np.array_equal(union, table_at(tables, "all", t))


def test_hard_class_at_top_level_is_crit_heavy():
    # "max visited mean equals the global max" is the same event as
    # "visits an argmax node", so the two classifiers must agree
    rng = np.random.default_rng(85)
    for _ in range(5):
        a = random_matrix(rng, int(rng.integers(2, 6)))
        lam_of = [float(rng.integers(0, 3)) for _ in range(a.n)]
        top = max(lam_of)
        argmax = {v for v in range(a.n) if lam_of[v] == top}
        tables = enumerate_small(a, 10, crit_nodes=argmax, lam_of=lam_of,
                                 hard=[(top, argmax)])
        for t in range(11):
            assert np.array_equal(table_at(tables, "mu-hard/0", t),
                                  table_at(tables, "crit-heavy", t))


# ----------------------------------------------------------------- guards

def test_size_guards():
    a = TropicalMatrix.identity(9)
    with pytest.raises(OracleSizeError, match="too large for oracle"):
        enumerate_small(a, 5)
    b = TropicalMatrix.identity(2)
    with pytest.raises(OracleSizeError, match="too large for oracle"):
        enumerate_small(b, 61)
    assert "all" in enumerate_small(b, 60)


def test_exponents_are_nonnegative_integers():
    """The oracle's own checks type a fractional or negative exponent as
    a DomainError; a numpy integer passes."""
    a = TropicalMatrix.from_rows([[0.0, 1.0], [None, 0.0]])
    for call in (lambda t: boolean_power_reach(a, t),
                 lambda t: best_path_weight(a, PathClassQuery(0, 1, t)),
                 lambda t: enumerate_small(a, t)):
        with pytest.raises(DomainError, match="must be an integer"):
            call(2.5)
        with pytest.raises(DomainError, match="must be nonnegative"):
            call(-1)
        assert call(np.int64(2)) == call(2)


def test_query_parameter_guards():
    a = TropicalMatrix.from_rows([[0.0, 1.0], [None, 0.0]])
    with pytest.raises(ValueError, match="path length must be nonnegative"):
        best_path_weight(a, PathClassQuery(i=0, j=0, t=-1))
    with pytest.raises(ValueError, match="node out of range"):
        best_path_weight(a, PathClassQuery(i=0, j=2, t=1))
    with pytest.raises(ValueError, match="unknown path class"):
        best_path_weight(a, PathClassQuery(i=0, j=0, t=1, kind="heavy"))
    with pytest.raises(ValueError, match="crit-heavy requires crit_nodes"):
        best_path_weight(a, PathClassQuery(i=0, j=0, t=1, kind="crit-heavy"))
    with pytest.raises(ValueError, match="requires levels and mu"):
        best_path_weight(a, PathClassQuery(i=0, j=0, t=1, kind="mu-heavy"))
    with pytest.raises(ValueError, match="requires lam_of, lam_mu"):
        best_path_weight(a, PathClassQuery(i=0, j=0, t=1, kind="mu-hard"))
    with pytest.raises(ValueError, match="hard classes require lam_of"):
        enumerate_small(a, 3, hard=[(0.0, {0})])


def test_crit_heavy_hand_counted():
    # chain 0 -> 1 -> 2 with loops and a fat shortcut 0 -> 2; forcing a
    # visit to node 1 rules the shortcut out
    rows = [[5.0, 0.0, 10.0], [None, 1.0, 0.0], [None, None, 4.0]]
    a = TropicalMatrix.from_rows(rows)
    # unrestricted best of length 3 is loop-loop-shortcut
    assert best_path_weight(a, PathClassQuery(i=0, j=2, t=3)) == 20.0
    q_mid = PathClassQuery(i=0, j=2, t=3, kind="crit-heavy",
                           crit_nodes=frozenset({1}))
    # through node 1 the best is loop at 0 then two free hops
    assert best_path_weight(a, q_mid) == 5.0
    q_end = PathClassQuery(i=0, j=2, t=3, kind="crit-heavy",
                           crit_nodes=frozenset({2}))
    assert best_path_weight(a, q_end) == 20.0
    # min-level class with node 1 as the only leveled node agrees
    tables = enumerate_small(a, 3, levels=[None, 0, None])
    assert tables["mu-heavy/0"][3][0][2] == 5.0
