"""Scalar and matrix semiring arithmetic against brute-force references."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (DimensionError, NEG_INF, NonFiniteError, TropicalMatrix,
                     as_vector, mat_eq, mat_mul, mat_oplus, mat_power,
                     mat_scalar_mul, max_cycle_mean, soplus, sotimes, vec_eq)
import maxplus
from maxplus import core

from conftest import random_matrix, random_reducible
from goldens import EX1_A2, EX1_A10

scalars = st.one_of(st.just(NEG_INF), st.integers(-40, 40).map(float),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def naive_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Triple-loop reference product with explicit -inf handling."""
    n = a.n
    out = [[NEG_INF] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            best = NEG_INF
            for k in range(n):
                x, y = a.arr[i, k], b.arr[k, j]
                if x != NEG_INF and y != NEG_INF and x + y > best:
                    best = x + y
            out[i][j] = best
    return TropicalMatrix(out)


# --------------------------------------------------------------- scalars

def test_scalar_basics():
    assert soplus(3.0, -1.0) == 3.0
    assert soplus(NEG_INF, -5.0) == -5.0
    assert sotimes(2.0, 3.0) == 5.0
    assert sotimes(NEG_INF, 7.0) == NEG_INF
    assert sotimes(7.0, NEG_INF) == NEG_INF
    assert sotimes(NEG_INF, NEG_INF) == NEG_INF


@settings(max_examples=80, deadline=None)
@given(scalars, scalars, scalars)
def test_scalar_laws(x, y, z):
    assert soplus(x, y) == soplus(y, x)
    assert soplus(x, soplus(y, z)) == soplus(soplus(x, y), z)
    assert soplus(x, x) == x
    assert sotimes(x, y) == sotimes(y, x)
    lhs, rhs = sotimes(x, sotimes(y, z)), sotimes(sotimes(x, y), z)
    # float addition reassociates, so allow a rounding slack
    assert lhs == rhs or abs(lhs - rhs) <= 1e-6
    # distributivity: x (y (+) z) = xy (+) xz
    assert sotimes(x, soplus(y, z)) == soplus(sotimes(x, y), sotimes(x, z))
    # neutral elements
    assert soplus(x, NEG_INF) == x
    assert sotimes(x, 0.0) == x


# -------------------------------------------------------------- matrices

def test_constructor_guards():
    with pytest.raises(ValueError):
        TropicalMatrix([[0.0, float("inf")], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TropicalMatrix([[float("nan")]])
    with pytest.raises(DimensionError):
        TropicalMatrix([[0.0, 1.0]])
    with pytest.raises(DimensionError):
        TropicalMatrix(np.zeros((0, 0)))


def test_from_rows_and_to_lists_round_trip():
    rows = [[None, 2.0], [-1.5, None]]
    m = TropicalMatrix.from_rows(rows)
    assert m.arr[0, 0] == NEG_INF
    assert m.to_lists() == rows


def test_matrix_is_read_only():
    m = TropicalMatrix([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        m.arr[0, 0] = 5.0


def test_identity_is_neutral(ex1):
    ident = TropicalMatrix.identity(ex1.n)
    assert mat_mul(ident, ex1) == ex1
    assert mat_mul(ex1, ident) == ex1
    rng = np.random.default_rng(7)
    for n in (1, 3, 6):
        m = random_matrix(rng, n)
        assert mat_mul(TropicalMatrix.identity(n), m) == m
        assert mat_mul(m, TropicalMatrix.identity(n)) == m


def test_zero_matrix_annihilates_and_is_neutral_for_oplus():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 4)
    zero = TropicalMatrix.zeros(4)
    assert mat_mul(zero, m) == zero
    assert mat_mul(m, zero) == zero
    assert mat_oplus(m, zero) == m


def test_mul_matches_triple_loop():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert mat_mul(a, b) == naive_mul(a, b)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_mul(TropicalMatrix.identity(2), TropicalMatrix.identity(3))


def test_example_square(ex1):
    sq = mat_mul(ex1, ex1)
    assert sq.to_lists()[0] == [0, -1, -5, -4]
    assert sq == TropicalMatrix.from_rows(EX1_A2)


def test_power_zero_is_identity(ex1):
    assert mat_power(ex1, 0) == TropicalMatrix.identity(4)


def test_power_chain(ex1):
    acc = TropicalMatrix.identity(4)
    for _ in range(7):
        acc = mat_mul(acc, ex1)
    assert mat_power(ex1, 7) == acc


def test_power_example_tenth(ex1):
    assert mat_power(ex1, 10) == TropicalMatrix.from_rows(EX1_A10)


def test_power_group_law():
    rng = np.random.default_rng(10)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        a = random_matrix(rng, n)
        s, t = int(rng.integers(0, 17)), int(rng.integers(0, 17))
        assert mat_power(a, s + t) == mat_mul(mat_power(a, s), mat_power(a, t))


def test_power_negative_rejected(ex1):
    with pytest.raises(ValueError):
        mat_power(ex1, -1)


def power_reference(a: TropicalMatrix, t: int) -> np.ndarray:
    """The full square-and-multiply chain, with no fixed-point stop."""
    result = None
    base = a.arr
    while t:
        if t & 1:
            result = base.copy() if result is None else core._mp_matmul(result, base)
        t >>= 1
        if t:
            base = core._mp_matmul(base, base)
    return TropicalMatrix.identity(a.n).arr if result is None else result


def _power_corpus():
    """Random and reducible matrices with integer, /3, /7 and x1e6 weights,
    each also shifted to cycle mean 0, plus a matrix of signed zeros whose
    squares are equal to it under == but not bit for bit."""
    rng = np.random.default_rng(81)
    draws = [random_matrix(rng, n, density=d)
             for n, d in ((2, 0.9), (3, 0.7), (5, 0.5), (8, 0.6), (20, 0.4))]
    draws += [random_reducible(rng, n) for n in (4, 9, 16)]
    for a in draws:
        fin = a.finite_mask()
        for w in (a.arr, a.arr / 3, a.arr / 7, a.arr * 1e6):
            m = TropicalMatrix(np.where(fin, w, NEG_INF))
            yield m
            lam = max_cycle_mean(m)
            if lam != NEG_INF:
                yield m.scale(-lam)
    yield TropicalMatrix([[0.0, -0.0], [-0.0, 0.0]])


def test_power_matches_full_chain_bit_for_bit():
    for a in _power_corpus():
        ts = {0, 1, 2, 3, 3 * a.n * a.n, 2 ** 15, 12345}
        for k in (2, 4, 7, 10):
            ts |= {2 ** k - 1, 2 ** k, 2 ** k + 1}
        for t in sorted(ts):
            assert mat_power(a, t).arr.tobytes() == power_reference(a, t).tobytes(), (a, t)


def _count_products(monkeypatch, fn, a, t) -> int:
    calls = [0]
    product = core._mp_matmul

    def counting(x, y):
        calls[0] += 1
        return product(x, y)

    with monkeypatch.context() as m:
        m.setattr(core, "_mp_matmul", counting)
        fn(a, t)
    return calls[0]


def test_power_stops_squaring_at_fixed_point(monkeypatch):
    zero = TropicalMatrix(np.zeros((6, 6)))
    assert _count_products(monkeypatch, mat_power, zero, 2 ** 40) == 1
    assert _count_products(monkeypatch, power_reference, zero, 2 ** 40) == 40
    assert mat_power(zero, 2 ** 40) == zero
    # bit 0 is multiplied in before the chain is fixed: one square, then
    # one product for bit 40 and no further squares
    assert _count_products(monkeypatch, mat_power, zero, 2 ** 40 + 1) == 2


def test_power_without_fixed_point_runs_full_chain(monkeypatch):
    cycle3 = TropicalMatrix.from_rows([[None, 0, None], [None, None, 0],
                                       [0, None, None]])
    # cycle mean 0 on the 2-cycle, -1 on the loop: entry (2, 2) decays
    decaying = TropicalMatrix.from_rows([[None, 0, -3], [0, None, None],
                                         [None, None, -1]])
    for a in (cycle3, decaying):
        for t in (5, 2 ** 12, 2 ** 12 + 7, 12345):
            assert (_count_products(monkeypatch, mat_power, a, t)
                    == _count_products(monkeypatch, power_reference, a, t))


def test_overflow_raises_typed_error():
    for v in (1e308, -1e308):
        a = TropicalMatrix([[v, NEG_INF], [0.0, 0.0]])
        for fn in (lambda: mat_power(a, 2), lambda: mat_power(a, 12345),
                   lambda: mat_mul(a, a), lambda: mat_scalar_mul(v, a),
                   lambda: a.apply([v, 0.0])):
            with pytest.raises(NonFiniteError, match="overflows float64"):
                fn()
        assert mat_power(a, 1).arr.tobytes() == a.arr.tobytes()
    # n > 64 runs the rank-1 loop of the product
    big = np.full((70, 70), NEG_INF)
    big[3, 3] = -1e308
    with pytest.raises(NonFiniteError):
        mat_power(TropicalMatrix(big), 2)
    # sums that stay finite, and -inf absorbing, raise nothing
    near = TropicalMatrix([[1e307, NEG_INF], [NEG_INF, -1e307]])
    assert mat_power(near, 5).arr.tolist() == [[5e307, NEG_INF],
                                               [NEG_INF, -5e307]]


def test_power_stack_blocks_are_powers():
    rng = np.random.default_rng(85)
    for n in (1, 2, 5, 13):
        a = random_matrix(rng, n, density=0.6)
        b = a.finite_mask()
        for k in (1, 2, 3, 7, 8, 9, 28):
            calls = [0]

            def counting(x, y):
                calls[0] += 1
                return core._mp_rank1(x, y)

            stack = core._power_stack(a.arr, k, counting)
            assert stack.shape == (n, k * n)
            assert calls[0] == (k - 1).bit_length()     # ceil(log2 k)
            bools = core._power_stack(b, k, lambda x, y: (
                x.astype(int) @ y.astype(int)) > 0)
            assert bools.dtype == bool
            for s in range(k):
                block = stack[:, s * n:(s + 1) * n]
                # integer weights: every grouping gives the same bits
                assert block.tobytes() == mat_power(a, s + 1).arr.tobytes()
                assert np.array_equal(bools[:, s * n:(s + 1) * n],
                                      mat_power(a, s + 1).finite_mask())
    assert core._stack_depth(24, 10 ** 6) == 28
    assert core._stack_depth(24, 5) == 5
    assert core._stack_depth(200, 10 ** 6) == 1


def test_scalar_mul():
    m = TropicalMatrix.from_rows([[1.0, None], [0.0, -2.0]])
    shifted = mat_scalar_mul(3.0, m)
    assert shifted.to_lists() == [[4.0, None], [3.0, 1.0]]
    assert mat_scalar_mul(NEG_INF, m) == TropicalMatrix.zeros(2)
    assert m.scale(0.0) == m


def test_oplus_laws():
    rng = np.random.default_rng(11)
    a, b, c = (random_matrix(rng, 5) for _ in range(3))
    assert mat_oplus(a, a) == a
    assert mat_oplus(a, b) == mat_oplus(b, a)
    assert mat_oplus(a, mat_oplus(b, c)) == mat_oplus(mat_oplus(a, b), c)
    # multiplication distributes over (+)
    assert mat_mul(a, mat_oplus(b, c)) == mat_oplus(mat_mul(a, b),
                                                    mat_mul(a, c))


def test_eq_tolerance():
    a = TropicalMatrix([[0.0, 1.0], [2.0, NEG_INF]])
    bumped = np.array(a.arr)
    bumped[0, 1] += 2e-9
    b = TropicalMatrix(bumped)
    assert not mat_eq(a, b, tol=1e-9)
    assert mat_eq(a, b, tol=4e-9)
    nudged = np.array(a.arr)
    nudged[0, 0] += 5e-10
    assert mat_eq(a, TropicalMatrix(nudged), tol=1e-9)
    # -inf pattern must match regardless of tolerance
    pattern = np.array(a.arr)
    pattern[1, 1] = 0.0
    assert not mat_eq(a, TropicalMatrix(pattern), tol=1e6)


def test_agree_rule():
    agree = core._agree
    # -inf agrees only with -inf, at any tolerance
    assert agree(NEG_INF, NEG_INF, 0.0)
    assert not agree(NEG_INF, 0.0, 1e300) and not agree(-1e300, NEG_INF, 1e300)
    # -0.0 and 0.0 agree at tol 0
    assert agree(-0.0, 0.0, 0.0)
    # |x - y| = tol agrees, the next float past it does not
    x, tol = 1.5, 2.0 ** -20
    assert agree(x + tol, x, tol) and agree(x - tol, x, tol)
    assert not agree(np.nextafter(x + tol, np.inf), x, tol)
    assert not agree(np.nextafter(x - tol, -np.inf), x, tol)
    # a negative or NaN tolerance lets no finite pair agree
    assert not agree(1.0, 1.0, -1.0) and not agree(1.0, 1.0, float("nan"))
    # elementwise over broadcast operands: a row against a scalar and a
    # column against a row
    row = np.array([0.0, 1e-10, NEG_INF, 2e-9])
    assert agree(row, 0.0, 1e-9).tolist() == [True, True, False, False]
    assert agree(row, NEG_INF, 1e-9).tolist() == [False, False, True, False]
    got = agree(row[:, None], np.array([0.0, NEG_INF]), 1e-9)
    assert got.shape == (4, 2)
    assert got.tolist() == [[True, False], [True, False], [False, True],
                            [False, False]]


def test_public_tol_defaults_name_crit_tol():
    """A tolerance default is CRIT_TOL itself (the same object, so an
    equal literal 1e-9 fails) or the exact 0.0."""
    seen = 0
    for name in maxplus.__all__:
        obj = getattr(maxplus, name)
        if inspect.isclass(obj):
            funcs = [f for k, f in vars(obj).items()
                     if inspect.isfunction(f) and not k.startswith("_")]
        else:
            funcs = [obj] if inspect.isfunction(obj) else []
        for fn in funcs:
            param = inspect.signature(fn).parameters.get("tol")
            if param is not None and param.default is not param.empty:
                seen += 1
                default = param.default
                assert default is maxplus.CRIT_TOL or (
                    type(default) is float and default == 0.0), fn.__qualname__
    assert seen >= 11


def test_restrict():
    m = TropicalMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    r = m.restrict([0, 2])
    assert r.to_lists() == [[1.0, None, 3.0], [None, None, None],
                            [7.0, None, 9.0]]


# --------------------------------------------------------------- vectors

def test_apply_matches_naive(ex1):
    rng = np.random.default_rng(12)
    y = np.where(rng.random(4) < 0.7, rng.integers(-5, 5, 4).astype(float),
                 NEG_INF)
    got = ex1.apply(y)
    want = [max((ex1.arr[i, k] + y[k] for k in range(4)), default=NEG_INF)
            for i in range(4)]
    assert vec_eq(got, np.array(want))


def test_as_vector_guards():
    with pytest.raises(DimensionError):
        as_vector([[0.0]])
    with pytest.raises(DimensionError):
        as_vector([0.0, 1.0], n=3)
    with pytest.raises(ValueError):
        as_vector([float("inf")])


def test_vec_eq():
    assert vec_eq([0.0, NEG_INF], [0.0, NEG_INF])
    assert not vec_eq([0.0, NEG_INF], [0.0, 0.0])
    assert vec_eq([0.0], [1e-10], tol=1e-9)


def test_exact_sums_bound_adds_lambda():
    """|y|max + (steps + 1)(|w|max + |lam|) < 2**53, one step either side;
    lam and the entries must be integers."""
    a = TropicalMatrix([[3.0, NEG_INF], [-5.0, 1.0]])    # |w|max 5
    last = (2 ** 53 - 1) // 7 - 1
    for lam in (2.0, -2.0):
        assert core._exact_sums(a, last, lam)
        assert not core._exact_sums(a, last + 1, lam)
    assert core._exact_sums(a, (2 ** 53 - 1) // 5 - 1)
    assert not core._exact_sums(a, (2 ** 53 - 1) // 5)
    assert not core._exact_sums(a, 1, 0.5)
    assert not core._exact_sums(a, 1, NEG_INF)
    assert not core._exact_sums(TropicalMatrix([[0.5]]), 1)
    assert core._exact_sums(TropicalMatrix([[NEG_INF]]), 2 ** 60)


def test_exact_sums_scans_the_entries_once(monkeypatch):
    scans = []
    integral_max = core._integral_max

    def counted(values):
        scans.append(values.ndim)
        return integral_max(values)

    monkeypatch.setattr(core, "_integral_max", counted)
    a = TropicalMatrix([[3.0, NEG_INF], [-5.0, 1.0]])
    y = np.array([1.0, NEG_INF])
    for steps, lam in ((1, 0.0), (10, 2.0), (10 ** 9, -7.0), (5, 0.5)):
        core._exact_sums(a, steps, lam)
        core._exact_sums(a, steps, y=y)
    assert scans == [2] + [1] * 4
    assert a._memo[core._EXACT_MEMO] == (True, 5)
