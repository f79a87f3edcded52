"""Matrix semiring arithmetic against brute-force references."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from maxplus import (DimensionError, DomainError, NEG_INF, NonFiniteError,
                     TropicalMatrix, as_vector, is_orbit_periodic, mat_eq,
                     mat_mul, mat_oplus, mat_power, mat_scalar_mul,
                     max_cycle_mean, vec_eq)
import maxplus
from maxplus import core

from conftest import random_matrix, random_reducible
from goldens import EX1_A2, EX1_A10


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


def test_constructor_always_validates_and_copies():
    """Arrays are checked and copied as lists are, with no parameter to
    skip it: NaN and +inf are refused, a 1 x 3 array is not a matrix, and
    an int array becomes float64 that the caller's array cannot change.
    identity(0) and a NaN or +inf scalar are refused too."""
    for bad in (np.array([[np.nan]]), np.array([[0.0, np.inf], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            TropicalMatrix(bad)
    with pytest.raises(DimensionError):
        TropicalMatrix(np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        TropicalMatrix.identity(0)
    src = np.array([[1, 2], [3, 4]])
    m = TropicalMatrix(src)
    src[0, 0] = 9
    assert m.arr.dtype == np.float64 and m.arr[0, 0] == 1.0
    assert TropicalMatrix(m).arr is m.arr
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError):
            mat_scalar_mul(lam, m)


def test_matrix_never_equals_a_non_matrix():
    m = TropicalMatrix([[3.0]])
    assert (m == 3) is False and (m != 3) is True
    assert m == TropicalMatrix([[3.0]])


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


def test_exceeds_rule():
    exceeds = core._exceeds
    # -inf exceeds nothing, and every finite value exceeds -inf
    assert not exceeds(NEG_INF, NEG_INF, 0.0)
    assert not exceeds(NEG_INF, -1e300, 0.0) and exceeds(-1e300, NEG_INF, 1e300)
    # x - y = tol does not exceed, the next float past it does
    x, tol = 1.5, 2.0 ** -20
    assert not exceeds(x + tol, x, tol)
    assert exceeds(np.nextafter(x + tol, np.inf), x, tol)
    # tol 0 is strict order, and 0.0 does not exceed -0.0
    assert exceeds(np.nextafter(0.0, 1.0), 0.0, 0.0)
    assert not exceeds(0.0, -0.0, 0.0)
    # the complement of _agree: |x - y| > tol iff one side exceeds the
    # other, elementwise over broadcast operands
    vals = np.array([NEG_INF, -1.0, -1e-9, -0.0, 0.0, 5e-10, 1e-9, 2e-9, 1.0])
    x, y = vals[:, None], vals[None, :]
    for tol in (0.0, 1e-9, 1.0):
        assert np.array_equal(~core._agree(x, y, tol),
                              exceeds(x, y, tol) | exceeds(y, x, tol))


# (module, function) of the comparisons that may name a tolerance: the
# two rules
TOL_COMPARES = {("core", "_agree"), ("core", "_exceeds")}


def test_tolerance_decisions_go_through_the_two_helpers():
    """No comparison in the package names tol or CRIT_TOL outside
    TOL_COMPARES: every equality at a tolerance is core._agree and every
    order core._exceeds."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare) and (module, where) not in TOL_COMPARES:
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node)}
            if names & {"tol", "CRIT_TOL"}:
                found.append("%s.py:%d %s: %s" % (module, node.lineno, where,
                                                  ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == []


def test_only_comparisons_take_a_tol():
    """Every route decides at CRIT_TOL: among the public callables only
    the comparison utilities take a tol, with the exact default 0.0, and
    ultimate_threshold reads its own memoized terms (no expansion
    parameter)."""
    takers = set()
    for name in maxplus.__all__:
        obj = getattr(maxplus, name)
        if inspect.isclass(obj):
            funcs = [f for k, f in vars(obj).items()
                     if inspect.isfunction(f) and not k.startswith("_")]
        else:
            funcs = [obj] if inspect.isfunction(obj) else []
        for fn in funcs:
            param = inspect.signature(fn).parameters.get("tol")
            if param is not None:
                takers.add(fn.__qualname__)
                default = param.default
                assert type(default) is float and default == 0.0, \
                    fn.__qualname__
    assert takers == {"mat_eq", "vec_eq", "TropicalMatrix.eq"}
    assert list(inspect.signature(maxplus.ultimate_threshold).parameters) \
        == ["a", "t_max"]


# memo key constant -> the one module that may name it
MEMO_OWNERS = {"_COMPONENT_MEMO": "graphs", "_EXACT_MEMO": "core",
               "_THRESHOLD_MEMO": "expansions"}


def test_one_way_in():
    """Each memo key constant is named by its owner module only, the
    constructor takes entries alone, and is_orbit_periodic has exactly two
    methods."""
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", getattr(
                node, "name", None)))
            if MEMO_OWNERS.get(name, path.stem) != path.stem:
                found.append("%s.py:%d %s" % (path.stem, node.lineno, name))
    assert found == []
    assert str(inspect.signature(TropicalMatrix)) == "(entries)"
    a = TropicalMatrix([[0.0, 1.0], [NEG_INF, 0.0]])
    for method in ("support", "strong-access"):
        assert is_orbit_periodic(a, method=method).method == method
    with pytest.raises(ValueError):
        is_orbit_periodic(a, method="both")



def test_one_term_builder():
    """csr_build is named only in expansions._term, which every term of
    the library comes from, and in cli._cmd_csr."""
    found = set()

    def visit(node, stem, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if "csr_build" in (getattr(node, "id", None),
                           getattr(node, "attr", None)):
            found.add("%s.%s" % (stem, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, stem, owner)

    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == {"expansions._term", "cli._cmd_csr"}


def test_class_factors_come_from_csr_build_only():
    """_class_factors is named in the package source only by its own
    definition and by csr.csr_build: every class factor the library reads
    is a CSR term's, so no route forms them from a power of its own."""
    found = set()

    def visit(node, stem, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if "_class_factors" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None)):
            found.add("%s.%s" % (stem, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, stem, owner)

    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == {"csr._class_factors", "csr.csr_build"}


def test_restrict():
    m = TropicalMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    r = m.restrict([0, 2])
    assert r.to_lists() == [[1.0, None, 3.0], [None, None, None],
                            [7.0, None, 9.0]]
    assert r._memo == {}


def test_restrict_checks_its_nodes():
    """Nodes go through core._check_node: out of range is a
    DimensionError (no negative index wraps round), a non-integer a
    DomainError; no nodes at all keep nothing."""
    m = TropicalMatrix([[1.0, 2.0], [3.0, 4.0]])
    for nodes in ([5], [-1], [0, 2]):
        with pytest.raises(DimensionError, match="outside 0..1"):
            m.restrict(nodes)
    with pytest.raises(DomainError, match="node must be an integer"):
        m.restrict([0.5])
    assert m.restrict([]).to_lists() == [[None, None], [None, None]]
    assert m.restrict(np.array([1])).to_lists() == [[None, None], [None, 4.0]]


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


def test_exact_sums_bound():
    """|y|max + (steps + 1) |w|max < 2**53, one step either side; the
    entries must be integers."""
    a = TropicalMatrix([[3.0, NEG_INF], [-5.0, 1.0]])    # |w|max 5
    assert core._exact_sums(a, (2 ** 53 - 1) // 5 - 1)
    assert not core._exact_sums(a, (2 ** 53 - 1) // 5)
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
    for steps in (1, 10, 10 ** 9, 5):
        core._exact_sums(a, steps)
        core._exact_sums(a, steps, y=y)
    assert scans == [2] + [1] * 4
    assert a._memo[core._EXACT_MEMO] == (True, 5)


# ---------------------------------------------------------- argument gates

_NAN, _INF = float("nan"), float("inf")
_HUGE = 10 ** 400       # an integer past float64
_A = TropicalMatrix([[0.0, 1.0], [-1.0, 0.0]])
_NOT_PERIODIC = TropicalMatrix([[1.0, 0.0], [NEG_INF, 0.0]])
_ACYCLIC = TropicalMatrix([[NEG_INF, 1.0], [NEG_INF, NEG_INF]])


def _triple():
    return maxplus.csr_build(_A, maxplus.CritSubgraph.from_critical_structure(
        maxplus.critical_structure(_A)))


# Calls outside the domain, each with the MaxplusError it raises: values
# numpy or Python would otherwise reject with their own errors (ragged
# rows, 2.5 as an exponent or node, an integer past float64, a size numpy
# cannot shape), nodes a
# numpy index would wrap, and vectors numpy would broadcast as a scalar.
OUT_OF_DOMAIN = {
    "matrix NaN": (DomainError, lambda: TropicalMatrix([[_NAN]])),
    "matrix +inf": (DomainError,
                    lambda: TropicalMatrix([[0.0, _INF], [0.0, 0.0]])),
    "matrix ragged": (DomainError, lambda: TropicalMatrix([[1, 2], [3]])),
    "matrix text": (DomainError, lambda: TropicalMatrix([["x"]])),
    "identity -1": (DomainError, lambda: TropicalMatrix.identity(-1)),
    "zeros -1": (DomainError, lambda: TropicalMatrix.zeros(-1)),
    "vector NaN": (DomainError, lambda: as_vector([0.0, _NAN])),
    "vector ragged": (DomainError, lambda: as_vector([[1.0], [2.0, 3.0]])),
    "scalar NaN": (DomainError, lambda: mat_scalar_mul(_NAN, _A)),
    "scalar +inf": (DomainError, lambda: mat_scalar_mul(_INF, _A)),
    "power -1": (DomainError, lambda: mat_power(_A, -1)),
    "power 2.5": (DomainError, lambda: mat_power(_A, 2.5)),
    "restrict [5]": (DimensionError, lambda: _A.restrict([5])),
    "restrict [-1]": (DimensionError, lambda: _A.restrict([-1])),
    "restrict [0.5]": (DomainError, lambda: _A.restrict([0.5])),
    "csr_build node 7": (DimensionError, lambda: maxplus.csr_build(
        _A, maxplus.CritSubgraph.from_cycle([0, 7]))),
    "csr_build empty": (DomainError, lambda: maxplus.csr_build(
        _A, maxplus.CritSubgraph.from_cycle([]))),
    "csr_product -1": (DomainError, lambda: maxplus.csr_product(_triple(), -1)),
    "csr_product 2.5": (DomainError,
                        lambda: maxplus.csr_product(_triple(), 2.5)),
    "csr_product_literal -1": (
        DomainError, lambda: maxplus.csr_product_literal(_triple(), -1)),
    "evaluate -1": (DomainError, lambda: maxplus.evaluate(
        maxplus.nachtigall_expand(_A), -1)),
    "evaluate 2.5": (DomainError, lambda: maxplus.evaluate(
        maxplus.nachtigall_expand(_A), 2.5)),
    "fast_terms -1": (DomainError, lambda: maxplus.fast_terms(_A, -1)),
    "fast_terms 12.5": (DomainError, lambda: maxplus.fast_terms(_A, 12.5)),
    "fast_terms variant": (DomainError, lambda: maxplus.fast_terms(
        _A, 12, variant="both")),
    "nachtigall rule": (DomainError, lambda: maxplus.nachtigall_expand(
        _A, rule="shortest")),
    "nachtigall rule acyclic": (DomainError, lambda: maxplus.nachtigall_expand(
        _ACYCLIC, rule="bogus")),
    "fast_terms rule acyclic": (DomainError, lambda: maxplus.fast_terms(
        _ACYCLIC, 12, rule="bogus")),
    "fast_terms ultimate rule": (DomainError, lambda: maxplus.fast_terms(
        _A, 12, variant="ultimate", rule="bogus")),
    "fast_terms ultimate cycle": (DomainError, lambda: maxplus.fast_terms(
        _A, 12, variant="ultimate", rule="cycle")),
    "mat_eq tol -1": (DomainError, lambda: maxplus.mat_eq(_A, _A, tol=-1)),
    "mat_eq tol NaN": (DomainError, lambda: maxplus.mat_eq(_A, _A, tol=_NAN)),
    "mat_eq tol +inf": (DomainError,
                        lambda: maxplus.mat_eq(_A, _A, tol=_INF)),
    "vec_eq tol NaN": (DomainError, lambda: maxplus.vec_eq(
        [0.0], [0.0], tol=_NAN)),
    "vec_eq tol text": (DomainError, lambda: maxplus.vec_eq(
        [0.0], [0.0], tol="x")),
    "eq tol None": (DomainError, lambda: _A.eq(_A, tol=None)),
    "eq tol text": (DomainError, lambda: _A.eq(_A, tol="x")),
    "threshold t_max -1": (DomainError,
                           lambda: maxplus.ultimate_threshold(_A, t_max=-1)),
    "threshold t_max 2.5": (DomainError,
                            lambda: maxplus.ultimate_threshold(_A, t_max=2.5)),
    "orbit t_max -1": (DomainError, lambda: maxplus.simulate_orbit(
        _A, [0.0, 0.0], t_max=-1)),
    "orbit t_max 2.5": (DomainError, lambda: maxplus.simulate_orbit(
        _A, [0.0, 0.0], t_max=2.5)),
    "orbit-check method": (DomainError,
                           lambda: is_orbit_periodic(_A, method="both")),
    "column node 0.5": (DomainError,
                        lambda: maxplus.column_periodicity(_A, 0.5)),
    "strong_access node 0.5": (DomainError,
                               lambda: maxplus.strong_access(_A, 0.5, 1)),
    "pair not periodic": (DomainError, lambda: maxplus.pair_periodicity(
        _NOT_PERIODIC, 0, 1)),
    "oracle power -1": (DomainError,
                        lambda: maxplus.boolean_power_reach(_A, -1)),
    "oracle path -1": (DomainError, lambda: maxplus.best_path_weight(
        _A, maxplus.PathClassQuery(0, 1, -1))),
    "oracle power 2.5": (DomainError,
                         lambda: maxplus.boolean_power_reach(_A, 2.5)),
    "oracle path 2.5": (DomainError, lambda: maxplus.best_path_weight(
        _A, maxplus.PathClassQuery(0, 1, 2.5))),
    "oracle tables 2.5": (DomainError,
                          lambda: maxplus.enumerate_small(_A, 2.5)),
    "oracle tables -1": (DomainError, lambda: maxplus.enumerate_small(_A, -1)),
    "matrix 10**400": (DomainError, lambda: TropicalMatrix([[_HUGE]])),
    "vector 10**400": (DomainError, lambda: as_vector([_HUGE, 0])),
    "scalar 10**400": (DomainError, lambda: mat_scalar_mul(_HUGE, _A)),
    "from_rows 10**400": (DomainError,
                          lambda: TropicalMatrix.from_rows([[_HUGE]])),
    "mat_eq tol 10**400": (DomainError,
                           lambda: maxplus.mat_eq(_A, _A, _HUGE)),
    "identity 10**20": (DomainError,
                        lambda: TropicalMatrix.identity(10 ** 20)),
    "zeros 10**400": (DomainError, lambda: TropicalMatrix.zeros(_HUGE)),
    "orbit t_max 10**20": (DomainError, lambda: maxplus.simulate_orbit(
        _A, [0.0, 0.0], t_max=10 ** 20)),
    "orbit t_max 10**400": (DomainError, lambda: maxplus.simulate_orbit(
        _A, [0.0, 0.0], t_max=_HUGE)),
    "evaluate 10**400": (NonFiniteError, lambda: maxplus.evaluate(
        maxplus.nachtigall_expand(_A), _HUGE)),
    "scalar vector": (DomainError, lambda: mat_scalar_mul([1, 2], _A)),
    "scalar length 3": (DomainError, lambda: mat_scalar_mul([1, 2, 3], _A)),
    "scale vector": (DomainError, lambda: _A.scale(np.array([5.0, 7.0]))),
    "from_rows text": (DomainError,
                       lambda: TropicalMatrix.from_rows([["x", 1], [2, 3]])),
    "wielandt 2.5": (DomainError, lambda: maxplus.wielandt(2.5)),
    "wielandt -3": (DomainError, lambda: maxplus.wielandt(-3)),
    "wielandt text": (DomainError, lambda: maxplus.wielandt("x")),
}


@pytest.mark.parametrize("name", list(OUT_OF_DOMAIN))
def test_out_of_domain_calls_raise_a_maxplus_error(name):
    """Every out-of-domain call raises its typed error; a rejected value
    is a DomainError, which callers catching ValueError still see."""
    kind, call = OUT_OF_DOMAIN[name]
    with pytest.raises(maxplus.MaxplusError) as info:
        call()
    assert type(info.value) is kind
    if kind is DomainError:
        assert isinstance(info.value, ValueError)


def test_domain_error_is_a_value_error():
    assert issubclass(DomainError, maxplus.MaxplusError)
    assert issubclass(DomainError, ValueError)
    assert str(DomainError("negative power")) == "negative power"
    assert DomainError("negative power").describe(1) == "negative power"


def test_no_plain_value_error_is_raised():
    """The package raises no bare ValueError: a rejected argument is a
    DomainError from a gate of core or with the same message."""
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if getattr(exc, "id", None) == "ValueError":
                    found.append("%s.py:%d" % (path.stem, node.lineno))
    assert found == []
