"""Core max-plus (tropical) arithmetic.

Scalars live in R united with -inf.  Semiring addition is max, semiring
multiplication is ordinary +, so the zero element is -inf and the unit is 0.
Matrices hold float64 entries that are finite or -inf; +inf and NaN are
rejected at construction, and a sum that overflows float64 raises
NonFiniteError (mat_mul, mat_power, mat_scalar_mul, apply), which keeps
every downstream max/+ combination NaN-free.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DimensionError, DomainError, NonFiniteError

NEG_INF = float("-inf")
ZERO = NEG_INF      # semiring zero
UNITY = 0.0         # semiring unit

# Tolerance for deciding criticality of an edge after normalizing by a
# possibly fractional cycle mean, and the default of every equality and
# order decided at a tolerance (_agree, _exceeds).  Integer inputs keep
# residues below 1e-12 at desk scale, while distinct rational cycle means
# differ by at least 1/n^2, so 1e-9 separates cleanly.
CRIT_TOL = 1e-9

# Broadcasted products allocate an n^3 temporary; above this size fall back
# to a k-loop of rank-1 updates.
_BROADCAST_LIMIT = 64


def _overflow_checked(fn):
    """fn run with float overflow (a finite sum leaving float64, to +inf or
    to -inf) raised as NonFiniteError, instead of leaving +inf, NaN or a
    spurious -inf in its result."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError:
            raise NonFiniteError("non-finite value: a sum of weights "
                                 "overflows float64") from None
    return checked


class TropicalMatrix:
    """Square matrix over the max-plus semiring.

    The constructor validates and copies entries (another TropicalMatrix's
    read-only array is shared).  That array is read-only, and so is arr;
    operations return new matrices, so instances can be shared and cached.
    The private _memo dict holds per-instance analysis results (critical
    structure, deflation steps, CSR terms, strong access, support
    violations) that `graphs`, `expansions` and `orbit` compute at most
    once per matrix; it is sound because arr never changes.
    """

    def __init__(self, entries):
        self._memo = {}
        if isinstance(entries, TropicalMatrix):
            self._arr = entries.arr
            return
        arr = _entries(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("dimension: matrix must be square, got shape %s" % (arr.shape,))
        if arr.shape[0] == 0:
            raise DimensionError("dimension: empty matrix")
        arr.setflags(write=False)
        self._arr = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "TropicalMatrix":
        """A fresh valid array of the library's own, wrapped unchecked."""
        m = cls.__new__(cls)
        m._memo, m._arr = {}, arr
        arr.setflags(write=False)
        return m

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    @classmethod
    def identity(cls, n: int) -> "TropicalMatrix":
        arr = np.full(_shape("size", n, n), NEG_INF)
        np.fill_diagonal(arr, UNITY)
        return cls(arr)

    @classmethod
    def zeros(cls, n: int) -> "TropicalMatrix":
        """All -inf matrix (the semiring zero matrix)."""
        return cls(np.full(_shape("size", n, n), NEG_INF))

    @classmethod
    def from_rows(cls, rows) -> "TropicalMatrix":
        """Build from nested lists; None stands for -inf."""
        return cls([[NEG_INF if v is None else v for v in row]
                    for row in rows])

    @property
    def n(self) -> int:
        return self._arr.shape[0]

    def _cached(self, key, compute):
        """compute() for key, evaluated at most once per instance."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def finite_mask(self) -> np.ndarray:
        return self.arr != NEG_INF

    def scale(self, lam: float) -> "TropicalMatrix":
        return mat_scalar_mul(lam, self)

    @_overflow_checked
    def apply(self, y) -> np.ndarray:
        """Matrix-vector product A (x) y."""
        y = as_vector(y, self.n)
        return (self.arr + y[None, :]).max(axis=1)

    def restrict(self, nodes) -> "TropicalMatrix":
        """Keep entries with both indices in `nodes`, -inf elsewhere."""
        mask = np.zeros(self.n, dtype=bool)
        mask[_check_nodes(self, nodes)] = True
        return TropicalMatrix._wrap(
            np.where(mask[:, None] & mask[None, :], self.arr, NEG_INF))

    def eq(self, other: "TropicalMatrix", tol: float = 0.0) -> bool:
        return mat_eq(self, other, tol)

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return self.eq(other)

    __hash__ = None

    def to_lists(self):
        """Nested lists with None for -inf (JSON-friendly)."""
        return [[None if v == NEG_INF else float(v) for v in row] for row in self.arr]

    def __repr__(self):
        rows = []
        for row in self.arr:
            rows.append(" ".join("-inf" if v == NEG_INF else "%g" % v for v in row))
        return "TropicalMatrix(%d)[%s]" % (self.n, "; ".join(rows))


def _check_same_n(a: TropicalMatrix, b: TropicalMatrix):
    if a.n != b.n:
        raise DimensionError("dimension: %d vs %d" % (a.n, b.n))


# The argument gates below own every argument check of the package.
def _index(v, what: str) -> int:
    """v through operator.index: DomainError when it is no integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError("%s must be an integer, got %r" % (what, v)) from None


def _count(t, what: str) -> int:
    """t as an int >= 0 (an exponent, t_max or size), else DomainError."""
    t = _index(t, what)
    if t < 0:
        raise DomainError("negative %s" % what)
    return t


def _shape(what: str, *dims) -> tuple:
    """dims as counts (_count) that shape a float64 array, else DomainError:
    numpy refuses more than np.intp's range of bytes with a ValueError."""
    dims = tuple(_count(d, what) for d in dims)
    if 8 * np.prod(dims, dtype=object) > np.iinfo(np.intp).max:
        raise DomainError("%s too large for an array" % what)
    return dims


def _tolerance(value) -> float:
    """value as a float, when it reads as one that is >= 0 and finite (the
    tol of a public equality), else DomainError."""
    try:
        if 0 <= float(value) < np.inf:
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError("tol must be a finite number >= 0, got %r" % (value,))


def _check_node(a: TropicalMatrix, v) -> int:
    """v as a node of a: DomainError when it is no integer,
    DimensionError when it lies outside 0..n-1."""
    v = _index(v, "node")
    if not 0 <= v < a.n:
        raise DimensionError("dimension: node %d outside 0..%d" % (v, a.n - 1))
    return v


def _check_nodes(a: TropicalMatrix, nodes) -> np.ndarray:
    """_check_node over nodes, vectorized: their index array."""
    idx = np.array(list(nodes))
    if idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= a.n:
        return np.array([_check_node(a, v) for v in idx.tolist()], dtype=int)
    return idx


def _entries(values, what: str = "entries") -> np.ndarray:
    """values as a new float64 array of max-plus scalars: DomainError for
    NaN, +inf, or values numpy cannot read as floats (ragged, text, an
    integer past float64)."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("%s must be finite or -inf: %s" % (what, exc)) from None
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise DomainError("%s must be finite or -inf" % what)
    return arr


def _mp_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_ij = max_k (x_ik + y_kj) on arrays of shapes (m, k) and (k, p)."""
    if x.shape[0] <= _BROADCAST_LIMIT:
        return (x[:, :, None] + y[None, :, :]).max(axis=1)
    return _mp_rank1(x, y)


def _mp_rank1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """_mp_matmul as a k-loop of rank-1 updates: every temporary has the
    shape of the result."""
    out = np.full((x.shape[0], y.shape[1]), NEG_INF)
    for k in range(x.shape[1]):
        np.maximum(out, x[:, k, None] + y[k, None, :], out=out)
    return out


@_overflow_checked
def mat_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """c_ij = max_k (a_ik + b_kj); NonFiniteError when a sum overflows."""
    _check_same_n(a, b)
    return TropicalMatrix._wrap(_mp_matmul(a.arr, b.arr))


def _power_chain(base: np.ndarray, t: int, product):
    """base^t under `product` by square-and-multiply, with the fixed-point
    stop of mat_power; None when t is 0."""
    result = None
    fixed = False
    while t:
        if t & 1:
            result = base.copy() if result is None else product(result, base)
        t >>= 1
        if t and not fixed:
            square = product(base, base)
            fixed = square.tobytes() == base.tobytes()
            if fixed and result is None:
                return square
            base = square
    return result


_EXACT_MEMO = "exact"    # _memo key of _exactness


def _integral_max(values: np.ndarray) -> tuple:
    """(finite values all integers, int of their largest |value| or 0)."""
    fin = values[values != NEG_INF]
    return np.array_equal(fin, np.rint(fin)), int(np.abs(fin).max(initial=0))


def _exactness(a: TropicalMatrix) -> tuple:
    """_integral_max of a's entries: their one scan, cached per matrix."""
    return a._cached(_EXACT_MEMO, lambda: _integral_max(a.arr))


def _exact_sums(a: TropicalMatrix, steps: int, y=None) -> bool:
    """True when every sum of a power a^t, t <= steps (with y: of an
    orbit of y under a up to steps), is exact in float64: a's finite
    entries (_exactness) and y's are integers, y holds no -0.0, and
    |y|max + (steps + 1) |a|max < 2**53.  Max-plus products of such input
    give the same bits in any grouping, and no -0.0 ever appears in the
    samples."""
    integral, amax = _exactness(a)
    y_integral, ymax = (True, 0) if y is None else _integral_max(y)
    return (integral and y_integral
            and (y is None or not np.signbit(y[y == 0]).any())
            and ymax + (steps + 1) * amax < 2 ** 53)


@_overflow_checked
def mat_power(a: TropicalMatrix, t: int) -> TropicalMatrix:
    """t-th max-plus power by repeated squaring; a^0 is the identity.

    Squaring stops once a square X (x) X equals its input X bit for bit
    (compared as bytes, so -0.0 and 0.0 differ).  The product is a
    deterministic function of its operands' bytes, so every later square
    would be X again: the remaining bits of t multiply by X, and if no
    bit has been multiplied in yet the power is X itself.  The result is
    byte-identical to the full chain's on every input.  A normalized
    level with cyclicity 1 and integer weights reaches such an X after its
    transient.  A sum that overflows float64 raises NonFiniteError, and a
    negative or non-integer t DomainError (_count).
    """
    result = _power_chain(a.arr, _count(t, "power"), _mp_matmul)
    if result is None:
        return TropicalMatrix.identity(a.n)
    return TropicalMatrix._wrap(result)


@_overflow_checked
def mat_scalar_mul(lam: float, a: TropicalMatrix) -> TropicalMatrix:
    """Add lam (finite or -inf) to every finite entry; -inf entries stay.
    DomainError when lam is no single max-plus scalar."""
    lam = _entries(lam, "scalar")
    if lam.ndim:
        raise DomainError("scalar must be a single value, got shape %s"
                          % (lam.shape,))
    return TropicalMatrix._wrap(a.arr + lam)


def mat_oplus(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Entrywise max."""
    _check_same_n(a, b)
    return TropicalMatrix._wrap(np.maximum(a.arr, b.arr))


def _agree(x, y, tol: float) -> np.ndarray:
    """Tolerance equality of max-plus values, elementwise over broadcast
    operands: true where both are -inf, or both are finite and
    |x - y| <= tol.  At tol 0 that is exact equality, -0.0 and 0.0 equal.
    Every equality the library decides at a tolerance goes through here."""
    with np.errstate(invalid="ignore"):     # -inf - -inf
        dev = np.asarray(np.subtract(x, y))
    # abs in place: a second float temporary doubles a _detect block's time
    np.abs(dev, out=dev)
    return (dev <= tol) | ((x == NEG_INF) & (y == NEG_INF))


def _exceeds(x, y, tol: float) -> np.ndarray:
    """x exceeds y by more than tol, elementwise: x - y > tol, false
    where both are -inf.  The exact complement of _agree: |x - y| > tol
    holds iff one side exceeds the other.  Every order the library
    decides at a tolerance goes through here."""
    with np.errstate(invalid="ignore"):     # -inf - -inf is NaN: false
        return np.subtract(x, y) > tol


def _arr_eq(x: np.ndarray, y: np.ndarray, tol: float = 0.0) -> bool:
    """Equality of same-shape arrays: every entry pair agrees (_agree)."""
    return bool(_agree(x, y, tol).all())


def mat_eq(a: TropicalMatrix, b: TropicalMatrix, tol: float = 0.0) -> bool:
    """Equality: -inf patterns must coincide, finite entries within tol
    (a finite number >= 0, else DomainError)."""
    _check_same_n(a, b)
    return _arr_eq(a.arr, b.arr, _tolerance(tol))


def as_vector(values, n: int | None = None) -> np.ndarray:
    """Validate a max-plus vector: 1-D, entries finite or -inf."""
    y = _entries(values)
    if y.ndim != 1:
        raise DimensionError("dimension: vector expected, got shape %s" % (y.shape,))
    if n is not None and y.shape[0] != n:
        raise DimensionError("dimension: vector length %d vs %d" % (y.shape[0], n))
    return y


def vec_eq(x, y, tol: float = 0.0) -> bool:
    x = as_vector(x)
    y = as_vector(y, x.shape[0])
    return _arr_eq(x, y, _tolerance(tol))
