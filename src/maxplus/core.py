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

import numpy as np

from .errors import DimensionError, NonFiniteError

NEG_INF = float("-inf")
ZERO = NEG_INF      # semiring zero
UNITY = 0.0         # semiring unit

# Tolerance for deciding criticality of an edge after normalizing by a
# possibly fractional cycle mean, and the default of every equality decided
# at a tolerance (_agree).  Integer inputs keep residues below 1e-12 at desk
# scale, while distinct rational cycle means differ by at least 1/n^2, so
# 1e-9 separates cleanly.
CRIT_TOL = 1e-9

# Broadcasted products allocate an n^3 temporary; above this size fall back
# to a k-loop of rank-1 updates.
_BROADCAST_LIMIT = 64

# Floats in one power stack (n x k*n, see _power_stack): bounds the powers
# per block of the orbit stepping and of the strong-access window.
_STACK_FLOATS = 2 ** 14


def soplus(x: float, y: float) -> float:
    """Scalar semiring addition: max(x, y)."""
    return x if x >= y else y


def sotimes(x: float, y: float) -> float:
    """Scalar semiring multiplication: x + y, with -inf absorbing."""
    if x == NEG_INF or y == NEG_INF:
        return NEG_INF
    return x + y


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


def _as_entries(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError("dimension: matrix must be square, got shape %s" % (arr.shape,))
    if arr.shape[0] == 0:
        raise DimensionError("dimension: empty matrix")
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise ValueError("entries must be finite or -inf")
    return arr


class TropicalMatrix:
    """Square matrix over the max-plus semiring.

    The wrapped array is marked read-only; all operations return new
    matrices, so instances can be shared and cached safely.  The private
    _memo dict holds per-instance analysis results (critical structure,
    deflation steps, strong access, the power stack of simulate_orbit's
    blocks) that `graphs`, `expansions` and `orbit` compute at most once
    per matrix; it is sound because arr never changes.
    """

    def __init__(self, entries, copy: bool = True):
        self._memo = {}
        if isinstance(entries, TropicalMatrix):
            self.arr = entries.arr
            return
        if isinstance(entries, np.ndarray) and not copy:
            # internal fast path: caller hands over a fresh float array
            arr = entries
        else:
            arr = _as_entries(entries)
        arr.setflags(write=False)
        self.arr = arr

    @classmethod
    def identity(cls, n: int) -> "TropicalMatrix":
        arr = np.full((n, n), NEG_INF)
        np.fill_diagonal(arr, UNITY)
        return cls(arr, copy=False)

    @classmethod
    def zeros(cls, n: int) -> "TropicalMatrix":
        """All -inf matrix (the semiring zero matrix)."""
        return cls(np.full((n, n), NEG_INF), copy=False)

    @classmethod
    def from_rows(cls, rows) -> "TropicalMatrix":
        """Build from nested lists; None stands for -inf."""
        conv = [[NEG_INF if v is None else float(v) for v in row] for row in rows]
        return cls(conv)

    @property
    def n(self) -> int:
        return self.arr.shape[0]

    def _cached(self, key, compute):
        """compute() for key, evaluated at most once per instance."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def finite_mask(self) -> np.ndarray:
        return self.arr != NEG_INF

    def __matmul__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        return mat_mul(self, other)

    def oplus(self, other: "TropicalMatrix") -> "TropicalMatrix":
        return mat_oplus(self, other)

    def scale(self, lam: float) -> "TropicalMatrix":
        return mat_scalar_mul(lam, self)

    def power(self, t: int) -> "TropicalMatrix":
        return mat_power(self, t)

    @_overflow_checked
    def apply(self, y) -> np.ndarray:
        """Matrix-vector product A (x) y."""
        y = as_vector(y, self.n)
        return (self.arr + y[None, :]).max(axis=1)

    def restrict(self, nodes) -> "TropicalMatrix":
        """Keep entries with both indices in `nodes`, -inf elsewhere."""
        mask = np.zeros(self.n, dtype=bool)
        mask[list(nodes)] = True
        arr = np.where(mask[:, None] & mask[None, :], self.arr, NEG_INF)
        return TropicalMatrix(arr, copy=False)

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


def _check_node(a: TropicalMatrix, v: int):
    if not 0 <= v < a.n:
        raise DimensionError("dimension: node %d outside 0..%d" % (v, a.n - 1))


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
    return TropicalMatrix(_mp_matmul(a.arr, b.arr), copy=False)


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


_EXACT_MEMO = "exact"    # _memo key of _exactness, shared by deflation levels


def _integral_max(values: np.ndarray) -> tuple:
    """(finite values all integers, int of their largest |value| or 0)."""
    fin = values[values != NEG_INF]
    return np.array_equal(fin, np.rint(fin)), int(np.abs(fin).max(initial=0))


def _exactness(a: TropicalMatrix) -> tuple:
    """_integral_max of a's entries: their one scan, cached per matrix."""
    return a._cached(_EXACT_MEMO, lambda: _integral_max(a.arr))


def _exact_sums(a: TropicalMatrix, steps: int, lam=0.0, y=None) -> bool:
    """True when every sum of a power (a - lam)^t, t <= steps (with y: of
    an orbit of y under a up to steps), is exact in float64: a's finite
    entries (_exactness), lam and y's are integers, y holds no -0.0, and
    |y|max + (steps + 1) (|a|max + |lam|) < 2**53.  Max-plus products of
    such input give the same bits in any grouping, and no -0.0 ever
    appears in the samples."""
    integral, amax = _exactness(a)
    y_integral, ymax = (True, 0) if y is None else _integral_max(y)
    return (integral and y_integral and float(lam).is_integer()
            and (y is None or not np.signbit(y[y == 0]).any())
            and ymax + (steps + 1) * (amax + abs(int(lam))) < 2 ** 53)


def _power_stack(base: np.ndarray, k: int, product) -> np.ndarray:
    """[base^1 | ... | base^k] side by side, an n x k*n array (k >= 1).

    Built by doubling: with base^1 ... base^m in place, base^m times the
    first min(m, k - m) of them gives the next ones, so ceil(log2 k)
    products, each of n x n by n x (at most m*n).
    """
    n = base.shape[0]
    stack = np.empty((n, k * n), dtype=base.dtype)
    stack[:, :n] = base
    m = 1
    while m < k:
        step = min(m, k - m)
        stack[:, m * n:(m + step) * n] = product(stack[:, (m - 1) * n:m * n],
                                                 stack[:, :step * n])
        m += step
    return stack


def _stack_depth(n: int, k_max: int) -> int:
    """Powers per stack: as many as _STACK_FLOATS allows, at least 1 and at
    most k_max."""
    return max(1, min(k_max, _STACK_FLOATS // (n * n)))


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
    transient.  A sum that overflows float64 raises NonFiniteError.
    """
    if t < 0:
        raise ValueError("negative power")
    result = _power_chain(a.arr, t, _mp_matmul)
    if result is None:
        return TropicalMatrix.identity(a.n)
    return TropicalMatrix(result, copy=False)


@_overflow_checked
def mat_scalar_mul(lam: float, a: TropicalMatrix) -> TropicalMatrix:
    """Add lam to every finite entry (-inf entries stay -inf)."""
    if lam == NEG_INF:
        return TropicalMatrix.zeros(a.n)
    return TropicalMatrix(a.arr + lam, copy=False)


def mat_oplus(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Entrywise max."""
    _check_same_n(a, b)
    return TropicalMatrix(np.maximum(a.arr, b.arr), copy=False)


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


def _arr_eq(x: np.ndarray, y: np.ndarray, tol: float = 0.0) -> bool:
    """Equality of same-shape arrays: every entry pair agrees (_agree)."""
    return bool(_agree(x, y, tol).all())


def mat_eq(a: TropicalMatrix, b: TropicalMatrix, tol: float = 0.0) -> bool:
    """Equality: -inf patterns must coincide, finite entries within tol."""
    _check_same_n(a, b)
    return _arr_eq(a.arr, b.arr, tol)


def as_vector(values, n: int | None = None) -> np.ndarray:
    """Validate a max-plus vector: 1-D, entries finite or -inf."""
    y = np.array(values, dtype=float)
    if y.ndim != 1:
        raise DimensionError("dimension: vector expected, got shape %s" % (y.shape,))
    if n is not None and y.shape[0] != n:
        raise DimensionError("dimension: vector length %d vs %d" % (y.shape[0], n))
    if np.isnan(y).any() or (y == np.inf).any():
        raise ValueError("entries must be finite or -inf")
    return y


def vec_eq(x, y, tol: float = 0.0) -> bool:
    x = as_vector(x)
    y = as_vector(y, x.shape[0])
    return _arr_eq(x, y, tol)
