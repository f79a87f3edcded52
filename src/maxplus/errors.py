"""Exception types shared across the package."""


class MaxplusError(Exception):
    """Base class for all library errors."""


class DimensionError(MaxplusError):
    """Operand shapes are incompatible."""


class NoCyclesError(MaxplusError):
    """The digraph of the matrix has no cycles, so no cycle mean exists."""


class DivergentStarError(MaxplusError):
    """Kleene star diverges: some component has positive max cycle mean.

    component (node list) and value (its cycle mean) name the first
    nontrivial component whose cycle mean exceeds tol, when there is one
    (kleene_star only), and are None otherwise.  node is the smallest node
    where the relaxed star has a diagonal entry above tol; when a sum
    overflows float64 in the relaxation first (kleene_star raises this
    error then only if such a component exists), it is that component's
    smallest node.
    """

    def __init__(self, message, component=None, value=None, node=None):
        super().__init__(message)
        self.component = component
        self.value = value
        self.node = node


class NotDefiniteError(MaxplusError):
    """Matrix is not definite: its max cycle mean is not zero."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class AnalysisError(MaxplusError):
    """The critical analysis is inconsistent at the working tolerance: a
    deflation level has no critical node, or a cycle mean of the ultimate
    expansion does not match exactly one canonical deflation level.  Seen
    when the weights are too large for the absolute CRIT_TOL, or when
    distinct cycle means lie closer together than it."""


class ThresholdError(MaxplusError):
    """Requested exponent is below the validity threshold of the route."""


class OracleSizeError(MaxplusError):
    """Instance too large for the brute-force oracle."""


class NotOrbitPeriodicError(MaxplusError):
    """Operation requires an orbit periodic matrix."""


class ZeroVectorError(MaxplusError):
    """Operation requires a vector with at least one finite entry."""


class TrivialColumnError(MaxplusError):
    """Column index does not belong to any nontrivial component."""


class NonFiniteError(MaxplusError):
    """A sum of weights overflows float64, to +inf or to -inf (e.g. a
    power of a matrix holding 1e308 or -1e308).  The library raises it
    too: mat_mul, mat_power, mat_scalar_mul, TropicalMatrix.apply,
    simulate_orbit, evaluate, the critical analysis (Karp) and kleene_star
    raise it when a sum overflows, and the CLI when a value to report is
    +inf or NaN.  The CLI exits 3 on it."""


class ParseError(MaxplusError):
    """Malformed input: matrix or vector text, or a TROPICAL_TOL setting.

    line/column are 1-based positions into the source text when available.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
