"""Exception types shared across the package: every failure it raises on
purpose is a MaxplusError.  A gate of core rejects an argument with a
DomainError (also a ValueError), or a node outside 0..n-1 with a
DimensionError.  The CLI exits 2 on ParseError, 3 on any other one."""


class MaxplusError(Exception):
    """Base class for all library errors."""

    def describe(self, base: int = 0) -> str:
        """The message, with the nodes it names counted from base: str()
        counts from 0, the CLI's error lines from 1, like its reports."""
        return super().__str__()

    def __str__(self):
        return self.describe()


class DomainError(MaxplusError, ValueError):
    """An argument outside the domain: a negative or non-integer count, a
    NaN, +inf or non-numeric entry, an unknown rule, variant or method."""


class DimensionError(MaxplusError):
    """Operand shapes are incompatible, or a node lies outside 0..n-1."""


class NoCyclesError(MaxplusError):
    """The digraph of the matrix has no cycles, so no cycle mean exists."""


class DivergentStarError(MaxplusError):
    """Kleene star diverges: some component has positive max cycle mean.

    component (node list) and value (its cycle mean) name the first
    nontrivial component whose cycle mean exceeds CRIT_TOL, when there is
    one (kleene_star only), and are None otherwise.  node is the smallest
    node with a relaxed star diagonal entry above CRIT_TOL; when a sum
    overflows float64 in the relaxation first (kleene_star raises this
    error then only if such a component exists), it is that component's
    smallest node.  The message is rendered from these attributes.
    """

    def __init__(self, component=None, value=None, node=None):
        super().__init__()
        self.component = component
        self.value = value
        self.node = node

    def describe(self, base: int = 0) -> str:
        if self.component is not None:
            return ("divergent star: component %s has cycle mean %g"
                    % ([v + base for v in self.component], self.value))
        return ("divergent star: positive cycle through node %d"
                % (self.node + base))


class NotDefiniteError(MaxplusError):
    """Matrix is not definite: its max cycle mean is not zero."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class AnalysisError(MaxplusError):
    """The critical analysis is inconsistent at the working tolerance: a
    deflation or ultimate level has no critical node, a critical node has
    no outgoing critical edge (node names it), or a cycle mean of the
    ultimate expansion does not match exactly one canonical deflation
    level.  Seen when the weights are too large for the absolute CRIT_TOL,
    or when distinct cycle means lie closer together than it.  When node
    is given, message is a template with one %d for it."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node

    def describe(self, base: int = 0) -> str:
        text = super().describe()
        return text if self.node is None else text % (self.node + base)


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
    raise it when a sum overflows, evaluate also for an exponent past
    float64, and the CLI when a value to report is +inf or NaN.  The CLI
    exits 3 on it."""


class ParseError(MaxplusError):
    """Malformed input: matrix or vector text.

    line/column are 1-based positions into the source text when available.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
