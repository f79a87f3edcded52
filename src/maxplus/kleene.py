"""Kleene stars.

The star A* = I + A + A^2 + ... (max-plus sums) is finite exactly when no
cycle has positive weight.
"""

from __future__ import annotations

import numpy as np

from .core import CRIT_TOL, TropicalMatrix
from .errors import DivergentStarError, NonFiniteError
from .graphs import _critical, _floyd_warshall_star


def kleene_star(a: TropicalMatrix, tol: float = CRIT_TOL) -> TropicalMatrix:
    """Max-plus Kleene star via Floyd-Warshall relaxation.

    Diagonal entries only grow under the relaxation, so one above tol
    means divergence.  Only then, or when a sum overflows in the
    relaxation (a positive cycle about doubles with each pivot), is the
    memoized critical analysis read: the error names the first nontrivial
    component (in SCC order) whose cycle mean exceeds tol, or, when none
    does, the node alone (an overflow re-raises NonFiniteError).  node is
    the smallest node with a diagonal entry above tol, or after an
    overflow the component's smallest node.
    """
    try:
        return _diagonal_checked(_floyd_warshall_star(a.arr), tol)
    except (DivergentStarError, NonFiniteError) as exc:
        cs = _critical(a)
        for c in [] if cs is None else cs.scc.nontrivial():
            lam = cs.lambda_of_component[c]
            if lam > tol:
                comp = list(cs.scc.components[c])
                raise DivergentStarError(
                    "divergent star: component %s has cycle mean %g"
                    % (comp, lam), component=comp, value=float(lam),
                    node=getattr(exc, "node", comp[0])) from None
        raise


def _diagonal_checked(m: np.ndarray, tol: float) -> TropicalMatrix:
    """The relaxed star m, or DivergentStarError naming the smallest node
    with a diagonal entry above tol."""
    bad = np.flatnonzero(np.diagonal(m) > tol)
    if bad.size:
        raise DivergentStarError(
            "divergent star: positive cycle through node %d" % bad[0],
            node=int(bad[0]))
    return TropicalMatrix(m, copy=False)
