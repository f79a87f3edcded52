"""Kleene stars.

The star A* = I + A + A^2 + ... (max-plus sums) is finite exactly when no
cycle has positive weight.
"""

from __future__ import annotations

import numpy as np

from .core import CRIT_TOL, TropicalMatrix
from .errors import DivergentStarError
from .graphs import scc_decompose, _floyd_warshall_star, _karp


def kleene_star(a: TropicalMatrix, tol: float = CRIT_TOL,
                check: bool = True) -> TropicalMatrix:
    """Max-plus Kleene star via Floyd-Warshall relaxation.

    With check=True components are screened first so the error can name the
    component whose cycle mean is positive.  After the relaxation a positive
    diagonal entry also means divergence (diagonal entries only grow), and
    the error names the smallest such node.  Callers that already know all
    cycle means are nonpositive may pass check=False.
    """
    if check:
        dec = scc_decompose(a)
        for c in dec.nontrivial():
            lam = _karp(a.arr, dec.components[c])
            if lam > tol:
                raise DivergentStarError(
                    "divergent star: component %s has cycle mean %g"
                    % (dec.components[c], lam),
                    component=dec.components[c], value=float(lam))
    return _diagonal_checked(_floyd_warshall_star(a.arr), tol)


def _diagonal_checked(m: np.ndarray, tol: float) -> TropicalMatrix:
    """The relaxed star m, or DivergentStarError naming the smallest node
    with a diagonal entry above tol."""
    bad = np.flatnonzero(np.diagonal(m) > tol)
    if bad.size:
        raise DivergentStarError(
            "divergent star: positive cycle through node %d" % bad[0],
            node=int(bad[0]))
    return TropicalMatrix(m, copy=False)
