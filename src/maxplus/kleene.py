"""Kleene stars and diagonal similarity scalings.

The star A* = I + A + A^2 + ... (max-plus sums) is finite exactly when no
cycle has positive weight.  A diagonal scaling z transforms a into
a'_ij = -z_i + a_ij + z_j; a visualizing scaling makes every entry of a
critical-part matrix equal to 0, i.e. makes it Boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, TropicalMatrix, as_vector
from .errors import DivergentStarError, NotCriticalPartError
from .graphs import CRIT_TOL, scc_decompose, _floyd_warshall_star, _karp


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
    m = _floyd_warshall_star(a.arr)
    bad = np.flatnonzero(np.diagonal(m) > tol)
    if bad.size:
        raise DivergentStarError(
            "divergent star: positive cycle through node %d" % bad[0],
            node=int(bad[0]))
    return TropicalMatrix(m, copy=False)


@dataclass(frozen=True)
class Scaling:
    """Diagonal similarity given by a finite vector z."""

    z: np.ndarray

    def __post_init__(self):
        z = as_vector(self.z)
        if (z == NEG_INF).any():
            raise ValueError("scaling vector must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    def inverse(self) -> "Scaling":
        return Scaling(-self.z)


def apply_scaling(a: TropicalMatrix, s: Scaling) -> TropicalMatrix:
    """a'_ij = -z_i + a_ij + z_j (finite pattern is preserved)."""
    z = as_vector(s.z, a.n)
    return TropicalMatrix(a.arr + (z[None, :] - z[:, None]), copy=False)


def visualizing_scaling(s: TropicalMatrix, tol: float = CRIT_TOL) -> Scaling:
    """Scaling that turns a critical-part matrix into a Boolean one.

    s qualifies when every edge of its digraph lies on a cycle of weight 0
    and no cycle is positive; otherwise NotCriticalPartError is raised.
    The vector is the row maximum of s*.
    """
    try:
        star = kleene_star(s, tol=tol)
    except DivergentStarError as exc:
        raise NotCriticalPartError("not a critical-part matrix: positive cycle") from exc
    fin = s.finite_mask()
    ii, jj = np.nonzero(fin)
    for i, j in zip(ii, jj):
        if s.arr[i, j] + star.arr[j, i] < -tol:
            raise NotCriticalPartError(
                "not a critical-part matrix: edge (%d, %d) is off every "
                "zero-weight cycle" % (i, j))
    z = star.arr.max(axis=1)
    return Scaling(z)


def total_visualizing_scaling(terms, n: int, tol: float = CRIT_TOL) -> Scaling:
    """Combine visualizing scalings of matrices with disjoint node sets.

    terms is an iterable of critical-part matrices of size n whose incident
    node sets do not overlap; the combined vector uses each term's scaling
    on its own nodes and 0 elsewhere.
    """
    z = np.zeros(n)
    seen = set()
    for s in terms:
        if s.n != n:
            raise ValueError("term size %d does not match n=%d" % (s.n, n))
        fin = s.finite_mask()
        nodes = set(np.nonzero(fin.any(axis=1) | fin.any(axis=0))[0].tolist())
        if nodes & seen:
            raise ValueError("node sets overlap: %s" % sorted(nodes & seen))
        seen |= nodes
        zs = visualizing_scaling(s, tol=tol).z
        for v in nodes:
            z[v] = zs[v]
    return Scaling(z)
