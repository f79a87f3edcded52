"""CSR triples: periodic three-factor products for definite matrices.

For a definite matrix a (max cycle mean 0) and a critical selection with
cyclicity gamma, set B = (a^gamma)*.  C keeps the columns of B indexed by
critical nodes, R keeps the critical rows, and S keeps the entries of a on
critical edges.  The product C (x) S^t (x) R is periodic in t with period
gamma from t = 0 on, satisfies the group law in t, and bounds a^t from
below entrywise, with equality for large t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NEG_INF, TropicalMatrix, mat_mul, mat_power
from .errors import (DivergentStarError, NotDefiniteError,
                     RotationUnavailableError)
from .graphs import CRIT_TOL, CritSubgraph, max_cycle_mean, wielandt
from .kleene import kleene_star


@dataclass(eq=False)
class CsrTriple:
    """Factors C, S, R with the critical bookkeeping used for rotations."""

    n: int
    crit: CritSubgraph
    gamma: int
    c: TropicalMatrix
    s: TropicalMatrix
    r: TropicalMatrix
    s_is_boolean: bool
    _residues: dict = field(default_factory=dict, repr=False)

    @property
    def n_c(self) -> tuple:
        return tuple(sorted(self.crit.nodes))

    @property
    def component_cyclicities(self) -> tuple:
        return tuple(self.crit.cyclicity_of)

    def periodicity_threshold(self) -> int:
        """Exponent after which S^t is periodic (Wielandt bound)."""
        return wielandt(len(self.crit.nodes))


@dataclass(frozen=True)
class CsrProduct:
    matrix: TropicalMatrix
    t_residue: int


def _check_definite(a: TropicalMatrix, tol: float):
    lam = max_cycle_mean(a)
    if not (abs(lam) <= tol):
        raise NotDefiniteError("not definite: max cycle mean %g" % lam,
                               value=float(lam))


def _active_star_power(a: TropicalMatrix, gamma: int,
                       tol: float) -> np.ndarray:
    """(a^gamma)* formed on the nodes with a finite entry in their row or
    column only.  Every other node has no edge, so no path passes through
    it: its row and column of the star are -inf off a 0 diagonal, and the
    active block comes out bit for bit as on the full matrix."""
    fin = a.finite_mask()
    active = np.flatnonzero(fin.any(axis=0) | fin.any(axis=1))
    b = np.full((a.n, a.n), NEG_INF)
    np.fill_diagonal(b, 0.0)
    if active.size:
        block = np.ix_(active, active)
        sub = TropicalMatrix(a.arr[block], copy=False)
        try:
            b[block] = kleene_star(mat_power(sub, gamma), tol=tol,
                                   check=False).arr
        except DivergentStarError as exc:
            # name the node of a, as the full-matrix star would
            node = int(active[exc.node])
            raise DivergentStarError(
                "divergent star: positive cycle through node %d" % node,
                node=node) from None
    return b


def csr_build(a: TropicalMatrix, crit: CritSubgraph, tol: float = CRIT_TOL,
              check_definite: bool = True) -> CsrTriple:
    """Build the triple of a definite matrix for a critical selection.

    crit must be a completely reducible subgraph of critical edges of a
    (the full critical graph, or a single critical cycle).  a itself must
    be definite; normalizing by the cycle mean is the caller's job.
    """
    if check_definite:
        _check_definite(a, tol)
    n = a.n
    gamma = crit.gamma
    b = _active_star_power(a, gamma, tol)
    nodes = sorted(crit.nodes)
    col_mask = np.zeros(n, dtype=bool)
    col_mask[nodes] = True
    c_arr = np.where(col_mask[None, :], b, NEG_INF)
    r_arr = np.where(col_mask[:, None], b, NEG_INF)
    s_arr = np.full((n, n), NEG_INF)
    for i, j in crit.edges:
        s_arr[i, j] = a.arr[i, j]
    s = TropicalMatrix(s_arr, copy=False)
    edge_vals = np.array([a.arr[i, j] for i, j in crit.edges])
    boolean = bool(edge_vals.size == 0 or np.all(np.abs(edge_vals) <= tol))
    return CsrTriple(n=n, crit=crit, gamma=gamma,
                     c=TropicalMatrix(c_arr, copy=False), s=s,
                     r=TropicalMatrix(r_arr, copy=False),
                     s_is_boolean=boolean)


def csr_product_literal(triple: CsrTriple, t: int) -> TropicalMatrix:
    """C (x) S^t (x) R computed literally at exponent t."""
    if t < 0:
        raise ValueError("negative exponent")
    return mat_mul(mat_mul(triple.c, mat_power(triple.s, t)), triple.r)


def csr_product(triple: CsrTriple, t: int) -> CsrProduct:
    """Periodic product at exponent t, computed at the residue t mod gamma.

    Equal to the literal product at t itself by periodicity; residue
    results are cached on the triple.
    """
    if t < 0:
        raise ValueError("negative exponent")
    res = t % triple.gamma
    cached = triple._residues.get(res)
    if cached is None:
        cached = csr_product_literal(triple, res)
        triple._residues[res] = cached
    return CsrProduct(matrix=cached, t_residue=res)


def csr_group_check(triple: CsrTriple, t1: int, t2: int, tol: float = 0.0) -> bool:
    """Does product(t1 + t2) equal product(t1) (x) product(t2)?"""
    lhs = csr_product(triple, t1 + t2).matrix
    rhs = mat_mul(csr_product(triple, t1).matrix, csr_product(triple, t2).matrix)
    return lhs.eq(rhs, tol)


def _rotate_rows(crit: CritSubgraph, arr: np.ndarray, dt: int) -> np.ndarray:
    out = arr.copy()
    for ci, buckets in enumerate(crit.members):
        gamma = crit.cyclicity_of[ci]
        for v in (v for bucket in buckets for v in bucket):
            cls = crit.class_of[v][1]
            src = buckets[(cls + dt) % gamma][0]
            out[v, :] = arr[src, :]
    return out


def _rotate_cols(crit: CritSubgraph, arr: np.ndarray, dt: int) -> np.ndarray:
    out = arr.copy()
    for ci, buckets in enumerate(crit.members):
        gamma = crit.cyclicity_of[ci]
        for v in (v for bucket in buckets for v in bucket):
            cls = crit.class_of[v][1]
            src = buckets[(cls - dt) % gamma][0]
            out[:, v] = arr[:, src]
    return out


def csr_rotate(triple: CsrTriple, m: TropicalMatrix, dt: int,
               kind: str = "rows") -> TropicalMatrix:
    """Advance a periodic-regime block by dt steps via cyclic classes.

    kind="rows": m is S^r R for some r past the periodicity threshold; the
    result is S^(r+dt) R.  kind="cols": m is C S^r and the result is
    C S^(r+dt).  Rows (columns) within one cyclic class coincide there, so
    the rotation just re-addresses representatives.  Requires a Boolean S.
    """
    if not triple.s_is_boolean:
        raise RotationUnavailableError("rotation requires a Boolean S factor")
    if m.n != triple.n:
        raise ValueError("block size mismatch")
    if kind == "rows":
        return TropicalMatrix(_rotate_rows(triple.crit, m.arr, dt), copy=False)
    if kind == "cols":
        return TropicalMatrix(_rotate_cols(triple.crit, m.arr, dt), copy=False)
    raise ValueError("kind must be 'rows' or 'cols'")
