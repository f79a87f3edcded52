"""CSR triples: periodic three-factor products for definite matrices.

For a definite matrix a (max cycle mean 0) and a critical selection with
cyclicity gamma, set B = (a^gamma)*.  C keeps the columns of B indexed by
critical nodes, R keeps the critical rows, and S keeps the entries of a on
critical edges.  The product C (x) S^t (x) R is periodic in t with period
gamma from t = 0 on, satisfies the group law in t, and bounds a^t from
below entrywise, with equality for large t.

With the critical-path potential x, each walk i -> j of the selection
weighs x_j - x_i, and C's columns minus x and R's rows plus x are constant
on each cyclic class (slot).  So with C^ and R^ those columns and rows,
one per slot, C (x) S^t (x) R = C^ (x) R^[sigma_t], where sigma_t moves
each slot t classes on in its own component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _agree, _mp_matmul,
                   mat_mul, mat_power)
from .errors import DivergentStarError, NotDefiniteError
from .graphs import CritSubgraph, _bfs, _critical, wielandt
from .kleene import _diagonal_checked, kleene_star


def _shift(slots: tuple, t: int) -> np.ndarray:
    """sigma_t: the slot that walks of length t lead to from each slot."""
    _, cls, cyc = slots
    return np.arange(cls.size) + (cls + t) % cyc - cls


def _class_product(c_hat: np.ndarray, r_hat: np.ndarray, slots: tuple,
                   t: int) -> np.ndarray:
    """C (x) S^t (x) R from the class factors: one n x m by m x n product."""
    return _mp_matmul(c_hat, r_hat[_shift(slots, t)])


def _class_factors(m: np.ndarray, crit: CritSubgraph, arr: np.ndarray,
                   lam: float = 0.0) -> tuple:
    """(C^, R^, slots), read-only: the columns of m minus x and its rows
    plus x at the least node of each cyclic class (slot) of crit, slots
    numbered component by component; x is the potential of the weights
    arr - lam, 0 at each component's least node and summed along BFS
    trees.  slots holds per slot that node, its class and the cyclicity of
    its component."""
    cyc = crit.cyclicity_of
    rep = np.array([b[0] for buckets in crit.members for b in buckets])
    cls = np.concatenate([np.arange(g) for g in cyc])
    x = np.zeros(arr.shape[0])
    _, parent, _ = _bfs(crit.edges, [min(comp) for comp in crit.components])
    for w, v in parent.items():     # in visit order, parents first
        if v is not None:
            x[w] = x[v] + (arr[v, w] - lam)
    slots = (rep, cls, np.repeat(cyc, cyc))
    out = (m[:, rep] - x[rep], m[rep, :] + x[rep, None], slots)
    for part in out[:2] + slots:
        part.setflags(write=False)
    return out


@dataclass(eq=False)
class CsrTriple:
    """Factors C, S, R, and the class factors C^, R^ and slots."""

    n: int
    crit: CritSubgraph
    gamma: int
    c: TropicalMatrix
    s: TropicalMatrix
    r: TropicalMatrix
    s_is_boolean: bool
    c_hat: np.ndarray
    r_hat: np.ndarray
    slots: tuple

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
    cs = _critical(a)
    lam = NEG_INF if cs is None else cs.lambda_global
    if not _agree(lam, 0.0, tol):
        raise NotDefiniteError("not definite: max cycle mean %g" % lam,
                               value=float(lam))


def _active_star_power(a: TropicalMatrix, gamma: int, tol: float,
                       star: np.ndarray | None) -> np.ndarray:
    """(a^gamma)* formed on the nodes with a finite entry in their row or
    column only.  Every other node has no edge, so no path passes through
    it: its row and column of the star are -inf off a 0 diagonal, and the
    active block comes out bit for bit as on the full matrix.  A star of
    the active block already at hand is checked and used instead."""
    fin = a.finite_mask()
    active = np.flatnonzero(fin.any(axis=0) | fin.any(axis=1))
    b = np.full((a.n, a.n), NEG_INF)
    np.fill_diagonal(b, 0.0)
    if active.size:
        block = np.ix_(active, active)
        sub = TropicalMatrix(a.arr[block], copy=False)
        try:
            b[block] = (kleene_star(mat_power(sub, gamma), tol=tol)
                        if star is None else _diagonal_checked(star, tol)).arr
        except DivergentStarError as exc:
            # name the node of a, as the full-matrix star would
            node = int(active[exc.node])
            raise DivergentStarError(
                "divergent star: positive cycle through node %d" % node,
                node=node) from None
    return b


def csr_build(a: TropicalMatrix, crit: CritSubgraph, tol: float = CRIT_TOL,
              check_definite: bool = True,
              _star: np.ndarray | None = None) -> CsrTriple:
    """Build the triple of a definite matrix for a critical selection.

    crit must be a completely reducible subgraph of critical edges of a
    (the full critical graph, or a single critical cycle).  a itself must
    be definite; normalizing by the cycle mean is the caller's job.
    check_definite reads the cycle mean off a's memoized critical
    analysis (NotDefiniteError when it is not 0 within tol).  A divergent
    (a^gamma)* raises DivergentStarError naming the smallest node of a
    with a diagonal entry above tol.  _star, when given, is (a^gamma)* on
    a's active nodes (see _active_star_power), formed elsewhere and only
    checked here.
    """
    if check_definite:
        _check_definite(a, tol)
    n = a.n
    gamma = crit.gamma
    b = _active_star_power(a, gamma, tol, _star)
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
    boolean = bool(_agree(edge_vals, 0.0, tol).all())
    c_hat, r_hat, slots = _class_factors(b, crit, a.arr)
    return CsrTriple(n=n, crit=crit, gamma=gamma,
                     c=TropicalMatrix(c_arr, copy=False), s=s,
                     r=TropicalMatrix(r_arr, copy=False),
                     s_is_boolean=boolean, c_hat=c_hat, r_hat=r_hat,
                     slots=slots)


def csr_product_literal(triple: CsrTriple, t: int) -> TropicalMatrix:
    """C (x) S^t (x) R computed literally at exponent t."""
    if t < 0:
        raise ValueError("negative exponent")
    return mat_mul(mat_mul(triple.c, mat_power(triple.s, t)), triple.r)


def csr_product(triple: CsrTriple, t: int) -> CsrProduct:
    """Periodic product at exponent t, equal to the literal product.

    Formed from the class factors (see the module docstring), one n x m
    by m x n product for m cyclic classes; nothing is cached.  t_residue
    is t mod gamma.
    """
    if t < 0:
        raise ValueError("negative exponent")
    res = t % triple.gamma      # every slot's cyclicity divides gamma
    arr = _class_product(triple.c_hat, triple.r_hat, triple.slots, res)
    return CsrProduct(matrix=TropicalMatrix(arr, copy=False), t_residue=res)

