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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _agree, _check_nodes,
                   _count, _mp_matmul, mat_mul, mat_power)
from .errors import DivergentStarError, DomainError, NotDefiniteError
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


def _class_factors(m: np.ndarray, crit: CritSubgraph,
                   arr: np.ndarray) -> tuple:
    """(C^, R^, slots), read-only: the columns of m minus x and its rows
    plus x at the least node of each cyclic class (slot) of crit, slots
    numbered component by component; x is the potential of the weights
    arr, 0 at each component's least node and summed along BFS trees.
    slots holds per slot that node, its class and the cyclicity of its
    component."""
    cyc = crit.cyclicity_of
    rep = np.array([b[0] for buckets in crit.members for b in buckets])
    cls = np.concatenate([np.arange(g) for g in cyc])
    x = np.zeros(arr.shape[0])
    _, parent, _ = _bfs(crit.edges, [min(comp) for comp in crit.components])
    for w, v in parent.items():     # in visit order, parents first
        if v is not None:
            x[w] = x[v] + arr[v, w]
    slots = (rep, cls, np.repeat(cyc, cyc))
    out = (m[:, rep] - x[rep], m[rep, :] + x[rep, None], slots)
    for part in out[:2] + slots:
        part.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CsrTriple:
    """Class factors C^, R^ and slots, and the factors C, S, R, which are
    formed on first access from the star (a^gamma)* and the weights of a
    that csr_build holds: C keeps the star's critical columns, R its
    critical rows, S the weights on critical edges (-inf elsewhere).
    Every field and factor is read-only."""

    n: int
    crit: CritSubgraph
    gamma: int
    s_is_boolean: bool
    c_hat: np.ndarray
    r_hat: np.ndarray
    slots: tuple
    star: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def _on_crit(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[sorted(self.crit.nodes)] = True
        return mask

    @cached_property
    def c(self) -> TropicalMatrix:
        return TropicalMatrix._wrap(np.where(self._on_crit[None, :],
                                             self.star, NEG_INF))

    @cached_property
    def s(self) -> TropicalMatrix:
        s_arr = np.full((self.n, self.n), NEG_INF)
        i, j = _edge_index(self.crit)
        s_arr[i, j] = self.weights[i, j]
        return TropicalMatrix._wrap(s_arr)

    @cached_property
    def r(self) -> TropicalMatrix:
        return TropicalMatrix._wrap(np.where(self._on_crit[:, None],
                                             self.star, NEG_INF))

    @property
    def n_c(self) -> tuple:
        return tuple(sorted(self.crit.nodes))

    def periodicity_threshold(self) -> int:
        """Exponent after which S^t is periodic (Wielandt bound)."""
        return wielandt(len(self.crit.nodes))


def _edge_index(crit: CritSubgraph) -> tuple:
    """(rows, columns) of crit's edges as two index arrays."""
    edges = np.array(list(crit.edges), dtype=int).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


@dataclass(frozen=True)
class CsrProduct:
    matrix: TropicalMatrix
    t_residue: int


def _check_definite(a: TropicalMatrix):
    cs = _critical(a)
    lam = NEG_INF if cs is None else cs.lambda_global
    if not _agree(lam, 0.0, CRIT_TOL):
        raise NotDefiniteError("not definite: max cycle mean %g" % lam,
                               value=float(lam))


def _active_star_power(a: TropicalMatrix, gamma: int,
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
        sub = TropicalMatrix._wrap(a.arr[block])
        try:
            b[block] = (kleene_star(mat_power(sub, gamma)) if star is None
                        else _diagonal_checked(star)).arr
        except DivergentStarError as exc:
            # name the node of a, as the full-matrix star would
            raise DivergentStarError(node=int(active[exc.node])) from None
    return b


def csr_build(a: TropicalMatrix, crit: CritSubgraph,
              check_definite: bool = True,
              _star: np.ndarray | None = None) -> CsrTriple:
    """Build the triple of a definite matrix for a critical selection.

    crit must be a completely reducible subgraph of critical edges of a
    (the full critical graph, or a single critical cycle).  a itself must
    be definite; normalizing by the cycle mean is the caller's job.
    check_definite reads the cycle mean off a's memoized critical
    analysis (NotDefiniteError when it is not 0 within CRIT_TOL).  A
    divergent (a^gamma)* raises DivergentStarError naming the smallest
    node of a with a diagonal entry above CRIT_TOL, and s_is_boolean
    holds when every critical weight is 0 within CRIT_TOL.  A node of
    crit outside a raises DimensionError (core._check_node), and an empty
    crit DomainError.  _star, when given, is (a^gamma)* on a's active
    nodes (see _active_star_power), formed elsewhere and only checked
    here.
    """
    if not crit.nodes:
        raise DomainError("critical selection is empty")
    _check_nodes(a, crit.nodes)
    if check_definite:
        _check_definite(a)
    gamma = crit.gamma
    b = _active_star_power(a, gamma, _star)
    b.setflags(write=False)
    boolean = bool(_agree(a.arr[_edge_index(crit)], 0.0, CRIT_TOL).all())
    c_hat, r_hat, slots = _class_factors(b, crit, a.arr)
    return CsrTriple(n=a.n, crit=crit, gamma=gamma, s_is_boolean=boolean,
                     c_hat=c_hat, r_hat=r_hat, slots=slots, star=b,
                     weights=a.arr)


def csr_product_literal(triple: CsrTriple, t: int) -> TropicalMatrix:
    """C (x) S^t (x) R computed literally at exponent t."""
    t = _count(t, "exponent")
    return mat_mul(mat_mul(triple.c, mat_power(triple.s, t)), triple.r)


def csr_product(triple: CsrTriple, t: int) -> CsrProduct:
    """Periodic product at exponent t, equal to the literal product.

    Formed from the class factors (see the module docstring), one n x m
    by m x n product for m cyclic classes; nothing is cached.  t_residue
    is t mod gamma.
    """
    t = _count(t, "exponent")
    res = t % triple.gamma      # every slot's cyclicity divides gamma
    arr = _class_product(triple.c_hat, triple.r_hat, triple.slots, res)
    return CsrProduct(matrix=TropicalMatrix._wrap(arr), t_residue=res)

