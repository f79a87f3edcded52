"""Digraph structure of a max-plus matrix.

Covers strongly connected components, maximum cycle means (Karp), the
critical graph with its cyclic classes, and the strong-access relation
(paths of every sufficiently large length).

Node indices are 0-based throughout the library.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _check_node, _count,
                   _exact_sums, _exceeds, _overflow_checked, _power_chain)
from .errors import NoCyclesError, NonFiniteError

# the condensation star's size gate: dense draws lose at 48 nodes, win at 64
_CONDENSE_ABOVE = 64


def wielandt(n: int) -> int:
    """Boolean periodicity threshold (n-1)^2 + 1 for an n-node component;
    DomainError when n is no integer >= 0."""
    n = _count(n, "size")
    if n <= 1:
        return 1
    return (n - 1) ** 2 + 1


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components with access between them.

    components are node tuples listed in a topological order consistent
    with access: if component p accesses component q then q appears before
    p (accessed components first).  access[p][q] is the reflexive-
    transitive access relation between component indices.  Both arrays
    are read-only.
    """

    n: int
    component_of: np.ndarray
    components: tuple
    is_trivial: tuple
    access: np.ndarray

    @property
    def k(self) -> int:
        return len(self.components)

    def nontrivial(self):
        return [c for c in range(self.k) if not self.is_trivial[c]]


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.astype(np.float32, copy=False)
            @ y.astype(np.float32, copy=False)) > 0


def _strong_components(b: np.ndarray):
    """(reach, members, comp) of a Boolean adjacency: reach is the
    reflexive-transitive closure, (I or B)^t for a power of two t >= n - 1
    squared until it stops changing.  The strong components are numbered
    by least node: comp[i] is the number of i's, and members[c] lists the
    nodes of component c in increasing order."""
    n = b.shape[0]
    if not n:
        return b, [], np.zeros(0, dtype=int)
    reach = _power_chain(b | np.eye(n, dtype=bool), 1 << (n - 1).bit_length(),
                         _bool_matmul)
    # the least node of i's component: the first j with reach both ways
    least = (reach & reach.T).argmax(axis=1)
    comp = np.searchsorted(np.flatnonzero(least == np.arange(n)), least)
    return reach, _members(comp), comp


def _members(comp: np.ndarray) -> list:
    """Increasing node lists of the components numbered 0, 1, ... by comp."""
    nodes = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(np.bincount(comp)).tolist()
    return [nodes[s:e] for s, e in zip([0] + ends, ends)]


def _accessed_first(acc: np.ndarray) -> np.ndarray:
    """Components, numbered by least node, in Kahn order on their access
    block acc: each after every component it accesses, the least ready
    one first (one with no access either way is ready throughout)."""
    off = acc & ~np.eye(acc.shape[0], dtype=bool)
    waits = np.count_nonzero(off, axis=1)
    ready = np.flatnonzero(waits == 0).tolist()  # sorted: a heap
    waits = waits.tolist()
    chain = []
    while ready:
        c = heapq.heappop(ready)
        chain.append(c)
        for p in np.flatnonzero(off[:, c]).tolist():
            waits[p] -= 1
            if not waits[p]:
                heapq.heappush(ready, p)
    return np.array(chain, dtype=int)


def scc_decompose(a: TropicalMatrix) -> SccDecomposition:
    """Strongly connected components plus the access relation, both read
    off the Boolean closure of the finite pattern."""
    b = a.finite_mask()
    reach, members, comp = _strong_components(b)
    roots = [m[0] for m in members]
    acc = reach[roots][:, roots]
    order = _accessed_first(acc).tolist()
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    component_of, access = rank[comp], acc[order][:, order]
    component_of.setflags(write=False)
    access.setflags(write=False)
    return SccDecomposition(
        a.n, component_of, tuple(tuple(members[c]) for c in order),
        tuple(len(members[c]) == 1 and not b[roots[c], roots[c]]
              for c in order), access)


def max_cycle_mean(a: TropicalMatrix) -> float:
    """Maximum cycle mean by Karp's algorithm, over every nontrivial
    component (-inf when the digraph is acyclic).

    The library reads cycle means off the memoized critical analysis
    (critical_structure(a).lambda_global, lambda_of_component); this loop
    of its own stays as an independent referee.
    """
    dec = scc_decompose(a)
    best = NEG_INF
    for c in dec.nontrivial():
        best = max(best, _karp(a.arr, dec.components[c]))
    return best


@_overflow_checked
def _karp(arr: np.ndarray, nodes) -> float:
    """Karp on one strongly connected node set (source = nodes[0]): the
    max_cycle_mean referee, and the component analysis's fallback when
    _certified_mean certifies no candidate."""
    k = len(nodes)
    sub = arr[np.ix_(nodes, nodes)]
    d = np.full((k + 1, k), NEG_INF)
    d[0, 0] = 0.0
    for step in range(1, k + 1):
        d[step] = (d[step - 1][:, None] + sub).max(axis=0)
    # max over v with d_k(v) finite of min over j of (d_k(v) - d_j(v)) / (k - j).
    # A -inf d_j(v) yields +inf, which never attains the min; some j < k has
    # d_j(v) finite, because a k-step walk to v contains a shorter simple path.
    live = d[k] != NEG_INF
    if not live.any():
        return NEG_INF
    means = (d[k, live] - d[:k, live]) / (k - np.arange(k))[:, None]
    return means.min(axis=0).max()


@_overflow_checked
def _floyd_warshall_star(arr: np.ndarray) -> np.ndarray:
    """Kleene star by relaxation; a positive cycle leaves a positive diagonal."""
    m = arr.copy()
    n = m.shape[0]
    idx = np.arange(n)
    m[idx, idx] = np.maximum(m[idx, idx], 0.0)
    for k in range(n):
        np.maximum(m, m[:, k, None] + m[k, None, :], out=m)
    return m


@dataclass(frozen=True)
class ComponentCriticals:
    """Critical data of one nontrivial component, computed in isolation;
    star is the read-only Kleene star of block minus lam, on either route."""

    nodes: tuple
    lam: float
    crit_nodes: tuple
    crit_edges: tuple
    crit_components: tuple     # node tuples
    cyclicity_of: tuple        # per crit component
    class_of: MappingProxyType  # node -> (crit component index, class id)
    star: np.ndarray


def _component_criticals(a: TropicalMatrix, nodes) -> ComponentCriticals:
    """Critical data of one nontrivial component; lam is Karp's unless
    _certified_mean gives the same float more cheaply.  An edge is
    critical when it closes a cycle of weight 0 under the star (or as
    _saturation finds it, with the critical components)."""
    nodes = sorted(nodes)
    block = a.arr[nodes][:, nodes]
    exact = _exact_sums(a, 8 * len(nodes) ** 3)
    lam, star, sat = _certified_mean(block) if exact else (None,) * 3
    if star is None:
        lam = _karp(a.arr, nodes)
        star = _floyd_warshall_star(block - lam)
    star.setflags(write=False)
    # a -inf entry never passes; np.nonzero keeps row-major edge order
    crit, comp = sat or (~_exceeds(0.0, block - lam + star.T, CRIT_TOL), None)
    aa, bb = np.nonzero(crit)
    idx = np.array(nodes)
    crit_edges = tuple(zip(idx[aa].tolist(), idx[bb].tolist()))
    on = np.flatnonzero(crit.any(axis=0) | crit.any(axis=1))
    comps, cyc, cls = _mask_classes(idx[on], crit[on][:, on], comp)
    return ComponentCriticals(tuple(nodes), lam, tuple(idx[on].tolist()),
                              crit_edges, comps, cyc, cls, star)


def _certified_mean(block: np.ndarray):
    """(mu, star of block - mu, sat) when mu, the best cycle mean of the
    graph keeping each node's heaviest out-edge (Howard's first policy),
    is certified as the block's maximum cycle mean, else three Nones; sat
    is None or _saturation's (critical edges, components).

    A block of more than _CONDENSE_ABOVE nodes with an integral mu, no
    -0.0 entry and 7/8 of its rows peaking at mu goes to _saturation (to
    Karp if that fails); every sum there is exact and no -0.0 forms, so
    the star has the relaxation's bytes.  With fewer peaks (sparse or
    spread weights) the condensation is about as large as the block.

    Otherwise the certificate is a star diagonal <= CRIT_TOL, a proof on
    integer weights with k^3 |w|max < 2**50 (k = block size; the caller
    gates on _exact_sums): a better cycle would weigh at least 1/k under
    block - mu, and rounding takes less than 5/(8k) off it, leaving more
    than CRIT_TOL.  There mu, an exact integer sum over a length, rounds
    the same rational as Karp's (d_k - d_j) / (k - j): the same float, so
    the same star.  A star that overflows (under a mu below the maximum
    each pivot doubles a positive cycle, past float64 near k = 1100) is a
    failed certificate.
    """
    num, den = _policy_cycle(block)
    mu = num / den              # Python ints: correctly rounded, never -0.0
    if (len(block) > _CONDENSE_ABOVE and num % den == 0
            and 8 * np.count_nonzero(block.max(axis=1) == mu) >= 7 * len(block)
            and not np.signbit(block[block == 0]).any()):
        found = _saturation(block - mu)
        return (None, None, None) if found is None else (mu, *found)
    try:
        star = _floyd_warshall_star(block - mu)
    except NonFiniteError:
        return None, None, None
    if _exceeds(star.diagonal().max(), 0.0, CRIT_TOL):
        return None, None, None
    return mu, star, None


def _saturation(sub: np.ndarray):
    """(star of sub, (critical edges, their components numbered by least
    node)) of a strongly connected block sub = A - mu with exact sums,
    when a potential proves that no cycle of sub is positive; else None.

    The potential x, column 0 of sub*, is swept from e_0 by
    x <- x (+) sub (x) x: it settles within k rounds (sub (x) x <= x) iff
    no cycle is positive, so k unsettled rounds or a positive x_0 answer
    None.  Under reduced weights r_ij = sub_ij + x_j - x_i <= 0 the
    saturation digraph r = 0 (Butkovic, Max-linear Systems, 2010) holds
    the cycles of weight 0 and no other: the critical edges are its edges
    inside one of its strong components.  r* is 0 inside a component and
    the star of the condensation (edge weights: the largest r between two
    components) between them, and sub*_ij = r*_ij + x_i - x_j.
    """
    x = np.where(np.arange(len(sub)), NEG_INF, 0.0)   # e_0
    for _ in range(len(sub)):
        y = np.maximum(x, (sub + x).max(axis=1))
        if y[0] > 0:
            return None
        if np.array_equal(y, x):
            break
        x = y
    else:                       # k rounds did not settle
        return None
    r = sub + x - x[:, None]
    sat = r == 0
    comp = _strong_components(sat)[2]
    order = np.argsort(comp, kind="stable")
    starts = np.flatnonzero(np.diff(comp[order], prepend=-1))
    cond = np.maximum.reduceat(np.maximum.reduceat(
        r[np.ix_(order, order)], starts, axis=0), starts, axis=1)
    star = _floyd_warshall_star(cond)[comp[:, None], comp] + x[:, None] - x
    crit = sat & (comp[:, None] == comp)
    return star, (crit, np.unique(comp[crit.any(axis=1)],
                                  return_inverse=True)[1])


def _policy_cycle(block: np.ndarray):
    """(weight sum, length) of the best cycle, by exact mean, of the
    functional graph i -> argmax of row i, with integer weights summed
    as Python ints.  Each walk stops at the first node seen before; a
    node seen on the current walk closes a new cycle."""
    succ = block.argmax(axis=1).tolist()
    weight = block.max(axis=1).astype(np.int64).tolist()
    walk_of = [-1] * len(succ)
    best = None
    for start in range(len(succ)):
        v = start
        while walk_of[v] < 0:
            walk_of[v] = start
            v = succ[v]
        if walk_of[v] != start:
            continue
        num, den, u = weight[v], 1, succ[v]
        while u != v:
            num, den, u = num + weight[u], den + 1, succ[u]
        if best is None or num * best[1] > best[0] * den:
            best = num, den
    return best


def _bfs(edges, roots):
    """Breadth-first search from roots over edges, successors in increasing
    order: (visit order, parent of each visited node, successor lists)."""
    succ = {}
    for i, j in sorted(edges):
        succ.setdefault(i, []).append(j)
    order, parent = list(roots), dict.fromkeys(roots)
    for v in order:             # order grows while it is read
        for w in succ.get(v, ()):
            if w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent, succ


def _mask_classes(nodes: np.ndarray, mask: np.ndarray, comp=None):
    """(components, cyclicities, class_of) of the edges mask[a, b]:
    nodes[a] -> nodes[b], every node on a cycle, all three read-only.
    Components are node tuples ordered by least node; the level of a node
    is its distance from the least node of its component, the cyclicity
    is the gcd over the component's edges (a, b) of level(a) + 1 -
    level(b) (the gcd of its cycle lengths), and class_of maps each node
    to (component, level mod cyclicity).  comp, when given, numbers the
    strong components of mask by least node, and no closure is formed."""
    _, members, comp = (_strong_components(mask) if comp is None
                        else (None, _members(comp), comp))
    inner = mask & (comp[:, None] == comp)
    level = np.full(comp.size, -1)
    front, depth = np.zeros(comp.size, dtype=bool), 0
    front[[m[0] for m in members]] = True
    while front.any():          # breadth-first from every least node at once
        level[front] = depth
        front = inner[front].any(axis=0) & (level < 0)
        depth += 1
    aa, bb = np.nonzero(inner)
    cyc = np.zeros(len(members), dtype=int)
    np.gcd.at(cyc, comp[aa], level[aa] + 1 - level[bb])
    cyc = np.maximum(cyc, 1)
    cls = level % cyc[comp]
    class_of = {}
    for ci, part in enumerate(members):
        class_of.update(zip(nodes[part].tolist(),
                            zip([ci] * len(part), cls[part].tolist())))
    return (tuple(tuple(nodes[part].tolist()) for part in members),
            tuple(cyc.tolist()), MappingProxyType(class_of))


@dataclass(frozen=True)
class CriticalStructure:
    """Critical graph of a matrix together with per-component cycle means.

    critical_* fields describe the globally critical part (cycles attaining
    lambda_global).  per_component keeps the same analysis for every
    nontrivial component at its own cycle mean, indexed like scc.components.
    Sequences are tuples and class_of is a read-only mapping.
    """

    scc: SccDecomposition
    lambda_global: float
    lambda_of_component: tuple
    critical_nodes: tuple
    critical_edges: tuple
    critical_components: tuple
    cyclicity_of: tuple
    class_of: MappingProxyType
    gamma_lcm: int
    per_component: tuple

    def lambda_of_node(self, v: int) -> float:
        return self.lambda_of_component[int(self.scc.component_of[v])]


def critical_structure(a: TropicalMatrix) -> CriticalStructure:
    """Full critical analysis at CRIT_TOL; raises NoCyclesError on acyclic
    input.  Computed once per matrix: every call returns the same
    read-only structure."""
    cs = a._cached("critical", lambda: _analyse(a))
    if cs is None:
        raise NoCyclesError("no cycles")
    return cs


def _critical(a: TropicalMatrix) -> CriticalStructure | None:
    """The memoized structure (None when acyclic).

    A miss goes through critical_structure, so that each analysis of a
    matrix is one call of the public layer.
    """
    if "critical" not in a._memo:
        try:
            critical_structure(a)
        except NoCyclesError:
            pass
    return a._memo["critical"]


# _memo key of the analyses by component node tuple: the components of
# a and those of its deflation levels' blocks, all read off a's entries.
_COMPONENT_MEMO = "components"


def _known_component(a: TropicalMatrix, nodes: tuple):
    """The memoized analysis of component nodes, or None: forms none."""
    return a._memo.get(_COMPONENT_MEMO, {}).get(nodes)


def _component(a: TropicalMatrix, nodes: tuple) -> ComponentCriticals:
    """The analysis of component nodes (sorted), once per node set of a."""
    memo = a._cached(_COMPONENT_MEMO, dict)
    if nodes not in memo:
        memo[nodes] = _component_criticals(a, nodes)
    return memo[nodes]


def _components(a: TropicalMatrix, nodes) -> list:
    """Analyses of the nontrivial strong components of a's block on nodes."""
    idx = np.array(nodes)
    b = a.arr[np.ix_(idx, idx)] != NEG_INF
    _, members, _ = _strong_components(b)
    return [_component(a, tuple(idx[m].tolist())) for m in members
            if len(m) > 1 or b[m[0], m[0]]]


def _analyse(a: TropicalMatrix) -> CriticalStructure | None:
    dec = scc_decompose(a)
    per = [None if dec.is_trivial[c] else _component(a, dec.components[c])
           for c in range(dec.k)]
    lams = [NEG_INF if pc is None else pc.lam for pc in per]
    lam_global = max(lams, default=NEG_INF)
    if lam_global == NEG_INF:
        return None

    crit_edges, comps, cyc, cls = [], [], [], {}
    for pc, below in zip(per, _exceeds(lam_global, lams, CRIT_TOL)):
        if below:
            continue
        crit_edges.extend(pc.crit_edges)
        for comp, g in zip(pc.crit_components, pc.cyclicity_of):
            for v in comp:
                cls[v] = (len(comps), pc.class_of[v][1])
            comps.append(comp)
            cyc.append(g)
    return CriticalStructure(
        scc=dec,
        lambda_global=lam_global,
        lambda_of_component=tuple(lams),
        critical_nodes=tuple(sorted(cls)),
        critical_edges=tuple(sorted(crit_edges)),
        critical_components=tuple(comps),
        cyclicity_of=tuple(cyc),
        class_of=MappingProxyType(cls),
        gamma_lcm=math.lcm(*cyc),
        per_component=tuple(per),
    )


@dataclass(frozen=True)
class CritSubgraph:
    """A completely reducible critical selection: nodes, edges, and the
    cyclic-class bookkeeping needed for CSR factors, read-only.  Build
    one with the classmethods."""

    nodes: frozenset
    edges: frozenset
    components: tuple
    cyclicity_of: tuple
    class_of: MappingProxyType
    gamma: int
    members: tuple      # per component: class id -> node tuple

    @classmethod
    def from_edges(cls, edges) -> "CritSubgraph":
        edges = {(int(i), int(j)) for i, j in edges}
        nodes, ends = np.unique(np.array(list(edges), dtype=int).reshape(-1, 2),
                                return_inverse=True)
        mask = np.zeros((nodes.size, nodes.size), dtype=bool)
        mask[tuple(ends.reshape(-1, 2).T)] = True
        return cls._assemble([(edges, *_mask_classes(nodes, mask))])

    @classmethod
    def _assemble(cls, parts) -> "CritSubgraph":
        """The selection from class data already at hand: parts are (edges,
        components, cyclicities, class_of) of disjoint node sets, the last
        three as _mask_classes returns them.  Components are renumbered by
        least node, as from_edges numbers them, so both give equal
        selections."""
        found = sorted(((comp, g, class_of) for _, comps, cyc, class_of in parts
                        for comp, g in zip(comps, cyc)),
                       key=lambda part: part[0][0])
        comps, cyc, class_of, members = [], [], {}, []
        for ci, (comp, g, part_classes) in enumerate(found):
            buckets = [[] for _ in range(g)]
            for v in comp:
                class_of[v] = (ci, part_classes[v][1])
                buckets[class_of[v][1]].append(v)
            comps.append(tuple(comp))
            cyc.append(g)
            members.append(tuple(map(tuple, buckets)))
        return cls(frozenset(v for comp in comps for v in comp),
                   frozenset(e for part in parts for e in part[0]),
                   tuple(comps), tuple(cyc), MappingProxyType(class_of),
                   math.lcm(*cyc), tuple(members))

    @classmethod
    def from_critical_structure(cls, cs: CriticalStructure) -> "CritSubgraph":
        return cls._assemble([(cs.critical_edges, cs.critical_components,
                               cs.cyclicity_of, cs.class_of)])

    @classmethod
    def from_cycle(cls, cycle) -> "CritSubgraph":
        """Selection consisting of one cycle given as a node sequence."""
        edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        return cls.from_edges(edges)


def gamma_u(a: TropicalMatrix) -> int:
    """lcm of the critical cyclicities of all nontrivial components (1 when
    the digraph is acyclic), read off the memoized critical analysis."""
    cs = _critical(a)
    if cs is None:
        return 1
    return math.lcm(*(g for pc in cs.per_component if pc is not None
                      for g in pc.cyclicity_of))


def strong_access_matrix(a: TropicalMatrix) -> np.ndarray:
    """Boolean matrix: entry (i, j) true iff paths i -> j exist of every
    sufficiently large length: _strong_access over all rows, once per
    matrix (every call returns the same read-only array)."""
    return a._cached("strong_access", lambda: _strong_access(a, range(a.n)))


def _strong_access(a: TropicalMatrix, rows) -> np.ndarray:
    """The given rows of the strong-access matrix, read-only.

    Past t0 = 3 n^2, beyond every Boolean transient, row i of B^t is
    periodic in t and row i of B^(t+1) reads row i of B^t alone; so the
    AND over B^t0 ... B^(t0+r-1), r the row's first return to its B^t0
    value, is row i.  Each row is stepped by B until it returns, at most
    gamma_u - 1 steps (the window of gamma_u exponents the period
    divides).  A node of a nontrivial component C returns within |C|
    steps (a closed walk at it makes the period divide C's Boolean
    cyclicity); a trivial node may take the lcm of the cycles it fans
    out to.
    """
    b = a.finite_mask()
    home = _power_chain(b, 3 * a.n * a.n, _bool_matmul)[rows]
    acc = home.copy()
    step = b.astype(np.float32)
    live, cur = np.arange(len(home)), home
    for _ in range(gamma_u(a) - 1):
        if not live.size:
            break
        cur = _bool_matmul(cur, step)
        acc[live] &= cur
        going = (cur != home[live]).any(axis=1)
        live, cur = live[going], cur[going]
    acc.setflags(write=False)
    return acc


def strong_access(a: TropicalMatrix, i: int, j: int) -> bool:
    i, j = _check_node(a, i), _check_node(a, j)
    return bool(strong_access_matrix(a)[i, j])
