"""Digraph structure of a max-plus matrix.

Covers strongly connected components, maximum cycle means (Karp), the
critical graph with its cyclic classes, and the strong-access relation
(paths of every sufficiently large length).

Node indices are 0-based throughout the library.
"""

from __future__ import annotations

import heapq
import math
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (CRIT_TOL, NEG_INF, TropicalMatrix, _check_node,
                   _exact_sums, _overflow_checked, _power_chain, _power_stack,
                   _stack_depth)
from .errors import NoCyclesError, NonFiniteError


def wielandt(n: int) -> int:
    """Boolean periodicity threshold (n-1)^2 + 1 for an n-node component."""
    if n <= 1:
        return 1
    return (n - 1) ** 2 + 1


@dataclass
class SccDecomposition:
    """Strongly connected components with access between them.

    components are listed in a topological order consistent with access:
    if component p accesses component q then q appears before p (accessed
    components first).  access[p][q] is the reflexive-transitive access
    relation between component indices.
    """

    n: int
    component_of: np.ndarray
    components: list
    is_trivial: list
    access: np.ndarray

    @property
    def k(self) -> int:
        return len(self.components)

    def nontrivial(self):
        return [c for c in range(self.k) if not self.is_trivial[c]]


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.astype(np.float32) @ y.astype(np.float32)) > 0


def _strong_components(b: np.ndarray):
    """(reach, label) of a Boolean adjacency: reach is the reflexive-
    transitive closure, (I or B)^t for a power of two t >= n - 1 squared
    until it stops changing; label[i] is the least node of i's strong
    component, the first j with reach[i, j] and reach[j, i]."""
    n = b.shape[0]
    if not n:
        return b, np.zeros(0, dtype=int)
    reach = _power_chain(b | np.eye(n, dtype=bool), 1 << (n - 1).bit_length(),
                         _bool_matmul)
    return reach, (reach & reach.T).argmax(axis=1)


def _group(comp: np.ndarray, k: int):
    """(node lists, sizes) of the k components numbered by comp, each
    list in increasing order."""
    sizes = np.bincount(comp, minlength=k)
    nodes = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    return [nodes[s:e] for s, e in zip([0] + ends, ends)], sizes


def _accessed_first(acc: np.ndarray) -> np.ndarray:
    """Components, numbered by least node, in Kahn order on their access
    block acc: each after every component it accesses, the least ready
    one first.  A component with no access either way is ready
    throughout, so it merges into the order of the others: it goes just
    before the first of them with a larger least node."""
    off = acc & ~np.eye(acc.shape[0], dtype=bool)
    waits = np.count_nonzero(off, axis=1)
    linked = (waits > 0) | off.any(axis=0)
    ready = np.flatnonzero(linked & (waits == 0)).tolist()  # sorted: a heap
    waits = waits.tolist()
    chain = []
    while ready:
        c = heapq.heappop(ready)
        chain.append(c)
        for p in np.flatnonzero(off[:, c]).tolist():
            waits[p] -= 1
            if not waits[p]:
                heapq.heappush(ready, p)
    chain, free = np.array(chain, dtype=int), np.flatnonzero(~linked)
    at = np.searchsorted(np.maximum.accumulate(chain), free, side="right")
    return np.insert(chain, at, free)


def scc_decompose(a: TropicalMatrix) -> SccDecomposition:
    """Strongly connected components plus the access relation, both read
    off the Boolean closure of the finite pattern."""
    b = a.finite_mask()
    reach, least = _strong_components(b)
    roots = np.flatnonzero(least == np.arange(a.n))
    acc = reach[roots][:, roots]
    order = _accessed_first(acc)
    top = roots[order]
    rank = np.empty(a.n, dtype=int)
    rank[top] = np.arange(top.size)
    components, sizes = _group(rank[least], top.size)
    return SccDecomposition(a.n, rank[least], components,
                            ((sizes == 1) & ~b[top, top]).tolist(),
                            acc[order][:, order])


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
    sub = arr[nodes][:, nodes]
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


@dataclass
class ComponentCriticals:
    """Critical data of one nontrivial component, computed in isolation;
    star is the read-only Kleene star of its block minus lam."""

    nodes: list
    lam: float
    crit_nodes: list
    crit_edges: list
    crit_components: list      # list of node lists
    cyclicity_of: list         # per crit component
    class_of: dict             # node -> (crit component index, class id)
    star: np.ndarray


def _component_criticals(a: TropicalMatrix, nodes) -> ComponentCriticals:
    """Critical data of one nontrivial component; lam is Karp's unless
    _certified_mean gives the same float more cheaply."""
    nodes = sorted(nodes)
    block = a.arr[nodes][:, nodes]
    lam, star = (_certified_mean(block) if _exact_sums(a, 8 * len(nodes) ** 3)
                 else (None, None))
    if star is None:
        lam = _karp(a.arr, nodes)
        star = _floyd_warshall_star(block - lam)
    sub = block - lam
    star.setflags(write=False)
    # edge (a, b) is critical iff it closes a cycle of weight 0: a -inf
    # entry of sub never passes, and np.nonzero keeps row-major edge order
    crit = sub + star.T >= -CRIT_TOL
    aa, bb = np.nonzero(crit)
    idx = np.array(nodes)
    crit_edges = list(zip(idx[aa].tolist(), idx[bb].tolist()))
    on = np.flatnonzero(crit.any(axis=0) | crit.any(axis=1))
    comps, cyc, cls = _mask_classes(idx[on], crit[on][:, on])
    return ComponentCriticals(nodes, lam, idx[on].tolist(), crit_edges, comps,
                              cyc, cls, star)


def _certified_mean(block: np.ndarray):
    """(mu, star of block - mu) when mu, the best cycle mean of the graph
    keeping each node's heaviest out-edge (Howard's first policy), is
    certified as the block's maximum cycle mean; (None, None) otherwise.

    The certificate is a star diagonal <= CRIT_TOL.  It is a proof on
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
    try:
        star = _floyd_warshall_star(block - mu)
    except NonFiniteError:
        return None, None
    if star.diagonal().max() > CRIT_TOL:
        return None, None
    return mu, star


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


def _mask_classes(nodes: np.ndarray, mask: np.ndarray):
    """(components, cyclicities, class_of) of the edges mask[a, b]:
    nodes[a] -> nodes[b], every node on a cycle.  Components are node
    lists ordered by least node; the level of a node is its distance from
    the least node of its component, the cyclicity is the gcd over the
    component's edges (a, b) of level(a) + 1 - level(b) (the gcd of its
    cycle lengths), and class_of maps each node to (component, level mod
    cyclicity)."""
    _, label = _strong_components(mask)
    roots = np.flatnonzero(label == np.arange(label.size))
    comp = np.searchsorted(roots, label)
    members, _ = _group(comp, roots.size)
    inner = mask & (label[:, None] == label)
    level = np.full(label.size, -1)
    front, depth = label == np.arange(label.size), 0
    while front.any():          # breadth-first from every root at once
        level[front] = depth
        front = inner[front].any(axis=0) & (level < 0)
        depth += 1
    aa, bb = np.nonzero(inner)
    cyc = np.zeros(roots.size, dtype=int)
    np.gcd.at(cyc, comp[aa], level[aa] + 1 - level[bb])
    cyc = np.maximum(cyc, 1)
    cls = level % cyc[comp]
    class_of = {}
    for ci, part in enumerate(members):
        class_of.update(zip(nodes[part].tolist(),
                            zip([ci] * len(part), cls[part].tolist())))
    return ([nodes[part].tolist() for part in members], cyc.tolist(),
            class_of)


@dataclass
class CriticalStructure:
    """Critical graph of a matrix together with per-component cycle means.

    critical_* fields describe the globally critical part (cycles attaining
    lambda_global).  per_component keeps the same analysis for every
    nontrivial component at its own cycle mean, indexed like scc.components.
    """

    scc: SccDecomposition
    lambda_global: float
    lambda_of_component: list
    critical_nodes: list
    critical_edges: list
    critical_components: list
    cyclicity_of: list
    class_of: dict
    gamma_lcm: int
    per_component: list

    def lambda_of_node(self, v: int) -> float:
        return self.lambda_of_component[int(self.scc.component_of[v])]


def critical_structure(a: TropicalMatrix, _copy: bool = True) -> CriticalStructure:
    """Full critical analysis at CRIT_TOL; raises NoCyclesError on acyclic
    input.

    Computed once per matrix; every call returns a fresh copy (_copy=False
    is _critical's miss, which hands out nothing).
    """
    cs = a._cached("critical", lambda: _analyse(a))
    if cs is None:
        raise NoCyclesError("no cycles")
    return _copy_sharing_stars(cs) if _copy else cs


def _copy_sharing_stars(cs: CriticalStructure) -> CriticalStructure:
    """A deep copy of cs whose components share cs's read-only stars.  A
    pickle round trip is a deep copy, about ten times faster here than
    copy.deepcopy; the stars stay out of it."""
    shell = replace(cs, per_component=[
        None if pc is None else replace(pc, star=None)
        for pc in cs.per_component])
    out = pickle.loads(pickle.dumps(shell, pickle.HIGHEST_PROTOCOL))
    for pc, src in zip(out.per_component, cs.per_component):
        if pc is not None:
            pc.star = src.star
    return out


def _critical(a: TropicalMatrix) -> CriticalStructure | None:
    """The memoized structure itself (None when acyclic), for read-only use.

    A miss goes through critical_structure, so that each analysis of a
    matrix is one call of the public layer.
    """
    if "critical" not in a._memo:
        try:
            critical_structure(a, _copy=False)
        except NoCyclesError:
            pass
    return a._memo["critical"]


# _memo key of the analyses by component node tuple.  A deflation level
# keeps the root's entries on its nodes, so levels share the root's.
_COMPONENT_MEMO = "components"


def _analyse(a: TropicalMatrix) -> CriticalStructure | None:
    dec = scc_decompose(a)
    memo = a._cached(_COMPONENT_MEMO, dict)
    per = [None] * dec.k
    for c in dec.nontrivial():
        key = tuple(dec.components[c])
        if key not in memo:
            memo[key] = _component_criticals(a, dec.components[c])
        per[c] = memo[key]
    lams = [NEG_INF if pc is None else pc.lam for pc in per]
    lam_global = max(lams, default=NEG_INF)
    if lam_global == NEG_INF:
        return None

    crit_nodes, crit_edges, comps, cyc = [], [], [], []
    cls = {}
    for pc in per:
        if pc is None or pc.lam < lam_global - CRIT_TOL:
            continue
        crit_nodes.extend(pc.crit_nodes)
        crit_edges.extend(pc.crit_edges)
        for comp, g in zip(pc.crit_components, pc.cyclicity_of):
            for v in comp:
                cls[v] = (len(comps), pc.class_of[v][1])
            comps.append(comp)
            cyc.append(g)
    return CriticalStructure(
        scc=dec,
        lambda_global=lam_global,
        lambda_of_component=lams,
        critical_nodes=sorted(crit_nodes),
        critical_edges=sorted(crit_edges),
        critical_components=comps,
        cyclicity_of=cyc,
        class_of=cls,
        gamma_lcm=math.lcm(*cyc),
        per_component=per,
    )


@dataclass
class CritSubgraph:
    """A completely reducible critical selection: nodes, edges, and the
    cyclic-class bookkeeping needed for CSR factors."""

    nodes: frozenset
    edges: frozenset
    components: list
    cyclicity_of: list
    class_of: dict
    gamma: int
    members: list = field(default=None)   # per component: class id -> node list

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
            comps.append(list(comp))
            cyc.append(g)
            members.append(buckets)
        return cls(frozenset(v for comp in comps for v in comp),
                   frozenset(e for part in parts for e in part[0]), comps,
                   cyc, class_of, math.lcm(*cyc), members)

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
    sufficiently large length.

    Checked on Boolean powers at t0 = 3 n^2 over a window of gamma_u
    consecutive exponents; the Boolean power sequence is periodic there and
    its period divides gamma_u.  Past W = B^t0 the window is ANDed k
    exponents at a time, k = min(gamma_u - 1, 2**14 // n^2) (at least 1):
    W times the stack [B^1 | ... | B^k], split into its k blocks, and the
    last block is the next W.  Computed once per matrix; every call
    returns a fresh copy.
    """
    return a._cached("strong_access", lambda: _strong_access(a)).copy()


def _strong_access(a: TropicalMatrix) -> np.ndarray:
    n = a.n
    b = a.finite_mask()
    g = gamma_u(a)
    k = _stack_depth(n, g - 1)
    stack = _power_stack(b, k, _bool_matmul)
    window = _power_chain(b, 3 * n * n, _bool_matmul)
    acc = window.copy()
    for s in range(1, g, k):
        r = min(k, g - s)
        block = _bool_matmul(window, stack[:, :r * n])
        acc &= block.reshape(n, r, n).all(axis=1)
        window = block[:, -n:]
    return acc


def strong_access(a: TropicalMatrix, i: int, j: int) -> bool:
    _check_node(a, i)
    _check_node(a, j)
    return bool(strong_access_matrix(a)[i, j])
