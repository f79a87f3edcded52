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
from dataclasses import dataclass, field

import numpy as np

from .core import (NEG_INF, TropicalMatrix, _power_chain, _power_stack,
                   _stack_depth)
from .errors import NoCyclesError

# Tolerance for deciding criticality of an edge after normalizing by a
# possibly fractional cycle mean.  Integer inputs keep residues below 1e-12
# at desk scale, while distinct rational cycle means differ by at least
# 1/n^2, so 1e-9 separates cleanly.
CRIT_TOL = 1e-9


def wielandt(n: int) -> int:
    """Boolean periodicity threshold (n-1)^2 + 1 for an n-node component."""
    if n <= 1:
        return 1
    return (n - 1) ** 2 + 1


class Digraph:
    """Adjacency view of the finite pattern of a matrix."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = list(edges)
        self.adj = [[] for _ in range(n)]
        for i, j, w in self.edges:
            self.adj[i].append((j, w))
        for lst in self.adj:
            lst.sort()

    @classmethod
    def from_matrix(cls, a: TropicalMatrix) -> "Digraph":
        ii, jj = np.nonzero(a.finite_mask())
        return cls(a.n, [(int(i), int(j), float(a.arr[i, j])) for i, j in zip(ii, jj)])

    def successors(self, i: int):
        return [j for j, _ in self.adj[i]]


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


def _tarjan(n: int, adj) -> list:
    """Iterative Tarjan; returns components in pop order (sinks first)."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = adj[v]
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def scc_decompose(g: Digraph | TropicalMatrix) -> SccDecomposition:
    """Strongly connected components plus the access relation."""
    if isinstance(g, TropicalMatrix):
        adj = [np.flatnonzero(row).tolist() for row in g.finite_mask()]
    else:
        adj = [[j for j, _ in g.adj[i]] for i in range(g.n)]
    n = len(adj)
    comps = _tarjan(n, adj)

    comp_of = np.empty(n, dtype=int)
    for c, nodes in enumerate(comps):
        for v in nodes:
            comp_of[v] = c
    k = len(comps)

    # condensation edges, then order components so accessed ones come first
    cond_succ = [set() for _ in range(k)]
    for i in range(n):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                cond_succ[comp_of[i]].add(int(comp_of[j]))
    # accessed-first == topological order of the reversed condensation
    indeg = [0] * k        # indegree in the reversed DAG = outdegree here
    rev = [set() for _ in range(k)]
    for p in range(k):
        for q in cond_succ[p]:
            rev[q].add(p)
            indeg[p] += 1
    heap = [(min(comps[c]), c) for c in range(k) if indeg[c] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for p in rev[c]:
            indeg[p] -= 1
            if indeg[p] == 0:
                heapq.heappush(heap, (min(comps[p]), p))

    remap = {old: new for new, old in enumerate(order)}
    components = [comps[c] for c in order]
    component_of = np.array([remap[int(c)] for c in comp_of])
    is_trivial = [len(nodes) == 1 and nodes[0] not in adj[nodes[0]]
                  for nodes in components]

    access = np.eye(k, dtype=bool)
    # components are accessed-first, so successors of p precede p
    for p in range(k):
        for q_old in cond_succ[order[p]]:
            q = remap[q_old]
            access[p] |= access[q]
    return SccDecomposition(n, component_of, components, is_trivial, access)


def max_cycle_mean(g: Digraph | TropicalMatrix, component=None) -> float:
    """Maximum cycle mean by Karp's algorithm.

    With component=None the whole node set is used and the result is the
    global maximum over all components (-inf when the digraph is acyclic).
    """
    if isinstance(g, TropicalMatrix):
        arr = g.arr
    else:
        arr = np.full((g.n, g.n), NEG_INF)
        for i, j, w in g.edges:
            arr[i, j] = w
    if component is None:
        dec = scc_decompose(g)
        best = NEG_INF
        for c in dec.nontrivial():
            best = max(best, _karp(arr, dec.components[c]))
        return best
    nodes = sorted(component)
    if len(nodes) == 1 and arr[nodes[0], nodes[0]] == NEG_INF:
        return NEG_INF
    return _karp(arr, nodes)


def _karp(arr: np.ndarray, nodes) -> float:
    """Karp on one strongly connected node set (source = nodes[0])."""
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
    """Critical data of one nontrivial component, computed in isolation."""

    nodes: list
    lam: float
    crit_nodes: list
    crit_edges: list
    crit_components: list      # list of node lists
    cyclicity_of: list         # per crit component
    class_of: dict             # node -> (crit component index, class id)


def _component_criticals(arr: np.ndarray, nodes, tol: float) -> ComponentCriticals:
    nodes = sorted(nodes)
    lam = _karp(arr, nodes)
    sub = arr[np.ix_(nodes, nodes)] - lam
    star = _floyd_warshall_star(sub)
    # edge (a, b) is critical iff it closes a cycle of weight 0: a -inf
    # entry of sub never passes, and np.nonzero keeps row-major edge order
    aa, bb = np.nonzero(sub + star.T >= -tol)
    idx = np.array(nodes)
    crit_edges = list(zip(idx[aa].tolist(), idx[bb].tolist()))
    crit_nodes = sorted({v for e in crit_edges for v in e})
    comps, cyc, cls = _cyclic_classes(crit_nodes, crit_edges)
    return ComponentCriticals(nodes, lam, crit_nodes, crit_edges, comps, cyc, cls)


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


def _cyclic_classes(nodes, edges):
    """SCCs of an edge set where every node lies on a cycle, with the
    cyclicity (gcd of cycle lengths) and BFS-level classes of each."""
    adj = {v: [] for v in nodes}
    for i, j in edges:
        adj[i].append(j)
    for v in adj:
        adj[v].sort()
    idx = {v: i for i, v in enumerate(nodes)}
    comps_raw = _tarjan(len(nodes), [[idx[j] for j in adj[nodes[i]]] for i in range(len(nodes))])
    comps = sorted(([nodes[i] for i in comp] for comp in comps_raw), key=min)
    cyclicities = []
    class_of = {}
    for ci, comp in enumerate(comps):
        comp_set = set(comp)
        inner = [(i, j) for i, j in edges if i in comp_set and j in comp_set]
        level = {}
        for v, u in _bfs(inner, [min(comp)])[1].items():    # parents first
            level[v] = 0 if u is None else level[u] + 1
        g = 0
        for i, j in inner:
            g = math.gcd(g, level[i] + 1 - level[j])
        g = max(g, 1)
        cyclicities.append(g)
        for v in comp:
            class_of[v] = (ci, level[v] % g)
    return comps, cyclicities, class_of


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


def critical_structure(a: TropicalMatrix, tol: float = CRIT_TOL) -> CriticalStructure:
    """Full critical analysis; raises NoCyclesError on acyclic input.

    Computed once per matrix and tol; every call returns a fresh copy.
    """
    cs = a._cached(("critical", tol), lambda: _analyse(a, tol))
    if cs is None:
        raise NoCyclesError("no cycles")
    # a pickle round trip is a deep copy too, about ten times faster here
    return pickle.loads(pickle.dumps(cs, -1))


def _critical(a: TropicalMatrix, tol: float = CRIT_TOL) -> CriticalStructure | None:
    """The memoized structure itself (None when acyclic), for read-only use.

    A miss goes through critical_structure, so that each analysis of a
    matrix is one call of the public layer.
    """
    key = ("critical", tol)
    if key not in a._memo:
        try:
            critical_structure(a, tol)
        except NoCyclesError:
            pass
    return a._memo[key]


def _analyse(a: TropicalMatrix, tol: float) -> CriticalStructure | None:
    dec = scc_decompose(a)
    per = [None] * dec.k
    lams = [NEG_INF] * dec.k
    for c in dec.nontrivial():
        per[c] = _component_criticals(a.arr, dec.components[c], tol)
        lams[c] = per[c].lam
    lam_global = max(lams, default=NEG_INF)
    if lam_global == NEG_INF:
        return None

    crit_nodes, crit_edges, comps, cyc = [], [], [], []
    cls = {}
    for c in dec.nontrivial():
        pc = per[c]
        if pc.lam < lam_global - tol:
            continue
        crit_nodes.extend(pc.crit_nodes)
        crit_edges.extend(pc.crit_edges)
        for local_ci, comp in enumerate(pc.crit_components):
            offset = len(comps)
            comps.append(comp)
            cyc.append(pc.cyclicity_of[local_ci])
            for v in comp:
                cls[v] = (offset, pc.class_of[v][1])
    gamma = 1
    for g in cyc:
        gamma = math.lcm(gamma, g)
    return CriticalStructure(
        scc=dec,
        lambda_global=lam_global,
        lambda_of_component=lams,
        critical_nodes=sorted(crit_nodes),
        critical_edges=sorted(crit_edges),
        critical_components=comps,
        cyclicity_of=cyc,
        class_of=cls,
        gamma_lcm=gamma,
        per_component=per,
    )


@dataclass
class CritSubgraph:
    """A completely reducible critical selection: nodes, edges, and the
    cyclic-class bookkeeping needed for CSR factors and rotations."""

    nodes: frozenset
    edges: frozenset
    components: list
    cyclicity_of: list
    class_of: dict
    gamma: int
    members: list = field(default=None)   # per component: class id -> node list

    @classmethod
    def from_edges(cls, edges) -> "CritSubgraph":
        edges = sorted(set((int(i), int(j)) for i, j in edges))
        nodes = sorted({v for e in edges for v in e})
        comps, cyc, class_of = _cyclic_classes(nodes, edges)
        gamma = 1
        for g in cyc:
            gamma = math.lcm(gamma, g)
        members = []
        for ci, comp in enumerate(comps):
            buckets = [[] for _ in range(cyc[ci])]
            for v in sorted(comp):
                buckets[class_of[v][1]].append(v)
            members.append(buckets)
        return cls(frozenset(nodes), frozenset(edges), comps, cyc, class_of,
                   gamma, members)

    @classmethod
    def from_critical_structure(cls, cs: CriticalStructure) -> "CritSubgraph":
        return cls.from_edges(cs.critical_edges)

    @classmethod
    def from_cycle(cls, cycle) -> "CritSubgraph":
        """Selection consisting of one cycle given as a node sequence."""
        edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        return cls.from_edges(edges)


def cyclic_class_shift(crit, component: int, t: int) -> list:
    """Class permutation induced by paths of length t within one critical
    component: class c maps to class (c + t) mod gamma.  Accepts a
    CritSubgraph or a CriticalStructure (both carry cyclicity_of)."""
    gamma = crit.cyclicity_of[component]
    return [(c + t) % gamma for c in range(gamma)]


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.astype(np.float32) @ y.astype(np.float32)) > 0


def gamma_u(a: TropicalMatrix) -> int:
    """lcm of the critical cyclicities of all nontrivial components (1 when
    the digraph is acyclic)."""
    return a._cached("gamma_u", lambda: _cyclicity_lcm(_critical(a)))


def _cyclicity_lcm(cs: CriticalStructure | None) -> int:
    if cs is None:
        return 1
    g = 1
    for pc in cs.per_component:
        if pc is None:
            continue
        for c in pc.cyclicity_of:
            g = math.lcm(g, c)
    return g


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
    return bool(strong_access_matrix(a)[i, j])
