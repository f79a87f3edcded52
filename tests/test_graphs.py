"""Digraph analysis: components, cycle means, critical graphs, classes.

Reference values come from exhaustive simple-cycle enumeration (networkx),
Boolean reachability and a test-local Tarjan, never from the routines
under test.
"""

import heapq
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from maxplus import (CRIT_TOL, CritSubgraph, DimensionError, NEG_INF,
                     NoCyclesError, NonFiniteError, TropicalMatrix,
                     boolean_power_reach, critical_structure, csr_build, gamma_u, max_cycle_mean,
                     is_orbit_periodic, nachtigall_expand, pair_periodicity,
                     scc_decompose, strong_access, strong_access_matrix,
                     ultimate_expand, wielandt)
from maxplus import graphs
from maxplus.csr import _shift
from maxplus.graphs import (_bool_matmul, _component_criticals,
                            _floyd_warshall_star, _karp)

from conftest import (cycle_chain, has_cycle, random_cyclic,
                      random_definite, random_matrix, random_reducible)
from test_expansions import small_weighted

TOL = 1e-9


def to_nx(a: TropicalMatrix) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(a.n))
    ii, jj = np.nonzero(a.finite_mask())
    g.add_edges_from(zip(ii.tolist(), jj.tolist()))
    return g


def enumerate_cycles(a: TropicalMatrix):
    """All simple cycles with their mean weights."""
    out = []
    for cyc in nx.simple_cycles(to_nx(a)):
        w = sum(a.arr[cyc[k], cyc[(k + 1) % len(cyc)]]
                for k in range(len(cyc)))
        out.append((cyc, w / len(cyc)))
    return out


def critical_by_enumeration(a: TropicalMatrix):
    """(lambda, critical edge set) from exhaustive cycle enumeration."""
    cycles = enumerate_cycles(a)
    lam = max((mean for _, mean in cycles), default=NEG_INF)
    edges = set()
    for cyc, mean in cycles:
        if mean >= lam - TOL:
            edges |= {(cyc[k], cyc[(k + 1) % len(cyc)])
                      for k in range(len(cyc))}
    return lam, edges


# ------------------------------------------------------------ components

def test_scc_matches_reachability_closure():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        dec = scc_decompose(a)
        g = to_nx(a)
        reach = {i: nx.descendants(g, i) | {i} for i in range(n)}
        for i in range(n):
            for j in range(n):
                same = j in reach[i] and i in reach[j]
                assert same == (dec.component_of[i] == dec.component_of[j])
                # access relation between the components of i and j
                assert (j in reach[i]) == bool(
                    dec.access[dec.component_of[i], dec.component_of[j]])
        # accessed components must be listed first
        for p in range(dec.k):
            for q in range(dec.k):
                if p != q and dec.access[p, q]:
                    assert q < p
        for c, nodes in enumerate(dec.components):
            loop = len(nodes) == 1 and a.arr[nodes[0], nodes[0]] != NEG_INF
            assert dec.is_trivial[c] == (len(nodes) == 1 and not loop)


def test_scc_complete_digraph():
    dec = scc_decompose(TropicalMatrix(np.zeros((5, 5))))
    assert dec.k == 1 and dec.components == ((0, 1, 2, 3, 4),)
    assert dec.nontrivial() == [0]


def test_scc_example_components(ex2):
    dec = scc_decompose(ex2)
    assert dec.components == ((0, 1, 2, 3), (4, 5, 6))
    assert dec.is_trivial == (False, False)
    assert dec.access[1, 0] and not dec.access[0, 1]


# ----------------------------------------------------------- cycle means

def test_max_cycle_mean_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = random_matrix(rng, n)
        lam, _ = critical_by_enumeration(a)
        assert abs(max_cycle_mean(a) - lam) <= TOL or \
            (lam == NEG_INF and max_cycle_mean(a) == NEG_INF)


def test_max_cycle_mean_self_loop():
    assert max_cycle_mean(TropicalMatrix([[-1.0]])) == -1.0


def test_max_cycle_mean_example_and_acyclic(ex1):
    assert max_cycle_mean(ex1) == 0.0
    acyclic = TropicalMatrix.from_rows([[None, 3.0], [None, None]])
    assert max_cycle_mean(acyclic) == NEG_INF
    with pytest.raises(NoCyclesError):
        critical_structure(acyclic)


def test_max_cycle_mean_overflow_raises():
    a = TropicalMatrix(np.full((2, 2), 1e308))
    with pytest.raises(NonFiniteError):
        max_cycle_mean(a)
    with pytest.raises(NonFiniteError):     # too large to certify: Karp
        critical_structure(a)


def test_max_cycle_mean_per_component(ex2):
    cs = critical_structure(ex2)
    assert cs.lambda_of_component[0] == 0.0
    assert cs.lambda_of_component[1] == -1.0


# ------------------------------------------------------- critical graphs

def test_critical_structure_example1(ex1):
    cs = critical_structure(ex1)
    assert cs.lambda_global == 0.0
    assert cs.critical_nodes == (0, 1)
    assert cs.critical_edges == ((0, 1), (1, 0))
    assert cs.critical_components == ((0, 1),)
    assert cs.cyclicity_of == (2,)
    assert cs.gamma_lcm == 2
    assert cs.lambda_of_node(0) == 0.0


def test_critical_structure_single_loop():
    cs = critical_structure(TropicalMatrix([[0.0]]))
    assert cs.lambda_global == 0.0
    assert cs.critical_edges == ((0, 0),)
    assert cs.cyclicity_of == (1,)
    assert cs.gamma_lcm == 1


def test_critical_structure_example3(ex3a):
    cs = critical_structure(ex3a)
    assert cs.lambda_global == 1.0
    # global critical part covers only the top cycle mean
    assert cs.critical_nodes == (0, 1, 2, 3)
    assert cs.critical_edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert cs.cyclicity_of == (4,)
    # per-component analysis keeps the second cycle at its own mean
    assert cs.scc.components == ((0, 1, 2, 3), (4, 5))
    assert cs.lambda_of_component == (1.0, 0.0)
    pc = cs.per_component[1]
    assert pc.lam == 0.0
    assert sorted(pc.crit_edges) == [(4, 5), (5, 4)]
    assert pc.cyclicity_of == (2,)
    assert gamma_u(ex3a) == 4


def test_critical_set_matches_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(25):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        lam, edges = critical_by_enumeration(a)
        cs = critical_structure(a)
        assert abs(cs.lambda_global - lam) <= TOL
        assert set(cs.critical_edges) == edges
        assert set(cs.critical_nodes) == {v for e in edges for v in e}


def test_cyclicity_matches_cycle_length_gcd():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        cs = critical_structure(a)
        crit = nx.DiGraph(cs.critical_edges)
        for ci, comp in enumerate(cs.critical_components):
            sub = crit.subgraph(comp)
            g = 0
            for cyc in nx.simple_cycles(sub):
                g = math.gcd(g, len(cyc))
            assert cs.cyclicity_of[ci] == max(g, 1)


def scaled(a: TropicalMatrix, z: np.ndarray) -> TropicalMatrix:
    """The diagonal similarity a_ij - z_i + z_j (-inf stays -inf)."""
    return TropicalMatrix(a.arr + (z[None, :] - z[:, None]))


def test_critical_structure_scaling_invariant():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_cyclic(rng, n)
        z = rng.integers(-5, 6, n).astype(float)
        cs, cz = critical_structure(a), critical_structure(scaled(a, z))
        assert cs.lambda_global == cz.lambda_global
        assert cs.critical_edges == cz.critical_edges
        assert cs.cyclicity_of == cz.cyclicity_of


# ---------------------------------------------------------- cyclic classes

def test_class_shift_identity_and_composition(ex3a):
    """Paths of length t move each slot (cyclic class) t classes on within
    its component: sigma_t of csr._shift."""
    crit = CritSubgraph.from_critical_structure(critical_structure(ex3a))
    slots = csr_build(ex3a.scale(-1.0), crit, check_definite=False).slots
    gamma = crit.cyclicity_of[0]
    assert gamma == 4 and slots[1].tolist() == [0, 1, 2, 3]
    assert _shift(slots, 0).tolist() == [0, 1, 2, 3]
    assert _shift(slots, gamma).tolist() == [0, 1, 2, 3]
    assert _shift(slots, 1).tolist() == [1, 2, 3, 0]
    s1, s2 = 3, 6
    # shifting by s1 then s2 equals shifting by s1 + s2
    composed = _shift(slots, s2)[_shift(slots, s1)]
    assert _shift(slots, s1 + s2).tolist() == composed.tolist() == \
        [((c + s1) + s2) % gamma for c in range(gamma)]


def test_class_membership_example3(ex3a):
    crit = CritSubgraph.from_critical_structure(critical_structure(ex3a))
    assert crit.members[0] == ((0,), (1,), (2,), (3,))
    assert crit.class_of[2] == (0, 2)


def test_crit_subgraph_without_members_fails_where_it_is_built():
    crit = CritSubgraph.from_cycle([0, 1])
    with pytest.raises(TypeError):
        CritSubgraph(crit.nodes, crit.edges, crit.components,
                     crit.cyclicity_of, crit.class_of, crit.gamma)


def test_path_length_congruence_within_component():
    """Walks between critical nodes have length == class difference
    mod cyclicity; checked on Boolean powers of the critical part."""
    rng = np.random.default_rng(25)
    for _ in range(10):
        a = random_definite(rng, int(rng.integers(2, 7)))
        cs = critical_structure(a)
        crit = CritSubgraph.from_critical_structure(cs)
        s_arr = np.full((a.n, a.n), NEG_INF)
        for i, j in crit.edges:
            s_arr[i, j] = 0.0
        s = TropicalMatrix(s_arr)
        for t in range(1, 13):
            reach = boolean_power_reach(s, t)
            for u in crit.nodes:
                cu_comp, cu = crit.class_of[u]
                for v in crit.nodes:
                    cv_comp, cv = crit.class_of[v]
                    if not reach[u][v]:
                        continue
                    assert cu_comp == cv_comp
                    gamma = crit.cyclicity_of[cu_comp]
                    assert (cv - cu) % gamma == t % gamma


def test_wielandt_numbers():
    assert wielandt(1) == 1
    assert wielandt(2) == 2
    assert wielandt(4) == 10


# ----------------------------------------------------------- strong access

def test_strong_access_loops():
    assert strong_access(TropicalMatrix([[0.0]]), 0, 0)
    assert not strong_access(TropicalMatrix.zeros(1), 0, 0)


def test_strong_access_rejects_nodes_out_of_range(ex3a):
    for i, j in ((6, 0), (0, 6), (-1, 0), (0, -7)):
        with pytest.raises(DimensionError, match="outside 0..5"):
            strong_access(ex3a, i, j)


def test_strong_access_example3(ex3a, ex3b):
    assert strong_access(ex3a, 5, 2)
    assert not strong_access(ex3b, 5, 2)
    assert strong_access(ex3a, 4, 1)
    # inside the 4-cycle arrival lengths are fixed mod 4
    assert not strong_access(ex3a, 0, 1)
    assert not strong_access(ex3b, 4, 1)


def test_strong_access_matches_boolean_powers(ex3a, ex3b):
    rng = np.random.default_rng(26)
    mats = [ex3a, ex3b] + [random_matrix(rng, int(rng.integers(2, 6)))
                           for _ in range(8)]
    for a in mats:
        n = a.n
        g = gamma_u(a)
        t0 = 3 * n * n
        acc = None
        for t in range(t0, t0 + 2 * g):
            reach = np.array(boolean_power_reach(a, t))
            acc = reach if acc is None else acc & reach
            if t == t0 + g - 1:
                one_window = acc.copy()
        # doubling the window does not change the verdict
        assert np.array_equal(acc, one_window)
        assert np.array_equal(strong_access_matrix(a), one_window)


def _strong_access_full_chain(a: TropicalMatrix) -> np.ndarray:
    """Strong access from the full Boolean square-and-multiply chain to
    t0 = 3 n^2, with no fixed-point stop, then a gamma_u window."""
    b = a.finite_mask()
    t = 3 * a.n * a.n
    window, base = np.eye(a.n, dtype=bool), b
    while t:
        if t & 1:
            window = _bool_matmul(window, base)
        t >>= 1
        if t:
            base = _bool_matmul(base, base)
    acc = window.copy()
    for _ in range(gamma_u(a) - 1):
        window = _bool_matmul(window, b)
        acc &= window
    return acc


def test_strong_access_matches_full_boolean_chain():
    rng = np.random.default_rng(28)
    mats = [random_matrix(rng, int(rng.integers(2, 25)),
                          density=float(rng.choice([0.1, 0.3, 0.6, 1.0])))
            for _ in range(24)]
    mats += [random_reducible(rng, n) for n in (5, 12, 30)]
    for a in mats:
        assert np.array_equal(strong_access_matrix(a),
                              _strong_access_full_chain(a))


def test_strong_access_stops_at_first_return(monkeypatch):
    """Each row is stepped past B^t0 only until it returns, at most
    gamma_u - 1 steps, and every answer is the gamma_u window's: gamma_u
    1, short and long windows, n = 1 and acyclic input.  On the 3, 4, 5,
    7, 11, 13, 17 chain (gamma_u = 1021020) no row takes more than 17
    products past the power chain, for the matrix, for condition 2 and
    for pair_periodicity."""
    rng = np.random.default_rng(29)
    acyclic = np.triu(rng.integers(-3, 4, (6, 6)).astype(float), 1)
    acyclic[np.tril_indices(6)] = NEG_INF
    dense = random_matrix(rng, 10, density=1.0).arr.copy()
    dense[0, 0] = 10.0                  # the one critical cycle is a loop
    zero_cycles = np.full((42, 42), NEG_INF)
    start = 1
    for length in (2, 3, 5, 7, 11, 13):
        for k in range(length):
            zero_cycles[start + k, start + (k + 1) % length] = 0.0
        zero_cycles[0, start] = 0.0
        start += length
    cases = [
        TropicalMatrix([[0.0]]),
        TropicalMatrix.zeros(1),
        TropicalMatrix(acyclic),
        TropicalMatrix(dense),
        cycle_chain(rng, (3, 4), (-1, 0), tail=1),
        cycle_chain(rng),
        cycle_chain(rng, tail=5),
        cycle_chain(rng, (3, 5), (0, 1), tail=38),
        TropicalMatrix(zero_cycles),    # row 0 returns after 30030 steps
    ]
    for a in cases:
        assert np.array_equal(strong_access_matrix(a),
                              _strong_access_full_chain(a))

    products = [0]

    def counting(x, y):
        products[0] += 1
        return _bool_matmul(x, y)

    def chain_then_count(*args):
        power = chain(*args)
        products[0] = 0             # count the products past the chain
        return power

    chain = graphs._power_chain
    monkeypatch.setattr(graphs, "_bool_matmul", counting)
    monkeypatch.setattr(graphs, "_power_chain", chain_then_count)
    arr = cycle_chain(rng, (3, 4, 5, 7, 11, 13, 17),
                      (-3, -2, -1, 0, 1, 2, 3)).arr
    first, last = 2, arr.shape[0] - 1      # in the 3-cycle, in the 17-cycle
    runs = [strong_access_matrix,
            lambda a: is_orbit_periodic(a, method="strong-access"),
            lambda a: pair_periodicity(a, first, last)]
    answers = []
    for run in runs:
        a = TropicalMatrix(arr)
        assert gamma_u(a) == 1021020
        answers.append(run(a))
        assert products[0] <= 17
    assert answers[0][first, last] and answers[1].verdict and answers[2]


@hs.composite
def cut_weighted(draw) -> tuple:
    """small_weighted's matrix cut into a chain of diagonal blocks along a
    drawn node order (entries from a later block to an earlier one set to
    -inf, so trivial nodes and chains of components occur), and a drawn
    row subset."""
    a = draw(small_weighted())
    order = draw(hs.permutations(range(a.n)))
    cuts = sorted(draw(hs.sets(hs.integers(1, a.n - 1))))
    block = np.empty(a.n, dtype=int)
    block[order] = np.searchsorted(cuts, np.arange(a.n), side="right")
    arr = a.arr.copy()
    arr[block[:, None] > block] = NEG_INF
    rows = sorted(draw(hs.sets(hs.integers(0, a.n - 1))))
    return TropicalMatrix(arr), rows


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(cut_weighted())
def test_strong_access_matches_oracle_window(case):
    """strong_access_matrix is the AND of the oracle's Boolean powers over
    t0 = 3 n^2 <= t < t0 + gamma_u, and _strong_access gives its rows of
    any row subset."""
    a, rows = case
    t0, g = 3 * a.n * a.n, gamma_u(a)
    want = np.ones((a.n, a.n), dtype=bool)
    for t in range(t0, t0 + g):
        want &= np.array(boolean_power_reach(a, t), dtype=bool)
    assert np.array_equal(strong_access_matrix(a), want)
    assert np.array_equal(graphs._strong_access(TropicalMatrix(a.arr), rows),
                          want[rows])


def test_strong_access_transitive():
    rng = np.random.default_rng(27)
    for _ in range(10):
        a = random_matrix(rng, int(rng.integers(2, 7)))
        sa = strong_access_matrix(a)
        n = a.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if sa[i, j] and sa[j, k]:
                        assert sa[i, k]


# ------------------------------------------- loop references of vector code

def karp_loops(arr, nodes):
    """Karp's formula with the scalar min/max loops of the first version."""
    k = len(nodes)
    sub = arr[np.ix_(nodes, nodes)]
    d = np.full((k + 1, k), NEG_INF)
    d[0, 0] = 0.0
    for step in range(1, k + 1):
        d[step] = (d[step - 1][:, None] + sub).max(axis=0)
    best = NEG_INF
    for v in range(k):
        if d[k, v] == NEG_INF:
            continue
        worst = math.inf
        for j in range(k):
            if d[j, v] == NEG_INF:
                continue
            worst = min(worst, (d[k, v] - d[j, v]) / (k - j))
        if worst < math.inf:
            best = max(best, worst)
    return best


def critical_edges_loops(arr, nodes, tol):
    """Critical-edge test of one component with the scalar double loop."""
    sub = arr[np.ix_(nodes, nodes)] - karp_loops(arr, nodes)
    star = _floyd_warshall_star(sub)
    edges = []
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            if sub[a, b] != NEG_INF and sub[a, b] + star[b, a] >= -tol:
                edges.append((nodes[a], nodes[b]))
    return edges


def fractional_matrix(rng, n):
    """Weights with fractional cycle means: integers over a random
    denominator, or unrounded normals; a random -inf pattern."""
    den = int(rng.choice([1, 2, 3, 7]))
    vals = (rng.integers(-20, 8, size=(n, n)) / den if rng.random() < 0.7
            else rng.normal(size=(n, n)))
    mask = rng.random((n, n)) < rng.uniform(0.15, 0.9)
    return TropicalMatrix(np.where(mask, vals, NEG_INF))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_vector_karp_and_criticals_match_loops():
    rng = np.random.default_rng(31)
    for _ in range(150):
        a = fractional_matrix(rng, int(rng.integers(1, 13)))
        dec = scc_decompose(a)
        assert bits(_karp(a.arr, list(range(a.n)))) == \
            bits(karp_loops(a.arr, list(range(a.n))))
        for c in dec.nontrivial():
            nodes = dec.components[c]
            assert bits(_karp(a.arr, nodes)) == bits(karp_loops(a.arr, nodes))
            got = _component_criticals(a, nodes)
            assert list(got.crit_edges) == critical_edges_loops(
                a.arr, nodes, CRIT_TOL)


# --------------------------------------- SCC reference: Tarjan plus Kahn

def tarjan_reference(n: int, adj) -> list:
    """Iterative Tarjan; components in pop order (sinks first)."""
    index, low = [-1] * n, [0] * n
    on_stack, stack, comps, counter = [False] * n, [], [], 0
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
            while pi < len(adj[v]):
                w = adj[v][pi]
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


def scc_reference(a: TropicalMatrix):
    """(components, component_of, is_trivial, access) from Tarjan and a
    Kahn order on the condensation: accessed components first, the ready
    one with the least node next; access closed along condensation edges."""
    adj = [np.flatnonzero(row).tolist() for row in a.finite_mask()]
    comps = tarjan_reference(a.n, adj)
    comp_of = [0] * a.n
    for c, nodes in enumerate(comps):
        for v in nodes:
            comp_of[v] = c
    succ = [set() for _ in comps]
    for i in range(a.n):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                succ[comp_of[i]].add(comp_of[j])
    waits = [len(s) for s in succ]
    users = [[p for p in range(len(comps)) if c in succ[p]]
             for c in range(len(comps))]
    heap = [(min(comps[c]), c) for c in range(len(comps)) if not waits[c]]
    heapq.heapify(heap)
    order = []
    while heap:
        _, c = heapq.heappop(heap)
        order.append(c)
        for p in users[c]:
            waits[p] -= 1
            if not waits[p]:
                heapq.heappush(heap, (min(comps[p]), p))
    rank = {c: k for k, c in enumerate(order)}
    access = np.eye(len(comps), dtype=bool)
    for p, c in enumerate(order):       # successors come first
        for q in succ[c]:
            access[p] |= access[rank[q]]
    components = [comps[c] for c in order]
    return (components, [rank[c] for c in comp_of],
            [len(nodes) == 1 and nodes[0] not in adj[nodes[0]]
             for nodes in components], access)


def test_scc_matches_tarjan_reference():
    rng = np.random.default_rng(33)
    loops = np.full((7, 7), NEG_INF)
    loops[[0, 3, 4, 6], [0, 3, 4, 6]] = 0.0
    mats = [TropicalMatrix([[0.0]]), TropicalMatrix.zeros(1),
            TropicalMatrix.zeros(5), TropicalMatrix(loops)]
    for density in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
        mats += [random_matrix(rng, int(rng.integers(1, 31)), density=density)
                 for _ in range(12)]
    mats += [random_reducible(rng, int(rng.integers(4, 25))) for _ in range(10)]
    mats.append(cycle_chain(rng))
    # deflation levels: restrictions that leave isolated nodes behind
    for a in list(mats):
        if has_cycle(a):
            for e in (nachtigall_expand(a), nachtigall_expand(a, "cycle"),
                      ultimate_expand(a)):
                mats += [a.restrict(st.k_set) for st in e.steps[1:]]
    assert sum(not a.finite_mask().any(axis=1).all() for a in mats) > 50
    for a in mats:
        comps, comp_of, trivial, access = scc_reference(a)
        dec = scc_decompose(a)
        assert list(map(list, dec.components)) == comps
        assert dec.component_of.tolist() == comp_of
        assert list(dec.is_trivial) == trivial
        assert dec.access.dtype == bool
        assert np.array_equal(dec.access, access)


def test_assembled_crit_subgraph_equals_class_search(ex1, ex2, ex3a, ex3b):
    """The canonical and ultimate selections are assembled from the
    per-component class data; a class search on their edges gives the
    same selection."""
    rng = np.random.default_rng(34)
    mats = [ex1, ex2, ex3a, ex3b, cycle_chain(rng), cycle_chain(rng, tail=5)]
    mats += [random_cyclic(rng, int(rng.integers(2, 12))) for _ in range(30)]
    mats += [random_reducible(rng, int(rng.integers(4, 16))) for _ in range(30)]
    mats += [random_definite(rng, int(rng.integers(2, 9))) for _ in range(10)]
    assembled = 0
    for a in mats:
        crits = [CritSubgraph.from_critical_structure(critical_structure(a))]
        crits += [st.crit for st in nachtigall_expand(a).steps]
        crits += [st.crit for st in ultimate_expand(a).steps]
        for crit in crits:
            want = CritSubgraph.from_edges(crit.edges)
            assert crit.nodes == want.nodes and crit.edges == want.edges
            assert crit.components == want.components
            assert crit.cyclicity_of == want.cyclicity_of
            assert crit.class_of == want.class_of
            assert crit.members == want.members
            assert crit.gamma == want.gamma
            assembled += len(crit.components) > 1
    assert assembled > 20


# ------------------------------------- certified cycle means, Karp fallback

def karp_first(arr, nodes):
    """The component analysis with lambda from Karp's loops and the star
    formed after it, as before the certified route."""
    nodes = sorted(nodes)
    block = arr[np.ix_(nodes, nodes)]
    lam = karp_loops(arr, nodes)
    return lam, _floyd_warshall_star(block - lam)


def component_fields(pc):
    return (pc.nodes, bits(pc.lam), pc.crit_nodes, pc.crit_edges,
            pc.crit_components, pc.cyclicity_of, pc.class_of,
            pc.star.tobytes())


def negative_zeros(a: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix(np.where(a.arr == 0, -0.0, a.arr))


def exact_corpus(rng):
    mats = []
    for n in range(1, 41):
        mats += [random_matrix(rng, n), random_matrix(rng, n, density=0.15)]
        if n >= 2:
            mats.append(random_reducible(rng, n))
        mats.append(random_matrix(rng, n, hi=0))       # lambda 0 mostly
    mats += [cycle_chain(rng) for _ in range(4)]
    mats += [negative_zeros(m) for m in mats[::2]]
    return mats


def test_certified_route_is_bit_identical_to_karp_first(monkeypatch):
    """On exact input, lambda and every ComponentCriticals field equal the
    Karp-first analysis bit for bit, star included; the certificate
    carries most of the corpus."""
    certify = graphs._certified_mean
    hits = []

    def counted(block):
        mu, star = certify(block)
        hits.append(star is not None)
        return mu, star

    monkeypatch.setattr(graphs, "_certified_mean", counted)
    for a in exact_corpus(np.random.default_rng(151)):
        dec = scc_decompose(a)
        for c in dec.nontrivial():
            nodes = dec.components[c]
            got = _component_criticals(a, nodes)
            lam, star = karp_first(a.arr, nodes)
            assert bits(got.lam) == bits(lam)
            assert got.star.tobytes() == star.tobytes()
            with monkeypatch.context() as m:
                m.setattr(graphs, "_certified_mean", lambda _: (None, None))
                want = _component_criticals(a, nodes)
            assert component_fields(got) == component_fields(want)
    assert sum(hits) > 0.6 * len(hits) and not all(hits)


def count_karp(monkeypatch):
    calls = []

    def counted(arr, nodes):
        calls.append(list(nodes))
        return _karp(arr, nodes)

    monkeypatch.setattr(graphs, "_karp", counted)
    return calls


# The heaviest out-edges 0 -> 1, 1 -> 0 and 2 -> 1 close the cycle 0 1 of
# mean 0, but the cycle 1 2 has mean 3.
CANDIDATE_MISS = [[NEG_INF, 3, NEG_INF], [-3, NEG_INF, -4],
                  [NEG_INF, 10, NEG_INF]]


def test_failed_certificate_falls_back_to_karp(monkeypatch):
    """The star of A - 0 has a positive diagonal, so Karp runs once and
    gives lambda."""
    calls = count_karp(monkeypatch)
    a = TropicalMatrix(CANDIDATE_MISS)
    assert graphs._policy_cycle(a.arr) == (0, 2)
    cs = critical_structure(a)
    assert calls == [[0, 1, 2]]
    assert cs.lambda_global == 3.0
    assert cs.critical_edges == ((1, 2), (2, 1))


def test_overflowing_candidate_star_is_a_failed_certificate(monkeypatch):
    """A star under a candidate below lambda can overflow (about k = 1100
    on dense input): that fails the certificate, and Karp decides."""
    relax = graphs._floyd_warshall_star
    stars = []

    def overflows_first(arr):
        stars.append(arr)
        if len(stars) == 1:
            raise NonFiniteError("non-finite value")
        return relax(arr)

    monkeypatch.setattr(graphs, "_floyd_warshall_star", overflows_first)
    calls = count_karp(monkeypatch)
    cs = critical_structure(TropicalMatrix(CANDIDATE_MISS))
    assert len(stars) == 2 and calls == [[0, 1, 2]]
    assert cs.lambda_global == 3.0


def test_certified_component_runs_no_karp(monkeypatch):
    calls = count_karp(monkeypatch)
    rng = np.random.default_rng(152)
    certified = 0
    for _ in range(60):
        a = random_cyclic(rng, int(rng.integers(2, 25)))
        dec = scc_decompose(a)
        for c in dec.nontrivial():
            nodes = dec.components[c]
            if graphs._certified_mean(a.arr[np.ix_(nodes, nodes)])[1] is None:
                continue
            certified += 1
            _component_criticals(a, nodes)
            assert calls == []
    assert certified > 40


def test_inexact_input_runs_karp_first(monkeypatch):
    """A component with a fractional weight (/3, x1e6 with an offset,
    normals), or with integer weights too large for the certificate,
    never reaches the candidate: Karp analyses it."""
    policy = graphs._policy_cycle

    def certifiable_only(block):
        fin = block[block != NEG_INF]
        assert np.array_equal(fin, np.rint(fin))
        assert np.abs(fin).max() * block.shape[0] ** 3 < 2 ** 50
        return policy(block)

    monkeypatch.setattr(graphs, "_policy_cycle", certifiable_only)
    calls = count_karp(monkeypatch)
    critical_structure(TropicalMatrix([[2.0 ** 48, 1], [0, 3]]))
    assert calls == [[0, 1]]    # integers, but past the certificate's bound
    calls.clear()
    rng = np.random.default_rng(153)
    fractional = 0
    for _ in range(40):
        a = random_cyclic(rng, int(rng.integers(1, 12)))
        fin = a.finite_mask()
        normals = rng.normal(size=a.arr.shape)
        for arr in (a.arr / 3, np.where(fin, 1e6 * a.arr + 1e7 / 3, NEG_INF),
                    np.where(fin, normals, NEG_INF)):
            m = TropicalMatrix(arr)
            dec = scc_decompose(m)
            if dec.nontrivial():
                critical_structure(m)
            for c in dec.nontrivial():
                nodes = dec.components[c]
                block = arr[np.ix_(nodes, nodes)]
                if not np.array_equal(block, np.rint(block)):
                    fractional += 1
                    assert list(nodes) in calls
            calls.clear()
    assert fractional > 100


def test_max_cycle_mean_never_reaches_the_candidate(monkeypatch):
    """max_cycle_mean is the referee of the certified route: it shares
    none of its code."""
    def refuse(block):
        raise AssertionError("referee reached the certified route")

    monkeypatch.setattr(graphs, "_policy_cycle", refuse)
    monkeypatch.setattr(graphs, "_certified_mean", refuse)
    rng = np.random.default_rng(154)
    for _ in range(60):
        a = (random_cyclic(rng, int(rng.integers(1, 16))) if rng.random() < 0.7
             else random_reducible(rng, int(rng.integers(2, 16))))
        dec = scc_decompose(a)
        want = max((karp_loops(a.arr, dec.components[c])
                    for c in dec.nontrivial()), default=NEG_INF)
        assert bits(max_cycle_mean(a)) == bits(want)
