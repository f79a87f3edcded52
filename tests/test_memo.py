"""One analysis per matrix: results do not depend on what ran before on
the same instance, and nothing handed out aliases the cached analysis."""

import numpy as np

from maxplus import (TropicalMatrix, critical_structure, evaluate,
                     fast_terms, is_orbit_periodic, nachtigall_expand,
                     scc_decompose, simulate_orbit, strong_access_matrix,
                     ultimate_expand, ultimate_threshold)
from maxplus import NEG_INF, cli, core, expansions, graphs, kleene

from conftest import DATA, cycle_chain, random_cyclic, random_reducible


def corpus():
    rng = np.random.default_rng(41)
    mats = [random_reducible(rng, int(rng.integers(3, 8))) for _ in range(8)]
    return mats + [random_cyclic(rng, int(rng.integers(2, 7)))
                   for _ in range(4)]


def _facts(name: str, a: TropicalMatrix):
    """Plain values (lists, floats) that identify a routine's result."""
    t = 3 * a.n * a.n
    if name == "critical":
        cs = critical_structure(a)
        return (cs.lambda_of_component, cs.critical_edges,
                [None if pc is None else pc.crit_edges
                 for pc in cs.per_component])
    if name == "nachtigall":
        e = nachtigall_expand(a)
        return (e.lambdas, [st.k_set for st in e.steps],
                evaluate(e, t).matrix.arr.tolist())
    if name == "ultimate":
        e = ultimate_expand(a)
        return (e.lambdas, e.sigma, e.gamma_u,
                evaluate(e, t).matrix.arr.tolist())
    if name == "fast":
        return [m.arr.tolist() for m in fast_terms(a, t)]
    if name == "orbit-check":
        return [is_orbit_periodic(a, method=m) for m in ("support", "both")]
    if name == "simulate":
        tr = simulate_orbit(a, np.zeros(a.n))
        return (tr.samples.tolist(), tr.period, tr.growth_rate, tr.transient)
    if name == "strong-access":
        return strong_access_matrix(a).tolist()
    raise AssertionError(name)


NAMES = ("critical", "nachtigall", "ultimate", "fast", "orbit-check",
         "simulate", "strong-access")


def test_results_independent_of_call_order():
    rng = np.random.default_rng(42)
    for a in corpus():
        fresh = {name: _facts(name, TropicalMatrix(a.arr)) for name in NAMES}
        for _ in range(3):
            shared = TropicalMatrix(a.arr)
            for k in rng.permutation(len(NAMES)).tolist() * 2:
                assert _facts(NAMES[k], shared) == fresh[NAMES[k]], NAMES[k]


def test_second_pass_runs_no_analysis(monkeypatch):
    calls = []
    analyse = graphs._analyse
    monkeypatch.setattr(graphs, "_analyse",
                        lambda a: calls.append(a) or analyse(a))
    for a in corpus():
        for name in NAMES:
            _facts(name, a)
        first = len(calls)
        # one analysis per distinct deflation level, the leftover included
        assert first <= len(nachtigall_expand(a).steps) + 1
        for name in NAMES:
            _facts(name, a)
        assert len(calls) == first
        calls.clear()


def test_cli_csr_analyses_its_matrix_once(monkeypatch, capsys):
    """The csr command's definiteness check reads the analysis that
    selected the critical graph."""
    calls = []
    analyse = graphs._analyse
    monkeypatch.setattr(graphs, "_analyse",
                        lambda a: calls.append(a) or analyse(a))
    for rule in ("canonical", "cycle"):
        assert cli.main(["csr", "--t", "3", "--rule", rule,
                         str(DATA / "example1.txt")]) == 0
        assert len(calls) == 1, rule
        calls.clear()
    capsys.readouterr()


def test_mutating_results_leaves_later_calls_intact():
    for a in corpus():
        fresh = {name: _facts(name, TropicalMatrix(a.arr)) for name in NAMES}
        e = nachtigall_expand(a)
        e.steps.clear()
        e.terms.clear()
        ultimate_expand(a).steps.reverse()
        cs = critical_structure(a)
        cs.critical_edges.clear()
        cs.lambda_of_component.append(1.0)
        cs.scc.components[0].append(a.n)
        for pc in cs.per_component:
            if pc is not None:
                pc.crit_edges.clear()
        strong_access_matrix(a)[:] = True
        for name in NAMES:
            assert _facts(name, a) == fresh[name], name


def test_public_copy_shares_the_read_only_stars():
    """critical_structure hands out a deep copy that shares each
    component's read-only star with the memo; changing the copy's lists,
    or dropping its stars, leaves later calls intact."""
    for a in corpus():
        fresh = _facts("critical", TropicalMatrix(a.arr))
        memo = graphs._critical(a)
        cs = critical_structure(a)
        for pc, own in zip(cs.per_component, memo.per_component):
            assert (pc is None) == (own is None)
            if pc is None:
                continue
            assert pc is not own and pc.star is own.star
            assert not pc.star.flags.writeable
            pc.nodes.append(a.n)
            pc.crit_components.clear()
            pc.class_of.clear()
            pc.star = None
        cs.scc.component_of[:] = -1
        assert _facts("critical", a) == fresh
        for pc in critical_structure(a).per_component:
            assert pc is None or not pc.star.flags.writeable


def test_expansion_terms_built_once(monkeypatch):
    """The support route and ultimate_threshold share one ultimate
    expansion per instance: csr_build runs once per term."""
    calls = []
    build = expansions.csr_build

    def counted(*args, **kw):
        calls.append(1)
        return build(*args, **kw)

    monkeypatch.setattr(expansions, "csr_build", counted)
    for a in corpus():
        is_orbit_periodic(a, method="support")
        ultimate_threshold(a)
        assert len(calls) == len(ultimate_expand(a).terms)
        calls.clear()


def test_component_analysis_once_per_node_set(monkeypatch):
    """Deflation levels and selection rules of one matrix share its
    per-component analyses: each node set is analysed once, and exactly
    the nontrivial components of the analysed levels are."""
    calls = []
    analyse = graphs._component_criticals

    def counted(a, nodes):
        calls.append(tuple(nodes))
        return analyse(a, nodes)

    monkeypatch.setattr(graphs, "_component_criticals", counted)
    for a in corpus():
        for name in NAMES:
            _facts(name, a)
        levels = [st.a_mu for rule in ("canonical", "cycle")
                  for st in nachtigall_expand(a, rule=rule).steps]
        want = {tuple(dec.components[c])
                for dec in map(scc_decompose, levels)
                for c in dec.nontrivial()}
        assert len(calls) == len(set(calls))
        assert set(calls) == want
        calls.clear()


def test_first_canonical_and_ultimate_levels_share_a_term(monkeypatch):
    """Levels with the same node set, cycle mean and critical edges build
    one CSR term between them; the shared term is the one a build of
    either level gives."""
    calls = []
    build = expansions.csr_build

    def counted(*args, **kw):
        calls.append(1)
        return build(*args, **kw)

    monkeypatch.setattr(expansions, "csr_build", counted)
    mats, shared = corpus(), 0
    for a in mats:
        canon, ult = nachtigall_expand(a), ultimate_expand(a)
        keys = {(st.k_set, st.lambda_mu, st.crit.edges)
                for st in canon.steps + ult.steps}
        assert len(calls) == len(keys)
        calls.clear()
        first = canon.steps[0], ult.steps[0]
        if first[0].lambda_mu == first[1].lambda_mu and \
                first[0].crit.edges == first[1].crit.edges:
            shared += 1
            triple = canon.terms[0].triple
            assert ult.terms[0].triple is triple
            for st in first:
                fresh = build(st.a_mu.scale(-st.lambda_mu), st.crit,
                              check_definite=False)
                assert fresh.c_hat.tobytes() == triple.c_hat.tobytes()
                assert fresh.r_hat.tobytes() == triple.r_hat.tobytes()
    assert shared >= len(mats) // 2


def test_first_level_reuses_its_component_star(monkeypatch):
    """A first level that is one component with gamma 1 takes the star of
    its component analysis for its CSR term: one Floyd-Warshall star fewer
    over both expansions, and the same factors as a build that forms it."""
    arr = random_cyclic(np.random.default_rng(42), 80).arr
    calls = []
    relax = graphs._floyd_warshall_star

    def counted(m):
        calls.append(m.shape[0])
        return relax(m)

    monkeypatch.setattr(graphs, "_floyd_warshall_star", counted)
    monkeypatch.setattr(kleene, "_floyd_warshall_star", counted)
    runs = []
    for share in (True, False):
        if not share:
            monkeypatch.setattr(expansions, "_shared_star", lambda st: None)
        a = TropicalMatrix(arr)
        canon, ult = nachtigall_expand(a), ultimate_expand(a)
        runs.append((len(calls), canon.terms + ult.terms))
        calls.clear()
    st = canon.steps[0]
    assert st.crit.gamma == 1 and len(st.k_set) == 80
    assert runs[0][0] == runs[1][0] - 1
    for (_, shared), (_, formed) in zip(runs[0][1], runs[1][1]):
        for got, want in ((shared.c.arr, formed.c.arr),
                          (shared.r.arr, formed.r.arr),
                          (shared.c_hat, formed.c_hat),
                          (shared.r_hat, formed.r_hat)):
            assert got.tobytes() == want.tobytes()


def test_mutating_level_copies_leaves_shared_analyses_intact():
    """Copies handed out for one level do not alias the component analyses
    that the other levels share."""
    for a in corpus():
        fresh = {name: _facts(name, TropicalMatrix(a.arr)) for name in NAMES}
        for st in nachtigall_expand(a).steps + ultimate_expand(a).steps:
            cs = critical_structure(st.a_mu)
            for pc in cs.per_component:
                if pc is not None:
                    pc.nodes.append(a.n)
                    pc.crit_edges.clear()
                    pc.crit_components[0].append(a.n)
                    pc.cyclicity_of[0] = 0
                    pc.class_of.clear()
        nachtigall_expand(a, rule="cycle")
        for name in NAMES:
            assert _facts(name, a) == fresh[name], name


def test_one_entry_scan_per_matrix(monkeypatch):
    """Every exact-sum gate of a full job reads one scan of the root's
    entries: each deflation level holds the root's record, and only the
    start vectors are scanned again."""
    scans = []
    integral_max = core._integral_max

    def counted(values):
        if values.ndim == 2:
            scans.append(values)
        return integral_max(values)

    monkeypatch.setattr(core, "_integral_max", counted)
    rng = np.random.default_rng(44)
    for a in corpus() + [cycle_chain(rng), random_cyclic(rng, 24)]:
        t = 3 * a.n * a.n
        critical_structure(a)
        steps = nachtigall_expand(a).steps + ultimate_expand(a).steps
        steps += nachtigall_expand(a, rule="cycle").steps
        for variant in ("nachtigall", "ultimate"):
            fast_terms(a, t, variant=variant)
        ultimate_threshold(a)
        is_orbit_periodic(a)
        for y in (np.zeros(a.n), rng.integers(-5, 6, a.n).astype(float)):
            simulate_orbit(a, y)
        assert len(scans) == 1 and scans[0] is a.arr
        for st in steps:
            assert st.a_mu._memo[core._EXACT_MEMO] is a._memo[core._EXACT_MEMO]
        scans.clear()


def level_scan_gate(a: TropicalMatrix, st, r: int) -> bool:
    """The gate a level had from a scan of its own normalized block:
    integer entries with (r + 1) |w|max < 2**53."""
    k = np.array(st.k_set)
    s = a.arr[np.ix_(k, k)] - st.lambda_mu
    fin = s[s != NEG_INF]
    return bool(np.array_equal(fin, np.round(fin))
                and (r + 1) * int(np.abs(fin).max(initial=0)) < 2 ** 53)


def test_root_record_gate_implies_the_level_scan():
    """The stepping gate read off the root's record admits no level that
    a scan of the level itself would refuse; it may refuse more (a
    fractional level whose entries minus lambda are integers)."""
    rng = np.random.default_rng(45)
    mats = corpus() + [random_cyclic(rng, int(rng.integers(2, 12)))
                       for _ in range(20)]
    mats += [TropicalMatrix(np.where(m.finite_mask(), m.arr / 2 + 0.5,
                                     NEG_INF)) for m in mats]
    mats.append(TropicalMatrix([[2.0 ** 40, 1.0], [0.0, 3.0]]))
    admitted = refused = 0
    for a in mats:
        r = 1 << (3 * a.n * a.n - 1).bit_length()
        for st in (expansions._deflation_steps(a, "canonical")
                   + expansions._ultimate_steps(a)):
            exact = core._exact_sums(a, r, st.lambda_mu)
            assert not exact or level_scan_gate(a, st, r)
            admitted += exact
            refused += level_scan_gate(a, st, r) and not exact
    assert admitted and refused
