"""One analysis per matrix: results do not depend on what ran before on
the same instance, and the public calls hand out the memoized results
themselves, read-only throughout, so no caller can change a later call."""

import dataclasses
from types import MappingProxyType

import numpy as np
import pytest

from maxplus import (TropicalMatrix, critical_structure, evaluate,
                     fast_terms, is_orbit_periodic, nachtigall_expand,
                     orbit_growth_rate, scc_decompose, simulate_orbit,
                     strong_access_matrix, ultimate_expand, ultimate_threshold)
from maxplus import NEG_INF, cli, core, csr, expansions, graphs, kleene, orbit

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
        return [is_orbit_periodic(a, method=m)
                for m in ("support", "strong-access")]
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
        # the levels of every expansion are peeled off this one analysis
        assert first == 1
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


def assert_read_only(x, seen=None):
    """Every part of x refuses a change: a dataclass field (frozen), a
    tuple (no append), a mapping proxy (no item assignment), an array
    (read-only) and a matrix's arr (no rebinding: a triple's c, s and
    r); every other leaf is an immutable scalar or set."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return
    seen.add(id(x))
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            value = getattr(x, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, f.name, value)
            assert_read_only(value, seen)
    elif isinstance(x, tuple):
        with pytest.raises(AttributeError):
            x.append(None)
        for value in x:
            assert_read_only(value, seen)
    elif isinstance(x, MappingProxyType):
        with pytest.raises(TypeError):
            x[next(iter(x), 0)] = None
        for value in x.values():
            assert_read_only(value, seen)
    elif isinstance(x, np.ndarray):
        with pytest.raises(ValueError):
            x[...] = x
    elif isinstance(x, TropicalMatrix):
        with pytest.raises(AttributeError):
            x.arr = np.zeros_like(x.arr)
        assert_read_only(x.arr, seen)
    else:
        assert isinstance(x, (int, float, str, frozenset, np.generic,
                              type(None))), type(x)


def test_results_are_read_only():
    for a in corpus():
        assert_read_only(critical_structure(a))
        for e in (nachtigall_expand(a), nachtigall_expand(a, rule="cycle"),
                  ultimate_expand(a)):
            assert_read_only(e)
            for st in e.steps:
                assert_read_only(critical_structure(a.restrict(st.k_set)))
            for _, triple in e.terms:
                for factor in (triple.c, triple.s, triple.r):
                    assert_read_only(factor)
        assert_read_only(strong_access_matrix(a))


def test_repeated_calls_return_the_memo():
    for a in corpus():
        assert critical_structure(a) is critical_structure(a)
        assert critical_structure(a) is graphs._critical(a)
        assert strong_access_matrix(a) is strong_access_matrix(a)
        for expand in (nachtigall_expand, ultimate_expand):
            e = expand(a)
            assert expand(a).terms is e.terms and expand(a).steps is e.steps
        assert nachtigall_expand(a).steps is \
            expansions._deflation_steps(a, "canonical")


def test_a_term_crit_refuses_a_change_and_later_calls_keep_theirs():
    """A term's selection is the memo's own: appending to its cyclicities
    raises, and later expansions and fast_terms keep their answers (a
    change that got through would read (1, 99) and make fast_terms raise
    IndexError)."""
    a = random_reducible(np.random.default_rng(5), 6)
    t = 3 * a.n * a.n
    fast = [m.arr.tobytes() for m in fast_terms(TropicalMatrix(a.arr), t)]
    cyc = nachtigall_expand(a).terms[0].triple.crit.cyclicity_of
    with pytest.raises(AttributeError):
        nachtigall_expand(a).terms[0].triple.crit.cyclicity_of.append(99)
    assert nachtigall_expand(a).terms[0].triple.crit.cyclicity_of == cyc
    assert [m.arr.tobytes() for m in fast_terms(a, t)] == fast


@pytest.mark.parametrize("cls", [
    graphs.SccDecomposition, graphs.ComponentCriticals,
    graphs.CriticalStructure, graphs.CritSubgraph, expansions.Expansion,
    expansions.DeflationStep, csr.CsrTriple, orbit.OrbitReport,
    orbit.OrbitTrace])
def test_result_types_are_frozen(cls):
    assert cls.__dataclass_params__.frozen


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
        levels = [a.restrict(st.k_set) for rule in ("canonical", "cycle")
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
                level = a.restrict(st.k_set).scale(-st.lambda_mu)
                fresh = build(level, st.crit, check_definite=False)
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
            monkeypatch.setattr(expansions, "_shared_star", lambda a, st: None)
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


def test_one_entry_scan_per_matrix(monkeypatch):
    """Every exact-sum gate of a full job reads one scan of the root's
    entries: only the start vectors are scanned again."""
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
        nachtigall_expand(a), ultimate_expand(a)
        nachtigall_expand(a, rule="cycle")
        for variant in ("nachtigall", "ultimate"):
            fast_terms(a, t, variant=variant)
        ultimate_threshold(a)
        is_orbit_periodic(a)
        for y in (np.zeros(a.n), rng.integers(-5, 6, a.n).astype(float)):
            simulate_orbit(a, y)
        assert len(scans) == 1 and scans[0] is a.arr
        scans.clear()


def test_levels_are_plain_data():
    """A deflation level is its node set and selection, no matrix: after
    all three deflations, their terms and fast_terms, no level holds a
    TropicalMatrix, a level's matrix a.restrict(k_set) starts with an
    empty memo, and no matrix formed on the way shares a dict of the
    root's memo."""
    fields = [f.name for f in dataclasses.fields(expansions.DeflationStep)]
    assert fields == ["mu", "k_set", "lambda_mu", "crit", "m_set"]
    for a in corpus():
        t = 3 * a.n * a.n
        expanded = [nachtigall_expand(a), nachtigall_expand(a, "cycle"),
                    ultimate_expand(a)]
        formed = [m for variant in ("nachtigall", "ultimate")
                  for m in fast_terms(a, t, variant=variant)]
        for e in expanded:
            for st in e.steps:
                assert not any(isinstance(getattr(st, name), TropicalMatrix)
                               for name in fields)
                level = a.restrict(st.k_set)
                assert level._memo == {}
                formed.append(level)
            for _, triple in e.terms:
                formed += [triple.c, triple.s, triple.r]
        dicts = {id(v) for v in a._memo.values() if isinstance(v, dict)}
        assert dicts
        for m in formed:
            assert not dicts & {id(v) for v in m._memo.values()}


def ulp_pair() -> TropicalMatrix:
    """Components {0} and {1, 2} with cycle means one ulp apart (the
    loops at 0 and 1), and a loop at 2 that outlives both."""
    lam = -1 / 3
    return TropicalMatrix([[lam, 0.0, NEG_INF],
                           [NEG_INF, np.nextafter(lam, 0.0), 1.0],
                           [NEG_INF, -2.0, -1.0]])


def test_levels_match_a_fresh_analysis():
    """Each level of each rule is the one a fresh analysis of its matrix
    gives: the same cycle mean, bit for bit, and under canonical and
    cycle the same selection; an ultimate level removes exactly the
    components within CRIT_TOL of the top mean.  Every level loses its
    removed set, and what the last one leaves is acyclic."""
    rng = np.random.default_rng(46)
    mats = corpus() + [cycle_chain(rng), random_reducible(rng, 9), ulp_pair()]
    for a in mats:
        for rule in ("canonical", "cycle", "ultimate"):
            steps = (expansions._ultimate_steps(a) if rule == "ultimate"
                     else expansions._deflation_steps(a, rule))
            keep = tuple(range(a.n))
            for st in steps:
                assert st.k_set == keep
                cs = critical_structure(a.restrict(st.k_set))
                lam = float(cs.lambda_global)
                assert st.lambda_mu.hex() == lam.hex()
                if rule == "ultimate":
                    top = [v for c in cs.scc.nontrivial()
                           if not core._exceeds(lam, cs.lambda_of_component[c],
                                                core.CRIT_TOL)
                           for v in cs.scc.components[c]]
                    assert st.m_set == tuple(sorted(top))
                else:
                    fresh = graphs.CritSubgraph.from_critical_structure(cs)
                    assert st.crit == expansions._select_crit(fresh, rule)
                    assert st.m_set == tuple(sorted(st.crit.nodes))
                keep = tuple(sorted(set(keep) - set(st.m_set)))
            assert graphs._critical(TropicalMatrix(a.restrict(keep).arr)) \
                is None
    a = ulp_pair()
    top = a.arr[1, 1]
    assert [(st.lambda_mu, st.m_set) for st in ultimate_expand(a).steps] \
        == [(top, (0, 1, 2))]
    assert [(st.lambda_mu, st.m_set) for st in nachtigall_expand(a).steps] \
        == [(top, (0, 1)), (-1.0, (2,))]


def test_orbit_and_threshold_skip_the_canonical_deflation(monkeypatch):
    """Only ultimate_expand forms sigma, so only it runs the canonical
    deflation; the orbit check (every method) and an ultimate_threshold
    that finds t' read the ultimate terms alone.  A threshold of None
    runs the pairing first, through the same memoized deflation."""
    calls = []
    deflate = expansions._deflate

    def counted(a, rule):
        if rule != "ultimate":
            calls.append(rule)
        return deflate(a, rule)

    monkeypatch.setattr(expansions, "_deflate", counted)
    late = 0
    for arr in [a.arr for a in corpus()] + [cycle_chain(
            np.random.default_rng(3), (2, 3), (-1, 0), 1).arr]:
        for short in (False, True):
            a = TropicalMatrix(arr)
            for method in ("support", "strong-access"):
                is_orbit_periodic(a, method=method)
            t = ultimate_threshold(a)
            assert t is not None and calls == []
            if short and t > 0:
                assert ultimate_threshold(a, t_max=t - 1) is None
                assert calls == ["canonical"]
                late += 1
            ultimate_expand(a)
            assert calls == ["canonical"]
            calls.clear()
    assert late


def test_condition2_reuses_strong_access(monkeypatch):
    """strong_access_matrix forms strong access once per matrix, over all
    rows, under "strong_access"; condition 2 forms its sorted
    representatives' rows on each call and never reads or writes that
    memo."""
    calls = []
    rows_of = graphs._strong_access

    def counted(a, rows):
        calls.append(list(rows))
        return rows_of(a, rows)

    monkeypatch.setattr(graphs, "_strong_access", counted)
    monkeypatch.setattr(orbit, "_strong_access", counted)
    arr = cycle_chain(np.random.default_rng(3), (2, 3), (-1, 0), 1).arr
    a = TropicalMatrix(arr)
    first = is_orbit_periodic(a, method="strong-access")
    assert is_orbit_periodic(a, method="strong-access") == first
    assert calls == [[1, 3], [1, 3]] and "strong_access" not in a._memo
    assert strong_access_matrix(a) is strong_access_matrix(a)
    assert calls == [[1, 3], [1, 3], list(range(a.n))]
    b = TropicalMatrix(arr)
    b._memo["strong_access"] = None     # condition 2 never reads the memo
    assert is_orbit_periodic(b, method="strong-access") == first
    assert calls[3:] == [[1, 3]] and b._memo["strong_access"] is None


def test_orbit_reads_the_threshold_bound(monkeypatch):
    """ultimate_threshold forms the bound and proves t', and the term
    route of both orbits reads t': no second set of lines."""
    calls = []
    tables = expansions._threshold_tables

    def counted(a, e):
        calls.append(e.variant)
        return tables(a, e)

    monkeypatch.setattr(expansions, "_threshold_tables", counted)
    rng = np.random.default_rng(3)
    a = cycle_chain(rng)
    ultimate_threshold(a)
    for y in (rng.integers(-9, 10, a.n).astype(float),
              np.where(np.arange(a.n) == 3, 0.0, NEG_INF)):
        simulate_orbit(a, y)
    assert calls == ["ultimate"]


def test_growth_rate_reuses_the_support_route(monkeypatch):
    """The support route runs once per matrix, and every report hands out
    its memoized tuple of violations."""
    a = cycle_chain(np.random.default_rng(4))
    y = np.zeros(a.n)
    rate = orbit_growth_rate(a, y)
    calls = []
    product = orbit.csr_product
    monkeypatch.setattr(orbit, "csr_product",
                        lambda *args: calls.append(args) or product(*args))
    assert orbit_growth_rate(a, y) == rate
    assert calls == []
    b = TropicalMatrix.from_rows([[0, None], [None, 1]])
    first = is_orbit_periodic(b)
    assert first.support_violations and calls
    assert is_orbit_periodic(b).support_violations is \
        first.support_violations
