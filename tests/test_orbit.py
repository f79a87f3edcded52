"""Orbit periodicity verdicts, orbit simulation, growth rates."""

import tracemalloc

import numpy as np
import pytest

from maxplus import core, orbit
from maxplus import (NEG_INF, DimensionError, NonFiniteError,
                     NotOrbitPeriodicError,
                     TrivialColumnError, TropicalMatrix, ZeroVectorError,
                     column_periodicity, critical_structure, csr_product,
                     gamma_u, is_orbit_periodic, kleene_star, mat_mul,
                     mat_power, mat_scalar_mul, max_cycle_mean,
                     orbit_growth_rate, pair_periodicity, scc_decompose,
                     simulate_orbit, ultimate_expand)

from conftest import (cycle_chain, random_cyclic, random_matrix,
                      random_reducible)
from goldens import EX3_GAMMA_U, EX3A_SEQ_FROM_T4, EX3B_SEQ_FROM_T2

TOL = 1e-9


def unit(n: int, *idx) -> np.ndarray:
    y = np.full(n, NEG_INF)
    for i in idx:
        y[i] = 0.0
    return y


def lam_set(a: TropicalMatrix) -> set:
    cs = critical_structure(a)
    return {float(cs.lambda_of_component[c]) for c in cs.scc.nontrivial()}


# ---------------------------------------------------------------- verdicts

def test_verdicts_example3(ex3a, ex3b):
    ra = is_orbit_periodic(ex3a, method="both")
    assert ra.verdict
    assert ra.gamma_u == EX3_GAMMA_U
    assert not (ra.condition1_violations or ra.condition2_violations
                or ra.support_violations)
    rb_sup = is_orbit_periodic(ex3b)
    assert not rb_sup.verdict
    assert rb_sup.support_violations == [(1, 0, 4, 1)]
    assert rb_sup.gamma_u == EX3_GAMMA_U
    rb_str = is_orbit_periodic(ex3b, method="strong-access")
    assert not rb_str.verdict
    assert rb_str.condition2_violations == [(0, 4)]


def test_verdict_diagonal():
    r = is_orbit_periodic(TropicalMatrix.identity(3))
    assert r.verdict and r.gamma_u == 1


def test_verdict_acyclic():
    a = TropicalMatrix.from_rows([[None, 2.0], [None, None]])
    r = is_orbit_periodic(a)
    assert r.verdict and r.gamma_u == 1
    assert orbit_growth_rate(a, unit(2, 0)) == NEG_INF
    trace = simulate_orbit(a, unit(2, 0))
    assert trace.period == 1 and trace.growth_rate == NEG_INF


def test_condition1_violation():
    # high cycle mean feeding a lower one breaks condition 1
    a = TropicalMatrix.from_rows([[1.0, 0.0], [None, 0.0]])
    r = is_orbit_periodic(a, method="both")
    assert not r.verdict
    assert r.condition1_violations == [(0, 1)]
    # the support screen is not consulted once condition 1 fails
    assert r.support_violations == []


def test_report_method_guard(ex3a):
    with pytest.raises(ValueError):
        is_orbit_periodic(ex3a, method="boolean")


# -------------------------------------------------------------- simulation

def test_simulate_example3a(ex3a, ex3x):
    trace = simulate_orbit(ex3a, ex3x)
    assert trace.period == 4
    assert trace.growth_rate == pytest.approx(1.0)
    assert trace.transient == 4
    assert trace.samples[4:16, 5].tolist() == EX3A_SEQ_FROM_T4
    p, rate, t0 = trace.period, trace.growth_rate, trace.transient
    for t in range(t0, trace.samples.shape[0] - p):
        fin = trace.samples[t] != NEG_INF
        assert np.array_equal(fin, trace.samples[t + p] != NEG_INF)
        assert np.allclose(trace.samples[t + p][fin],
                           trace.samples[t][fin] + rate * p, atol=TOL)


def test_simulate_example3b(ex3b, ex3x):
    trace = simulate_orbit(ex3b, ex3x)
    assert trace.period is None
    assert trace.growth_rate is None and trace.transient is None
    assert trace.samples[2:14, 5].tolist() == EX3B_SEQ_FROM_T2


def test_simulate_negative_t_max_raises(ex3a, ex3x):
    for t_max in (-1, -3):
        with pytest.raises(ValueError, match="negative t_max"):
            simulate_orbit(ex3a, ex3x, t_max=t_max)
    assert simulate_orbit(ex3a, ex3x, t_max=0).samples.shape == (1, 6)


def test_simulate_eigenvector_orbit():
    rng = np.random.default_rng(70)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        a = random_cyclic(rng, n)
        dec = scc_decompose(a)
        if dec.k != 1:
            continue
        lam = max_cycle_mean(a)
        d = mat_scalar_mul(-lam, a)
        j = critical_structure(d).critical_nodes[0]
        v = kleene_star(d).arr[:, j]
        trace = simulate_orbit(d, v)
        assert trace.period == 1 and trace.transient == 0
        assert trace.growth_rate == pytest.approx(0.0, abs=TOL)
        # shifting the matrix shifts the rate, not the eigenvector
        trace2 = simulate_orbit(a, v)
        assert trace2.period == 1 and trace2.transient == 0
        assert trace2.growth_rate == pytest.approx(lam, abs=TOL)


def test_detected_period_divides_gamma_u():
    rng = np.random.default_rng(71)
    for _ in range(20):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        g = gamma_u(a)
        y = np.where(rng.random(a.n) < 0.7, rng.integers(-4, 5, a.n), NEG_INF)
        if not (np.asarray(y) != NEG_INF).any():
            y = unit(a.n, 0)
        trace = simulate_orbit(a, y)
        if trace.period is not None:
            assert g % trace.period == 0


# ------------------------------------------------------------ growth rates

def test_growth_rate_examples(ex2, ex3a, ex3x):
    assert orbit_growth_rate(ex3a, ex3x) == pytest.approx(1.0)
    assert orbit_growth_rate(ex3a, unit(6, 4)) == pytest.approx(0.0)
    assert is_orbit_periodic(ex2).verdict
    assert orbit_growth_rate(ex2, unit(7, 6)) == pytest.approx(-1.0)
    assert orbit_growth_rate(ex2, unit(7, 0)) == pytest.approx(0.0)


def test_growth_rate_critical_unit_vector():
    rng = np.random.default_rng(72)
    for _ in range(8):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        if not is_orbit_periodic(a).verdict:
            continue
        cs = critical_structure(a)
        i = cs.critical_nodes[0]
        assert orbit_growth_rate(a, unit(a.n, i)) == \
            pytest.approx(cs.lambda_global, abs=TOL)


def test_growth_rate_matches_simulation():
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 12:
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        if not is_orbit_periodic(a).verdict:
            continue
        for _ in range(3):
            y = np.where(rng.random(a.n) < 0.6,
                         rng.integers(-4, 5, a.n).astype(float), NEG_INF)
            if not (y != NEG_INF).any():
                continue
            trace = simulate_orbit(a, y)
            assert trace.period is not None
            want = orbit_growth_rate(a, y)
            if want == NEG_INF:
                assert trace.growth_rate == NEG_INF
            else:
                assert trace.growth_rate == pytest.approx(want, abs=TOL)
        checked += 1


def test_growth_rate_errors(ex3a, ex3b):
    with pytest.raises(ZeroVectorError):
        orbit_growth_rate(ex3a, np.full(6, NEG_INF))
    with pytest.raises(NotOrbitPeriodicError):
        orbit_growth_rate(ex3b, unit(6, 0))


# ----------------------------------------------------------- column / pair

def test_column_periodicity_basic(ex3b):
    rng = np.random.default_rng(74)
    a = random_cyclic(rng, 4)
    if scc_decompose(a).k == 1:
        for j in range(a.n):
            assert column_periodicity(a, j)
    for j in range(6):
        assert column_periodicity(ex3b, j)


def test_column_periodicity_false_case():
    a = TropicalMatrix.from_rows([[1.0, 0.0], [None, 0.0]])
    assert column_periodicity(a, 0)
    assert not column_periodicity(a, 1)


def test_column_periodicity_trivial_errors():
    acyclic = TropicalMatrix.from_rows([[None, 2.0], [None, None]])
    with pytest.raises(TrivialColumnError, match="acyclic"):
        column_periodicity(acyclic, 0)
    mixed = TropicalMatrix.from_rows([[None, 0.0], [None, 0.0]])
    with pytest.raises(TrivialColumnError, match="trivial column: 0"):
        column_periodicity(mixed, 0)
    assert column_periodicity(mixed, 1)


def test_column_periodicity_rejects_nodes_out_of_range(ex3b):
    for j in (-1, 6, 7):
        with pytest.raises(DimensionError, match="node %d outside 0..5" % j):
            column_periodicity(ex3b, j)


def test_pair_periodicity_rejects_nodes_out_of_range(ex3a):
    # a negative index would otherwise answer for node n - 1
    for i, j in ((0, -1), (-6, 2), (6, 0), (1, 6)):
        with pytest.raises(DimensionError, match="outside 0..5"):
            pair_periodicity(ex3a, i, j)


def test_column_periodicity_matches_simulation():
    rng = np.random.default_rng(75)
    for _ in range(15):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        cs = critical_structure(a)
        dec = cs.scc
        for j in range(a.n):
            if dec.is_trivial[int(dec.component_of[j])]:
                continue
            trace = simulate_orbit(a, unit(a.n, j))
            assert column_periodicity(a, j) == (trace.period is not None)


def test_pair_periodicity_example3(ex3a, ex3b):
    assert pair_periodicity(ex3a, 0, 2)
    assert pair_periodicity(ex3a, 5, 1)
    for j in range(4):
        assert not pair_periodicity(ex3b, 5, j)
        assert not pair_periodicity(ex3b, 4, j)
    assert pair_periodicity(ex3b, 4, 5)


def test_pair_periodicity_precondition():
    a = TropicalMatrix.from_rows([[1.0, 0.0], [None, 0.0]])
    with pytest.raises(ValueError, match="not ultimately periodic"):
        pair_periodicity(a, 0, 1)


def test_pair_periodicity_matches_simulation():
    rng = np.random.default_rng(76)
    for _ in range(12):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        dec = scc_decompose(a)
        lu = [v for v in range(a.n)
              if not dec.is_trivial[int(dec.component_of[v])]]
        pairs = [(i, j) for i in lu for j in lu if i < j]
        for i, j in pairs[:6]:
            if not (column_periodicity(a, i) and column_periodicity(a, j)):
                continue
            trace = simulate_orbit(a, unit(a.n, i, j))
            assert pair_periodicity(a, i, j) == (trace.period is not None)


# --------------------------------------------------------- entry sequences

# Sampling time for "eventually" claims.  With integer weights in
# [-9, 3] and n <= 6 the last term switch happens before
# (intercept spread) / (smallest cycle-mean gap) ~ 7e4 steps, and
# integer path sums stay exact in doubles at this size.
T_LATE = 1 << 17


def late_powers(a: TropicalMatrix, g: int) -> list:
    """a^t for t in [T_LATE, T_LATE + 2g]."""
    out = [mat_power(a, T_LATE)]
    for _ in range(2 * g):
        out.append(mat_mul(out[-1], a))
    return [m.arr for m in out]


def test_same_component_entry_sequences():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_cyclic(rng, int(rng.integers(2, 6)))
        cs = critical_structure(a)
        g = gamma_u(a)
        pows = late_powers(a, g)
        for c in cs.scc.nontrivial():
            lam = cs.lambda_of_component[c]
            nodes = cs.scc.components[c]
            for i in nodes:
                for j in nodes:
                    for k in range(g):
                        x, xg = pows[k][i, j], pows[k + g][i, j]
                        if x == NEG_INF:
                            assert xg == NEG_INF
                        else:
                            assert abs(xg - x - lam * g) <= 1e-6


def term_rate(e, i: int, j: int, t: int) -> float:
    """Largest term slope with a finite coefficient on the t-residue."""
    best = NEG_INF
    for term in e.terms:
        if csr_product(term.triple, t).matrix.arr[i, j] != NEG_INF:
            best = max(best, term.lam)
    return best


def test_entry_sequences_eventually_affine():
    rng = np.random.default_rng(78)
    for _ in range(8):
        a = random_cyclic(rng, int(rng.integers(2, 5)))
        e = ultimate_expand(a)
        g = e.gamma_u
        pows = late_powers(a, g)
        slopes = lam_set(a)
        for i in range(a.n):
            for j in range(a.n):
                trio = (pows[0][i, j], pows[g][i, j], pows[2 * g][i, j])
                want = term_rate(e, i, j, T_LATE)
                if NEG_INF in trio:
                    assert trio == (NEG_INF,) * 3
                    assert want == NEG_INF
                    continue
                d1, d2 = trio[1] - trio[0], trio[2] - trio[1]
                assert abs(d1 - d2) <= 1e-6
                assert abs(d1 / g - want) <= 1e-6
                assert any(abs(d1 / g - lam) <= 1e-6 for lam in slopes)


def enumerate_path_level(a: TropicalMatrix, lam_of, i: int, length: int):
    """Max over i->j walks of the largest visited component mean."""
    best = {}

    def walk(v, steps, level):
        level = max(level, lam_of[v])
        if steps == length:
            if level > best.get(v, NEG_INF):
                best[v] = level
            return
        for w in range(a.n):
            if a.arr[v, w] != NEG_INF:
                walk(w, steps + 1, level)

    walk(i, 0, NEG_INF)
    return best


def test_path_implies_growth_lower_bound():
    # a walk touching a component of mean lam forces the aligned entry
    # subsequence to eventually grow at rate >= lam; the eventual rate
    # is read off the expansion terms on the walk's length residue
    rng = np.random.default_rng(79)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        a = random_cyclic(rng, n)
        cs = critical_structure(a)
        lam_of = [NEG_INF] * n
        for c in cs.scc.nontrivial():
            for v in cs.scc.components[c]:
                lam_of[v] = float(cs.lambda_of_component[c])
        e = ultimate_expand(a)
        for i in range(n):
            for l in range(1, 6):
                levels = enumerate_path_level(a, lam_of, i, l)
                for j, level in levels.items():
                    if level == NEG_INF:
                        continue
                    assert term_rate(e, i, j, l) >= level - TOL


# ------------------------------------------------------- detector reference

def detect_loop_reference(samples: np.ndarray, gamma: int, tol: float):
    """The row-at-a-time detector that orbit._detect vectorizes."""
    t_max = samples.shape[0] - 1
    finite = samples != NEG_INF
    for p in [d for d in range(1, gamma + 1) if gamma % d == 0]:
        if t_max - p < 0:
            continue
        top, bot = samples[t_max], samples[t_max - p]
        if not np.array_equal(finite[t_max], finite[t_max - p]):
            continue
        mask = finite[t_max]
        if mask.any():
            diffs = (top[mask] - bot[mask]) / p
            if np.ptp(diffs) > tol:
                continue
            rate = float(diffs[0])
        else:
            rate = NEG_INF
        t = t_max - p
        while t >= 1:
            s = t - 1
            if not np.array_equal(finite[s + p], finite[s]):
                break
            m = finite[s]
            if m.any():
                if rate == NEG_INF:
                    break
                if np.max(np.abs(samples[s + p][m] - samples[s][m]
                                 - rate * p)) > tol:
                    break
            t = s
        if t_max - p - t + 1 >= gamma + 1:
            return p, rate, t
    return None, None, None


def periodic_samples(rng, n: int, p: int, rate: float, t_max: int,
                     transient: int, fractional: bool) -> np.ndarray:
    """Rows x[t + p] = x[t] + p * rate from `transient` on (row by row,
    in float arithmetic), random rows with random -inf patterns before."""
    def row():
        vals = rng.normal(0, 5, n) if fractional else rng.integers(-9, 10, n)
        return np.where(rng.random(n) < 0.7, vals, NEG_INF)
    x = np.empty((t_max + 1, n))
    for t in range(t_max + 1):
        x[t] = row() if t < transient + p else x[t - p] + p * rate
    return x


def assert_detect_matches(samples: np.ndarray, gamma: int, tol: float):
    got = orbit._detect(samples, gamma, tol)
    want = detect_loop_reference(samples, gamma, tol)
    assert got == want
    return got


def test_divisors_in_increasing_order():
    for g in list(range(1, 400)) + [510510, 720720, 9973 ** 2]:
        want = [d for d in range(1, g + 1) if g % d == 0] if g < 10 ** 6 \
            else [1, 9973, 9973 ** 2]
        assert orbit._divisors(g) == want


def test_detect_matches_reference_mixed_patterns():
    rng = np.random.default_rng(80)
    hits = 0
    for k in range(120):
        gamma = int(rng.choice([1, 2, 4, 6, 12]))
        p = int(rng.choice([d for d in range(1, gamma + 1) if gamma % d == 0]))
        n = int(rng.integers(1, 7))
        rate = float(rng.integers(-3, 4)) if k % 2 else float(rng.normal())
        t_max = int(rng.integers(0, 80))
        x = periodic_samples(rng, n, p, rate, t_max,
                             int(rng.integers(0, 40)), k % 2 == 0)
        if k % 3 == 0 and t_max > 2:
            # break one equation somewhere in the periodic part
            s = int(rng.integers(0, t_max - 1))
            x[s, int(rng.integers(n))] += float(rng.choice([1.0, NEG_INF]))
        hits += assert_detect_matches(x, gamma, 1e-9)[0] is not None
    assert hits > 30


def test_detect_matches_reference_dying_orbits():
    # tails all -inf (rate -inf), with and without finite rows before
    rng = np.random.default_rng(81)
    for k in range(40):
        n, t_max = int(rng.integers(1, 6)), int(rng.integers(5, 60))
        x = np.full((t_max + 1, n), NEG_INF)
        alive = int(rng.integers(0, t_max + 1))
        x[:alive] = np.where(rng.random((alive, n)) < 0.5,
                             rng.normal(0, 3, (alive, n)), NEG_INF)
        got = assert_detect_matches(x, int(rng.choice([1, 2, 3, 6])), 1e-9)
        if alive < t_max - 8:
            assert got[1] == NEG_INF


def test_detect_matches_reference_near_ties():
    # deviations placed just inside and just outside tol on finite entries
    rng = np.random.default_rng(82)
    for tol in (1e-9, 1e-6, 0.0):
        for k in range(40):
            n, p = int(rng.integers(1, 5)), int(rng.choice([1, 2, 4]))
            t_max = 60
            rate = float(rng.normal())
            x = periodic_samples(rng, n, p, rate, t_max, 5, True)
            for _ in range(int(rng.integers(1, 4))):
                s, j = int(rng.integers(0, t_max + 1)), int(rng.integers(n))
                if x[s, j] != NEG_INF:
                    x[s, j] += float(rng.choice([-1, 1])) * tol * float(
                        rng.choice([0.5, 1 - 1e-7, 1.0, 1 + 1e-7, 2.0]))
            assert_detect_matches(x, 4, tol)


def test_detect_matches_reference_across_chunks():
    # t_max spans several scan blocks; the last failing equation sits on
    # a block boundary, one row either side of it, or in the bottom block
    chunk = orbit._DETECT_CHUNK
    rng = np.random.default_rng(83)
    gamma, p, n = 6, 3, 4
    t_max = 3 * chunk + 17
    top = t_max - p                     # first block scans [top - chunk, top)
    base = periodic_samples(rng, n, p, 0.25, t_max, 0, True)
    for s in (top - chunk, top - chunk - 1, top - chunk + 1,
              top - 2 * chunk, top - 3 * chunk, 2, 0):
        x = base.copy()
        x[s, 1] += 0.5
        p_got, _, t0 = assert_detect_matches(x, gamma, 1e-9)
        assert (p_got, t0) == (p, s + 1)
    assert assert_detect_matches(base, gamma, 1e-9)[::2] == (p, 0)


def test_simulate_orbit_samples_equal_apply_loop():
    rng = np.random.default_rng(84)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        arr = np.where(rng.random((n, n)) < 0.5, rng.normal(0, 2, (n, n)),
                       NEG_INF)
        a = TropicalMatrix(arr)
        y = np.where(rng.random(n) < 0.6, rng.normal(0, 2, n) / 3, NEG_INF)
        trace = simulate_orbit(a, y, t_max=int(rng.integers(0, 120)))
        want = [np.array(y)]
        for _ in range(trace.samples.shape[0] - 1):
            want.append(a.apply(want[-1]))
        assert np.array_equal(trace.samples, np.array(want))
        assert (trace.period, trace.growth_rate, trace.transient) == \
            detect_loop_reference(trace.samples, gamma_u(a), TOL)


# ------------------------------------------------------- block stepping

def orbit_loop_reference(a: TropicalMatrix, y, t_max: int) -> np.ndarray:
    """Row-at-a-time stepping with the arithmetic of apply, written out
    here so that it shares no code with the block path it referees."""
    samples = np.empty((t_max + 1, a.n))
    samples[0] = y
    buf = np.empty((a.n, a.n))
    for t in range(1, t_max + 1):
        np.add(a.arr, samples[t - 1], out=buf)
        np.maximum.reduce(buf, axis=1, out=samples[t])
    return samples


def assert_orbit_matches_loop(a: TropicalMatrix, y, t_max=None):
    trace = simulate_orbit(a, y, t_max=t_max)
    want = orbit_loop_reference(a, y, trace.samples.shape[0] - 1)
    assert trace.samples.tobytes() == want.tobytes()
    assert (trace.period, trace.growth_rate, trace.transient) == \
        detect_loop_reference(want, gamma_u(a), TOL)
    return trace


def block_rows(n: int) -> int:
    return max(1, core._STACK_FLOATS // (n * n))


def start_vectors(rng, n: int) -> list:
    """Dense, sparse (one finite entry) and all -inf integer vectors."""
    return [rng.integers(-9, 10, n).astype(float),
            unit(n, int(rng.integers(n))) + float(rng.integers(-5, 6)),
            np.full(n, NEG_INF)]


def test_block_steps_match_row_loop_on_integer_input():
    # the default t_max runs first, so the explicit ones read the memoized
    # stack sliced, or (t_max > default, as for n <= 2) build a deeper one
    rng = np.random.default_rng(90)
    mats = [random_matrix(rng, n, density=float(rng.choice([0.1, 0.3, 0.6])))
            for n in list(range(1, 31)) + [64, 65]]
    mats += [random_reducible(rng, n) for n in range(4, 31, 3)]
    chains = [cycle_chain(rng), cycle_chain(rng, tail=5),
              cycle_chain(rng, (2, 3, 5), (1, -2, 0))]
    for k, a in enumerate(mats + chains):
        b = block_rows(a.n)
        vectors = start_vectors(rng, a.n)
        for y in vectors if k >= len(mats) else [vectors[k % 3]]:
            assert orbit._exact_sums(a, 10 ** 4, y=y)
            assert_orbit_matches_loop(a, y)
        for t_max in sorted({0, 1, b - 1, b, b + 1}):
            assert_orbit_matches_loop(a, vectors[(k + 1) % 3], t_max)


def test_block_steps_match_row_loop_on_dying_orbits():
    # strictly upper triangular: every orbit is all -inf from step n on
    rng = np.random.default_rng(91)
    for n in (1, 2, 5, 24, 40):
        arr = np.triu(rng.integers(-5, 6, (n, n)).astype(float), 1)
        arr[np.tril_indices(n)] = NEG_INF
        a = TropicalMatrix(arr)
        for y in start_vectors(rng, n):
            trace = assert_orbit_matches_loop(a, y)
            assert trace.growth_rate == NEG_INF
            assert (trace.samples[n:] == NEG_INF).all()


def test_block_gate_edges():
    rng = np.random.default_rng(92)
    # -0.0 in y: the block path rounds this zero to +0.0 at t = 2
    a = TropicalMatrix([[NEG_INF, NEG_INF, 0.0], [0.0, -0.0, -1.0],
                        [-0.0, -0.0, -0.0]])
    y = np.array([NEG_INF, -0.0, 0.0])
    assert not orbit._exact_sums(a, 6, y=y)
    trace = assert_orbit_matches_loop(a, y, 6)
    assert np.signbit(trace.samples[2:, 1]).all()
    # -0.0 in the matrix alone keeps the blocks and their bits
    for _ in range(20):
        n = int(rng.integers(1, 7))
        arr = rng.choice([-0.0, 0.0, NEG_INF, 1.0, -2.0], size=(n, n))
        y = rng.choice([0.0, NEG_INF, -1.0, 3.0], size=n)
        assert orbit._exact_sums(TropicalMatrix(arr), 50, y=y)
        assert_orbit_matches_loop(TropicalMatrix(arr), y, 50)
    # the 2**53 bound, one step either side
    for t_max in (0, 1, 40):
        a = random_matrix(rng, 5, lo=-3, hi=3)
        amax = int(np.abs(a.arr[a.arr != NEG_INF]).max())
        for ymax, exact in ((2 ** 53 - 1 - (t_max + 1) * amax, True),
                            (2 ** 53 - (t_max + 1) * amax, False)):
            y = np.array([-ymax, ymax, 0.0, NEG_INF, 7.0])
            assert orbit._exact_sums(a, t_max, y=y) is exact
            assert_orbit_matches_loop(a, y, t_max)
    # fractional weights step row by row
    for k in range(30):
        a = random_cyclic(rng, int(rng.integers(1, 9)))
        y = rng.integers(-6, 7, a.n).astype(float)
        for frac in ((a.arr + 1 / 3, y), (a.arr + 0.5, y), (a.arr, y + 1 / 3),
                     (a.arr, y + 0.5)):
            assert not orbit._exact_sums(TropicalMatrix(frac[0]), 100,
                                          y=frac[1])
            assert_orbit_matches_loop(TropicalMatrix(frac[0]), frac[1])


def disjoint_cycles(rng, lengths) -> TropicalMatrix:
    """Cycles of the given lengths with integer weights, each entered from
    one tail node 0; gamma_u is the lcm of the lengths."""
    n = 1 + sum(lengths)
    arr = np.full((n, n), NEG_INF)
    start = 1
    for length in lengths:
        for k in range(length):
            arr[start + k, start + (k + 1) % length] = float(
                rng.integers(-4, 5))
        arr[0, start] = float(rng.integers(-4, 5))
        start += length
    return TropicalMatrix(arr)


def test_block_steps_memory_is_the_samples():
    """n = 42, gamma_u = 30030: the default t_max is 70644 steps, and
    the scratch stays within 1 MB of the sample array."""
    rng = np.random.default_rng(93)
    a = disjoint_cycles(rng, (2, 3, 5, 7, 11, 13))
    assert a.n == 42 and gamma_u(a) == 30030
    y = rng.integers(-9, 10, a.n).astype(float)
    tracemalloc.start()
    try:
        trace = simulate_orbit(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.samples.shape == (70645, 42)
    assert peak <= trace.samples.nbytes + 2 ** 20
    for t in (1, 9, 10, 1000, 30031, 70644):
        assert np.array_equal(trace.samples[t], mat_power(a, t).apply(y))


def test_overflow_raises_typed_error():
    for v in (1e308, -1e308):
        a = TropicalMatrix([[v]])
        for t_max in (None, 2, 5):
            with pytest.raises(NonFiniteError, match="overflows float64"):
                simulate_orbit(a, [0.0], t_max=t_max)
        assert simulate_orbit(a, [0.0], t_max=1).samples.tolist() == \
            [[0.0], [v]]
    # the block path's gate rules these out, and the row loop raises
    a = TropicalMatrix([[0.0, 2.0 ** 1023], [NEG_INF, 0.0]])
    with pytest.raises(NonFiniteError):
        simulate_orbit(a, [0.0, 2.0 ** 1023], t_max=3)
