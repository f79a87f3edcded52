"""The three workloads: a seeded job list, the timed work, and a check.

Each workload builds its corpus from the seed, runs a discarded warm-up
pass on inputs of its own, and then offers `timed(i)`, which builds fresh
inputs for job i outside the timer, times the work, and checks the output
against an independent referee outside the timer.  `inproc(i)` is the
form of job i that the traced run times with and without spans; spans
cover the work only, never the check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

import corpus
from maxplus import cli, expansions, graphs, orbit
from maxplus import (NEG_INF, CritSubgraph, TropicalMatrix, critical_structure,
                     csr_build, csr_product, csr_product_literal, evaluate,
                     gamma_u, is_orbit_periodic, mat_eq, mat_mul, mat_oplus,
                     mat_power, max_cycle_mean, nachtigall_expand, simulate_orbit,
                     ultimate_expand)

TOL = 1e-9
CLI_TIMEOUT_S = 30.0


def _fresh(arr: np.ndarray) -> TropicalMatrix:
    return TropicalMatrix(arr)


def _vec_close(x: np.ndarray, y: np.ndarray) -> bool:
    fx, fy = x != NEG_INF, y != NEG_INF
    if not np.array_equal(fx, fy):
        return False
    scale = np.maximum(1.0, np.abs(y[fy]))
    return bool(np.all(np.abs(x[fx] - y[fy]) <= TOL * scale))


@contextlib.contextmanager
def _traced(rec):
    if rec is None:
        yield
        return
    rec.instrument()
    try:
        yield
    finally:
        rec.restore()


class Workload:
    """Fixed job list; subclasses define make, inputs, work and check.

    check returns (ok, (gamma_u, terms)): the verdict and two counts that
    identify the corpus.
    """

    def __init__(self, seed: int, jobs: int, tiny: bool, workdir: str):
        self.rng = np.random.default_rng([seed, self.seed_tag])
        self.tiny, self.workdir = tiny, workdir
        self.warm = self.make(1)
        self.items = self.make(jobs)
        self.tally = {}

    def warm_up(self):
        for item in self.warm:
            inputs = self.inputs(item)
            self.check(item, inputs, self.work(*inputs))

    def timed(self, i: int, rec=None):
        """(wall s, cpu s, ok) of job i: fresh inputs, timed work, check.
        With a tracing.Recorder, spans cover the work and not the check."""
        item = self.items[i]
        inputs = self.inputs(item)
        with _traced(rec):
            c0, t0 = time.process_time(), time.perf_counter()
            out = self.work(*inputs)
            t1, c1 = time.perf_counter(), time.process_time()
        ok, self.tally[i] = self.check(item, inputs, out)
        return t1 - t0, c1 - c0, ok

    inproc = timed

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def counts(self) -> dict:
        """Sums over the timed jobs run; they repeat exactly per seed."""
        return {"graphs.gamma_u": sum(g for g, _ in self.tally.values()),
                "expansions.terms": sum(k for _, k in self.tally.values())}

    def known_defect(self, i: int) -> bool:
        return False


# ---------------------------------------------------------------- expand

class ExpandDense(Workload):
    """n = 80 random dense integer matrices: all n^3 numpy work."""

    seed_tag = 1

    def make(self, count):
        n = 10 if self.tiny else 80
        return [corpus.random_cyclic(self.rng, n) for _ in range(count)]

    def inputs(self, arr):
        return (_fresh(arr),)

    @staticmethod
    def work(a):
        t = 3 * a.n * a.n
        cs = graphs.critical_structure(a)
        e = expansions.nachtigall_expand(a)
        ev = expansions.evaluate(e, t)
        eu = expansions.ultimate_expand(a)
        ft = expansions.fast_terms(a, t)
        return t, cs, e, ev, eu, ft

    def check(self, arr, inputs, out):
        t, cs, e, ev, eu, ft = out
        a = _fresh(arr)
        power = mat_power(a, t)
        ok = (mat_eq(ev.matrix, power, TOL)
              and mat_eq(evaluate(eu, t).matrix, power, TOL)
              and len(ft) == len(e.terms)
              and all(mat_eq(m, csr_product(term.triple, t).matrix, TOL)
                      for m, term in zip(ft, e.terms))
              and abs(e.lambdas[0] - cs.lambda_global) <= TOL
              and abs(eu.lambdas[0] - cs.lambda_global) <= TOL)
        return ok, (eu.gamma_u, len(e.terms) + len(eu.terms))


# ----------------------------------------------------------------- orbit

class OrbitReducible(Workload):
    """n = 24 reducible matrices, cycles 3, 4, 5, 7 (gamma_u = 420).

    A job takes one orbit-periodic and one violating matrix: the two kinds
    differ in cost, and a job list split half and half between them would
    put the median on the gap between two clusters.
    """

    seed_tag = 2

    def make(self, count):
        kw = {"cycles": (2, 3, 5), "tail": 2} if self.tiny else {}
        out = []
        for _ in range(count * 2):
            arr, verdict, gam = corpus.orbit_reducible(
                self.rng, len(out) % 2 == 0, **kw)
            ys = (corpus.start_vector(self.rng, arr.shape[0], False),
                  corpus.start_vector(self.rng, arr.shape[0], True))
            out.append((arr, verdict, gam, ys))
        return [out[k:k + 2] for k in range(0, len(out), 2)]

    def inputs(self, pair):
        # Detection needs gamma_u + 1 steps past transient + period; this
        # allows up to gamma_u + 100 for those two.
        return [(_fresh(arr), ys, 2 * gam + 100) for arr, _, gam, ys in pair]

    @staticmethod
    def work(*cases):
        out = []
        for a, ys, t_max in cases:
            sup = orbit.is_orbit_periodic(a, method="support")
            sa = orbit.is_orbit_periodic(a, method="strong-access")
            tp = expansions.ultimate_threshold(a)
            traces = [orbit.simulate_orbit(a, y, t_max=t_max) for y in ys]
            out.append((sup, sa, tp, traces))
        return out

    def check(self, pair, inputs, out):
        ok, gam_sum, terms = True, 0, 0
        for (arr, verdict, gam, ys), (_, _, t_max), (sup, sa, tp, traces) \
                in zip(pair, inputs, out):
            a = _fresh(arr)
            e = ultimate_expand(a)
            gam_sum += sup.gamma_u
            terms += len(e.terms)
            ok = ok and sup.verdict == sa.verdict == verdict and sup.gamma_u == gam
            # Holds at tp and tp + 1, and tp is the first such exponent.
            ok = ok and tp is not None and all(
                mat_eq(evaluate(e, t).matrix, mat_power(a, t), TOL)
                for t in (tp, tp + 1))
            ok = ok and (tp == 0 or not mat_eq(evaluate(e, tp - 1).matrix,
                                               mat_power(a, tp - 1), TOL))
            power = mat_power(a, t_max)
            for y, tr in zip(ys, traces):
                ok = (ok and tr.samples.shape[0] == t_max + 1
                      and _vec_close(tr.samples[t_max], power.apply(y))
                      and (tr.period is not None or not verdict)
                      and (tr.period is None or gam % tr.period == 0))
        return ok, (gam_sum, terms)


# ------------------------------------------------------------------- cli

def _num(x):
    return None if x == NEG_INF else float(x)


def _matrix_json(arr) -> list:
    return [[_num(v) for v in row] for row in np.asarray(arr).tolist()]


def _same(got, want) -> bool:
    """Compare a JSON report value with a reference built from lists,
    numbers, None and booleans (numbers to a relative 1e-9)."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if want is None or isinstance(want, bool):
        return got is want or got == want and type(got) is type(want)
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= TOL * max(1.0, abs(want))


def cli_reference(job):
    """Report fields the CLI must print, from in-process library calls,
    and the job's (gamma_u, expansion terms) counts.

    Where a second route exists the reference takes it: the star from a
    power sum, lambda from Karp on the whole matrix, orbit-check from the
    strong-access route, the last orbit sample and the ultimate value from
    a matrix power, the threshold from a scan of every power.
    """
    a = TropicalMatrix(job["matrix"])
    terms = 0
    if job["command"] == "nachtigall":
        terms = len(nachtigall_expand(a).terms)
    elif job["command"] == "ultimate":
        terms = len(ultimate_expand(a).terms)
    return _reference(job, a), (gamma_u(a), terms)


def _reference(job, a) -> dict:
    cmd, n = job["command"], a.n
    flags = dict(zip(job["flags"][::2], job["flags"][1::2]))
    t = int(flags.get("--t", 0))
    if cmd == "power":
        return {"matrix": _matrix_json(mat_power(a, t).arr)}
    if cmd == "star":
        acc = mat_power(a, 0)
        for k in range(1, n):
            acc = mat_oplus(acc, mat_power(a, k))
        return {"matrix": _matrix_json(acc.arr)}
    if cmd == "lambda":
        return {"lambda": _num(max_cycle_mean(a))}
    if cmd == "critical":
        ref = TropicalMatrix(job["unscaled"]) if job["unscaled"] is not None else a
        edges = critical_structure(ref).critical_edges
        return {"critical_edges": [[i + 1, j + 1] for i, j in sorted(edges)]}
    if cmd == "classes":
        cs = critical_structure(a)
        comps = sorted(sorted(v + 1 for v in c) for c in cs.critical_components)
        return {"gamma": cs.gamma_lcm, "_components": comps}
    if cmd == "csr":
        triple = csr_build(a, CritSubgraph.from_critical_structure(critical_structure(a)))
        return {"gamma": triple.gamma,
                "product": _matrix_json(csr_product_literal(triple, t).arr)}
    if cmd == "nachtigall":
        return {"matrix": _matrix_json(mat_power(a, t).arr), "matches_power": True}
    if cmd == "ultimate":
        # The corpus puts t = 3n^2 + k past the ultimate threshold.
        return {"matrix": _matrix_json(mat_power(a, t).arr),
                "matches_power": True}
    if cmd == "threshold":
        return {"threshold": _scan_threshold(a, 30 * n * n),
                "gamma_u": gamma_u(a)}
    if cmd == "orbit-check":
        return {"verdict": is_orbit_periodic(a, method="strong-access").verdict,
                "gamma_u": gamma_u(a)}
    if cmd == "orbit":
        tr = simulate_orbit(a, job["y"])
        t_max = tr.samples.shape[0] - 1
        return {"t_max": t_max, "period": tr.period, "transient": tr.transient,
                "growth_rate": None if tr.growth_rate is None else _num(tr.growth_rate),
                "_last": [_num(v) for v in mat_power(a, t_max).apply(job["y"])]}
    if cmd == "verify":
        return {"all_ok": True}
    raise ValueError(cmd)


def _scan_threshold(a, t_max: int):
    """One past the last exponent, up to t_max plus the window that
    ultimate_threshold verifies, at which the ultimate expansion differs
    from the power; None when that is past t_max.  Powers come from
    repeated mat_mul, not from the residue arrays ultimate_threshold
    steps through."""
    e = ultimate_expand(a)
    window = e.gamma_u + max(1, math.ceil(math.log2(max(t_max, 2))))
    power, last_bad = mat_power(a, 0), -1
    for t in range(t_max + window + 1):
        if not mat_eq(evaluate(e, t).matrix, power, TOL):
            last_bad = t
        power = mat_mul(power, a)
    return last_bad + 1 if last_bad < t_max else None


def cli_check(want: dict, code: int, stdout: bytes) -> bool:
    if code != 0:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    for key, value in want.items():
        if key == "_components":
            have = sorted(sorted(c["nodes"]) for c in got.get("components", []))
        elif key == "_last":
            have = got.get("samples", [None])[-1]
        elif key not in got:
            return False
        else:
            have = got[key]
        if not _same(have, value):
            return False
    return True


def _write_matrix(path: str, arr: np.ndarray):
    rows = [[None if v == NEG_INF else (int(v) if v == int(v) else v)
             for v in row] for row in arr.tolist()]
    with open(path, "w") as fh:
        json.dump({"n": len(rows), "rows": rows}, fh)


def _write_vector(path: str, y: np.ndarray):
    vals = [None if v == NEG_INF else int(v) for v in y.tolist()]
    with open(path, "w") as fh:
        json.dump({"n": len(vals), "values": vals}, fh)


class CliCold(Workload):
    """One fresh `python -m maxplus.cli` child per job, n <= 8."""

    seed_tag = 3

    def __init__(self, seed, jobs, tiny, workdir):
        super().__init__(seed, jobs, tiny, workdir)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.out_path = os.path.join(workdir, "stdout.json")
        self.peak_child_rss_kb = 0
        for prefix, items in (("w", self.warm), ("j", self.items)):
            for k, job in enumerate(items):
                job["argv"] = self._materialize(prefix + str(k), job)
                job["want"], counts = cli_reference(job)
                if prefix == "j":
                    self.tally[k] = counts

    def make(self, count):
        return corpus.cli_jobs(self.rng, count)

    def _materialize(self, key, job):
        mpath = os.path.join(self.workdir, key + ".json")
        _write_matrix(mpath, job["matrix"])
        argv = [job["command"], mpath] + job["flags"]
        if job["y"] is not None:
            ypath = os.path.join(self.workdir, key + ".y.json")
            _write_vector(ypath, job["y"])
            argv += ["--y", ypath]
        return argv

    def warm_up(self):
        for job in self.warm:
            self._child(job)

    def timed(self, i):
        return self._child(self.items[i])

    def _child(self, job):
        with open(self.out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "maxplus.cli"] + job["argv"],
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, ru.ru_maxrss)
        with open(self.out_path, "rb") as fh:
            ok = cli_check(job["want"], proc.returncode, fh.read())
        return wall, ru.ru_utime + ru.ru_stime, ok

    def inproc(self, i, rec=None):
        """In-process `main(argv)`, checked like the child's output."""
        job = self.items[i]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()), _traced(rec):
            c0, t0 = time.process_time(), time.perf_counter()
            code = cli.main(job["argv"])
            t1, c1 = time.perf_counter(), time.process_time()
        return t1 - t0, c1 - c0, cli_check(job["want"], code, buf.getvalue().encode())

    def peak_rss_mb(self):
        return self.peak_child_rss_kb / 1024.0

    def known_defect(self, i) -> bool:
        """Scaled-weight critical jobs: the documented scale defect."""
        return self.items[i]["unscaled"] is not None


WORKLOADS = {"expand-dense": ExpandDense, "orbit-reducible": OrbitReducible,
             "cli-cold": CliCold}
