"""Benchmark harness for the maxplus library and CLI.

    python3 bench/run.py --workload expand-dense --seed 1 --seconds 45 --trace 0

Runs one workload's fixed, seeded job list in a closed loop (one job at a
time) and prints, as the last line of stdout, one JSON object with keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (see END_TO_END); with --trace 1 each job of the
first half of the list runs once untraced and once under spans around
the library's layer functions, the metrics are the per-layer ones plus
the tracing overhead, and the spans go to .bench_out/ as JSON lines.

Every workload times a fixed list of MIN_JOBS jobs, never a time box;
--seconds is accepted for the calling convention and does not change the
list.  At the seed commit the timed list takes about 22 s on expand-dense,
25 s on orbit-reducible and 48 s on cli-cold.  Run from the repository
root; the library is imported from ./src.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere (here or in a CLI child): one BLAS
# thread, so Boolean GEMMs do not spread over the shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from statistics import median  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "job_cpu_p50_ms": "ms", "ok_ratio": "ratio",
              "peak_rss_mb": "MB", "setup_s": "s"}
MIN_JOBS = 100            # p90 then has 10 samples beyond it
WORKLOADS = ("cli-cold", "expand-dense", "orbit-reducible")
SETUP_PROBES = 3
START_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="override the job count (smoke test)")
    p.add_argument("--tiny", action="store_true",
                   help="small in-process matrices (smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (internal)")
    return p.parse_args(argv)


def _job_count(args) -> int:
    return MIN_JOBS if args.jobs is None else args.jobs


def _setup(args, workdir):
    """Imports, corpus generation and the discarded warm-up pass."""
    import workloads
    w = workloads.WORKLOADS[args.workload](args.seed, _job_count(args),
                                           args.tiny, workdir)
    w.warm_up()
    return w


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def _setup_probe(args) -> float:
    """Wall time of a fresh process from start through set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=_child_env()) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
        p.wait()
    if line.strip() != b"ready" or p.returncode:
        raise RuntimeError("set-up probe failed (exit %s)" % p.returncode)
    return elapsed


def _start_probes() -> dict:
    """Bare interpreter start, and `import maxplus.cli` on top of it."""
    times = {"pass": [], "import maxplus.cli": []}
    for _ in range(START_PROBES):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_child_env(),
                           check=True)
            times[code].append(time.perf_counter() - t0)
    bare = median(times["pass"])
    return {"cli.interpreter_ms": bare * 1e3,
            "cli.import_ms": (median(times["import maxplus.cli"]) - bare) * 1e3}


def _untraced(args, workdir):
    from stats import percentile
    setups = [_setup_probe(args) for _ in range(SETUP_PROBES)]
    w = _setup(args, workdir)
    walls, cpus, bad = [], [], []
    for i in range(len(w.items)):
        gc.collect()
        wall, cpu, ok = w.timed(i)
        walls.append(wall)
        cpus.append(cpu)
        if not ok:
            bad.append(i)
    n = len(walls)
    values = {
        "jobs_per_s": (n - len(bad)) / sum(walls),
        "job_p50_ms": percentile(walls, 50) * 1e3,
        "job_p90_ms": percentile(walls, 90) * 1e3,
        "job_cpu_p50_ms": percentile(cpus, 50) * 1e3,
        "ok_ratio": (n - len(bad)) / n,
        "peak_rss_mb": w.peak_rss_mb(),
        "setup_s": median(setups),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return w, n, bad, metrics


def _traced(args, workdir):
    import tracing
    w = _setup(args, workdir)
    rec = tracing.Recorder()
    side = {False: [0.0, 0], True: [0.0, 0]}    # wall, jobs run
    bad = []
    half = (len(w.items) + 1) // 2
    for i in range(half):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            rec.job = i
            wall, _, ok = w.inproc(i, rec if on else None)
            side[on][0] += wall
            side[on][1] += 1
            if not ok:
                bad.append(i)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    rec.write(os.path.join(out_dir, "spans-%s-%d.jsonl"
                           % (args.workload, args.seed)))
    values = rec.summary(half)
    values.update(w.counts())
    values.update(_start_probes())
    plain = side[False][1] / side[False][0]
    traced = side[True][1] / side[True][0]
    values["trace.untraced_jobs_per_s"] = plain
    values["trace.traced_jobs_per_s"] = traced
    values["trace.overhead_pct"] = (plain / traced - 1.0) * 100.0
    metrics = {k: {"value": v, "unit": per_layer_unit(k)}
               for k, v in sorted(values.items())}
    return w, 2 * half, bad, metrics


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".ms", "ms"), ("_ms", "ms"),
                         ("_ms_per_job", "ms"), ("_pct", "%"),
                         ("gops_per_s", "Gop/s"), ("_per_s", "1/s"),
                         ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "maxplus", "cli.py")):
        sys.stderr.write("error: no library source at %s; run from the "
                         "repository root\n" % SRC)
        return 2
    sys.path[:0] = [HERE, SRC]
    workdir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            _setup(args, workdir)
            print("ready", flush=True)
            return 0
        run = _traced if args.trace else _untraced
        w, attempted, bad, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    # Known-defect jobs count as failed but do not make the run incorrect.
    unexpected = [i for i in bad if not w.known_defect(i)]
    print(json.dumps({"correct": not unexpected,
                      "attempted": attempted,
                      "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
