"""Run-to-run steadiness of the end-to-end metrics.

    python3 bench/steadiness.py --runs 10 --first-seed 101 \
        --out bench/STEADINESS.md

Runs each workload of BENCHMARK.json --runs times, each with its own seed,
and reports per metric the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median, next to the
metric's bound.  A spread under a third of the bound is marked steady.
The raw values go to the JSON file beside the Markdown output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload: str, seed: int) -> dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0].startswith("python") else argv[0]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(spec, runs: dict) -> list:
    rows = []
    for workload, results in runs.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            rows.append({"workload": workload, "metric": m["name"],
                         "unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                         "spread": spread, "bound": m["bound"],
                         "steady": spread < m["bound"] / 3})
        walls = [r["run_s"] for r in results]
        rows.append({"workload": workload, "metric": "run wall time",
                     "unit": "s", "median": statistics.median(walls),
                     "q1": min(walls), "q3": max(walls), "spread": None,
                     "bound": None, "steady": None})
    return rows


def markdown(rows, runs: int, seeds: str) -> str:
    out = ["| workload | metric | unit | median | q1 | q3 | spread | bound "
           "| steady |", "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        if r["spread"] is None:   # run wall time: min and max, not quartiles
            out.append("| %s | %s (min, max) | s | %.1f | %.1f | %.1f | | | |"
                       % (r["workload"], r["metric"], r["median"], r["q1"],
                          r["q3"]))
            continue
        out.append("| %s | %s | %s | %.4g | %.4g | %.4g | %.4f | %.2f | %s |"
                   % (r["workload"], r["metric"], r["unit"], r["median"],
                      r["q1"], r["q3"], r["spread"], r["bound"],
                      "yes" if r["steady"] else "NO"))
    return ("%d runs per workload, seeds %s.\n\n" % (runs, seeds)
            + "\n".join(out) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workloads", default=None,
                   help="comma-separated subset (default: all)")
    p.add_argument("--out", default=None, help="Markdown output file")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = range(args.first_seed, args.first_seed + args.runs)
    runs = {}
    for workload in names:
        runs[workload] = []
        for seed in seeds:
            result = run_once(spec, workload, seed)
            runs[workload].append(result)
            print(workload, seed, "%.1f s" % result["run_s"],
                  json.dumps({k: round(v["value"], 4)
                              for k, v in result["metrics"].items()}),
                  flush=True)
    rows = summarize(spec, runs)
    text = markdown(rows, args.runs, "%d-%d" % (seeds[0], seeds[-1]))
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(os.path.splitext(args.out)[0] + ".json", "w") as fh:
            json.dump({"seeds": list(seeds), "runs": runs, "rows": rows}, fh,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
