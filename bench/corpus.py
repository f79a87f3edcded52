"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a numpy Generator, so one workload
seed always yields the same inputs.  Matrices are returned as plain float
arrays (-inf for missing edges); the workloads wrap them in fresh
TropicalMatrix objects per job, so no library-side cache is ever reused.
"""

from __future__ import annotations

import math

import numpy as np

from maxplus import NEG_INF, TropicalMatrix, max_cycle_mean

# Commands of the maxplus CLI, in the round-robin order of cli-cold.
COMMANDS = ("power", "star", "lambda", "critical", "classes", "csr",
            "nachtigall", "ultimate", "threshold", "orbit-check", "orbit",
            "verify")


def random_integer(rng, n: int, lo: int = -9, hi: int = 3,
                   density: float = 0.5) -> np.ndarray:
    """Integer weights in [lo, hi], each entry finite with the given
    probability."""
    vals = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    mask = rng.random((n, n)) < density
    return np.where(mask, vals, NEG_INF)


def _has_cycle(arr: np.ndarray) -> bool:
    reach = arr != NEG_INF
    step = reach.copy()
    for _ in range(arr.shape[0]):
        if step.diagonal().any():
            return True
        step = (step.astype(np.float32) @ reach.astype(np.float32)) > 0
    return False


def random_cyclic(rng, n: int, **kw) -> np.ndarray:
    """Like random_integer, redrawn until the digraph has a cycle."""
    while True:
        arr = random_integer(rng, n, **kw)
        if _has_cycle(arr):
            return arr


def random_definite(rng, n: int) -> np.ndarray:
    """Integer matrix with a planted zero-weight cycle and every other
    weight <= 0, so every cycle is <= 0 and the maximum cycle mean is 0."""
    arr = random_integer(rng, n, lo=-9, hi=0)
    length = int(rng.integers(1, min(n, 4) + 1))
    cyc = rng.permutation(n)[:length].tolist()
    for k, v in enumerate(cyc):
        arr[v, cyc[(k + 1) % length]] = 0.0
    return arr


# ------------------------------------------------------------ orbit family

ORBIT_CYCLES = (3, 4, 5, 7)      # gamma_u = lcm = 420
ORBIT_TAIL = 5                   # trivial nodes feeding the first cycle


def orbit_reducible(rng, periodic: bool, cycles=ORBIT_CYCLES,
                    tail: int = ORBIT_TAIL):
    """Reducible matrix made of disjoint weighted cycles plus a tail.

    The cycles come in a seeded order with distinct integer cycle means.
    A periodic instance chains them C1 -> C2 -> ... with means rising along
    the chain, so both orbit-periodicity conditions hold (cycle means never
    drop along access, and pairwise-coprime lengths give strong access
    between every chained pair).  A violating instance breaks exactly one
    condition, chosen by the seed: either one adjacent pair of the chain
    has its means swapped (condition 1), or the last cycle hangs off C1
    beside C2 instead of after the previous one, so two components with
    different means have no access either way (condition 2).

    Returns (array, verdict, gamma_u).  Node labels are shuffled.
    """
    lengths = [int(x) for x in rng.permutation(np.array(cycles))]
    k = len(lengths)
    means = sorted(int(x) for x in rng.choice(np.arange(-6, 4), k, replace=False))
    branch = False
    if not periodic:
        if rng.random() < 0.5:
            p = int(rng.integers(0, k - 1))
            means[p], means[p + 1] = means[p + 1], means[p]
        else:
            branch = True
    n = sum(lengths) + tail
    label = rng.permutation(n)
    arr = np.full((n, n), NEG_INF)
    comps, start = [], tail
    for length, mean in zip(lengths, means):
        nodes = [int(label[v]) for v in range(start, start + length)]
        start += length
        w = rng.integers(-9, 4, size=length).astype(float)
        w[-1] += length * mean - w.sum()
        for e in range(length):
            arr[nodes[e], nodes[(e + 1) % length]] = w[e]
        comps.append(nodes)
    for c in range(1, k):
        src = comps[0] if (branch and c == k - 1) else comps[c - 1]
        for _ in range(int(rng.integers(1, 3))):
            i = src[int(rng.integers(len(src)))]
            j = comps[c][int(rng.integers(len(comps[c])))]
            arr[i, j] = float(rng.integers(-9, 4))
    chain = [int(label[v]) for v in range(tail)] + [comps[0][0]]
    for u, v in zip(chain, chain[1:]):
        arr[u, v] = float(rng.integers(-9, 4))
    return arr, periodic, math.lcm(*lengths)


def start_vector(rng, n: int, sparse: bool) -> np.ndarray:
    """Integer start vector; a sparse one keeps a random third finite."""
    y = rng.integers(-5, 6, size=n).astype(float)
    if sparse:
        keep = rng.random(n) < 1 / 3
        keep[int(rng.integers(n))] = True
        y = np.where(keep, y, NEG_INF)
    return y


# -------------------------------------------------------------- cli family

def scale_weights(arr: np.ndarray) -> np.ndarray:
    """w -> 1e6 * w + 1e7 / 3 on finite entries: same critical graph."""
    return np.where(arr != NEG_INF, 1e6 * arr + 1e7 / 3, NEG_INF)


def cli_jobs(rng, count: int) -> list:
    """Round-robin over every command on n <= 8 inputs that meet the
    command's documented precondition.  A seeded half of the critical jobs
    get scaled weights.

    Each entry is a dict with the command, its extra flags, the matrix
    (and start vector for orbit), and for scaled critical jobs the
    unscaled matrix the answer must match.
    """
    n_critical = len(range(COMMANDS.index("critical"), count, len(COMMANDS)))
    scaled = set(rng.permutation(n_critical)[:n_critical // 2].tolist())
    jobs = []
    for i in range(count):
        cmd = COMMANDS[i % len(COMMANDS)]
        n = int(rng.integers(3, 9))
        job = {"command": cmd, "flags": [], "y": None, "unscaled": None}
        if cmd in ("power", "lambda"):
            arr = random_integer(rng, n)
        elif cmd == "star":
            arr = random_integer(rng, n)
            lam = max_cycle_mean(TropicalMatrix(arr))
            if lam != NEG_INF:
                arr = arr - math.ceil(lam)
        elif cmd == "csr":
            arr = random_definite(rng, n)
        else:
            arr = random_cyclic(rng, n)
        if cmd in ("power", "csr"):
            job["flags"] = ["--t", str(int(rng.integers(0, 40)))]
        elif cmd in ("nachtigall", "ultimate"):
            job["flags"] = ["--t", str(3 * n * n + int(rng.integers(0, 10)))]
        elif cmd == "orbit":
            job["y"] = start_vector(rng, n, sparse=bool(rng.random() < 0.5))
        elif cmd == "critical" and i // len(COMMANDS) in scaled:
            job["unscaled"] = arr
            arr = scale_weights(arr)
        job["matrix"] = arr
        jobs.append(job)
    return jobs
