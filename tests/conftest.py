"""Shared fixtures: bundled example matrices and random corpora."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from maxplus import NEG_INF, TropicalMatrix, max_cycle_mean, scc_decompose
from maxplus.cli import parse_matrix, parse_vector

DATA = Path(__file__).parent / "data"


def load_matrix(name: str) -> TropicalMatrix:
    return parse_matrix((DATA / name).read_text())


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def ex1() -> TropicalMatrix:
    return load_matrix("example1.txt")


@pytest.fixture(scope="session")
def ex2() -> TropicalMatrix:
    return load_matrix("example2.txt")


@pytest.fixture(scope="session")
def ex3a() -> TropicalMatrix:
    return load_matrix("example3a.txt")


@pytest.fixture(scope="session")
def ex3b() -> TropicalMatrix:
    return load_matrix("example3b.txt")


@pytest.fixture(scope="session")
def ex3x() -> np.ndarray:
    return parse_vector((DATA / "example3x.txt").read_text())


# -------------------------------------------------------- random corpora

def random_matrix(rng, n: int, lo: int = -9, hi: int = 3,
                  density: float = 0.5) -> TropicalMatrix:
    """Integer weights in [lo, hi], each entry finite with the given
    probability and -inf otherwise."""
    vals = rng.integers(lo, hi + 1, size=(n, n)).astype(float)
    mask = rng.random((n, n)) < density
    return TropicalMatrix(np.where(mask, vals, NEG_INF))


def has_cycle(a: TropicalMatrix) -> bool:
    return bool(scc_decompose(a).nontrivial())


def random_cyclic(rng, n: int, **kw) -> TropicalMatrix:
    while True:
        m = random_matrix(rng, n, **kw)
        if has_cycle(m):
            return m


def random_reducible(rng, n: int, blocks: int = 4) -> TropicalMatrix:
    """Upper block-triangular matrix: diagonal blocks of random size with
    their own weight offset, forward edges only between blocks."""
    arr = np.full((n, n), NEG_INF)
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n, blocks) - 1,
                             replace=False).tolist())
    bounds = list(zip([0] + cuts, cuts + [n]))
    for lo, hi in bounds:
        size = hi - lo
        block = rng.integers(-6, 3, size=(size, size)) + int(rng.integers(-4, 5))
        keep = rng.random((size, size)) < 0.6
        arr[lo:hi, lo:hi] = np.where(keep, block, NEG_INF)
    for lo, _ in bounds[1:]:
        arr[int(rng.integers(0, lo)), lo] = float(rng.integers(-3, 3))
    return TropicalMatrix(arr)


def cycle_chain(rng, lengths=(3, 4, 5, 7), means=(-3, -1, 0, 2), tail=2):
    """Disjoint cycles of the given lengths and integer cycle means, each
    feeding the next by one edge, with a path of trivial tail nodes into
    the first; gamma_u is the lcm of the lengths (420 by default).  Means
    that rise along the chain make the ultimate expansion hold from some
    exponent on."""
    n = sum(lengths) + tail
    arr = np.full((n, n), NEG_INF)
    comps, start = [], tail
    for length, mean in zip(lengths, means):
        nodes = list(range(start, start + length))
        start += length
        w = rng.integers(-4, 5, size=length).astype(float)
        w[-1] += length * mean - w.sum()
        for k in range(length):
            arr[nodes[k], nodes[(k + 1) % length]] = w[k]
        comps.append(nodes)
    for src, dst in zip(comps, comps[1:]):
        arr[src[int(rng.integers(len(src)))],
            dst[int(rng.integers(len(dst)))]] = float(rng.integers(-5, 3))
    chain = list(range(tail)) + [comps[0][0]]
    for u, v in zip(chain, chain[1:]):
        arr[u, v] = float(rng.integers(-5, 3))
    return TropicalMatrix(arr)


def scaled_hang_matrix() -> TropicalMatrix:
    """Integer draw whose weights w -> 1e6 w + 1e7/3 leave level 0 with no
    critical edge: normalizing weights near 1e7 by a fractional cycle mean
    leaves rounding residues (about 2e-9 here) above the absolute
    CRIT_TOL = 1e-9 on every cycle."""
    rng = np.random.default_rng(7)
    a = [random_cyclic(rng, 5) for _ in range(15)][14]
    fin = a.finite_mask()
    return TropicalMatrix(np.where(fin, 1e6 * a.arr + 1e7 / 3, NEG_INF))


def dead_end_critical_matrix() -> TropicalMatrix:
    """Weights near 1e6 whose rounding residues pass the absolute CRIT_TOL
    on edges into node 0 but not out of it: a critical node with no
    outgoing critical edge."""
    return TropicalMatrix([
        [333333.3333333335, 2333333.3333333335, NEG_INF],
        [-666666.6666666665, -2666666.6666666665, 5333333.333333334],
        [-1666666.6666666665, NEG_INF, NEG_INF]])


def random_definite(rng, n: int, **kw) -> TropicalMatrix:
    m = random_cyclic(rng, n, **kw)
    return m.scale(-max_cycle_mean(m))


# ------------------------------------------------- acceptance reporting

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion in the final summary."""
    lines = {}
    for key, word in (("passed", "PASS"), ("failed", "FAIL"),
                      ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if not name.startswith("test_criterion_"):
                continue
            num, _, rest = name[len("test_criterion_"):].partition("_")
            lines[int(num)] = (rest.replace("_", " "), word)
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for num in sorted(lines):
            rest, word = lines[num]
            terminalreporter.write_line(
                "criterion %d (%s): %s" % (num, rest, word))
