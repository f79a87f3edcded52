"""Brute-force references for tests and the CLI verify command.

Everything here recomputes path weights and reachability with plain
Python loops over explicit path-class state machines, sharing no code
with the production routes it validates.  Sizes are capped; these are
correctness references, not tools.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .core import NEG_INF, TropicalMatrix
from .errors import DomainError, OracleSizeError

_NODE_CAP = 8
_T_CAP = 60


def _check_length(t, what: str):
    """DomainError unless t is an integer >= 0 (the oracle's own check)."""
    if not isinstance(t, numbers.Integral):
        raise DomainError("%s must be an integer" % what)
    if t < 0:
        raise DomainError("%s must be nonnegative" % what)


def _weights(a: TropicalMatrix) -> list:
    return [[float(a.arr[u, v]) for v in range(a.n)] for u in range(a.n)]


@dataclass(frozen=True)
class PathClassQuery:
    """A path-weight question: best weight over i -> j paths of length t
    in a given class.

    kind "all" needs no parameters.  "crit-heavy" takes crit_nodes and
    selects paths visiting that set.  "mu-heavy" takes levels (per-node
    deflation level, None for never-removed nodes) and mu, selecting
    paths whose smallest visited level is mu.  "mu-hard" takes lam_of
    (per-node component cycle mean, -inf for trivial components),
    lam_mu and hard_nodes, selecting paths whose largest visited cycle
    mean equals lam_mu and that visit hard_nodes.  lam_of and lam_mu
    must come from one source so the float comparison is exact.
    """

    i: int
    j: int
    t: int
    kind: str = "all"
    crit_nodes: frozenset | None = None
    mu: int | None = None
    levels: tuple | None = None
    lam_of: tuple | None = None
    lam_mu: float | None = None
    hard_nodes: frozenset | None = None


def _machine(q: PathClassQuery):
    """(init_aux(i), step(aux, v), accept(aux)) for the class of q."""
    if q.kind == "all":
        return (lambda i: None), (lambda aux, v: None), (lambda aux: True)
    if q.kind == "crit-heavy":
        if q.crit_nodes is None:
            raise DomainError("class crit-heavy requires crit_nodes")
        nc = q.crit_nodes
        return ((lambda i: i in nc), (lambda aux, v: aux or v in nc),
                (lambda aux: aux))
    if q.kind == "mu-heavy":
        if q.levels is None or q.mu is None:
            raise DomainError("class mu-heavy requires levels and mu")
        lvl = [math.inf if x is None else x for x in q.levels]
        return ((lambda i: lvl[i]), (lambda aux, v: min(aux, lvl[v])),
                (lambda aux, mu=q.mu: aux == mu))
    if q.kind == "mu-hard":
        if q.lam_of is None or q.lam_mu is None or q.hard_nodes is None:
            raise DomainError("class mu-hard requires lam_of, lam_mu and "
                              "hard_nodes")
        lam, hard = q.lam_of, q.hard_nodes
        return ((lambda i: (lam[i], i in hard)),
                (lambda aux, v: (max(aux[0], lam[v]), aux[1] or v in hard)),
                (lambda aux, lm=q.lam_mu: aux[0] == lm and aux[1]))
    raise DomainError("unknown path class: %r" % (q.kind,))


def _dp_sweep(w: list, n: int, i: int, t_max: int, machine) -> list:
    """table[t][j]: best accepted weight over i -> j paths of length t."""
    init, step, accept = machine
    cur = {(i, init(i)): 0.0}
    table = []
    for _ in range(t_max + 1):
        row = [NEG_INF] * n
        for (u, aux), wt in cur.items():
            if accept(aux) and wt > row[u]:
                row[u] = wt
        table.append(row)
        nxt = {}
        for (u, aux), wt in cur.items():
            wrow = w[u]
            for v in range(n):
                if wrow[v] == NEG_INF:
                    continue
                key = (v, step(aux, v))
                val = wt + wrow[v]
                if val > nxt.get(key, NEG_INF):
                    nxt[key] = val
        cur = nxt
    return table


def best_path_weight(a: TropicalMatrix, q: PathClassQuery) -> float:
    """Exact best weight over the queried path class, -inf if empty."""
    _check_length(q.t, "path length")
    if not (0 <= q.i < a.n and 0 <= q.j < a.n):
        raise DomainError("node out of range")
    table = _dp_sweep(_weights(a), a.n, q.i, q.t, _machine(q))
    return table[q.t][q.j]


def _bool_compose(x: list, y: list) -> list:
    out = []
    for row in x:
        s = set()
        for v in row:
            s |= y[v]
        out.append(s)
    return out


def boolean_power_reach(a: TropicalMatrix, t: int) -> list:
    """n x n list-of-lists of bools: reachability in exactly t steps."""
    _check_length(t, "power")
    n = a.n
    adj = [{v for v in range(n) if a.arr[u, v] != NEG_INF} for u in range(n)]
    acc = [{u} for u in range(n)]
    while t:
        if t & 1:
            acc = _bool_compose(acc, adj)
        t >>= 1
        if t:
            adj = _bool_compose(adj, adj)
    return [[v in acc[u] for v in range(n)] for u in range(n)]


def enumerate_small(a: TropicalMatrix, t_max: int, crit_nodes=None,
                    levels=None, lam_of=None, hard=None) -> dict:
    """Full path-class weight tables for every i, j and t <= t_max.

    Returns {class_key: table} with table[t][i][j] the best weight.
    Class "all" is always present; "crit-heavy" when crit_nodes is
    given; "mu-heavy/<k>" per distinct level when levels is given;
    "mu-hard/<k>" per (lam_mu, hard_nodes) pair in hard when lam_of is
    given.  Guarded to n <= 8, t_max <= 60.
    """
    _check_length(t_max, "t_max")
    if a.n > _NODE_CAP or t_max > _T_CAP:
        raise OracleSizeError("too large for oracle")
    queries = {"all": {}}
    if crit_nodes is not None:
        queries["crit-heavy"] = {"crit_nodes": frozenset(crit_nodes)}
    if levels is not None:
        for k in sorted({x for x in levels if x is not None}):
            queries["mu-heavy/%d" % k] = {"levels": tuple(levels), "mu": k}
    if hard is not None:
        if lam_of is None:
            raise DomainError("hard classes require lam_of")
        for k, (lam_mu, nodes) in enumerate(hard):
            queries["mu-hard/%d" % k] = {"lam_of": tuple(lam_of),
                                         "lam_mu": lam_mu,
                                         "hard_nodes": frozenset(nodes)}
    w = _weights(a)
    out = {}
    for key, params in queries.items():
        machine = _machine(PathClassQuery(0, 0, 0, key.split("/")[0], **params))
        per_source = [_dp_sweep(w, a.n, i, t_max, machine) for i in range(a.n)]
        out[key] = [[per_source[i][t] for i in range(a.n)]
                    for t in range(t_max + 1)]
    return out
