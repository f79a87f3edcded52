"""Command line interface: file ingestion, dispatch, JSON reports.

Reports go to stdout and are byte-deterministic for identical inputs and
flags; timing goes to stderr.  Node and term indices in reports are
1-based.  -inf is serialized as JSON null.  Exit codes: 0 success,
1 verification mismatch (verify only), 2 input or output error (a
ParseError, such as a bad token, a file that cannot be read, or a stdout
that cannot be written), 3 any other MaxplusError (DomainError,
NonFiniteError, ...), 64 usage error.

Each command imports the library modules it runs when it runs, so a
fresh process loads only those.  The console entry `_entry` flushes the
output and ends the process without interpreter teardown.

Every command decides at CRIT_TOL, as the library does: two values are
equal when both are -inf or both are finite and within CRIT_TOL
(core._agree), and ordered when x - y > CRIT_TOL (core._exceeds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time

import numpy as np

from .core import CRIT_TOL, NEG_INF, TropicalMatrix, mat_eq, mat_power
from .errors import (DivergentStarError, MaxplusError, NoCyclesError,
                     NonFiniteError, OracleSizeError, ParseError)


# ---------------------------------------------------------------- parsing

def _to_maxplus(value: float, semiring: str, line, column) -> float:
    if semiring == "maxplus" or value == NEG_INF:
        return value
    if value < 0:
        raise ParseError("negative entry in max-times input", line, column)
    if value == 0:
        return NEG_INF
    return math.log(value)


def _scalar(token: str, line: int, column: int, semiring: str) -> float:
    if token in ("-inf", "*"):
        return NEG_INF
    try:
        value = float(token)
    except ValueError:
        raise ParseError("bad token %r" % token, line, column) from None
    if not math.isfinite(value) and value != NEG_INF:
        raise ParseError("bad token %r" % token, line, column)
    return _to_maxplus(value, semiring, line, column)


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in re.finditer(r"\S+", line):
            yield m.group(0), lineno, m.start() + 1


def _take_size(tokens, what: str) -> int:
    try:
        token, line, column = next(tokens)
    except StopIteration:
        raise ParseError("empty input", 1, 1) from None
    try:
        n = int(token)
    except ValueError:
        raise ParseError("bad size token %r" % token, line, column) from None
    if n < 1:
        raise ParseError("%s size must be positive" % what, line, column)
    return n


def _take_values(tokens, count: int, semiring: str) -> list:
    values = []
    last = (1, 1)
    for token, line, column in tokens:
        if len(values) == count:
            raise ParseError("unexpected trailing token %r" % token,
                             line, column)
        values.append(_scalar(token, line, column, semiring))
        last = (line, column)
    if len(values) < count:
        raise ParseError("expected %d entries, got %d" % (count, len(values)),
                         *last)
    return values


def _json_entry(value, semiring: str, where: str) -> float:
    if value is None:
        return NEG_INF
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError("bad entry at %s" % where, 1, 1)
    try:
        value = float(value)
    except OverflowError:       # an integer past float64
        value = math.inf
    if not math.isfinite(value):
        raise ParseError("bad entry at %s" % where, 1, 1)
    return _to_maxplus(value, semiring, 1, 1)


def _load_json(text: str, key: str) -> tuple:
    """(n, the key field) of the object of text that starts with '{' (no
    other value can)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e.msg, e.lineno, e.colno) from None
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError("field 'n' must be a positive integer", 1, 1)
    return n, obj.get(key)


def parse_matrix(text: str, semiring: str = "maxplus") -> TropicalMatrix:
    """Parse plain (n then n*n tokens; -inf or * for -inf) or JSON
    ({"n": ..., "rows": [[...]]} with null for -inf) matrix text."""
    if text.lstrip().startswith("{"):
        n, rows = _load_json(text, "rows")
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError("matrix must be square: expected %d rows" % n, 1, 1)
        entries = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError("matrix must be square: row %d must have %d "
                                 "entries" % (i + 1, n), 1, 1)
            entries.append([_json_entry(v, semiring,
                                        "row %d column %d" % (i + 1, j + 1))
                            for j, v in enumerate(row)])
        return TropicalMatrix(entries)
    tokens = _tokens(text)
    n = _take_size(tokens, "matrix")
    values = _take_values(tokens, n * n, semiring)
    return TropicalMatrix([values[i * n:(i + 1) * n] for i in range(n)])


def parse_vector(text: str, semiring: str = "maxplus") -> np.ndarray:
    """Parse plain (n then n tokens) or JSON ({"n": ..., "values": [...]})
    vector text."""
    if text.lstrip().startswith("{"):
        n, values = _load_json(text, "values")
        if not isinstance(values, list) or len(values) != n:
            raise ParseError("expected %d values" % n, 1, 1)
        return np.array([_json_entry(v, semiring, "position %d" % (i + 1))
                         for i, v in enumerate(values)])
    tokens = _tokens(text)
    n = _take_size(tokens, "vector")
    return np.array(_take_values(tokens, n, semiring))


# ------------------------------------------------------------- formatting

def _num(x):
    x = float(x)
    if x == NEG_INF:
        return None
    if not math.isfinite(x):
        raise NonFiniteError("non-finite value %r in report: the weights "
                             "overflow float64" % x)
    if x == int(x) and abs(x) < 1e15:
        return int(x)
    return float("%.12g" % x)


def _matrix(arr) -> list:
    if isinstance(arr, TropicalMatrix):
        arr = arr.arr
    return [[_num(v) for v in row] for row in np.asarray(arr).tolist()]


def _nodes1(nodes) -> list:
    return [int(v) + 1 for v in sorted(nodes)]


def _edges1(edges) -> list:
    return [[int(u) + 1, int(v) + 1] for u, v in sorted(edges)]


# --------------------------------------------------------------- commands

def _cmd_power(a, args, report):
    report["t"] = args.t
    report["matrix"] = _matrix(mat_power(a, args.t))


def _cmd_star(a, args, report):
    from .kleene import kleene_star
    report["matrix"] = _matrix(kleene_star(a))


def _cmd_lambda(a, args, report):
    from .graphs import critical_structure, scc_decompose
    try:
        cs = critical_structure(a)
        lam, per, dec = cs.lambda_global, cs.lambda_of_component, cs.scc
    except NoCyclesError:
        dec = scc_decompose(a)
        lam, per = NEG_INF, [NEG_INF] * dec.k
    report["lambda"] = _num(lam)
    report["per_component"] = [_num(x) for x in per]
    report["components"] = [_nodes1(c) for c in dec.components]


def _cmd_critical(a, args, report):
    from .graphs import critical_structure
    cs = critical_structure(a)
    report["lambda"] = _num(cs.lambda_global)
    report["critical_nodes"] = _nodes1(cs.critical_nodes)
    report["critical_edges"] = _edges1(cs.critical_edges)
    report["critical_components"] = [_nodes1(c) for c in cs.critical_components]
    report["cyclicities"] = [int(g) for g in cs.cyclicity_of]
    report["gamma"] = int(cs.gamma_lcm)


def _cmd_classes(a, args, report):
    from .graphs import CritSubgraph, critical_structure
    cs = critical_structure(a)
    crit = CritSubgraph.from_critical_structure(cs)
    comps = []
    for ci, comp in enumerate(crit.components):
        comps.append({
            "nodes": _nodes1(comp),
            "cyclicity": int(crit.cyclicity_of[ci]),
            "classes": [_nodes1(bucket) for bucket in crit.members[ci]],
        })
    report["gamma"] = int(crit.gamma)
    report["components"] = comps


def _cmd_csr(a, args, report):
    from .csr import _check_definite, csr_build, csr_product
    from .expansions import _select_crit
    from .graphs import CritSubgraph, critical_structure
    cs = critical_structure(a)
    # before the selection: the cycle rule needs a critical edge
    _check_definite(a)
    crit = _select_crit(CritSubgraph.from_critical_structure(cs), args.rule)
    triple = csr_build(a, crit, check_definite=False)
    report["rule"] = args.rule
    report["t"] = args.t
    report["gamma"] = int(triple.gamma)
    report["s_is_boolean"] = bool(triple.s_is_boolean)
    report["c"] = _matrix(triple.c)
    report["s"] = _matrix(triple.s)
    report["r"] = _matrix(triple.r)
    report["product"] = _matrix(csr_product(triple, args.t).matrix)


def _expansion_report(a, e, args, report, **extra):
    """e evaluated at args.t into report, extra keys before the matrix."""
    from .expansions import evaluate
    value = evaluate(e, args.t).matrix
    report["t"] = args.t
    report["lambdas"] = [_num(x) for x in e.lambdas]
    report["gammas"] = [int(term.triple.gamma) for term in e.terms]
    report.update(extra)
    report["matrix"] = _matrix(value)
    report["matches_power"] = mat_eq(value, mat_power(a, args.t), CRIT_TOL)


def _cmd_nachtigall(a, args, report):
    from .expansions import nachtigall_expand
    e = nachtigall_expand(a, rule=args.rule)
    report["rule"] = args.rule
    _expansion_report(a, e, args, report,
                      validity_threshold=int(e.validity_threshold))


def _cmd_ultimate(a, args, report):
    from .expansions import ultimate_expand
    e = ultimate_expand(a)
    _expansion_report(a, e, args, report, sigma=[int(s) + 1 for s in e.sigma],
                      gamma_u=int(e.gamma_u))


def _cmd_threshold(a, args, report):
    from .expansions import ultimate_threshold
    from .graphs import gamma_u
    t_max = 30 * a.n * a.n
    found = ultimate_threshold(a, t_max=t_max)
    report["t_max"] = t_max
    report["gamma_u"] = int(gamma_u(a))
    report["threshold"] = None if found is None else int(found)


def _cmd_orbit_check(a, args, report):
    from .orbit import is_orbit_periodic
    r = is_orbit_periodic(a, method="support")
    report["method"] = r.method
    report["verdict"] = bool(r.verdict)
    report["gamma_u"] = int(r.gamma_u)
    for key in ("condition1_violations", "condition2_violations",
                "support_violations"):
        report[key] = [[v + 1 for v in bad] for bad in getattr(r, key)]


def _cmd_orbit(a, args, report):
    from .orbit import simulate_orbit
    with open(args.y, "rb") as fh:
        raw = fh.read()
    y = parse_vector(raw.decode(errors="replace"), args.semiring)
    if y.shape[0] != a.n:
        raise ParseError("vector length %d does not match matrix size %d"
                         % (y.shape[0], a.n), 1, 1)
    trace = simulate_orbit(a, y, t_max=args.tmax)
    report["y_digest"] = hashlib.sha256(raw).hexdigest()[:16]
    report["t_max"] = int(trace.samples.shape[0] - 1)
    report["period"] = None if trace.period is None else int(trace.period)
    report["growth_rate"] = (None if trace.growth_rate is None
                             else _num(trace.growth_rate))
    report["transient"] = (None if trace.transient is None
                           else int(trace.transient))
    report["samples"] = _matrix(trace.samples)


def _cmd_verify(a, args, report):
    from .expansions import (evaluate, nachtigall_expand, ultimate_expand,
                             ultimate_threshold)
    from .graphs import critical_structure
    from .kleene import kleene_star
    from .oracle import boolean_power_reach, enumerate_small, _NODE_CAP
    from .orbit import is_orbit_periodic
    if a.n > _NODE_CAP:
        raise OracleSizeError("too large for oracle")
    checks = []

    table = enumerate_small(a, 10)["all"]
    ok = all(mat_eq(mat_power(a, t), TropicalMatrix(table[t]), CRIT_TOL)
             for t in range(11))
    checks.append({"name": "power matches path oracle (t<=10)", "ok": ok})

    ok = all(np.array_equal(mat_power(a, t).arr != NEG_INF,
                            np.array(boolean_power_reach(a, t)))
             for t in (0, 1, 5, 9))
    checks.append({"name": "power pattern matches boolean reach", "ok": ok})

    try:
        star = kleene_star(a)
    except DivergentStarError:
        try:
            ok = bool(critical_structure(a).lambda_global > 0)
        except NoCyclesError:
            ok = False
        checks.append({"name": "divergent star implies positive lambda",
                       "ok": ok})
    else:
        want = np.full((a.n, a.n), NEG_INF)
        np.fill_diagonal(want, 0.0)
        for t in range(1, a.n):
            want = np.maximum(want, np.array(table[t]))
        ok = mat_eq(star, TropicalMatrix(want), CRIT_TOL)
        checks.append({"name": "star matches path-sum oracle", "ok": ok})

    try:
        e = nachtigall_expand(a)
    except NoCyclesError:
        e = None
    if e is not None:
        t0 = e.validity_threshold
        ok = mat_eq(evaluate(e, t0).matrix, mat_power(a, t0), CRIT_TOL)
        checks.append({"name": "nachtigall expansion matches power at "
                               "threshold", "ok": ok})
        eu = ultimate_expand(a)
        found = ultimate_threshold(a)
        ok = found is not None
        if found is not None:
            ok = all(mat_eq(evaluate(eu, t).matrix, mat_power(a, t), CRIT_TOL)
                     for t in (found, found + 1))
        checks.append({"name": "ultimate expansion matches power from "
                               "detected threshold", "ok": ok})

    sup = is_orbit_periodic(a, method="support")
    sa = is_orbit_periodic(a, method="strong-access")
    checks.append({"name": "orbit verdict agrees across support and "
                           "strong-access routes",
                   "ok": bool(sup.verdict == sa.verdict)})

    report["checks"] = checks
    report["all_ok"] = all(c["ok"] for c in checks)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(64)


_FLAGS = {
    "t": dict(type=int, required=True),
    "rule": dict(choices=("canonical", "cycle"), default="canonical"),
    "y": dict(required=True, help="start vector file"),
    "tmax": dict(type=int, default=None),
}

# name: (handler, help, flags of _FLAGS), in the order of --help
_COMMANDS = {
    "power": (_cmd_power, "matrix power", ("t",)),
    "star": (_cmd_star, "Kleene star", ()),
    "lambda": (_cmd_lambda, "max cycle means per component", ()),
    "critical": (_cmd_critical, "critical graph", ()),
    "classes": (_cmd_classes, "cyclic classes of the critical graph", ()),
    "csr": (_cmd_csr, "CSR factors and product", ("t", "rule")),
    "nachtigall": (_cmd_nachtigall, "Nachtigall expansion evaluated at t",
                   ("t", "rule")),
    "ultimate": (_cmd_ultimate, "ultimate expansion evaluated at t", ("t",)),
    "threshold": (_cmd_threshold,
                  "first exponent where the ultimate expansion holds", ()),
    "orbit-check": (_cmd_orbit_check, "decide orbit periodicity", ()),
    "orbit": (_cmd_orbit, "simulate one orbit", ("y", "tmax")),
    "verify": (_cmd_verify, "cross-check production routes against "
               "brute-force oracles (n <= 8)", ()),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("matrix", help="matrix file (plain or JSON; - for stdin)")
    common.add_argument("--semiring", choices=("maxplus", "maxtimes"),
                        default="maxplus",
                        help="input semiring; maxtimes entries are mapped "
                             "through log (default maxplus)")
    parser = _Parser(prog="maxplus",
                     description="tropical matrix powers, CSR expansions and "
                                 "orbit periodicity")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    started = time.perf_counter()
    try:
        if args.matrix == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.matrix, "rb") as fh:
                raw = fh.read()
        report = {"command": args.command,
                  "input_digest": hashlib.sha256(raw).hexdigest()[:16]}
        a = parse_matrix(raw.decode(errors="replace"), args.semiring)
        report["n"] = a.n
        _COMMANDS[args.command][0](a, args, report)
    except ParseError as e:
        where = ""
        if e.line is not None:
            where = " (line %s, column %s)" % (e.line, e.column)
        sys.stderr.write("error: %s%s\n" % (e, where))
        return 2
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except MaxplusError as e:
        sys.stderr.write("error: %s\n" % e.describe(1))
        return 3
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    sys.stderr.write("elapsed %.1f ms\n"
                     % ((time.perf_counter() - started) * 1000.0))
    if args.command == "verify" and not report["all_ok"]:
        return 1
    return 0


def _entry():
    """`maxplus` and `python -m maxplus.cli`: main's exit code, then
    os._exit, which skips interpreter teardown (and so atexit hooks).
    A failed write or flush of stdout exits 2 with one error line."""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _entry()
