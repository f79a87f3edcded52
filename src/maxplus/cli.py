"""Command line interface: file ingestion, dispatch, JSON reports.

Reports go to stdout and are byte-deterministic for identical inputs and
flags; timing goes to stderr.  Node and term indices in reports are
1-based.  -inf is serialized as JSON null.  Exit codes: 0 success,
1 verification mismatch (verify only), 2 input error (including a
TROPICAL_ORACLE_CAP that is not an integer >= 1), 3 precondition error
(including NonFiniteError: a sum of weights or a report value overflowed
float64), 64 usage error.

Every command decides at CRIT_TOL, as the library does: two values are
equal when both are -inf or both are finite and within CRIT_TOL
(core._agree), and ordered when x - y > CRIT_TOL (core._exceeds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time

import numpy as np

from .core import CRIT_TOL, NEG_INF, TropicalMatrix, mat_eq, mat_power
from .csr import _check_definite, csr_build, csr_product
from .errors import (DivergentStarError, MaxplusError, NoCyclesError,
                     NonFiniteError, OracleSizeError, ParseError)
from .expansions import (_select_crit, evaluate, nachtigall_expand,
                         ultimate_expand, ultimate_threshold)
from .graphs import CritSubgraph, critical_structure, gamma_u, scc_decompose
from .kleene import kleene_star
from .oracle import boolean_power_reach, enumerate_small, _node_cap
from .orbit import is_orbit_periodic, simulate_orbit


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
    if not math.isfinite(value):
        raise ParseError("bad entry at %s" % where, 1, 1)
    return _to_maxplus(float(value), semiring, 1, 1)


def _load_json(text: str) -> dict:
    """The object of text that starts with '{' (no other value can)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e.msg, e.lineno, e.colno) from None


def parse_matrix(text: str, semiring: str = "maxplus") -> TropicalMatrix:
    """Parse plain (n then n*n tokens; -inf or * for -inf) or JSON
    ({"n": ..., "rows": [[...]]} with null for -inf) matrix text."""
    if text.lstrip().startswith("{"):
        obj = _load_json(text)
        n, rows = obj.get("n"), obj.get("rows")
        if not isinstance(n, int) or n < 1:
            raise ParseError("field 'n' must be a positive integer", 1, 1)
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
        obj = _load_json(text)
        n, values = obj.get("n"), obj.get("values")
        if not isinstance(n, int) or n < 1:
            raise ParseError("field 'n' must be a positive integer", 1, 1)
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


def _vector(vec) -> list:
    return [_num(v) for v in np.asarray(vec).tolist()]


def _nodes1(nodes) -> list:
    return [int(v) + 1 for v in sorted(nodes)]


def _edges1(edges) -> list:
    return [[int(u) + 1, int(v) + 1] for u, v in sorted(edges)]


# --------------------------------------------------------------- commands

def _cmd_power(a, args, report):
    report["t"] = args.t
    report["matrix"] = _matrix(mat_power(a, args.t))


def _cmd_star(a, args, report):
    report["matrix"] = _matrix(kleene_star(a))


def _cmd_lambda(a, args, report):
    try:
        cs = critical_structure(a)
        lam = cs.lambda_global
        per = [_num(x) for x in cs.lambda_of_component]
        comps = [_nodes1(c) for c in cs.scc.components]
    except NoCyclesError:
        dec = scc_decompose(a)
        lam = NEG_INF
        per = [None] * dec.k
        comps = [_nodes1(c) for c in dec.components]
    report["lambda"] = _num(lam)
    report["per_component"] = per
    report["components"] = comps


def _cmd_critical(a, args, report):
    cs = critical_structure(a)
    report["lambda"] = _num(cs.lambda_global)
    report["critical_nodes"] = _nodes1(cs.critical_nodes)
    report["critical_edges"] = _edges1(cs.critical_edges)
    report["critical_components"] = [_nodes1(c) for c in cs.critical_components]
    report["cyclicities"] = [int(g) for g in cs.cyclicity_of]
    report["gamma"] = int(cs.gamma_lcm)


def _cmd_classes(a, args, report):
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
    cs = critical_structure(a)
    # before the selection: the cycle rule needs a critical edge
    _check_definite(a)
    crit = _select_crit(cs, args.rule)
    triple = csr_build(a, crit, check_definite=False)
    report["rule"] = args.rule
    report["t"] = args.t
    report["gamma"] = int(triple.gamma)
    report["s_is_boolean"] = bool(triple.s_is_boolean)
    report["c"] = _matrix(triple.c)
    report["s"] = _matrix(triple.s)
    report["r"] = _matrix(triple.r)
    report["product"] = _matrix(csr_product(triple, args.t).matrix)


def _cmd_nachtigall(a, args, report):
    e = nachtigall_expand(a, rule=args.rule)
    value = evaluate(e, args.t).matrix
    report["rule"] = args.rule
    report["t"] = args.t
    report["lambdas"] = [_num(x) for x in e.lambdas]
    report["gammas"] = [int(term.triple.gamma) for term in e.terms]
    report["validity_threshold"] = int(e.validity_threshold)
    report["matrix"] = _matrix(value)
    report["matches_power"] = mat_eq(value, mat_power(a, args.t), CRIT_TOL)


def _cmd_ultimate(a, args, report):
    e = ultimate_expand(a)
    value = evaluate(e, args.t).matrix
    report["t"] = args.t
    report["lambdas"] = [_num(x) for x in e.lambdas]
    report["gammas"] = [int(term.triple.gamma) for term in e.terms]
    report["sigma"] = [int(s) + 1 for s in e.sigma]
    report["gamma_u"] = int(e.gamma_u)
    report["matrix"] = _matrix(value)
    report["matches_power"] = mat_eq(value, mat_power(a, args.t), CRIT_TOL)


def _cmd_threshold(a, args, report):
    t_max = 30 * a.n * a.n
    found = ultimate_threshold(a, t_max=t_max)
    report["t_max"] = t_max
    report["gamma_u"] = int(gamma_u(a))
    report["threshold"] = None if found is None else int(found)


def _cmd_orbit_check(a, args, report):
    r = is_orbit_periodic(a, method="support")
    report["method"] = r.method
    report["verdict"] = bool(r.verdict)
    report["gamma_u"] = int(r.gamma_u)
    report["condition1_violations"] = [[i + 1, j + 1]
                                       for i, j in r.condition1_violations]
    report["condition2_violations"] = [[i + 1, j + 1]
                                       for i, j in r.condition2_violations]
    report["support_violations"] = [[mu + 1, nu + 1, i + 1, j + 1]
                                    for mu, nu, i, j in r.support_violations]


def _cmd_orbit(a, args, report):
    with open(args.y, "rb") as fh:
        raw = fh.read()
    y = parse_vector(raw.decode(), args.semiring)
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
    report["samples"] = [_vector(row) for row in trace.samples]


def _cmd_verify(a, args, report):
    if a.n > _node_cap():
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
        star = None
    if star is None:
        try:
            cs = critical_structure(a)
            ok = bool(cs.lambda_global > 0)
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


_COMMANDS = {
    "power": _cmd_power,
    "star": _cmd_star,
    "lambda": _cmd_lambda,
    "critical": _cmd_critical,
    "classes": _cmd_classes,
    "csr": _cmd_csr,
    "nachtigall": _cmd_nachtigall,
    "ultimate": _cmd_ultimate,
    "threshold": _cmd_threshold,
    "orbit-check": _cmd_orbit_check,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(64)


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
    p = sub.add_parser("power", parents=[common], help="matrix power")
    p.add_argument("--t", type=int, required=True)
    sub.add_parser("star", parents=[common], help="Kleene star")
    sub.add_parser("lambda", parents=[common],
                   help="max cycle means per component")
    sub.add_parser("critical", parents=[common], help="critical graph")
    sub.add_parser("classes", parents=[common],
                   help="cyclic classes of the critical graph")
    p = sub.add_parser("csr", parents=[common], help="CSR factors and product")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rule", choices=("canonical", "cycle"),
                   default="canonical")
    p = sub.add_parser("nachtigall", parents=[common],
                       help="Nachtigall expansion evaluated at t")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--rule", choices=("canonical", "cycle"),
                   default="canonical")
    p = sub.add_parser("ultimate", parents=[common],
                       help="ultimate expansion evaluated at t")
    p.add_argument("--t", type=int, required=True)
    sub.add_parser("threshold", parents=[common],
                   help="first exponent where the ultimate expansion holds")
    sub.add_parser("orbit-check", parents=[common],
                   help="decide orbit periodicity")
    p = sub.add_parser("orbit", parents=[common], help="simulate one orbit")
    p.add_argument("--y", required=True, help="start vector file")
    p.add_argument("--tmax", type=int, default=None)
    sub.add_parser("verify", parents=[common],
                   help="cross-check production routes against brute-force "
                        "oracles (n <= 8)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        if args.matrix == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.matrix, "rb") as fh:
                raw = fh.read()
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    started = time.perf_counter()
    report = {"command": args.command,
              "input_digest": hashlib.sha256(raw).hexdigest()[:16]}
    try:
        a = parse_matrix(raw.decode(errors="replace"), args.semiring)
        report["n"] = a.n
        _COMMANDS[args.command](a, args, report)
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
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 3
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    sys.stderr.write("elapsed %.1f ms\n"
                     % ((time.perf_counter() - started) * 1000.0))
    if args.command == "verify" and not report["all_ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
