"""End-to-end command line tests: parsing, reports, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import maxplus
import maxplus.cli as cli
from conftest import (DATA, dead_end_critical_matrix, random_cyclic,
                      random_definite, scaled_hang_matrix)
from goldens import (EX1_A2, EX1_N1_0, EX1_THRESHOLD, EX2_THRESHOLD,
                     EX3_GAMMA_U, LARGE_STDOUT_SHA256, ORBIT_FRAC_MATRIX,
                     ORBIT_FRAC_Y, ORBIT_STDOUT_SHA256)

EX1 = str(DATA / "example1.txt")
EX2 = str(DATA / "example2.txt")
EX3A = str(DATA / "example3a.txt")
EX3B = str(DATA / "example3b.txt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out else None), err


# ---------------------------------------------------------------- parsing

def test_power_minimal(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 0")
    code, obj, _ = run(capsys, "power", "--t", "1", str(f))
    assert code == 0
    assert obj["command"] == "power" and obj["n"] == 1 and obj["t"] == 1
    assert obj["matrix"] == [[0]]


def test_power_example1_golden(capsys):
    code, obj, _ = run(capsys, "power", "--t", "2", EX1)
    assert code == 0
    assert obj["matrix"] == EX1_A2


def test_power_zero_is_identity(capsys):
    code, obj, _ = run(capsys, "power", "--t", "0", EX1)
    assert code == 0
    want = [[0 if i == j else None for j in range(4)] for i in range(4)]
    assert obj["matrix"] == want


def test_json_matrix_roundtrip(tmp_path, capsys):
    _, obj, _ = run(capsys, "power", "--t", "1", EX1)
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": obj["n"], "rows": obj["matrix"]}))
    code, obj2, _ = run(capsys, "power", "--t", "2", str(f))
    assert code == 0
    assert obj2["matrix"] == EX1_A2


def test_parse_error_reporting(tmp_path, capsys):
    cases = [
        ("2 0", "expected 4 entries, got 1"),
        ("x", "bad size token"),
        ("0", "matrix size must be positive"),
        ("1 nan", "bad token 'nan'"),
        ("1 +inf", "bad token '+inf'"),
        ("1 0 7", "unexpected trailing token"),
        ("", "empty input"),
        ("{bad", "invalid JSON"),
        ('{"n": 2, "rows": [[0, 1]]}', "matrix must be square"),
        ('{"n": 2, "rows": [[0, 1], [0]]}', "row 2 must have 2 entries"),
        ('{"n": 1, "rows": [[true]]}', "bad entry at row 1 column 1"),
        ('{"n": 1, "rows": [[1%s]]}' % ("0" * 400),
         "bad entry at row 1 column 1"),
        ("1 1%s" % ("0" * 400), "bad token"),
    ]
    for text, needle in cases:
        f = tmp_path / "m.txt"
        f.write_text(text)
        code, obj, err = run(capsys, "star", str(f))
        assert code == 2, text
        assert obj is None and needle in err, text
        assert "line" in err, text


def test_missing_file(capsys):
    code, obj, err = run(capsys, "star", "/no/such/file.txt")
    assert code == 2 and obj is None and "error:" in err


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin",
                        SimpleNamespace(buffer=io.BytesIO(b"1 -3")))
    code, obj, _ = run(capsys, "power", "--t", "2", "-")
    assert code == 0 and obj["matrix"] == [[-6]]


# ------------------------------------------------------------- exit codes

def test_usage_errors(capsys):
    assert run(capsys, "power", EX1)[0] == 64          # missing --t
    assert run(capsys, "bogus", EX1)[0] == 64          # unknown command
    assert run(capsys)[0] == 64                        # no command


def test_divergent_star_exits_3(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 1")
    code, obj, err = run(capsys, "star", str(f))
    assert code == 3 and obj is None and "error:" in err


def test_divergent_star_that_overflows_names_the_component(tmp_path,
                                                           capsys):
    f = tmp_path / "m.txt"
    f.write_text("60\n" + "\n".join([" ".join(["1e295"] * 60)] * 60))
    code, obj, err = run(capsys, "star", str(f))
    assert code == 3 and obj is None
    # 1-based, like every report; the library's message counts from 0
    assert err.startswith("error: divergent star: component [1, 2, 3,")
    assert "[1, 2, 3, " in err and ", 60] has cycle mean" in err
    assert "has cycle mean 1e+295" in err


def test_negative_power_exits_3(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 0")
    code, _, err = run(capsys, "power", "--t", "-1", str(f))
    assert code == 3 and "negative power" in err


SUM_OVERFLOW = "error: non-finite value: a sum of weights overflows float64\n"


def test_overflowing_report_exits_3(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1\n1e308\n")
    y = tmp_path / "y.txt"
    y.write_text("1\n0\n")
    # power, orbit and the expansion's lam * t overflow in the library's
    # sums
    for argv, tail in (
            (["power", "--t", "2"], SUM_OVERFLOW),
            (["nachtigall", "--t", "3"], SUM_OVERFLOW),
            (["orbit", "--y", str(y)], SUM_OVERFLOW)):
        code, obj, err = run(capsys, *argv, str(f))
        assert (code, obj) == (3, None), argv
        assert err.endswith(tail), argv
    # finite reports near the edge are unchanged
    code, obj, _ = run(capsys, "power", "--t", "1", str(f))
    assert code == 0 and obj["matrix"] == [[1e308]]
    assert [cli._num(x) for x in (3.0, -0.0, 1e15, 2.5, float("-inf"))] == \
        [3, 0, 1e15, 2.5, None]


def test_negative_overflow_exits_3(tmp_path, capsys):
    # -1e308 + -1e308 leaves float64 towards -inf: the power and the orbit
    # used to print null (-inf) and exit 0
    f = tmp_path / "m.txt"
    f.write_text("1\n-1e308\n")
    y = tmp_path / "y.txt"
    y.write_text("1\n0\n")
    for argv in (["power", "--t", "2"], ["orbit", "--y", str(y)],
                 ["orbit", "--y", str(y), "--tmax", "2"]):
        code, obj, err = run(capsys, *argv, str(f))
        assert (code, obj) == (3, None), argv
        assert err.endswith(SUM_OVERFLOW), argv
    code, obj, _ = run(capsys, "orbit", "--y", str(y), "--tmax", "1", str(f))
    assert code == 0 and obj["samples"] == [[0], [-1e308]]


def test_overflow_in_critical_analysis_exits_3(tmp_path, capsys):
    # Karp's sums and the star's relaxation leave float64 on this input
    f = tmp_path / "m.txt"
    f.write_text("2\n1e308 1e308\n1e308 1e308\n")
    for argv in (["classes"], ["lambda"], ["critical"], ["star"],
                 ["csr", "--t", "3"], ["threshold"], ["orbit-check"],
                 ["ultimate", "--t", "12"]):
        code, obj, err = run(capsys, *argv, str(f))
        assert (code, obj, err) == (3, None, SUM_OVERFLOW), argv


def test_verify_size_cap_exits_3(tmp_path, capsys):
    n = 9
    rows = [" ".join("0" if i == j else "*" for j in range(n))
            for i in range(n)]
    f = tmp_path / "m.txt"
    f.write_text("%d\n%s" % (n, "\n".join(rows)))
    code, _, err = run(capsys, "verify", str(f))
    assert code == 3 and "too large for oracle" in err


def test_verify_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    # force one oracle check to disagree; the report must say so and the
    # exit code must flip to 1
    monkeypatch.setattr("maxplus.oracle.boolean_power_reach",
                        lambda a, t: [[False] * a.n for _ in range(a.n)])
    code, obj, _ = run(capsys, "verify", EX1)
    assert code == 1
    assert not obj["all_ok"]
    bad = [c for c in obj["checks"] if not c["ok"]]
    assert bad and "boolean" in bad[0]["name"]


def test_tolerance_setting_is_ignored(tmp_path, capsys, monkeypatch):
    """Every command decides at CRIT_TOL: a TROPICAL_TOL setting, valid
    or not, leaves stdout and the exit code as they are without it.  It
    used to exit 2 (abc, nan), and at 0 the threshold of the second
    matrix came out null where the default gives 12."""
    definite = tmp_path / "definite.txt"
    definite.write_text("2\n0 -1\n-2 0\n")
    thirds = tmp_path / "thirds.txt"
    thirds.write_text("3\n%r -1 *\n1 * -2\n* %r 0.1\n" % (1 / 3, 2 / 3))
    commands = [(argv, str(f)) for f in (definite, thirds)
                for argv in (["csr", "--t", "3"], ["nachtigall", "--t", "12"],
                             ["ultimate", "--t", "12"], ["threshold"],
                             ["orbit-check"], ["verify"])]

    def outputs():
        got = []
        for argv, path in commands:
            code = cli.main(argv + [path])
            got.append((code, capsys.readouterr().out))
        return got

    monkeypatch.delenv("TROPICAL_TOL", raising=False)
    want = outputs()
    assert json.loads(want[9][1])["threshold"] == 12
    assert all(code in (0, 3) for code, _ in want)
    for value in ("abc", "nan", "0", "1e-6"):
        monkeypatch.setenv("TROPICAL_TOL", value)
        assert outputs() == want, value


def test_oracle_cap_setting_is_ignored(tmp_path, capsys, monkeypatch):
    """verify caps the oracle at 8 nodes: a TROPICAL_ORACLE_CAP setting,
    valid or not, leaves stdout and the exit code as they are without
    it.  It used to move the cap, and exit 2 on a value that was no
    integer >= 1."""
    big = tmp_path / "big.txt"
    big.write_text("9\n" + "\n".join(" ".join("0" if i == j else "*"
                                              for j in range(9))
                                     for i in range(9)))
    paths = [EX1, EX2, str(big)]

    def outputs():
        got = []
        for path in paths:
            code = cli.main(["verify", path])
            got.append((code, capsys.readouterr().out))
        return got

    monkeypatch.delenv("TROPICAL_ORACLE_CAP", raising=False)
    want = outputs()
    assert [code for code, _ in want] == [0, 0, 3]
    for value in ("abc", "", "2.5", "0", "-1", "3", "9"):
        monkeypatch.setenv("TROPICAL_ORACLE_CAP", value)
        assert outputs() == want, value


# ----------------------------------------------------------- the commands

def test_lambda_example2(capsys):
    code, obj, _ = run(capsys, "lambda", EX2)
    assert code == 0
    assert obj["lambda"] == 0
    assert obj["per_component"] == [0, -1]
    assert obj["components"] == [[1, 2, 3, 4], [5, 6, 7]]


def test_lambda_acyclic(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("2 * 1 * *")
    code, obj, _ = run(capsys, "lambda", str(f))
    assert code == 0
    assert obj["lambda"] is None
    assert obj["per_component"] == [None, None]


def test_critical_example1(capsys):
    code, obj, _ = run(capsys, "critical", EX1)
    assert code == 0
    assert obj["lambda"] == 0
    assert obj["critical_nodes"] == [1, 2]
    assert obj["critical_edges"] == [[1, 2], [2, 1]]
    assert obj["critical_components"] == [[1, 2]]
    assert obj["cyclicities"] == [2] and obj["gamma"] == 2


def test_classes_example1(capsys):
    code, obj, _ = run(capsys, "classes", EX1)
    assert code == 0
    assert obj["gamma"] == 2
    comp = obj["components"][0]
    assert comp["nodes"] == [1, 2] and comp["cyclicity"] == 2
    assert comp["classes"] in ([[1], [2]], [[2], [1]])


def test_csr_example1(capsys):
    code, obj, _ = run(capsys, "csr", "--t", "2", EX1)
    assert code == 0
    assert obj["rule"] == "canonical" and obj["gamma"] == 2
    assert obj["s_is_boolean"] is True
    assert obj["product"] == EX1_N1_0
    code2, obj2, _ = run(capsys, "csr", "--t", "2", "--rule", "cycle", EX1)
    assert code2 == 0 and obj2["product"] == EX1_N1_0


def test_nachtigall_example1(capsys):
    code, obj, _ = run(capsys, "nachtigall", "--t", "10", EX1)
    assert code == 0
    assert obj["lambdas"] == [0, -1, -2]
    assert obj["gammas"] == [2, 1, 1]
    assert obj["validity_threshold"] == 48
    assert obj["matches_power"] is True
    assert obj["matrix"] == EX1_N1_0


def test_ultimate_example2(capsys):
    code, obj, _ = run(capsys, "ultimate", "--t", "9", EX2)
    assert code == 0
    assert obj["lambdas"] == [0, -1]
    assert obj["gammas"] == [2, 1]
    assert obj["gamma_u"] == 2
    assert obj["sigma"] == sorted(obj["sigma"])
    assert obj["matches_power"] is True


def test_threshold_examples(capsys):
    code, obj, _ = run(capsys, "threshold", EX1)
    assert code == 0
    assert obj["threshold"] == EX1_THRESHOLD
    assert obj["gamma_u"] == 2 and obj["t_max"] == 30 * 16
    code, obj, _ = run(capsys, "threshold", EX2)
    assert code == 0
    assert obj["threshold"] == EX2_THRESHOLD


def test_orbit_check_example3(capsys):
    code, obj, _ = run(capsys, "orbit-check", EX3A)
    assert code == 0
    assert obj["verdict"] is True and obj["gamma_u"] == EX3_GAMMA_U
    assert obj["support_violations"] == []
    code, obj, _ = run(capsys, "orbit-check", EX3B)
    assert code == 0
    assert obj["verdict"] is False
    assert obj["method"] == "support"
    assert obj["support_violations"] == [[2, 1, 5, 2]]


def test_orbit_example3(tmp_path, capsys):
    y = tmp_path / "y.json"
    y.write_text(json.dumps({"n": 6, "values": [0, None, None, None,
                                                None, 0]}))
    code, obj, _ = run(capsys, "orbit", "--y", str(y), EX3A)
    assert code == 0
    assert obj["period"] == 4 and obj["growth_rate"] == 1
    assert obj["transient"] == 4
    assert obj["t_max"] == 6 * 36 + 2 * 4
    assert len(obj["samples"]) == obj["t_max"] + 1
    assert obj["samples"][4][5] == 1
    code, obj, _ = run(capsys, "orbit", "--y", str(y), EX3B)
    assert code == 0
    assert obj["period"] is None and obj["growth_rate"] is None
    assert obj["transient"] is None


def test_orbit_stdout_bytes(tmp_path, capsys):
    frac, y_frac = tmp_path / "frac.txt", tmp_path / "y_frac.txt"
    frac.write_text(ORBIT_FRAC_MATRIX)
    y_frac.write_text(ORBIT_FRAC_Y)
    y3 = str(DATA / "example3x.txt")
    files = {"example3a": (EX3A, y3), "example3b": (EX3B, y3),
             "frac": (str(frac), str(y_frac))}
    for (name, tmax), digest in ORBIT_STDOUT_SHA256.items():
        m, y = files[name]
        extra = [] if tmax is None else ["--tmax", str(tmax)]
        assert cli.main(["orbit", "--y", y] + extra + [m]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, (name, tmax)


def test_large_block_stdout_bytes(tmp_path, capsys):
    """Past 64 nodes, on an exact block with and without -0.0 entries,
    the analysis commands keep their recorded stdout."""
    arr = random_definite(np.random.default_rng(0), 80).arr
    files = {}
    for name, entries in (("definite80", arr),
                          ("definite80-0", np.where(arr == 0, -0.0, arr))):
        files[name] = tmp_path / (name + ".txt")
        files[name].write_text("80\n" + "".join(
            " ".join("*" if v == maxplus.NEG_INF else "%g" % v for v in row)
            + "\n" for row in entries))
    for (name, command), digest in LARGE_STDOUT_SHA256.items():
        extra = [] if command in ("critical", "classes") else ["--t", "19200"]
        assert cli.main([command] + extra + [str(files[name])]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, (name, command)


def test_orbit_flags_and_errors(tmp_path, capsys):
    y = tmp_path / "y.txt"
    y.write_text("6\n0 * * * * 0")
    code, obj, _ = run(capsys, "orbit", "--y", str(y), "--tmax", "10", EX3A)
    assert code == 0 and obj["t_max"] == 10 and len(obj["samples"]) == 11
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0 0")
    code, _, err = run(capsys, "orbit", "--y", str(bad), EX3A)
    assert code == 2 and "does not match matrix size" in err
    bad.write_text('{"n": 6, "values": [0, 0]}')
    code, _, err = run(capsys, "orbit", "--y", str(bad), EX3A)
    assert code == 2 and "expected 6 values" in err
    code, _, err = run(capsys, "orbit", "--y", str(tmp_path / "none.txt"),
                       EX3A)
    assert code == 2 and "none.txt" in err
    code, _, _ = run(capsys, "orbit", EX3A)
    assert code == 64                                  # missing --y


def test_orbit_negative_tmax_exits_3(tmp_path, capsys):
    y = tmp_path / "y.txt"
    y.write_text("6\n0 * * * * 0")
    for tmax in ("-1", "-3"):
        code, obj, err = run(capsys, "orbit", "--y", str(y), "--tmax", tmax,
                             EX3A)
        assert code == 3 and obj is None
        assert err == "error: negative t_max\n"


def test_orbit_unshapeable_tmax_exits_3(tmp_path, capsys):
    """A t_max whose samples numpy cannot shape is a DomainError (exit 3),
    not numpy's bare ValueError and a traceback."""
    y = tmp_path / "y.txt"
    y.write_text("6\n0 * * * * 0")
    for tmax in ("1" + "0" * 20, "9" * 30):
        code, obj, err = run(capsys, "orbit", "--y", str(y), "--tmax", tmax,
                             EX3A)
        assert (code, obj) == (3, None)
        assert err == "error: t_max too large for an array\n"


def test_non_utf8_bytes_are_bad_tokens_in_both_files(tmp_path, capsys):
    """A byte that is no UTF-8 is an input error (exit 2) in the start
    vector as in the matrix: both files decode with replacement."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n0 \xff\n")
    code, obj, err = run(capsys, "orbit", "--y", str(bad), EX1)
    assert code == 2 and obj is None
    assert err == "error: bad token '�' (line 2, column 3)\n"
    bad.write_bytes(b"1\n\xff\n")
    code, obj, err = run(capsys, "power", "--t", "1", str(bad))
    assert code == 2 and obj is None
    assert err == "error: bad token '�' (line 2, column 1)\n"


def test_huge_integers_exit_with_their_codes(tmp_path, capsys):
    """An integer past float64 is a bad entry in a JSON matrix or start
    vector (exit 2), as it is a bad token in a plain file, and an
    exponent past float64 is a NonFiniteError (exit 3); none of them
    reaches a traceback."""
    huge = "1" + "0" * 400
    m = tmp_path / "m.json"
    m.write_text('{"n": 1, "rows": [[1]]}')
    y = tmp_path / "y.json"
    y.write_text('{"n": 1, "values": [%s]}' % huge)
    code, obj, err = run(capsys, "orbit", "--y", str(y), str(m))
    assert (code, obj) == (2, None)
    assert err == "error: bad entry at position 1 (line 1, column 1)\n"
    for command in ("nachtigall", "ultimate"):
        code, obj, err = run(capsys, command, "--t", huge, EX1)
        assert (code, obj) == (3, None), command
        assert err == ("error: non-finite value: the exponent overflows "
                       "float64\n"), command


def test_boolean_size_is_a_parse_error_in_both_files(tmp_path, capsys):
    """A JSON boolean is no size, as it is no entry: exit 2 in the matrix
    and in the start vector."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": true, "rows": [[1]]}')
    code, obj, err = run(capsys, "power", "--t", "3", str(bad))
    assert code == 2 and obj is None
    assert "field 'n' must be a positive integer" in err
    m = tmp_path / "m.json"
    m.write_text('{"n": 1, "rows": [[1]]}')
    bad.write_text('{"n": true, "values": [0]}')
    code, obj, err = run(capsys, "orbit", "--y", str(bad), str(m))
    assert code == 2 and obj is None
    assert "field 'n' must be a positive integer" in err


# --------------------------------------------------------------- maxtimes

def test_maxtimes_mapping(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 2")
    code, obj, _ = run(capsys, "power", "--t", "1", "--semiring", "maxtimes",
                       str(f))
    assert code == 0
    assert obj["matrix"][0][0] == pytest.approx(math.log(2.0), abs=1e-10)
    f.write_text("1 0")
    code, obj, _ = run(capsys, "power", "--t", "1", "--semiring", "maxtimes",
                       str(f))
    assert code == 0 and obj["matrix"] == [[None]]
    f.write_text("1 -1")
    code, _, err = run(capsys, "power", "--t", "1", "--semiring", "maxtimes",
                       str(f))
    assert code == 2 and "negative entry in max-times input" in err


# ------------------------------------------------------------- invariants

def test_verify_example1(capsys):
    code, obj, _ = run(capsys, "verify", EX1)
    assert code == 0
    assert obj["all_ok"] is True
    assert len(obj["checks"]) == 6
    assert all(c["ok"] for c in obj["checks"])
    names = [c["name"] for c in obj["checks"]]
    assert len(set(names)) == len(names)


def test_verify_fractional_weights(tmp_path, capsys):
    # on weights / 3 the power and the path oracle sum in different
    # orders, so they agree within the tolerance but not bit for bit
    a = random_cyclic(np.random.default_rng(3), 4)
    rows = [[None if v == -math.inf else v / 3 for v in row]
            for row in a.arr.tolist()]
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"n": a.n, "rows": rows}))
    code, obj, _ = run(capsys, "verify", str(f))
    assert code == 0 and obj["all_ok"] is True


def test_verify_divergent_matrix(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("1 1")
    code, obj, _ = run(capsys, "verify", str(f))
    assert code == 0 and obj["all_ok"] is True
    names = [c["name"] for c in obj["checks"]]
    assert any("divergent star" in n for n in names)


def test_byte_determinism(capsys):
    out1 = run(capsys, "ultimate", "--t", "5", EX2)[1]
    out2 = run(capsys, "ultimate", "--t", "5", EX2)[1]
    assert out1 == out2
    code1 = cli.main(["star", EX2])
    text1 = capsys.readouterr().out
    code2 = cli.main(["star", EX2])
    text2 = capsys.readouterr().out
    assert code1 == code2 == 0 and text1 == text2


def test_timing_goes_to_stderr(capsys):
    code, obj, err = run(capsys, "star", EX1)
    assert code == 0 and obj is not None
    assert "elapsed" in err and "ms" in err


def _write_plain(path, a):
    rows = [" ".join("*" if v == float("-inf") else repr(float(v)) for v in row)
            for row in a.arr]
    path.write_text("%d\n%s\n" % (a.n, "\n".join(rows)))


def test_analysis_errors_exit_3(tmp_path, capsys):
    # a deflation level without critical node, and an ultimate cycle mean
    # matching two canonical levels, are precondition errors, not exit 1
    f = tmp_path / "scaled.txt"
    _write_plain(f, scaled_hang_matrix())
    code, obj, err = run(capsys, "nachtigall", "--t", "75", str(f))
    assert code == 3 and obj is None and "no critical node" in err
    # csr checks definiteness before either rule selects critical edges
    for rule in ("canonical", "cycle"):
        code, obj, err = run(capsys, "csr", "--t", "2", "--rule", rule, str(f))
        assert (code, obj) == (3, None)
        assert err == "error: not definite: max cycle mean 5.83333e+06\n"
    f = tmp_path / "close.txt"
    f.write_text("5\n0 -5 * * *\n-5 * -5e-10 * *\n* * * -5e-10 *\n"
                 "* * * * -5e-10\n* -5e-10 * * *\n")
    code, obj, err = run(capsys, "ultimate", "--t", "5", str(f))
    assert code == 3 and obj is None and "matches canonical levels" in err


CLOSE_ORBIT_CHECK = """{
  "command": "orbit-check",
  "input_digest": "8521acc7c2d0d2af",
  "n": 5,
  "method": "support",
  "verdict": true,
  "gamma_u": 1,
  "condition1_violations": [],
  "condition2_violations": [],
  "support_violations": []
}
"""


def test_orbit_check_skips_the_sigma_pairing(tmp_path, capsys):
    """orbit-check reads the ultimate terms only, so the matrix whose one
    fault is pairing sigma (test_analysis_errors_exit_3) gets its answer:
    one component, so orbit periodic.  threshold finds no t' within t_max
    there (the non-critical 4-cycle of mean -5e-10 beats the one term's
    -10 on (1, 1) until t is about 2e10), and before answering null it
    runs the pairing, which fails as for ultimate."""
    f = tmp_path / "close.txt"
    f.write_text("5\n0 -5 * * *\n-5 * -5e-10 * *\n* * * -5e-10 *\n"
                 "* * * * -5e-10\n* -5e-10 * * *\n")
    assert cli.main(["orbit-check", str(f)]) == 0
    assert capsys.readouterr().out == CLOSE_ORBIT_CHECK
    code, obj, err = run(capsys, "threshold", str(f))
    assert code == 3 and obj is None and "matches canonical levels" in err


def test_error_lines_name_nodes_one_based():
    err = maxplus.DivergentStarError(node=10)
    assert str(err) == "divergent star: positive cycle through node 10"
    assert err.describe(1) == "divergent star: positive cycle through node 11"
    err = maxplus.DivergentStarError(component=[0, 2], value=1.0, node=0)
    assert str(err) == "divergent star: component [0, 2] has cycle mean 1"
    assert err.describe(1) == \
        "divergent star: component [1, 3] has cycle mean 1"
    err = maxplus.AnalysisError("no critical cycle through node %d", node=0)
    assert str(err) == "no critical cycle through node 0"
    assert err.describe(1) == "no critical cycle through node 1"
    err = maxplus.AnalysisError("deflation level 0 (cycle mean 2) has no "
                                "critical node")
    assert err.describe(1) == str(err)
    assert maxplus.NoCyclesError("no cycles").describe(1) == "no cycles"


def test_cycle_rule_dead_end_exits_3(tmp_path, capsys):
    # used to print a KeyError traceback and exit 1
    f = tmp_path / "dead_end.txt"
    _write_plain(f, dead_end_critical_matrix())
    code, obj, err = run(capsys, "nachtigall", "--t", "2", "--rule", "cycle",
                         str(f))
    assert (code, obj) == (3, None)
    assert err == "error: critical node 1 has no outgoing critical edge\n"


def test_import_does_not_load_networkx(capsys):
    src = Path(maxplus.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, maxplus.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"
    # with networkx made unimportable the cycle rule still runs
    for argv in (["nachtigall", "--t", "50", "--rule", "cycle", EX1],
                 ["csr", "--t", "2", "--rule", "cycle", EX1]):
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        code = ("import sys; sys.modules['networkx'] = None; "
                "import maxplus.cli; sys.exit(maxplus.cli.main(%r))" % argv)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == want


# -------------------------------------------------- process entry, imports

SRC = str(Path(maxplus.__file__).resolve().parents[1])
EX3X = str(DATA / "example3x.txt")

# one argv per command, in the order of --help
COMMAND_ARGV = {
    "power": ["--t", "5"], "star": [], "lambda": [], "critical": [],
    "classes": [], "csr": ["--t", "7"], "nachtigall": ["--t", "110"],
    "ultimate": ["--t", "9"], "threshold": [], "orbit-check": [],
    "orbit": ["--y", EX3X], "verify": [],
}


def _child(args, stdout=subprocess.PIPE, **env):
    """A fresh interpreter on the package source; env entries set to None
    are removed."""
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=SRC, **env).items()
           if v is not None}
    return subprocess.run([sys.executable] + args, stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


def _without_elapsed(err: str) -> str:
    return "".join(line for line in err.splitlines(True)
                   if not line.startswith("elapsed "))


def test_module_entry_matches_main(tmp_path, capsys):
    """`python -m maxplus.cli` prints what main(argv) prints and exits with
    its code: every command on a bundled matrix (each matrix in turn), a
    usage error, a bad token and a negative exponent."""
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 x\n1 0\n")
    files = (EX1, EX2, EX3A, EX3B)
    runs = [[name] + flags + [files[k % 4]]
            for k, (name, flags) in enumerate(COMMAND_ARGV.items())]
    runs += [["power", EX1], ["star", str(bad)], ["power", "--t", "-1", EX1]]
    codes = set()
    for argv in runs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        got = _child(["-m", "maxplus.cli"] + argv)
        assert got.returncode == code, argv
        assert got.stdout == out.encode(), argv
        assert _without_elapsed(got.stderr.decode()) == \
            _without_elapsed(err), argv
        codes.add(code)
    assert codes >= {0, 2, 3, 64}


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_exits_2(unbuffered):
    """A report written to a closed pipe ends in one error line and exit 2,
    whether the write (unbuffered) or the entry's flush (buffered)
    fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = _child(["-m", "maxplus.cli", "power", "--t", "2", EX1],
                     stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    err = _without_elapsed(got.stderr.decode())
    assert (got.returncode, err) == (2, "error: [Errno 32] Broken pipe\n")


def _loaded(code: str) -> set:
    got = _child(["-c", "import sys\n" + code + "\nprint(' '.join(m for m "
                  "in sys.modules if m.split('.')[0] == 'maxplus'))"])
    assert got.returncode == 0, got.stderr
    return set(got.stdout.decode().splitlines()[-1].split())


BASE = {"maxplus", "maxplus.cli", "maxplus.core", "maxplus.errors"}
GRAPHS = BASE | {"maxplus.graphs"}
KLEENE = GRAPHS | {"maxplus.kleene"}
TERMS = KLEENE | {"maxplus.csr", "maxplus.expansions"}
ORBIT = TERMS | {"maxplus.orbit"}
LOADS = {"power": BASE, "star": KLEENE, "lambda": GRAPHS, "critical": GRAPHS,
         "classes": GRAPHS, "csr": TERMS, "nachtigall": TERMS,
         "ultimate": TERMS, "threshold": TERMS, "orbit-check": ORBIT,
         "orbit": ORBIT, "verify": ORBIT | {"maxplus.oracle"}}


def test_each_command_imports_only_its_modules():
    assert list(LOADS) == list(COMMAND_ARGV) == list(cli._COMMANDS)
    assert _loaded("import maxplus") == {"maxplus"}
    for name, flags in COMMAND_ARGV.items():
        argv = [name] + flags + [EX3A]
        assert _loaded("import maxplus.cli\nmaxplus.cli.main(%r)" % argv) \
            == LOADS[name], name


def test_lazy_names_are_the_public_api():
    names = {}
    exec("from maxplus import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(maxplus.__all__)
    for mod in ("cli", "core", "csr", "errors", "expansions", "graphs",
                "kleene", "oracle", "orbit"):
        assert getattr(maxplus, mod).__name__ == "maxplus." + mod
    with pytest.raises(AttributeError):
        maxplus.no_such_name
