"""Command-line round trips, exit codes, schema conformance, golden files."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import re
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from cli_process import (
    run_cli_closed_stdout,
    run_cli_measured,
    run_cli_process,
    run_python_process,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_realize import mutate, tamper_cases
from test_schema import CLI_REQUESTS, digit_limit_requests

from circledeg import cli as cli_module
from circledeg import realize
from circledeg.abelian import IntegerMatrix
from circledeg.cli import build_parser, main
from circledeg.degsets import (
    COVER_TEST_CAP,
    MAX_ENTRY_CAP,
    PROGRESSION_CAP,
    SEARCH_SPAN_CAP,
    SUM_LENGTH_CAP,
    TARGET_MAGNITUDE_CAP,
    DegreeSet,
)
from circledeg.schema import validate_payload

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, stdin_text=None, monkeypatch=None, capsys=None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cli(monkeypatch, capsys):
    def runner(*argv, stdin_text=None):
        return run_cli(*argv, stdin_text=stdin_text,
                       monkeypatch=monkeypatch, capsys=capsys)
    return runner


# ---------------------------------------------------------------------------
# command round trips, each output checked against its schema


def test_snf_round_trip(cli):
    payload = {"matrix": {"rows": 2, "cols": 3, "entries": [4, 6, 8, 2, 4, 8]}}
    code, out, _ = cli("snf", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("snfOutput", got)
    u = IntegerMatrix.from_json(got["u"])
    d = IntegerMatrix.from_json(got["d"])
    v = IntegerMatrix.from_json(got["v"])
    m = IntegerMatrix.from_json(payload["matrix"])
    assert u.mul(m).mul(v).entries == d.entries
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_group_command(cli):
    payload = {"relations": {"rows": 2, "cols": 2, "entries": [2, 0, 0, 3]}}
    code, out, _ = cli("group", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("groupOutput", got)
    assert got["group"] == {"rank": 0, "torsion": [6]}
    code, out, _ = cli("group", "--format", "text", stdin_text=json.dumps(payload))
    assert out.strip() == "Z/6"


def test_solve_k_command(cli):
    payload = {"group": {"rank": 1, "torsion": []},
               "a": {"free": [2]}, "c": {"free": [6]}}
    code, out, _ = cli("solve-k", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("solveOutput", got)
    assert got["solutions"] == {"kind": "progression", "base": 3, "mod": 0}


@pytest.mark.parametrize("payload, solutions", [
    ({"group": {"rank": 1, "torsion": []}, "a": {"free": [2]}, "c": {"free": [5]}},
     {"kind": "empty"}),
    ({"group": {"rank": 0, "torsion": [6]}, "a": {"torsion": [2]}, "c": {"torsion": [4]}},
     {"kind": "progression", "base": 2, "mod": 3}),
    ({"group": {"rank": 0, "torsion": []}, "a": {}, "c": {}},
     {"kind": "progression", "base": 0, "mod": 1}),
])
def test_solve_k_outputs_validate(cli, payload, solutions):
    # each kind of solution set the command writes passes its schema
    code, out, _ = cli("solve-k", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("solveOutput", got)
    assert got["solutions"] == solutions


def test_sums_command(cli):
    code, out, _ = cli("sums", "--seq", "1,3")
    assert code == 0
    got = json.loads(out)
    validate_payload("setOutput", got)
    assert got["set"] == {"finite": [0, 1, 3, 4]}


def test_decompose_command(cli):
    code, out, _ = cli("decompose", "--set", "0,1,3")
    assert code == 0
    got = json.loads(out)
    validate_payload("decompositionCertificate", got)
    assert got["sequences"] == [[1, 3], [1, 2]]
    assert got["target"] == [0, 1, 3]
    # spaces around the commas are allowed
    assert cli("decompose", "--set", "0, 1, 3")[1] == out


def test_dv_command(cli):
    payload = {"group": {"rank": 0, "torsion": [6]},
               "a": {"torsion": [2]}, "b": {"torsion": [4]}}
    code, out, _ = cli("dv", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("dvOutput", got)
    assert got["zeroDegreeUnresolved"] is True
    assert got["set"] == {"finite": [], "progressions": [{"base": 2, "mod": 3}]}


def test_dfp_command(cli):
    payload = {
        "domainGroup": {"rank": 1}, "targetGroup": {"rank": 1},
        "a": {"free": [2]}, "b": {"free": [1]},
        "catalogue": {"complete": True,
                      "maps": [{"degree": 3,
                                "action": {"rows": 1, "cols": 1, "entries": [4]}}]},
    }
    code, out, _ = cli("dfp", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("dfpOutput", got)
    assert got["set"] == {"finite": [0, 6]}
    assert got["exact"] is True
    assert got["contributions"][0]["solutions"] == \
        {"kind": "progression", "base": 2, "mod": 0}


def test_pair_command_variants(cli):
    code, out, _ = cli("pair", "-m", "2", "-k", "6")
    assert code == 0
    got = json.loads(out)
    validate_payload("pairOutput", got)
    assert got == {"finite": [0, 3]}
    code, out, _ = cli("pair", "-m", "-3", "-k", "6", "--preset", "surface")
    assert json.loads(out) == {"finite": [-2, 0]}
    code, out, _ = cli("pair", stdin_text=json.dumps({"m": 5, "k": 5}))
    assert json.loads(out) == {"finite": [0, 1]}


def test_bound_command(cli):
    code, out, _ = cli("bound", "--domain-volume", "7/2", "--target-volume", "1/3")
    assert code == 0
    got = json.loads(out)
    validate_payload("boundOutput", got)
    assert got == {"bound": 10}


def test_finite_command(cli):
    payload = {
        "domain": {"bundle": {"base": "knot-glue-3", "euler": {"free": [1]}}},
        "target": {"bundle": {"base": "hyp-odd-4", "euler": {"free": [2]}}},
    }
    code, out, _ = cli("finite", stdin_text=json.dumps(payload))
    assert code == 0
    got = json.loads(out)
    validate_payload("finiteOutput", got)
    assert got == {"verdict": "finite"}


def test_realize_verify_stabilize_pipeline(cli, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = cli("realize", "--set", "0,1,3", "--out", str(cert_file))
    assert code == 0 and out == ""
    cert = json.loads(cert_file.read_text())
    validate_payload("realizationCertificate", cert)

    code, out, _ = cli("verify", "--in", str(cert_file))
    assert code == 0
    report = json.loads(out)
    validate_payload("verificationReport", report)
    assert report["valid"] is True and report["firstFailure"] is None

    code, out, _ = cli("stabilize", "--in", str(cert_file), "--dim", "8")
    assert code == 0
    up = json.loads(out)
    validate_payload("realizationCertificate", up)
    assert up["dimension"] == 8
    assert up["stabilizations"] == [{"shift": 4, "fromDimension": 4,
                                     "toDimension": 8,
                                     "rule": "dimension-stabilization"}]
    up_file = tmp_path / "up.json"
    up_file.write_text(json.dumps(up))
    code, out, _ = cli("verify", "--in", str(up_file))
    assert code == 0 and json.loads(out)["valid"] is True


def test_stabilize_wrapped_payload(cli, tmp_path):
    code, out, _ = cli("realize", "--set", "0,2")
    cert = json.loads(out)
    code, out, _ = cli("stabilize",
                       stdin_text=json.dumps({"certificate": cert, "dim": 9}))
    assert code == 0
    assert json.loads(out)["dimension"] == 9


def test_selftest_passes(cli):
    code, out, _ = cli("selftest")
    assert code == 0
    got = json.loads(out)
    assert got["passed"] is True
    assert len(got["batteries"]) == 5


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_malformed_payload_names_field(cli):
    code, out, err = cli("snf", stdin_text='{"matrix": {"rows": 2}}')
    assert code == 1
    assert "$.matrix" in err and "cols" in err
    assert out == ""


def _edited(command: str, path: tuple, value) -> dict:
    """The first JSON payload of ``payloads_by_command`` for ``command``,
    wrapped with a ``dim`` for ``stabilize``, with the value at ``path``
    replaced."""
    payload = payloads_by_command()[command][0]
    if command == "stabilize":
        payload = {"certificate": payload, "dim": 7}
    out = json.loads(json.dumps(payload))
    where = out
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = value
    return out


_SHORT_MATRIX = "matrix entries length is not rows*cols"
_LONG_FREE = "free coordinate count does not match group rank"
_LONG_TORSION = "torsion coordinate count does not match group"
_NO_CHAIN = "torsion factors must form a divisibility chain"
_NO_BASE = "unknown base manifold: 'nope'"
_NO_PRESET = "unknown preset 'nope'; available: hyp-odd-4, knot-glue-3, surface"
_BUNDLE_BASE = ("bundle", "base")

# payloads the schema admits whose decoder refuses the value at ``path``,
# and the field the error names
DECODE_ERRORS = [
    ("snf", "snfInput", ("matrix", "entries"), [1], "$.matrix", _SHORT_MATRIX),
    ("group", "groupInput", ("relations", "entries"), [1], "$.relations", _SHORT_MATRIX),
    ("solve-k", "solveInput", ("group", "torsion"), [2, 3], "$.group", _NO_CHAIN),
    ("solve-k", "solveInput", ("a", "free"), [2, 1], "$.a", _LONG_FREE),
    ("solve-k", "solveInput", ("c", "free"), [6, 1], "$.c", _LONG_FREE),
    ("dv", "dvInput", ("group", "torsion"), [4, 6], "$.group", _NO_CHAIN),
    ("dv", "dvInput", ("a", "torsion"), [2, 1], "$.a", _LONG_TORSION),
    ("dv", "dvInput", ("b", "torsion"), [4, 1], "$.b", _LONG_TORSION),
    ("dfp", "dfpInput", ("domainGroup", "torsion"), [2, 3], "$.domainGroup", _NO_CHAIN),
    ("dfp", "dfpInput", ("targetGroup", "torsion"), [2, 3], "$.targetGroup", _NO_CHAIN),
    ("dfp", "dfpInput", ("a", "free"), [2, 1], "$.a", _LONG_FREE),
    ("dfp", "dfpInput", ("b", "free"), [1, 1], "$.b", _LONG_FREE),
    ("dfp", "dfpInput", ("catalogue", "maps", 0, "action", "entries"), [4, 5], "$.catalogue",
     _SHORT_MATRIX),
    ("finite", "finiteInput", ("domain", *_BUNDLE_BASE), "nope", "$.domain", _NO_BASE),
    ("finite", "finiteInput", ("target", *_BUNDLE_BASE), "nope", "$.target", _NO_BASE),
    ("pair", "pairInput", ("preset",), "nope", "$.preset", _NO_PRESET),
    ("realize", "realizeInput", ("preset",), "nope", "$.preset", _NO_PRESET),
    ("verify", "realizationCertificate", ("pairs", 1, "target", *_BUNDLE_BASE), "surfacex",
     "$.pairs[1].target", "unknown base manifold: 'surfacex'"),
    ("verify", "realizationCertificate", ("base", "fixes", 0), "bx", "$.base",
     "fixed class 'bx' is not a named class"),
    ("verify", "realizationCertificate",
     ("combination", "resultDomain", "sum", 1, "sum", 0, "bundle", "euler", "free"), [14, 1],
     "$.combination.resultDomain", _LONG_FREE),
    ("stabilize", "stabilizeInput", ("certificate", "pairs", 0, "domain", "sum", 1,
                                     *_BUNDLE_BASE), "nope", "$.certificate.pairs[0].domain",
     _NO_BASE),
]


@pytest.mark.parametrize("command, schema, path, value, field, message", DECODE_ERRORS,
                         ids=[f"{case[0]}-{case[2][0]}" for case in DECODE_ERRORS])
def test_decode_error_names_its_field(cli, command, schema, path, value, field, message):
    payload = _edited(command, path, value)
    validate_payload(schema, payload)
    code, out, err = cli(command, stdin_text=json.dumps(payload))
    assert (code, out) == (1, "")
    assert err == f"error: invalid {schema} at {field}: {message}\n"


def test_a_bare_certificate_decode_error_names_its_field(cli):
    payload = _edited("verify", ("pairs", 0, "domain", "sum", 0, *_BUNDLE_BASE), "nope")
    code, out, err = cli("stabilize", "--dim", "7", stdin_text=json.dumps(payload))
    assert (code, out) == (1, "")
    assert err == f"error: invalid realizationCertificate at $.pairs[0].domain: {_NO_BASE}\n"


def test_invalid_json_reports_source(cli):
    code, _, err = cli("snf", stdin_text="{nope")
    assert code == 1
    assert "not valid JSON" in err


def test_missing_file_is_input_error(cli):
    code, _, err = cli("verify", "--in", "/nonexistent/cert.json")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("levels, message", [
    # refused by the nesting bound before any schema check recurses
    (300, "error: invalid realizationCertificate at payload: nested more than"),
    # too deep for json.loads itself; main turns its RecursionError into a line
    (5000, "error: input too deeply nested or too large (RecursionError)"),
])
def test_deeply_nested_certificate_is_input_error(cli, levels, message):
    code, out, _ = cli("realize", "--set", "0,1,3")
    cert = json.loads(out)
    inner = json.dumps(cert["combination"]["resultDomain"])
    cert["combination"]["resultDomain"] = "@"
    # built by concatenation: json.dumps would recurse as deep as the text
    wrapped = ('{"stabilized": {"inner": ' * levels + inner
               + ', "shift": 3}}' * levels)
    code, out, err = cli("verify", stdin_text=json.dumps(cert).replace('"@"', wrapped))
    assert code == 1 and out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decompose", "--set", "-6,1,2"],
    ["pair", "-m", "two"],
    ["nonsense"],
    [],
])
def test_usage_error_exits_1(capsys, argv):
    # exit 2 is kept for resource caps
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: circledeg")
    assert ": error: " in err and not err.startswith("resource cap:")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: circledeg decompose")


COMMANDS = ["snf", "group", "solve-k", "sums", "decompose", "dv", "dfp", "pair",
            "bound", "finite", "realize", "verify", "stabilize", "selftest"]


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_text_matches_snapshot(capsys, monkeypatch, command):
    # the snapshots are rendered 80 columns wide
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    snapshot = GOLDEN / "help" / f"{command or 'circledeg'}.txt"
    assert capsys.readouterr().out == snapshot.read_text()


def test_help_snapshots_cover_every_command():
    snapshots = GOLDEN / "help"
    assert sorted(p.stem for p in snapshots.glob("*.txt")) == sorted(["circledeg", *COMMANDS])
    assert "{" + ",".join(COMMANDS) + "}" in (snapshots / "circledeg.txt").read_text()


def text_requests() -> dict[str, tuple[list[str], object, int]]:
    """Snapshot name -> (argv, stdin payload, exit code) of each request
    whose ``--format text`` output is pinned under ``golden/text``: every
    CLI request of the schema tests, and ``verify`` and ``stabilize`` on
    the golden certificates."""
    requests: dict[str, tuple[list[str], object, int]] = {}
    for argv, payload in CLI_REQUESTS:
        n = sum(name.startswith(f"{argv[0]}-") for name in requests) + 1
        requests[f"{argv[0]}-{n}"] = (argv, payload, 0)
    cert = json.loads((GOLDEN / "realize-013-dim4.json").read_text())
    tampered = json.loads((GOLDEN / "tampered-cert.json").read_text())
    requests["verify-realize-013-dim4"] = (["verify"], cert, 0)
    requests["verify-tampered-cert"] = (["verify"], tampered, 3)
    requests["stabilize-realize-013-dim4-dim7"] = (["stabilize", "--dim", "7"], cert, 0)
    return requests


@pytest.mark.parametrize("name", sorted(text_requests()))
def test_text_output_matches_snapshot(cli, name):
    argv, payload, expected = text_requests()[name]
    stdin_text = json.dumps(payload) if payload is not None else ""
    code, out, err = cli(*argv, "--format", "text", stdin_text=stdin_text)
    assert (code, err) == (expected, "")
    assert out == (GOLDEN / "text" / f"{name}.txt").read_text()


def test_text_snapshots_cover_every_request():
    snapshots = GOLDEN / "text"
    assert sorted(p.stem for p in snapshots.glob("*.txt")) == sorted(text_requests())


def _no_text(*args, **kwargs):
    raise AssertionError("a JSON request rendered text")


@pytest.mark.parametrize("name", [
    "realize-1", "verify-realize-013-dim4", "verify-tampered-cert",
    "stabilize-realize-013-dim4-dim7", "sums-1", "sums-2", "dfp-1",
    "pair-1", "pair-2", "pair-3",
])
def test_json_request_renders_no_text(cli, monkeypatch, name):
    argv, payload, expected = text_requests()[name]
    stdin_text = json.dumps(payload) if payload is not None else ""
    want = cli(*argv, stdin_text=stdin_text)
    monkeypatch.setattr(realize, "render_certificate", _no_text)
    monkeypatch.setattr(realize.VerificationReport, "render", _no_text)
    monkeypatch.setattr(DegreeSet, "render", _no_text)
    assert cli(*argv, stdin_text=stdin_text) == want
    assert want[0] == expected


@pytest.mark.parametrize("argv, field", [
    (["pair", "-m", "2"], r"\bk\b"),
    (["pair", "-k", "6", "--preset", "surface"], r"\bm\b"),
    (["bound", "--domain-volume", "3"], r"target.?volume"),
    (["bound", "--target-volume", "3"], r"domain.?volume"),
])
def test_partial_flags_name_the_missing_field(cli, argv, field):
    code, out, err = cli(*argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert re.search(field, err, re.IGNORECASE), err


# every payload flag given reaches the payload: with a JSON document each
# one overlays the same key, where reading the document once dropped them


def test_dim_flag_reaches_a_json_payload(cli):
    # was a dimension-4 certificate
    code, out, err = cli("realize", "--dim", "8", stdin_text='{"set": [0, 1, 3]}')
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 8


def test_flag_wins_over_the_same_json_key(cli):
    code, out, err = cli("realize", "--dim", "7",
                         stdin_text='{"set": [0, 1, 3], "dim": 5}')
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 7


def test_preset_flag_reaches_a_json_payload(cli):
    # was [fixed-class-scaling], the rule of the default knot-glue-3
    code, out, err = cli("pair", "--preset", "surface", "--format", "text",
                         stdin_text='{"m": 2, "k": 6}')
    assert (code, err) == (0, "")
    assert out.endswith(" [surface-euler-scaling]\n")
    assert (code, out, err) == cli("pair", "-m", "2", "-k", "6", "--preset", "surface",
                                   "--format", "text")


def test_budget_flag_reaches_a_json_payload(cli):
    # searched for 0.44 s under the default budget 10^7, and the cap message
    # named 24 of 26 values excluded
    code, out, err = cli("decompose", "--budget", "1000",
                         stdin_text='{"set": [0, 1, 2, 4, 8, 16]}')
    assert (code, out) == (2, "")
    assert err.startswith("resource cap: decomposition search budget exhausted while "
                          "excluding 3 (0 of 26 extraneous values excluded, budget 1000)")
    assert (code, out, err) == cli("decompose", "--set=0,1,2,4,8,16", "--budget", "1000")


def test_oversized_budget_flag_with_a_json_payload_exits_1(cli):
    # was exit 0: the flag never reached the schema
    code, out, err = cli("realize", "--budget", str(10**9), stdin_text='{"set": [0, 1, 3]}')
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid realizeInput at $.budget: ")


def test_flag_with_a_non_object_payload_keeps_the_schema_message(cli):
    code, out, err = cli("realize", "--dim", "7", stdin_text="[1, 2]")
    assert (code, out) == (1, "")
    assert err == "error: invalid realizeInput at payload: [1, 2] is not of type 'object'\n"


def test_a_flag_that_builds_the_payload_alone_leaves_the_json_unread(cli):
    code, out, err = cli("realize", "--set", "0,1,3", "--dim", "5", stdin_text="{nope")
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 5


@pytest.mark.parametrize("argv, flag", [
    (["sums", "--seq", "1,x"], "--seq"),
    (["decompose", "--set", "0,,3.5"], "--set"),
    (["realize", "--set", "0;1"], "--set"),
    (["sums", "--seq", "1 3"], "--seq"),  # once read as 13
    (["sums", "--seq=--"], "--seq"),  # the value --; argparse before 3.13 stored []
    (["decompose", "--set=--"], "--set"),
])
def test_malformed_list_flag_names_the_flag(cli, argv, flag):
    # the flag's dest is its payload key; the message still names the flag
    code, out, err = cli(*argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be a comma-separated list of integers\n"


# int() refuses a string of more than 4300 digits; the message said the
# flag was not a list of integers
@pytest.mark.parametrize("argv, flag", [
    (["sums", "--seq=" + "7" * 5000], "--seq"),
    (["realize", "--set=0," + "7" * 5000], "--set"),
])
def test_list_flag_past_the_digit_limit_names_the_limit(cli, argv, flag):
    code, out, err = cli(*argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} has an integer of more than 4300 digits\n"


def test_only_an_argv_left_to_argparse_builds_a_parser(cli, monkeypatch):
    # a valid request is read from the command table and builds no
    # ArgumentParser; an argv left to argparse builds the parser of all 14
    # subcommands, 15 ArgumentParsers, each time
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli("pair", "-m", "2", "-k", "6")[0] == 0
    assert cli("sums", "--seq", "1,3")[0] == 0
    assert len(constructed) == 0
    # an abbreviated flag is argparse's to expand
    assert cli("pair", "-m", "2", "-k", "6", "--form", "text")[0] == 0
    assert len(constructed) == 15
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    assert len(constructed) == 30


def test_a_joined_double_dash_names_the_file_double_dash(cli, monkeypatch, tmp_path):
    # --in=-- and --out=-- as argparse reads them from Python 3.13; before,
    # it stored [], so --in=-- ended in a traceback and --out=-- wrote stdout
    monkeypatch.chdir(tmp_path)
    assert cli("snf", "--in=--") == (1, "", "error: cannot read --: No such file or directory\n")
    # also where argparse reads the argv, here to expand --ou
    assert cli("snf", "--in=--", "--ou", "x") == (
        1, "", "error: cannot read --: No such file or directory\n")
    payload = {"matrix": {"rows": 1, "cols": 1, "entries": [6]}}
    assert cli("snf", "--out=--", stdin_text=json.dumps(payload)) == (0, "", "")
    assert json.loads((tmp_path / "--").read_text())["d"] == payload["matrix"]


def usage_error(argv: list[str]) -> str:
    """The last line of the usage error that ``main(argv)`` exits 1 with."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    return err.getvalue().splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["stabilize", "--dim=--", "--in", str(GOLDEN / "realize-013-dim4.json")],
    ["realize", "--set", "0,1", "--dim=--"],
    ["decompose", "--set", "0,1", "--budget=--"],
    ["pair", "-m=--", "-k", "6"],
    ["stabilize", "--dim", "7", "--format=--", "--in", str(GOLDEN / "realize-013-dim4.json")],
    ["pair", "-m", "2", "-k", "6", "--format=--"],
], ids=" ".join)
def test_a_joined_double_dash_is_refused_by_a_flag_that_converts_or_checks(argv):
    # argparse before 3.13 stored [] for these: stabilize --dim=-- ended in
    # a traceback, --format=-- printed JSON, and the rest failed the schema
    # on []; 3.13 refuses the value -- as a usage error
    flag = next(word for word in argv if word.endswith("=--")).removesuffix("=--")
    if flag == "--format":  # worded as this argparse words any other choice
        other = usage_error([word.replace("=--", "=xml") for word in argv])
        want = other.replace("'xml'", "'--'")
    else:
        want = f"circledeg {argv[0]}: error: argument {flag}: invalid int value: '--'"
    assert usage_error(argv) == want


# what the CLI fuzz test gives a drawn flag
FLAG_VALUES = ["0", "-1", "7", str(10**30), str(10**3999 + 1), "1,3", ",", "x", "",
               "-", "-4", "-6,1,2", "-x y", "--"]


@lru_cache(maxsize=1)
def payloads_by_command() -> dict[str, list]:
    """The stdin payloads of the CLI requests, by subcommand, and the
    golden certificate for ``verify`` and ``stabilize``."""
    cert = json.loads((GOLDEN / "realize-013-dim4.json").read_text())
    by_command: dict[str, list] = {"verify": [cert], "stabilize": [cert]}
    for argv, payload in CLI_REQUESTS:
        if payload is not None:
            by_command.setdefault(argv[0], []).append(payload)
    return by_command


@st.composite
def flag_requests(draw):
    """A subcommand of the parser's table with a subset of its payload
    flags and ``--format``, each given a value of ``FLAG_VALUES`` in one
    word (``--flag=value``) or two (``--flag value``, ``-m value``), and
    either no stdin or a CLI request's payload, most often one of the
    subcommand's own."""
    spec = draw(st.sampled_from(cli_module._COMMANDS))
    flags = draw(st.lists(st.sampled_from(spec.flags), unique=True)) if spec.flags else []
    given = [("--format", draw(st.sampled_from(["json", "text"])))]
    given += [(flag.name, draw(st.sampled_from(FLAG_VALUES))) for flag in flags]
    argv = [spec.name]
    for name, value in given:
        argv += draw(st.sampled_from([[f"{name}={value}"], [name, value]]))
    everyone = [p for payloads in payloads_by_command().values() for p in payloads]
    own = payloads_by_command().get(spec.name, everyone)
    payload = draw(st.one_of(st.none(), st.sampled_from(own), st.sampled_from(everyone)))
    return argv, payload


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flag_requests())
def test_flag_requests_exit_with_a_documented_code(case):
    # an exception escaping main fails the test on its own
    argv, payload = case
    stdin = json.dumps(payload) if payload is not None else ""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), argv
    assert time.perf_counter() - start < 2.0, argv


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]) -> object:
    """The Namespace ``parser`` makes of ``argv``, as a dict, or the exit
    code, stdout and stderr of the usage error or help it ends in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def assert_parsed_as_by_the_full_parser(argv: list[str]) -> None:
    # main's rule: the command table reads what it can and leaves the rest
    # to the full parser
    full = parse_outcome(build_parser(), argv)
    table = cli_module._table_args(argv)
    if table is not None:
        assert vars(table) == full, argv


@pytest.mark.parametrize("argv", [
    ["pair", "-m", "2", "-k", "3", "--bogus"],  # unrecognized after a subcommand
    ["pair", "-m", "two"],
    ["sums", "--format", "xml"],
    ["sums", "--in"],
    ["-h", "pair"],
    [],
    ["bogus"],
    ["pair", "snf"],
    ["decompose", "--set", "-6,1,2"],
    ["sums", "--seq=--"],  # the value --, which argparse before 3.13 passes as []
    ["realize", "--set=0,1", "--dim", "5", "--format=text"],
    ["verify", "--in", "-", "--out", "x.json"],
    ["selftest", "--in", "x.json"],
    ["stabilize", "--dim", "8", "-h"],
])
def test_listed_requests_parse_as_by_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


@pytest.mark.parametrize("argv", [
    *(argv for argv, _ in CLI_REQUESTS),
    ["pair", "-m", "-4", "-k", "8", "--format=text"],
    ["pair", "-m", "2", "-k", "-6", "-m", "3", "--class", "-.5"],  # the last -m wins
    ["pair", "-m", "2", "-k", "6", "--preset", "x", "--preset=surface"],
    ["realize", "--set=0,1,3", "--dim", "4", "--budget=1000", "--max-len", "-1"],
    ["decompose", "--set=-6,1,2", "--max-entry", " 7 "],
    ["verify", "--in", "-", "--out", "x.json", "--format", "text", "--format", "json"],
    ["stabilize", "--dim", "7", "--in=cert.json", "--out="],
    ["sums", "--seq", ""],
    ["selftest", "--format", "text"],
], ids=" ".join)
def test_the_command_table_reads_a_valid_request(argv):
    table = cli_module._table_args(argv)
    assert table is not None
    assert vars(table) == parse_outcome(build_parser(), argv)


# the separate values argparse takes, and words it takes for flags; a word
# with a space that starts with "-" is a value to argparse too, and left to it
@pytest.mark.parametrize("word", ["7", "", "-", "-4", "-\u0663", "-4\n", "-4\n\n", "-.5", "-1.5",
                                  "-1.", "-1.2.3", "-1e5", "-1_000", "-0x1", "-x", "-h", "--",
                                  "--seq", "---"])
def test_the_command_table_takes_a_value_where_argparse_does(word):
    argv = ["sums", "--seq", word]
    full = parse_outcome(build_parser(), argv)
    table = cli_module._table_args(argv)
    assert (vars(table) if table is not None else None) == (
        full if isinstance(full, dict) else None)


STRAY_WORDS = ["bogus", "pair", "-h", "--in", "-", "--format", "xml", "-m", "x", "--", "",
               "-4", "-6,1,2", "-x y"]


@st.composite
def parser_requests(draw):
    """A ``flag_requests`` argv, as drawn or with its subcommand misspelled
    or missing or with stray words put in."""
    argv = draw(flag_requests())[0]
    edit = draw(st.sampled_from(["none", "misspell", "drop", "stray"]))
    if edit == "misspell":
        name = argv[0]
        argv[0] = draw(st.sampled_from([name[:-1], name + "s", name.upper(), "-" + name]))
    elif edit == "drop":
        del argv[0]
    elif edit == "stray":
        for word in draw(st.lists(st.sampled_from(STRAY_WORDS), min_size=1, max_size=3)):
            argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parser_requests())
def test_drawn_requests_parse_as_by_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


def test_budget_cap_exit_code(cli):
    code, _, err = cli("decompose", "--set", "0,1,3", "--budget", "1")
    assert code == 2
    assert "budget" in err


def test_hypothesis_failure_exit_code(cli, tmp_path, monkeypatch):
    # a weak registry base makes the pair rule refuse with the missing flag
    registry = {
        "bases": [{
            "name": "weakling", "dim": 3,
            "group": {"rank": 1, "torsion": []},
            "classes": {"b": {"free": [1], "torsion": []}},
            "flags": ["aspherical"], "fixes": [], "volume": None,
        }]
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(registry))
    monkeypatch.setenv("CIRCLEDEG_PRESETS", str(path))
    code, _, err = cli("pair", "-m", "1", "-k", "2", "--preset", "weakling")
    assert code == 1
    assert "scf_pi1" in err
    # a malformed or missing preset file is bad input too
    base = registry["bases"][0]
    for key, value, where in (("dim", "abc", "$.bases[0].dim"),
                              ("volume", "zz", "volume must be a rational"),
                              ("classes", {"b": {"free": ["q"]}}, "$.bases[0].classes.b")):
        path.write_text(json.dumps({"bases": [{**base, key: value}]}))
        proc = run_cli_process("pair", "-m", "2", "-k", "6")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and where in proc.stderr
        assert "Traceback" not in proc.stderr
    monkeypatch.setenv("CIRCLEDEG_PRESETS", str(tmp_path / "missing.json"))
    proc = run_cli_process("pair", "-m", "2", "-k", "6")
    assert proc.returncode == 1 and "cannot read registry file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_tampered_exit_code(cli, tmp_path):
    code, out, _ = cli("realize", "--set", "0,1,3")
    cert = json.loads(out)
    cert["finalSet"]["finite"] = [0, 1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = cli("verify", "--in", str(bad))
    assert code == 3
    report = json.loads(out)
    assert report["valid"] is False
    assert report["firstFailure"] == "final.intersection"


def test_registry_env_extends_presets(cli, tmp_path, monkeypatch):
    registry = {
        "bases": [{
            "name": "pretzel", "dim": 4,
            "group": {"rank": 1, "torsion": []},
            "classes": {"b": {"free": [1], "torsion": []}},
            "flags": ["aspherical", "scf_pi1", "d_self_is_01"],
            "fixes": ["b"], "volume": None,
        }]
    }
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(registry))
    monkeypatch.setenv("CIRCLEDEG_PRESETS", str(path))
    code, out, _ = cli("realize", "--set", "0,3", "--dim", "5",
                       "--preset", "pretzel")
    assert code == 0
    cert = json.loads(out)
    assert cert["base"]["name"] == "pretzel"
    assert cert["dimension"] == 5


# ---------------------------------------------------------------------------
# golden files: byte-for-byte CLI output


def test_golden_realize_013(cli, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = cli("realize", "--set", "0,1,3", "--dim", "4",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == (GOLDEN / "realize-013-dim4.json").read_text()


def test_golden_pair_m2_k3(cli, tmp_path):
    out_file = tmp_path / "pair.json"
    code, _, _ = cli("pair", "-m", "2", "-k", "3", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == (GOLDEN / "pair-m2-k3.json").read_text()
    assert json.loads(out_file.read_text()) == {"finite": [0]}


def test_golden_tampered_verify(cli, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = cli("verify", "--in", str(GOLDEN / "tampered-cert.json"),
                     "--out", str(out_file))
    assert code == 3
    assert out_file.read_text() == (GOLDEN / "tampered-verify.json").read_text()
    report = json.loads(out_file.read_text())
    assert report["firstFailure"] == "primes.size"


# ---------------------------------------------------------------------------
# the installed entry point


def test_module_invocation_subprocess():
    proc = run_cli_process("pair", "-m", "2", "-k", "6")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"finite": [0, 3]}


# ---------------------------------------------------------------------------
# hostile certificates: schema-valid, once unbounded work for the verifier


def _hostile(edit) -> str:
    cert = json.loads((GOLDEN / "realize-013-dim4.json").read_text())
    edit(cert)
    return json.dumps(cert)


def _wide_progressions(cert):
    # coprime moduli: comparing with the lcm's residues would take ~10^12 steps
    cert["finalSet"] = {"finite": [0], "progressions": [
        {"base": 1, "mod": 1000003}, {"base": 1, "mod": 999983}]}


def _large_prime(cert):
    # a prime: trial division would take ~5*10^8 steps
    cert["primes"][0] = 2**60 - 93


def _huge_claimed_sets(cert):
    # intersecting them member by member through the tuples took ~4*10^9 steps
    for k, pair in enumerate(cert["pairs"]):
        pair["claimed"] = {"finite": list(range(k, k + (1 << 17), 2))}


def _many_short_sequences(cert):
    # expecting cross checks one by one would build ~10^6 triples
    cert["decomposition"]["sequences"] = [[1]] * 1000


def _many_long_sequences(cert):
    # enumerating them would walk 1000 * 2^20 subsets
    cert["decomposition"]["sequences"] = [list(range(1, 21))] * 1000


def _many_progressions(cert):
    # intersecting the claimed sets took 300 * 300 CRT steps and then a
    # quadratic containment filter over the 90,000 progressions
    for k, pair in enumerate(cert["pairs"]):
        pair["claimed"] = {"finite": [0], "progressions": [
            {"base": k + 1, "mod": 1000003 + 2 * j} for j in range(300)]}


HOSTILE = {  # name -> (edit, first failing check)
    "wide-progressions": (_wide_progressions, "final.intersection"),
    "large-prime": (_large_prime, "alpha.product[0]"),
    "huge-claimed-sets": (_huge_claimed_sets, "pair[0].claimed-vs-enumeration"),
    "many-short-sequences": (_many_short_sequences, "decomposition.valid"),
    "many-long-sequences": (_many_long_sequences, "decomposition.valid"),
    "many-progressions": (_many_progressions, "pair[0].claimed-vs-enumeration"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_certificate_fails_fast(name, cli):
    edit, first = HOSTILE[name]
    text = _hostile(edit)
    start = time.perf_counter()
    code, out, err = cli("verify", stdin_text=text)
    assert time.perf_counter() - start < 1.0
    assert code == 3, err
    assert json.loads(out)["firstFailure"] == first


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_certificate_exits_3_in_a_child_process(name):
    proc = run_cli_process("verify", stdin_text=_hostile(HOSTILE[name][0]), timeout=10)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("j", [7, -1])
def test_stabilize_cross_check_out_of_range_in_a_child_process(j, fmt):
    # stabilize renders the text even for JSON output, and looking up the
    # multiplier of pair 8 of 2 raised IndexError; the schema rejects j = -1
    def edit(cert):
        cert["crossChecks"][0]["j"] = j
    proc = run_cli_process("stabilize", "--dim", "7", "--format", fmt,
                           stdin_text=_hostile(edit), timeout=10)
    assert "Traceback" not in proc.stderr
    if j < 0:
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            "error: invalid realizationCertificate at $.crossChecks[0].j: ")
    elif fmt == "json":
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["crossChecks"][0]["j"] == j
    else:
        assert proc.returncode == 0, proc.stderr
        assert "cross pair 1->8, summand 1: 15 does not divide ? " in proc.stdout


def test_hostile_certificate_details(cli):
    def details(edit):
        code, out, _ = cli("verify", stdin_text=_hostile(edit))
        assert code == 3
        return {c["id"]: c.get("detail") for c in json.loads(out)["checks"]}

    got = details(_many_long_sequences)
    cap = ("verification cap: the sequences have 1048576000 subsets in all, "
           "beyond the cap of 16777216")
    assert got["decomposition.valid"] == cap
    assert got["pair[0].claimed-vs-enumeration"] == cap
    assert got["pair[1].claimed-vs-enumeration"] == cap
    # counted, not listed: (0, 1, 1) and (1, 0, 1) now name no summand
    got = details(_many_short_sequences)
    assert got["cross.completeness"] == \
        "missing 998998 of 999000 expected cross checks, unexpected 2"

    def repeated(cert):  # a record given three times is one duplicate
        _many_short_sequences(cert)
        _duplicated_cross(cert)
        _duplicated_cross(cert)
    assert details(repeated)["cross.completeness"] == ("missing 998998 of 999000 "
                                                       "expected cross checks, "
                                                       "unexpected 2, duplicated 1")
    got = details(_many_progressions)
    assert got["final.intersection"] == \
        "intersecting would build 90000 progressions, beyond the cap of 1024"
    assert got["pair[0].claimed-vs-enumeration"] == (
        "claimed set {0} (1 member and 300 progressions) is not the "
        "subsequence-sum set of [1, 3]")


def test_huge_claimed_sets_give_a_bounded_report(cli):
    # each failing detail once echoed its whole claimed set, 469 KB apiece
    code, out, _ = cli("verify", stdin_text=_hostile(_huge_claimed_sets))
    assert code == 3
    assert len(out) < 5000
    got = {c["id"]: c.get("detail") for c in json.loads(out)["checks"]}
    assert got["pair[0].claimed-vs-enumeration"] == (
        "claimed set {0, 2, 4, 6, 8, 10, 12, 14, ...} (65536 members) is not "
        "the subsequence-sum set of [1, 3]")
    assert got["pair[1].claimed-vs-enumeration"].startswith(
        "claimed set {1, 3, 5, 7, 9, 11, 13, 15, ...} (65536 members) is not ")


def _base_flags(*flags):
    def edit(cert):
        cert["base"]["flags"] = list(flags)
    return edit


PAIR_RULE_FAILURES = {  # name -> (edit, pair[i].sum-rule detail)
    "missing-scf-pi1": (_base_flags("aspherical", "d_self_is_01"),
                        "base 'knot-glue-3' is missing required flag: scf_pi1"),
    "upper-bound-only": (_base_flags("aspherical", "scf_pi1", "d_self_finite"),
                         "pair rule only gave an upper bound"),
}


def _short_multipliers(cert):
    cert["multipliers"] = cert["multipliers"][:1]


def _pair_of_another_dimension(cert):
    cert["pairs"][1]["domain"] = {"sphereProduct": 5}


def _zero_multiplier(cert):
    cert["multipliers"][0] = 0
    for cross in cert["crossChecks"]:
        if cross["i"] == 0:
            cross["multiplier"] = 0


INCONSISTENT = {  # name -> edit
    "short-multipliers": _short_multipliers,
    "pair-of-another-dimension": _pair_of_another_dimension,
    "zero-multiplier": _zero_multiplier,
}


def _duplicated_cross(cert):
    cert["crossChecks"].append(dict(cert["crossChecks"][0]))


def _cross_out_of_range(cert):
    cert["crossChecks"][0]["j"] = 7


def _skipped_cross(cert):
    cert["crossChecks"][0]["verdict"] = "skip"


CROSS_RECORDS = {  # name -> edit of one cross-check record
    "duplicated": _duplicated_cross,
    "out-of-range": _cross_out_of_range,
    "skipped": _skipped_cross,
}


@lru_cache(maxsize=1)
def verify_report_cases() -> dict[str, realize.RealizationCertificate]:
    """Name -> certificate: both golden certificates, every tamper case of
    ``test_realize``, every hostile certificate, the golden certificate
    over bases the pair rule does not cover exactly, every inconsistent
    certificate and every edited cross-check record."""
    def load(text):
        return realize.RealizationCertificate.from_json(json.loads(text))
    cases = {f"golden/{name}": load((GOLDEN / name).read_text())
             for name in ("realize-013-dim4.json", "tampered-cert.json")}
    cert = realize.build_construction({0, 1, 3}, 4)
    for editor, _ in tamper_cases():
        cases[f"tamper/{editor.__name__}"] = mutate(cert, editor)
    for name, (edit, _) in HOSTILE.items():
        cases[f"hostile/{name}"] = load(_hostile(edit))
    for name, (edit, _) in PAIR_RULE_FAILURES.items():
        cases[f"pair-rule/{name}"] = load(_hostile(edit))
    for name, edit in INCONSISTENT.items():
        cases[f"inconsistent/{name}"] = load(_hostile(edit))
    for name, edit in CROSS_RECORDS.items():
        cases[f"cross/{name}"] = load(_hostile(edit))
    return cases


REPORT_SNAPSHOTS = GOLDEN / "verify-reports.json"


@pytest.mark.parametrize("name", sorted(verify_report_cases()))
def test_verify_report_matches_its_snapshot(name):
    # every check id, verdict and detail, in JSON and as text
    want = json.loads(REPORT_SNAPSHOTS.read_text())[name]
    report = realize.verify_certificate(verify_report_cases()[name])
    assert json.dumps(report.to_json(), sort_keys=True) == \
        json.dumps(want["json"], sort_keys=True)
    assert report.render() == want["text"]


def test_every_verdict_is_true_or_a_detail():
    # the tamper cases among them; a False or an empty detail would be lost
    # from the report's JSON and text
    for name, cert in verify_report_cases().items():
        for cid, verdict in realize.verify_certificate(cert).rows:
            assert verdict is True or (type(verdict) is str and verdict), (name, cid)


@pytest.mark.parametrize("name", sorted(PAIR_RULE_FAILURES))
def test_pair_rule_failure_is_named_on_every_pair(name):
    report = realize.verify_certificate(verify_report_cases()[f"pair-rule/{name}"])
    got = {c.id: c.detail for c in report.checks if not c.ok}
    detail = PAIR_RULE_FAILURES[name][1]
    assert got["pair[0].sum-rule"] == got["pair[1].sum-rule"] == detail
    assert report.first_failure == "base.flags"


# the first and third raised IndexError and ZeroDivisionError, the second
# exited 1 from the combination check
@pytest.mark.parametrize("edit, check, detail", [
    (_short_multipliers, "cross[0,1,0].nondivisible",
     "cross check names a pair without a multiplier"),
    (_pair_of_another_dimension, "combination.shape",
     "connected sum summands must share a dimension"),
    (_zero_multiplier, "cross[0,1,1].nondivisible",
     "summand multiplier 0/3 is 0; the pair rule needs it nonzero"),
])
def test_inconsistent_certificate_exits_3_in_a_child_process(edit, check, detail):
    proc = run_cli_process("verify", stdin_text=_hostile(edit), timeout=10)
    assert proc.returncode == 3, proc.stderr
    got = {c["id"]: c.get("detail") for c in json.loads(proc.stdout)["checks"]}
    assert got[check] == detail


def test_sequence_past_the_verify_length_cap_fails_every_claim(cli):
    # the claims were once decided by the builder's sum DP instead
    def longer(cert):
        cert["decomposition"]["sequences"][0] = list(range(1, 22))
    code, out, _ = cli("verify", stdin_text=_hostile(longer))
    assert code == 3
    report = json.loads(out)
    assert report["firstFailure"] == "decomposition.valid"
    cap = "verification cap: sequence length 21 exceeds 20"
    got = {c["id"]: c.get("detail") for c in report["checks"]}
    assert got["decomposition.valid"] == cap
    assert got["pair[0].claimed-vs-enumeration"] == cap
    assert got["pair[1].claimed-vs-enumeration"] == cap


def test_verifier_keeps_one_sum_set_at_a_time_in_a_child_process(tmp_path):
    # sixteen 18-entry sequences with 2^18 sums each: holding every
    # enumerated set at once would take ~280 MB
    def doubling(cert):
        cert["decomposition"]["sequences"] = [[1 << k for k in range(18)]] * 16
    path = tmp_path / "cert.json"
    path.write_text(_hostile(doubling))
    proc, peak_mb = run_cli_measured("verify", "--in", str(path), timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["firstFailure"] == "decomposition.valid"
    assert peak_mb < 120


def test_progressions_past_the_cap_exit_1_at_the_schema_in_a_child_process():
    # before the schema bounded them, building the claimed set hit the
    # progression cap and exited 2
    def edit(cert):
        cert["pairs"][0]["claimed"] = {"finite": [0], "progressions": [
            {"base": 1, "mod": m} for m in range(2, 2 + PROGRESSION_CAP + 1)]}
    proc = run_cli_process("verify", stdin_text=_hostile(edit), timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: invalid realizationCertificate at $.pairs[0].claimed.progressions: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_members_against_many_moduli_exit_2_in_a_child_process():
    # no prime modulus past 2^17 holds an even member below 2^17, so each of
    # the 2^16 members was tested against all 1024 progressions, and then
    # again by the final intersection: 4-6 s, exit 3
    primes = [p for p in range(1 << 17, 1 << 18) if realize._is_prime(p)][:PROGRESSION_CAP]

    def edit(cert):
        cert["pairs"][0]["claimed"] = {"finite": list(range(0, 1 << 17, 2)),
                                       "progressions": [{"base": 1, "mod": p} for p in primes]}
    text = _hostile(edit)
    start = time.perf_counter()
    proc = run_cli_process("verify", stdin_text=text, timeout=10)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "resource cap: testing 65536 finite members against 1024 progression moduli "
        f"would take 67108864 tests, beyond the cap of {COVER_TEST_CAP}\n")
    assert proc.stdout == ""


def _torsion_catalogue(maps: int) -> str:
    # torsion maps, one progression each: unioning them map by map
    # re-canonicalized the growing set every time, cubic in the map count
    z = {"rank": 0, "torsion": [1000003]}
    return json.dumps({
        "domainGroup": z, "targetGroup": z, "a": {"torsion": [1]}, "b": {"torsion": [1]},
        "catalogue": {"complete": True, "maps": [
            {"degree": i + 1, "action": {"rows": 1, "cols": 1, "entries": [i + 2]}}
            for i in range(maps)]}})


def test_large_dfp_catalogue_finishes_in_a_child_process():
    # 2000 maps once ran the union and exited 0 or 2; the schema now holds
    # a catalogue to as many maps as a degree set may hold progressions
    proc = run_cli_process("dfp", stdin_text=_torsion_catalogue(2000), timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: invalid dfpInput at $.catalogue.maps: ")
    assert "Traceback" not in proc.stderr


def test_long_catalogue_of_large_items_gets_a_short_rejection_in_a_child_process():
    # jsonschema words maxItems as the repr of the whole array: 12,192,058
    # bytes on stderr after 1.5 s for these 12 MB of JSON
    action = {"rows": 10**3999 + 7, "cols": 1, "entries": [1]}
    payload = json.dumps({
        "domainGroup": {"rank": 1}, "targetGroup": {"rank": 1},
        "a": {"free": [1]}, "b": {"free": [1]},
        "catalogue": {"complete": True,
                      "maps": [{"degree": 1, "action": action}] * 3000}})
    start = time.perf_counter()
    proc = run_cli_process("dfp", stdin_text=payload, timeout=10)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1
    assert proc.stderr == ("error: invalid dfpInput at $.catalogue.maps: array of "
                           "3000 items is longer than the maximum of 1024\n")
    assert len(proc.stderr) < 1000
    assert proc.stdout == ""


def test_dfp_catalogue_at_the_cap_exits_0_in_a_child_process():
    proc = run_cli_process("dfp", stdin_text=_torsion_catalogue(PROGRESSION_CAP), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["contributions"]) == PROGRESSION_CAP


def test_closed_stdout_exits_quietly_in_a_child_process():
    # as `circledeg decompose ... | head -c 100`, with the reader gone
    # before anything is written, so the pipe is sure to be closed
    code, err = run_cli_closed_stdout("decompose", "--set=0,1,3", "--budget", "100000000")
    assert (code, err) == (0, "")
    code, err = run_cli_closed_stdout("decompose", "--set=0,1,3", "--max-len", "1")
    assert code == 2
    assert err.startswith("resource cap: ")


@pytest.mark.parametrize("argv, field", [
    (["decompose", "--set=0,1,2,4,8,16", "--budget", str(10**12)], "budget"),
    (["realize", "--set=0,1,2,4,8,16", "--max-len", "41"], "maxLen"),
    (["decompose", "--set=0,1,3", "--max-entry", str(2**53 + 1)], "maxEntry"),
])
def test_oversized_search_caps_exit_1_in_a_child_process(argv, field):
    proc = run_cli_process(*argv, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: invalid {argv[0]}Input at $.{field}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("hull", [TARGET_MAGNITUDE_CAP, -TARGET_MAGNITUDE_CAP])
def test_largest_accepted_hull_round_trips_through_verify(cli, hull):
    # the default maxEntry, 4 * |hull|, is the schema's maximum itself
    code, out, err = cli("realize", f"--set=0,{hull}")
    assert (code, err) == (0, "")
    assert json.loads(out)["decomposition"]["caps"]["maxEntry"] == MAX_ENTRY_CAP
    code, report, err = cli("verify", stdin_text=out)
    assert (code, err) == (0, "")
    assert json.loads(report)["valid"] is True


@pytest.mark.parametrize("command", ["decompose", "realize"])
@pytest.mark.parametrize("member", [TARGET_MAGNITUDE_CAP + 1, -TARGET_MAGNITUDE_CAP - 1])
def test_target_members_beyond_the_cap_exit_1(cli, command, member):
    code, out, err = cli(command, f"--set=0,{member}")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invalid {command}Input at $.set[1]: ")


@pytest.mark.parametrize("argv", [
    # 2^23 sums without the cap
    ("sums", "--seq", ",".join(str(1 << i) for i in range(23))),
    # a seed sequence with 2^26 sums
    ("decompose", "--set", ",".join(["0"] + [str(1 << i) for i in range(26)])),
])
def test_sum_size_cap_exits_2_in_a_child_process(argv):
    proc, peak_mb = run_cli_measured(*argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("resource cap: subsequence sums reached ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    # the step that crosses the cap stops near it: ~110 MB, once ~300 MB
    assert peak_mb < 160


# without the span cap the search built a mask of 2^51 bits and the
# MemoryError left exit 1 with "input too deeply nested or too large"
@pytest.mark.parametrize("command", ["decompose", "realize"])
def test_search_span_cap_exits_2_in_a_child_process(command):
    start = time.perf_counter()
    proc = run_cli_process(command, f"--set=0,1,{TARGET_MAGNITUDE_CAP}", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        f"resource cap: decomposition search over a target span of {TARGET_MAGNITUDE_CAP}, "
        f"beyond the cap of {SEARCH_SPAN_CAP} while excluding {TARGET_MAGNITUDE_CAP + 1} ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert time.perf_counter() - start < 10


# the search's mask of extraneous values spans their subset sums, many
# times the target's span: built before the span cap fired, it took 629 MB
# for the draw, and for the powers of 7 its MemoryError left exit 1 with
# "input too deeply nested or too large"
@pytest.mark.parametrize("members", [
    [7 ** i for i in range(19)],
    random.Random(1).sample(range(1, 2 * 10 ** 8), 18),
], ids=["powers-of-7", "draw-below-2e8"])
def test_search_span_cap_comes_before_the_pending_mask(members):
    target = ",".join(map(str, [0, *members]))
    proc, peak_mb = run_cli_measured("decompose", f"--set={target}", "--budget", "100000000",
                                     timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        f"resource cap: decomposition search over a target span of {max(members)}, "
        f"beyond the cap of {SEARCH_SPAN_CAP} while excluding ")
    assert proc.stdout == ""
    # the seed's ~2^19 subset sums take ~120 MB
    assert peak_mb < 200


# a leaf group below a wide maxEntry spans 8 * 10^7 last entries: a mask
# over the candidate penultimate entries as wide as that takes 10 MB a copy
# and some 30 MB in all, where one spanning what its terms reach takes bytes
def test_wide_max_entry_masks_stay_within_their_window():
    _, plain_mb = run_cli_measured("decompose", "--set=0,5,11", timeout=30)
    proc, peak_mb = run_cli_measured("decompose", "--set=0,5,11", "--max-entry", "40000000",
                                     "--budget", "100000000", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("resource cap: decomposition search budget exhausted while "
                           "excluding 16 (0 of 1 extraneous values excluded, "
                           "budget 100000000)\n")
    assert peak_mb < plain_mb + 5


def test_length_cap_says_how_many_values_were_excluded(cli):
    code, out, err = cli("decompose", "--set=0,1,2,4,8,16,32", "--max-len", "3")
    assert (code, out) == (2, "")
    assert err == ("resource cap: no excluding sequence for 3 within caps "
                   "(max_len=3, max_entry=128; 0 of 57 extraneous values excluded)\n")


# without the length check on the seed, decompose summed the whole seed:
# 1400 members then searched for 89 s before the budget ran out, and 3000
# reached the sum-size cap after 66 s; 41 nonzero members are the least
# past the cap
@pytest.mark.parametrize("command", ["decompose", "realize"])
@pytest.mark.parametrize("top", [41, 1400, 3000])
def test_long_seed_hits_the_length_cap_in_a_child_process(command, top):
    proc = run_cli_process(command, "--set=" + ",".join(map(str, range(top + 1))), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == (f"resource cap: sequence length {top} exceeds the cap "
                           f"of {SUM_LENGTH_CAP}\n")
    assert proc.stdout == ""


# 2^20 - 21 extraneous values: a bit mask of them built by summing shifted
# integers took 24 of the parent's 25 s, quadratic in their number
@pytest.mark.parametrize("command", ["decompose", "realize"])
def test_many_extraneous_values_reach_the_budget_in_a_child_process(command):
    members = [0] + [1 << i for i in range(20)]
    proc = run_cli_process(command, "--set=" + ",".join(map(str, members)), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "resource cap: decomposition search budget exhausted while excluding 3 ")
    assert proc.stdout == ""


# each died with a ValueError traceback: an integer of the output, or of a
# verification detail, past Python's 4300-digit int-to-str limit
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", ["sums", "dfp", "verify"])
def test_integers_past_the_digit_limit_exit_2_in_a_child_process(name, fmt):
    argv, payload = digit_limit_requests()[name]
    proc = run_cli_process(*argv, "--format", fmt, stdin_text=json.dumps(payload), timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ("resource cap: an integer to print has more than "
                           "4300 decimal digits\n")
    assert proc.stdout == ""


def _random_matrix(seed: int, n: int = 32) -> dict:
    rng = random.Random(seed)
    return {"rows": n, "cols": n, "entries": [rng.randint(-9, 9) for _ in range(n * n)]}


# without the digit cap both ended in a ValueError traceback, entries of U
# being past Python's 4300-digit int-to-str bound: seed 2 after 0.8 s of
# elimination, with ~40,000-digit entries, and seed 31 after ~23 s, with
# entries of U reaching 678,000 bits and of V 1.36 M bits
@pytest.mark.parametrize("seed", [2, 31])
@pytest.mark.parametrize("command, key", [("snf", "matrix"), ("group", "relations")])
def test_snf_digit_cap_exits_2_in_a_child_process(seed, command, key):
    payload = json.dumps({key: _random_matrix(seed)})
    proc = run_cli_process(command, stdin_text=payload, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("resource cap: Smith normal form of a 32x32 matrix: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# U and V are square and as wide as the matrix: ~12 s and 9 million
# entries of V for the 1 x 3000 matrix, with exit 0
@pytest.mark.parametrize("rows, cols", [(1, 3000), (3000, 1)])
def test_snf_size_cap_exits_2_in_a_child_process(rows, cols):
    matrix = {"rows": rows, "cols": cols, "entries": list(range(1, 3001))}
    start = time.perf_counter()
    proc = run_cli_process("snf", stdin_text=json.dumps({"matrix": matrix}), timeout=10)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"resource cap: Smith normal form of a {rows}x{cols} matrix: "
                           f"U and V would hold 9000001 entries, beyond the cap of 1048576\n")
    proc = run_cli_process("group", stdin_text=json.dumps({"relations": matrix}), timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["group"] == {"rank": cols - 1, "torsion": []}


# through the full Smith normal form both hit the digit cap on an entry of
# V, which the group's invariant factors do not need
@pytest.mark.parametrize("seed", [5, 10])
def test_group_needs_no_u_or_v_in_a_child_process(seed):
    relations = _random_matrix(seed)
    proc = run_cli_process("group", stdin_text=json.dumps({"relations": relations}),
                           timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    group = json.loads(proc.stdout)["group"]
    assert group["rank"] == 0
    assert math.prod(group["torsion"]) == abs(IntegerMatrix.from_json(relations).det())


_AT_BASE = "invalid realizationCertificate at $.base: "


def _volume(text):
    def edit(cert):
        cert["base"]["volume"] = text
    return edit


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["verify"], _hostile(_volume("zz")), f"{_AT_BASE}volume must be a rational number"),
    (["verify"], _hostile(_volume("1/0")), f"{_AT_BASE}volume has a zero denominator"),
    # Fraction would expand five million digits first
    (["verify"], _hostile(_volume("1e5000000")), f"{_AT_BASE}volume has more than 2000 digits"),
    # the bound would pass the 4300-digit limit of int-to-str conversion
    (["bound", "--domain-volume", "1e100000", "--target-volume", "1"], "",
     "domainVolume has more than 2000 digits"),
    # json.loads raises a ValueError other than JSONDecodeError here
    (["bound"], '{"domainVolume": %s, "targetVolume": 1}' % ("9" * 5000),
     "stdin is not valid JSON"),
], ids=["letters", "zero-denominator", "huge-exponent", "huge-bound", "huge-json-int"])
def test_hostile_volume_exits_1_in_a_child_process(argv, stdin_text, message):
    proc = run_cli_process(*argv, stdin_text=stdin_text, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_demos_run():
    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    assert len(demos) == 4
    for script in demos:
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{script.name}:\n{proc.stderr}"
        assert proc.stdout.strip()


# a cold start imports no module that only a volume or an eigenvalue needs;
# each function that makes a Fraction imports fractions itself
_COLD_IMPORTS = """\
import json, sys
from pathlib import Path
import circledeg.cli
loaded = [m for m in ("fractions", "decimal", "numbers") if m in sys.modules]
from decimal import Decimal
from fractions import Fraction
from circledeg import abelian, bundles, schema
entry = {"name": "vol", "dim": 3, "group": {"rank": 1, "torsion": []},
         "classes": {"b": {"free": [1], "torsion": []}},
         "flags": ["aspherical"], "fixes": [], "volume": "7/2"}
Path(sys.argv[1]).write_text(json.dumps({"bases": [entry]}))
schema.validate_payload("boundInput", {"domainVolume": Fraction(7, 2),
                                       "targetVolume": Decimal("0.5")})
print(json.dumps({"loaded": loaded, "reprs": [repr(x) for x in (
    abelian.unimodular_rational_eigen_check(
        abelian.IntegerMatrix.from_rows([[2, 0], [0, 1]])),
    bundles.degree_bound(bundles.parse_volume("7/2", "d"),
                         bundles.parse_volume("1/3", "t")),
    bundles.load_registry(sys.argv[1])["vol"].volume,
    [schema._is_number(x, 0) for x in (Fraction(1, 3), Decimal("1.5"), True)],
)]}))
"""


def test_cold_import_loads_no_fractions_in_a_child_process(tmp_path):
    proc = run_python_process(_COLD_IMPORTS, str(tmp_path / "bases.json"))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    assert got["reprs"] == ["(False, [Fraction(2, 1), Fraction(1, 1)])", "10",
                            "Fraction(7, 2)", "[True, True, False]"]
    proc = run_cli_process("bound", "--domain-volume", "7/2", "--target-volume", "1/3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{\n  "bound": 10\n}\n', "")


# a request that needs only ``abelian`` or ``degsets`` loads neither
# ``bundles`` nor ``realize``; its result goes to --out, so that stdout
# holds only the modules it loaded
_COLD_REQUEST = """\
import json, sys
from circledeg import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv", [["snf", "--in", "matrix.json"], ["sums", "--seq", "1,2"],
                                  ["decompose", "--set", "0,1,3"]], ids=lambda argv: argv[0])
def test_cold_request_loads_neither_bundles_nor_realize_in_a_child_process(tmp_path, argv):
    (tmp_path / "matrix.json").write_text(
        '{"matrix": {"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}}')
    argv = [str(tmp_path / word) if word == "matrix.json" else word for word in argv]
    proc = run_python_process(_COLD_REQUEST, *argv, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert {"circledeg.abelian", "circledeg.degsets", "circledeg.schema"} <= set(loaded)
    assert not {"circledeg.bundles", "circledeg.realize"} & set(loaded)
    assert json.loads((tmp_path / "out.json").read_text())


# a valid request is parsed without argparse, so it loads neither argparse
# nor the gettext and locale that argparse brings in
@pytest.mark.parametrize("argv", [["snf", "--in", "matrix.json"], ["pair", "-m", "-4", "-k", "8"]],
                         ids=lambda argv: argv[0])
def test_cold_request_loads_no_argparse_in_a_child_process(tmp_path, argv):
    (tmp_path / "matrix.json").write_text(
        '{"matrix": {"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}}')
    argv = [str(tmp_path / word) if word == "matrix.json" else word for word in argv]
    proc = run_python_process(_COLD_REQUEST, *argv, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    assert json.loads((tmp_path / "out.json").read_text())


# under -S no site hook imports pathlib or importlib.resources ahead of the
# package, so a cold verify there shows that the package imports neither:
# the schema document is read by the schema module's own loader
def test_verify_in_a_clean_interpreter_loads_no_pathlib_in_a_child_process(tmp_path):
    report = tmp_path / "report.txt"
    proc = run_python_process(_COLD_REQUEST, "verify", "--in",
                              str(GOLDEN / "realize-013-dim4.json"), "--format", "text",
                              "--out", str(report), flags=("-S",))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "circledeg.realize" in loaded
    assert not {"pathlib", "importlib.resources"} & set(loaded)
    assert report.read_text().splitlines()[-1] == "valid"


# the package imports a module on the first use of one of its names, and
# still reaches every public name and every submodule
_LAZY_PACKAGE = """\
import json, sys
import circledeg
before = sorted(m for m in sys.modules if m.startswith("circledeg."))
star = {}
exec("from circledeg import *", star)
submodules = ("abelian", "bundles", "cli", "degsets", "errors", "realize", "schema")
print(json.dumps({
    "before": before,
    "missing": [name for name in circledeg.__all__ if name not in star],
    "submodules": [getattr(circledeg, name) is sys.modules["circledeg." + name]
                   for name in submodules],
    "listed": sorted(set(submodules) - set(dir(circledeg))),
}))
"""


def test_package_loads_each_module_on_first_use_in_a_child_process():
    proc = run_python_process(_LAZY_PACKAGE)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"before": [], "missing": [], "submodules": [True] * 7, "listed": []}
