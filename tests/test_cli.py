"""Command-line round trips, exit codes, schema conformance, golden files."""

from __future__ import annotations

import io
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cli_process import run_cli_closed_stdout, run_cli_measured, run_cli_process

from circledeg.abelian import IntegerMatrix
from circledeg.cli import main
from circledeg.degsets import (
    MAX_ENTRY_CAP,
    PROGRESSION_CAP,
    SEARCH_SPAN_CAP,
    TARGET_MAGNITUDE_CAP,
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


def test_large_dfp_catalogue_finishes_in_a_child_process():
    # 2000 torsion maps, one progression each: unioning them map by map
    # re-canonicalized the growing set every time, cubic in the map count
    z = {"rank": 0, "torsion": [1000003]}
    payload = {"domainGroup": z, "targetGroup": z,
               "a": {"torsion": [1]}, "b": {"torsion": [1]},
               "catalogue": {"complete": True, "maps": [
                   {"degree": i + 1, "action": {"rows": 1, "cols": 1, "entries": [i + 2]}}
                   for i in range(2000)]}}
    proc = run_cli_process("dfp", stdin_text=json.dumps(payload), timeout=10)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


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


def _volume(text):
    def edit(cert):
        cert["base"]["volume"] = text
    return edit


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["verify"], _hostile(_volume("zz")), "volume must be a rational number"),
    (["verify"], _hostile(_volume("1/0")), "volume has a zero denominator"),
    # Fraction would expand five million digits first
    (["verify"], _hostile(_volume("1e5000000")), "volume has more than 2000 digits"),
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
