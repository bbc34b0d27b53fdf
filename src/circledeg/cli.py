"""Command line for the degree-set toolkit.

Subcommands, grouped by module:

  snf         Smith normal form of an integer matrix
  group       invariant factors of a presented abelian group
  solve-k     all k with k*a = c in a finitely generated abelian group
  sums        subsequence-sum set S_B of an integer sequence
  decompose   write a finite set as an intersection of S_B sets
  dv          vertical-map degree set between two Euler classes
  dfp         fiber-preserving degree set from a catalogue of base maps
  pair        degree set between bundles with Euler classes m*b and k*b
  bound       simplicial-volume bound on mapping degrees
  finite      finiteness verdict for a bundle pair
  realize     build a certificate realizing a finite degree set
  verify      re-derive every claim of a realization certificate
  stabilize   carry a certificate to a higher dimension
  selftest    quick end-to-end battery

Structured inputs arrive as JSON (``--in FILE``, ``-`` or nothing for
stdin) and are checked against the shipped schemas before any
computation; small inputs can be given as flags (``--set``, ``-m/-k``,
``--seq``, volumes).  Output is JSON on stdout by default,
``--format text`` switches to a human rendering, ``--out FILE`` writes
to a file.  Exit codes: 0 success, 1 invalid input (usage errors
included) or unmet hypothesis, 2 resource cap hit, 3 verification or
selftest failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import abelian, bundles, degsets, realize
from .errors import InputError, ResourceCapError
from .schema import validate_payload

__all__ = ["main", "build_parser"]


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.replace(" ", "").split(",") if piece]
    except ValueError as exc:
        raise InputError(f"{what} must be a comma-separated list of integers") from exc


# argparse dest -> payload key of every flag that is part of a payload
_PAYLOAD_FLAGS = {
    "seq": "sequence", "set": "set", "m": "m", "k": "k",
    "domain_volume": "domainVolume", "target_volume": "targetVolume",
    "dim": "dim", "preset": "preset", "class_label": "classLabel",
    "max_len": "maxLen", "max_entry": "maxEntry", "budget": "budget",
}
# any of these builds the payload from the flags instead of reading it
_FLAG_MODE = frozenset({"seq", "set", "m", "k", "domain_volume", "target_volume"})


def _read_json(args: argparse.Namespace) -> object:
    """The JSON document in ``--in FILE``, or on stdin for ``-`` or none."""
    if args.infile is None or args.infile == "-":
        text = sys.stdin.read()
        source = "stdin"
    else:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.infile}: {exc.strerror}") from exc
        source = args.infile
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise InputError(f"{source} is not valid JSON: {exc}") from exc


def _read_payload(args: argparse.Namespace, schema: str) -> dict:
    """The request's payload, valid under ``schema``: built from the
    payload flags when a flag-mode flag is given, read as JSON otherwise."""
    flags = {dest: value for dest, value in vars(args).items()
             if dest in _PAYLOAD_FLAGS and value is not None}
    if flags.keys() & _FLAG_MODE:
        obj = {_PAYLOAD_FLAGS[dest]: _parse_ints(value, f"--{dest}")
               if dest in ("seq", "set") else value for dest, value in flags.items()}
    else:
        obj = _read_json(args)
    validate_payload(schema, obj)
    return obj


def _base_from(name: str) -> bundles.BaseManifold:
    registry = bundles.registry_from_env()
    if name not in registry:
        raise InputError(
            f"unknown preset {name!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[name]


def _render_group(g: abelian.FgAbelianGroup) -> str:
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " x ".join(parts) if parts else "0"


def _render_matrix(m: abelian.IntegerMatrix) -> str:
    return "\n".join("  ".join(str(x) for x in row) for row in m.entries)


def _render_solutions(view: dict) -> str:
    """Text form of a ``solutionSet`` view."""
    if view["kind"] == "empty":
        return "no solutions"
    mod = f" (mod {view['mod']})" if view["mod"] else ""
    return f"k = {view['base']}{mod}"


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, json_object, text)


def _cmd_snf(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "snfInput")
    m = abelian.IntegerMatrix.from_json(payload["matrix"])
    u, d, v = abelian.smith_normal_form(m)
    out = {"u": u.to_json(), "d": d.to_json(), "v": v.to_json()}
    text = "U =\n{}\nD =\n{}\nV =\n{}".format(
        _render_matrix(u), _render_matrix(d), _render_matrix(v))
    return 0, out, text


def _cmd_group(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "groupInput")
    g = abelian.canonicalize_group(abelian.IntegerMatrix.from_json(payload["relations"]))
    return 0, {"group": g.to_json()}, _render_group(g)


def _cmd_solve_k(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "solveInput")
    g = abelian.FgAbelianGroup.from_json(payload["group"])
    a = abelian.GroupElement.from_json(g, payload["a"])
    c = abelian.GroupElement.from_json(g, payload["c"])
    view = abelian.solution_set_json(abelian.solve_scalar(a, c))
    return 0, {"solutions": view}, _render_solutions(view)


def _cmd_sums(args) -> tuple[int, dict, str]:
    entries = _read_payload(args, "sumsInput")["sequence"]
    s = degsets.subsequence_sums(degsets.SequenceB(tuple(entries)))
    return 0, {"set": s.to_json()}, s.render()


def _cmd_decompose(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "decomposeInput")
    cert = degsets.decompose(payload["set"], degsets.SearchLimits.from_json(payload))
    text = "\n".join(
        f"B{i + 1} = ({', '.join(str(x) for x in s.entries)})"
        for i, s in enumerate(cert.sequences)
    )
    return 0, cert.to_json(), text


def _cmd_dv(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "dvInput")
    g = abelian.FgAbelianGroup.from_json(payload["group"])
    a = abelian.GroupElement.from_json(g, payload["a"])
    b = abelian.GroupElement.from_json(g, payload["b"])
    s = bundles.vertical_degree_set(a, b)
    # whether degree 0 belongs is an open classification question; the
    # set reports nonzero degrees only and this marker says so
    out = {"set": s.to_json(), "zeroDegreeUnresolved": True}
    return 0, out, f"{s.render()} (degree 0 unresolved)"


def _cmd_dfp(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "dfpInput")
    dom = abelian.FgAbelianGroup.from_json(payload["domainGroup"])
    tgt = abelian.FgAbelianGroup.from_json(payload["targetGroup"])
    a = abelian.GroupElement.from_json(dom, payload["a"])
    b = abelian.GroupElement.from_json(tgt, payload["b"])
    cat = bundles.MapCatalogue.from_json(payload["catalogue"])
    res = bundles.fiber_preserving_degree_set(cat, a, b)
    text = "{} ({})".format(
        res.degree_set.render(),
        "exact: catalogue declared complete" if res.exact
        else "lower approximation: catalogue incomplete")
    return 0, res.to_json(), text


def _cmd_pair(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "pairInput")
    base = _base_from(payload.get("preset") or "knot-glue-3")
    res = bundles.same_base_pair_degree_set(
        int(payload["m"]), int(payload["k"]), base,
        payload.get("classLabel") or "b")
    text = res.degree_set.render()
    if not res.exact:
        text += " (upper bound)"
    text += f" [{res.rule}]"
    return 0, res.to_json(), text


def _cmd_bound(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "boundInput")
    n = bundles.degree_bound(
        bundles.parse_volume(payload["domainVolume"], "domainVolume"),
        bundles.parse_volume(payload["targetVolume"], "targetVolume"))
    return 0, {"bound": n}, f"|deg| <= {n}"


def _cmd_finite(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "finiteInput")
    registry = bundles.registry_from_env()
    dom = bundles.expr_from_json(payload["domain"], registry)
    tgt = bundles.expr_from_json(payload["target"], registry)
    verdict = bundles.finiteness_verdict(
        dom, tgt,
        bool(payload.get("dBaseFinite", False)),
        bool(payload.get("pullbackClassSetFinite", False)),
    )
    return 0, {"verdict": verdict}, verdict


def _cmd_realize(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "realizeInput")
    base = None
    if payload.get("preset"):
        base = _base_from(payload["preset"])
    cert = realize.build_construction(
        payload["set"],
        int(payload.get("dim", 4)),
        base=base,
        class_label=payload.get("classLabel") or "b",
        limits=degsets.SearchLimits.from_json(payload),
    )
    return 0, cert.to_json(), realize.render_certificate(cert)


def _cmd_verify(args) -> tuple[int, dict, str]:
    payload = _read_payload(args, "realizationCertificate")
    cert = realize.RealizationCertificate.from_json(payload)
    report = realize.verify_certificate(cert)
    return (0 if report.valid else 3), report.to_json(), report.render()


def _cmd_stabilize(args) -> tuple[int, dict, str]:
    obj = _read_json(args)
    if isinstance(obj, dict) and obj.get("kind") == "realization-certificate":
        validate_payload("realizationCertificate", obj)
        if args.dim is None:
            raise InputError("stabilize needs --dim when given a bare certificate")
        cert_obj, dim = obj, args.dim
    else:
        validate_payload("stabilizeInput", obj)
        cert_obj = obj["certificate"]
        dim = args.dim if args.dim is not None else int(obj["dim"])
    cert = realize.RealizationCertificate.from_json(cert_obj)
    up = realize.stabilize(cert, dim)
    return 0, up.to_json(), realize.render_certificate(up)


def _cmd_selftest(args) -> tuple[int, dict, str]:
    batteries: list[tuple[str, Callable[[], bool]]] = []

    def snf_round() -> bool:
        m = abelian.IntegerMatrix.from_rows([[6, 4, 2], [2, 8, 4], [0, 2, 10]])
        u, d, v = abelian.smith_normal_form(m)
        return u.mul(m).mul(v).entries == d.entries and abs(u.det()) == 1

    def solve_round() -> bool:
        g = abelian.FgAbelianGroup(1, (6,))
        # the free coordinate pins k = 3 and the torsion congruence allows it
        exact = abelian.solve_scalar(g.element([2], [2]), g.element([6], [0]))
        g2 = abelian.FgAbelianGroup(0, (6,))
        cyclic = abelian.solve_scalar(g2.element(torsion=[2]), g2.element(torsion=[4]))
        return (exact.window(-10, 10) == [3]
                and cyclic.window(-10, 10) == [-10, -7, -4, -1, 2, 5, 8])

    def decompose_round() -> bool:
        cert = degsets.decompose({0, 1, 3})
        return (degsets.verify_decomposition(cert)
                and [s.entries for s in cert.sequences] == [(1, 3), (1, 2)])

    def realize_round() -> bool:
        cert = realize.build_construction({0, 1, 3}, 4)
        return realize.verify_certificate(cert).valid

    def tamper_round() -> bool:
        cert = realize.build_construction({0, 1, 3}, 4)
        obj = cert.to_json()
        obj["multipliers"][0] += 1
        bad = realize.RealizationCertificate.from_json(obj)
        report = realize.verify_certificate(bad)
        return not report.valid and report.first_failure == "alpha.product[0]"

    batteries = [
        ("smith-normal-form", snf_round),
        ("scalar-solve", solve_round),
        ("decompose-verify", decompose_round),
        ("realize-verify", realize_round),
        ("tamper-detection", tamper_round),
    ]
    results = []
    for name, fn in batteries:
        try:
            ok = fn()
        except Exception:  # a selftest must report, not crash
            ok = False
        results.append({"name": name, "ok": ok})
    passed = all(r["ok"] for r in results)
    text = "\n".join(
        ("ok  " if r["ok"] else "FAIL") + " " + r["name"] for r in results)
    text += "\n" + ("all batteries passed" if passed else "selftest failed")
    return (0 if passed else 3), {"passed": passed, "batteries": results}, text


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(p: argparse.ArgumentParser, payload: bool = True) -> None:
    if payload:
        p.add_argument("--in", dest="infile", metavar="FILE",
                       help="JSON payload file, - for stdin (default: stdin)")
    p.add_argument("--out", dest="outfile", metavar="FILE",
                   help="write the result here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output rendering (default: json)")


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=int, metavar="N",
                   help="longest sequence the search may try")
    p.add_argument("--max-entry", type=int, metavar="N",
                   help="largest entry magnitude the search may try")
    p.add_argument("--budget", type=int, metavar="N",
                   help="total candidate budget for the search")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as bad input; argparse's own 2 is the code of
    a resource cap hit."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circledeg",
        description="Exact degree-set arithmetic for oriented circle bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_snf)

    p = sub.add_parser("group", help="invariant factors of a presented group")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("solve-k", help="solve k*a = c in an abelian group")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_solve_k)

    p = sub.add_parser("sums", help="subsequence-sum set of a sequence")
    p.add_argument("--seq", metavar="B", help="comma-separated nonzero entries")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_sums)

    p = sub.add_parser("decompose",
                       help="write a finite set as an intersection of sum sets")
    p.add_argument("--set", metavar="A", help="comma-separated members, must include 0")
    _add_cap_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("dv", help="vertical-map degree set")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_dv)

    p = sub.add_parser("dfp", help="fiber-preserving degree set from a catalogue")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_dfp)

    p = sub.add_parser("pair", help="degree set between bundles m*b and k*b")
    p.add_argument("-m", type=int, metavar="M", help="domain Euler multiplier")
    p.add_argument("-k", type=int, metavar="K", help="target Euler multiplier")
    p.add_argument("--preset", metavar="NAME",
                   help="base preset (default: knot-glue-3)")
    p.add_argument("--class", dest="class_label", metavar="LABEL",
                   help="distinguished class (default: b)")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("bound", help="simplicial-volume degree bound")
    p.add_argument("--domain-volume", metavar="Q", help="rational, e.g. 10 or 7/2")
    p.add_argument("--target-volume", metavar="Q", help="rational, positive")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("finite", help="finiteness verdict for a bundle pair")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_finite)

    p = sub.add_parser("realize", help="build a realization certificate")
    p.add_argument("--set", metavar="A", help="comma-separated members, must include 0")
    p.add_argument("--dim", type=int, metavar="N",
                   help="ambient dimension (default: 4)")
    p.add_argument("--preset", metavar="NAME",
                   help="base preset (default chosen by dimension)")
    p.add_argument("--class", dest="class_label", metavar="LABEL",
                   help="distinguished class (default: b)")
    _add_cap_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("verify", help="re-derive a certificate's claims")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("stabilize", help="carry a certificate up in dimension")
    p.add_argument("--dim", type=int, metavar="N", help="target dimension")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_stabilize)

    p = sub.add_parser("selftest", help="quick end-to-end battery")
    _add_io_flags(p, payload=False)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, obj, text = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # what the nesting bound in validate_payload cannot catch, such as
        # JSON text too deep for the parser itself
        print(f"error: input too deeply nested or too large "
              f"({type(exc).__name__})", file=sys.stderr)
        return 1

    rendered = text if args.format == "text" else json.dumps(
        obj, indent=2, sort_keys=True)
    if args.outfile:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.outfile}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        try:
            print(rendered, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe: the rest of the output has no
            # reader, so point stdout at the null device, where the
            # interpreter's last flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
