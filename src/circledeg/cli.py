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

One table, ``_COMMANDS``, declares every subcommand: its handler, its
payload schema, its help and its payload flags.  A payload is the JSON
document (``--in FILE``, ``-`` or nothing for stdin) overlaid with every
payload flag given, a flag winning over the same key; a flag that builds
the payload alone (``--set``, ``--seq``, ``-m``, ``-k``, a volume) leaves
the document unread.  ``stabilize`` reads its own document, a bare
certificate or one wrapped with a ``dim``, and its ``--dim`` wins the same
way.  The payload is checked against the shipped schema before any
computation.  Output is JSON on stdout by default,
``--format text`` switches to a human rendering, ``--out FILE`` writes
to a file.  Exit codes: 0 success, 1 invalid input (usage errors
included) or unmet hypothesis, 2 resource cap hit, 3 verification or
selftest failure.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, TypeVar

from . import abelian, degsets
from .errors import InputError, ResourceCapError
from .schema import validate_payload

if TYPE_CHECKING:
    import argparse

    from . import bundles

# ``bundles`` and ``realize`` are imported by the handlers that use them, so
# that a request for ``snf``, ``group``, ``solve-k``, ``sums`` or
# ``decompose`` does not load them

__all__ = ["main", "build_parser"]

_T = TypeVar("_T")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # Python's int-from-str bound
            raise InputError(f"{what} has an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc
        raise InputError(f"{what} must be a comma-separated list of integers") from exc


def _read_json(args: SimpleNamespace | argparse.Namespace) -> object:
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


def _read_payload(args: SimpleNamespace | argparse.Namespace) -> dict:
    """The request's payload, valid under its command's schema: the JSON
    document overlaid with every payload flag given, a flag winning over
    the same key.  The document is not read when a flag that builds the
    payload alone is given."""
    given = {flag.key: _parse_ints(value, flag.name) if flag.type is list else value
             for flag in args.spec.flags
             if (value := getattr(args, flag.key)) is not None}
    alone = any(flag.alone for flag in args.spec.flags if flag.key in given)
    obj = {} if alone else _read_json(args)
    if isinstance(obj, dict):  # the schema words what else it is
        obj.update(given)
    validate_payload(args.spec.schema, obj)
    return obj


def _decoded(args: SimpleNamespace | argparse.Namespace, payload: dict, key: str,
             decode: Callable[[object], _T]) -> _T:
    """``decode(payload[key])``.  An :class:`InputError` it raises, for a
    value the schema admits but the decoder refuses, is worded as the
    schema words a rejection, naming the field ``$.key``."""
    try:
        return decode(payload[key])
    except InputError as exc:
        raise InputError(f"invalid {args.spec.schema} at $.{key}: {exc}") from exc


def _base_from(name: str) -> bundles.BaseManifold:
    from . import bundles

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
# command handlers: each takes the payload, valid under its command's schema
# (None without one), and returns (exit_code, json_object, render); main calls
# render() only for --format text


def _cmd_snf(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    m = _decoded(args, payload, "matrix", abelian.IntegerMatrix.from_json)
    u, d, v = abelian.smith_normal_form(m)
    out = {"u": u.to_json(), "d": d.to_json(), "v": v.to_json()}
    return 0, out, lambda: "U =\n{}\nD =\n{}\nV =\n{}".format(
        _render_matrix(u), _render_matrix(d), _render_matrix(v))


def _cmd_group(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    g = abelian.canonicalize_group(
        _decoded(args, payload, "relations", abelian.IntegerMatrix.from_json))
    return 0, {"group": g.to_json()}, lambda: _render_group(g)


def _cmd_solve_k(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    g = _decoded(args, payload, "group", abelian.FgAbelianGroup.from_json)
    element = partial(abelian.GroupElement.from_json, g)
    a = _decoded(args, payload, "a", element)
    c = _decoded(args, payload, "c", element)
    view = abelian.solution_set_json(abelian.solve_scalar(a, c))
    return 0, {"solutions": view}, lambda: _render_solutions(view)


def _cmd_sums(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    s = degsets.subsequence_sums(degsets.SequenceB(payload["sequence"]))
    return 0, {"set": s.to_json()}, s.render


def _cmd_decompose(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    cert = degsets.decompose(payload["set"], degsets.SearchLimits.from_json(payload))
    return 0, cert.to_json(), lambda: "\n".join(
        f"B{i + 1} = ({', '.join(str(x) for x in s.entries)})"
        for i, s in enumerate(cert.sequences))


def _cmd_dv(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import bundles

    g = _decoded(args, payload, "group", abelian.FgAbelianGroup.from_json)
    element = partial(abelian.GroupElement.from_json, g)
    a = _decoded(args, payload, "a", element)
    b = _decoded(args, payload, "b", element)
    s = bundles.vertical_degree_set(a, b)
    # whether degree 0 belongs is an open classification question; the
    # set reports nonzero degrees only and this marker says so
    out = {"set": s.to_json(), "zeroDegreeUnresolved": True}
    return 0, out, lambda: f"{s.render()} (degree 0 unresolved)"


def _cmd_dfp(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import bundles

    dom = _decoded(args, payload, "domainGroup", abelian.FgAbelianGroup.from_json)
    tgt = _decoded(args, payload, "targetGroup", abelian.FgAbelianGroup.from_json)
    a = _decoded(args, payload, "a", partial(abelian.GroupElement.from_json, dom))
    b = _decoded(args, payload, "b", partial(abelian.GroupElement.from_json, tgt))
    cat = _decoded(args, payload, "catalogue", bundles.MapCatalogue.from_json)
    res = bundles.fiber_preserving_degree_set(cat, a, b)
    return 0, res.to_json(), lambda: "{} ({})".format(
        res.degree_set.render(),
        "exact: catalogue declared complete" if res.exact
        else "lower approximation: catalogue incomplete")


def _cmd_pair(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import bundles

    base = (_decoded(args, payload, "preset", _base_from) if payload.get("preset")
            else _base_from("knot-glue-3"))
    res = bundles.same_base_pair_degree_set(
        int(payload["m"]), int(payload["k"]), base,
        payload.get("classLabel") or "b")
    return 0, res.to_json(), lambda: "{}{} [{}]".format(
        res.degree_set.render(), "" if res.exact else " (upper bound)", res.rule)


def _cmd_bound(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import bundles

    n = bundles.degree_bound(
        bundles.parse_volume(payload["domainVolume"], "domainVolume"),
        bundles.parse_volume(payload["targetVolume"], "targetVolume"))
    return 0, {"bound": n}, lambda: f"|deg| <= {n}"


def _cmd_finite(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import bundles

    registry = bundles.registry_from_env()
    expr = partial(bundles.expr_from_json, registry=registry)
    dom = _decoded(args, payload, "domain", expr)
    tgt = _decoded(args, payload, "target", expr)
    verdict = bundles.finiteness_verdict(
        dom, tgt,
        bool(payload.get("dBaseFinite", False)),
        bool(payload.get("pullbackClassSetFinite", False)),
    )
    return 0, {"verdict": verdict}, lambda: verdict


def _cmd_realize(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import realize

    base = None
    if payload.get("preset"):
        base = _decoded(args, payload, "preset", _base_from)
    cert = realize.build_construction(
        payload["set"],
        int(payload.get("dim", 4)),
        base=base,
        class_label=payload.get("classLabel") or "b",
        limits=degsets.SearchLimits.from_json(payload),
    )
    return 0, cert.to_json(), lambda: realize.render_certificate(cert)


def _cmd_verify(payload: dict, args) -> tuple[int, dict, Callable[[], str]]:
    from . import realize

    cert = realize.RealizationCertificate.from_json(payload)
    report = realize.verify_certificate(cert)
    return (0 if report.valid else 3), report.to_json(), report.render


def _cmd_stabilize(payload: None, args) -> tuple[int, dict, Callable[[], str]]:
    from . import realize

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
    return 0, up.to_json(), lambda: realize.render_certificate(up)


def _cmd_selftest(payload: None, args) -> tuple[int, dict, Callable[[], str]]:
    from . import realize

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
    out = {"passed": passed, "batteries": results}
    return (0 if passed else 3), out, lambda: "\n".join(
        [("ok  " if r["ok"] else "FAIL") + " " + r["name"] for r in results]
        + ["all batteries passed" if passed else "selftest failed"])


# ---------------------------------------------------------------------------
# parser: one table declares every subcommand and its flags; its rows are
# plain slotted classes, as a NamedTuple class costs a cold start ~0.3 ms.
# A valid request is read straight from the table, so a cold start does not
# import argparse, nor the gettext and locale that argparse pulls in (~4 ms
# together).  Help, usage errors and any argv the table leaves aside go to
# argparse's parser of all 14 subcommands, so their text is argparse's alone.


class _Flag:
    """A flag that takes a value.  Its key is its argparse dest and, for a
    payload flag, its payload key.  An ``int`` is converted with ``int()``
    as argv is parsed, so a malformed one is a usage error; a ``list`` is a
    comma-separated list of integers, parsed with the payload, so a
    malformed one is bad input.  A payload flag that builds the payload
    ``alone`` leaves the JSON document unread."""

    __slots__ = ("name", "key", "metavar", "help", "type", "alone")

    def __init__(self, name: str, key: str, metavar: str, help: str,
                 type: type = str, alone: bool = False) -> None:
        self.name, self.key, self.metavar, self.help = name, key, metavar, help
        self.type, self.alone = type, alone


_IN = _Flag("--in", "infile", "FILE", "JSON payload file, - for stdin (default: stdin)")
_OUT = _Flag("--out", "outfile", "FILE", "write the result here instead of stdout")
_FORMATS = ("json", "text")  # the choices of --format


class _Command:
    """A subcommand: its handler, the schema of its payload (``None`` for
    one it reads itself or has none of), its help text and its payload
    flags.  Its ``options`` are those flags, ``--in`` unless it reads no
    JSON document at all, and ``--out``."""

    __slots__ = ("name", "fn", "schema", "help", "flags", "options")

    def __init__(self, name: str, fn: Callable, schema: str | None, help: str,
                 flags: tuple[_Flag, ...] = (), reads: bool = True) -> None:
        self.name, self.fn, self.schema, self.help = name, fn, schema, help
        self.flags = flags
        self.options = (*flags, _IN, _OUT) if reads else (*flags, _OUT)


_SET = _Flag("--set", "set", "A", "comma-separated members, must include 0", list, True)
_CLASS = _Flag("--class", "classLabel", "LABEL", "distinguished class (default: b)")
_CAPS = (
    _Flag("--max-len", "maxLen", "N", "longest sequence the search may try", int),
    _Flag("--max-entry", "maxEntry", "N", "largest entry magnitude the search may try", int),
    _Flag("--budget", "budget", "N", "total candidate budget for the search", int),
)

_COMMANDS = (
    _Command("snf", _cmd_snf, "snfInput", "Smith normal form of an integer matrix"),
    _Command("group", _cmd_group, "groupInput", "invariant factors of a presented group"),
    _Command("solve-k", _cmd_solve_k, "solveInput", "solve k*a = c in an abelian group"),
    _Command("sums", _cmd_sums, "sumsInput", "subsequence-sum set of a sequence", (
        _Flag("--seq", "sequence", "B", "comma-separated nonzero entries", list, True),)),
    _Command("decompose", _cmd_decompose, "decomposeInput",
             "write a finite set as an intersection of sum sets", (_SET, *_CAPS)),
    _Command("dv", _cmd_dv, "dvInput", "vertical-map degree set"),
    _Command("dfp", _cmd_dfp, "dfpInput", "fiber-preserving degree set from a catalogue"),
    _Command("pair", _cmd_pair, "pairInput", "degree set between bundles m*b and k*b", (
        _Flag("-m", "m", "M", "domain Euler multiplier", int, True),
        _Flag("-k", "k", "K", "target Euler multiplier", int, True),
        _Flag("--preset", "preset", "NAME", "base preset (default: knot-glue-3)"),
        _CLASS)),
    _Command("bound", _cmd_bound, "boundInput", "simplicial-volume degree bound", (
        _Flag("--domain-volume", "domainVolume", "Q", "rational, e.g. 10 or 7/2", str, True),
        _Flag("--target-volume", "targetVolume", "Q", "rational, positive", str, True))),
    _Command("finite", _cmd_finite, "finiteInput", "finiteness verdict for a bundle pair"),
    _Command("realize", _cmd_realize, "realizeInput", "build a realization certificate", (
        _SET,
        _Flag("--dim", "dim", "N", "ambient dimension (default: 4)", int),
        _Flag("--preset", "preset", "NAME", "base preset (default chosen by dimension)"),
        _CLASS, *_CAPS)),
    _Command("verify", _cmd_verify, "realizationCertificate",
             "re-derive a certificate's claims"),
    _Command("stabilize", _cmd_stabilize, None, "carry a certificate up in dimension", (
        _Flag("--dim", "dim", "N", "target dimension", int),)),
    _Command("selftest", _cmd_selftest, None, "quick end-to-end battery", reads=False),
)


_BY_NAME = {spec.name: spec for spec in _COMMANDS}


def _is_value(word: str) -> bool:
    """Whether argparse takes ``word`` as the value of the flag before it:
    a word not starting with ``-``, a lone ``-``, or a negative number by
    argparse's pattern, compiled only for a word that is not ``-`` and
    digits."""
    return (not word.startswith("-") or word == "-" or word[1:].isdecimal()
            or re.match(r"^-\d+$|^-\d*\.\d+$", word) is not None)


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` makes of a valid request,
    read from the table without argparse: a subcommand, then its options
    and ``--format``, each as ``--flag=value``, ``--flag value`` or
    ``-m value``, a separate value only where argparse takes one; a joined
    ``--flag=--`` is the value ``--``, as in argparse from Python 3.13
    (earlier ones store ``[]``).  ``None`` for any other argv (help, a
    usage error or a form this reader leaves to argparse)."""
    spec = _BY_NAME.get(argv[0]) if argv else None
    if spec is None:
        return None
    options = {flag.name: flag for flag in spec.options}
    got = dict.fromkeys(flag.key for flag in spec.options)
    got.update(command=spec.name, spec=spec, format="json")
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=") if word.startswith("--") else (word, "", "")
        flag = options.get(name)
        if flag is None and name != "--format":
            return None
        if not eq:
            value = next(words, None)
            if value is None or not _is_value(value):
                return None
        if flag is None:  # --format
            if value not in _FORMATS:
                return None
            got["format"] = value
        elif flag.type is not int:
            got[flag.key] = value
        else:
            try:
                got[flag.key] = int(value)
            except ValueError:
                return None
    return SimpleNamespace(**got)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  ``main`` builds it only for what
    the command table leaves to it: help, a usage error, or a form such
    as an abbreviated flag."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit 1, as bad input; argparse's own 2 is the code
        of a resource cap hit."""

        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="circledeg",
        description="Exact degree-set arithmetic for oriented circle bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in _COMMANDS:
        p = sub.add_parser(spec.name, help=spec.help)
        for flag in spec.options:
            p.add_argument(flag.name, dest=flag.key, metavar=flag.metavar, help=flag.help,
                           type=int if flag.type is int else None)
        p.add_argument("--format", choices=_FORMATS, default="json",
                       help="output rendering (default: json)")
        p.set_defaults(spec=spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _table_args(argv) or build_parser().parse_args(argv)
    try:
        payload = _read_payload(args) if args.spec.schema else None
        code, obj, render = args.spec.fn(payload, args)
        rendered = render() if args.format == "text" else json.dumps(
            obj, indent=2, sort_keys=True)
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
    except ValueError as exc:
        # an integer of the output or of a detail past Python's int-to-str limit
        if not str(exc).startswith("Exceeds the limit"):
            raise
        print(f"resource cap: an integer to print has more than "
              f"{sys.get_int_max_str_digits()} decimal digits", file=sys.stderr)
        return 2

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
