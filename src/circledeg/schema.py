"""Named JSON schemas for every interchange format the package speaks.

The shapes live in one versioned document shipped as package data; each
public name is a definition in it.  ``validate_payload`` is the only
shape check: the ``from_json`` converters take a payload valid under
their definition and check only mathematical conditions.  The command
line and the preset-file loader run every input through it once before
any arithmetic, so a malformed payload fails with a pointer to the
offending field instead of a stack trace from deep inside the math;
library callers holding unvalidated JSON call it first in the same way.

Plain Python checks compiled from the document on first use decide
whether a payload is valid.  They know exactly the part of Draft 2020-12
the document uses, with jsonschema's meaning: every subschema has a
``type``, ``$ref``, ``const``, ``enum`` or ``oneOf``; an object is a
``"type": "object"`` whose ``additionalProperties`` is ``false`` or a
subschema; an array is a ``"type": "array"`` with ``items``; and a type
list names only scalar types.  Compiling refuses anything else, any other
keyword and any ``$ref`` outside the document, so an edit to the schema
cannot silently weaken validation.  The checks use what the document
proves to spend about one call per container: an object tests a value
of exactly ``int`` or ``str`` against a leaf subschema (a string, or an
integer with at most bounds) in its own loop, an array of such values is
tested by one scan and its least and greatest member, and a ``oneOf``
whose branches are closed objects each requiring a key, its tag, that no
other branch lists tests a dict against the branch of its tag alone.

A rejection is worded by one walk over the payload that lists the errors
jsonschema's validator would, with its messages, and picks jsonschema's
best match, which names the offending field.  The walk descends only
into the subtrees the compiled checks reject.  The wording is
jsonschema's but for ``maxItems``, which names the array's length and
the maximum where jsonschema echoes the whole array, megabytes of it for
a long array of large items; jsonschema itself is not needed at run
time.  A payload nested more than ``MAX_NESTING`` containers deep is
refused, so neither the checks nor the walk can exhaust the
interpreter's stack.  The compiled checks are passed each value's depth
and stop at a container past the bound; as every object is closed and
every array has ``items``, they descend into every container of a
payload they accept, so an accepted payload is within the bound without
a walk of its own.  A rejected one is walked for its depth before its
errors are listed.

>>> validate_payload("pairInput", {"m": 2, "k": 6})
>>> validate_payload("pairInput", {"m": 0, "k": 6})
Traceback (most recent call last):
...
circledeg.errors.InputError: invalid pairInput at $.m: 0 should not be valid under {'const': 0}
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import Callable

from ._frozen import Frozen
from .errors import InputError

__all__ = ["SCHEMA_VERSION", "schema_names", "schema_for", "validate_payload"]

SCHEMA_VERSION = 1

# Certificates from ``realize`` nest 10 containers deep and every
# ``stabilize`` adds 2; the walk that words a rejection still does so at
# ~280 levels.
MAX_NESTING = 100

_DOCUMENT = "circledeg-v1.schema.json"

# a check takes a value and its depth, the number of containers around it
_Check = Callable[[object, int], bool]


@lru_cache(maxsize=1)
def _document() -> dict:
    text = resources.files("circledeg.schemas").joinpath(_DOCUMENT).read_text("utf-8")
    return json.loads(text)


def schema_names() -> list[str]:
    return sorted(_document()["$defs"])


@lru_cache(maxsize=None)
def schema_for(name: str) -> dict:
    """Self-contained schema for one named definition."""
    doc = _document()
    if name not in doc["$defs"]:
        raise KeyError(f"no schema named {name!r}")
    return {
        "$schema": doc["$schema"],
        "$ref": f"#/$defs/{name}",
        "$defs": doc["$defs"],
    }


# ---------------------------------------------------------------------------
# compiled checks


class _TooDeep(Exception):
    """Raised by a compiled check that reaches a container nested more
    than ``MAX_NESTING`` deep."""


def _is_integer(v: object, d: int) -> bool:
    if type(v) is int:
        return True
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


def _is_number(v: object, d: int) -> bool:
    if type(v) is int or type(v) is float:
        return True
    import numbers  # a Fraction or a Decimal; json makes neither
    return not isinstance(v, bool) and isinstance(v, numbers.Number)


# the scalar types a type list may name; an object or an array is a
# ``"type"`` string of its own, compiled with its keywords
_TYPES: dict[str, _Check] = {
    "string": lambda v, d: isinstance(v, str),
    "boolean": lambda v, d: isinstance(v, bool),
    "null": lambda v, d: v is None,
    "number": _is_number,
    "integer": _is_integer,
}

_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items", "$ref",
    "const", "enum", "not", "oneOf", "minimum", "maximum", "minItems", "maxItems",
    "minLength",
})


def _same(v: object, c: object) -> bool:
    """jsonschema's ``const``/``enum`` equality with a scalar ``c``: a bool
    equals only itself, and ``0 == 0.0``."""
    if v is c:
        return True
    if isinstance(v, str) or isinstance(c, str):
        return v == c
    if isinstance(v, bool) or isinstance(c, bool):
        return False
    return v == c


def _scalar(value: object) -> object:
    if value is not None and not isinstance(value, (str, int, float)):
        raise ValueError(f"cannot compile a const or enum value {value!r}")
    return value


def _all(checks: list[_Check]) -> _Check:
    """Accepts what every check accepts; an empty list accepts anything."""
    if len(checks) == 1:
        return checks[0]

    def check(v, d):
        for c in checks:
            if not c(v, d):
                return False
        return True
    return check


# a subschema as a container check reads it: the exact type and the bounds
# of a leaf, ``(None, None, None)`` for any other subschema, and its check
_Item = tuple[type | None, object, object, _Check]


def _leaf(schema: dict) -> tuple[type | None, object, object]:
    """``(type, minimum, maximum)`` of a leaf subschema, ``{"type":
    "string"}`` or ``{"type": "integer"}`` with only ``minimum`` and
    ``maximum``: a value of exactly that type passes it when within the
    bounds, without a call.  ``(None, None, None)`` for any other."""
    if schema == {"type": "string"}:
        return str, None, None
    if schema.get("type") == "integer" and schema.keys() <= {"type", "minimum", "maximum"}:
        return int, schema.get("minimum", -float("inf")), schema.get("maximum", float("inf"))
    return None, None, None


def _object_check(props: dict[str, _Item], required: tuple,
                  extra: _Item | None) -> _Check:
    """``"type": "object"`` with its ``properties``, ``required`` and
    ``additionalProperties``, ``None`` for ``false``.  A value of a leaf
    property is checked in the loop when it is exactly of its type."""
    def check(v, d):
        if not isinstance(v, dict):
            return False
        if d >= MAX_NESTING:
            raise _TooDeep
        for key in required:
            if key not in v:
                return False
        d += 1
        for key, item in v.items():
            prop = props.get(key, extra)
            if prop is None:
                return False
            kind, low, high, sub = prop
            if type(item) is kind:
                if kind is int and (item < low or item > high):
                    return False
            elif not sub(item, d):
                return False
        return True
    return check


def _array_check(items: _Item, min_items: int, max_items: float) -> _Check:
    """``"type": "array"`` with its ``items``, ``minItems`` and ``maxItems``.
    When ``items`` is a leaf, a list all of whose members are exactly of its
    type is checked by one scan and its least and greatest member."""
    kind, low, high, sub = items
    kinds = {kind}

    def check(v, d):
        if not isinstance(v, list):
            return False
        if d >= MAX_NESTING:
            raise _TooDeep
        if not min_items <= len(v) <= max_items:
            return False
        if not v:
            return True
        if kind is not None and kinds.issuperset(map(type, v)):
            return kind is str or not (min(v) < low or max(v) > high)
        d += 1
        for item in v:
            if not sub(item, d):
                return False
        return True
    return check


def _one_of(branches: list[dict], subs: list[_Check]) -> _Check:
    """``oneOf`` over ``branches``, compiled to ``subs``.  When every branch
    is a closed ``"type": "object"`` requiring a key, its tag, that no other
    branch lists in its ``properties``, a dict is checked by the branch of
    its first key that is a tag: every other branch rejects it, as none
    allows that key, and a value that is not a dict or has no tag fails
    every branch.  Any other ``oneOf`` counts the branches that match."""
    tags: dict[str, _Check] = {}
    for i, (branch, sub) in enumerate(zip(branches, subs)):
        listed = {key for j, other in enumerate(branches) if j != i
                  for key in other.get("properties", {})}
        own = [key for key in branch.get("required", ()) if key not in listed]
        if not (own and branch.get("type") == "object"
                and branch.get("additionalProperties") is False):
            break
        tags.update(dict.fromkeys(own, sub))
    else:
        def by_tag(v, d):
            if isinstance(v, dict):
                for key in v:
                    if key in tags:
                        return tags[key](v, d)
            return False
        return by_tag

    def counting(v, d):
        matched = False
        for sub in subs:
            if sub(v, d):
                if matched:
                    return False
                matched = True
        return matched
    return counting


def _compile(defs: dict) -> Callable[[str], _Check]:
    """Look-up of the check for a definition of a ``$defs`` table, compiled
    on its first request, that returns the verdict jsonschema's Draft
    2020-12 validator gives, called with a value and its depth.  It raises
    ``_TooDeep`` at a container nested more than ``MAX_NESTING`` deep, and
    every container of a value it accepts is one it descended into.
    Compiling raises ``ValueError`` on a keyword or reference it does not
    know, and on a subschema outside the closed, typed part of the draft
    that the module docstring describes.  The look-up's ``checks`` maps
    ``id(subschema)`` to the check of every subschema compiled so far;
    the look-up holds ``defs``, so no id in it can be reused."""
    table: dict[str, _Check] = {}
    by_id: dict[int, _Check] = {}
    pending: set[str] = set()

    def definition(name: str) -> _Check:
        if name not in table:
            if name in pending:  # a cycle: look the check up when it runs
                return lambda v, d: table[name](v, d)
            pending.add(name)
            try:
                table[name] = node(defs[name])
            finally:
                pending.discard(name)
        return table[name]

    def ref(target: str) -> _Check:
        name = target.removeprefix("#/$defs/")
        if name == target or "/" in name or "~" in name or name not in defs:
            raise ValueError(f"cannot compile $ref {target!r}: only #/$defs/<name>")
        return definition(name)

    def node(schema: object) -> _Check:
        if not isinstance(schema, dict):
            raise ValueError(f"cannot compile subschema {schema!r}")
        unknown = schema.keys() - _KEYWORDS
        if unknown:
            raise ValueError(f"cannot compile keyword(s) {', '.join(sorted(unknown))}")
        if not schema.keys() & {"type", "$ref", "const", "enum", "oneOf"}:
            raise ValueError(f"cannot compile untyped subschema {schema!r}")
        checks: list[_Check] = []
        types = schema.get("type")
        if types == "object":
            extra = schema.get("additionalProperties", True)
            if extra is True:
                raise ValueError("cannot compile an object open to other keys")
            checks.append(_object_check(
                {key: item(sub) for key, sub in schema.get("properties", {}).items()},
                tuple(schema.get("required", ())),
                None if extra is False else item(extra)))
        elif types == "array":
            if "items" not in schema:
                raise ValueError("cannot compile an array without items")
            checks.append(_array_check(
                item(schema["items"]),
                schema.get("minItems", 0), schema.get("maxItems", float("inf"))))
        elif types is not None:
            names = types if isinstance(types, list) else [types]
            if not names or any(n not in _TYPES for n in names):
                raise ValueError(f"cannot compile type {types!r}")
            preds = [_TYPES[n] for n in names]
            checks.append(preds[0] if len(preds) == 1
                          else lambda v, d: any(p(v, d) for p in preds))
        if types != "object" and schema.keys() & {
                "properties", "required", "additionalProperties"}:
            raise ValueError('cannot compile object keywords without "type": "object"')
        if types != "array" and schema.keys() & {"items", "minItems", "maxItems"}:
            raise ValueError('cannot compile array keywords without "type": "array"')
        if "$ref" in schema:
            checks.append(ref(schema["$ref"]))
        if "const" in schema:
            const = _scalar(schema["const"])
            checks.append(lambda v, d: _same(v, const))
        if "enum" in schema:
            values = tuple(_scalar(e) for e in schema["enum"])
            checks.append(lambda v, d: any(_same(v, e) for e in values))
        if "not" in schema:
            negated = node(schema["not"])
            checks.append(lambda v, d: not negated(v, d))
        if "oneOf" in schema:
            branches = schema["oneOf"]
            checks.append(_one_of(branches, [node(sub) for sub in branches]))
        if "minimum" in schema:
            low = schema["minimum"]
            checks.append(lambda v, d: not _is_number(v, d) or not v < low)
        if "maximum" in schema:
            high = schema["maximum"]
            checks.append(lambda v, d: not _is_number(v, d) or not v > high)
        if "minLength" in schema:
            shortest = schema["minLength"]
            checks.append(lambda v, d: not isinstance(v, str) or len(v) >= shortest)
        compiled = _all(checks)
        by_id[id(schema)] = compiled
        return compiled

    def item(schema: object) -> _Item:
        check = node(schema)
        return (*_leaf(schema), check)

    definition.checks = by_id
    return definition


@lru_cache(maxsize=1)
def _shipped() -> Callable[[str], _Check]:
    return _compile(_document()["$defs"])


def _nested_deeper_than(obj: object, limit: int) -> bool:
    """Whether containers nest more than ``limit`` deep in ``obj``,
    walked level by level rather than by recursion."""
    layer = [obj] if isinstance(obj, (dict, list)) else []
    for _ in range(limit):
        if not layer:
            return False
        below: list = []
        for node in layer:
            below += node.values() if isinstance(node, dict) else node
        layer = [item for item in below if isinstance(item, (dict, list))]
    return bool(layer)


class _Error(Frozen):
    """A rejection as jsonschema reports it: the path from the value the
    walk started at, the message, the failing keyword, the subschema that
    holds it, the value it failed on and, for ``oneOf``, the errors of
    every branch."""
    __slots__ = ("path", "message", "keyword", "schema", "value", "context")


# the type of value each keyword applies to; it passes any other
_APPLIES_TO = {
    "properties": "object", "required": "object", "additionalProperties": "object",
    "items": "array", "minItems": "array", "maxItems": "array",
    "minLength": "string", "minimum": "number", "maximum": "number",
}


def _has_type(v: object, types: str | list) -> bool:
    """Whether ``v`` is of a ``type`` string or of a type in a list."""
    return any(isinstance(v, dict) if t == "object" else isinstance(v, list)
               if t == "array" else _TYPES[t](v, 0)
               for t in ([types] if isinstance(types, str) else types))


def _errors(schema: dict, v: object, path: tuple) -> list[_Error]:
    """The errors jsonschema's Draft 2020-12 validator gives ``v`` under a
    shipped ``schema``, in its order and with its messages but for
    ``maxItems``, which names the array's length and the maximum where
    jsonschema echoes the whole array.  It descends only into the children
    whose compiled check rejects them, as an accepted child has no errors.
    Called once the payload is known to nest within the bound, so a check
    at depth 0 never raises ``_TooDeep``."""
    checks = _shipped().checks
    found: list[_Error] = []

    def fail(keyword: str, message: str, context: list = ()) -> None:
        found.append(_Error(path, message, keyword, schema, v, context))

    def descend(sub: dict, key: object) -> None:
        if not checks[id(sub)](v[key], 0):
            found.extend(_errors(sub, v[key], path + (key,)))
    for keyword, arg in schema.items():
        if keyword in _APPLIES_TO and not _has_type(v, _APPLIES_TO[keyword]):
            continue
        if keyword == "$ref":
            found += _errors(_document()["$defs"][arg.removeprefix("#/$defs/")], v, path)
        elif keyword == "type" and not _has_type(v, arg):
            names = [arg] if isinstance(arg, str) else arg
            fail(keyword, f"{v!r} is not of type {', '.join(map(repr, names))}")
        elif keyword == "const" and not _same(v, arg):
            fail(keyword, f"{arg!r} was expected")
        elif keyword == "enum" and not any(_same(v, e) for e in arg):
            fail(keyword, f"{v!r} is not one of {arg!r}")
        elif keyword == "not" and checks[id(arg)](v, 0):
            fail(keyword, f"{v!r} should not be valid under {arg!r}")
        elif keyword == "oneOf":
            valid = [sub for sub in arg if checks[id(sub)](v, 0)]
            if not valid:
                fail(keyword, f"{v!r} is not valid under any of the given schemas",
                     [e for sub in arg for e in _errors(sub, v, ())])
            elif len(valid) > 1:
                fail(keyword, f"{v!r} is valid under each of "
                              f"{', '.join(map(repr, valid[1:] + valid[:1]))}")
        elif keyword == "properties":
            for key, sub in arg.items():
                if key in v:
                    descend(sub, key)
        elif keyword == "required":
            for key in arg:
                if key not in v:
                    fail(keyword, f"{key!r} is a required property")
        elif keyword == "additionalProperties":
            extras = [key for key in v if key not in schema.get("properties", {})]
            if arg is not False:
                for key in extras:
                    descend(arg, key)
            elif extras:
                fail(keyword, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, sorted(extras, key=str))),
                    "was" if len(extras) == 1 else "were"))
        elif keyword == "items":
            for index in range(len(v)):
                descend(arg, index)
        elif keyword in ("minItems", "minLength") and len(v) < arg:
            fail(keyword, f"{v!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword == "maxItems" and len(v) > arg:
            fail(keyword, f"array of {len(v)} items is longer than the maximum of {arg}")
        elif keyword == "minimum" and v < arg:
            fail(keyword, f"{v!r} is less than the minimum of {arg!r}")
        elif keyword == "maximum" and v > arg:
            fail(keyword, f"{v!r} is greater than the maximum of {arg!r}")
    return found


def _relevance(error: _Error) -> tuple:
    """jsonschema's ``relevance``: a shallower error first, then the later
    of two siblings, then one not from ``oneOf``, then one whose subschema
    does not name the value's type."""
    typed = "type" in error.schema and _has_type(error.value, error.schema["type"])
    return -len(error.path), error.path, error.keyword != "oneOf", not typed


def _best_match(errors: list[_Error]) -> _Error:
    """jsonschema's ``best_match`` among ``errors``, a non-empty list, with
    the path from the payload: the most relevant error, then down a
    ``oneOf``'s context to its least relevant error until two tie."""
    best = max(errors, key=_relevance)
    path = best.path
    while best.context:
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            break
        best = least[0]
        path += best.path
    return best._replace(path=path)


def _json_path(path: tuple) -> str:
    """jsonschema's ``json_path``: ``.key`` for a key like an identifier,
    ``['key']`` with ``\\`` and ``'`` escaped for any other, ``[i]`` for an
    index."""
    return "$" + "".join(
        f"[{key}]" if isinstance(key, int) else "." + key
        if re.match("^[a-zA-Z][a-zA-Z0-9_]*$", key)
        else "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']" for key in path)


def validate_payload(name: str, obj: object) -> None:
    """Raise :class:`InputError` naming the failing field when ``obj``
    does not match the schema ``name``."""
    schema_for(name)  # an unknown name raises KeyError
    try:
        if _shipped()(name)(obj, 0):
            return
    except _TooDeep:
        pass
    if _nested_deeper_than(obj, MAX_NESTING):
        raise InputError(
            f"invalid {name} at payload: nested more than {MAX_NESTING} levels deep")
    best = _best_match(_errors(_document()["$defs"][name], obj, ()))
    where = _json_path(best.path) if best.path else "payload"
    raise InputError(f"invalid {name} at {where}: {best.message}")
