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
whether a payload is valid.  They know exactly the keywords the document
uses, with jsonschema's Draft 2020-12 meaning, and compiling refuses any
other keyword and any ``$ref`` outside the document, so an edit to the
schema cannot silently weaken validation.  jsonschema is imported only
to word a rejection: its best match names the offending field.  Its
``properties`` and ``items`` keywords are guided by the compiled checks:
a child that the check for its subschema accepts yields no error, so
jsonschema walks only the subtrees the compiled checks reject, and the
errors, their order and the best match stay what a plain validator
gives.  A payload nested more than ``MAX_NESTING`` containers deep is
refused before either runs, so neither can exhaust the interpreter's
stack.

>>> validate_payload("pairInput", {"m": 2, "k": 6})
>>> validate_payload("pairInput", {"m": 0, "k": 6})
Traceback (most recent call last):
...
circledeg.errors.InputError: invalid pairInput at $.m: 0 should not be valid under {'const': 0}
"""

from __future__ import annotations

import json
import numbers
from functools import lru_cache
from importlib import resources
from typing import Callable

from .errors import InputError

__all__ = ["SCHEMA_VERSION", "schema_names", "schema_for", "validate_payload"]

SCHEMA_VERSION = 1

# Certificates from ``realize`` nest 10 containers deep and every
# ``stabilize`` adds 2; jsonschema still words a rejection at ~200 levels.
MAX_NESTING = 100

_DOCUMENT = "circledeg-v1.schema.json"

_Check = Callable[[object], bool]


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


def _is_integer(v: object) -> bool:
    if type(v) is int:
        return True
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


def _is_number(v: object) -> bool:
    if type(v) is int or type(v) is float:
        return True
    return not isinstance(v, bool) and isinstance(v, numbers.Number)


_TYPES: dict[str, _Check] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
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

    def check(v):
        for c in checks:
            if not c(v):
                return False
        return True
    return check


def _object_check(props: dict[str, _Check], required: tuple, extra: bool | _Check,
                  strict: bool) -> _Check:
    """``properties``, ``required`` and ``additionalProperties``; with
    ``strict`` also ``"type": "object"``."""
    def check(v):
        if not isinstance(v, dict):
            return not strict
        for key in required:
            if key not in v:
                return False
        for key, item in v.items():
            sub = props.get(key)
            if sub is not None:
                if not sub(item):
                    return False
            elif extra is False or (extra is not True and not extra(item)):
                return False
        return True
    return check


def _array_check(items: _Check | None, min_items: int, max_items: float,
                 strict: bool) -> _Check:
    """``items``, ``minItems`` and ``maxItems``; with ``strict`` also
    ``"type": "array"``."""
    def check(v):
        if not isinstance(v, list):
            return not strict
        if not min_items <= len(v) <= max_items:
            return False
        return items is None or all(map(items, v))
    return check


def _one_of(subs: list[_Check]) -> _Check:
    def check(v):
        matched = False
        for sub in subs:
            if sub(v):
                if matched:
                    return False
                matched = True
        return matched
    return check


def _compile(defs: dict) -> Callable[[str], _Check]:
    """Look-up of the check for a definition of a ``$defs`` table, compiled
    on its first request, that returns the verdict jsonschema's Draft
    2020-12 validator gives.  Compiling raises ``ValueError`` on a keyword
    or reference it does not know.  The look-up's ``checks`` maps
    ``id(subschema)`` to the check of every subschema compiled so far;
    the look-up holds ``defs``, so no id in it can be reused."""
    table: dict[str, _Check] = {}
    by_id: dict[int, _Check] = {}
    pending: set[str] = set()

    def definition(name: str) -> _Check:
        if name not in table:
            if name in pending:  # a cycle: look the check up when it runs
                return lambda v: table[name](v)
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
        checks: list[_Check] = []
        types = schema.get("type")
        if types is not None:
            names = types if isinstance(types, list) else [types]
            if not names or any(n not in _TYPES for n in names):
                raise ValueError(f"cannot compile type {types!r}")
            if types not in ("object", "array"):
                preds = [_TYPES[n] for n in names]
                checks.append(preds[0] if len(preds) == 1
                              else lambda v: any(p(v) for p in preds))
        if types == "object" or schema.keys() & {
                "properties", "required", "additionalProperties"}:
            extra = schema.get("additionalProperties", True)
            checks.append(_object_check(
                {key: node(sub) for key, sub in schema.get("properties", {}).items()},
                tuple(schema.get("required", ())),
                extra if isinstance(extra, bool) else node(extra),
                strict=types == "object"))
        if types == "array" or schema.keys() & {"items", "minItems", "maxItems"}:
            checks.append(_array_check(
                node(schema["items"]) if "items" in schema else None,
                schema.get("minItems", 0), schema.get("maxItems", float("inf")),
                strict=types == "array"))
        if "$ref" in schema:
            checks.append(ref(schema["$ref"]))
        if "const" in schema:
            const = _scalar(schema["const"])
            checks.append(lambda v: _same(v, const))
        if "enum" in schema:
            values = tuple(_scalar(e) for e in schema["enum"])
            checks.append(lambda v: any(_same(v, e) for e in values))
        if "not" in schema:
            negated = node(schema["not"])
            checks.append(lambda v: not negated(v))
        if "oneOf" in schema:
            checks.append(_one_of([node(sub) for sub in schema["oneOf"]]))
        if "minimum" in schema:
            low = schema["minimum"]
            checks.append(lambda v: not _is_number(v) or not v < low)
        if "maximum" in schema:
            high = schema["maximum"]
            checks.append(lambda v: not _is_number(v) or not v > high)
        if "minLength" in schema:
            shortest = schema["minLength"]
            checks.append(lambda v: not isinstance(v, str) or len(v) >= shortest)
        compiled = by_id[id(schema)] = _all(checks)
        return compiled

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


@lru_cache(maxsize=1)
def _guided():
    """Draft 2020-12 with ``properties`` and ``items`` descending only into
    the children their compiled subschema check rejects; the arguments
    passed to ``descend`` are those of jsonschema's own keywords.  The
    ``items`` here assumes what compiling enforces: no ``prefixItems``,
    and a subschema rather than a boolean."""
    from jsonschema.validators import Draft202012Validator, extend

    def accepts(instance, subschema) -> bool:
        check = _shipped().checks.get(id(subschema))
        return check is not None and check(instance)

    def properties(validator, properties, instance, schema):
        if not validator.is_type(instance, "object"):
            return
        for name, subschema in properties.items():
            if name in instance and not accepts(instance[name], subschema):
                yield from validator.descend(
                    instance[name], subschema, path=name, schema_path=name)

    def items(validator, items, instance, schema):
        if not validator.is_type(instance, "array"):
            return
        for index, item in enumerate(instance):
            if not accepts(item, items):
                yield from validator.descend(instance=item, schema=items, path=index)

    return extend(Draft202012Validator, {"properties": properties, "items": items})


@lru_cache(maxsize=None)
def _validator(name: str):
    return _guided()(schema_for(name))


def validate_payload(name: str, obj: object) -> None:
    """Raise :class:`InputError` naming the failing field when ``obj``
    does not match the schema ``name``."""
    schema_for(name)  # an unknown name raises KeyError
    if _nested_deeper_than(obj, MAX_NESTING):
        raise InputError(
            f"invalid {name} at payload: nested more than {MAX_NESTING} levels deep")
    if _shipped()(name)(obj):
        return
    from jsonschema.exceptions import best_match

    best = best_match(_validator(name).iter_errors(obj))
    if best is None:
        return
    where = best.json_path if best.json_path != "$" else "payload"
    raise InputError(f"invalid {name} at {where}: {best.message}")
