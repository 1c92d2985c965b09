"""Minimal JSON-schema validation for the documents this package emits.

Supports the subset the shipped schemas use: type (single or list),
properties/required/additionalProperties, items, enum, minimum/maximum and
minItems. Schemas live in the packaged ``schemas/`` directory.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .errors import SchemaError

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def load_schema(name: str) -> dict:
    ref = resources.files("riskforge").joinpath("schemas", f"{name}.schema.json")
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SchemaError(f"no shipped schema named {name!r}") from exc


# ``validate`` reads each schema once per process and never changes it.
_shipped_schema = functools.cache(load_schema)


def _type_ok(value, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    py = _TYPES.get(expected)
    if py is None:
        raise SchemaError(f"schema uses unsupported type {expected!r}")
    return isinstance(value, py)


def _where(path) -> str:
    """The ``$.a[3]`` text of a location: ``"$"``, or ``(parent, form, key)``
    with ``form`` the format that appends ``key`` to the parent's text."""
    if isinstance(path, str):
        return path
    parent, form, key = path
    return form.format(_where(parent), key)


def _check(value, schema: dict, path, errors: list[str]) -> None:
    """Append a message per violation to ``errors``; ``path`` (see
    ``_where``) is turned into text only for a message."""
    expected = schema.get("type")
    if expected is not None:
        if isinstance(expected, list):
            ok = any(_type_ok(value, t) for t in expected)
        else:
            ok = _type_ok(value, expected)
        if not ok:
            allowed = expected if isinstance(expected, list) else [expected]
            errors.append(f"{_where(path)}: expected {allowed}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{_where(path)}: {value!r} not in {schema['enum']}")
        return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{_where(path)}: {value} below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{_where(path)}: {value} above maximum {schema['maximum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{_where(path)}: missing required key {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                _check(sub, props[key], (path, "{}.{}", key), errors)
            elif extra is False:
                errors.append(f"{_where(path)}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _check(sub, extra, (path, "{}.{}", key), errors)
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{_where(path)}: fewer than {schema['minItems']} items")
        items = schema.get("items")
        if isinstance(items, dict):
            for i, sub in enumerate(value):
                _check(sub, items, (path, "{}[{}]", i), errors)


def validate(doc, schema_name: str) -> None:
    """Raise :class:`SchemaError` listing every violation, or return None."""
    schema = _shipped_schema(schema_name)
    errors: list[str] = []
    _check(doc, schema, "$", errors)
    if errors:
        raise SchemaError(
            f"document does not match schema {schema_name!r}: " + "; ".join(errors)
        )
