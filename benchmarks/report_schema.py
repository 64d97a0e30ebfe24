"""Validate report documents against ``src/oppbak/report.schema.json``.

A small draft-07 subset, enough for that schema: ``$ref`` to local
definitions, ``oneOf``, ``type``, ``enum``, numeric bounds, ``required``,
``properties``, ``additionalProperties``, tuple-form ``items`` and item
counts. A keyword outside the subset raises, so a schema change cannot
silently weaken the check.
"""

from __future__ import annotations

from typing import Any

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}


class SchemaError(ValueError):
    """The schema uses a keyword this validator does not implement."""


def errors(document: Any, schema: dict[str, Any]) -> list[str]:
    """Every violation of `schema` by `document`, as 'path: message' lines."""
    out: list[str] = []
    _check(document, schema, schema, "$", out)
    return out


def _resolve(ref: str, root: dict[str, Any]) -> dict[str, Any]:
    if not ref.startswith("#/"):
        raise SchemaError(f"only local $ref is supported, got {ref!r}")
    node: Any = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _check(value: Any, schema: dict[str, Any], root: dict[str, Any], path: str,
           out: list[str]) -> None:
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref":
            _check(value, _resolve(rule, root), root, path, out)
        elif key == "oneOf":
            matches = 0
            for option in rule:
                trial: list[str] = []
                _check(value, option, root, path, trial)
                matches += not trial
            if matches != 1:
                out.append(f"{path}: matches {matches} of the oneOf schemas, not exactly 1")
        elif key == "type":
            if not _TYPES[rule](value):
                out.append(f"{path}: expected {rule}, got {type(value).__name__}")
                return
        elif key == "enum":
            if value not in rule:
                out.append(f"{path}: {value!r} not in {rule}")
        elif key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
            if _TYPES["number"](value) and not _in_bound(key, value, rule):
                out.append(f"{path}: {value} violates {key} {rule}")
        elif key == "required":
            if isinstance(value, dict):
                out.extend(f"{path}: missing {name!r}" for name in rule if name not in value)
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        _check(value[name], sub, root, f"{path}.{name}", out)
        elif key == "additionalProperties":
            if isinstance(value, dict):
                known = schema.get("properties", {})
                for name, item in value.items():
                    if name in known:
                        continue
                    if rule is False:
                        out.append(f"{path}: unexpected key {name!r}")
                    elif isinstance(rule, dict):
                        _check(item, rule, root, f"{path}.{name}", out)
        elif key == "items":
            if isinstance(value, list):
                subs = rule if isinstance(rule, list) else [rule] * len(value)
                for i, (item, sub) in enumerate(zip(value, subs)):
                    _check(item, sub, root, f"{path}[{i}]", out)
        elif key == "minItems":
            if isinstance(value, list) and len(value) < rule:
                out.append(f"{path}: {len(value)} items, fewer than {rule}")
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > rule:
                out.append(f"{path}: {len(value)} items, more than {rule}")
        else:
            raise SchemaError(f"unsupported schema keyword {key!r} at {path}")


def _in_bound(key: str, value: float, bound: float) -> bool:
    if key == "minimum":
        return value >= bound
    if key == "maximum":
        return value <= bound
    if key == "exclusiveMinimum":
        return value > bound
    return value < bound
