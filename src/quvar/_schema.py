"""The part of JSON Schema that ozawa_config.schema.json uses, checked with a
ConfigError that names the dotted field. quvar.ozawa imports this module on
first use, so only commands that build a protocol config compile it."""

from __future__ import annotations

import json
import numbers
import operator
import sys
from importlib import resources
from typing import Optional

from .ozawa import ConfigError

_TYPES = {"object": (dict, "an object"), "null": (type(None), "null"),
          "number": (numbers.Real, "a number"), "integer": (numbers.Real, "an integer")}
_BOUNDS = (("minimum", ">=", operator.lt), ("exclusiveMinimum", ">", operator.le),
           ("maximum", "<=", operator.gt))

# The config schema shipped beside this module, read when quvar.ozawa first imports it.
SCHEMA = json.loads((resources.files(__package__) / "ozawa_config.schema.json").read_text())


def _error(value, schema: dict, label: str) -> Optional[ConfigError]:
    try:
        check(value, schema, label)
    except ConfigError as exc:
        return exc


def check(value, schema: dict, label: str = "") -> None:
    """Raise ConfigError naming the dotted field where value breaks the schema.
    Reads the keywords ozawa_config.schema.json uses and no others: type
    (object, number, integer, null), required, properties, additionalProperties:
    false, const, enum, minimum, exclusiveMinimum, maximum, oneOf, allOf, if/then.
    """
    where, kind = label or "config", schema.get("type")
    if kind:
        cls, what = _TYPES[kind]
        # JSON has one number type: 3.0 is an integer, as the schema reads it.
        if isinstance(value, bool) or not isinstance(value, cls) or kind == "integer" and value % 1:
            raise ConfigError(where, f"expected {what}, got {value!r}")
        if kind in ("number", "integer") and not isinstance(value, numbers.Integral):
            value = float(value)  # exact; a numpy float32 would meet the bounds below as inf
    # A number must fit a double. abs() <= max compares an int exactly, where math.isfinite
    # and float() raise OverflowError on a JSON integer beyond the float range (10**400).
    if kind == "number" and not abs(value) <= sys.float_info.max:
        raise ConfigError(where, f"must be finite, got {value}")
    # == is JSON equality only where a type keyword has ruled out true == 1.
    if "const" in schema and value != schema["const"]:
        raise ConfigError(where, f"must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(where, f"must be one of {' | '.join(schema['enum'])}, got {value!r}")
    # The bounds sit beside a number type, so value is a number here.
    for key, op, fails in _BOUNDS:
        if key in schema and fails(value, schema[key]):
            raise ConfigError(where, f"must be {op} {schema[key]}, got {value}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                raise ConfigError(f"{label}.{name}".lstrip("."), "missing required field")
        for name in value:
            if schema.get("additionalProperties") is False and name not in props:
                raise ConfigError(f"{label}.{name}".lstrip("."), "unknown field")
        for name, sub in props.items():
            if name in value:
                check(value[name], sub, f"{label}.{name}".lstrip("."))
    if "if" in schema and _error(value, schema["if"], label) is None:
        check(value, schema["then"], label)
    for sub in schema.get("allOf", ()):
        check(value, sub, label)
    if "oneOf" in schema:  # no match: the first alternative's complaint
        errors = [_error(value, sub, label) for sub in schema["oneOf"]]
        if errors.count(None) != 1:
            raise errors[0] if None not in errors else ConfigError(where, "fits two alternatives")
