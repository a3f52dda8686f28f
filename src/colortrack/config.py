"""Flat key = value scenario configuration files.

Lines are `key = value`; blank lines and `#` comments are ignored.
CLI flags override file values. The keys are the fields of `Scenario`,
with each nested dataclass flattened to one key per field; unknown keys
are rejected to catch typos. A value is parsed by the type of the field's
default, and a tuple default is parsed as an `r,g,b` colour.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .harness import Scenario

# Key prefix of each nested dataclass field; ObjectMotion.kind is `motion`.
_PREFIXES = {"intrinsics": "", "pan_model": "pan_", "tilt_model": "tilt_",
             "spec": "", "motion": "motion_"}


def _key_table() -> dict:
    """Config key -> (nested Scenario field or None, field name, default)."""
    default = Scenario()
    table = {}
    for f in fields(Scenario):
        value = getattr(default, f.name)
        if f.name not in _PREFIXES:
            table[f.name] = (None, f.name, value)
            continue
        for sub in fields(value):
            key = _PREFIXES[f.name] + sub.name
            table["motion" if key == "motion_kind" else key] = (
                f.name, sub.name, getattr(value, sub.name))
    return table


KEYS = _key_table()


def parse_config(path) -> dict:
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def parse_color(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected 'r,g,b', got {text!r}")
    return tuple(int(p) for p in parts)


def scenario_from_config(values: dict) -> Scenario:
    """Build a Scenario from string key/value pairs, validating keys."""
    top, nested = {}, {}
    for key, text in values.items():
        if key not in KEYS:
            raise ValueError(f"unknown config key: {key!r}")
        outer, name, default = KEYS[key]
        try:
            value = (parse_color(text) if isinstance(default, tuple)
                     else type(default)(text))
        except ValueError as e:
            raise ValueError(f"config key {key!r}: {e}") from None
        if outer is None:
            top[name] = value
        else:
            nested.setdefault(outer, {})[name] = value
    default = Scenario()
    for outer, changes in nested.items():
        top[outer] = replace(getattr(default, outer), **changes)
    return replace(default, **top)
