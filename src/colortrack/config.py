"""Flat key = value scenario configuration files.

The file is UTF-8 text; one byte-order mark at its start is dropped. Lines
are `key = value`; blank lines and `#` comments are ignored. CLI flags
override file values. The keys are the fields of `Scenario`, with each
nested dataclass flattened to one key per field; unknown keys are rejected
to catch typos. A value is parsed by the type of the field's default, and a
tuple default is parsed as an `r,g,b` colour. Once every value is parsed
and each nested dataclass is built, the values are checked against
`harness.SCENARIO_RULES`.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .harness import SCENARIO_RULES, Scenario

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
    with open(path, "rb") as f:
        data = f.read().removeprefix(b"\xef\xbb\xbf")
    # bytes.splitlines breaks at \n, \r and \r\n, as text mode reads lines
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text (byte "
                             f"{raw[e.start]:#04x} at offset {e.start})"
                             ) from None
        line = text.split("#", 1)[0].strip()
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
    rgb = tuple(int(p) for p in parts)
    if not all(0 <= c <= 255 for c in rgb):
        raise ValueError(f"color channels must be in 0..255, got {text!r}")
    return rgb


def scenario_from_config(values: dict,
                         base: Scenario = Scenario()) -> Scenario:
    """Override base with string key/value pairs, validating keys."""
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
    # A nested value is built, and checks itself, before any rule reads it,
    # as it is when a Scenario is built; each error names the keys given
    # for the fields it concerns.
    for outer, changes in nested.items():
        try:
            top[outer] = replace(getattr(base, outer), **changes)
        except ValueError as e:
            raise ValueError(f"config key {_keys_of(values, (outer,))}: {e}"
                             ) from None
    for names, ok, error in SCENARIO_RULES:
        if not ok(*(top.get(name, getattr(base, name)) for name in names)):
            raise ValueError(f"config key {_keys_of(values, names)}: {error}")
    return replace(base, **top)


def _keys_of(values: dict, names) -> str:
    """The keys in values that set the Scenario fields names, quoted."""
    return ", ".join(repr(k) for k in values if (KEYS[k][0] or k) in names)
