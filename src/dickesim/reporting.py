"""Config parsing and deterministic report rendering for the CLI.

Reports never embed wall-clock data; identical (config, seed) runs must be
byte-identical.
"""
from __future__ import annotations

import json
import math
import sys
from typing import Any, Callable, NamedTuple, Sequence


class ConfigError(ValueError):
    """Malformed or unknown configuration input (CLI exit code 2)."""


def parse_config_text(text: str) -> dict:
    """Parse a config file: JSON object, or key = value lines.

    In the key=value form, blank lines and '#' comments are skipped and
    '[section]' lines are grouping markers only; keys stay flat and unique.
    Values are parsed as JSON literals when possible, else kept as strings.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON config: {err}") from None
    params: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno} has an empty key")
        if key in params:
            raise ConfigError(f"duplicate config key {key!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


class Number(NamedTuple):
    """Parser for a finite JSON number in [lo, hi]: a float, or with `whole` an int."""

    lo: float = -math.inf
    hi: float = math.inf
    whole: bool = False

    def __call__(self, key: str, value: Any) -> float | int:
        # abs() <= float max also refuses NaN, infinities and ints too big for a float
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not (abs(value) <= sys.float_info.max and self.lo <= value <= self.hi)
                or (self.whole and value != int(value))):
            raise ConfigError(f"{key} must be a {'whole' if self.whole else 'finite'} number "
                              f"in [{self.lo:g}, {self.hi:g}], got {value!r}")
        return int(value) if self.whole else float(value)


class OneOf(NamedTuple):
    """Parser for a value out of a fixed set of strings."""

    options: tuple[str, ...]

    def __call__(self, key: str, value: Any) -> str:
        if value not in self.options:
            raise ConfigError(f"{key} must be one of {list(self.options)}, got {value!r}")
        return value


class ListOf(NamedTuple):
    """Parser for a JSON list of at most `most` items, each parsed with `item`."""

    item: Callable[[str, Any], Any]
    most: int

    def __call__(self, key: str, value: Any) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        if len(value) > self.most:
            raise ConfigError(f"{key} must list at most {self.most} entries, got {len(value)}")
        return [self.item(key, entry) for entry in value]


class Row(NamedTuple):
    """Parser for a JSON list of `required` to len(items) positional fields."""

    items: tuple[Callable[[str, Any], Any], ...]
    required: int

    def __call__(self, key: str, value: Any) -> list:
        if not isinstance(value, list) or not self.required <= len(value) <= len(self.items):
            raise ConfigError(f"{key}: each row needs {self.required} to {len(self.items)} "
                              f"fields, got {value!r}")
        return [parse(key, entry) for parse, entry in zip(self.items, value)]


def fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def complex_matrix_json(matrix) -> list:
    """Row-major nested lists of [real, imag] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def render_json(meta: dict, data: dict) -> str:
    return json.dumps({"meta": meta, **data}, indent=2, sort_keys=True) + "\n"


def render_csv(meta: dict, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [f"# {key}={fmt_value(value)}" for key, value in sorted(_flatten(meta).items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_value(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _flatten(meta: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value if not isinstance(value, list) else json.dumps(value)
    return flat
