"""One (de)serializer for the config dataclasses, typed at the boundary.

Configs arrive as JSON-shaped dicts (a config file, a manifest). Field
types come from the dataclass annotations: an int field takes an integer
but not a bool, a float field takes a finite int or float but not a bool,
bool and str fields take only their own type, a list field takes a list
whose elements are checked the same way, and a nested config section
takes an object. Values are kept as given, so an int in a float field
stays an int and serializes back unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from .errors import ConfigError

_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)


class DictConfig:
    """Mixin for config dataclasses that define validate()."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        return _decode(cls, d, "")


def _decode(tp, value, key: str):
    if isinstance(tp, type) and issubclass(tp, DictConfig):
        name = key or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        unknown = set(value) - {f.name for f in dataclasses.fields(tp)}
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        hints = _type_hints(tp)
        prefix = f"{key}." if key else ""
        cfg = tp(**{k: _decode(hints[k], v, prefix + k) for k, v in value.items()})
        cfg.validate()
        return cfg
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        (item,) = typing.get_args(tp)
        return [_decode(item, v, f"{key}[{i}]") for i, v in enumerate(value)]
    if tp is float:
        ok = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    else:
        ok = isinstance(value, tp)
    if not ok or isinstance(value, bool) and tp is not bool:
        raise ConfigError(f"{key} must be {_NAMES[tp]}, got {value!r}")
    return value
