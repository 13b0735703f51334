"""One (de)serializer and type check for the config dataclasses.

Configs arrive as JSON-shaped dicts (a config file, a manifest, each read
by read_json) or are built in Python. Either way validate() checks every
field against its annotation before the class's own range checks: an int
field takes an integer but not a bool, a float field takes an int or float
that converts to a finite float but not a bool, bool and str fields take
only their own type, a list field takes a list whose elements are checked
the same way, and a nested config section takes its config class. Values
are kept as given, so an int in a float field stays an int and serializes
back unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

from .errors import ConfigError, InputError

_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)


class DictConfig:
    """Mixin for config dataclasses that define _check_ranges()."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        cfg = _decode(cls, d, "")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError unless every field, nested sections included,
        has its annotated type and passes its class's range checks."""
        _check(type(self), self, "")


def read_json(path: str, what: str):
    """The JSON document at path; InputError if it cannot be read or parsed.

    what names the file in the messages, e.g. "config file".
    """
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except OSError as e:  # a directory, or unreadable
        raise InputError(f"cannot read {what} {path}: {e}") from None
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{what} {path} is not valid JSON: {e}") from None


def _decode(tp, value, key: str):
    """Build the nested config sections of a dict; leave other values as given."""
    if not (isinstance(tp, type) and issubclass(tp, DictConfig)):
        return value
    name = key or "config"
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    unknown = set(value) - {f.name for f in dataclasses.fields(tp)}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    hints = _type_hints(tp)
    prefix = f"{key}." if key else ""
    return tp(**{k: _decode(hints[k], v, prefix + k) for k, v in value.items()})


def _check(tp, value, key: str) -> None:
    if isinstance(tp, type) and issubclass(tp, DictConfig):
        if not isinstance(value, tp):
            raise ConfigError(f"{key or 'config'} must be an object, got {value!r}")
        hints = _type_hints(tp)
        prefix = f"{key}." if key else ""
        for f in dataclasses.fields(tp):
            _check(hints[f.name], getattr(value, f.name), prefix + f.name)
        value._check_ranges()
        return
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        (item,) = typing.get_args(tp)
        for i, v in enumerate(value):
            _check(item, v, f"{key}[{i}]")
        return
    if tp is float:
        try:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int past the float range
            ok = False
    else:
        ok = isinstance(value, tp)
    if not ok or isinstance(value, bool) and tp is not bool:
        raise ConfigError(f"{key} must be {_NAMES[tp]}, got {value!r}")
