"""The one rule that reads a config dataclass from JSON: a config is a
JSON object whose keys are fields of its class; a field with a builder
is built by it, an int field takes integral(value), and any other value
goes to the class as given, whose __post_init__ checks it. A float field
(float, Optional[float] or tuple[float, ...]) holds no bool, NaN or
infinity, neither as given nor as built, and as built it holds a real
number (None only where Optional).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

_FLOAT_TYPES = ("float", "Optional[float]", "tuple[float, ...]")


def integral(value) -> int:
    """An integral config number (3 or 3.0) as an int; ValueError otherwise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) or \
            isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def finite(value):
    """value; ValueError if it, or an entry of a list or tuple, is a bool or not finite."""
    for v in value if isinstance(value, (list, tuple)) else (value,):
        if isinstance(v, bool) or isinstance(v, numbers.Real) and not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {v!r}")
    return value


def real(value):
    """value; ValueError unless it, or each entry of a tuple, is a finite
    real number and not a bool."""
    for v in value if isinstance(value, tuple) else (value,):
        if not isinstance(v, numbers.Real):
            raise ValueError(f"expected a number, got {v!r}")
    return finite(value)


def json_object(cfg, error: type[Exception], where: str, keys=None) -> dict:
    """A copy of cfg, which must be a JSON object with no key outside keys
    (when given); else error naming where."""
    if not isinstance(cfg, dict):
        raise error(f"{where} must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys)) if keys is not None else []
    if unknown:
        raise error(f"unknown keys in {where!r}: {unknown}")
    return dict(cfg)


def from_config(cls, cfg, error: type[Exception], where: str, builders=None):
    """cls read from cfg by the rule above; builders maps a field name to
    its builder. A non-object, an unknown key, or a value that its builder
    rejects with TypeError or ValueError, or a float field that finite
    rejects as given or real as built, raises error naming where.key; a
    TypeError or ValueError from cls itself raises error naming where."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = json_object(cfg, error, where, types)
    builders = {**{name: integral for name, t in types.items() if t in ("int", int)},
                **(builders or {})}
    floats = [name for name in cfg if types[name] in _FLOAT_TYPES]
    for name in cfg:
        try:
            if name in floats:              # before float() or the class reads it
                finite(cfg[name])
            if name in builders:
                kwargs[name] = builders[name](cfg[name])
        except (TypeError, ValueError) as e:
            raise error(f"bad value for {where}.{name}: {e}") from None
    try:
        built = cls(**kwargs)
    except (TypeError, ValueError) as e:    # a wrong JSON type or out of range
        raise error(f"bad value in {where!r}: {e}") from None
    for name in floats:
        value = getattr(built, name)
        if value is None and types[name] == "Optional[float]":
            continue
        try:
            real(value)                     # "abc" left as given, or "nan" read by float()
        except ValueError as e:
            raise error(f"bad value for {where}.{name}: {e}") from None
    return built
