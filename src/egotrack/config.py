"""JSON run configuration: defaults, validation, canonical form, and hashing.

The typed config dataclasses are the schema.  Every default is read from a
dataclass field, and every leaf of the canonical form is converted by its
field's annotation, so neither is written down twice.  Three facts are not
carried by the dataclasses: ``scenario.duration`` has no default and must be
given, ``mode`` and ``randomization`` are top-level keys although they are
fields of ``ScenarioConfig``, and ``task`` is null unless given.  Unknown
keys are rejected by full path so typos fail loudly instead of silently
using a default.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import typing

import numpy as np

from .errors import ConfigError
from .estimator import FilterConfig
from .perturbation import RandomizationConfig
from .sim import MODES, ScenarioConfig
from .tasklogic import CriteriaConfig, RewardConfig, TaskGeometry

_type_hints = functools.cache(typing.get_type_hints)
_default_instance = functools.cache(lambda cls: cls())


def _as_json(value):
    """Dataclass instance -> nested dict with tuples and arrays as float lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return [float(v) for v in value]
    return value


def _defaults() -> dict:
    scenario = _as_json(ScenarioConfig())
    del scenario["randomization"]  # a top-level key
    scenario["duration"] = None  # required
    return {
        "mode": scenario.pop("mode"),  # a top-level key
        "scenario": scenario,
        "filter": _as_json(FilterConfig()),
        "criteria": _as_json(CriteriaConfig()),
        "reward": _as_json(RewardConfig()),
        "randomization": _as_json(RandomizationConfig()),
        # null disables per-tick reward/terminal evaluation.
        "task": None,
    }


DEFAULTS: dict = _defaults()
_TASK_DEFAULTS: dict = _as_json(TaskGeometry())


def _merge(defaults, override, path: str) -> dict:
    """Deep merge with unknown-key rejection; scalar leaves replace defaults."""
    if not isinstance(override, dict):
        raise ConfigError(f"config key {path!r} must be an object")
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        full = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {full!r}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, full)
        else:
            out[key] = value
    return out


def canonical_config(user: dict) -> dict:
    """Fully-defaulted configuration with every key present."""
    if not isinstance(user, dict):
        raise ConfigError("top-level config must be a JSON object")
    merged = _merge(DEFAULTS, user, "")
    if merged["task"] is not None:
        merged["task"] = _merge(_TASK_DEFAULTS, merged["task"], "task")
    if merged["scenario"]["duration"] is None:
        raise ConfigError("missing required config key 'scenario.duration'")
    return merged


def config_hash(canonical: dict) -> str:
    """Stable content hash of the canonical form."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _number(kind: type, value, path: str):
    """A finite int or float leaf; booleans, NaN, infinities and fractional ints fail.

    -0.0 becomes 0.0: numpy's samplers reject a scale whose sign bit is set.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"config key {path!r} must be a number, got {value!r}")
    if isinstance(value, numbers.Integral):
        # An int no float can hold overflows wherever it meets float math.
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"config key {path!r} is out of range") from None
        return kind(value)
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config key {path!r} must be finite, got {value!r}")
    if kind is int and not value.is_integer():
        raise ConfigError(f"config key {path!r} must be an integer, got {value!r}")
    return kind(value + 0.0)


def _leaf(kind: type, value, path: str, default):
    """Convert one canonical value to its field's annotated type.

    A vector must have as many entries as its field's default.
    """
    if dataclasses.is_dataclass(kind):
        return _build(kind, value, path)
    if kind in (int, float):
        return _number(kind, value, path)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} must be a string, got {value!r}")
        return value
    # tuple and ndarray fields are vectors of floats
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {path!r} must be a list of numbers, got {value!r}")
    if len(value) != len(default):
        raise ConfigError(
            f"config key {path!r} must have {len(default)} entries, got {len(value)}"
        )
    return tuple(_number(float, v, f"{path}[{i}]") for i, v in enumerate(value))


def _build(cls: type, values: dict, path: str, **fixed):
    """Instantiate ``cls`` from its section at ``path``.

    This is the one place a dataclass's ``ValueError`` becomes a
    ``ConfigError``: the message starts with the field's name, so the
    section's path completes the key.
    """
    hints, default = _type_hints(cls), _default_instance(cls)
    kwargs = {
        key: _leaf(hints[key], value, f"{path}.{key}", getattr(default, key))
        for key, value in values.items()
    }
    try:
        return cls(**kwargs, **fixed)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    except (TypeError, OverflowError) as exc:  # no field name to complete
        raise ConfigError(f"{path}: {exc}") from exc


def build_configs(canonical: dict):
    """Instantiate the typed configuration objects from the canonical dict.

    Returns (ScenarioConfig, FilterConfig, CriteriaConfig, RewardConfig,
    TaskGeometry | None).
    """
    # ``mode`` is a top-level key: checked here, the line names ``mode``,
    # where ScenarioConfig's own check would name ``scenario.mode``.
    mode = canonical["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    # Deploy mode draws nothing, yet its randomization section is checked
    # too, since every value is written to summary.json.
    randomization = _build(RandomizationConfig, canonical["randomization"], "randomization")
    scenario = _build(
        ScenarioConfig,
        canonical["scenario"],
        "scenario",
        mode=mode,
        randomization=randomization if mode == "training" else None,
    )
    task = None if canonical["task"] is None else _build(TaskGeometry, canonical["task"], "task")
    return (
        scenario,
        _build(FilterConfig, canonical["filter"], "filter"),
        _build(CriteriaConfig, canonical["criteria"], "criteria"),
        _build(RewardConfig, canonical["reward"], "reward"),
        task,
    )
