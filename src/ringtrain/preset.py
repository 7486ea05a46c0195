"""Access to the JSON presets shipped inside the package."""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .profiles import ComputeProfile, ThermalPreset
from .transport.net import NetProfile


def preset_path(name_or_path: str | Path) -> Path:
    """The file ``name_or_path`` if it exists, else the bundled preset of that name."""
    name = str(name_or_path)
    if Path(name).exists():
        return Path(name)
    filename = name if name.endswith(".json") else f"{name}.json"
    return Path(str(resources.files("ringtrain").joinpath("presets").joinpath(filename)))


# the annotations are strings (postponed evaluation); each class's are resolved once
_field_types = functools.cache(get_type_hints)


def json_fits(value, hint) -> bool:
    """Whether the parsed JSON ``value`` has the annotated type ``hint``: an int is
    a float but a bool is neither, and a tuple is an array of its length. The one
    type rule for config files and TCP control frames alike."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is float:
        return type(value) in (int, float)   # not isinstance: a bool is an int
    if hint in (int, str):
        return type(value) is hint
    if origin is list:
        return isinstance(value, list) and all(json_fits(v, args[0]) for v in value)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) \
            and all(map(json_fits, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(
            json_fits(k, args[0]) and json_fits(v, args[1]) for k, v in value.items())
    raise TypeError(f"no JSON rule for the type {hint}")


def from_json_object(cls, data):
    """``cls(**data)`` for parsed JSON; a ValueError names the keys that do not fit ``cls``,
    or the first value whose type is not its field's annotation."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} config is a JSON {type(data).__name__}, not an object")
    params = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(data.keys() - params.keys())
    missing = [name for name, f in params.items() if name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    problems = [f"{kind} keys {keys}" for kind, keys in
                (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError(f"{cls.__name__} config: {', '.join(problems)}")
    hints = _field_types(cls)
    for name, value in data.items():
        hint = hints[name]
        if not json_fits(value, hint):
            raise ValueError(f"{cls.__name__} config: {name} must be of type "
                             f"{hint.__name__ if isinstance(hint, type) else hint}, "
                             f"got {json.dumps(value)}")
    return cls(**data)


def load_net(name_or_path: str | Path) -> NetProfile:
    return from_json_object(NetProfile, json.loads(preset_path(name_or_path).read_text()))


def load_compute(name_or_path: str | Path = "compute_s10") -> ComputeProfile:
    return from_json_object(ComputeProfile, json.loads(preset_path(name_or_path).read_text()))


def load_thermal(name_or_path: str | Path = "thermal_s10") -> ThermalPreset:
    return from_json_object(ThermalPreset, json.loads(preset_path(name_or_path).read_text()))
