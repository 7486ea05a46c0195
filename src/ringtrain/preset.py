"""Access to the JSON presets shipped inside the package."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .profiles import ComputeProfile, ThermalModel
from .transport.net import NetProfile


def preset_path(name: str) -> Path:
    filename = name if name.endswith(".json") else f"{name}.json"
    path = resources.files("ringtrain").joinpath("presets").joinpath(filename)
    return Path(str(path))


def _resolve(name_or_path: str | Path) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    return preset_path(str(name_or_path))


def from_json_object(cls, data):
    """``cls(**data)`` for parsed JSON; a ValueError names the keys that do not fit ``cls``."""
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
    return cls(**data)


def load_net(name_or_path: str | Path) -> NetProfile:
    return from_json_object(NetProfile, json.loads(_resolve(name_or_path).read_text()))


def load_compute(name_or_path: str | Path = "compute_s10") -> ComputeProfile:
    return from_json_object(ComputeProfile, json.loads(_resolve(name_or_path).read_text()))


@dataclass(kw_only=True)
class ThermalPreset(ThermalModel):
    """A thermal preset file: the model's fields and the scenario's defaults."""

    baseline_t_comp_s: float
    idle_s: float
    fan_cool_multiplier: float


def load_thermal(name_or_path: str | Path = "thermal_s10") -> ThermalPreset:
    return from_json_object(ThermalPreset, json.loads(_resolve(name_or_path).read_text()))
