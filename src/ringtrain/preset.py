"""The JSON files ringtrain reads: the presets shipped inside the package and
the training config, each loaded into its dataclass under one type rule.

Nothing here imports numpy, so the launcher reads its config and starts its
workers before any numerical code is loaded.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .profiles import FLOAT_BYTES, ComputeProfile, NetProfile, ThermalPreset
from .transport.frame import MAX_PAYLOAD_BYTES

# Each aggregation strategy: the collective it runs and whether it packs all
# gradient chunks into one buffer (one invocation per step) or runs one
# invocation per chunk. The executor and the cost model both read this table.
AGGREGATIONS = {
    "ring_packed": ("ring", True),
    "tree_packed": ("tree", True),
    "ring_chunkwise": ("ring", False),
}

LR_SCALINGS = ("none", "linear")

# Each collective invocation takes one block of 2(MAX_WORKERS - 1) = 4096 message
# tags, one per ring step; a larger ring would spill into the next block's tags.
MAX_WORKERS = 2049


def check_workers(k: int, name: str = "workers") -> None:
    """The one cluster-size rule, for a config, a simulated cluster and every priced K."""
    if not 1 <= k <= MAX_WORKERS:
        raise ValueError(f"{name} must be >= 1 and at most {MAX_WORKERS}, got {k}")


def preset_path(name_or_path: str | Path) -> Path:
    """The file ``name_or_path`` if it exists, else the bundled preset of that name."""
    name = str(name_or_path)
    if Path(name).exists():
        return Path(name)
    filename = name if name.endswith(".json") else f"{name}.json"
    return Path(str(resources.files("ringtrain").joinpath("presets").joinpath(filename)))


# the annotations are strings (postponed evaluation); each class's are resolved once
_field_types = functools.cache(get_type_hints)


def read_json(path: str | Path):
    """The parsed JSON file at ``path``; an unreadable path is a ValueError naming it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return json.loads(text)


def json_fits(value, hint) -> bool:
    """Whether the parsed JSON ``value`` has the annotated type ``hint``: an int is
    a float if its float value is finite, a bool is neither, and a tuple is an array
    of its length. The one type rule for config files and TCP control frames alike."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is float:   # not isinstance: a bool is an int; no NaN, inf or int past a float
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
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
    return from_json_object(NetProfile, read_json(preset_path(name_or_path)))


def load_compute(name_or_path: str | Path = "compute_s10") -> ComputeProfile:
    return from_json_object(ComputeProfile, read_json(preset_path(name_or_path)))


def load_thermal(name_or_path: str | Path = "thermal_s10") -> ThermalPreset:
    return from_json_object(ThermalPreset, read_json(preset_path(name_or_path)))


@dataclass
class TrainingConfig:
    global_batch: int
    per_device_batch: int
    workers: int
    base_lr: float = 0.01
    weight_decay: float = 0.0002
    iterations: int = 100
    seed: int = 0
    aggregation: str = "ring_packed"
    lr_scaling: str = "none"
    model_dims: list[int] = field(default_factory=lambda: [2, 16, 2])
    dataset_size: int = 512
    dataset_classes: int = 2
    dataset_spread: float = 0.6

    def __post_init__(self):
        self.validate()

    def validate(self) -> "TrainingConfig":
        check_workers(self.workers)
        if self.global_batch != self.per_device_batch * self.workers:
            raise ValueError(
                f"global_batch {self.global_batch} != per_device_batch "
                f"{self.per_device_batch} * workers {self.workers}")
        if self.per_device_batch < 1:
            raise ValueError("per_device_batch must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {tuple(AGGREGATIONS)}")
        if self.lr_scaling not in LR_SCALINGS:
            raise ValueError(f"lr_scaling must be one of {LR_SCALINGS}")
        if self.dataset_size < self.global_batch:
            raise ValueError("dataset must hold at least one global batch")
        if len(self.model_dims) < 2:
            raise ValueError("model_dims needs an input and an output dim")
        if min(self.model_dims) < 1:
            raise ValueError("every model_dims entry must be >= 1")
        # a packed tree sends the whole flat gradient as one frame
        grad_bytes = FLOAT_BYTES * sum(a * b for a, b in zip(self.model_dims, self.model_dims[1:]))
        if grad_bytes > MAX_PAYLOAD_BYTES:
            raise ValueError(f"model_dims {self.model_dims} give a {grad_bytes}-byte gradient, "
                             f"over the {MAX_PAYLOAD_BYTES}-byte frame payload bound")
        if self.dataset_classes < 2:
            raise ValueError("dataset_classes must be >= 2")
        if self.dataset_spread < 0:
            raise ValueError("dataset_spread must be >= 0")
        if min(self.base_lr, self.weight_decay) < 0:   # a negative step ascends the loss
            raise ValueError("base_lr and weight_decay must be >= 0")
        if self.model_dims[-1] != self.dataset_classes:
            raise ValueError("model output dim must equal dataset class count")
        return self

    @classmethod
    def from_json(cls, path: str | Path) -> "TrainingConfig":
        return from_json_object(cls, read_json(path))
