"""Model, device-compute and thermal profiles.

A model profile describes the communication-relevant footprint of a network
without carrying its weights: total gradient size in MB (1 MB = 2^20 bytes),
the number of gradient chunks transferred during aggregation, and the largest
per-device mini-batch the reference device memory allows. The compute profile
prices a device's work on a model; the thermal model throttles it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MB = 2 ** 20
FLOAT_BYTES = 4

# name -> (size_mb, num_chunks, batch_per_device)
_REGISTRY: dict[str, tuple[float, int, int]] = {
    "AlexNet": (232.56, 16, 32),
    "GoogleNet": (26.70, 116, 16),
    "Inception-v3": (91.05, 556, 4),
    "Mobilenet-v1": (16.23, 164, 8),
    "Mobilenet-v2": (13.51, 320, 8),
    "ResNet-50": (97.70, 321, 4),
    "ResNet-101": (170.34, 626, 2),
    "ResNet-152": (230.20, 932, 2),
    # The reference table spells these with the extra 'e'; both spellings resolve.
    "SequeezeNet-v1.0": (4.76, 52, 16),
    "SequeezeNet-v1.1": (4.71, 52, 32),
}

_ALIASES = {
    "SqueezeNet-v1.0": "SequeezeNet-v1.0",
    "SqueezeNet-v1.1": "SequeezeNet-v1.1",
}

PROFILE_NAMES: tuple[str, ...] = tuple(_REGISTRY)


@dataclass(frozen=True)
class ModelProfile:
    """Communication footprint of one evaluation network.

    ``chunk_elems`` holds the per-chunk float32 element counts; their sum times
    four bytes reproduces ``size_mb`` to within one element of rounding.
    """

    name: str
    size_mb: float
    batch_per_device: int
    chunk_elems: tuple[int, ...] = field(repr=False)

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_elems)

    @property
    def total_elems(self) -> int:
        return sum(self.chunk_elems)

    @property
    def total_bytes(self) -> int:
        return self.total_elems * FLOAT_BYTES


def split_elements(total: int, chunks: int) -> tuple[int, ...]:
    """Split ``total`` elements into ``chunks`` near-equal parts.

    The remainder is spread one element at a time over the lowest-indexed
    chunks, so the split is deterministic and reproducible.
    """
    if chunks < 1:
        raise ValueError(f"chunk count must be >= 1, got {chunks}")
    base, rem = divmod(total, chunks)
    return tuple(base + 1 if i < rem else base for i in range(chunks))


def build_profile(name: str) -> ModelProfile:
    """Construct a registered profile by name (canonical aliases accepted)."""
    key = _ALIASES.get(name, name)
    try:
        size_mb, num_chunks, batch = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY) + sorted(_ALIASES))
        raise KeyError(f"unknown model profile {name!r}; known names: {known}") from None
    total = round(size_mb * MB / FLOAT_BYTES)
    return ModelProfile(name=key, size_mb=size_mb, batch_per_device=batch,
                        chunk_elems=split_elements(total, num_chunks))


def all_profiles() -> list[ModelProfile]:
    """All registered profiles, in registry order."""
    return [build_profile(name) for name in PROFILE_NAMES]


@dataclass
class ComputeProfile:
    """Device compute model: t_comp = batch * work_per_sample / throughput.

    ``work_per_sample`` is measured in gradient-element equivalents. When a
    model is absent from the table the gradient element count itself is used
    as the work proxy. The shipped preset carries per-model values calibrated
    so the bundled experiments land on their reference operating points (a raw
    element count is a poor stand-in for per-sample compute cost; see README).

    The remaining fields are device-side costs of the aggregation pipeline:
    the memory bandwidth used by gradient pack/unpack copies, the fixed
    overhead of one collective invocation, and the segment size the library
    baseline uses to pipeline large messages.
    """

    throughput: float
    work_per_sample: dict[str, float] = field(default_factory=dict)
    pack_bandwidth: float = 1.9e8
    invocation_overhead: float = 0.0
    tree_segment_bytes: int = 65536

    def __post_init__(self):
        if self.throughput <= 0 or self.pack_bandwidth <= 0:
            raise ValueError("throughput and pack_bandwidth must be positive")
        if self.invocation_overhead < 0 or self.tree_segment_bytes < 1:
            raise ValueError("invocation_overhead >= 0 and tree_segment_bytes >= 1")

    def work_for(self, profile: ModelProfile) -> float:
        return float(self.work_per_sample.get(profile.name, profile.total_elems))

    def compute_time(self, profile: ModelProfile, batch: int) -> float:
        """Seconds of computation for one iteration at the given batch."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return batch * self.work_for(profile) / self.throughput


@dataclass
class ThermalModel:
    """Step-function thermal throttling driven by a scalar temperature state.

    Computation heats the device at ``heat_rate`` degrees per second; idle
    time cools it at ``cool_rate`` degrees per second, never below ambient.
    ``tiers`` lists (threshold, multiplier) pairs with strictly increasing
    thresholds and non-decreasing multipliers >= 1; compute time is scaled by
    the multiplier of the highest tier whose threshold the temperature has
    reached.
    """

    ambient: float
    heat_rate: float
    cool_rate: float
    tiers: list[tuple[float, float]] = field(default_factory=list)
    temp: float | None = None

    def __post_init__(self):
        if self.temp is None:
            self.temp = self.ambient
        if self.temp < self.ambient:
            raise ValueError("temperature cannot start below ambient")
        if self.heat_rate < 0 or self.cool_rate < 0:
            raise ValueError("heat_rate and cool_rate must be >= 0")
        self.tiers = [tuple(t) for t in self.tiers]
        prev_thresh, prev_mult = -float("inf"), 1.0
        for thresh, mult in self.tiers:
            if thresh <= prev_thresh:
                raise ValueError("tier thresholds must be strictly increasing")
            if mult < prev_mult:
                raise ValueError("tier multipliers must be non-decreasing and >= 1")
            prev_thresh, prev_mult = thresh, mult

    def multiplier(self) -> float:
        mult = 1.0
        for thresh, m in self.tiers:
            if self.temp >= thresh:
                mult = m
        return mult

    def heat(self, compute_seconds: float) -> None:
        self.temp += self.heat_rate * compute_seconds

    def cool(self, idle_seconds: float) -> None:
        self.temp = max(self.ambient, self.temp - self.cool_rate * idle_seconds)
