"""Model, device-compute, thermal and network profiles.

A model profile describes the communication-relevant footprint of a network
without carrying its weights: total gradient size in MB (1 MB = 2^20 bytes),
the number of gradient chunks transferred during aggregation, and the largest
per-device mini-batch the reference device memory allows. The compute profile
prices a device's work on a model; the thermal preset throttles it; the net
profile describes the link the simulated transport prices messages on.
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

    ``chunk_elems`` holds the per-chunk float32 element counts, split by
    ``segment_size``; their sum times four bytes reproduces ``size_mb`` to
    within one element of rounding.
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


def segment_size(n: int, k: int, seg):
    """Elements in part ``seg`` (an int or an int array) of n elements split k ways.

    The one near-equal split: the ring's segments, a registry model's chunks
    and the cost model's priced messages. Part s gets ceil(n/k) elements when
    s < n mod k, floor(n/k) otherwise, so the remainder goes one element at a
    time to the lowest-indexed parts; zero-length parts are legal when n < k.
    No padding, so byte counts on the wire stay faithful.
    """
    base, rem = divmod(n, k)
    return base + (seg < rem)


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
                        chunk_elems=tuple(segment_size(total, num_chunks, c)
                                          for c in range(num_chunks)))


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
        if not all(work > 0 for work in self.work_per_sample.values()):
            raise ValueError("every work_per_sample value must be > 0")

    def work_for(self, profile: ModelProfile) -> float:
        return float(self.work_per_sample.get(profile.name, profile.total_elems))

    def compute_time(self, batch: int, work: float) -> float:
        """Seconds of computation for one iteration of ``batch`` samples of ``work`` each."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return batch * work / self.throughput

    def invocation_time(self, nbytes: int, packed: bool) -> float:
        """Device seconds one collective invocation adds to its messages, in the sim
        and the cost model alike: the fixed overhead, plus a pack and an unpack
        copy of the ``nbytes`` buffer when the strategy packs."""
        return self.invocation_overhead + (2 * nbytes / self.pack_bandwidth if packed else 0.0)


@dataclass
class ThermalPreset:
    """A thermal preset file: step-function throttling and its scenario's defaults.

    Computation heats the device at ``heat_rate`` degrees per second; idle
    time cools it at ``cool_rate`` degrees per second (``fan_cool_multiplier``
    times that with the fan on), never below ambient. ``tiers`` lists
    (threshold, multiplier) pairs with strictly increasing thresholds and
    non-decreasing multipliers >= 1; compute time is scaled by the multiplier
    of the highest tier whose threshold the temperature has reached. A scenario
    cycle computes for ``baseline_t_comp_s`` times that multiplier, then idles
    for ``idle_s``.
    """

    ambient: float
    heat_rate: float
    cool_rate: float
    tiers: list[tuple[float, float]]
    baseline_t_comp_s: float
    idle_s: float
    fan_cool_multiplier: float

    def __post_init__(self):
        if self.heat_rate < 0 or self.cool_rate < 0:
            raise ValueError("heat_rate and cool_rate must be >= 0")
        if not (self.baseline_t_comp_s > 0 and self.idle_s >= 0 and self.fan_cool_multiplier > 0):
            raise ValueError("thermal preset needs baseline_t_comp_s > 0, idle_s >= 0 "
                             "and fan_cool_multiplier > 0")
        self.tiers = [tuple(t) for t in self.tiers]
        prev_thresh, prev_mult = -float("inf"), 1.0
        for thresh, mult in self.tiers:
            if thresh <= prev_thresh:
                raise ValueError("tier thresholds must be strictly increasing")
            if mult < prev_mult:
                raise ValueError("tier multipliers must be non-decreasing and >= 1")
            prev_thresh, prev_mult = thresh, mult

    def multiplier(self, temp: float) -> float:
        """The compute-time multiplier at temperature ``temp``."""
        mult = 1.0
        for thresh, m in self.tiers:
            if temp >= thresh:
                mult = m
        return mult


@dataclass(frozen=True)
class NetProfile:
    """One shared medium: nominal point-to-point bandwidth, a per-message latency
    floor, a lognormal jitter width applied to the bandwidth term, a contention
    coefficient that divides effective bandwidth as more nodes share the medium,
    and a per-message disconnect probability."""

    base_bandwidth: float      # megabits per second
    latency: float             # seconds per message
    jitter_frac: float = 0.0   # std-dev fraction of the transfer time
    contention_coeff: float = 0.0
    disconnect_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base_bandwidth <= 0:
            raise ValueError("base_bandwidth must be positive")
        if not 0.0 <= self.disconnect_prob < 1.0:
            raise ValueError("disconnect_prob must be in [0, 1)")
        if self.jitter_frac < 0 or self.contention_coeff < 0 or self.latency < 0:
            raise ValueError("latency, jitter_frac and contention_coeff must be >= 0")

    def effective_bandwidth(self, k_active: int) -> float:
        """Shared-medium bandwidth in Mbps when ``k_active`` nodes are up."""
        return self.base_bandwidth / (1.0 + self.contention_coeff * max(0, k_active - 2))
