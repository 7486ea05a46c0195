"""Per-node compute-rate and thermal models for the cluster simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..profiles import ModelProfile


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
