"""Experiment drivers over the cluster simulator.

Each driver returns an :class:`ExperimentReport` whose rows serialize to CSV
with the fixed header ``experiment,mode,model,K,alg,t_comp_s,t_comm_s,
t_total_s,efficiency`` plus a JSON metadata sidecar. Drivers embed the sanity
assertions their study depends on and raise :class:`AssertionFailure` when one
does not hold, so a scripted run cannot silently produce a nonsensical table.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import AssertionFailure
from ..preset import AGGREGATIONS, check_workers
from ..profiles import (ComputeProfile, ModelProfile, NetProfile, ThermalPreset, all_profiles,
                        build_profile)
from .cost import aggregation_comm_time, collective_time

REPORT_HEADER = "experiment,mode,model,K,alg,t_comp_s,t_comm_s,t_total_s,efficiency"

# A thermal run writes one row per compute+idle cycle; a duration that could
# need more is refused rather than run for hours (the shipped preset's 600 s
# default needs 26 rows).
MAX_THERMAL_ROWS = 100_000

# Reference GPU-comparison constants shipped with the bundled profiles (peak
# cluster-vs-GPU speedups on the Mobilenet family); echoed into report
# metadata for context, never asserted by any experiment.
GPU_REFERENCE_SPEEDUPS = {
    "mobilenet_peak_vs_P100_pct": 3525.0,
    "mobilenet_peak_vs_V100_pct": 4298.0,
    "mobilenet_peak_vs_2080ti_pct": 2244.0,
}


@dataclass
class ReportRow:
    model: str
    k: int
    alg: str
    t_comp: float
    t_comm: float

    @property
    def t_total(self) -> float:
        return self.t_comp + self.t_comm

    @property
    def efficiency(self) -> float:
        total = self.t_total
        return 1.0 if total <= 0.0 else self.t_comp / total

    def csv_row(self) -> str:
        return (f"{self.model},{self.k},{self.alg},"
                f"{self.t_comp!r},{self.t_comm!r},{self.t_total!r},{self.efficiency!r}")


@dataclass
class ExperimentReport:
    experiment: str
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)

    def row(self, **match) -> ReportRow:
        """First row matching all given attribute values."""
        for r in self.rows:
            if all(getattr(r, k) == v for k, v in match.items()):
                return r
        raise KeyError(f"no row matching {match}")

    def to_csv(self) -> str:
        return "\n".join([REPORT_HEADER] + [f"{self.experiment},sim,{r.csv_row()}"
                                             for r in self.rows]) + "\n"

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.experiment}.csv"
        csv_path.write_text(self.to_csv())
        meta = dict(self.metadata)
        meta.setdefault("experiment", self.experiment)
        meta.setdefault("mode", "sim")
        meta.setdefault("code_version", __version__)
        meta["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        meta_path = out / f"{self.experiment}.meta.json"
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return csv_path, meta_path


def _meta(net: NetProfile | dict, compute: ComputeProfile | None, seed, **extra) -> dict:
    meta = {"seed": seed, "mb_definition": "1 MB = 2^20 bytes"}
    if isinstance(net, dict):
        meta["net_profiles"] = {k: vars(v).copy() for k, v in net.items()}
    elif net is not None:
        meta["net_profile"] = vars(net).copy()
    if compute is not None:
        meta["compute_profile"] = asdict(compute)
    meta.update(extra)
    return meta


def simulate_iteration(profile: ModelProfile, batch: int, compute: ComputeProfile,
                       k: int, net: NetProfile) -> tuple[float, float]:
    """One simulated iteration's (t_comp, t_comm): modeled compute + ring_packed."""
    return (compute.compute_time(profile, batch),
            aggregation_comm_time(profile, k, net, compute, "ring_packed"))


def run_scaling_experiment(model: str, batch: int, k_list: list[int],
                           net: NetProfile, compute: ComputeProfile) -> ExperimentReport:
    """Fixed global batch, growing worker count: compute shrinks, comm does not."""
    profile = build_profile(model)
    for k in k_list:
        check_workers(k, "k")
        if batch % k:
            raise ValueError(f"global batch {batch} not divisible by K={k}")
    rows = []
    for k in k_list:
        rows.append(ReportRow(profile.name, k, "ring_packed",
                              *simulate_iteration(profile, batch // k, compute, k, net)))

    by_k = {r.k: r for r in rows}
    for k in k_list:
        if 2 * k in by_k:
            halved, actual = by_k[k].t_comp / 2.0, by_k[2 * k].t_comp
            if abs(actual - halved) > 0.05 * halved:
                raise AssertionFailure(
                    f"t_comp({2*k})={actual} is not half of t_comp({k}) within 5%")
    comms = [by_k[k].t_comm for k in sorted(by_k)]
    if any(b < a - 1e-12 for a, b in zip(comms, comms[1:])):
        raise AssertionFailure("t_comm is not non-decreasing in K")

    meta = _meta(net, compute, net.seed, model=profile.name, batch=batch,
                 k_list=list(k_list))
    return ExperimentReport("scaling", rows, meta)


def run_collective_bench(sizes_bytes: list[int], k_list: list[int],
                         nets: dict[str, NetProfile],
                         compute: ComputeProfile) -> ExperimentReport:
    """Grid of simulated ring and tree allreduce times over sizes, worker counts, and links."""
    rows = []
    for net_name, net in nets.items():
        for alg in ("ring", "tree"):
            rng = np.random.default_rng(net.seed)
            for size in sizes_bytes:
                for k in k_list:
                    t = collective_time(size, k, net, compute, alg, rng)
                    rows.append(ReportRow(f"{size}B", k, f"{alg}:{net_name}", 0.0, t))
    meta = _meta(nets, compute, min(n.seed for n in nets.values()),
                 sizes_bytes=list(sizes_bytes), k_list=list(k_list), algs=["ring", "tree"])
    return ExperimentReport("collective", rows, meta)


def run_aggregation_comparison(models: list[str] | None, k: int, net: NetProfile,
                               compute: ComputeProfile) -> ExperimentReport:
    """Communication time of the three aggregation strategies per model."""
    profiles = [build_profile(m) for m in models] if models else all_profiles()
    rows = []
    for profile in profiles:
        for alg in AGGREGATIONS:
            t_comm = aggregation_comm_time(profile, k, net, compute, alg)
            rows.append(ReportRow(profile.name, k, alg, 0.0, t_comm))
    meta = _meta(net, compute, net.seed, k=k)
    return ExperimentReport("aggregation", rows, meta)


def run_efficiency_sweep(k: int, net: NetProfile, compute: ComputeProfile) -> ExperimentReport:
    """Per-model efficiency at each model's memory-maximal per-device batch."""
    rows = []
    for profile in all_profiles():
        rows.append(ReportRow(profile.name, k, "ring_packed",
                              *simulate_iteration(profile, profile.batch_per_device,
                                                  compute, k, net)))
    for r in rows:
        if not 0.0 < r.efficiency <= 1.0:
            raise AssertionFailure(f"{r.model}: efficiency {r.efficiency} outside (0, 1]")
    meta = _meta(net, compute, net.seed, k=k,
                 batch_per_device={r.model: build_profile(r.model).batch_per_device
                                   for r in rows},
                 gpu_reference_speedups=GPU_REFERENCE_SPEEDUPS)
    return ExperimentReport("efficiency", rows, meta)


def run_rar_vs_tree(model: str, k_list: list[int], net: NetProfile,
                    compute: ComputeProfile) -> ExperimentReport:
    """Ring vs library-baseline aggregation time; speedups land in metadata."""
    profile = build_profile(model)
    rows = []
    speedups = {}
    for k in k_list:
        ring = aggregation_comm_time(profile, k, net, compute, "ring_packed")
        tree = aggregation_comm_time(profile, k, net, compute, "tree_packed")
        rows.append(ReportRow(profile.name, k, "ring_packed", 0.0, ring))
        rows.append(ReportRow(profile.name, k, "tree_packed", 0.0, tree))
        speedups[str(k)] = 1.0 if k == 1 else tree / ring
    meta = _meta(net, compute, net.seed, model=profile.name, speedup_tree_over_ring=speedups)
    return ExperimentReport("rar_vs_tree", rows, meta)


def run_thermal_scenario(thermal: ThermalPreset, duration_s: float,
                         fan_on: bool) -> ExperimentReport:
    """Iterate compute+idle cycles under the thermal preset for a virtual duration.

    Returns one row per iteration; the temperature series rides in metadata.
    With the fan on, the cooling rate is multiplied, which keeps the device
    cool enough that the upper throttling tier never engages.
    """
    if not 0 <= duration_s < float("inf"):
        raise ValueError(f"duration must be finite and >= 0, got {duration_s}")
    rows_needed = duration_s / (thermal.baseline_t_comp_s + thermal.idle_s)
    if rows_needed > MAX_THERMAL_ROWS:
        raise ValueError(f"duration {duration_s} s needs up to {rows_needed:.0f} rows, "
                         f"over the {MAX_THERMAL_ROWS} a thermal run may write")
    cool_rate = thermal.cool_rate * (thermal.fan_cool_multiplier if fan_on else 1.0)
    temp = thermal.ambient
    rows = []
    temps = []
    elapsed = 0.0
    while elapsed < duration_s:
        temps.append(temp)
        t_comp = thermal.baseline_t_comp_s * thermal.multiplier(temp)
        temp = max(thermal.ambient, temp + thermal.heat_rate * t_comp - cool_rate * thermal.idle_s)
        rows.append(ReportRow("thermal-baseline", 1, "fan_on" if fan_on else "fan_off",
                              t_comp, thermal.idle_s))
        elapsed += t_comp + thermal.idle_s
    meta = _meta(None, None, 0, thermal={
        "ambient": thermal.ambient, "heat_rate": thermal.heat_rate,
        "cool_rate": thermal.cool_rate, "tiers": [list(t) for t in thermal.tiers]},
        fan_on=fan_on, baseline_t_comp_s=thermal.baseline_t_comp_s, idle_s=thermal.idle_s,
        temps_c=temps)
    return ExperimentReport("thermal", rows, meta)


def count_upward_steps(series: list[float]) -> int:
    """Number of increases by more than a relative 1e-9 between consecutive values."""
    steps = 0
    for a, b in zip(series, series[1:]):
        if b > a * (1.0 + 1e-9):
            steps += 1
    return steps
