"""Per-layer metrics computed from the span files that ``probe/probes.py`` writes.

"Rank 0, steady state" means spans whose rank is 0 and whose iteration is at
least the warm-up count; per-step figures divide by the number of such
``train_step`` spans. A workload unit is one ``bench`` pass span (one
``run_training_sim`` call or one harness pass). Layers a workload never calls
read 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

NS_PER_MS = 1e6
NS_PER_US = 1e3
NS_PER_S = 1e9

AGGREGATIONS = ("ring_packed", "tree_packed", "ring_chunkwise")
HARNESS_EXPERIMENTS = ("scaling", "collective", "aggregation", "efficiency",
                       "rar_vs_tree", "thermal", "aggregation_wifi5")
FITS = ("fit_invocation_overhead", "fit_contention_coeff", "fit_throughput_boundary")
STEP_PHASES = ("forward", "backward", "aggregate")   # what t_comp + t_comm cover


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _Process:
    """The spans and counters one process wrote, indexed by id."""

    def __init__(self, path: Path):
        self.spans, self.counters = [], []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            (self.counters if "counter" in record else self.spans).append(record)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s["parent"]].append(s)

    def descendants(self, span):
        todo = list(self.children[span["id"]])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[s["id"]])

    def in_layer(self, span_id, layer: str) -> bool:
        """Whether the span or one of its ancestors belongs to ``layer``."""
        while span_id is not None:
            span = self.by_id[span_id]
            if span["layer"] == layer:
                return True
            span_id = span["parent"]
        return False


def _dur(span) -> int:
    return span["t1"] - span["t0"]


def summarise(trace_dir: Path, warmup: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, from the span files
    anywhere under ``trace_dir``."""
    procs = [_Process(p) for p in sorted(Path(trace_dir).rglob("spans-*.jsonl"))]
    times = defaultdict(list)       # metric -> per-call values in its unit
    per_step = defaultdict(float)   # metric -> total over steady rank-0 steps
    steps = units = 0
    comp = comm = 0.0
    calls = ns = cost_calls = 0

    for proc in procs:
        for s in proc.spans:
            layer, name, d = s["layer"], s["name"], _dur(s)
            steady = s["iter"] is not None and s["iter"] >= warmup
            rank0 = steady and s["rank"] == 0
            key = f"{layer}.{name}"
            if key == "bench.pass":
                units += 1
            if key == "engine.train_step" and rank0:
                steps += 1
                comp += s["attr"]["t_comp"]
                comm += s["attr"]["t_comm"]
                phases = sum(_dur(c) for c in proc.children[s["id"]] if c["name"] in STEP_PHASES)
                times["engine.untimed_ms"].append((d - phases) / NS_PER_MS)
            elif key == "engine.init":
                times["engine.init_ms"].append(d / NS_PER_MS)
            elif layer == "model" and rank0:
                times[f"model.{name.replace('_update', '')}_ms"].append(d / NS_PER_MS)
            elif layer == "collectives" and rank0:
                times[f"collectives.{name}_ms"].append(d / NS_PER_MS)
                if name == "allreduce":
                    per_step["collectives.invocations_per_step"] += 1
            elif key == "threading.start" and rank0:
                per_step["collectives.threads_per_step"] += 1
            elif layer == "frame" and rank0 and s["attr"] is not None:
                per_step["frame.bytes_copied_per_step"] += s["attr"]["copied"]
            elif layer == "tcp" and name == "rendezvous":
                times["tcp.rendezvous_s"].append(d / NS_PER_S)
            elif layer == "tcp" and rank0:
                times[f"tcp.{name}_ms"].append(d / NS_PER_MS)
                frames = [c for c in proc.descendants(s) if c["layer"] == "frame"]
                if name == "send":
                    per_step["collectives.msgs_per_step"] += 1
                    per_step["collectives.bytes_sent_per_step"] += s["attr"]["bytes"]
                    times["frame.encode_us"].append(sum(map(_dur, frames)) / NS_PER_US)
                elif name == "recv":
                    times["frame.decode_us"].append(sum(map(_dur, frames)) / NS_PER_US)
            elif layer == "sim" and name == "cluster_run":
                times["sim.cluster_run_s"].append(d / NS_PER_S)
            elif layer == "sim":
                times[f"sim.{name}_us"].append(d / NS_PER_US)
                if name == "send" and steady:
                    per_step["sim.msgs"] += 1
                    if s["rank"] == 0:
                        per_step["collectives.msgs_per_step"] += 1
                        per_step["collectives.bytes_sent_per_step"] += s["attr"]["bytes"]
            elif key == "cost.aggregation":
                times[f"cost.aggregation_ms.{s['attr']['alg']}"].append(d / NS_PER_MS)
            elif layer == "calibrate" and name in FITS:
                times[f"calibrate.{name}_s"].append(d / NS_PER_S)
                evals = sum(1 for c in proc.descendants(s) if c["name"] == "objective")
                times[f"calibrate.evals.{name}"].append(evals)
            elif key == "cli.replay":
                times["cli.replay_s"].append(d / NS_PER_S)
            elif layer == "bench" and name in HARNESS_EXPERIMENTS:
                runs = [c for c in proc.descendants(s) if c["layer"] == "experiments"]
                times[f"experiments.{name}_s"].append(sum(map(_dur, runs)) / NS_PER_S)
        for c in proc.counters:
            calls += c["calls"]
            ns += c["ns"]
            if proc.in_layer(c["parent"], "cost"):
                cost_calls += c["calls"]

    metrics = {
        "model.forward_ms": _median(times["model.forward_ms"]),
        "model.backward_ms": _median(times["model.backward_ms"]),
        "model.sgd_ms": _median(times["model.sgd_ms"]),
        "engine.init_ms": _median(times["engine.init_ms"]),
        "engine.untimed_ms": _median(times["engine.untimed_ms"]),
        "engine.comm_share": _ratio(comm, comp + comm),
        "engine.comm_share_base_ms": _ratio(comp + comm, steps) * 1e3,
        "collectives.pack_ms": _median(times["collectives.pack_ms"]),
        "collectives.unpack_ms": _median(times["collectives.unpack_ms"]),
        "collectives.allreduce_ms": _median(times["collectives.allreduce_ms"]),
    }
    for name in ("collectives.invocations_per_step", "collectives.msgs_per_step",
                 "collectives.bytes_sent_per_step", "collectives.threads_per_step"):
        metrics[name] = _ratio(per_step[name], steps)
    metrics.update({
        "frame.encode_us": _median(times["frame.encode_us"]),
        "frame.decode_us": _median(times["frame.decode_us"]),
        "frame.bytes_copied_per_step": _ratio(per_step["frame.bytes_copied_per_step"], steps),
        "tcp.send_ms": _median(times["tcp.send_ms"]),
        "tcp.recv_ms": _median(times["tcp.recv_ms"]),
        "tcp.recv_frame_ms": _median(times["tcp.recv_frame_ms"]),
        "tcp.rendezvous_s": _median(times["tcp.rendezvous_s"]),
        "sim.send_us": _median(times["sim.send_us"]),
        "sim.recv_us": _median(times["sim.recv_us"]),
        "sim.msgs": _ratio(per_step["sim.msgs"], steps),
        "sim.cluster_run_s": _median(times["sim.cluster_run_s"]),
        "net.transfer_calls": _ratio(calls, units),
        "net.transfer_us": _ratio(ns, calls) / NS_PER_US,
    })
    for alg in AGGREGATIONS:
        metrics[f"cost.aggregation_ms.{alg}"] = _median(times[f"cost.aggregation_ms.{alg}"])
    metrics["cost.transfer_calls"] = _ratio(cost_calls, units)
    for name in HARNESS_EXPERIMENTS:
        metrics[f"experiments.{name}_s"] = _median(times[f"experiments.{name}_s"])
    for fit in FITS:
        metrics[f"calibrate.{fit}_s"] = _median(times[f"calibrate.{fit}_s"])
    for fit in FITS:
        metrics[f"calibrate.evals.{fit}"] = _median(times[f"calibrate.evals.{fit}"])
    metrics["cli.replay_s"] = _median(times["cli.replay_s"])
    return metrics
