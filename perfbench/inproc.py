"""Child process for the in-process workloads (``sim-train``, ``sim-harness``).

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``. It sets up the workload, records the time from its own spawn to the
first workload call (``setup_s``), then runs passes of operations while
the next one should end within ``--seconds`` (at least one), checks every output and writes a JSON report for
``run.py``. With ``--setup-only`` it stops before the first call.

Usage::

    python3 perfbench/inproc.py --workload sim-train --seed 0 --seconds 10 \
        --spawned-at <time.monotonic() of the parent> --report out.json \
        --work-dir DIR [--trace-dir DIR] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent

# sim-train: K=4 simulated ranks, so SimCluster, the jittered wifi5 link model,
# shared-medium contention (k_active > 2) and the ring at K > 2 all run.
SIM_TRAIN_CONFIG = dict(global_batch=128, per_device_batch=32, workers=4, iterations=20,
                        aggregation="ring_packed", model_dims=[64, 256, 256, 10],
                        dataset_size=4096, dataset_classes=10)

# sim-harness: one pass is the six `ringtrain sim` experiments with their
# default presets, `sim aggregation --net wifi5`, the three calibrators and
# one `ringtrain replay` (of the `collective` run).
SIM_COMMANDS = [("scaling", ["sim", "scaling"]),
                ("collective", ["sim", "collective"]),
                ("aggregation", ["sim", "aggregation"]),
                ("efficiency", ["sim", "efficiency"]),
                ("rar_vs_tree", ["sim", "rar-vs-tree"]),
                ("thermal", ["sim", "thermal"]),
                ("aggregation_wifi5", ["sim", "aggregation", "--net", "wifi5"])]
FIT_REL_TOL = 0.01   # the tolerance tier-1 uses for refitted constants


class CheckFailed(Exception):
    """An output check of one operation failed."""


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class SimTrain:
    """A pass is one ``run_training_sim`` call at the fixed size above.

    The first call of a process takes several times longer than the rest; it
    is run and checked but not timed.
    """

    warmup_passes = 1
    steps_per_pass = SIM_TRAIN_CONFIG["iterations"]
    samples_per_pass = SIM_TRAIN_CONFIG["global_batch"] * SIM_TRAIN_CONFIG["iterations"]

    def __init__(self, seed: int, work: Path):
        from ringtrain.engine import TrainingConfig, run_training_sim
        from ringtrain.preset import load_net

        self.config = TrainingConfig(**SIM_TRAIN_CONFIG, seed=seed).validate()
        # a 0.1% per-message drop would fail almost every run by design
        self.net = replace(load_net("wifi5"), disconnect_prob=0.0)
        self.run_training_sim = run_training_sim
        self.first = None

    def operations(self):
        return [("run_training_sim", self.train)]

    def train(self):
        metrics, models = self.run_training_sim(self.config, self.net)
        weights = _digest(models[0].weights)
        for rank, model in enumerate(models[1:], start=1):
            if _digest(model.weights) != weights:
                raise CheckFailed(f"rank {rank} weights differ from rank 0")
        clock = repr([(m.t_comp, m.t_comm, m.loss) for m in metrics[0]])
        if self.first is None:
            self.first = (weights, clock)
        elif (weights, clock) != self.first:
            raise CheckFailed("rank 0 weights or virtual clock changed between calls")


class SimHarness:
    """A pass runs every harness command and fit once.

    The operations differ in cost by five orders of magnitude, so percentiles
    over them would pick whichever small command sorts into place; a step and
    a sample are instead the pass's mean operation.
    """

    warmup_passes = 0
    steps_per_pass = samples_per_pass = len(SIM_COMMANDS) + 4   # + three fits, one replay

    def __init__(self, seed: int, work: Path):
        from ringtrain import cli, harness
        from ringtrain.preset import load_compute, load_net

        # module attributes are looked up per call, so traced runs see the probes
        self.seed, self.work, self.cli, self.harness = seed, work, cli, harness
        # The fits run on the shipped presets, as tier-1 does: a refit only
        # reproduces the shipped constant at the preset's own seed (the
        # contention refit drifts past 1% on seeds 7, 10 and 20).
        self.ethernet, self.wifi5 = load_net("ethernet"), load_net("wifi5")
        self.compute = load_compute("compute_s10")
        self.passes = 0

    def operations(self):
        self.passes += 1
        self.out = self.work / f"pass{self.passes}"
        ops = [(label, lambda argv=argv, label=label: self.command(argv, self.out / label))
               for label, argv in SIM_COMMANDS]
        ops += [("fit_invocation_overhead", self.fit_overhead),
                ("fit_contention_coeff", self.fit_contention),
                ("fit_throughput_boundary", self.fit_boundary),
                ("replay", self.replay)]
        return ops

    def command(self, argv, out):
        code = self.cli.main(argv + ["--out", str(out), "--seed", str(self.seed)])
        if code != 0:
            raise CheckFailed(f"ringtrain {' '.join(argv)} exited {code}")

    def fit_overhead(self):
        fitted = self.harness.fit_invocation_overhead(self.ethernet, self.compute, 84.0)
        self._close(fitted, self.compute.invocation_overhead, "invocation_overhead")

    def fit_contention(self):
        fitted = self.harness.fit_contention_coeff(replace(self.wifi5, contention_coeff=0.0), self.compute, 63.0)
        self._close(fitted, self.wifi5.contention_coeff, "contention_coeff")

    def fit_boundary(self):
        boundary = self.harness.fit_throughput_boundary(self.ethernet, self.compute)
        if not boundary < self.compute.throughput:
            raise CheckFailed(f"throughput boundary {boundary} not below the shipped "
                              f"throughput {self.compute.throughput}")

    def replay(self):
        first = self.out / "collective"
        again = self.out / "replay"
        code = self.cli.main(["replay", str(first / "manifest.json"), "--out", str(again)])
        if code != 0:
            raise CheckFailed(f"ringtrain replay exited {code}")
        if (again / "collective.csv").read_bytes() != (first / "collective.csv").read_bytes():
            raise CheckFailed("replayed collective.csv differs from the original")

    @staticmethod
    def _close(fitted, shipped, what):
        if abs(fitted - shipped) > FIT_REL_TOL * abs(shipped):
            raise CheckFailed(f"refitted {what} {fitted} not within {FIT_REL_TOL:.0%} "
                              f"of the shipped {shipped}")


WORKLOADS = {"sim-train": SimTrain, "sim-harness": SimHarness}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ringtrain
    src = (HERE.parent / "src").resolve()
    if src not in Path(ringtrain.__file__).resolve().parents:
        print(f"imported ringtrain from {ringtrain.__file__}, not from {src}", file=sys.stderr)
        return 2
    shutil.rmtree(args.work_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    report = {"setup_s": setup_s, "ops": []}
    if args.setup_only:
        args.report.write_text(json.dumps(report))
        return 0

    recorder = None
    if args.trace_dir is not None:
        sys.path.insert(0, str(HERE / "probe"))
        import probes
        recorder = probes.install(args.workload)

    def timed(label, fn):
        return recorder.spanned("bench", label, fn) if recorder else fn

    def one_pass(ops, warmup):
        for label, fn in ops:
            error = None
            t0 = time.perf_counter()
            try:
                timed(label, fn)()
            except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
                error = f"{type(exc).__name__}: {exc}"
            report["ops"].append({"label": label, "wall_s": time.perf_counter() - t0,
                                  "warmup": warmup, "error": error})

    passes = report["passes"] = []
    deadline = time.perf_counter() + args.seconds
    # start another pass only while it should end before the deadline
    while len(passes) <= workload.warmup_passes or (
            time.perf_counter() + passes[-1]["wall_s"] <= deadline):
        warmup = len(passes) < workload.warmup_passes
        ops = workload.operations()
        t0 = time.perf_counter()
        timed("pass", one_pass)(ops, warmup)
        passes.append({"wall_s": time.perf_counter() - t0, "warmup": warmup,
                       "steps": workload.steps_per_pass, "samples": workload.samples_per_pass})
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        recorder.dump(args.trace_dir / "spans-inproc.jsonl")
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
