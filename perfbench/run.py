"""ringtrain benchmark: runs one workload and prints its metrics.

Run from the root of a checkout (ringtrain is imported from its ``src``)::

    python3 perfbench/run.py --workload launch-packed --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured with no probes loaded; with ``--trace 1`` they are the per-layer
ones, taken from traced operations interleaved with untraced ones (their wall
time ratio is ``trace.overhead_ratio``). Every operation's outputs are
checked. The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ops, "failed": ops, "metrics": {name: {"value", "unit"}}}

The workloads, the metric definitions and the recorded baseline are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402 - lives next to this script

WARMUP_STEPS = 5     # leading iterations of every launch left out of step statistics
MIN_LAUNCHES = 2     # at least two set-ups per run; a 35 s run makes about eight launches
SETUP_PROBES = 8     # set-up-only children before and again after the measured one
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

# launch-packed: compute- and bandwidth-heavy. Each rank sends 2 messages of
# 600 KB per step, so BLAS threading, pack/unpack copies and the framed-copy
# wire path show; the harness is never called.
# launch-chunkwise: about the same bytes per step (~1.0 MB) as 34 messages of
# <= 32 KB per rank with ~1 ms of compute, so per-message costs dominate
# (a thread per send, frame headers, syscalls, invocation count).
# Two workers: the host has two cores, and more would measure the scheduler.
# launch-chunkwise is not in BENCHMARK.json: its run-to-run spread follows the
# host's CPU steal (see README.md); run it by hand with many paired runs.
LAUNCH_CONFIGS = {
    "launch-packed": dict(global_batch=128, per_device_batch=64, workers=2, iterations=40,
                          aggregation="ring_packed", model_dims=[64, 512, 512, 10],
                          dataset_size=4096, dataset_classes=10),
    "launch-chunkwise": dict(global_batch=32, per_device_batch=16, workers=2, iterations=100,
                             base_lr=0.2, aggregation="ring_chunkwise",
                             model_dims=[32] + [128] * 16 + [10],
                             dataset_size=4096, dataset_classes=10),
}
WORKLOADS = (*LAUNCH_CONFIGS, "sim-train", "sim-harness")


@dataclass
class Op:
    """Outcome of one operation: a launch, a sim-train call or a harness command."""

    wall_s: float
    error: str | None = None


@dataclass
class Launch:
    op: Op
    traced: bool
    out: Path
    steps: list[float] = field(default_factory=list)   # rank-0 t_comp + t_comm
    rss_mb: float = 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _child_env(trace_dir: Path | None, workload: str) -> dict[str, str]:
    """The caller's environment, with ringtrain (and the probes) importable.

    The BLAS thread variables pass through untouched, so launches run as a
    user runs them.
    """
    env = dict(os.environ)
    paths = [str(SRC)] + ([str(HERE / "probe")] if trace_dir else [])
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PERFBENCH_WORKLOAD"] = workload
    return env


class Runner:
    """Spawns children, each bounded by the run's time limit."""

    def __init__(self):
        self.started = time.monotonic()

    def spawn(self, cmd: list[str], env: dict[str, str], log: Path):
        """Run ``cmd`` to completion; returns (exit code, wall s, peak RSS MB).

        The peak RSS is the largest of the child and every descendant it waited
        for, which for ``ringtrain launch`` is the largest worker.
        """
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                _, status, usage = _wait4(proc.pid, remaining)
            except TimeoutError:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024


def _wait4(pid: int, timeout: float):
    def expire(signum, frame):
        raise TimeoutError(f"pid {pid} still running after {timeout:.0f}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _read_steps(report_csv: Path) -> list[float]:
    """Rank-0 step times (t_comp + t_comm) from the stable metrics CSV."""
    steps = []
    for line in report_csv.read_text().splitlines()[1:]:
        _, _, t_comp, t_comm, _ = line.split(",")
        steps.append(float(t_comp) + float(t_comm))
    return steps


def run_launches(name: str, seed: int, seconds: int, trace: bool, work: Path):
    """Repeat ``ringtrain launch`` while the next one should end within
    ``seconds`` (at least ``MIN_LAUNCHES`` times).

    In a traced run every second launch loads the probes. Returns
    (operations, end-to-end metrics, per-layer metrics or None).
    """
    config = LAUNCH_CONFIGS[name]
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    runner = Runner()
    launches: list[Launch] = []
    deadline = time.perf_counter() + seconds
    while len(launches) < MIN_LAUNCHES or (
            time.perf_counter() + launches[-1].op.wall_s <= deadline):
        traced = trace and len(launches) % 2 == 1
        out = work / f"launch{len(launches)}"
        trace_dir = out / "trace" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        cmd = [sys.executable, "-m", "ringtrain", "launch", "--workers", str(config["workers"]),
               "--config", str(config_path), "--out", str(out), "--seed", str(seed)]
        try:
            code, wall, rss = runner.spawn(cmd, _child_env(trace_dir, name), out.with_suffix(".log"))
        except TimeoutError as exc:
            launches.append(Launch(Op(RUN_LIMIT_S, str(exc)), traced, out))
            break
        launch = Launch(Op(wall, None if code == 0 else f"ringtrain launch exited {code}"),
                        traced, out, rss_mb=rss)
        if code == 0:
            try:
                launch.steps = _read_steps(out / "report.csv")
            except (OSError, ValueError) as exc:
                launch.op.error = f"unreadable report.csv: {exc}"
        launches.append(launch)

    _check_launches(name, seed, launches)
    plain = [ln for ln in launches if not ln.traced and ln.op.error is None]
    timed = [t for ln in plain for t in ln.steps[WARMUP_STEPS:]]
    walls = [ln.op.wall_s for ln in plain]
    e2e = {
        "wall_s": (_median(walls), len(walls)),
        "samples_per_s": (config["global_batch"] * len(timed) / sum(timed) if timed else 0.0,
                          len(timed)),
        "step_ms_p50": (_median(timed) * 1e3, len(timed)),
        "step_ms_p90": (_percentile(timed, 90) * 1e3, len(timed)),
        "setup_s": (_median([ln.op.wall_s - sum(ln.steps) for ln in plain]), len(plain)),
        "peak_rss_mb": (_median([ln.rss_mb for ln in plain]), len(plain)),
    }
    per_layer = None
    if trace:
        traced = [ln.op.wall_s for ln in launches if ln.traced and ln.op.error is None]
        per_layer = layers.summarise(work, WARMUP_STEPS)
        per_layer["trace.overhead_ratio"] = _median(traced) / _median(walls) if walls else 0.0
    return [ln.op for ln in launches], e2e, per_layer


def _check_launches(name: str, seed: int, launches) -> None:
    """Every rank's weights are bit-identical, and rank 0's equal a
    ``run_training_sim`` run of the same config, computed once here."""
    import numpy as np
    from ringtrain.engine import TrainingConfig, run_training_sim

    config = LAUNCH_CONFIGS[name]
    _, models = run_training_sim(TrainingConfig(**config, seed=seed))
    reference = models[0].weights
    for launch in launches:
        if launch.op.error is not None:
            continue
        if len(launch.steps) != config["iterations"]:
            launch.op.error = (f"report.csv holds {len(launch.steps)} steps, "
                               f"expected {config['iterations']}")
            continue
        for rank in range(config["workers"]):
            with np.load(launch.out / f"weights_rank{rank}.npz") as npz:
                weights = [npz[f"w{i}"] for i in range(len(reference))]
            if any(w.dtype != r.dtype or w.tobytes() != r.tobytes()
                   for w, r in zip(weights, reference)):
                launch.op.error = f"rank {rank} weights differ from the run_training_sim reference"
                break


def run_inproc(name: str, seed: int, seconds: int, trace: bool, work: Path):
    """Run ``inproc.py`` children: set-up probes, then the measured child.

    In a traced run the time is split between an untraced and a traced child.
    Returns (operations, end-to-end metrics, per-layer metrics or None).
    """
    runner = Runner()
    ops = []

    def child(tag: str, seconds: float, trace_dir: Path | None = None, setup_only=False):
        report = work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "inproc.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--report", str(report),
               "--work-dir", str(work / tag), "--spawned-at", str(time.monotonic())]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if setup_only:
            cmd.append("--setup-only")
        try:
            code, wall, _ = runner.spawn(cmd, _child_env(None, name), work / f"{tag}.log")
        except TimeoutError as exc:
            ops.append(Op(RUN_LIMIT_S, str(exc)))
            return None
        if code != 0:
            ops.append(Op(wall, f"inproc.py exited {code}, see {tag}.log"))
            return None
        data = json.loads(report.read_text())
        ops.extend(Op(o["wall_s"], o["error"]) for o in data["ops"])
        return data

    if not trace:
        # the host's speed drifts over tens of seconds, so set-up is sampled
        # at both ends of the run
        setups = [child(f"setup{i}", 0, setup_only=True) for i in range(SETUP_PROBES)]
        main = child("main", seconds)
        setups += [child(f"setup{SETUP_PROBES + i}", 0, setup_only=True)
                   for i in range(SETUP_PROBES)]
        e2e = _inproc_metrics(main, [s for s in setups + [main] if s is not None])
        return ops, e2e, None
    plain = child("plain", seconds / 2)
    traced = child("traced", seconds / 2, trace_dir=work / "trace")
    per_layer = layers.summarise(work / "trace", WARMUP_STEPS)
    ratio = 0.0
    if plain is not None and traced is not None:
        ratio = (_median(_pass_walls(traced)) / _median(_pass_walls(plain)))
    per_layer["trace.overhead_ratio"] = ratio
    return ops, None, per_layer


def _pass_walls(report) -> list[float]:
    return [p["wall_s"] for p in report["passes"] if not p["warmup"]]


def _inproc_metrics(report, setups) -> dict:
    """End-to-end metrics from the passes of ``inproc.py``: a step is a pass's
    wall time over its step count (iterations, or harness operations)."""
    setup = (_median([s["setup_s"] for s in setups]), len(setups))
    if report is None:
        return {"setup_s": setup}
    passes = [p for p in report["passes"] if not p["warmup"]]
    walls = [p["wall_s"] for p in passes]
    steps = [p["wall_s"] / p["steps"] for p in passes]
    samples = sum(p["samples"] for p in passes)
    return {
        "wall_s": (_median(walls), len(walls)),
        "samples_per_s": (samples / sum(walls) if walls else 0.0, len(walls)),
        "step_ms_p50": (_median(steps) * 1e3, len(steps)),
        "step_ms_p90": (_percentile(steps, 90) * 1e3, len(steps)),
        "setup_s": setup,
        "peak_rss_mb": (report["peak_rss_mb"], 1),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, or (0, 0) where unknown.

    Steal is time the hypervisor gave this machine's virtual CPUs to other
    guests; runs with a high share of it are slow for reasons outside ringtrain.
    """
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def host_fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "ringtrain" / "__init__.py").is_file():
        print(f"no ringtrain sources at {SRC}; run from the root of a ringtrain checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = run_launches if args.workload in LAUNCH_CONFIGS else run_inproc
    steal0, total0 = cpu_ticks()
    ops, e2e, per_layer = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    steal1, total1 = cpu_ticks()

    failed = [op for op in ops if op.error is not None]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(host_fingerprint()))
    print(f"cpu_steal_pct {100 * (steal1 - steal0) / max(1, total1 - total0):.1f} "
          "(host CPU time given to other guests during the run)")
    for op in failed:
        print(f"FAILED: {op.error}")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if args.trace:
            value, count = per_layer[name], None
        else:
            value, count = e2e.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}" + (f" (n={count})" if count is not None else ""))
    print(f"error_rate {len(failed) / len(ops)!r} ratio ({len(failed)}/{len(ops)} operations)")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
