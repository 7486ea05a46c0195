"""Check the per-layer counts of traced runs recorded by ``repeat.py --trace 1``.

Later claims may rest on these counts, so they must repeat exactly between
traced runs, and at the baseline commit they must equal what the code
implies: a ring allreduce over K ranks sends 2(K-1) messages per invocation,
one invocation per step (packed) or per layer (chunk-wise), 8(K-1)/K bytes
per parameter per step when K divides every buffer, and the TCP path starts
one thread per send. Usage::

    python3 perfbench/check_counts.py perfbench/results/<traced runs>.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inproc import SIM_TRAIN_CONFIG  # noqa: E402
from run import LAUNCH_CONFIGS  # noqa: E402

REPEATING = ("collectives.msgs_per_step", "collectives.invocations_per_step",
             "collectives.bytes_sent_per_step", "collectives.threads_per_step",
             "net.transfer_calls", "cost.transfer_calls", "calibrate.evals.fit_invocation_overhead",
             "calibrate.evals.fit_contention_coeff", "calibrate.evals.fit_throughput_boundary")


def implied(config: dict, tcp: bool) -> dict[str, float]:
    k, dims = config["workers"], config["model_dims"]
    params = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    invocations = len(dims) - 1 if config["aggregation"] == "ring_chunkwise" else 1
    msgs = 2 * (k - 1) * invocations
    return {"collectives.invocations_per_step": invocations,
            "collectives.msgs_per_step": msgs,
            "collectives.bytes_sent_per_step": 8 * (k - 1) * params / k,
            "collectives.threads_per_step": msgs if tcp else 0}


def main() -> int:
    runs_by_workload = json.loads(Path(sys.argv[1]).read_text())["workloads"]
    configs = {**{name: (cfg, True) for name, cfg in LAUNCH_CONFIGS.items()},
               "sim-train": (SIM_TRAIN_CONFIG, False)}
    failures = 0
    for workload, data in runs_by_workload.items():
        runs = data["runs"]
        expected = implied(*configs[workload]) if workload in configs else {}
        for name in REPEATING:
            values = [run["metrics"][name]["value"] for run in runs]
            ok = len(set(values)) == 1 and values[0] == expected.get(name, values[0])
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} {name} {values}"
                  + (f" expected {expected[name]}" if name in expected else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
