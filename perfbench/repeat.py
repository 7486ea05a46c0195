"""Run the benchmark on several seeds and summarise the spread of each metric.

For every workload and seed this runs ``perfbench/run.py`` (from the root of
the checkout, as the benchmark's own command does), keeps the final JSON
line, and reports for each metric the median and the quartiles of its values
(``statistics.quantiles(values, n=4)``). The spread is (Q3 - Q1) / median; an
end-to-end metric is steady when its spread is below a third of its bound in
``BENCHMARK.json``. Usage::

    python3 perfbench/repeat.py --seeds 0-9 [--workloads a,b] [--trace 1] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    row = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        row.update(bound=bound, steady=spread < bound / 3)
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    command = spec["command"] + ["--workload", "<name>", "--seed", "<n>",
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
    result = {"command": command, "seeds": args.seeds, "host": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
            cmd += ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            host = next(line for line in lines if line.startswith("host "))
            result["host"] = json.loads(host[len("host "):])
            run = json.loads(lines[-1])
            steal = next(line for line in lines if line.startswith("cpu_steal_pct "))
            runs.append({"seed": seed, "cpu_steal_pct": float(steal.split()[1]), **run})
            values = " ".join(f"{name}={m['value']:.6g}" for name, m in run["metrics"].items())
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {steal.split()[1]}% steal "
                  f"{values if not args.trace else ''}", flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs], bounds[name])
                   for name in names}
        result["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, row in summary.items():
            flag = "" if row.get("steady", True) else "  NOT STEADY"
            print(f"  {name:40s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                  + (f"  (bound {row['bound']})" if "bound" in row else "") + flag, flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
