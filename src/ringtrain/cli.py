"""Single executable: workers, launcher, probes, and simulated experiments.

Exit codes are a stable contract for CI: 0 success, 2 usage/config error,
3 communication failure, 4 embedded assertion failure. ``RINGTRAIN_SEED``
overrides the seed from any config or preset; explicit flags override both.

Each subcommand imports what only it runs (the engine, the harness, the
simulated transport) when it starts, so ``launch`` starts its workers without
loading numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import AssertionFailure, CommunicationError
from .preset import (TrainingConfig, check_workers, json_fits, load_compute, load_net,
                     load_thermal, read_json)
from .transport.tcp import (DEFAULT_TIMEOUT, MAX_TIMEOUT, Coordinator, listen, rendezvous,
                            serve_probe, tcp_probe_client)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMM = 3
EXIT_ASSERT = 4

SIM_EXPERIMENTS = ("scaling", "collective", "aggregation", "efficiency",
                   "rar-vs-tree", "thermal")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _resolved_seed(flag_seed: int | None, fallback: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("RINGTRAIN_SEED")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"RINGTRAIN_SEED must be an integer, got {env!r}") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, argv: list[str], seed: int,
                   config_paths: dict[str, str], outputs: list[Path],
                   worker_threads: dict[str, str] | None = None) -> Path:
    """Record everything needed to reproduce this run byte-for-byte."""
    manifest = {
        "version": __version__,
        "argv": argv,
        "resolved_seed": seed,
        "configs": {name: {"path": str(p), "sha256": _sha256(Path(p))}
                    for name, p in config_paths.items() if Path(p).exists()},
        "outputs": [str(p) for p in outputs],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if worker_threads is not None:
        manifest["worker_threads"] = worker_threads
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, made if missing; a path that cannot be one is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make the --out directory {path}: {exc.strerror}") from None
    return out


def _parse_host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected host:port with a port up to 65535, "
                                         f"got {text!r}")
    return host, int(port)


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringtrain",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("worker", help="join a real-mode training group as one rank")
    w.add_argument("--rank", type=int, required=True)
    w.add_argument("--size", type=int, required=True)
    w.add_argument("--coordinator", type=_parse_host_port, required=True)
    w.add_argument("--config", required=True)
    w.add_argument("--out", default=".")
    w.add_argument("--seed", type=int)
    w.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)

    l = sub.add_parser("launch", help="spawn K local workers and aggregate rank 0 metrics")
    l.add_argument("--workers", type=int, required=True)
    l.add_argument("--config", required=True)
    l.add_argument("--out", required=True)
    l.add_argument("--seed", type=int)
    l.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)

    s = sub.add_parser("sim", help="run a simulated experiment, write CSV + sidecar")
    s.add_argument("experiment", choices=SIM_EXPERIMENTS)
    s.add_argument("--out", required=True)
    s.add_argument("--net", default="ethernet", help="net preset name or JSON path")
    s.add_argument("--net2", default="wifi5",
                   help="second net preset for the collective bench")
    s.add_argument("--compute", default="compute_s10")
    s.add_argument("--thermal", default="thermal_s10")
    s.add_argument("--model", default=None)
    s.add_argument("--batch", type=int, default=32)
    s.add_argument("--k", type=_int_list, default=None,
                   help="comma-separated worker counts (single value for efficiency)")
    s.add_argument("--sizes", type=_int_list, default=None,
                   help="collective bench payload sizes in bytes")
    s.add_argument("--duration", type=float, default=600.0)
    s.add_argument("--fan", action="store_true", help="thermal: run with the fan on")
    s.add_argument("--seed", type=int)

    p = sub.add_parser("probe", help="point-to-point bandwidth probe")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--server", action="store_true")
    mode.add_argument("--client", type=_parse_host_port)
    mode.add_argument("--sim", metavar="NET", help="simulated probe of a net preset")
    p.add_argument("--bind", type=_parse_host_port, default=("127.0.0.1", 0))
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--repeat", type=int, default=10)
    p.add_argument("--seed", type=int)

    r = sub.add_parser("replay", help="re-run a sim-mode command from its manifest")
    r.add_argument("manifest")
    r.add_argument("--out", required=True)
    return parser


def cmd_worker(args) -> int:
    import numpy as np
    from .engine import Worker, write_metrics_csv

    config = TrainingConfig.from_json(args.config)
    if not 0 <= args.rank < args.size or args.size != config.workers:
        raise ValueError(f"rank/size {args.rank}/{args.size} inconsistent with config "
                         f"workers={config.workers}")
    config.seed = _resolved_seed(args.seed, config.seed)
    out = _out_dir(args.out)
    endpoint = rendezvous(args.coordinator, args.rank, args.size, timeout=args.timeout)
    try:
        worker = Worker(config, endpoint)   # the probes read the endpoint positionally
        metrics = worker.run()
    finally:
        endpoint.close()
    write_metrics_csv(metrics, out / f"metrics_rank{args.rank}.csv")
    np.savez(out / f"weights_rank{args.rank}.npz",
             **{f"w{i}": w for i, w in enumerate(worker.model.weights)})
    return EXIT_OK


def _first_failure(procs: list[subprocess.Popen]) -> tuple[int, int] | None:
    """Poll all workers until each exits with 0 or one fails; returns the failed (rank, code)."""
    while None in (codes := [p.poll() for p in procs]) and not any(codes):
        time.sleep(0.01)
    return next(((rank, code) for rank, code in enumerate(codes) if code), None)


def _worker_env(workers: int) -> dict[str, str]:
    """This process's environment, with each worker's thread pools sized to its
    share of the cores this process may run on; a value already set wins."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity on this platform
        cores = os.cpu_count() or 1
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, str(max(1, cores // workers)))
    return env


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:       # a real-time signal has no name of its own
        return f"signal {signum}"


def cmd_launch(args, argv: list[str]) -> int:
    config = TrainingConfig.from_json(args.config)
    if config.workers != args.workers:
        raise ValueError(f"--workers {args.workers} does not match config workers="
                         f"{config.workers}")
    seed = _resolved_seed(args.seed, config.seed)
    out = _out_dir(args.out)

    coordinator = Coordinator("127.0.0.1", 0, args.workers, timeout=args.timeout)
    coordinator.start()
    host, port = coordinator.address
    env = _worker_env(args.workers)
    procs = []

    def killall(signum=None, frame=None):
        for p in procs:
            if p.poll() is None:
                p.terminate()
        if signum is not None:
            sys.exit(EXIT_COMM)

    try:
        previous = [signal.signal(s, killall) for s in (signal.SIGINT, signal.SIGTERM)]
    except ValueError:       # not the main thread; skip signal plumbing
        previous = None
    try:
        for rank in range(args.workers):
            cmd = [sys.executable, "-m", "ringtrain", "worker",
                   "--rank", str(rank), "--size", str(args.workers),
                   "--coordinator", f"{host}:{port}", "--config", args.config,
                   "--out", str(out), "--seed", str(seed),
                   "--timeout", str(args.timeout)]
            procs.append(subprocess.Popen(cmd, env=env))
        failed = _first_failure(procs)
    finally:
        killall()
        for p in procs:
            p.wait()
        coordinator.stop()
        if previous is not None:
            for s, handler in zip((signal.SIGINT, signal.SIGTERM), previous):
                signal.signal(s, handler)
    coordinator.join()
    if failed is not None:
        rank, code = failed
        if coordinator.error is not None:   # the cause a worker only saw as a closed link
            print(f"coordinator failure: {coordinator.error}", file=sys.stderr)
        if code > 0:
            print(f"worker rank {rank} exited with code {code}", file=sys.stderr)
            return code
        print(f"worker rank {rank} was killed by {_signal_name(-code)}", file=sys.stderr)
        return EXIT_COMM

    report = out / "report.csv"
    report.write_text((out / "metrics_rank0.csv").read_text())
    write_manifest(out, argv, seed, {"training_config": args.config},
                   [report] + [out / f"metrics_rank{r}.csv" for r in range(args.workers)],
                   {var: env[var] for var in THREAD_VARS})
    return EXIT_OK


def cmd_sim(args, argv: list[str]) -> int:
    from .harness import (run_aggregation_comparison, run_collective_bench,
                          run_efficiency_sweep, run_rar_vs_tree,
                          run_scaling_experiment, run_thermal_scenario)
    from .harness.calibrate import ANCHOR_37_5_MB

    net = load_net(args.net)
    compute = load_compute(args.compute)
    seed = _resolved_seed(args.seed, net.seed)
    net = replace(net, seed=seed)

    exp = args.experiment
    for k in args.k or []:
        check_workers(k, "k")
    if exp in ("aggregation", "efficiency") and len(args.k or []) > 1:
        raise ValueError(f"{exp} takes one --k value, got {','.join(map(str, args.k))}")
    out = _out_dir(args.out)
    if exp == "scaling":
        report = run_scaling_experiment(args.model or "GoogleNet", args.batch,
                                        args.k or [1, 2, 4, 8, 16, 32], net, compute)
    elif exp == "collective":
        nets = {args.net: net}   # a link named twice is priced once, with the run's seed
        if args.net2 != args.net:
            nets[args.net2] = replace(load_net(args.net2), seed=seed + 1)
        sizes = args.sizes or [ANCHOR_37_5_MB]
        report = run_collective_bench(sizes, args.k or [2, 4, 8, 16], nets, compute)
    elif exp == "aggregation":
        models = [args.model] if args.model else None
        report = run_aggregation_comparison(models, (args.k or [138])[0], net, compute)
    elif exp == "efficiency":
        report = run_efficiency_sweep((args.k or [138])[0], net, compute)
    elif exp == "rar-vs-tree":
        report = run_rar_vs_tree(args.model or "ResNet-152",
                                 args.k or [1, 2, 4, 8, 16, 32, 46], net, compute)
    else:
        report = run_thermal_scenario(load_thermal(args.thermal), args.duration, args.fan)
    outputs = list(report.write(out))
    # write_manifest records the digest of each value that names a file
    configs = {name: getattr(args, name) for name in ("net", "net2", "compute", "thermal")}
    write_manifest(out, argv, seed, configs, outputs)
    print(f"wrote {outputs[0]}")
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.repeat < 1 or not 0 < args.seconds < float("inf"):
        raise ValueError(f"probe needs --repeat >= 1 and --seconds > 0 and finite, "
                         f"got {args.repeat} and {args.seconds}")
    if args.server:
        listener = listen(*args.bind, backlog=1)
        host, port = listener.getsockname()[:2]
        print(f"probe server listening on {host}:{port}", flush=True)
        serve_probe(listener)
        return EXIT_OK
    if args.sim:
        from .transport.sim import sim_probe_bandwidth

        profile = load_net(args.sim)
        profile = replace(profile, seed=_resolved_seed(args.seed, profile.seed))
        rates, aborted = sim_probe_bandwidth(profile, args.seconds, args.repeat)
    else:
        rates, aborted = tcp_probe_client(args.client, args.seconds, args.repeat), False
    mean = sum(rates) / len(rates)
    std = (sum((r - mean) ** 2 for r in rates) / len(rates)) ** 0.5
    label = " (aborted: partial result)" if aborted else ""
    print(f"{mean:.2f} +- {std:.2f} Mbps over {len(rates)} runs{label}")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = read_json(args.manifest)
    if not (isinstance(manifest, dict) and json_fits(manifest.get("argv"), list[str])
            and json_fits(manifest.get("resolved_seed"), int)):
        raise ValueError(f"not a manifest (argv: list[str], resolved_seed: int): {args.manifest}")
    argv = list(manifest["argv"])
    # a trailing --out has no value; appending another makes argparse refuse the argv
    if "--out" in argv[:-1]:
        argv[argv.index("--out") + 1] = args.out
    else:
        argv += ["--out", args.out]
    if "--seed" not in argv:
        argv += ["--seed", str(manifest["resolved_seed"])]
    return main(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command in ("worker", "launch") and not 0 < args.timeout <= MAX_TIMEOUT:
            raise ValueError(f"--timeout must be > 0 and at most {MAX_TIMEOUT} s, "
                             f"got {args.timeout}")
        if args.command == "worker":
            return cmd_worker(args)
        if args.command == "launch":
            return cmd_launch(args, argv)
        if args.command == "sim":
            return cmd_sim(args, argv)
        if args.command == "probe":
            return cmd_probe(args)
        return cmd_replay(args)   # add_subparsers(required=True) admits no other command
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except CommunicationError as exc:
        print(f"communication failure: {exc}", file=sys.stderr)
        return EXIT_COMM
    except (ValueError, KeyError) as exc:
        # an unreadable file is preset.read_json's ValueError; str() of a KeyError
        # is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"config error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
