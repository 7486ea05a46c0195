import hashlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from ringtrain import harness
from ringtrain.cli import EXIT_ASSERT, EXIT_COMM, EXIT_OK, EXIT_USAGE, THREAD_VARS, main
from ringtrain.engine import TrainingConfig
from ringtrain.errors import CommunicationError, ProtocolError, TagMismatch
from ringtrain.harness import run_collective_bench
from ringtrain.harness.cost import MAX_TREE_MESSAGES
from ringtrain.preset import load_compute, load_net, load_thermal, preset_path
from ringtrain.transport.frame import FRAME_MAGIC
from ringtrain.transport.net import sim_transfer_time
from ringtrain.transport.sim import MAX_PROBE_MESSAGES, PROBE_MESSAGE_BYTES
from ringtrain.transport.tcp import (TAG_PROBE_ACK, TAG_PROBE_DATA, TAG_PROBE_END, Coordinator,
                                     FramedSocket, rendezvous, tcp_probe_client)


def run_cli(*argv):
    return main(list(argv))


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("sim", "nonsense", "--out", "/tmp/x") == EXIT_USAGE


def test_missing_config_exits_2(tmp_path, capsys):
    code = run_cli("launch", "--workers", "1",
                   "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE


def test_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"global_batch": 10, "per_device_batch": 4,
                               "workers": 2}))
    code = run_cli("launch", "--workers", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE


def test_sim_efficiency_emits_ten_rows(tmp_path, capsys):
    out = tmp_path / "eff"
    assert run_cli("sim", "efficiency", "--k", "138", "--out", str(out)) == EXIT_OK
    lines = (out / "efficiency.csv").read_text().splitlines()
    assert len(lines) == 11  # header + ten models
    assert (out / "efficiency.meta.json").exists()
    assert (out / "manifest.json").exists()


def test_sim_thermal_two_step_series(tmp_path, capsys):
    out = tmp_path / "th"
    assert run_cli("sim", "thermal", "--out", str(out)) == EXIT_OK
    rows = (out / "thermal.csv").read_text().splitlines()[1:]
    comps = [float(r.split(",")[5]) for r in rows]
    steps = sum(1 for a, b in zip(comps, comps[1:]) if b > a)
    assert steps == 2


@pytest.mark.parametrize("experiment,stem", [
    ("scaling", "scaling"),
    ("efficiency", "efficiency"),
    ("rar-vs-tree", "rar_vs_tree"),
])
def test_replay_reproduces_csv_byte_identically(tmp_path, experiment, stem, capsys):
    first = tmp_path / "first"
    assert run_cli("sim", experiment, "--out", str(first)) == EXIT_OK
    second = tmp_path / "second"
    assert run_cli("replay", str(first / "manifest.json"),
                   "--out", str(second)) == EXIT_OK
    assert (first / f"{stem}.csv").read_bytes() == (second / f"{stem}.csv").read_bytes()


@pytest.mark.parametrize("manifest", [{"argv": 5, "resolved_seed": 1}, [1, 2],
                                      {"argv": ["sim", 7], "resolved_seed": 1}],
                         ids=["int-argv", "a-list", "int-in-argv"])
def test_replay_of_a_file_that_is_not_a_manifest_exits_2(manifest, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("replay", str(path), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"config error: not a manifest (argv: list[str], resolved_seed: int): {path}"]


def test_replay_of_a_manifest_whose_argv_ends_in_out_exits_2(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"argv": ["sim", "thermal", "--out"], "resolved_seed": 1}))
    assert run_cli("replay", str(path), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sim", "thermal", "--out", "OUT", "--thermal"],
    ["replay", "--out", "OUT"],
    ["launch", "--workers", "2", "--out", "OUT", "--config"],
    ["worker", "--rank", "0", "--size", "2", "--coordinator", "127.0.0.1:1", "--config"],
], ids=["sim-thermal-preset", "replay-manifest", "launch-config", "worker-config"])
def test_a_json_path_that_cannot_be_read_exits_2_naming_it(argv, tmp_path, capsys):
    # a directory: it exists, but no file can be read from it
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
    assert run_cli(*argv, str(tmp_path)) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and f"'{tmp_path}'" in line


def test_seed_env_override_matches_flag(tmp_path, monkeypatch, capsys):
    out_flag = tmp_path / "flag"
    assert run_cli("sim", "collective", "--sizes", "65536", "--k", "2,4",
                   "--seed", "77", "--out", str(out_flag)) == EXIT_OK
    out_env = tmp_path / "env"
    monkeypatch.setenv("RINGTRAIN_SEED", "77")
    assert run_cli("sim", "collective", "--sizes", "65536", "--k", "2,4",
                   "--out", str(out_env)) == EXIT_OK
    assert ((out_flag / "collective.csv").read_bytes()
            == (out_env / "collective.csv").read_bytes())
    manifest = json.loads((out_env / "manifest.json").read_text())
    assert manifest["resolved_seed"] == 77


def test_sim_manifest_records_every_config_file(tmp_path, capsys):
    net2 = tmp_path / "link2.json"
    net2.write_bytes(preset_path("wifi5").read_bytes())
    out = tmp_path / "out"
    assert run_cli("sim", "collective", "--sizes", "65536", "--k", "2",
                   "--net2", str(net2), "--out", str(out)) == EXIT_OK
    configs = json.loads((out / "manifest.json").read_text())["configs"]
    # preset names are not files, so only the --net2 file is recorded
    assert configs == {"net2": {"path": str(net2),
                                "sha256": hashlib.sha256(net2.read_bytes()).hexdigest()}}


def test_sim_collective_prices_a_link_named_twice_once_with_the_run_seed(tmp_path, monkeypatch,
                                                                         capsys):
    monkeypatch.delenv("RINGTRAIN_SEED", raising=False)
    out = tmp_path / "out"
    # --net2 defaults to wifi5, so the run names one link twice
    assert run_cli("sim", "collective", "--net", "wifi5", "--k", "2", "--sizes", "8",
                   "--out", str(out)) == EXIT_OK
    seed = json.loads((out / "manifest.json").read_text())["resolved_seed"]
    assert json.loads((out / "collective.meta.json").read_text())["seed"] == seed
    expected = run_collective_bench([8], [2], {"wifi5": replace(load_net("wifi5"), seed=seed)},
                                    load_compute())
    expected.write(tmp_path / "expected")
    assert ((out / "collective.csv").read_bytes()
            == (tmp_path / "expected" / "collective.csv").read_bytes())


class FakeWorker:
    """Stands in for a worker process and starts none: rank 1 exits at once with
    return code ``failure`` (2), rank 0 runs until it is terminated."""

    failure = 2

    def __init__(self, cmd, env=None):
        self.returncode = self.failure if cmd[cmd.index("--rank") + 1] == "1" else None
        self.env = env
        self.stopped = threading.Event()

    def poll(self):
        return self.returncode

    def terminate(self):
        if self.returncode is None:
            self.returncode = -15
        self.stopped.set()

    def wait(self, timeout=None):
        # rank 0 gives up after 2 s, so a launcher that waits on it in rank
        # order fails the test below instead of hanging
        if self.returncode is None and not self.stopped.wait(2.0):
            self.returncode = 3
        return self.returncode


def test_launch_reports_the_first_failed_rank_at_once(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    monkeypatch.setattr(subprocess, "Popen", FakeWorker)
    t0 = time.perf_counter()
    code = run_cli("launch", "--workers", "2", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out"), "--timeout", "5")
    assert time.perf_counter() - t0 < 1.5   # rank 0 alone would hold it 2 s, rendezvous 5 s
    assert code == 2
    assert "worker rank 1 exited with code 2" in capsys.readouterr().err


def test_launch_prints_the_coordinators_failure_with_the_failed_rank(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    popen = subprocess.Popen

    def rank_1_never_registers(cmd, env=None):
        if cmd[cmd.index("--rank") + 1] == "1":
            cmd = [sys.executable, "-c", "import time; time.sleep(30)"]
        return popen(cmd, env=env)

    monkeypatch.setattr(subprocess, "Popen", rank_1_never_registers)
    code = run_cli("launch", "--workers", "2", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out"), "--timeout", "2")
    # rank 0 only sees its link to the coordinator close; the coordinator says why
    assert code == EXIT_COMM
    assert capsys.readouterr().err.splitlines() == [
        "coordinator failure: rendezvous timed out with 1/2 workers",
        "worker rank 0 exited with code 3"]


# a real-time signal, past the last one that has a name, is named by its number
@pytest.mark.parametrize("signum, name", [(signal.SIGKILL, "SIGKILL"),
                                          (max(signal.Signals) + 1, None)],
                         ids=["named", "unnamed"])
def test_a_worker_ended_by_a_signal_exits_3_naming_the_rank_and_signal(signum, name, tmp_path,
                                                                      monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)

    class KilledWorker(FakeWorker):
        failure = -signum   # how Popen reports a child ended by a signal

    monkeypatch.setattr(subprocess, "Popen", KilledWorker)
    code = run_cli("launch", "--workers", "2", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out"), "--timeout", "5")
    assert code == EXIT_COMM
    assert capsys.readouterr().err.splitlines() == [
        f"worker rank 1 was killed by {name or f'signal {signum}'}"]


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf", "3e6"])
@pytest.mark.parametrize("command", [
    ["launch", "--workers", "2"],
    ["worker", "--rank", "0", "--size", "2", "--coordinator", "127.0.0.1:1"],
], ids=["launch", "worker"])
def test_a_timeout_out_of_range_exits_2_before_any_socket_or_worker(command, timeout, tmp_path,
                                                                    monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened or a worker started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    assert run_cli(*command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   f"--timeout={timeout}") == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --timeout must be > 0 and at most 2147483 s, got {float(timeout)}"]


def _cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}],
                         ids=["unset", "user-set"])
def test_launch_gives_each_worker_its_share_of_the_cores(preset, tmp_path, monkeypatch, capsys):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in preset.items():
        monkeypatch.setenv(var, value)
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    started = []

    def popen(cmd, env=None):
        started.append(FakeWorker(cmd, env=env))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    run_cli("launch", "--workers", "2", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"), "--timeout", "5")
    # a value already set wins; the others get max(1, cores // K)
    expected = {var: preset.get(var, str(max(1, _cores() // 2))) for var in THREAD_VARS}
    assert len(started) == 2
    for worker in started:
        assert {var: worker.env[var] for var in THREAD_VARS} == expected


def test_launch_manifest_records_the_worker_thread_counts(tmp_path, monkeypatch, capsys):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "5")
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=8, per_device_batch=8, workers=1,
                   iterations=1, seed=0).to_json(cfg_path)
    out = tmp_path / "run"
    assert run_cli("launch", "--workers", "1", "--config", str(cfg_path),
                   "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    share = str(_cores())
    assert manifest["worker_threads"] == {"OPENBLAS_NUM_THREADS": share,
                                          "OMP_NUM_THREADS": share,
                                          "MKL_NUM_THREADS": "5"}


def worker_against_a_bad_table(tmp_path, capsys, table):
    """Run rank 0 of two against a stand-in coordinator that takes the registration and
    answers with the raw bytes ``table``; returns the exit code and stderr."""
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    coordinator = socket.create_server(("127.0.0.1", 0))
    host, port = coordinator.getsockname()

    def corrupt_table():
        with coordinator, coordinator.accept()[0] as sock:
            FramedSocket(sock).recv_frame(5.0)
            sock.sendall(table)
            sock.recv(1)   # hold the connection until the worker closes it

    server = threading.Thread(target=corrupt_table)
    server.start()
    t0 = time.perf_counter()
    code = run_cli("worker", "--rank", "0", "--size", "2", "--coordinator", f"{host}:{port}",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--timeout", "5")
    server.join(timeout=5.0)
    assert not server.is_alive()
    assert time.perf_counter() - t0 < 2.0
    return code, capsys.readouterr().err


def test_worker_exits_3_on_an_oversized_frame_length(tmp_path, capsys):
    # a header that claims 4 GiB
    code, err = worker_against_a_bad_table(
        tmp_path, capsys, FRAME_MAGIC + struct.pack(">II", 0xFFFF0002, 0xFFFFFFFF))
    assert code == EXIT_COMM
    assert err.startswith("communication failure:") and "exceeds" in err


@pytest.mark.parametrize("table", [
    b"not json", b'[["127.0.0.1", 1]]', b'{"0": "127.0.0.1:1", "1": "127.0.0.1:2"}',
    b'{"0": ["127.0.0.1"], "1": ["127.0.0.1", 2]}', b'{"1": ["127.0.0.1", 2]}',
], ids=["not-json", "a-list", "string-entries", "short-entry", "without-rank-0"])
def test_worker_exits_3_on_a_malformed_address_table(tmp_path, capsys, table):
    code, err = worker_against_a_bad_table(
        tmp_path, capsys, FRAME_MAGIC + struct.pack(">II", 0xFFFF0002, len(table)) + table)
    assert code == EXIT_COMM
    assert err.startswith("communication failure: malformed address table for rank 0")


def test_launch_k1_equals_direct_training(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=8, per_device_batch=8, workers=1,
                   iterations=5, seed=13).to_json(cfg_path)
    out = tmp_path / "run"
    assert run_cli("launch", "--workers", "1", "--config", str(cfg_path),
                   "--out", str(out)) == EXIT_OK

    from ringtrain.engine import Worker
    from ringtrain.transport.tcp import TcpEndpoint
    worker = Worker(TrainingConfig.from_json(cfg_path), TcpEndpoint(0, 1, {}))
    worker.run()
    saved = np.load(out / "weights_rank0.npz")
    for i, w in enumerate(worker.model.weights):
        assert (saved[f"w{i}"] == w).all()
    report = (out / "report.csv").read_text()
    assert report == (out / "metrics_rank0.csv").read_text()
    assert report.splitlines()[0] == "iter,rank,t_comp_s,t_comm_s,loss"
    assert len(report.splitlines()) == 6


# sha256 of each default `ringtrain sim` CSV on the ethernet preset. A change
# that moves the model on purpose updates these digests in the same commit;
# every other change must leave them alone. Ethernet has no jitter, but the
# collective bench's second link is wifi5, so that digest also rests on
# numpy's PCG64 lognormal stream.
DEFAULT_SIM_DIGESTS = {
    "scaling": "5f9215a206f86ff7bf8c4cfcc8dcecf514131f84704d36b3d9bfa79c0ec07f22",
    "collective": "a807c5e5f6fd92f723cc18afb3ffe0328c2f4c8cfb8721d773d1012a39f6aba3",
    "aggregation": "11938559e0e29152f7bf062f8a6ec7d7650b0fdfa20280c23ddc0d7d07387f1b",
    "efficiency": "79a4669707009963e5686b34e6bac56a13b465e3bbe24988f89939bf9786deea",
    "rar-vs-tree": "97c2d37646374f4b921a93307e3d99a6a6d11a3acd02c113eed266a338f6cd59",
    "thermal": "1b43649d9a3b85b956b4c5773f200175d9fe16566af43c524c00e61195b9e580",
}


@pytest.mark.parametrize("experiment", list(DEFAULT_SIM_DIGESTS))
def test_default_sim_csv_is_unchanged(experiment, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RINGTRAIN_SEED", raising=False)
    assert run_cli("sim", experiment, "--out", str(tmp_path)) == EXIT_OK
    csv = tmp_path / f"{experiment.replace('-', '_')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DEFAULT_SIM_DIGESTS[experiment]


# sha256 of each default `ringtrain sim --net wifi5` CSV, recorded before the
# cost model priced each schedule with one array call. wifi5 jitters every
# non-empty message, so these digests pin the number and order of the draws.
# The collective digest was recorded again when a link named by both --net and
# --net2 came to be priced once, with the run's seed.
WIFI5_SIM_DIGESTS = {
    "scaling": "9cd9fafe9842791a64e8b749c9ca81261b9e0158c52aeadf2ce3d9c5bdc911ff",
    "collective": "9e1bfbdc202dc2e77de4d2718f7142f6d4ea1d14d0e6d01fc2f54c7015e20a81",
    "aggregation": "d29751ffccb85f8b2e7e76b930ab7ac1f119616344e666c30afc3e3ab42096f0",
    "efficiency": "4f7d519762ab7b623d73847b7ee51f50dce11d4ab0996a431504a78aea785a4e",
    "rar-vs-tree": "b06abcc201c3be29b6caaef9c8feafb62fe425d0aefa4464e5bd8e395850e802",
    "thermal": "1b43649d9a3b85b956b4c5773f200175d9fe16566af43c524c00e61195b9e580",
}


@pytest.mark.parametrize("experiment", list(WIFI5_SIM_DIGESTS))
def test_wifi5_sim_csv_is_unchanged(experiment, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RINGTRAIN_SEED", raising=False)
    assert run_cli("sim", experiment, "--net", "wifi5", "--out", str(tmp_path)) == EXIT_OK
    csv = tmp_path / f"{experiment.replace('-', '_')}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == WIFI5_SIM_DIGESTS[experiment]


@pytest.mark.parametrize("k", ["0", "0,2", "-3"])
@pytest.mark.parametrize("experiment", ["scaling", "collective", "aggregation",
                                        "efficiency", "rar-vs-tree"])
def test_sim_with_fewer_than_one_worker_exits_2(experiment, k, tmp_path, capsys):
    assert run_cli("sim", experiment, f"--k={k}", "--out", str(tmp_path)) == EXIT_USAGE
    assert "k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,k", [
    *[(exp, "2050") for exp in ("scaling", "collective", "aggregation", "efficiency",
                                "rar-vs-tree")],
    *[(exp, "2,2050") for exp in ("scaling", "collective", "rar-vs-tree")]])
def test_sim_with_more_workers_than_a_tag_block_admits_exits_2(experiment, k, tmp_path, capsys):
    assert run_cli("sim", experiment, f"--k={k}", "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "config error: k must be >= 1 and at most 2049, got 2050"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment", ["scaling", "collective", "aggregation", "efficiency",
                                        "rar-vs-tree"])
def test_sim_at_the_largest_admitted_k_writes_its_csv(experiment, tmp_path, capsys):
    assert run_cli("sim", experiment, "--k=2049", "--batch=2049", "--sizes=65536",
                   "--out", str(tmp_path)) == EXIT_OK
    rows = (tmp_path / f"{experiment.replace('-', '_')}.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[3] == "2049" for row in rows)


@pytest.mark.parametrize("argv,workers,message", [
    (["launch", "--workers", "0"], 0, "config error: workers must be >= 1"),
    (["launch", "--workers", "-1"], -1, "config error: workers must be >= 1"),
    (["worker", "--rank", "-1", "--size", "2", "--coordinator", "127.0.0.1:1"], 2,
     "rank/size -1/2 inconsistent"),
    (["launch", "--workers", "3"], 2, "config error: --workers 3 does not match config workers=2"),
], ids=["launch-zero-workers", "launch-negative-workers", "worker-negative-rank",
        "launch-workers-not-the-config"])
def test_no_workers_or_a_negative_rank_exits_2(argv, workers, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"global_batch": 4 * workers, "per_device_batch": 4,
                               "workers": workers}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["scaling", "--k", ""], ["scaling", "--k", ","],
                                  ["collective", "--sizes", ""]],
                         ids=["empty-k", "comma-k", "empty-sizes"])
def test_sim_with_an_empty_int_list_exits_2_and_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("sim", *argv, "--out", str(out)) == EXIT_USAGE
    assert "expected comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size, message", [
    ("3", "for the ring, which moves whole float32 elements; got 3"),
    (str(2 ** 63), "below 2**63, and a multiple of 4 for the ring, which moves whole float32 "
                   "elements; got 9223372036854775808"),
    (str(2 ** 50), f"of 1125899906842624 bytes in 65536-byte segments sends 34359738368 "
                   f"messages, more than the {MAX_TREE_MESSAGES} it may")],
    ids=["sub-float", "past-int64", "long-tree"])
def test_sim_collective_with_a_size_it_cannot_price_exits_2_at_once(size, message, tmp_path,
                                                                    capsys):
    t0 = time.perf_counter()
    assert run_cli("sim", "collective", "--sizes", size, "--k", "2",
                   "--out", str(tmp_path)) == EXIT_USAGE
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "collective.csv").exists()


@pytest.mark.parametrize("experiment", ["aggregation", "efficiency"])
def test_sim_at_one_k_rejects_a_list_of_k(experiment, tmp_path, capsys):
    assert run_cli("sim", experiment, "--k", "8,16", "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: " in err and "8,16" in err


def test_an_unknown_model_exits_2_with_the_bare_message(tmp_path, capsys):
    assert run_cli("sim", "aggregation", "--model", "Nope", "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error: unknown model profile 'Nope'; known names: AlexNet, GoogleNet, "
        "Inception-v3, Mobilenet-v1, Mobilenet-v2, ResNet-101, ResNet-152, ResNet-50, "
        "SequeezeNet-v1.0, SequeezeNet-v1.1, SqueezeNet-v1.0, SqueezeNet-v1.1\n")


def test_probe_sim_reports_profile_rate(capsys):
    assert run_cli("probe", "--sim", "ethernet", "--seconds", "2",
                   "--repeat", "3") == EXIT_OK
    line = capsys.readouterr().out.strip()
    mean = float(line.split()[0])
    assert abs(mean - 940.0) / 940.0 < 0.01
    assert "+-" in line and "3 runs" in line


def test_probe_real_loopback(probe_session, capsys):
    addr, thread, failures = probe_session
    assert run_cli("probe", "--client", f"{addr[0]}:{addr[1]}",
                   "--seconds", "0.05", "--repeat", "2") == EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split()[0]) > 0
    thread.join(timeout=5.0)
    assert failures == []


@pytest.mark.parametrize("flags", [["--repeat", "0"], ["--repeat", "-2"],
                                   ["--seconds", "0"], ["--seconds", "-1"],
                                   ["--seconds", "nan"], ["--seconds", "inf"]])
@pytest.mark.parametrize("mode", [["--sim", "wifi5"], ["--client", "127.0.0.1:1"]],
                         ids=["sim", "client"])
def test_probe_without_repeats_or_time_exits_2(mode, flags, capsys):
    assert run_cli("probe", *mode, *flags) == EXIT_USAGE
    assert "--repeat >= 1 and --seconds > 0" in capsys.readouterr().err


@pytest.mark.parametrize("net", ["ethernet", "wifi5"])
def test_a_sim_probe_over_the_message_cap_exits_2_at_once(net, capsys):
    """The cap counts messages at the preset's jitter-free transfer time."""
    per_message = sim_transfer_time(PROBE_MESSAGE_BYTES, 2,
                                    replace(load_net(net), jitter_frac=0.0))
    seconds = 1.01 * MAX_PROBE_MESSAGES * per_message / 2
    t0 = time.perf_counter()
    assert run_cli("probe", "--sim", net, "--seconds", str(seconds),
                   "--repeat", "2") == EXIT_USAGE
    assert time.perf_counter() - t0 < 1.0
    assert f"the {MAX_PROBE_MESSAGES} messages a simulated probe may send" \
        in capsys.readouterr().err


@pytest.mark.parametrize("frames", [[(7, b"")], [(TAG_PROBE_DATA, b"x" * 10)]],
                         ids=["wrong-tag", "closed-before-end"])
def test_probe_server_exits_3_when_its_session_fails(frames):
    with subprocess.Popen([sys.executable, "-m", "ringtrain", "probe", "--server"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        host, port = proc.stdout.readline().split()[-1].rsplit(":", 1)
        fs = FramedSocket(socket.create_connection((host, int(port))))
        for tag, payload in frames:
            fs.send_frame(tag, payload)
        fs.close()
        _, err = proc.communicate(timeout=20)
    assert proc.returncode == EXIT_COMM
    assert "communication failure: " in err


def test_probe_server_and_client_processes_complete_a_session():
    with subprocess.Popen([sys.executable, "-m", "ringtrain", "probe", "--server"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as server:
        try:
            address = server.stdout.readline().split()[-1]
            client = subprocess.run([sys.executable, "-m", "ringtrain", "probe", "--client",
                                     address, "--seconds", "0.05", "--repeat", "2"],
                                    capture_output=True, text=True, timeout=60)
            server.communicate(timeout=20)
        finally:
            server.kill()
    assert (server.returncode, client.returncode) == (EXIT_OK, EXIT_OK)
    assert float(client.stdout.split()[0]) > 0 and "2 runs" in client.stdout


@pytest.mark.parametrize("ack,error", [
    ((TAG_PROBE_ACK, b"lots"), ProtocolError),
    ((TAG_PROBE_ACK, b"12"), ProtocolError),   # a bare count, not a JSON object
    ((TAG_PROBE_DATA, b'{"received": 12}'), TagMismatch),
], ids=["not-json", "not-an-object", "wrong-tag"])
def test_probe_client_exits_3_on_a_malformed_ack(ack, error, capsys):
    """A stand-in server answers the END frame of each of two sessions with ``ack``."""
    failures = []

    def serve(listener):
        for _ in range(2):
            with listener.accept()[0] as sock:
                fs = FramedSocket(sock)
                while fs.recv_frame(5.0)[0] != TAG_PROBE_END:
                    pass
                fs.send_frame(*ack)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()
        server = threading.Thread(target=serve, args=(listener,), daemon=True)
        server.start()
        code = run_cli("probe", "--client", f"{host}:{port}", "--seconds", "0.01",
                       "--repeat", "1")
        try:
            tcp_probe_client((host, port), 0.01, repeat=1)
        except CommunicationError as exc:   # not exc: its frames would keep a leak alive
            failures.append(type(exc))
        server.join(timeout=10.0)
    assert code == EXIT_COMM
    assert "communication failure: " in capsys.readouterr().err
    assert failures == [error]


@pytest.mark.parametrize("argv,code,message", [
    (["probe", "--server", "--bind", "127.0.0.1:70000"], EXIT_USAGE, "up to 65535"),
    (["probe", "--client", "127.0.0.1:70000"], EXIT_USAGE, "up to 65535"),
    (["worker", "--rank", "0", "--size", "1", "--coordinator", "127.0.0.1:70000",
      "--config", "CONFIG", "--out", "OUT"], EXIT_USAGE, "up to 65535"),
    (["probe", "--server", "--bind", "203.0.113.7:5201"], EXIT_COMM,
     "communication failure: cannot listen on 203.0.113.7:5201: "),
    (["probe", "--server", "--bind", "TAKEN"], EXIT_COMM,
     "communication failure: cannot listen on 127.0.0.1:"),
], ids=["bind-port-range", "client-port-range", "coordinator-port-range",
        "bind-address-not-local", "bind-port-in-use"])
def test_a_bad_host_port_flag_exits_with_its_code(argv, code, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=2, per_device_batch=2, workers=1,
                   iterations=1, seed=0).to_json(cfg_path)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        names = {"CONFIG": str(cfg_path), "OUT": str(tmp_path),
                 "TAKEN": f"127.0.0.1:{taken.getsockname()[1]}"}
        assert run_cli(*(names.get(arg, arg) for arg in argv)) == code
    assert message in capsys.readouterr().err


THERMAL = json.loads(preset_path("thermal_s10").read_text())


@pytest.mark.parametrize("argv,config", [
    (["launch", "--workers", "2", "--config"],
     {"global_batch": 4, "per_device_batch": 2, "workers": 2, "no_such_key": 1}),
    (["launch", "--workers", "2", "--config"], {"global_batch": 4, "per_device_batch": 2}),
    (["worker", "--rank", "0", "--size", "2", "--coordinator", "127.0.0.1:1", "--config"],
     [4, 2, 2]),
    (["sim", "scaling", "--net"], {"base_bandwidth": 940.0, "latency": 1e-4, "no_such_key": 1}),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "no_such_key": 1}),
    (["sim", "thermal", "--thermal"], [25.0, 0.1, 0.05]),
    (["sim", "thermal", "--thermal"],
     {**{k: v for k, v in THERMAL.items() if k != "idle_s"}, "idle_seconds": 5.0}),
    (["sim", "thermal", "--thermal"], {**THERMAL, "no_such_key": 1}),
], ids=["launch-unknown-key", "launch-missing-workers", "worker-list", "sim-net", "sim-compute",
        "thermal-list", "thermal-renamed-key", "thermal-unknown-key"])
def test_config_file_with_wrong_keys_exits_2(argv, config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(*argv, str(cfg_path), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    ({**THERMAL, "temp": 30.0}, "unknown keys ['temp']"),
    ({k: v for k, v in THERMAL.items() if k != "tiers"}, "missing keys ['tiers']"),
], ids=["start-temperature", "no-tiers"])
def test_a_thermal_file_must_hold_exactly_the_preset_keys(config, message, tmp_path, capsys):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps(config))
    assert run_cli("sim", "thermal", "--thermal", str(path),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert f"config error: ThermalPreset config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config", [
    (["launch", "--workers", "2", "--config"],
     {"global_batch": 4, "per_device_batch": 2, "workers": "2"}),
    (["launch", "--workers", "2", "--config"],
     {"global_batch": 4, "per_device_batch": 2, "workers": 2, "model_dims": []}),
    (["sim", "scaling", "--net"], {"base_bandwidth": "940", "latency": 1e-4}),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "work_per_sample": {"GoogleNet": "x"}}),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "work_per_sample": {"GoogleNet": [1]}}),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "work_per_sample": {"GoogleNet": 0}}),
], ids=["launch-string-workers", "launch-no-model-dims", "sim-string-bandwidth",
        "sim-string-work", "sim-list-work", "sim-zero-work"])
def test_config_file_with_wrong_values_exits_2(argv, config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(*argv, str(cfg_path), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert "config error: " in capsys.readouterr().err


LAUNCH2 = ["launch", "--workers", "2", "--config"]
BASE = {"global_batch": 4, "per_device_batch": 2, "workers": 2}
# one worker more than a collective's tag block admits
WORKERS_2050 = {"global_batch": 4100, "per_device_batch": 2, "workers": 2050, "dataset_size": 4100}


@pytest.mark.parametrize("argv,config,message", [
    (LAUNCH2, {**BASE, "base_lr": "0.1"}, "base_lr must be of type float, got \"0.1\""),
    (LAUNCH2, {**BASE, "model_dims": [2, 0, 2]}, "every model_dims entry must be >= 1"),
    (LAUNCH2, {**BASE, "model_dims": [2, 2.0, 2]}, "model_dims must be of type list[int]"),
    (LAUNCH2, {**BASE, "iterations": True}, "iterations must be of type int, got true"),
    (LAUNCH2, {**BASE, "aggregation": 1}, "aggregation must be of type str"),
    (["sim", "scaling", "--net"], {"base_bandwidth": 940, "latency": 1e-4, "seed": 1.5},
     "seed must be of type int"),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "work_per_sample": {"GoogleNet": True}},
     "work_per_sample must be of type dict[str, float]"),
    (["sim", "thermal", "--thermal"], {**THERMAL, "tiers": [[42.0, 1.1, 3.0]]},
     "tiers must be of type list[tuple[float, float]]"),
    (["sim", "thermal", "--thermal"], {**THERMAL, "heat_rate": "hot"},
     "heat_rate must be of type float, got \"hot\""),
    (LAUNCH2, {**BASE, "model_dims": [2, 8, 1], "dataset_classes": 1},
     "dataset_classes must be >= 2"),
    (LAUNCH2, {**BASE, **WORKERS_2050}, "workers must be >= 1 and at most 2049, got 2050"),
    (LAUNCH2, {**BASE, "global_batch": 0, "per_device_batch": 0}, "per_device_batch must be >= 1"),
    (LAUNCH2, {**BASE, "lr_scaling": "sqrt"}, "lr_scaling must be one of ('none', 'linear')"),
    (LAUNCH2, {**BASE, "dataset_size": 3}, "dataset must hold at least one global batch"),
    (LAUNCH2, {**BASE, "model_dims": [2, 8, 3]}, "model output dim must equal dataset class count"),
    (["sim", "scaling", "--net"], {"base_bandwidth": 0, "latency": 1e-4},
     "base_bandwidth must be positive"),
    (["sim", "scaling", "--net"], {"base_bandwidth": 940, "latency": 1e-4, "disconnect_prob": 1},
     "disconnect_prob must be in [0, 1)"),
    (["sim", "scaling", "--net"], {"base_bandwidth": 940, "latency": -1e-4},
     "latency, jitter_frac and contention_coeff must be >= 0"),
    (["sim", "scaling", "--compute"], {"throughput": 0},
     "throughput and pack_bandwidth must be positive"),
    (["sim", "scaling", "--compute"], {"throughput": 1e8, "tree_segment_bytes": 0},
     "invocation_overhead >= 0 and tree_segment_bytes >= 1"),
    (["sim", "thermal", "--thermal"], {**THERMAL, "cool_rate": -0.1},
     "heat_rate and cool_rate must be >= 0"),
], ids=["launch-string-lr", "launch-zero-width-layer", "launch-float-dim", "launch-bool-iterations",
        "launch-int-aggregation", "sim-float-seed", "sim-bool-work", "thermal-long-tier",
        "thermal-string-heat-rate", "launch-one-class", "launch-2050-workers",
        "launch-empty-batch", "launch-unknown-lr-scaling", "launch-dataset-under-a-batch",
        "launch-output-dim-not-class-count", "sim-no-bandwidth", "sim-every-message-dropped",
        "sim-negative-latency", "sim-no-throughput", "sim-empty-tree-segment",
        "thermal-negative-cool-rate"])
def test_config_values_are_checked_against_their_field_types(argv, config, message, tmp_path,
                                                             capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(*argv, str(cfg_path), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    ({**BASE, "model_dims": [2, 8, 1], "dataset_classes": 1}, "dataset_classes must be >= 2"),
    (WORKERS_2050, "workers must be >= 1 and at most 2049, got 2050"),
    ({**BASE, "model_dims": [100000, 1000, 2], "aggregation": "tree_packed"},
     "model_dims [100000, 1000, 2] give a 400008000-byte gradient, "
     "over the 268435456-byte frame payload bound"),
], ids=["one-class", "2050-workers", "gradient-over-the-frame-bound"])
def test_a_config_no_worker_could_run_exits_2_before_any_socket_or_worker(config, message, tmp_path,
                                                                         monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened or a worker started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    assert run_cli("launch", "--workers", str(config["workers"]), "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", [
    ["sim", "thermal"],
    ["launch", "--workers", "2", "--config", "CFG"],
    ["worker", "--rank", "0", "--size", "2", "--coordinator", "127.0.0.1:1", "--config", "CFG"],
], ids=["sim", "launch", "worker"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_any_work(command, below, tmp_path,
                                                                    monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "x" if below else blocker

    def refuse(*args, **kwargs):
        raise AssertionError("the experiment ran, a socket was opened or a worker started")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(harness, "run_thermal_scenario", refuse)
    argv = [str(cfg_path) if arg == "CFG" else arg for arg in command]
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot make the --out directory {out}: "
        f"{'Not a directory' if below else 'File exists'}"]
    assert blocker.read_text() == "kept"


def test_an_int_is_a_float(tmp_path):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps({**THERMAL, "ambient": 25}))
    assert load_thermal(path).ambient == 25
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "base_lr": 1, "iterations": 1}))
    assert TrainingConfig.from_json(cfg_path).base_lr == 1


@pytest.mark.parametrize("bad", [{"baseline_t_comp_s": 0, "idle_s": 0}, {"idle_s": -20},
                                 {"fan_cool_multiplier": 0}],
                         ids=["no-time-passes", "negative-idle", "no-fan-cooling"])
def test_thermal_preset_out_of_bounds_is_rejected(bad, tmp_path, capsys):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps({**THERMAL, **bad}))
    with pytest.raises(ValueError, match="thermal preset needs"):
        load_thermal(path)
    assert run_cli("sim", "thermal", "--thermal", str(path), "--out", str(tmp_path)) == EXIT_USAGE


@pytest.mark.parametrize("duration", ["-1", "nan"])
def test_sim_thermal_without_a_valid_duration_exits_2(duration, tmp_path, capsys):
    assert run_cli("sim", "thermal", f"--duration={duration}",
                   "--out", str(tmp_path)) == EXIT_USAGE
    assert "duration must be finite and >= 0" in capsys.readouterr().err


def test_sim_thermal_with_an_infinite_duration_exits_2(tmp_path):
    # a subprocess, so a loop that never ends fails the test instead of hanging it
    proc = subprocess.run([sys.executable, "-m", "ringtrain", "sim", "thermal",
                           "--duration", "inf", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert "duration must be finite and >= 0" in proc.stderr


def test_sim_thermal_with_a_duration_over_the_row_cap_exits_2(tmp_path):
    # 1e9 s is about 43 million cycles of the shipped preset; a subprocess, so a
    # run that starts them fails the test instead of hanging it
    proc = subprocess.run([sys.executable, "-m", "ringtrain", "sim", "thermal",
                           "--duration", "1e9", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert "over the 100000 a thermal run may write" in proc.stderr
    assert not (tmp_path / "thermal.csv").exists()


def test_probe_sim_seed_env_matches_flag(monkeypatch, capsys):
    argv = ["probe", "--sim", "wifi5", "--seconds", "0.2", "--repeat", "3"]
    monkeypatch.delenv("RINGTRAIN_SEED", raising=False)
    assert run_cli(*argv, "--seed", "5") == EXIT_OK
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("RINGTRAIN_SEED", "5")
    assert run_cli(*argv) == EXIT_OK
    assert capsys.readouterr().out == by_flag


def test_a_seed_env_that_is_not_an_integer_exits_2_naming_it(monkeypatch, capsys):
    monkeypatch.setenv("RINGTRAIN_SEED", "abc")
    assert run_cli("probe", "--sim", "wifi5", "--seconds", "0.2", "--repeat", "1") == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "config error: RINGTRAIN_SEED must be an integer, got 'abc'"]


def test_worker_rendezvous_timeout_exits_3(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    # no coordinator is listening on this port
    proc = subprocess.run(
        [sys.executable, "-m", "ringtrain", "worker", "--rank", "0", "--size", "2",
         "--coordinator", "127.0.0.1:1", "--config", str(cfg_path),
         "--out", str(tmp_path), "--timeout", "1"],
        capture_output=True, timeout=60)
    assert proc.returncode == 3


def test_peer_failing_mid_training_exits_3(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    coord = Coordinator("127.0.0.1", 0, 2, timeout=10)
    coord.start()
    host, port = coord.address
    with subprocess.Popen(
            [sys.executable, "-m", "ringtrain", "worker", "--rank", "0", "--size", "2",
             "--coordinator", f"{host}:{port}", "--config", str(cfg_path),
             "--out", str(tmp_path), "--timeout", "10"],
            stderr=subprocess.PIPE, text=True) as proc:
        # rank 1 joins the mesh and then fails before its first message
        rendezvous(coord.address, 1, 2, timeout=10).close()
        _, err = proc.communicate(timeout=10)
    coord.join()
    assert proc.returncode == EXIT_COMM
    assert "communication failure: rank 0 failed during aggregate at iteration 0" in err
    assert "(peer rank 1)" in err


def test_worker_with_a_silent_peer_exits_3_within_its_timeout(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    coord = Coordinator("127.0.0.1", 0, 2, timeout=10)
    coord.start()
    host, port = coord.address
    peer = None
    with subprocess.Popen(
            [sys.executable, "-m", "ringtrain", "worker", "--rank", "0", "--size", "2",
             "--coordinator", f"{host}:{port}", "--config", str(cfg_path),
             "--out", str(tmp_path), "--timeout", "2"],
            stderr=subprocess.PIPE, text=True) as proc:
        try:
            # rank 1 joins the mesh and then never sends or reads a frame
            peer = rendezvous(coord.address, 1, 2, timeout=10)
            _, err = proc.communicate(timeout=8)
        finally:
            proc.kill()
            if peer is not None:
                peer.close()
    coord.join(timeout=10)
    assert not coord.is_alive()
    assert proc.returncode == EXIT_COMM
    assert "communication failure: rank 0 failed during aggregate at iteration 0 " \
           "(peer rank 1)" in err


def test_terminating_launcher_terminates_workers(tmp_path):
    import signal
    import time
    cfg_path = tmp_path / "long_running_marker_cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=500_000, seed=0).to_json(cfg_path)
    launcher = subprocess.Popen(
        [sys.executable, "-m", "ringtrain", "launch", "--workers", "2",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    try:
        deadline = time.time() + 20
        while time.time() < deadline:
            probe = subprocess.run(["pgrep", "-f", f"ringtrain worker --rank.*{cfg_path.name}"],
                                   capture_output=True)
            if probe.stdout.strip():
                break
            time.sleep(0.2)
        else:
            pytest.fail("workers never started")
        launcher.send_signal(signal.SIGTERM)
        launcher.wait(timeout=20)
        deadline = time.time() + 10
        while time.time() < deadline:
            probe = subprocess.run(["pgrep", "-f", f"ringtrain worker --rank.*{cfg_path.name}"],
                                   capture_output=True)
            if not probe.stdout.strip():
                break
            time.sleep(0.2)
        else:
            pytest.fail("workers survived launcher termination")
    finally:
        if launcher.poll() is None:
            launcher.kill()
        subprocess.run(["pkill", "-f", f"ringtrain worker --rank.*{cfg_path.name}"],
                       capture_output=True)


def test_embedded_assertion_failure_exits_4(tmp_path, monkeypatch, capsys):
    import ringtrain.harness as harness
    from ringtrain.errors import AssertionFailure

    def broken(*a, **kw):
        raise AssertionFailure("monotonicity violated")

    monkeypatch.setattr(harness, "run_scaling_experiment", broken)
    code = run_cli("sim", "scaling", "--out", str(tmp_path / "out"))
    assert code == EXIT_ASSERT
    assert "assertion failure" in capsys.readouterr().err


def test_version_flag():
    assert run_cli("--version") == 0
