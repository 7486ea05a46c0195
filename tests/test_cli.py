import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ringtrain.cli import EXIT_ASSERT, EXIT_COMM, EXIT_OK, EXIT_USAGE, THREAD_VARS, main
from ringtrain.engine import TrainingConfig
from ringtrain.preset import preset_path
from ringtrain.transport.frame import FRAME_MAGIC
from ringtrain.transport.tcp import (TAG_PROBE_DATA, Coordinator, FramedSocket, rendezvous,
                                     tcp_probe_server)


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


class FakeWorker:
    """Stands in for a worker process and starts none: rank 1 exits with code 2
    at once, rank 0 runs until it is terminated."""

    def __init__(self, cmd, env=None):
        self.returncode = 2 if cmd[cmd.index("--rank") + 1] == "1" else None
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


def test_worker_exits_3_on_an_oversized_frame_length(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    TrainingConfig(global_batch=4, per_device_batch=2, workers=2,
                   iterations=1, seed=0).to_json(cfg_path)
    coordinator = socket.create_server(("127.0.0.1", 0))
    host, port = coordinator.getsockname()

    def corrupt_table():
        # take the registration, then answer with a header that claims 4 GiB
        with coordinator, coordinator.accept()[0] as sock:
            FramedSocket(sock).recv_frame(5.0)
            sock.sendall(FRAME_MAGIC + struct.pack(">II", 0xFFFF0002, 0xFFFFFFFF))
            sock.recv(1)   # hold the connection until the worker closes it

    server = threading.Thread(target=corrupt_table)
    server.start()
    t0 = time.perf_counter()
    code = run_cli("worker", "--rank", "0", "--size", "2", "--coordinator", f"{host}:{port}",
                   "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--timeout", "5")
    server.join(timeout=5.0)
    assert not server.is_alive()
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_COMM
    assert "exceeds" in capsys.readouterr().err


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
WIFI5_SIM_DIGESTS = {
    "scaling": "9cd9fafe9842791a64e8b749c9ca81261b9e0158c52aeadf2ce3d9c5bdc911ff",
    "collective": "f014dc8e2fbd2f31492df738bcd853d47bfba6fe6cc4377e7b01b0b730fc9465",
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


@pytest.mark.parametrize("argv,workers,message", [
    (["launch", "--workers", "0"], 0, "config error: workers must be >= 1"),
    (["launch", "--workers", "-1"], -1, "config error: workers must be >= 1"),
    (["worker", "--rank", "-1", "--size", "2", "--coordinator", "127.0.0.1:1"], 2,
     "rank/size -1/2 inconsistent"),
], ids=["launch-zero-workers", "launch-negative-workers", "worker-negative-rank"])
def test_no_workers_or_a_negative_rank_exits_2(argv, workers, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"global_batch": 4 * workers, "per_device_batch": 4,
                               "workers": workers}))
    assert run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["aggregation", "efficiency"])
def test_sim_at_one_k_rejects_a_list_of_k(experiment, tmp_path, capsys):
    assert run_cli("sim", experiment, "--k", "8,16", "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: " in err and "8,16" in err


def test_probe_sim_reports_profile_rate(capsys):
    assert run_cli("probe", "--sim", "ethernet", "--seconds", "2",
                   "--repeat", "3") == EXIT_OK
    line = capsys.readouterr().out.strip()
    mean = float(line.split()[0])
    assert abs(mean - 940.0) / 940.0 < 0.01
    assert "+-" in line and "3 runs" in line


def test_probe_real_loopback(capsys):
    addr, _ = tcp_probe_server("127.0.0.1", 0)
    assert run_cli("probe", "--client", f"{addr[0]}:{addr[1]}",
                   "--seconds", "0.05", "--repeat", "2") == EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split()[0]) > 0


@pytest.mark.parametrize("flags", [["--repeat", "0"], ["--repeat", "-2"],
                                   ["--seconds", "0"], ["--seconds", "-1"]])
@pytest.mark.parametrize("mode", [["--sim", "wifi5"], ["--client", "127.0.0.1:1"]],
                         ids=["sim", "client"])
def test_probe_without_repeats_or_time_exits_2(mode, flags, capsys):
    assert run_cli("probe", *mode, *flags) == EXIT_USAGE
    assert "--repeat >= 1 and --seconds > 0" in capsys.readouterr().err


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
    import ringtrain.cli as cli
    from ringtrain.errors import AssertionFailure

    def broken(*a, **kw):
        raise AssertionFailure("monotonicity violated")

    monkeypatch.setattr(cli, "run_scaling_experiment", broken)
    code = run_cli("sim", "scaling", "--out", str(tmp_path / "out"))
    assert code == EXIT_ASSERT
    assert "assertion failure" in capsys.readouterr().err


def test_version_flag():
    assert run_cli("--version") == 0
