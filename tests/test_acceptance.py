"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they happen.
"""

import dataclasses
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ringtrain.cli import EXIT_OK, main as cli_main
from ringtrain.collectives import CommGroup, ring_allreduce, tree_allreduce
from ringtrain.engine import TrainingConfig, run_training_sim
from ringtrain.harness import (contention_slowdown, count_upward_steps,
                               fit_contention_coeff, fit_invocation_overhead,
                               fit_throughput_boundary, aggregation_comm_time,
                               run_efficiency_sweep, run_rar_vs_tree,
                               run_scaling_experiment, run_thermal_scenario)
from ringtrain.model import RealModel
from ringtrain.preset import load_compute, load_net, load_thermal
from ringtrain.profiles import PROFILE_NAMES, build_profile
from ringtrain.transport.net import NetProfile
from ringtrain.transport.sim import SimCluster
from support import Recording, finite_difference_check, write_config

ETH = load_net("ethernet")
WIFI = load_net("wifi5")
COMPUTE = load_compute()
SIM_NET = NetProfile(base_bandwidth=940.0, latency=1e-4, seed=0)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d} PASS  {description}  [{elapsed:.1f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_collective_correctness():
    with criterion(1, "ring/tree allreduce match the central sum; ring sends 2(K-1)", 60):
        for k in range(1, 9):
            for n in sorted({1, max(k - 1, 1), k, k + 1, 1000}):
                rng = np.random.default_rng(k * 7919 + n)
                floats = [rng.normal(size=n).astype(np.float32) for _ in range(k)]
                ints = [np.floor(rng.uniform(-50, 50, size=n)).astype(np.float32)
                        for _ in range(k)]
                float_sum = np.sum(np.stack(floats).astype(np.float64), axis=0)
                int_sum = np.sum(np.stack(ints), axis=0)
                cluster = SimCluster(k, SIM_NET)

                def task(ep):
                    ep = Recording(ep)
                    g = CommGroup(ep)
                    r = ring_allreduce(floats[ep.rank].copy(), g)
                    t = tree_allreduce(floats[ep.rank].copy(), g)
                    sends_before_ints = ep.n_sends
                    ri = ring_allreduce(ints[ep.rank].copy(), g)
                    ring_sends = ep.n_sends - sends_before_ints
                    return r, t, ri, ring_sends

                scale = max(1.0, float(np.abs(float_sum).max()))
                for r, t, ri, ring_sends in cluster.run(task):
                    assert float(np.abs(r - float_sum).max()) <= 1e-6 * scale
                    assert float(np.abs(t - float_sum).max()) <= 1e-6 * scale
                    assert (ri == int_sum).all(), "integer payloads must be exact"
                    assert ring_sends == 2 * (k - 1)


def test_criterion_02_gradient_correctness():
    with criterion(2, "finite-difference gradient check <= 1e-3 on a small model", 10):
        model = RealModel([6, 10, 4], seed=3)           # 100 parameters
        assert model.param_count() <= 1000
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        err = finite_difference_check(model, x, y, step=1e-3)
        assert err <= 1e-3, f"max relative gradient error {err}"


def _final_weights_real(k: int, tmp_path, iterations: int = 100):
    cfg = TrainingConfig(global_batch=32, per_device_batch=32 // k, workers=k,
                         iterations=iterations, seed=42)
    cfg_path = tmp_path / f"cfg_k{k}.json"
    write_config(cfg, cfg_path)
    out = tmp_path / f"real_k{k}"
    code = cli_main(["launch", "--workers", str(k), "--config", str(cfg_path),
                     "--out", str(out)])
    assert code == EXIT_OK
    saved = np.load(out / f"weights_rank0.npz")
    return [saved[f"w{i}"] for i in range(len(saved.files))]


def _final_weights_sim(k: int, iterations: int = 100):
    cfg = TrainingConfig(global_batch=32, per_device_batch=32 // k, workers=k,
                         iterations=iterations, seed=42)
    _, models = run_training_sim(cfg, SIM_NET)
    return models[0].weights


def _rel_diff(weights, reference):
    worst = 0.0
    for w, ref in zip(weights, reference):
        worst = max(worst, float(np.linalg.norm(w - ref) / np.linalg.norm(ref)))
    return worst


def test_criterion_03_synchronous_equivalence(tmp_path):
    with criterion(3, "K in {2,4,8} match K=1 weights within 1e-4 (TCP and sim)", 120):
        reference = _final_weights_real(1, tmp_path)
        for k in (2, 4, 8):
            real = _final_weights_real(k, tmp_path)
            assert _rel_diff(real, reference) <= 1e-4, f"real mode K={k}"
        sim_reference = _final_weights_sim(1)
        assert _rel_diff(sim_reference, reference) == 0.0  # same arithmetic path
        for k in (2, 4, 8):
            sim = _final_weights_sim(k)
            assert _rel_diff(sim, sim_reference) <= 1e-4, f"sim mode K={k}"


def test_criterion_04_fixed_batch_scaling():
    with criterion(4, "scaling: compute halves, comm grows, total(32) > total(16)", 60):
        report = run_scaling_experiment("GoogleNet", 32, [1, 2, 4, 8, 16, 32],
                                        ETH, COMPUTE)
        rows = {r.k: r for r in report.rows}
        for k in (1, 2, 4, 8, 16):
            assert rows[2 * k].t_comp == pytest.approx(rows[k].t_comp / 2, rel=0.05)
        comms = [rows[k].t_comm for k in (1, 2, 4, 8, 16, 32)]
        assert all(b >= a for a, b in zip(comms, comms[1:]))
        assert rows[32].t_total > rows[16].t_total
        # the shipped throughput sits above the calibrated inversion boundary
        assert fit_throughput_boundary(ETH, COMPUTE) < COMPUTE.throughput


def test_criterion_05_contention_calibration():
    with criterion(5, "37.5MB allreduce slows 63x +-20% on wifi, <=1.5x on ethernet", 60):
        assert ETH.contention_coeff == 0.0   # only the wifi endpoint is fitted
        wifi_ratio = contention_slowdown(WIFI, COMPUTE)
        assert 63.0 * 0.8 <= wifi_ratio <= 63.0 * 1.2, f"wifi ratio {wifi_ratio}"
        eth_ratio = contention_slowdown(ETH, COMPUTE)
        assert eth_ratio <= 1.5, f"ethernet ratio {eth_ratio}"
        # refit from scratch: bisection on the single wifi endpoint reproduces
        # the shipped coefficient
        refit = fit_contention_coeff(
            dataclasses.replace(WIFI, contention_coeff=0.0), COMPUTE, 63.0)
        assert refit == pytest.approx(WIFI.contention_coeff, rel=0.01)


def test_criterion_06_aggregation_comparison():
    with criterion(6, "chunk-wise ratio ~84:47 after overhead fit; packing wins "
                      "except AlexNet", 60):
        fitted = fit_invocation_overhead(ETH, COMPUTE, 84.0)
        compute = dataclasses.replace(COMPUTE, invocation_overhead=fitted)
        t_incep = aggregation_comm_time(build_profile("Inception-v3"), 138, ETH,
                                        compute, "ring_chunkwise")
        t_r50 = aggregation_comm_time(build_profile("ResNet-50"), 138, ETH,
                                      compute, "ring_chunkwise")
        ratio = t_incep / t_r50
        target = 84.0 / 47.0
        assert abs(ratio - target) <= 0.25 * target, f"ratio {ratio} vs {target}"
        for name in PROFILE_NAMES:
            profile = build_profile(name)
            cw = aggregation_comm_time(profile, 138, ETH, compute, "ring_chunkwise")
            packed = aggregation_comm_time(profile, 138, ETH, compute, "ring_packed")
            if name == "AlexNet":
                assert cw < packed, "chunk-wise should win on the low-chunk model"
                assert cw <= packed * 1.1, "and only slightly"
            else:
                assert cw >= packed, f"{name}: packing should win"


def test_criterion_07_efficiency_sweep():
    with criterion(7, "K=138 sweep: SqueezeNet-v1.1 max ~85.8%, ResNet-152 min "
                      "~12.2%", 60):
        report = run_efficiency_sweep(138, ETH, COMPUTE)
        eff = {r.model: 100.0 * r.efficiency for r in report.rows}
        assert len(eff) == 10
        best = max(eff, key=eff.get)
        worst = min(eff, key=eff.get)
        assert best == "SequeezeNet-v1.1", f"max efficiency was {best}"
        assert worst == "ResNet-152", f"min efficiency was {worst}"
        assert abs(eff["SequeezeNet-v1.1"] - 85.8) <= 10.0
        assert abs(eff["ResNet-152"] - 12.2) <= 10.0


def test_criterion_08_rar_vs_tree():
    with criterion(8, "ResNet-152 at K=46: ring beats tree, speedup in [1, 2]", 30):
        report = run_rar_vs_tree("ResNet-152", [46], ETH, COMPUTE)
        ring = report.row(alg="ring_packed", k=46).t_comm
        tree = report.row(alg="tree_packed", k=46).t_comm
        assert ring < tree
        speedup = tree / ring
        assert 1.0 <= speedup <= 2.0, f"speedup {speedup}"


def test_criterion_09_thermal_scenario():
    with criterion(9, "thermal preset: exactly two steps at 20.9s and 24.8s", 10):
        thermal = load_thermal()
        report = run_thermal_scenario(thermal, 600.0, fan_on=False)
        series = [r.t_comp for r in report.rows]
        assert count_upward_steps(series) == 2
        levels = sorted(set(series))
        assert levels == pytest.approx([18.2, 18.2 * 1.148, 18.2 * 1.363], abs=1e-9)
        assert round(levels[1], 1) == 20.9 and round(levels[2], 1) == 24.8
        frozen = dataclasses.replace(thermal, cool_rate=1e12)
        report2 = run_thermal_scenario(frozen, 600.0, fan_on=False)
        assert count_upward_steps([r.t_comp for r in report2.rows]) == 0


def test_criterion_10_manifest_determinism(tmp_path):
    with criterion(10, "every sim command replays byte-identically from its "
                       "manifest", 60):
        commands = {
            "scaling": ["sim", "scaling"],
            "collective": ["sim", "collective"],
            "aggregation": ["sim", "aggregation"],
            "efficiency": ["sim", "efficiency", "--k", "138"],
            "rar_vs_tree": ["sim", "rar-vs-tree"],
            "thermal": ["sim", "thermal"],
        }
        for stem, argv in commands.items():
            first = tmp_path / f"{stem}_a"
            assert cli_main(argv + ["--out", str(first)]) == EXIT_OK
            manifest = first / "manifest.json"
            assert manifest.exists()
            recorded = json.loads(manifest.read_text())
            assert "resolved_seed" in recorded and recorded["outputs"]
            second = tmp_path / f"{stem}_b"
            assert cli_main(["replay", str(manifest), "--out", str(second)]) == EXIT_OK
            a = (first / f"{stem}.csv").read_bytes()
            b = (second / f"{stem}.csv").read_bytes()
            assert a == b, f"{stem}: replay diverged"
