import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringtrain.collectives import CommGroup, ring_allreduce, ring_steps
from ringtrain.engine import TrainingConfig, run_training_sim
from ringtrain.errors import AssertionFailure
from ringtrain.harness import (aggregation_comm_time, collective_time,
                               contention_slowdown, count_upward_steps,
                               fit_contention_coeff, fit_invocation_overhead,
                               fit_throughput_boundary,
                               run_aggregation_comparison, run_collective_bench,
                               run_efficiency_sweep, run_rar_vs_tree,
                               run_scaling_experiment, run_thermal_scenario,
                               simulate_iteration)
from ringtrain.harness.cost import BLOCK_MESSAGES
from ringtrain.harness.experiments import MAX_THERMAL_ROWS
from ringtrain.preset import load_compute, load_net, load_thermal
from ringtrain.profiles import (FLOAT_BYTES, MB, ComputeProfile, ModelProfile, ThermalPreset,
                                build_profile)
from ringtrain.transport.net import NetProfile, sim_transfer_time
from ringtrain.transport.sim import SimCluster

ETH = load_net("ethernet")
COMPUTE = load_compute()
PLAIN = ComputeProfile(throughput=1e8)  # element-count proxy, no overheads
BARE = dataclasses.replace(COMPUTE, invocation_overhead=0.0)  # a collective's messages alone


class TestComputeProfile:
    def test_time_is_linear_in_batch_and_throughput(self):
        p = build_profile("GoogleNet")
        t1 = PLAIN.compute_time(4, PLAIN.work_for(p))
        assert PLAIN.compute_time(8, PLAIN.work_for(p)) == pytest.approx(2 * t1)
        fast = dataclasses.replace(PLAIN, throughput=2e8)
        assert fast.compute_time(4, fast.work_for(p)) == pytest.approx(t1 / 2)

    def test_unlisted_model_falls_back_to_element_count(self):
        p = build_profile("GoogleNet")
        assert PLAIN.compute_time(1, PLAIN.work_for(p)) == pytest.approx(p.total_elems / 1e8)

    def test_preset_lists_all_ten_models(self):
        assert len(COMPUTE.work_per_sample) == 10

    @pytest.mark.parametrize("nbytes", [0, 4, 1_000_004, build_profile("AlexNet").total_bytes])
    def test_invocation_time_is_the_overhead_and_a_packed_buffer_copied_twice(self, nbytes):
        # the terms aggregation_comm_time added inline: overhead + 2 * bytes / pack_bandwidth
        assert COMPUTE.invocation_time(nbytes, False) == COMPUTE.invocation_overhead
        assert COMPUTE.invocation_time(nbytes, True) == (
            COMPUTE.invocation_overhead + 2 * nbytes / COMPUTE.pack_bandwidth)
        assert PLAIN.invocation_time(nbytes, False) == 0.0


class TestThermalModel:
    def make(self, tiers):
        return ThermalPreset(ambient=25.0, heat_rate=0.1, cool_rate=0.05, tiers=tiers,
                             baseline_t_comp_s=18.2, idle_s=5.0, fan_cool_multiplier=20.0)

    def test_multiplier_is_nondecreasing_step_function(self):
        t = self.make([(42.0, 1.148), (55.0, 1.363)])
        mults = [t.multiplier(temp) for temp in np.arange(25.0, 70.0, 0.5)]
        assert mults == sorted(mults)
        assert set(mults) == {1.0, 1.148, 1.363}

    def test_invalid_tiers_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.make([(50.0, 1.2), (40.0, 1.3)])
        with pytest.raises(ValueError, match="non-decreasing"):
            self.make([(40.0, 1.3), (50.0, 1.2)])


class TestCostModel:
    def test_ring_k1_is_free(self):
        assert collective_time(1000 * FLOAT_BYTES, 1, ETH, BARE, "ring") == 0.0

    def test_ring_zero_size_is_pure_latency(self):
        k = 8
        assert collective_time(0, k, ETH, BARE, "ring") == pytest.approx(2 * (k - 1) * ETH.latency)

    def test_tree_zero_size_is_pure_latency(self):
        t = collective_time(0, 16, ETH, BARE, "tree")
        assert t == pytest.approx(2 * 4 * ETH.latency)  # depth 4, both directions

    @pytest.mark.parametrize("alg", ["ring", "tree"])
    @pytest.mark.parametrize("k", [2, 16])
    def test_a_negative_payload_is_a_value_error(self, k, alg):
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            collective_time(-5, k, ETH, BARE, alg)

    def test_ring_approaches_bandwidth_optimal_limit(self):
        # at K=138 with zero latency the ring should sit within 5% of 2*n*4*8/bw
        net = dataclasses.replace(ETH, latency=0.0)
        n = 1_000_000
        t = collective_time(n * FLOAT_BYTES, 138, net, BARE, "ring")
        limit = 2 * n * 4 * 8 / (1e6 * net.base_bandwidth)
        assert abs(t - limit) / limit <= 0.05

    def test_collective_size_zero_latency_sum_with_zero_overhead(self):
        compute = dataclasses.replace(COMPUTE, invocation_overhead=0.0)
        assert collective_time(0, 8, ETH, compute, "ring") == \
            pytest.approx(14 * ETH.latency)

    def test_chunkwise_includes_per_invocation_overhead(self):
        p = build_profile("GoogleNet")
        base = dataclasses.replace(COMPUTE, invocation_overhead=0.0)
        with_ovh = dataclasses.replace(COMPUTE, invocation_overhead=0.01)
        delta = (aggregation_comm_time(p, 4, ETH, with_ovh, "ring_chunkwise")
                 - aggregation_comm_time(p, 4, ETH, base, "ring_chunkwise"))
        assert delta == pytest.approx(0.01 * p.num_chunks)

    def test_chunkwise_time_grows_with_chunk_count_at_equal_size(self):
        from ringtrain.profiles import ModelProfile, segment_size
        total = 2 ** 20
        times = []
        for chunks in (4, 16, 64, 256):
            profile = ModelProfile(name=f"synthetic-{chunks}", size_mb=4.0,
                                   batch_per_device=1,
                                   chunk_elems=tuple(segment_size(total, chunks, c)
                                                     for c in range(chunks)))
            times.append(aggregation_comm_time(profile, 8, ETH, COMPUTE,
                                               "ring_chunkwise"))
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_packed_includes_copy_cost_chunkwise_does_not(self):
        p = build_profile("AlexNet")
        slow_copy = dataclasses.replace(COMPUTE, pack_bandwidth=1e7)
        fast_copy = dataclasses.replace(COMPUTE, pack_bandwidth=1e12)
        assert (aggregation_comm_time(p, 4, ETH, slow_copy, "ring_packed")
                > aggregation_comm_time(p, 4, ETH, fast_copy, "ring_packed"))
        assert (aggregation_comm_time(p, 4, ETH, slow_copy, "ring_chunkwise")
                == aggregation_comm_time(p, 4, ETH, fast_copy, "ring_chunkwise"))

    def test_each_message_draws_its_own_jitter(self):
        wifi = load_net("wifi5")
        n = 200_000
        one = sim_transfer_time(n // 2 * 4, 2, wifi, np.random.default_rng(wifi.seed))
        assert collective_time(n * FLOAT_BYTES, 2, wifi, BARE, "ring") != 2 * one

    def test_default_generator_is_seeded_from_the_profile(self):
        wifi = load_net("wifi5")
        rng = np.random.default_rng(wifi.seed)
        assert (collective_time(40_000, 8, wifi, BARE, "ring")
                == collective_time(40_000, 8, wifi, BARE, "ring", rng))


def _message_time(nbytes, k, net, rng):
    """One message priced on its own: one jitter draw when it carries bytes."""
    if nbytes == 0:
        return net.latency
    t_bw = nbytes * 8.0 / (1e6 * net.effective_bandwidth(k))
    if net.jitter_frac > 0:
        sigma = net.jitter_frac
        t_bw *= float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
    return net.latency + t_bw


def _ring_walk(n_elems, k, net, rng):
    """Rank 0's receives priced one message at a time, summed in order."""
    if k == 1:
        return 0.0
    total = 0.0
    for *_, recv_seg, _ in ring_steps(0, k):
        elems = n_elems // k + (recv_seg < n_elems % k)
        total += _message_time(elems * FLOAT_BYTES, k, net, rng)
    return total


def _tree_walk(n_bytes, k, net, segment_bytes, rng):
    """The pipelined tree's slots priced one message at a time, summed in order."""
    if k == 1:
        return 0.0
    depth = max(1, math.ceil(math.log2(k)))
    full, last = divmod(n_bytes, segment_bytes)
    segments = [segment_bytes] * full + ([last] if last else ([0] if n_bytes == 0 else []))
    total = 0.0
    for _direction in range(2):
        for seg in segments:
            total += _message_time(seg, k, net, rng)
        for _ in range(depth - 1):
            total += _message_time(min(segment_bytes, n_bytes), k, net, rng)
    return total


NET_PRESETS = [load_net("ethernet"), load_net("wifi5")]
NETS = st.sampled_from(NET_PRESETS)
SEGMENT = COMPUTE.tree_segment_bytes
RING_ROWS = BLOCK_MESSAGES // (2 * (138 - 1))   # whole K=138 chunks in one block


@st.composite
def ring_sizes(draw):
    k = draw(st.integers(1, 64))
    # up to a few elements per rank, so that zero-length segments occur, or large
    return k, draw(st.one_of(st.integers(0, 4 * k), st.integers(10 ** 5, 10 ** 8)))


class TestArrayPricingMatchesScalarWalk:
    """Array calls of up to a block of messages give the per-message walk's time and draws."""

    @settings(max_examples=300, deadline=None)
    @given(ring_sizes(), NETS, st.integers(0, 2 ** 32 - 1))
    def test_ring(self, k_n, net, seed):
        k, n = k_n
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (collective_time(n * FLOAT_BYTES, k, net, BARE, "ring", rng)
                == _ring_walk(n, k, net, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64),
           st.one_of(st.just(0), st.integers(1, SEGMENT - 1), st.just(SEGMENT),
                     st.integers(SEGMENT + 1, 40 * SEGMENT)),
           NETS, st.integers(0, 2 ** 32 - 1))
    def test_tree(self, k, n_bytes, net, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (collective_time(n_bytes, k, net, BARE, "tree", rng)
                == _tree_walk(n_bytes, k, net, SEGMENT, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 160).flatmap(lambda k: st.tuples(st.just(k), st.lists(
               st.one_of(st.just(0), st.integers(1, 4 * k), st.integers(10 ** 4, 10 ** 7)),
               max_size=3 * RING_ROWS))),
           NETS)
    @example((138, [0] + [5_000_000] * RING_ROWS), NET_PRESETS[1])
    @example((138, list(range(0, 2 * 138 * RING_ROWS + 1, 138))), NET_PRESETS[1])
    @example((138, [1000] * (2 * RING_ROWS + 1)), NET_PRESETS[0])
    # repeated sizes, empty chunks and chunks of fewer elements than K
    @example((138, [1000, 0, 5, 1000, 137, 0, 5, 10 ** 6] * RING_ROWS), NET_PRESETS[0])
    def test_ring_chunkwise(self, k_chunks, net):
        k, chunks = k_chunks
        profile = ModelProfile("chunks", sum(chunks) * FLOAT_BYTES / MB, 1, tuple(chunks))
        rng = np.random.default_rng(net.seed)
        walked = 0.0
        for n in chunks:
            walked += COMPUTE.invocation_overhead + _ring_walk(n, k, net, rng)
        assert aggregation_comm_time(profile, k, net, COMPUTE, "ring_chunkwise") == walked

    @pytest.mark.parametrize("net", NET_PRESETS, ids=["ethernet", "wifi5"])
    @pytest.mark.parametrize("n", [0, 3, 10 ** 6 + 1])
    def test_ring_longer_than_a_block(self, n, net, monkeypatch):
        import ringtrain.harness.cost as cost
        # no admitted ring outgrows a full block, so shrink the block: 18 messages in two
        monkeypatch.setattr(cost, "BLOCK_MESSAGES", 16)
        k = 10
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert (collective_time(n * FLOAT_BYTES, k, net, BARE, "ring", rng)
                == _ring_walk(n, k, net, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("net", NET_PRESETS, ids=["ethernet", "wifi5"])
    @pytest.mark.parametrize("k", [2, 138])
    @pytest.mark.parametrize("n_bytes", [BLOCK_MESSAGES // 2 * SEGMENT,
                                         (BLOCK_MESSAGES // 2 + 1) * SEGMENT - 1,
                                         3 * BLOCK_MESSAGES // 2 * SEGMENT + 12345])
    def test_tree_longer_than_a_block(self, n_bytes, k, net):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert (collective_time(n_bytes, k, net, BARE, "tree", rng)
                == _tree_walk(n_bytes, k, net, SEGMENT, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_jitter_free_link_prices_each_chunk_size_once(monkeypatch):
    """ResNet-152's chunks come in two sizes: one array call prices them all."""
    import ringtrain.harness.cost as cost
    calls = []
    monkeypatch.setattr(cost, "sim_transfer_time",
                        lambda *args: calls.append(args) or sim_transfer_time(*args))
    profile = build_profile("ResNet-152")
    priced = aggregation_comm_time(profile, 138, ETH, COMPUTE, "ring_chunkwise")
    assert len(calls) == 1
    walked = 0.0
    for n in profile.chunk_elems:
        walked += COMPUTE.invocation_overhead + _ring_walk(n, 138, ETH, None)
    assert priced == walked


@pytest.fixture(scope="module")
def wifi5():
    """The wifi5 preset, once the cost model has priced a first call."""
    net = load_net("wifi5")
    collective_time(1, 2, net, COMPUTE, "tree")
    return net


def _peak_bytes(call):
    """Most memory traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCostMemoryIsBounded:
    """Messages are priced a block at a time, so no array holds a whole schedule."""

    def test_chunkwise_aggregation_at_k138(self, wifi5):
        profile = build_profile("ResNet-152")
        assert _peak_bytes(lambda: aggregation_comm_time(
            profile, 138, wifi5, COMPUTE, "ring_chunkwise")) < 2 ** 20

    def test_a_16_gib_tree(self, wifi5):
        assert _peak_bytes(lambda: collective_time(
            16 * 2 ** 30, 16, wifi5, COMPUTE, "tree")) < 2 * 2 ** 20


class TestSimMatchesCostModel:
    """SimCluster's ring and the ring's collective_time price the one ring schedule."""

    @pytest.mark.parametrize("contention", [0.0, 0.5])
    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
    def test_virtual_clock_equals_ring_comm_time(self, k, contention):
        net = dataclasses.replace(ETH, contention_coeff=contention)
        assert net.jitter_frac == 0.0
        for n in (7, 1001, 4099, 1000 * k):
            def task(ep):
                ring_allreduce(np.ones(n, np.float32), CommGroup(ep))
                return ep.clock

            clocks = SimCluster(k, net).run(task)
            modeled = collective_time(n * FLOAT_BYTES, k, net, BARE, "ring")
            if n % k == 0:
                assert clocks == [modeled] * k, f"n={n}"
            else:
                # uneven segments: rank 0's receives are not every rank's path
                assert max(abs(c - modeled) for c in clocks) <= 0.01 * modeled, f"n={n}"

    @pytest.mark.parametrize("contention", [0.0, 0.5])
    @pytest.mark.parametrize("k", [46, 138])
    def test_virtual_clock_equals_ring_comm_time_at_the_papers_k(self, k, contention):
        net = dataclasses.replace(ETH, contention_coeff=contention)
        n = 1000 * k

        def task(ep):
            ring_allreduce(np.ones(n, np.float32), CommGroup(ep))
            return ep.clock

        clocks = SimCluster(k, net).run(task)
        assert clocks == [collective_time(n * FLOAT_BYTES, k, net, BARE, "ring")] * k

    # the slowest rank's lead over the rank-0 price, as measured, rounded up to 0.1%:
    # +2.24%, +1.51% and +0.41% with contention, at most +0.033% without
    @pytest.mark.parametrize("contention,n,lead", [
        (0.5, 7, 0.023), (0.5, 1001, 0.016), (0.5, 4099, 0.005),
        (0.0, 7, 0.0005), (0.0, 1001, 0.0005), (0.0, 4099, 0.0005)])
    def test_uneven_segments_at_the_papers_k_lead_the_model_by_a_pinned_residual(
            self, contention, n, lead):
        net = dataclasses.replace(ETH, contention_coeff=contention)

        def task(ep):
            ring_allreduce(np.ones(n, np.float32), CommGroup(ep))
            return ep.clock

        slowest = max(SimCluster(138, net).run(task))
        modeled = (collective_time(n * FLOAT_BYTES, 138, net, COMPUTE, "ring")
                   - COMPUTE.invocation_overhead)
        assert modeled <= slowest <= (1 + lead) * modeled


class TestSimTrainingMatchesCostModel:
    """run_training_sim charges the compute preset that the harness prices with,
    each invocation's overhead and copies included."""

    @pytest.mark.parametrize("alg", ["ring_packed", "ring_chunkwise"])
    @pytest.mark.parametrize("k, dims", [
        *[pytest.param(k, [64, 256, 256, 10], id=str(k)) for k in (1, 2, 3, 4, 46, 138)],
        # the paper's K over layers that both divide, so the tight bound holds
        *[pytest.param(k, [138, 138, 10], id=f"{k}-divisible") for k in (46, 138)]])
    def test_one_step_matches_the_analytic_iteration(self, k, dims, alg):
        cfg = TrainingConfig(global_batch=8 * k, per_device_batch=8, workers=k,
                             iterations=1, aggregation=alg, model_dims=dims,
                             dataset_classes=10,
                             dataset_size=max(TrainingConfig.dataset_size, 8 * k))
        metrics, models = run_training_sim(cfg)
        step = metrics[0][0]
        chunks = tuple(w.size for w in models[0].weights)
        assert step.t_comp == cfg.per_device_batch * sum(chunks) / COMPUTE.throughput

        mlp = ModelProfile("mlp", sum(chunks) * FLOAT_BYTES / MB, cfg.per_device_batch, chunks)
        modeled = aggregation_comm_time(mlp, k, ETH, COMPUTE, alg)
        if k == 1:
            assert step.t_comm == modeled == 0.0
            return
        packed = alg == "ring_packed"
        segments = (sum(chunks),) if packed else chunks
        if all(n % k == 0 for n in segments):
            assert step.t_comm == pytest.approx(modeled, rel=1e-12)
        else:   # the rank-0 price of uneven segments: bound the messages, not the overhead
            charge = sum(COMPUTE.invocation_time(n * FLOAT_BYTES, packed) for n in segments)
            assert step.t_comm - charge == pytest.approx(modeled - charge, rel=0.01)


class TestSimulateIteration:
    def test_k1_has_zero_comm(self):
        t_comp, t_comm = simulate_iteration(build_profile("GoogleNet"), 4, COMPUTE, 1, ETH)
        assert t_comm == 0.0
        assert t_comp > 0.0

    def test_doubling_throughput_halves_compute(self):
        p = build_profile("GoogleNet")
        fast = dataclasses.replace(COMPUTE, throughput=2 * COMPUTE.throughput)
        a_comp, _ = simulate_iteration(p, 4, COMPUTE, 8, ETH)
        b_comp, _ = simulate_iteration(p, 4, fast, 8, ETH)
        assert b_comp == pytest.approx(a_comp / 2)

    def test_k16_to_k32_monotonicities(self):
        p = build_profile("GoogleNet")
        comp16, comm16 = simulate_iteration(p, 2, COMPUTE, 16, ETH)
        comp32, comm32 = simulate_iteration(p, 1, COMPUTE, 32, ETH)
        assert comp32 == pytest.approx(comp16 / 2)
        assert comm32 > comm16


class TestScalingExperiment:
    def test_k1_row_has_efficiency_one(self):
        report = run_scaling_experiment("GoogleNet", 32, [1], ETH, COMPUTE)
        assert report.rows[0].efficiency == 1.0

    def test_compute_halves_and_comm_grows(self):
        report = run_scaling_experiment("GoogleNet", 32, [1, 2, 4, 8, 16, 32],
                                        ETH, COMPUTE)
        comps = [r.t_comp for r in report.rows]
        comms = [r.t_comm for r in report.rows]
        for a, b in zip(comps, comps[1:]):
            assert b == pytest.approx(a / 2, rel=0.05)
        assert comms == sorted(comms)

    def test_indivisible_k_rejected(self):
        with pytest.raises(ValueError):
            run_scaling_experiment("GoogleNet", 32, [1, 3], ETH, COMPUTE)

    def test_broken_compute_model_trips_embedded_assertion(self):
        compute = dataclasses.replace(COMPUTE, work_per_sample={})

        class Weird(ComputeProfile):
            def compute_time(self, batch, work):
                return 1.0  # batch-independent: halving law must fail

        weird = Weird(throughput=1e8)
        with pytest.raises(AssertionFailure):
            run_scaling_experiment("GoogleNet", 32, [1, 2], ETH, weird)


class TestCollectiveBench:
    def test_grid_shape_and_zero_size(self):
        nets = {"ethernet": ETH}
        report = run_collective_bench([0, 1024], [2, 4], nets,
                                      dataclasses.replace(COMPUTE,
                                                          invocation_overhead=0.0))
        assert len(report.rows) == 8
        zero_ring = report.row(model="0B", k=4, alg="ring:ethernet")
        assert zero_ring.t_comm == pytest.approx(6 * ETH.latency)

    def test_ethernet_slowdown_small(self):
        ratio = contention_slowdown(ETH, COMPUTE)
        assert ratio <= 1.5

    def test_wifi_preset_slowdown_near_target(self):
        wifi = load_net("wifi5")
        ratio = contention_slowdown(wifi, COMPUTE)
        assert 63.0 * 0.8 <= ratio <= 63.0 * 1.2


class TestCalibration:
    def test_contention_fit_reproduces_target(self):
        wifi = dataclasses.replace(load_net("wifi5"), contention_coeff=0.0)
        coeff = fit_contention_coeff(wifi, COMPUTE, 63.0)
        refit = contention_slowdown(dataclasses.replace(wifi, contention_coeff=coeff),
                                    COMPUTE)
        assert refit == pytest.approx(63.0, rel=1e-3)
        assert coeff == pytest.approx(load_net("wifi5").contention_coeff, rel=0.01)

    def test_overhead_fit_reproduces_target(self):
        ovh = fit_invocation_overhead(ETH, COMPUTE, 84.0)
        assert ovh == pytest.approx(COMPUTE.invocation_overhead, rel=0.01)

    def test_overhead_fit_rejects_target_below_zero_overhead_time(self):
        with pytest.raises(ValueError):
            fit_invocation_overhead(ETH, COMPUTE, 1e-3)

    def test_throughput_boundary_below_shipped_value(self):
        boundary = fit_throughput_boundary(ETH, COMPUTE)
        assert boundary < COMPUTE.throughput


class TestEfficiencySweep:
    def test_ten_rows_all_in_unit_interval(self):
        report = run_efficiency_sweep(138, ETH, COMPUTE)
        assert len(report.rows) == 10
        for r in report.rows:
            assert 0.0 < r.efficiency <= 1.0

    def test_efficiency_antimonotone_in_wire_bytes_at_fixed_compute(self):
        # direct property of E = t_comp / (t_comp + t_comm)
        t_comp = 0.7
        sizes = [2 ** 20 * s for s in (1, 4, 16, 64, 256)]
        effs = []
        for size in sizes:
            t_comm = collective_time(size, 138, ETH, COMPUTE, "ring")
            effs.append(t_comp / (t_comp + t_comm))
        assert effs == sorted(effs, reverse=True)
        assert len(set(effs)) == len(effs)


class TestRarVsTree:
    def test_k1_speedup_reported_as_one(self):
        report = run_rar_vs_tree("ResNet-152", [1], ETH, COMPUTE)
        assert report.metadata["speedup_tree_over_ring"]["1"] == 1.0

    def test_ring_beats_tree_at_k46(self):
        report = run_rar_vs_tree("ResNet-152", [46], ETH, COMPUTE)
        ring = report.row(alg="ring_packed", k=46).t_comm
        tree = report.row(alg="tree_packed", k=46).t_comm
        assert ring < tree
        assert 1.0 <= tree / ring <= 2.0

    def test_ring_bytes_per_node_below_tree_root_bytes(self):
        # closed-form byte counting: 8n(K-1)/K vs 8n*ceil(log2 K) for K >= 3
        n = 10_000
        for k in (3, 4, 7, 16, 46):
            ring_bytes = 2 * 4 * n * (k - 1) / k
            depth = int(np.ceil(np.log2(k)))
            tree_root_bytes = 2 * 4 * n * depth
            assert ring_bytes < tree_root_bytes


class TestThermalScenario:
    def test_two_upward_steps_at_published_levels(self):
        report = run_thermal_scenario(load_thermal(), 600.0, fan_on=False)
        series = [r.t_comp for r in report.rows]
        assert count_upward_steps(series) == 2
        levels = sorted(set(series))
        assert levels[0] == pytest.approx(18.2)
        assert levels[1] == pytest.approx(18.2 * 1.148)
        assert levels[2] == pytest.approx(18.2 * 1.363)

    def test_fan_suppresses_upper_tier(self):
        report = run_thermal_scenario(load_thermal(), 600.0, fan_on=True)
        series = [r.t_comp for r in report.rows]
        assert max(series) < 18.2 * 1.363

    def test_zero_heat_rate_keeps_compute_constant(self):
        cold = dataclasses.replace(load_thermal(), heat_rate=0.0)
        report = run_thermal_scenario(cold, 300.0, fan_on=False)
        assert len({r.t_comp for r in report.rows}) == 1

    def test_infinite_cooling_pins_ambient(self):
        thermal = load_thermal()
        frozen = dataclasses.replace(thermal, cool_rate=1e12)
        report = run_thermal_scenario(frozen, 300.0, fan_on=False)
        assert set(report.metadata["temps_c"]) == {thermal.ambient}
        assert count_upward_steps([r.t_comp for r in report.rows]) == 0

    def test_a_duration_one_cycle_past_the_row_cap_is_refused(self):
        thermal = load_thermal()
        cycle = thermal.baseline_t_comp_s + thermal.idle_s
        message = f"over the {MAX_THERMAL_ROWS} a thermal run may write"
        with pytest.raises(ValueError, match=message):
            run_thermal_scenario(thermal, (MAX_THERMAL_ROWS + 1) * cycle, fan_on=False)


class TestReportDeterminism:
    def test_identical_runs_produce_identical_csv(self):
        a = run_efficiency_sweep(138, ETH, COMPUTE).to_csv()
        b = run_efficiency_sweep(138, ETH, COMPUTE).to_csv()
        assert a == b

    def test_jittered_bench_is_seed_deterministic(self):
        wifi = load_net("wifi5")
        a = run_collective_bench([4096], [2, 4], {"wifi5": wifi}, COMPUTE).to_csv()
        b = run_collective_bench([4096], [2, 4], {"wifi5": wifi}, COMPUTE).to_csv()
        assert a == b

    def test_report_write_formats(self, tmp_path):
        report = run_aggregation_comparison(["AlexNet"], 4, ETH, COMPUTE)
        csv_path, meta_path = report.write(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("experiment,mode,model,K,alg,t_comp_s,t_comm_s,"
                            "t_total_s,efficiency")
        assert len(lines) == 4  # header + three aggregation strategies
        assert meta_path.exists()
