import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from ringtrain import engine
from ringtrain.engine import (IterationMetrics, METRICS_HEADER,
                              TrainingConfig, Worker, run_training_sim, scale_lr,
                              shard_batch, shard_indices, write_metrics_csv)
from ringtrain.errors import CommunicationError
from ringtrain.model import RealModel
from ringtrain.preset import load_net
from ringtrain.transport.net import NetProfile
from ringtrain.transport.sim import SimCluster
from ringtrain.transport.tcp import TcpEndpoint
from support import weight_checksum, write_config

ETH = NetProfile(base_bandwidth=940.0, latency=1e-4, seed=10)


def config(workers, b, **kw):
    base = dict(global_batch=workers * b, per_device_batch=b, workers=workers,
                iterations=kw.pop("iterations", 10), seed=kw.pop("seed", 0))
    base.update(kw)
    return TrainingConfig(**base)


class TestConfig:
    def test_batch_identity_enforced(self):
        with pytest.raises(ValueError):
            TrainingConfig(global_batch=10, per_device_batch=4, workers=2).validate()

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            config(1, 4, iterations=0).validate()

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            config(1, 4, aggregation="allgather").validate()

    def test_json_roundtrip(self, tmp_path):
        cfg = config(2, 4, aggregation="tree_packed")
        write_config(cfg, tmp_path / "cfg.json")
        back = TrainingConfig.from_json(tmp_path / "cfg.json")
        assert back == cfg


class TestShard:
    def test_k1_is_full_global_batch(self):
        ds = engine.make_dataset(config(1, 8, dataset_size=100))
        x, y = shard_batch(ds, iteration=2, rank=0, workers=1, per_device=8)
        idx = shard_indices(2, 0, 1, 8, 100)
        assert (idx == np.arange(16, 24)).all()
        assert x.shape == (8, 2) and y.shape == (8,)

    def test_union_of_shards_partitions_global_batch(self):
        K, b, it, ds_size = 4, 3, 5, 97
        all_idx = [shard_indices(it, r, K, b, ds_size) for r in range(K)]
        merged = sorted(np.concatenate(all_idx).tolist())
        single = sorted(shard_indices(it, 0, 1, K * b, ds_size).tolist())
        assert merged == single
        assert len(set(merged)) == K * b  # disjoint across ranks

    def test_formula_example(self):
        # K=4, b=2, iter=3, dataset 100 -> rank 2 gets {28, 29}
        assert shard_indices(3, 2, 4, 2, 100).tolist() == [28, 29]


class TestScaleLr:
    def test_reference_batch_identity(self):
        assert scale_lr(0.01, 32, "linear") == 0.01

    def test_linear_example(self):
        assert scale_lr(0.01, 736, "linear") == pytest.approx(0.23)

    def test_none_mode_ignores_batch(self):
        assert scale_lr(0.01, 4096, mode="none") == 0.01


def test_k1_matches_manual_single_process_sgd_bitwise():
    cfg = config(1, 8, iterations=3, seed=7)
    worker = Worker(cfg, SimCluster(1, ETH).endpoints[0])
    metrics = worker.run()

    model = RealModel(cfg.model_dims, seed=cfg.seed)
    dataset = engine.make_dataset(cfg)
    for it in range(cfg.iterations):
        x, y = shard_batch(dataset, it, 0, 1, 8)
        _, cache = model.forward(x, y)
        model.backward(cache)
        model.flat_grads /= 1
        model.sgd_update(lr=cfg.base_lr, weight_decay=cfg.weight_decay)
    assert weight_checksum(worker.model) == weight_checksum(model)
    assert len(metrics) == 3


def local_gradient(cfg, dataset, rank):
    """Rank ``rank``'s own gradient at iteration 0: a fresh model's forward/backward on its shard."""
    model = RealModel(cfg.model_dims, seed=cfg.seed)
    _, cache = model.forward(*shard_batch(dataset, 0, rank, cfg.workers, cfg.per_device_batch))
    return model.backward(cache)


def test_duplicated_data_mean_equals_local_gradient():
    # identical rows everywhere => every rank computes the same local gradient
    cfg = config(2, 4, iterations=1, seed=3)
    cluster = SimCluster(2, ETH)
    workers = [Worker(cfg, ep) for ep in cluster.endpoints]
    row = np.array([[0.3, -1.2]], np.float32)
    for w in workers:
        w.dataset = (np.repeat(row, cfg.dataset_size, axis=0),
                     np.zeros(cfg.dataset_size, np.int64))

    cluster.run(lambda ep: workers[ep.rank].train_step(0))
    w0 = workers[0]
    for local, mean in zip(local_gradient(cfg, w0.dataset, 0), w0.model.grads):
        np.testing.assert_allclose(mean, local, rtol=1e-6, atol=1e-8)


def test_aggregated_gradient_is_mean_of_locals_three_ranks():
    cfg = config(3, 4, iterations=1, seed=11)
    cluster = SimCluster(3, ETH)
    workers = [Worker(cfg, ep) for ep in cluster.endpoints]
    cluster.run(lambda ep: workers[ep.rank].train_step(0))
    locals_ = [local_gradient(cfg, w.dataset, rank) for rank, w in enumerate(workers)]
    for li in range(len(workers[0].model.weights)):
        central = np.mean([lg[li].astype(np.float64) for lg in locals_], axis=0)
        got = workers[0].model.grads[li]
        scale = max(1.0, float(np.abs(central).max()))
        assert float(np.abs(got - central).max()) <= 1e-6 * scale


@pytest.mark.parametrize("aggregation", ["ring_packed", "tree_packed", "ring_chunkwise"])
def test_replica_consistency_all_aggregations(aggregation):
    cfg = config(4, 2, iterations=6, seed=5, aggregation=aggregation)
    _, models = run_training_sim(cfg, ETH)
    checksums = {weight_checksum(m) for m in models}
    assert len(checksums) == 1


# sha256 of every rank's weights and of every rank's (t_comp, t_comm, loss)
# stream after five simulated iterations at K=4 on the ethernet preset, seed 3.
# A change that moves training or its virtual clock on purpose updates these
# digests in the same commit; every other change must leave them alone.
SIM_TRAINING_DIGESTS = {
    "ring_packed": ("823874535685cbca0b748d2a69e48048dd6efeeccf716c1858c207eb42af42fa",
                    "654ba929c6452a7893ff05d33cc18ac719939506d56bcaaf77787e71f06ba39d"),
    "tree_packed": ("2b8acdca13b979418c17cd32777fa1d7933a2778d07f4bdf87d8f5e3a1200526",
                    "319702154174b0ec20aaa8c76b1591ca6f7d1fd497c737cacdbac6eb135a6d8c"),
    "ring_chunkwise": ("823874535685cbca0b748d2a69e48048dd6efeeccf716c1858c207eb42af42fa",
                       "90e43fb6c09fc63e2f48c136642649c23f2dffac2330bbb77c381678c06ce4a4"),
}


@pytest.mark.parametrize("aggregation", list(SIM_TRAINING_DIGESTS))
def test_sim_training_is_unchanged(aggregation):
    cfg = config(4, 4, iterations=5, seed=3, aggregation=aggregation)
    metrics, models = run_training_sim(cfg, load_net("ethernet"))
    weights = b"".join(w.tobytes() for m in models for w in m.weights)
    clock = repr([[(m.t_comp, m.t_comm, m.loss) for m in rank] for rank in metrics])
    assert (hashlib.sha256(weights).hexdigest(),
            hashlib.sha256(clock.encode()).hexdigest()) == SIM_TRAINING_DIGESTS[aggregation]


def test_loss_decreases_on_separable_data():
    cfg = config(2, 8, iterations=200, seed=1, dataset_spread=0.4)
    metrics, _ = run_training_sim(cfg, ETH)
    rank0 = metrics[0]
    assert len(rank0) == 200
    assert rank0[-1].loss < rank0[0].loss


@pytest.mark.parametrize("k", [2, 4])
def test_sim_mode_synchronous_equivalence(k):
    iters = 50
    ref_cfg = config(1, 32, iterations=iters, seed=21)
    ref_metrics, ref_models = run_training_sim(ref_cfg, ETH)
    cfg = config(k, 32 // k, iterations=iters, seed=21)
    _, models = run_training_sim(cfg, ETH)
    for wk, w1 in zip(models[0].weights, ref_models[0].weights):
        rel = np.linalg.norm(wk - w1) / np.linalg.norm(w1)
        assert rel <= 1e-4


def test_linear_lr_scaling_through_the_engine():
    cfg = config(4, 16, iterations=50, seed=21, lr_scaling="linear")
    assert Worker(cfg, SimCluster(4, ETH).endpoints[0]).lr == cfg.base_lr * 64 / 32
    _, ref_models = run_training_sim(config(1, 64, iterations=50, seed=21,
                                            lr_scaling="linear"), ETH)
    _, models = run_training_sim(cfg, ETH)
    for wk, w1 in zip(models[0].weights, ref_models[0].weights):
        assert np.linalg.norm(wk - w1) / np.linalg.norm(w1) <= 1e-4


def test_sim_timing_identity_and_wall_bound():
    cfg = config(2, 4, iterations=4, seed=2)
    cluster = SimCluster(2, ETH)
    workers = [Worker(cfg, ep) for ep in cluster.endpoints]

    def task(ep):
        start = ep.clock
        out = workers[ep.rank].run()
        return out, ep.clock - start

    for metrics, elapsed in cluster.run(task):
        total = sum(m.t_comp + m.t_comm for m in metrics)
        assert total == pytest.approx(elapsed, rel=1e-9)

    # wall-clock timing: measured phases can never exceed the iteration
    worker = Worker(config(1, 8, iterations=1), TcpEndpoint(0, 1, {}))
    t0 = time.perf_counter()
    m = worker.train_step(0)
    wall = time.perf_counter() - t0
    assert m.t_comp + m.t_comm <= wall + 1e-6


def test_metrics_csv_format(tmp_path):
    rows = [IterationMetrics(0, 0, 0.5, 0.25, 1.5)]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == METRICS_HEADER == "iter,rank,t_comp_s,t_comm_s,loss"
    assert text[1] == "0,0,0.5,0.25,1.5"


def test_rank_failure_names_rank_and_phase():
    from ringtrain.engine import TrainingError
    cfg = config(2, 4, iterations=1, seed=3)
    cluster = SimCluster(2, ETH)
    workers = [Worker(cfg, ep) for ep in cluster.endpoints]
    workers[1].model.weights[0] = np.zeros((3, 3), np.float32)  # poison rank 1

    with pytest.raises(TrainingError) as err:
        cluster.run(lambda ep: workers[ep.rank].train_step(0))
    msg = str(err.value)
    assert "rank 1" in msg and "compute" in msg


def test_the_first_simulated_failure_is_the_same_on_every_run():
    net = replace(load_net("wifi5"), disconnect_prob=0.05)
    failures = set()
    for _ in range(5):
        with pytest.raises(CommunicationError) as err:
            run_training_sim(config(4, 8, iterations=20, seed=4), net)
        failures.add((type(err.value), str(err.value), err.value.rank))
    assert len(failures) == 1


def test_simulated_ranks_share_one_read_only_dataset(monkeypatch):
    built = []

    make_dataset = engine.make_dataset

    def counted_make_dataset(cfg):
        built.append(make_dataset(cfg))
        return built[-1]

    monkeypatch.setattr(engine, "make_dataset", counted_make_dataset)
    run_training_sim(config(4, 4, iterations=2), ETH)
    assert len(built) == 1
    inputs, labels = built[0]
    with pytest.raises(ValueError):
        inputs[0, 0] = 1.0
    with pytest.raises(ValueError):
        labels[0] = 1
    worker = Worker(config(1, 8, iterations=1), TcpEndpoint(0, 1, {}))   # a real worker
    assert len(built) == 2 and worker.dataset is built[1]
