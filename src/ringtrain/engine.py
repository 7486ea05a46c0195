"""Synchronous data-parallel training loop.

Each iteration every worker: takes its disjoint shard of the global batch,
runs forward/backward (the computation phase) into the model's one flat
gradient array, sums that array across ranks in place through the configured
collective (the communication phase; no pack or unpack copy is made), divides
it by the worker count, and applies the same SGD update. All workers hold
bit-identical weights after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .collectives import CommGroup, ring_allreduce, tree_allreduce
from .errors import CommunicationError, RingtrainError
from .model import RealModel
from .preset import AGGREGATIONS, TrainingConfig, load_compute, load_net
from .profiles import NetProfile

LR_REFERENCE_BATCH = 32

METRICS_HEADER = "iter,rank,t_comp_s,t_comm_s,loss"


class TrainingError(RingtrainError):
    """A rank failed mid-run; the message names the rank and phase."""


@dataclass
class IterationMetrics:
    iteration: int
    rank: int
    t_comp: float
    t_comm: float
    loss: float

    def csv_row(self) -> str:
        return f"{self.iteration},{self.rank},{self.t_comp!r},{self.t_comm!r},{self.loss!r}"


def scale_lr(base_lr: float, batch: int, mode: str) -> float:
    """Linear large-batch scaling: lr * B / LR_REFERENCE_BATCH (or base_lr when mode is none)."""
    return base_lr * batch / LR_REFERENCE_BATCH if mode == "linear" else base_lr


def make_dataset(config: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian blobs, class means on a circle of radius 2: float32 inputs [n, d]
    and int64 labels [n]. Every worker builds the same arrays from the config, with no
    data distribution step; they are read-only so that ranks can share one copy."""
    rng = np.random.default_rng(config.seed + 1)
    classes, features, size = config.dataset_classes, config.model_dims[0], config.dataset_size
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means = np.zeros((classes, features))
    means[:, 0] = 2.0 * np.cos(angles)
    means[:, min(1, features - 1)] += 2.0 * np.sin(angles)
    labels = rng.integers(0, classes, size=size)
    inputs = means[labels] + rng.normal(0.0, config.dataset_spread, size=(size, features))
    dataset = inputs.astype(np.float32), labels.astype(np.int64)
    for array in dataset:
        array.flags.writeable = False
    return dataset


def shard_indices(iteration: int, rank: int, workers: int, per_device: int,
                  dataset_size: int) -> np.ndarray:
    """Deterministic disjoint shard: (iter*B + rank*b + j) mod dataset_size."""
    batch = per_device * workers
    base = iteration * batch + rank * per_device
    return (base + np.arange(per_device)) % dataset_size


def shard_batch(dataset: tuple[np.ndarray, np.ndarray], iteration: int, rank: int,
                workers: int, per_device: int) -> tuple[np.ndarray, np.ndarray]:
    inputs, labels = dataset
    idx = shard_indices(iteration, rank, workers, per_device, inputs.shape[0])
    return inputs[idx], labels[idx]


class Worker:
    """One rank's training loop over a transport endpoint.

    Both phases are timed on ``endpoint.clock``. The modeled compute time and
    each invocation's ``invocation_time``, from the compute preset the harness
    prices with, go to ``endpoint.advance``: a ``SimEndpoint`` charges them to
    its virtual clock, while a ``TcpEndpoint`` runs on the wall clock (where
    packing costs nothing: the gradients already live in one array).
    """

    def __init__(self, config: TrainingConfig, endpoint, dataset=None):
        self.config = config
        self.endpoint = endpoint
        self.compute = load_compute()
        self.group = CommGroup(endpoint)
        self.model = RealModel(config.model_dims, seed=config.seed)
        self.dataset = make_dataset(config) if dataset is None else dataset
        self.lr = scale_lr(config.base_lr, config.global_batch, config.lr_scaling)

    def _aggregate(self) -> None:
        """Sum the model's gradients over all ranks, in place: the flat array in one
        invocation if the strategy packs, else one invocation per layer, each first
        charged its ``invocation_time`` as priced (one rank makes none and pays nothing)."""
        collective, packed = AGGREGATIONS[self.config.aggregation]
        allreduce = ring_allreduce if collective == "ring" else tree_allreduce
        for chunk in [self.model.flat_grads] if packed else self.model.grads:
            if self.group.size > 1:
                self.endpoint.advance(self.compute.invocation_time(chunk.nbytes, packed))
            allreduce(chunk, self.group)

    def train_step(self, iteration: int) -> IterationMetrics:
        cfg = self.config
        rank = self.endpoint.rank
        inputs, labels = shard_batch(self.dataset, iteration, rank,
                                     cfg.workers, cfg.per_device_batch)
        phase = "compute"
        try:
            t0 = self.endpoint.clock
            loss, cache = self.model.forward(inputs, labels)
            self.model.backward(cache)
            self.endpoint.advance(cfg.per_device_batch * self.model.param_count()
                                  / self.compute.throughput)
            t1 = self.endpoint.clock
            phase = "aggregate"
            self._aggregate()
            t_comp, t_comm = t1 - t0, self.endpoint.clock - t1
        except Exception as exc:
            message = f"rank {rank} failed during {phase} at iteration {iteration}"
            if isinstance(exc, CommunicationError):   # keeps its exit code and the failed peer
                peer = "" if exc.rank is None else f" (peer rank {exc.rank})"
                raise type(exc)(f"{message}{peer}: {exc}", rank=exc.rank) from exc
            raise TrainingError(f"{message}: {exc}") from exc

        self.model.flat_grads /= cfg.workers   # the mean, in the model's gradient views
        self.model.sgd_update(lr=self.lr, weight_decay=cfg.weight_decay)
        return IterationMetrics(iteration, rank, t_comp, t_comm, float(loss))

    def run(self) -> list[IterationMetrics]:
        return [self.train_step(it) for it in range(self.config.iterations)]


def run_training_sim(config: TrainingConfig, profile: NetProfile | None = None
                     ) -> tuple[list[list[IterationMetrics]], list[RealModel]]:
    """Run all K workers as simulated ranks; returns per-rank metrics and models.

    The links (ethernet preset by default) are seeded with the config's seed.
    The ranks share one read-only copy of the dataset.
    """
    from .transport.sim import SimCluster   # a real worker never loads the simulator

    profile = load_net("ethernet") if profile is None else profile
    cluster = SimCluster(config.workers, replace(profile, seed=config.seed))
    dataset = make_dataset(config)
    workers = [Worker(config, ep, dataset) for ep in cluster.endpoints]
    metrics = cluster.run(lambda endpoint: workers[endpoint.rank].run())
    return metrics, [w.model for w in workers]


def write_metrics_csv(metrics: list[IterationMetrics], path: str | Path) -> None:
    lines = [METRICS_HEADER] + [m.csv_row() for m in metrics]
    Path(path).write_text("\n".join(lines) + "\n")
