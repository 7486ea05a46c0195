"""Synchronous data-parallel training loop.

Each iteration every worker: takes its disjoint shard of the global batch,
runs forward/backward (the computation phase), aggregates gradients through
the configured collective (the communication phase, which includes the
pack/unpack copies), divides by the worker count, and applies the same SGD
update. All workers hold bit-identical weights after every iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from .collectives import (AGGREGATIONS, CommGroup, allreduce_chunkwise, pack, ring_allreduce,
                          tree_allreduce, unpack)
from .data import make_blobs
from .errors import CommunicationError, RingtrainError
from .model import RealModel
from .preset import from_json_object, load_compute, load_net
from .transport.net import NetProfile
from .transport.sim import SimCluster

LR_SCALINGS = ("none", "linear")

METRICS_HEADER = "iter,rank,t_comp_s,t_comm_s,loss"


class TrainingError(RingtrainError):
    """A rank failed mid-run; the message names the rank and phase."""


@dataclass
class TrainingConfig:
    global_batch: int
    per_device_batch: int
    workers: int
    base_lr: float = 0.01
    weight_decay: float = 0.0002
    iterations: int = 100
    seed: int = 0
    aggregation: str = "ring_packed"
    lr_scaling: str = "none"
    lr_reference_batch: int = 32
    model_dims: list[int] = field(default_factory=lambda: [2, 16, 2])
    dataset_size: int = 512
    dataset_classes: int = 2
    dataset_spread: float = 0.6

    def validate(self) -> "TrainingConfig":
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.global_batch != self.per_device_batch * self.workers:
            raise ValueError(
                f"global_batch {self.global_batch} != per_device_batch "
                f"{self.per_device_batch} * workers {self.workers}")
        if self.per_device_batch < 1:
            raise ValueError("per_device_batch must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {tuple(AGGREGATIONS)}")
        if self.lr_scaling not in LR_SCALINGS:
            raise ValueError(f"lr_scaling must be one of {LR_SCALINGS}")
        if self.dataset_size < self.global_batch:
            raise ValueError("dataset must hold at least one global batch")
        if self.model_dims[-1] != self.dataset_classes:
            raise ValueError("model output dim must equal dataset class count")
        return self

    @classmethod
    def from_json(cls, path: str | Path) -> "TrainingConfig":
        return from_json_object(cls, json.loads(Path(path).read_text())).validate()

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n")


@dataclass
class IterationMetrics:
    iteration: int
    rank: int
    t_comp: float
    t_comm: float
    loss: float

    def csv_row(self) -> str:
        return f"{self.iteration},{self.rank},{self.t_comp!r},{self.t_comm!r},{self.loss!r}"


def scale_lr(base_lr: float, batch: int, reference_batch: int, mode: str = "linear") -> float:
    """Linear large-batch scaling: lr * B / B_ref (or base_lr when mode is none)."""
    if batch < 1 or reference_batch < 1:
        raise ValueError("batch sizes must be >= 1")
    if mode == "none":
        return base_lr
    if mode == "linear":
        return base_lr * batch / reference_batch
    raise ValueError(f"unknown lr scaling mode {mode!r}")


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

    Both phases are timed on ``endpoint.clock``. The modeled compute and
    pack/unpack copy times of the compute preset, the device model the harness
    prices with, go to ``endpoint.advance``: a ``SimEndpoint`` charges them to
    its virtual clock, while a ``TcpEndpoint`` runs on the wall clock.
    """

    def __init__(self, config: TrainingConfig, endpoint):
        config.validate()
        self.config = config
        self.endpoint = endpoint
        self.compute = load_compute()
        self.group = CommGroup(endpoint)
        self.model = RealModel(config.model_dims, seed=config.seed)
        self.dataset = make_blobs(config.dataset_size, config.model_dims[0],
                                  config.dataset_classes, seed=config.seed + 1,
                                  spread=config.dataset_spread)
        self.lr = scale_lr(config.base_lr, config.global_batch,
                           config.lr_reference_batch, config.lr_scaling)
        self.last_local_grads: list[np.ndarray] | None = None
        self.last_mean_grads: list[np.ndarray] | None = None

    def _aggregate(self, grads: list[np.ndarray]) -> list[np.ndarray]:
        collective, packed = AGGREGATIONS[self.config.aggregation]
        if not packed:
            return allreduce_chunkwise(grads, self.group)
        data = pack(grads)
        copy_time = data.nbytes / self.compute.pack_bandwidth
        self.endpoint.advance(copy_time)
        allreduce = ring_allreduce if collective == "ring" else tree_allreduce
        data = allreduce(data, self.group)
        self.endpoint.advance(copy_time)
        return unpack(data, [g.shape for g in grads])

    def train_step(self, iteration: int) -> IterationMetrics:
        cfg = self.config
        rank = self.endpoint.rank
        inputs, labels = shard_batch(self.dataset, iteration, rank,
                                     cfg.workers, cfg.per_device_batch)
        phase = "compute"
        try:
            t0 = self.endpoint.clock
            loss, cache = self.model.forward(inputs, labels)
            grads = self.model.backward(cache)
            self.endpoint.advance(cfg.per_device_batch * self.model.param_count()
                                  / self.compute.throughput)
            t1 = self.endpoint.clock
            phase = "aggregate"
            summed = self._aggregate(grads)
            t_comp, t_comm = t1 - t0, self.endpoint.clock - t1
        except Exception as exc:
            message = f"rank {rank} failed during {phase} at iteration {iteration}"
            if isinstance(exc, CommunicationError):   # keeps its exit code and the failed peer
                peer = "" if exc.rank is None else f" (peer rank {exc.rank})"
                raise type(exc)(f"{message}{peer}: {exc}", rank=exc.rank) from exc
            raise TrainingError(f"{message}: {exc}") from exc

        mean = [c / cfg.workers for c in summed]
        self.last_local_grads = grads
        self.last_mean_grads = mean
        self.model.sgd_update(mean, lr=self.lr, weight_decay=cfg.weight_decay)
        return IterationMetrics(iteration, rank, t_comp, t_comm, float(loss))

    def run(self) -> list[IterationMetrics]:
        return [self.train_step(it) for it in range(self.config.iterations)]


def run_training_sim(config: TrainingConfig, profile: NetProfile | None = None
                     ) -> tuple[list[list[IterationMetrics]], list[RealModel]]:
    """Run all K workers as simulated ranks; returns per-rank metrics and models.

    The links (ethernet preset by default) are seeded with the config's seed.
    """
    config.validate()
    profile = load_net("ethernet") if profile is None else profile
    cluster = SimCluster(config.workers, replace(profile, seed=config.seed))
    workers = [Worker(config, ep) for ep in cluster.endpoints]
    metrics = cluster.run(lambda endpoint: workers[endpoint.rank].run())
    return metrics, [w.model for w in workers]


def write_metrics_csv(metrics: list[IterationMetrics], path: str | Path) -> None:
    lines = [METRICS_HEADER] + [m.csv_row() for m in metrics]
    Path(path).write_text("\n".join(lines) + "\n")
