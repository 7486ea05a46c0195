"""ringtrain: synchronous data-parallel training over small clusters.

Real gradients move through a ring (or tree) allreduce over either framed TCP
or a deterministic simulated network; an experiment harness reproduces scaling,
contention, aggregation-strategy, efficiency, and thermal-throttling studies.
"""

__version__ = "0.1.0"

from .collectives import (CommGroup, FlatBuffer, allreduce_chunkwise, pack,
                          ring_allreduce, tree_allreduce, unpack)
from .engine import TrainingConfig, Worker, run_training, run_training_sim, scale_lr
from .model import RealModel, finite_difference_check
from .profiles import ModelProfile, all_profiles, build_profile

__all__ = [
    "__version__",
    "CommGroup", "FlatBuffer", "pack", "unpack",
    "ring_allreduce", "tree_allreduce", "allreduce_chunkwise",
    "TrainingConfig", "Worker", "run_training", "run_training_sim", "scale_lr",
    "RealModel", "finite_difference_check",
    "ModelProfile", "build_profile", "all_profiles",
]
