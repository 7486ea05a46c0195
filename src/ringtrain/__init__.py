"""ringtrain: synchronous data-parallel training over small clusters.

Real gradients move through a ring (or tree) allreduce over either framed TCP
or a deterministic simulated network; an experiment harness reproduces scaling,
contention, aggregation-strategy, efficiency, and thermal-throttling studies.
"""

__version__ = "0.1.0"
