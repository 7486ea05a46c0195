"""Cluster simulator and experiment drivers."""

from .calibrate import (fit_contention_coeff, fit_invocation_overhead,
                        fit_throughput_boundary, contention_slowdown)
from .cost import aggregation_comm_time, collective_time, ring_comm_time, tree_comm_time
from .experiments import (ExperimentReport, ReportRow, count_upward_steps,
                          run_aggregation_comparison, run_collective_bench,
                          run_efficiency_sweep, run_rar_vs_tree,
                          run_scaling_experiment, run_thermal_scenario,
                          simulate_iteration)

__all__ = [
    "ring_comm_time", "tree_comm_time", "aggregation_comm_time", "collective_time",
    "ExperimentReport", "ReportRow", "simulate_iteration", "count_upward_steps",
    "run_scaling_experiment", "run_collective_bench", "run_aggregation_comparison",
    "run_efficiency_sweep", "run_rar_vs_tree", "run_thermal_scenario",
    "fit_contention_coeff", "fit_invocation_overhead", "fit_throughput_boundary",
    "contention_slowdown",
]
