"""Experiment harness, sweeps, and the per-figure experiment registry."""

from .harness import (
    BATCHED_ALGORITHMS,
    ESTIMATION_ALGORITHMS,
    FINDING_ALGORITHMS,
    RunResult,
    make_estimator,
    make_finder,
    query_stage_shares,
    repeat_median,
    run_algorithm,
    run_stream,
    stage_distribution,
    time_queries,
)
from .exporters import export_experiment, figure_to_csv, figures_to_json, load_figures_json
from .registry import EXPERIMENTS, Experiment, list_experiments, run_experiment
from .report import FigureResult, format_table
from .variance import median_figure, replicate, spread_figure
from .sweeps import (
    estimation_memory_sweep,
    estimation_window_sweep,
    finding_sweep,
    insert_throughput_sweep,
    query_throughput_sweep,
)

__all__ = [
    "BATCHED_ALGORITHMS",
    "ESTIMATION_ALGORITHMS",
    "EXPERIMENTS",
    "Experiment",
    "FINDING_ALGORITHMS",
    "FigureResult",
    "RunResult",
    "estimation_memory_sweep",
    "export_experiment",
    "figure_to_csv",
    "figures_to_json",
    "load_figures_json",
    "estimation_window_sweep",
    "finding_sweep",
    "format_table",
    "insert_throughput_sweep",
    "list_experiments",
    "make_estimator",
    "make_finder",
    "median_figure",
    "query_stage_shares",
    "query_throughput_sweep",
    "repeat_median",
    "replicate",
    "run_algorithm",
    "run_experiment",
    "run_stream",
    "spread_figure",
    "stage_distribution",
    "time_queries",
]
