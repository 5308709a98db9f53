"""Experiment harness: run modes, reproduce every paper table/figure."""

from repro.harness.runner import Mode, run, unshared, shared, improvement
from repro.harness.engine import Engine, EngineStats, ResultCache, RunSpec
from repro.harness.resilience import (BatchReport, RetryPolicy, RunFailure,
                                      split_results)
from repro.harness.faults import FaultInjector, corrupt_cache_entry
from repro.harness.experiments import EXPERIMENTS, run_experiment, ExperimentResult
# Imported for its side effect: registers the ext_* experiments.
from repro.harness import extensions as _extensions  # noqa: F401
from repro.harness.report import format_table, render_experiment
from repro.harness.sweep import Sweep, rows_to_csv

__all__ = [
    "Mode",
    "run",
    "Engine",
    "EngineStats",
    "ResultCache",
    "RunSpec",
    "BatchReport",
    "RetryPolicy",
    "RunFailure",
    "split_results",
    "FaultInjector",
    "corrupt_cache_entry",
    "unshared",
    "shared",
    "improvement",
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentResult",
    "format_table",
    "render_experiment",
    "Sweep",
    "rows_to_csv",
]
