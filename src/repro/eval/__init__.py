"""Evaluation harness: one runner per paper table/figure, plus rendering."""

from .experiments import FAST_CONFIG, ExperimentConfig
from .figures import ascii_curve, curves_of, write_curves_csv
from .reporting import ReportSpec, build_report, write_report
from .stats import ConfidenceInterval, SignTestResult, bootstrap_ci, paired_sign_test
from .runners import (
    AccuracyComparison,
    AccuracyGridConfig,
    ClusteringRow,
    ExploitOutcome,
    ExploitStudy,
    ModelAccuracy,
    ProgramData,
    RuntimeRow,
    accuracy_comparisons,
    accuracy_grid,
    prepare_program,
    run_accuracy_comparison,
    run_clustering_reduction,
    run_coverage_survey,
    run_exploit_detection,
    run_gadget_survey,
    run_runtime_table,
)
from .tables import format_factor, format_rate, render_table

__all__ = [
    "FAST_CONFIG",
    "AccuracyComparison",
    "AccuracyGridConfig",
    "ClusteringRow",
    "ExperimentConfig",
    "ExploitOutcome",
    "ExploitStudy",
    "ModelAccuracy",
    "ProgramData",
    "RuntimeRow",
    "ConfidenceInterval",
    "SignTestResult",
    "accuracy_comparisons",
    "accuracy_grid",
    "ascii_curve",
    "ReportSpec",
    "bootstrap_ci",
    "build_report",
    "write_report",
    "paired_sign_test",
    "curves_of",
    "format_factor",
    "format_rate",
    "write_curves_csv",
    "prepare_program",
    "render_table",
    "run_accuracy_comparison",
    "run_clustering_reduction",
    "run_coverage_survey",
    "run_exploit_detection",
    "run_gadget_survey",
    "run_runtime_table",
]
