"""Consensus-validated time-series causal discovery.

Base discoverers (a self-contained VAR-LiNGAM and a lagged-regression
baseline) estimate lag-indexed causal graphs; the consensus layer re-runs the
base method on blocked folds of the series and removes edges whose sign or
magnitude is unstable across folds.
"""

from .consensus import (
    EdgeStability,
    StabilityReport,
    VcdfConfig,
    directional_consistency,
    extract_training,
    make_fold_plan,
    relative_variability,
    run_vcdf,
    stability_report_from_json,
    stability_report_to_json,
)
from .discovery import (
    DISCOVERERS,
    BaseDiscoverer,
    DiscovererConfig,
    LaggedRegressionDiscoverer,
    VarFit,
    VarLingamDiscoverer,
    direct_lingam_order,
    fit_var,
    lagreg_discover,
    make_discoverer,
    varlingam_discover,
)
from .evaluation import AggregateStats, F1Result, aggregate, summary_f1, window_f1
from .series import (
    Edge,
    MultivariateSeries,
    WindowGraph,
    graph_from_json,
    graph_to_json,
    read_graph_json,
    read_series_csv,
    summarize,
    write_graph_json,
    write_series_csv,
)
from .synthetic import (
    DEFAULT_BURN_IN,
    DEFAULT_DENSITY,
    DEFAULT_MAX_LAG,
    SETTINGS,
    LabeledDataset,
    ScmSpec,
    benchmark_suite,
    companion_spectral_radius,
    random_scm,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BaseDiscoverer",
    "DEFAULT_BURN_IN",
    "DEFAULT_DENSITY",
    "DEFAULT_MAX_LAG",
    "DISCOVERERS",
    "DiscovererConfig",
    "Edge",
    "EdgeStability",
    "F1Result",
    "LabeledDataset",
    "LaggedRegressionDiscoverer",
    "MultivariateSeries",
    "SETTINGS",
    "ScmSpec",
    "StabilityReport",
    "VarFit",
    "VarLingamDiscoverer",
    "VcdfConfig",
    "WindowGraph",
    "aggregate",
    "benchmark_suite",
    "companion_spectral_radius",
    "direct_lingam_order",
    "directional_consistency",
    "extract_training",
    "fit_var",
    "graph_from_json",
    "graph_to_json",
    "lagreg_discover",
    "make_discoverer",
    "make_fold_plan",
    "random_scm",
    "read_graph_json",
    "read_series_csv",
    "relative_variability",
    "run_vcdf",
    "simulate",
    "stability_report_from_json",
    "stability_report_to_json",
    "summarize",
    "summary_f1",
    "varlingam_discover",
    "window_f1",
    "write_graph_json",
    "write_series_csv",
]
