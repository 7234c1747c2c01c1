"""Transient MSE prediction for Kalman filtering on switching systems.

Analytic error moments of matched, mismatched and switching Kalman
filters on randomly switching linear dynamic systems, cross-validated by
Monte Carlo simulation.  See the README for the scenario file format and
the ``slds-mse`` command line tool.
"""

__version__ = "0.1.0"

from .model import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    MseSeries,
    Scenario,
    SldsModel,
    Tolerances,
    Violation,
    mode_marginal_series,
    validate_model,
    validate_scenario,
)
from .kalman import (
    InnovationSolveError,
    filter_bank,
    gain_schedule,
)
from .enumeration import (
    EnumerationCapError,
    ErrorMoments,
    enumerate_filters,
    mismatch_series,
    single_mode_slds_moments,
    skf_slds_moments,
)
from .fast import (
    MergePairReport,
    MergeReport,
    bank_series,
    merge_clusters,
    merge_recommendation,
    merged_mode,
    pair_model,
)
from .montecarlo import SimRun, run_monte_carlo
from .serialize import (
    ScenarioFormatError,
    default_filters,
    dumps_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .svgchart import line_chart, write_line_chart
