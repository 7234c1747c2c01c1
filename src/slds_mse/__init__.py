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
    FilterBank,
    GainSchedule,
    InnovationSolveError,
    KalmanStepOutput,
    as_mode_sequence,
    average_filter_modes,
    average_mode,
    filter_bank,
    gain_schedule,
    kf_predict,
    kf_update,
    mode_schedules,
)
from .mismatch import (
    ErrorMoments,
    mismatch_init,
    mismatch_series,
    mismatch_step,
)
from .enumeration import (
    EnumerationCapError,
    pruned_moments,
    single_mode_slds_moments,
    skf_slds_moments,
)
from .fast import (
    MergePairReport,
    MergeReport,
    aggregate_series,
    bank_series,
    merge_clusters,
    merge_recommendation,
    merged_mode,
    pair_model,
)
from .montecarlo import (
    EmpiricalMse,
    SimRun,
    draw_detections,
    empirical_mse,
    run_filter_on_sim,
    run_monte_carlo,
    simulate_slds,
)
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
