"""Transient MSE prediction for Kalman filtering on switching systems.

Analytic error moments of matched, mismatched and switching Kalman
filters on randomly switching linear dynamic systems, cross-validated by
Monte Carlo simulation.  See the README for the scenario file format and
the ``slds-mse`` command line tool.

``import slds_mse`` loads the model types and the scenario reader only.
Each engine module loads on first use of one of its names (PEP 562), so
that loading and validating a scenario imports no engine.
"""

from importlib import import_module as _import_module

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
from .serialize import (
    ScenarioFormatError,
    default_filters,
    dumps_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

# Each engine name and the module that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(("InnovationSolveError", "filter_bank", "gain_schedule"),
                    "kalman"),
    **dict.fromkeys(("EnumerationCapError", "ErrorMoments",
                     "enumerate_filters", "mismatch_series",
                     "single_mode_slds_moments", "skf_slds_moments"),
                    "enumeration"),
    **dict.fromkeys(("MergePairReport", "MergeReport", "bank_series",
                     "merge_clusters", "merge_recommendation", "merged_mode",
                     "pair_model"), "fast"),
    **dict.fromkeys(("SimRun", "run_monte_carlo"), "montecarlo"),
    **dict.fromkeys(("line_chart", "write_line_chart"), "svgchart"),
}

# Every public name, the engine modules' names among them: those loaded
# now, then those the table defers.  ``from slds_mse import *`` imports
# every engine, as it did before the table.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [*_LAZY, *dict.fromkeys(_LAZY.values())]


def __getattr__(name: str):
    """An engine name, or an engine module such as ``slds_mse.fast``,
    imported now and kept in the package namespace."""
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
