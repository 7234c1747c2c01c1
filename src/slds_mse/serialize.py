"""Scenario files: versioned JSON in, canonical JSON out.

Schema (``schema_version: 1``), matrices as row-major nested lists::

    {
      "schema_version": 1,
      "modes":  [{"A": [[...]], "Q": [[...]]}, ...],
      "meas":   {"H": [[...]], "R": [[...]]},
      "chain":  {"Z": [[...]], "prior": [...]},
      "init":   {"mean": [...], "cov": [[...]]},
      "detection": {"p_d": 0.9},                      # optional, default 1.0
      "filters": [{"kind": "single-mode", "mode": 1,  # optional; default is
                   "label": "..."}, ...],             # every single-mode KF
      "horizon": 20,                                  # plus average and skf
      "mc_samples": 20000,                            # optional
      "seed": 0,                                      # optional
      "tolerances": {"sym_tol": 1e-9, "psd_tol": 1e-9}  # optional
    }

Each section is the dataclass it becomes (``_SECTIONS``), and the top
level holds the fields of :class:`SldsModel` and :class:`Scenario`: the
keys of an object are its class's field names, those without a default
are required, and unknown keys are rejected so typos surface as errors
instead of silently falling back to defaults.  Types are checked by the
constructors, whose complaints are re-raised naming the object.
Serialization is canonical (sorted keys, fixed indentation), so
round-tripping a file is diff-stable.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .model import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    Scenario,
    SldsModel,
    Tolerances,
    _shown,
)

SCHEMA_VERSION = 1

# section key -> the class of its object, or of each entry of its list
_SECTIONS = {"modes": ModeModel, "meas": MeasurementModel,
             "chain": MarkovChain, "init": GaussianBelief,
             "detection": DetectionModel, "filters": FilterSpec,
             "tolerances": Tolerances}
_LISTS = ("modes", "filters")


class ScenarioFormatError(ValueError):
    """Scenario JSON that does not follow the documented schema."""


def default_filters(r: int) -> tuple:
    """One single-mode KF per mode, the average KF, and the SKF."""
    specs = [FilterSpec(kind="single-mode", mode=j) for j in range(1, r + 1)]
    specs.append(FilterSpec(kind="average"))
    specs.append(FilterSpec(kind="skf"))
    return tuple(specs)


def _check_keys(data, allowed, where: str) -> None:
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {_shown(unknown)}")


def _build(cls, data, where: str):
    """``cls(**data)`` for an object whose keys are ``cls``'s field names,
    every field without a default among them; a constructor's complaint
    is re-raised naming ``where``."""
    known = fields(cls)
    _check_keys(data, [f.name for f in known], where)
    for f in known:
        if f.name not in data and f.default is f.default_factory is MISSING:
            raise ScenarioFormatError(f"{where}: missing required key "
                                      f"{f.name!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def _section(key: str, data, where: str):
    """The object of section ``key``; a tuple of them for a list section."""
    if key not in _LISTS:
        return _build(_SECTIONS[key], data, where)
    if not isinstance(data, list) or not data:
        raise ScenarioFormatError(f"{where}: expected a non-empty list")
    return tuple(_build(_SECTIONS[key], entry, f"{where}[{k}]")
                 for k, entry in enumerate(data))


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON; structural problems and wrong
    types raise :class:`ScenarioFormatError` (numeric invariants are left
    to :func:`slds_mse.model.validate_scenario`)."""
    model_keys = [f.name for f in fields(SldsModel)]
    _check_keys(data, {"schema_version", *model_keys,
                       *(f.name for f in fields(Scenario))} - {"model"},
                "scenario")
    if "schema_version" not in data:
        raise ScenarioFormatError("scenario: missing required key "
                                  "'schema_version'")
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"scenario: unsupported schema_version {_shown(version)}, "
            f"this reader handles {SCHEMA_VERSION}")
    parts = {key: _section(key, value, f"scenario.{key}")
             if key in _SECTIONS else value
             for key, value in data.items() if key != "schema_version"}
    model = _build(SldsModel, {key: parts.pop(key) for key in model_keys
                               if key in parts}, "scenario")
    parts.setdefault("detection", DetectionModel(p_d=1.0))
    parts.setdefault("filters", default_filters(model.r))
    return _build(Scenario, {"model": model, **parts}, "scenario")


def _plain(obj):
    """The JSON value of a scenario object: a dataclass is the object of
    its fields, less those left at None or the empty string (a filter's
    optional mode and label); arrays and tuples are lists."""
    if is_dataclass(obj):
        items = ((f.name, _plain(getattr(obj, f.name))) for f in fields(obj))
        return {name: value for name, value in items
                if value is not None and value != ""}
    if isinstance(obj, tuple):
        return [_plain(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def scenario_to_dict(scenario: Scenario) -> dict:
    data = _plain(scenario)
    return {"schema_version": SCHEMA_VERSION, **data.pop("model"), **data}


def dumps_scenario(scenario: Scenario) -> str:
    """Canonical JSON text (sorted keys, two-space indent)."""
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a repeated key raises, since the
    last value would silently win."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioFormatError(f"duplicate key {_shown(key)}")
        data[key] = value
    return data


def load_scenario(path) -> Scenario:
    """The scenario of a UTF-8 JSON file; a file that does not decode or
    parse, nests too deeply or repeats a key raises
    :class:`ScenarioFormatError` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ScenarioFormatError(f"{path}: arrays or objects nested too "
                                      f"deeply") from exc
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(scenario))
