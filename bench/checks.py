"""Correctness gate for the benchmark's CLI operations.

Analytic numbers must match their reference within ``RTOL`` relative,
the round-off rule every faster path has to keep.  References come from
``reference.json`` (written by ``make_reference.py`` from a known-good
build) when the workload and seed are stored there, and otherwise from
exact trajectory enumeration at a short horizon, the package's test
oracle.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

RTOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def curves(rows: list[dict], column: str = "analytic_mse") -> dict:
    """Per filter label, the column's values ordered by step."""
    out: dict = {}
    for row in rows:
        out.setdefault(row["filter"], []).append(
            (int(row["step"]), float(row[column])))
    return {label: [v for _, v in sorted(pts)] for label, pts in out.items()}


def improvements(rows: list[dict]) -> dict:
    """Per mode pair "i-j": (improvement, recommendation)."""
    return {f"{row['mode_i']}-{row['mode_j']}":
            (float(row["improvement"]), row["recommendation"])
            for row in rows}


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref)


def curve_mismatch(got: dict, ref: dict, steps=None) -> Optional[str]:
    """First disagreement between analytic curves, or None.

    ``ref`` maps filter label to its values at ``steps``, a sequence of
    step indices; by default every step the reference holds.  A reference
    longer than ``steps`` is compared on its first entries only, so
    ``range(k + 1)`` checks a shorter run against a prefix.
    """
    if set(got) != set(ref):
        return f"filters {sorted(got)} != reference {sorted(ref)}"
    for label, ref_values in ref.items():
        values = got[label]
        at = range(len(ref_values)) if steps is None else steps
        if len(ref_values) < len(at) or len(values) <= max(at, default=-1):
            return (f"{label}: {len(values)} steps, reference has "
                    f"{len(ref_values)}, {len(at)} to compare")
        for step, ref_value in zip(at, ref_values):
            if not _close(values[step], ref_value):
                return (f"{label} step {step}: {values[step]!r} vs "
                        f"reference {ref_value!r}")
    return None


def improvement_mismatch(got: dict, ref: dict) -> Optional[str]:
    """First pair whose improvement is not within ``RTOL`` relative of
    the reference, or whose recommendation differs; None if all agree."""
    if set(got) != set(ref):
        return f"pairs {sorted(got)} != reference {sorted(ref)}"
    for pair, (value, verdict) in got.items():
        ref_value, ref_verdict = ref[pair]
        if not _close(value, ref_value) or verdict != ref_verdict:
            return (f"pair {pair}: {value!r} {verdict} vs reference "
                    f"{ref_value!r} {ref_verdict}")
    return None


def stored(workload: str, seed: int) -> Optional[dict]:
    """Stored reference of this workload and seed, if any."""
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    entries = table.get(workload, {})
    return entries.get("any", entries.get(str(seed)))


def recommend_oracle(scenario_path, n_steps: int, threshold: float = 0.1
                     ) -> dict:
    """Mode-merge improvements ("mean" metric) from exact enumeration.

    Mirrors the documented merge rule: each mode pair becomes a bimodal
    system with a uniform chain; the switching filter is compared with
    the better single-mode filter (lower mean MSE over steps 1..N).
    """
    from slds_mse import (MarkovChain, SldsModel, load_scenario,
                          single_mode_slds_moments, skf_slds_moments)
    scenario = load_scenario(scenario_path)
    model, det = scenario.model, scenario.detection
    half = MarkovChain(Z=np.full((2, 2), 0.5), prior=np.array([0.5, 0.5]))
    out = {}
    for i in range(1, model.r + 1):
        for j in range(i + 1, model.r + 1):
            sub = SldsModel(modes=(model.modes[i - 1], model.modes[j - 1]),
                            meas=model.meas, chain=half, init=model.init)
            skf = skf_slds_moments(sub, det, n_steps)[0].mse
            singles = [single_mode_slds_moments(sub, mode, n_steps)[0].mse
                       for mode in sub.modes]
            best = min(singles, key=lambda mse: mse[1:].mean())
            rel = (best[1:] - skf[1:]) / np.where(best[1:] > 0, best[1:], 1.0)
            value = float(rel.mean())
            out[f"{i}-{j}"] = (value, "merge" if value < threshold else "keep")
    return out
