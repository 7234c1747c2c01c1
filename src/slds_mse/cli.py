"""Command line front end: analyze | simulate | compare | recommend.

A thin shell over the library: scenario JSON in, CSV/SVG reports out.
Every number in a report comes from a library call that is unit-tested
on its own; this layer only selects methods, formats rows and maps
failures to exit codes (0 success, 2 validation failure or an unwritable
output path, 3 capacity or method failure, 4 comparison verdict FAIL,
5 a NaN or infinite cell in an ``analyze`` or ``simulate`` CSV, or in a
``recommend`` pair's improvement or MSE series; the CSV is still
written).
A command imports only the engines it runs: ``kalman`` and ``fast`` with
this module, Monte Carlo, enumeration and the SVG chart on first use.
Set SLDS_MSE_LOG to a level name (DEBUG, INFO, ...) for progress logging
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import os
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .model import MseSeries, Scenario, validate_scenario
from .kalman import InnovationSolveError, filter_bank
from .fast import bank_series, merge_clusters, merge_recommendation
from .serialize import ScenarioFormatError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_COMPARE_FAIL = 4
EXIT_NON_FINITE = 5

log = logging.getLogger("slds_mse.cli")


def run_monte_carlo(*args, **kwargs) -> list:
    """``montecarlo.run_monte_carlo``, its module imported on first call.
    It stays a name of this module that the commands call through, so a
    wrapper set here (a test's patch, ``bench/spans.py``) sees each
    run."""
    from .montecarlo import run_monte_carlo as run
    return run(*args, **kwargs)


class CommandError(Exception):
    """Fatal command failure carrying the process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _g17(value) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(value), ".17g")


def _configure_logging() -> None:
    name = os.environ.get("SLDS_MSE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: parsing never
    changes it, and a build (about 0.7 ms on a 2-vCPU VM) is a large
    share of a small command run in process."""
    parser = argparse.ArgumentParser(
        prog="slds-mse",
        description="Predict and cross-check transient filter MSE on "
                    "randomly switching linear dynamic systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--horizon", type=int,
                       help="override the scenario horizon")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker threads for Monte Carlo chunks; >= 1")

    def analytic_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--svg", help="also write an SVG line chart here")
        p.add_argument("--method", default="auto",
                       choices=("auto", "exact", "pruned", "aggregate"),
                       help="analytic method (auto, the default: the aggregate "
                            "recursion, exact on any Markov chain; exact: "
                            "trajectory enumeration; pruned: beam-pruned "
                            "enumeration)")
        budget = p.add_mutually_exclusive_group()
        budget.add_argument("--keep", type=int, help="trajectories kept per "
                            "step, >= 1 (--method pruned only; an error "
                            "otherwise)")
        budget.add_argument("--mass", type=float, help="probability mass "
                            "kept per step, in (0, 1] (--method pruned only; "
                            "an error otherwise)")

    p = sub.add_parser("analyze", help="analytic MSE per filter")
    common(p)
    analytic_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo MSE per filter")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare",
                       help="analytic vs Monte Carlo with agreement verdict")
    common(p)
    analytic_flags(p)
    p.add_argument("--rtol", type=float, default=0.05,
                   help="relative tolerance for the verdict (steps >= 2); "
                        "finite and >= 0")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("recommend", help="pairwise mode-merge analysis")
    common(p)
    p.add_argument("--threshold", type=float, default=0.1,
                   help="relative improvement below which a pair merges; "
                        "finite")
    p.add_argument("--metric", default="mean", choices=("mean", "max", "final"),
                   help="how per-step improvements are summarized")
    p.set_defaults(func=cmd_recommend)
    return parser


def _load(args) -> Scenario:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise CommandError(EXIT_VALIDATION, f"cannot read scenario: {exc}")
    except ScenarioFormatError as exc:
        raise CommandError(EXIT_VALIDATION, str(exc))
    overrides = {"horizon": args.horizon, "seed": args.seed}
    scenario = dataclasses.replace(scenario, **{
        key: value for key, value in overrides.items() if value is not None})
    violations = validate_scenario(scenario)
    if violations:
        lines = "\n".join(f"  {v}" for v in violations)
        raise CommandError(EXIT_VALIDATION,
                           f"scenario validation failed:\n{lines}")
    return scenario


def _resolve_method(args) -> str:
    """The analytic method ``args`` select, checked before any work."""
    if args.keep is not None and args.keep < 1:
        raise CommandError(EXIT_VALIDATION,
                           f"--keep must be >= 1, got {args.keep}")
    if args.mass is not None and not 0.0 < args.mass <= 1.0:
        raise CommandError(EXIT_VALIDATION,
                           f"--mass must lie in (0, 1], got {args.mass}")
    given = {"--keep": args.keep, "--mass": args.mass}
    budgets = [flag for flag, value in given.items() if value is not None]
    if args.method == "pruned" and not budgets:
        raise CommandError(EXIT_CAPACITY,
                           "--method pruned requires --keep or --mass")
    if args.method != "pruned" and budgets:
        raise CommandError(EXIT_CAPACITY, f"{budgets[0]} requires --method "
                                          f"pruned, not {args.method}")
    return "aggregate" if args.method == "auto" else args.method


def _filter_bank(scenario: Scenario) -> tuple:
    try:
        return filter_bank(scenario.model, scenario.horizon)
    except (ValueError, InnovationSolveError) as exc:
        raise CommandError(EXIT_CAPACITY, f"filter bank: {exc}")


def _analytic_series(scenario: Scenario, args, method: str,
                     bank: Optional[tuple] = None) -> list:
    """(FilterSpec, MseSeries) per scenario filter by ``method``, from
    ``_resolve_method``.  Every method reads ``bank`` when given, else one
    new filter bank."""
    model, det, n = scenario.model, scenario.detection, scenario.horizon
    specs = scenario.filters
    if bank is None:
        bank = _filter_bank(scenario)
    if method == "aggregate":
        t0 = time.perf_counter()
        try:
            series = bank_series(model, det, specs, n, bank)
        except ValueError as exc:
            raise CommandError(EXIT_CAPACITY, f"filter bank: {exc}")
        log.info("%d filters: aggregate method, one filter bank, %.1f ms",
                 len(series), 1e3 * (time.perf_counter() - t0))
        return list(zip(specs, series))
    from .enumeration import EnumerationCapError, enumerate_filters
    try:
        runs = enumerate_filters(model, det, specs, n, bank, keep=args.keep,
                                 mass=args.mass)
    except EnumerationCapError as exc:
        raise CommandError(EXIT_CAPACITY, f"{exc} (try --method aggregate or "
                           f"--method pruned with --keep/--mass)")
    except ValueError as exc:
        raise CommandError(EXIT_CAPACITY, str(exc))
    return [(spec, series) for spec, (series, _) in zip(specs, runs)]


def _method_tags(series: MseSeries) -> list:
    """The method column of each step: per step only for ``pruned``,
    which carries its kept mass."""
    if series.method == "pruned":
        return [f"pruned({format(m, '.6g')})"
                for m in series.kept_mass.tolist()]
    return [series.method] * len(series)


def _unwritable(flag: str, path: str, exc: OSError) -> CommandError:
    return CommandError(EXIT_VALIDATION,
                        f"cannot write {flag} {path}: {exc.strerror or exc}")


def _write_csv(path: Optional[str], header: list, rows: list) -> None:
    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path is None:
        emit(sys.stdout)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                emit(fh)
        except OSError as exc:
            raise _unwritable("--out", path, exc)


def _maybe_svg(path: Optional[str], series_list: list, title: str,
               dashed=()) -> None:
    if path is None:
        return
    from .svgchart import write_line_chart
    chart = [(label, np.arange(len(values)), values)
             for label, values in series_list]
    try:
        write_line_chart(path, chart, title=title, dashed=dashed)
    except OSError as exc:
        raise _unwritable("--svg", path, exc)


def _require_finite(cells: list) -> None:
    """Exit 5 naming each filter's first step with a NaN or infinite cell;
    ``cells`` pairs a filter label with its values ``(N+1, k)``."""
    bad = [(label, np.flatnonzero(~np.isfinite(values).all(axis=1)))
           for label, values in cells]
    named = [f"{label} step {steps[0]}" for label, steps in bad if steps.size]
    if named:
        raise CommandError(EXIT_NON_FINITE, "NaN or infinite values in the "
                           "CSV, first per filter: " + ", ".join(named))


def cmd_analyze(args) -> int:
    method = _resolve_method(args)
    scenario = _load(args)
    results = _analytic_series(scenario, args, method)
    rows = []
    for spec, series in results:
        rows += zip(range(len(series)), [spec.display] * len(series),
                    [format(v, ".17g") for v in series.mse.tolist()],
                    _method_tags(series))
    _write_csv(args.out, ["step", "filter", "analytic_mse", "method"], rows)
    _maybe_svg(args.svg, [(spec.display, series.mse)
                          for spec, series in results],
               title="Analytic MSE by filter")
    _require_finite([(spec.display, series.mse[:, None])
                     for spec, series in results])
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args)
    runs = run_monte_carlo(scenario.model, scenario.filters,
                           scenario.detection, scenario.horizon,
                           scenario.mc_samples, scenario.seed,
                           threads=args.threads, bank=_filter_bank(scenario))
    rows, cells = [], []
    for spec, run in zip(scenario.filters, runs):
        mse, stderr = run.mse(), run.mse_stderr()
        rows += [[step, spec.display, _g17(mse[step]), _g17(stderr[step])]
                 for step in range(mse.size)]
        # one sample has no standard error: NaN by definition, not a fault
        checked = [mse, stderr] if run.samples > 1 else [mse]
        cells.append((spec.display, np.column_stack(checked)))
    _write_csv(args.out, ["step", "filter", "mc_mse", "mc_stderr"], rows)
    _require_finite(cells)
    return EXIT_OK


def cmd_compare(args) -> int:
    if not (np.isfinite(args.rtol) and args.rtol >= 0):
        raise CommandError(EXIT_VALIDATION, f"--rtol must be finite and "
                                            f">= 0, got {args.rtol}")
    method = _resolve_method(args)
    scenario = _load(args)
    if scenario.horizon < 2:
        raise CommandError(EXIT_VALIDATION, f"compare checks steps 2..N, so "
                           f"it needs a horizon >= 2, got {scenario.horizon}")
    bank = _filter_bank(scenario)        # one Riccati pass for both sides
    results = _analytic_series(scenario, args, method, bank)
    runs = run_monte_carlo(scenario.model, scenario.filters,
                           scenario.detection, scenario.horizon,
                           scenario.mc_samples, scenario.seed,
                           threads=args.threads, bank=bank)
    rows = []
    failures = []
    curves = []
    for (spec, series), run in zip(results, runs):
        mse, stderr = run.mse(), run.mse_stderr()
        curves.append((spec.display, series.mse))
        curves.append((f"{spec.display} (mc)", mse))
        finite = np.isfinite(series.mse) & np.isfinite(mse)
        tags = _method_tags(series)
        for step in range(len(series)):
            a, m = series.mse[step], mse[step]
            rows.append([step, spec.display, _g17(a), _g17(m),
                         _g17(stderr[step]), tags[step]])
            if not finite[step]:
                failures.append((spec.display, step, a, m, "non-finite"))
            elif step >= 2:
                rel = abs(a - m) / a if a > 0 else (0.0 if m == 0 else np.inf)
                # a NaN stderr (one sample) excuses no cell
                if rel > args.rtol and not abs(a - m) <= 4.0 * stderr[step]:
                    failures.append((spec.display, step, a, m,
                                     f"rel gap {rel:.3g}"))
    _write_csv(args.out, ["step", "filter", "analytic_mse", "mc_mse",
                          "mc_stderr", "method"], rows)
    _maybe_svg(args.svg, curves, title="Analytic vs Monte Carlo MSE",
               dashed={label for label, _ in curves if label.endswith(" (mc)")})
    if failures:
        print(f"FAIL: {len(failures)} step(s) outside rtol={args.rtol} "
              f"and the 4-stderr gate", file=sys.stderr)
        for label, step, a, m, why in failures:
            print(f"  {label} step {step}: analytic {a:.6g} vs mc {m:.6g} "
                  f"({why})", file=sys.stderr)
        return EXIT_COMPARE_FAIL
    print(f"PASS: analytic and Monte Carlo MSE agree within "
          f"rtol={args.rtol} or 4 stderr for steps 2..{scenario.horizon}")
    return EXIT_OK


def cmd_recommend(args) -> int:
    if not np.isfinite(args.threshold):
        raise CommandError(EXIT_VALIDATION, f"--threshold must be finite, "
                                            f"got {args.threshold}")
    scenario = _load(args)
    if scenario.model.r < 2:
        raise CommandError(EXIT_VALIDATION,
                           "merge analysis needs at least two modes")
    try:
        report = merge_recommendation(scenario.model, scenario.detection,
                                      scenario.horizon, args.threshold,
                                      metric=args.metric)
    except InnovationSolveError as exc:
        raise CommandError(EXIT_CAPACITY, f"merge analysis: {exc}")
    rows = [[pair.mode_i, pair.mode_j, _g17(pair.improvement), pair.metric,
             _g17(pair.threshold), pair.best_single_label,
             "merge" if pair.merge else "keep"]
            for pair in report.pairs]
    _write_csv(args.out, ["mode_i", "mode_j", "improvement", "metric",
                          "threshold", "best_single", "recommendation"], rows)
    # a NaN improvement compares false, so it would read as "keep"
    bad = [f"modes {p.mode_i}+{p.mode_j}" for p in report.pairs if not
           np.isfinite([p.improvement, *p.skf_mse, *p.best_single_mse]).all()]
    if bad:
        raise CommandError(EXIT_NON_FINITE, "NaN or infinite improvement or "
                           "MSE series in the merge analysis of " + ", ".join(bad))

    adjacency = {str(k): [] for k in range(1, report.r + 1)}
    for pair in report.pairs:
        if pair.merge:
            adjacency[str(pair.mode_i)].append(pair.mode_j)
            adjacency[str(pair.mode_j)].append(pair.mode_i)
    clusters = merge_clusters(report)
    print(json.dumps({"merge_graph": adjacency,
                      "clusters": clusters}, sort_keys=True))
    for pair in report.pairs:
        verdict = "merge" if pair.merge else "keep both"
        print(f"modes {pair.mode_i}+{pair.mode_j}: improvement "
              f"{100 * pair.improvement:.1f}% ({pair.metric}) vs "
              f"{pair.best_single_label} -> {verdict}")
    if len(clusters) == 1:
        print("recommendation: merge all modes into one averaged mode; "
              "a single KF suffices")
    elif all(len(c) == 1 for c in clusters):
        print("recommendation: keep all modes; SKF recommended")
    else:
        kept = ", ".join("{" + ",".join(map(str, c)) + "}" for c in clusters)
        print(f"recommendation: SKF over merged mode groups {kept}")
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise CommandError(EXIT_VALIDATION, f"--threads must be >= 1, "
                                                f"got {args.threads}")
        # a divergent run overflows on its way to the exit-5 report, which
        # names the bad cells; NumPy's own warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
