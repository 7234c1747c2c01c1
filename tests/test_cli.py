"""Command line and scenario-file tests.

Every test drives :func:`slds_mse.cli.main` in process and inspects the
captured output, so exit codes, CSV layout and report text are all pinned
without spawning subprocesses.
"""

import csv
import dataclasses
import functools
import io
import itertools
import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import (
    BLOCK,
    bimodal_model,
    block_budget,
    detection,
    filter_specs,
    random_model,
)
from slds_mse import (
    DetectionModel,
    FilterSpec,
    Scenario,
    Tolerances,
    __version__,
    bank_series,
    cli,
    dumps_scenario,
    enumeration,
    fast,
    kalman,
    load_scenario,
    pair_model,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from slds_mse.cli import main

DEMO = "demos/scenarios/bimodal4d.json"
DATA = Path(__file__).resolve().parent / "data"


def scenario_dict(**overrides):
    """Scalar two-mode benchmark scenario; fast enough for every command."""
    base = {
        "schema_version": 1,
        "modes": [{"A": [[0.9]], "Q": [[0.01]]},
                  {"A": [[0.46]], "Q": [[0.01]]}],
        "meas": {"H": [[1.0]], "R": [[0.01]]},
        "chain": {"Z": [[0.5, 0.5], [0.5, 0.5]], "prior": [0.5, 0.5]},
        "init": {"mean": [1.0], "cov": [[1.0]]},
        "detection": {"p_d": 0.9},
        "horizon": 6,
        "mc_samples": 2000,
        "seed": 7,
    }
    base.update(overrides)
    return base


@pytest.fixture
def scenario_file(tmp_path):
    def write(name="scenario.json", **overrides):
        path = tmp_path / name
        path.write_text(json.dumps(scenario_dict(**overrides)))
        return str(path)
    return write


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


NONUNIFORM = {"Z": [[0.9, 0.1], [0.2, 0.8]], "prior": [1.0, 0.0]}


class TestScenarioFiles:
    def test_round_trip_is_canonical(self, scenario_file):
        scenario = load_scenario(scenario_file())
        text = dumps_scenario(scenario)
        again = scenario_from_dict(json.loads(text))
        assert dumps_scenario(again) == text

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(r=st.integers(1, 3), z=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), p_d=st.floats(0.0, 1.0),
           horizon=st.integers(1, 500), mc_samples=st.integers(1, 10 ** 6),
           run_seed=st.integers(0, 2 ** 63), tol=st.floats(1e-15, 1e-3),
           data=st.data())
    def test_json_round_trip_is_stable(self, r, z, seed, p_d, horizon,
                                       mc_samples, run_seed, tol, data):
        labels = st.one_of(st.just(""), st.text(max_size=8))
        filters = [dataclasses.replace(spec, label=data.draw(labels))
                   for spec in data.draw(filter_specs(r))]
        scenario = Scenario(
            model=random_model(np.random.default_rng(seed), r, z,
                               uniform_rows=False, uniform_prior=False),
            horizon=horizon, detection=DetectionModel(p_d), filters=filters,
            mc_samples=mc_samples, seed=run_seed,
            tolerances=Tolerances(sym_tol=tol, psd_tol=tol / 2))
        text = dumps_scenario(scenario)
        assert dumps_scenario(scenario_from_dict(
            scenario_to_dict(scenario))) == text
        assert dumps_scenario(scenario_from_dict(json.loads(text))) == text

    def test_demo_file_is_canonical(self):
        assert dumps_scenario(load_scenario(DEMO)) == Path(DEMO).read_text()

    def test_save_scenario_round_trip(self, scenario_file, tmp_path):
        scenario = load_scenario(scenario_file())
        path = tmp_path / "saved.json"
        save_scenario(scenario, path)
        assert path.read_text() == dumps_scenario(scenario)
        assert dumps_scenario(load_scenario(path)) == path.read_text()

    def test_demo_scenario_loads(self):
        scenario = load_scenario("demos/scenarios/bimodal4d.json")
        assert scenario.model.r == 2
        assert scenario.model.z == 4
        assert scenario.horizon == 20

    def test_omitted_filters_default_to_full_set(self, scenario_file):
        scenario = load_scenario(scenario_file())
        labels = [spec.display for spec in scenario.filters]
        assert labels == ["kf-mode-1", "kf-mode-2", "average-kf", "skf"]


class TestAnalyze:
    def test_csv_layout_and_values(self, scenario_file, capsys):
        assert main(["analyze", "--scenario", scenario_file()]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["step", "filter", "analytic_mse", "method"]
        assert len(rows) == 4 * 7          # four filters, steps 0..6
        assert {row[3] for row in rows} == {"aggregate"}
        # the 17-digit cells round-trip the library doubles exactly
        model = bimodal_model(z=1)
        series, = bank_series(model, None, [FilterSpec("single-mode", 1)], 6)
        cells = [float(row[2]) for row in rows if row[1] == "kf-mode-1"]
        assert cells == [float(v) for v in series.mse]

    def test_out_file_instead_of_stdout(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["analyze", "--scenario", scenario_file(),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        header, rows = read_csv(out.read_text())
        assert header == ["step", "filter", "analytic_mse", "method"]
        assert len(rows) == 28

    def test_horizon_override_changes_row_count(self, scenario_file, capsys):
        assert main(["analyze", "--scenario", scenario_file(),
                     "--horizon", "3"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 4 * 4

    def test_nonuniform_chain_auto_selects_aggregate(self, scenario_file,
                                                     capsys):
        path = scenario_file(chain=NONUNIFORM)
        assert main(["analyze", "--scenario", path]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert {row[3] for row in rows} == {"aggregate"}
        assert main(["analyze", "--scenario", path, "--method", "exact"]) == 0
        _, exact_rows = read_csv(capsys.readouterr().out)
        assert {row[3] for row in exact_rows} == {"exact"}
        assert [row[:2] for row in rows] == [row[:2] for row in exact_rows]
        assert_allclose([float(row[2]) for row in rows],
                        [float(row[2]) for row in exact_rows],
                        rtol=1e-12, atol=0)

    def test_auto_past_enumeration_cap_uses_aggregate(self, scenario_file,
                                                      capsys):
        path = scenario_file(chain=NONUNIFORM, horizon=12)
        assert main(["analyze", "--scenario", path]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert {row[3] for row in rows} == {"aggregate"}

    def test_pruned_method_tags_kept_mass(self, scenario_file, capsys):
        path = scenario_file(chain=NONUNIFORM, horizon=12)
        assert main(["analyze", "--scenario", path, "--method", "pruned",
                     "--keep", "8"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        tags = {row[3] for row in rows if int(row[0]) >= 8}
        assert all(tag.startswith("pruned(") and tag.endswith(")")
                   for tag in tags)
        masses = [float(tag[7:-1]) for tag in tags]
        assert all(0.0 < m <= 1.0 + 1e-12 for m in masses)
        assert min(masses) < 1.0           # the beam really pruned something

    def test_svg_report(self, scenario_file, tmp_path):
        svg = tmp_path / "chart.svg"
        assert main(["analyze", "--scenario", scenario_file(),
                     "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polyline") == 4
        for label in ("kf-mode-1", "kf-mode-2", "average-kf", "skf"):
            assert label in text


class TestSimulate:
    def test_byte_identical_across_runs_and_threads(self, scenario_file,
                                                    capsys):
        path = scenario_file()
        assert main(["simulate", "--scenario", path, "--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--scenario", path, "--threads", "1"]) == 0
        assert capsys.readouterr().out == first
        assert main(["simulate", "--scenario", path, "--threads", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_override_changes_output(self, scenario_file, capsys):
        path = scenario_file()
        assert main(["simulate", "--scenario", path, "--threads", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--scenario", path, "--threads", "1",
                     "--seed", "123"]) == 0
        assert capsys.readouterr().out != first

    def test_csv_layout(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file(),
                     "--threads", "1"]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["step", "filter", "mc_mse", "mc_stderr"]
        assert len(rows) == 4 * 7
        assert all(float(row[2]) >= 0.0 for row in rows)

    def test_single_sample_reports_nan_stderr(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file(mc_samples=1),
                     "--threads", "1"]) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert all(row[3] == "nan" for row in rows)


class TestCompare:
    def test_agreement_verdict_passes(self, scenario_file, capsys):
        assert main(["compare", "--scenario",
                     scenario_file(mc_samples=5000), "--threads", "2"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        header, rows = read_csv(
            captured.out[:captured.out.index("PASS")])
        assert header == ["step", "filter", "analytic_mse", "mc_mse",
                          "mc_stderr", "method"]
        assert len(rows) == 4 * 7

    def test_disagreement_fails_with_exit_4(self, scenario_file, capsys,
                                            monkeypatch):
        import slds_mse.cli as cli_module
        real = cli_module._analytic_series

        def inflated(scenario, args, *bank):
            return [(spec, type(series)(mse=series.mse * 2.0,
                                        method=series.method,
                                        kept_mass=series.kept_mass))
                    for spec, series in real(scenario, args, *bank)]

        monkeypatch.setattr(cli_module, "_analytic_series", inflated)
        assert main(["compare", "--scenario", scenario_file(),
                     "--threads", "1"]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "rel gap" in captured.err

    def test_single_sample_gets_no_stderr_gate(self, scenario_file, capsys):
        # one sample has a NaN stderr, which excuses no gap
        assert main(["compare", "--scenario", scenario_file(mc_samples=1),
                     "--threads", "1"]) == 4
        assert "rel gap" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cells_fail(self, scenario_file, tmp_path, capsys):
        # mode 2's A = 1e100 keeps every innovation covariance finite but
        # overflows the MSE of every filter after step 1
        modes = [{"A": [[0.9]], "Q": [[0.01]]},
                 {"A": [[1e100]], "Q": [[0.01]]}]
        out, svg = tmp_path / "compare.csv", tmp_path / "compare.svg"
        assert main(["compare", "--scenario",
                     scenario_file(modes=modes, horizon=5), "--threads", "1",
                     "--out", str(out), "--svg", str(svg)]) == 4
        assert "nan" not in svg.read_text() and "inf" not in svg.read_text()
        _, rows = read_csv(out.read_text())
        cells = {(row[1], int(row[0])) for row in rows
                 if not np.isfinite([float(row[2]), float(row[3])]).all()}
        assert len(cells) >= 4 * 4
        err = capsys.readouterr().err
        assert err.startswith(f"FAIL: {len(cells)} step(s)")
        named = {(line.split()[0], int(line.split()[2].rstrip(":")))
                 for line in err.splitlines() if line.endswith("(non-finite)")}
        assert named == cells

    @pytest.mark.parametrize("flags, file_horizon", [
        (["--horizon", "1"], 6), ([], 1)], ids=["flag", "file"])
    def test_horizon_below_two_rejected_before_any_work(
            self, scenario_file, tmp_path, capsys, flags, file_horizon):
        # the verdict covers steps 2..N: at N = 1 it would check nothing
        out = tmp_path / "out.csv"
        with mock.patch.object(kalman, "_riccati",
                               wraps=kalman._riccati) as riccati:
            assert main(["compare", "--scenario",
                         scenario_file(horizon=file_horizon), *flags,
                         "--threads", "1", "--out", str(out)]) == 2
        assert riccati.call_count == 0
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: compare checks steps 2..N, so it needs a horizon >= 2, "
            "got 1"]


class TestNonFiniteOutput:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_non_finite_cells_exit_5(self, scenario_file, tmp_path, capsys,
                                     command):
        # mode 2's A = 1e100 keeps every innovation covariance finite but
        # overflows the MSE: the CSV is still written, and the error names
        # each filter's first step with a NaN or infinite cell
        modes = [{"A": [[0.9]], "Q": [[0.01]]},
                 {"A": [[1e100]], "Q": [[0.01]]}]
        out = tmp_path / "out.csv"
        assert main([command, "--scenario",
                     scenario_file(modes=modes, horizon=5), "--threads", "1",
                     "--out", str(out)]) == 5
        header, rows = read_csv(out.read_text())
        assert len(rows) == 4 * 6
        numeric = [i for i, name in enumerate(header) if "mse" in name
                   or "stderr" in name]
        first = {}
        for row in rows:
            if not np.isfinite([float(row[i]) for i in numeric]).all():
                first.setdefault(row[1], int(row[0]))
        assert len(first) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: NaN or infinite values in the CSV")
        assert err.rstrip().endswith(", ".join(
            f"{label} step {step}" for label, step in first.items()))

    @pytest.mark.parametrize("command", ["analyze", "recommend"])
    def test_divergence_reports_only_the_error_line(
            self, scenario_file, tmp_path, capsys, command):
        # mode 1 (A = 3) is unstable: the moments overflow on the way to
        # the exit-5 report, and NumPy must not warn about it on stderr
        path = scenario_file(modes=[{"A": [[3.0]], "Q": [[0.1]]},
                                    {"A": [[0.5]], "Q": [[0.1]]}],
                             meas={"H": [[1.0]], "R": [[1.0]]}, horizon=800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--scenario", path,
                         "--out", str(tmp_path / "out.csv")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error: NaN or infinite")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_finite_output_exits_0(self, scenario_file, tmp_path):
        for command in ("analyze", "simulate"):
            assert main([command, "--scenario", scenario_file(),
                         "--threads", "1",
                         "--out", str(tmp_path / "out.csv")]) == 0


class TestRecommend:
    @staticmethod
    def run(tmp_path, path, *extra):
        """Divert the CSV to a file so stdout starts with the JSON line."""
        out = tmp_path / "pairs.csv"
        code = main(["recommend", "--scenario", path, "--out", str(out),
                     *extra])
        return code, out.read_text()

    def test_distinct_modes_kept_apart(self, scenario_file, tmp_path,
                                       capsys):
        code, csv_text = self.run(tmp_path, scenario_file())
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out.splitlines()[0])
        assert report["clusters"] == [[1], [2]]
        assert report["merge_graph"] == {"1": [], "2": []}
        assert "keep both" in out
        assert "recommendation: keep all modes; SKF recommended" in out
        header, rows = read_csv(csv_text)
        assert header == ["mode_i", "mode_j", "improvement", "metric",
                          "threshold", "best_single", "recommendation"]
        assert len(rows) == 1
        assert rows[0][6] == "keep"
        assert float(rows[0][2]) > 0.1

    def test_generous_threshold_merges_everything(self, scenario_file,
                                                  tmp_path, capsys):
        code, _ = self.run(tmp_path, scenario_file(), "--threshold", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["clusters"] == [[1, 2]]
        assert "merge all modes into one averaged mode" in out

    def test_duplicated_mode_forms_cluster(self, scenario_file, tmp_path,
                                           capsys):
        path = scenario_file(
            modes=[{"A": [[0.9]], "Q": [[0.01]]},
                   {"A": [[0.9]], "Q": [[0.01]]},
                   {"A": [[0.46]], "Q": [[0.01]]}],
            chain={"Z": [[1 / 3] * 3] * 3, "prior": [1 / 3] * 3})
        code, _ = self.run(tmp_path, path)
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["clusters"] == [[1, 2], [3]]
        assert "SKF over merged mode groups {1,2}, {3}" in out

    def test_single_mode_model_is_rejected(self, scenario_file, capsys):
        path = scenario_file(modes=[{"A": [[0.9]], "Q": [[0.01]]}],
                             chain={"Z": [[1.0]], "prior": [1.0]})
        assert main(["recommend", "--scenario", path]) == 2
        assert "at least two modes" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_improvement_exits_5(self, scenario_file, tmp_path,
                                            capsys):
        # mode 1 (A = 3) is unstable: every MSE overflows long before step
        # 800, so the improvement is NaN.  The CSV is still written, and no
        # verdict is printed for the pair.
        path = scenario_file(modes=[{"A": [[3.0]], "Q": [[0.1]]},
                                    {"A": [[0.5]], "Q": [[0.1]]}],
                             meas={"H": [[1.0]], "R": [[1.0]]}, horizon=800)
        code, csv_text = self.run(tmp_path, path)
        assert code == 5
        _, rows = read_csv(csv_text)
        assert [row[:3] for row in rows] == [["1", "2", "nan"]]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: NaN or infinite improvement or MSE "
                                "series in the merge analysis of modes 1+2\n")


class TestGoldenOutputs:
    """The demo's CSVs against files written by earlier releases: those of
    ``analyze`` and ``recommend`` before the moment kernel dropped the
    means, those of the Monte Carlo commands ``simulate`` and ``compare``
    before the stored-run replay was deleted, and those of exact and
    pruned enumeration before the filter groups replaced per-filter row
    weights.  Numeric cells within 1e-12 relative, every other cell
    exact."""

    NUMERIC = {"analytic_mse", "improvement", "threshold", "mc_mse",
               "mc_stderr"}
    # golden file demo_<name>.csv: the command that writes it
    COMMANDS = {
        "analyze": ["analyze"], "recommend": ["recommend"],
        "simulate": ["simulate"], "compare": ["compare"],
        "exact": ["analyze", "--method", "exact", "--horizon", "8"],
        "pruned": ["analyze", "--method", "pruned", "--keep", "64",
                   "--horizon", "8"]}

    @pytest.mark.parametrize("name", COMMANDS)
    def test_demo_csv_matches_golden_file(self, tmp_path, name):
        out = tmp_path / "out.csv"
        assert main([*self.COMMANDS[name], "--scenario", DEMO,
                     "--out", str(out)]) == 0
        header, rows = read_csv(out.read_text())
        want_header, want_rows = read_csv(
            (DATA / f"demo_{name}.csv").read_text())
        assert header == want_header
        assert len(rows) == len(want_rows)
        numeric = [name in self.NUMERIC for name in header]
        for row, want in zip(rows, want_rows):
            assert [c for c, num in zip(row, numeric) if not num] == \
                [c for c, num in zip(want, numeric) if not num]
            assert_allclose([float(c) for c, num in zip(row, numeric) if num],
                            [float(c) for c, num in zip(want, numeric) if num],
                            rtol=1e-12, atol=0, err_msg=str(want))


class TestFailureModes:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--scenario",
                     str(tmp_path / "absent.json")]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        assert main(["analyze", "--scenario", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (lambda demo: b"\xff" + demo, "not UTF-8 text ('utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte)"),
        (lambda demo: b"[" * 100_000 + b"]" * 100_000,
         "arrays or objects nested too deeply"),
        (lambda demo: demo.rstrip()[:-1].rstrip() + b',\n  "horizon": 3\n}\n',
         "duplicate key 'horizon'"),
    ], ids=["not-utf8", "deep-arrays", "duplicate-key"])
    def test_unreadable_file_is_named(self, tmp_path, capsys, content,
                                      reason):
        # the demo file made undecodable, or given a second "horizon"
        path = tmp_path / "bad.json"
        path.write_bytes(content(Path(DEMO).read_bytes()))
        assert main(["analyze", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path}: {reason}"]

    def test_unsupported_schema_version(self, scenario_file, capsys):
        assert main(["analyze", "--scenario",
                     scenario_file(schema_version=2)]) == 2
        assert "unsupported schema_version" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, scenario_file, capsys):
        assert main(["analyze", "--scenario",
                     scenario_file(extra_knob=1)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_numeric_validation_failure(self, scenario_file, capsys):
        path = scenario_file(modes=[{"A": [[0.9]], "Q": [[-1.0]]},
                                    {"A": [[0.46]], "Q": [[0.01]]}])
        assert main(["analyze", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "validation failed" in err
        assert "modes[1].Q" in err

    def test_label_clash_names_both_entries(self, scenario_file, capsys):
        path = scenario_file(filters=[
            {"kind": "skf"}, {"kind": "single-mode", "mode": 1,
                              "label": "skf"}])
        assert main(["analyze", "--scenario", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scenario validation failed:",
            "  [filter-label-clash] filters[1]: label 'skf' already names "
            "filters[0], a different filter"]

    @pytest.mark.parametrize("field, override", [
        ("modes[1].Q", {"modes": [{"A": [[0.9]], "Q": [[float("nan")]]},
                                  {"A": [[0.46]], "Q": [[0.01]]}]}),
        ("meas.H", {"meas": {"H": [[float("inf")]], "R": [[0.01]]}}),
    ])
    def test_non_finite_input_is_named(self, scenario_file, capsys, field,
                                       override):
        assert main(["analyze", "--scenario", scenario_file(**override)]) == 2
        err = capsys.readouterr().err
        assert f"[finite] {field}" in err
        assert "symmetry" not in err

    def test_horizon_override_is_validated(self, scenario_file, capsys):
        assert main(["analyze", "--scenario", scenario_file(),
                     "--horizon", "0"]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_exact_over_capacity(self, scenario_file, capsys):
        path = scenario_file(chain=NONUNIFORM, horizon=12)
        assert main(["analyze", "--scenario", path,
                     "--method", "exact"]) == 3
        err = capsys.readouterr().err
        assert "skf" in err
        assert "--method aggregate" in err

    def test_exact_over_capacity_enumerates_nothing(self, scenario_file,
                                                    capsys):
        # the SKF's 4^12 pairs are over the cap, the fixed filters' 2^12
        # trajectories are not: every cap is checked before any leaf moves
        path = scenario_file(chain=NONUNIFORM, horizon=12)
        with mock.patch.object(enumeration, "_advance",
                               wraps=enumeration._advance) as advance:
            assert main(["analyze", "--scenario", path,
                         "--method", "exact"]) == 3
        assert advance.call_count == 0
        err = capsys.readouterr().err
        assert "error: skf:" in err
        assert "--method aggregate" in err and "--method pruned" in err

    def test_fixed_gain_over_capacity_enumerates_nothing(self, scenario_file,
                                                        capsys):
        # without a switching filter the fixed-gain tree checks its own cap
        filters = [{"kind": "single-mode", "mode": 1},
                   {"kind": "single-mode", "mode": 2}, {"kind": "average"}]
        path = scenario_file(chain=NONUNIFORM, horizon=21, filters=filters)
        with mock.patch.object(enumeration, "_advance",
                               wraps=enumeration._advance) as advance:
            assert main(["analyze", "--scenario", path,
                         "--method", "exact"]) == 3
        assert advance.call_count == 0
        err = capsys.readouterr().err
        assert "error: kf-mode-1, kf-mode-2, average-kf: " in err
        assert "2^21 trajectories" in err and "--method aggregate" in err

    def test_pruned_requires_a_budget(self, scenario_file, capsys):
        assert main(["analyze", "--scenario", scenario_file(),
                     "--method", "pruned"]) == 3
        assert "--keep or --mass" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("extra", [
        ["--keep", "3"],
        ["--method", "exact", "--mass", "0.5"],
        ["--method", "aggregate", "--keep", "3"],
    ])
    def test_budget_requires_pruned(self, scenario_file, capsys, command,
                                    extra):
        assert main([command, "--scenario", scenario_file(), *extra]) == 3
        captured = capsys.readouterr()
        flag = "--keep" if "--keep" in extra else "--mass"
        assert f"{flag} requires --method pruned" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("flag, value, reason", [
        ("--keep", "0", "must be >= 1, got 0"),
        ("--keep", "-3", "must be >= 1, got -3"),
        ("--mass", "0", "must lie in (0, 1], got 0.0"),
        ("--mass", "1.5", "must lie in (0, 1], got 1.5"),
        ("--mass", "nan", "must lie in (0, 1], got nan"),
    ])
    def test_bad_budget_is_rejected_before_any_work(
            self, scenario_file, capsys, command, flag, value, reason):
        # a validation error naming the flag, not a filter's method failure
        # after the scenario is read and the filter bank built
        with mock.patch.object(cli, "load_scenario") as load, \
                mock.patch.object(cli, "filter_bank") as bank:
            assert main([command, "--scenario", scenario_file(),
                         "--method", "pruned", f"{flag}={value}"]) == 2
        assert load.call_count == bank.call_count == 0
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_keep_and_mass_are_exclusive(self, scenario_file, capsys,
                                         command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scenario", scenario_file(), "--method",
                  "pruned", "--keep", "3", "--mass", "0.5"])
        assert excinfo.value.code == 2
        assert "--mass: not allowed with argument --keep" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("compare", "--rtol", "nan"),
        ("compare", "--rtol", "inf"),
        ("compare", "--rtol", "-1"),
        ("recommend", "--threshold", "nan"),
        ("recommend", "--threshold", "-inf"),
    ])
    def test_non_finite_or_negative_tolerance_rejected(
            self, scenario_file, capsys, command, flag, value):
        assert main([command, "--scenario", scenario_file(),
                     f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare",
                                         "recommend"])
    def test_unwritable_out_path(self, scenario_file, tmp_path, capsys,
                                 command):
        target = tmp_path / "absent" / "report.csv"
        assert main([command, "--scenario", scenario_file(), "--threads", "1",
                     "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert f"cannot write --out {target}: No such file" in captured.err
        assert captured.out == ""

    def test_out_path_that_is_a_directory(self, scenario_file, tmp_path,
                                          capsys):
        assert main(["analyze", "--scenario", scenario_file(),
                     "--out", str(tmp_path)]) == 2
        assert f"cannot write --out {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_unwritable_svg_path(self, scenario_file, tmp_path, capsys,
                                 command):
        target = tmp_path / "absent" / "chart.svg"
        assert main([command, "--scenario", scenario_file(), "--threads", "1",
                     "--out", str(tmp_path / "report.csv"),
                     "--svg", str(target)]) == 2
        captured = capsys.readouterr()
        assert f"cannot write --svg {target}: No such file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare",
                                         "recommend"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_rejected(self, scenario_file, capsys, command,
                                        value):
        assert main([command, "--scenario", scenario_file(),
                     f"--threads={value}"]) == 2
        captured = capsys.readouterr()
        assert f"--threads must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


DROP = object()
DEEP = functools.reduce(lambda entry, _: [entry], range(900), 0.5)
PLANAR = {"modes": [{"A": [[0.9, 0.0], [0.0, 0.9]],
                     "Q": [[0.01, 0.005], [0.0, 0.01]]}] * 2,
          "meas": {"H": [[1.0, 0.0]], "R": [[0.01]]},
          "init": {"mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}


class TestInputRejection:
    """Each malformed scenario exits 2 before any analysis, with one
    ``error: scenario...`` line naming the object at fault."""

    @pytest.mark.parametrize("override, named", [
        ({"detection": {"p_d": "high"}},
         "scenario.detection: p_d must be a real number, got 'high'"),
        ({"detection": {"p_d": None}},
         "scenario.detection: p_d must be a real number, got None"),
        ({"tolerances": {"sym_tol": "x"}},
         "scenario.tolerances: sym_tol must be a real number, got 'x'"),
        ({"filters": [{"kind": "single-mode", "mode": "1"}]},
         "scenario.filters[0]: mode must be an integer, got '1'"),
        ({"filters": [{"kind": "single-mode", "mode": 1.5}]},
         "scenario.filters[0]: mode must be an integer, got 1.5"),
        ({"filters": [{"kind": "skf"}, {"kind": "single-mode", "mode": True}]},
         "scenario.filters[1]: mode must be an integer, got True"),
        ({"filters": [{"kind": "skf", "label": 3}]},
         "scenario.filters[0]: label must be a string, got 3"),
        ({"schema_version": True},
         "scenario: unsupported schema_version True"),
        ({"schema_version": 1.0},
         "scenario: unsupported schema_version 1.0"),
        ({"schema_version": DROP},
         "scenario: missing required key 'schema_version'"),
        ({"horizon": 6.0}, "scenario: horizon must be an integer, got 6.0"),
        ({"seed": False}, "scenario: seed must be an integer, got False"),
        ({"horizon": DROP}, "scenario: missing required key 'horizon'"),
        ({"meas": {"H": [[1.0]]}}, "scenario.meas: missing required key 'R'"),
        ({"chain": [[0.5, 0.5], [0.5, 0.5]]}, "scenario.chain: expected an "
                                              "object"),
        ({"modes": [{"A": [[0.9]], "Q": [[0.01]]}, "mode"]},
         "scenario.modes[1]: expected an object"),
        ({"modes": []}, "scenario.modes: expected a non-empty list"),
        ({"filters": []}, "scenario.filters: expected a non-empty list"),
        ({"modes": [{"A": [[0.9, 0.1], [0.2]], "Q": [[0.01]]}]},
         "scenario.modes[0]: A must be a rectangular array of real numbers, "
         "got entry [0.9, 0.1]"),
        ({"modes": [{"A": [[True]], "Q": [[0.01]]}] * 2},
         "scenario.modes[0]: A must be a rectangular array of real numbers, "
         "got entry True"),
        ({"modes": [{"A": [[[0.9]]], "Q": [[0.01]]},
                    {"A": [[0.46]], "Q": [[0.01]]}]},
         "scenario.modes[0]: A shape (1, 1, 1) does not fit (z, z)"),
        ({"chain": {"Z": [[0.5, 0.5], [0.5, 0.5]], "prior": [0.5, None]}},
         "scenario.chain: prior must be a rectangular array of real "
         "numbers, got entry None"),
        ({"init": {"mean": [1.0], "cov": [[[1.0]]]}},
         "scenario.init: cov shape (1, 1, 1) does not fit (z, z)"),
        ({"modes": [{"A": [[0.9]], "Q": [[0.01]]},
                    {"A": [[0.46]], "Q": [[0.01, 0.0]]}]},
         "scenario.modes[1]: Q shape (1, 2) does not fit (z, z): z is 1 in A"),
        ({"chain": {"Z": [[0.5, 0.5], [0.5, 0.5]], "prior": [1.0]}},
         "scenario.chain: prior shape (1,) does not fit (r,): r is 2 in Z"),
        ({"meas": {"H": [[1.0], [1.0]], "R": [[0.01]]}},
         "scenario.meas: R shape (1, 1) does not fit (m, m): m is 2 in H"),
        ({"meas": {"H": [[[1.0]]], "R": [[0.01]]}},
         "scenario.meas: H shape (1, 1, 1) does not fit (m, z)"),
        ({"filters": [{"kind": "ukf"}]},
         "scenario.filters[0]: unknown filter kind 'ukf'"),
        ({"filters": [{"kind": "single-mode"}]},
         "scenario.filters[0]: single-mode filter spec requires a mode index"),
        ({"filters": [{"kind": "average", "mode": 2}]},
         "scenario.filters[0]: average filter spec takes no mode index, "
         "got 2"),
        ({"filters": [{"kind": "single-mode", "mode": 1},
                      {"kind": "skf", "mode": 7}]},
         "scenario.filters[1]: skf filter spec takes no mode index, got 7"),
        ({"modes": [{"A": [[0.9]], "Q": [[0.01]]}, PLANAR["modes"][0]]},
         "[state-dim-mismatch] modes[2]: state dimension 2 != 1"),
        ({"chain": {"Z": [[1.5, -0.5], [0.5, 0.5]], "prior": [0.5, 0.5]}},
         "[probability-range] chain.Z"),
        (PLANAR, "[Q-symmetric] modes[1].Q"),
        ({"tolerances": {"psd_tol": float("nan")}},
         "[tolerance-range] tolerances.psd_tol: psd_tol must be finite and "
         ">= 0, got nan"),
        ({"tolerances": {"sym_tol": -1.0}},
         "[tolerance-range] tolerances.sym_tol: sym_tol must be finite and "
         ">= 0, got -1.0"),
        # a long rejected value is cut short, to keep the line short
        ({"modes": [{"A": DEEP, "Q": [[0.01]]},
                    {"A": [[0.46]], "Q": [[0.01]]}]},
         "scenario.modes[0]: A must be a rectangular array of real numbers, "
         "got entry [[[[[[[...]]]]]]]"),
        ({"horizon": list(range(500))},
         "scenario: horizon must be an integer, got [0, 1, 2, 3, 4, 5, ...]"),
        ({"detection": {"p_d": "x" * 2000}},
         "scenario.detection: p_d must be a real number, got "
         "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ], ids=["p_d-string", "p_d-null", "sym_tol-string", "mode-string",
            "mode-float", "mode-bool", "label-int", "schema_version-bool",
            "schema_version-float", "no-schema_version", "horizon-float",
            "seed-bool", "missing-horizon", "missing-R",
            "chain-list", "modes-entry-string", "no-modes", "no-filters",
            "ragged-A", "A-bool-entry", "A-3d", "prior-null-entry", "cov-3d",
            "Q-shape", "prior-length", "R-shape", "H-3d", "unknown-kind",
            "single-mode-no-mode", "average-mode", "skf-mode",
            "mode-dimension", "Z-range", "Q-asymmetric", "psd_tol-nan",
            "sym_tol-negative", "A-900-deep", "horizon-list",
            "p_d-long-string"])
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_rejected_with_its_reason(self, tmp_path, capsys, command,
                                      override, named):
        data = {key: value for key, value in scenario_dict(**override).items()
                if value is not DROP}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with mock.patch.object(cli, "filter_bank") as bank:
            assert main([command, "--scenario", str(path)]) == 2
        assert bank.call_count == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line.startswith("error: scenario") for line in lines] == \
            [True] + [False] * (len(lines) - 1)
        assert named in captured.err
        assert max(map(len, lines)) <= 200


class TestDivergentFilterBank:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command",
                             ["analyze", "compare", "simulate", "recommend"])
    def test_non_finite_innovation_exits_3(self, scenario_file, capsys,
                                           command):
        # mode 2's A = 1e200 overflows its KF's covariance at step 1
        modes = [{"A": [[0.9]], "Q": [[0.01]]},
                 {"A": [[1e200]], "Q": [[0.01]]}]
        assert main([command, "--scenario", scenario_file(modes=modes),
                     "--threads", "1"]) == 3
        captured = capsys.readouterr()
        assert "innovation covariance is not finite at step 1 of row 1" \
            in captured.err
        assert captured.out == ""


class TestSharedFilterBank:
    """Every analytic filter of a command reads one filter bank, and
    ``compare`` hands the same bank to Monte Carlo: counted Riccati
    passes, not wall-clock time, keep per-filter schedule recomputation
    from creeping back."""

    @pytest.mark.parametrize("command, passes", [
        ("analyze", 1), ("simulate", 1), ("compare", 1)])
    def test_one_riccati_pass_per_consumer(self, tmp_path, command, passes):
        with mock.patch.object(kalman, "_riccati",
                               wraps=kalman._riccati) as riccati:
            assert main([command, "--scenario", DEMO, "--threads", "1",
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert riccati.call_count == passes
        batch = {call.args[0].shape[0] for call in riccati.call_args_list}
        assert batch == {3}            # r = 2 modes plus the average filter

    @pytest.mark.parametrize("method", [
        ["--method", "exact", "--horizon", "4"],
        ["--method", "pruned", "--keep", "8"]], ids=["exact", "pruned"])
    def test_one_riccati_pass_for_enumeration(self, tmp_path, method):
        with mock.patch.object(kalman, "_riccati",
                               wraps=kalman._riccati) as riccati:
            assert main(["analyze", "--scenario", DEMO, *method,
                         "--out", str(tmp_path / "out.csv")]) == 0
        assert riccati.call_count == 1
        assert riccati.call_args.args[0].shape[0] == 3


class TestOneMomentPass:
    """Every analytic filter of a command advances in one moment pass
    that builds the branch maps once per block of steps: counted kernel
    calls, map builds and batch shapes, not wall-clock time, keep
    per-filter recursions from creeping back."""

    @pytest.mark.parametrize("command", ["analyze", "compare", "recommend"])
    def test_one_kernel_call(self, scenario_file, tmp_path, command):
        horizon = 2 * BLOCK + 3          # three blocks under block_budget
        paths = [scenario_file(horizon=horizon, mc_samples=500)]
        if command == "recommend":
            # three pairs of modes, which one kernel call runs side by side
            paths.append(scenario_file(
                "three.json", horizon=horizon,
                modes=[{"A": [[a]], "Q": [[0.01]]} for a in (0.9, 0.46, 0.7)],
                chain={"Z": [[1 / 3] * 3] * 3, "prior": [1 / 3] * 3}))
        for path in paths:
            budget = block_budget(BLOCK, load_scenario(path).model,
                                  merge=command == "recommend")
            with mock.patch.object(fast, "_BLOCK_BYTES", budget), \
                    mock.patch.object(fast, "_bank_moments",
                                   wraps=fast._bank_moments) as kernel, \
                    mock.patch.object(fast, "_joint_factors",
                                      wraps=fast._joint_factors) as factors, \
                    mock.patch.object(cli, "merge_recommendation",
                                      wraps=cli.merge_recommendation) as merge:
                assert main([command, "--scenario", path, "--threads", "1",
                             "--out", str(tmp_path / "out.csv")]) == 0
            assert kernel.call_count == 1 and not kernel.call_args.kwargs
            systems, A_f, K, groups, index = kernel.call_args.args
            assert factors.call_count == 3
            # (rows shape, D shape) of each filter group
            shapes = [(rows.shape, D.shape) for rows, D in groups]
            if command == "recommend":
                # each pair's own model, in pair order: its two KF rows,
                # its SKF and both KFs
                model = merge.call_args.args[0]
                pairs = list(itertools.combinations(range(1, model.r + 1), 2))
                assert len(systems) == len(pairs)
                for system, (i, j) in zip(systems, pairs):
                    want = pair_model(model, i, j)
                    assert system.modes == want.modes
                    assert system.meas is want.meas
                    assert system.init is want.init
                    assert_array_equal(system.chain.Z, want.chain.Z)
                    assert_array_equal(system.chain.prior, want.chain.prior)
                assert A_f.shape == K.shape == (len(pairs), 2, horizon, 1, 1)
                assert shapes == [((1, 2), (2, 2)), ((2, 1), (2, 1))]
                assert_array_equal(index, [0, 1, 2])
            else:
                # the scenario's own modes: r = 2 mode rows plus the
                # average filter's, four filters
                assert len(systems) == 1 and systems[0].r == 2
                assert A_f.shape == K.shape == (1, 3, horizon, 1, 1)
                assert shapes == [((1, 2), (2, 2)), ((3, 1), (2, 1))]
                assert_array_equal(index, [1, 2, 3, 0])
