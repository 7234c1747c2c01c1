"""Benchmark of the slds-mse command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/selftest.py          # reduced-size check of this harness

The package is imported from the checkout's ``src`` directory, never
from an installed copy, and ``slds_mse.cli.main`` is driven in this one
process.  A run of ``--trace 0`` times whole commands with tracing off
and prints the end-to-end metrics; ``--trace 1`` alternates traced and
untraced rounds and prints the per-layer metrics.  Both print one JSON
object as the last line of standard output and write a fuller record to
``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.

Each round is a closed loop over the workload's operations, one caller
waiting on each: ``analyze``, ``recommend``, ``compare`` at one Monte
Carlo thread, and ``analyze --method exact`` at a short horizon (the
enumeration probe, which doubles as the oracle for the first steps).
``compare`` at two threads runs once per run, checked bitwise against
one thread, and after every untraced round of a traced run, where it
gives ``mc_speedup_2t``.  Every workload runs every operation so that every
end-to-end metric is defined on it; where an operation is not what the
workload is about, a short horizon keeps it a small share of the round.
Rounds repeat until ``--seconds`` have passed and every operation has
``--min-rounds`` samples.  Every output is checked; a check that fails
counts the operation as failed.

Latencies are reported in ``ref_s``, wall time divided by a fixed
calibration kernel timed next to each operation (see ``Calibration``);
the raw wall-clock medians and tails are in the JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import scenarios
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEMO_SCENARIO = ROOT / "demos" / "scenarios" / "bimodal4d.json"

MC_THREADS = 2            # the bounds were set on a 2-vCPU machine
MAX_LOOP_S = 120.0        # keeps a run under three minutes if the code slows
FRESH_PROCESSES = 8       # set-up samples per run, each a new interpreter
RSS_PROCESSES = 3         # of those, how many also run one operation
TRACE_FRESH_PROCESSES = 4  # set-up samples in a traced run (no operation)
FRESH_EVERY = 3           # rounds between fresh interpreters
RECOMMEND_ORACLE_HORIZON = 6   # 4^6 (true, detected) pairs per mode pair
ROUND_OPS = ("analyze", "recommend", "compare", "exact")
CAL_REF_S = 0.006         # calibration kernel time that defines one ref_s


class Calibration:
    """A fixed CPU kernel timed next to every group of operations.

    On a shared 2-vCPU Xeon virtual machine, CPU speed drifted by up to
    a half within seconds and by nearly two times within an hour, in CPU
    time as much as in wall time, and a run's median latency moved with
    it.  Dividing each latency by
    the kernel's time measured around it removes most of that drift: the
    coefficient of variation of 3-second medians of ``analyze`` on the
    demo scenario fell from 0.17 to 0.01, of ``compare`` from 0.16 to
    0.04.  Times are then reported in ``ref_s``, seconds on a machine
    where the kernel takes ``CAL_REF_S``.  The kernel is a frozen mix of
    what the program does (a small Riccati loop, a vectorised simulation
    over 1024 samples, a batched product over 8192 small matrices), kept
    here so that no change to the program changes the yardstick.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)

        def contraction(n: int) -> np.ndarray:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            return 0.9 * q

        self._riccati = [contraction(8) for _ in range(30)]
        self._dynamics = [contraction(4) for _ in range(20)]
        self._batch = rng.standard_normal((8192, 4, 4))
        self._small = contraction(4)

    def seconds(self) -> float:
        start = time.perf_counter()
        Q, R = 0.1 * np.eye(8), 0.05 * np.eye(8)
        P = np.eye(8)
        for A in self._riccati:
            P = A @ P @ A.T + Q
            K = np.linalg.solve(P + R, P).T
            P = P - K @ P
            P = (P + P.T) / 2.0
        rng = np.random.Generator(np.random.Philox(key=[1, 2]))
        x = rng.standard_normal((1024, 4))
        acc = np.zeros((4, 4))
        for A in self._dynamics:
            x = x @ A.T + 0.1 * rng.standard_normal((1024, 4))
            acc += np.einsum("si,sj->ij", x, x)
            x[x[:, 0] > 0] *= 0.99
        y = np.einsum("bij,bkj->bik", self._batch @ self._small, self._batch)
        float(y.sum() + acc.sum() + P.sum())
        return time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    make_scenario: Optional[Callable[[int], dict]]   # None: shipped demo
    compare_horizon: Optional[int]   # None: the scenario's own horizon
    exact_horizon: int               # enumeration probe and oracle horizon
    rss_op: str                      # the operation run for peak_rss_mb
    reps: dict = field(default_factory=dict)   # op -> runs per round

    def scenario_path(self, seed: int) -> Path:
        if self.make_scenario is None:
            return DEMO_SCENARIO
        path = OUT / f"{self.name}-seed{seed}.json"
        scenarios.write(self.make_scenario(seed), path)
        return path


# Cheap operations repeat within a round so that their medians rest on
# as many samples as the expensive headline ones.
WORKLOADS = {
    w.name: w for w in (
        Workload("demo-compare", None, compare_horizon=None, exact_horizon=7,
                 rss_op="compare",
                 reps={"analyze": 5, "recommend": 5, "exact": 2}),
        Workload("long-horizon", scenarios.long_horizon, compare_horizon=20,
                 exact_horizon=3, rss_op="analyze",
                 reps={"exact": 2}),
        Workload("sticky-exact", scenarios.sticky_exact, compare_horizon=5,
                 exact_horizon=6, rss_op="analyze",
                 reps={"recommend": 5}),
    )
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  With fewer than 21 samples no
    such percentile lies above the median, so the upper median is given
    with the count actually beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def median_or_zero(values: list[float]) -> float:
    """Median, or 0 when every sample failed (the failures are counted)."""
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: the operations, their checks and timings."""

    def __init__(self, workload: Workload, seed: int, cli_main: Callable):
        self.w = workload
        self.seed = seed
        self.cli_main = cli_main
        self.scenario = workload.scenario_path(seed)
        self.stored = checks.stored(workload.name, seed)
        self.ref: dict = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.times: dict = {op: [] for op in ROUND_OPS + ("compare_2t",)}
        self.scaled: dict = {op: [] for op in ROUND_OPS}      # ref_s
        self.calibration = Calibration()
        self.kernel_s: list[float] = []
        self.root_ops: list[tuple[str, int]] = []
        self.fresh_started = 0
        self.tracer: Optional[spans.Tracer] = None

    # -- operations ---------------------------------------------------

    def argv(self, op: str, out: Path) -> list[str]:
        base = ["--scenario", str(self.scenario), "--out", str(out)]
        if op == "analyze":
            return ["analyze", *base]
        if op == "recommend":
            return ["recommend", *base]
        if op == "recommend_oracle":
            return ["recommend", *base, "--horizon",
                    str(RECOMMEND_ORACLE_HORIZON)]
        if op == "exact":
            return ["analyze", *base, "--method", "exact",
                    "--horizon", str(self.w.exact_horizon)]
        threads = 1 if op == "compare" else MC_THREADS
        argv = ["compare", *base, "--threads", str(threads),
                "--seed", str(self.seed)]
        if self.w.compare_horizon is not None:
            argv += ["--horizon", str(self.w.compare_horizon)]
        return argv

    def call(self, op: str, main: Callable) -> float:
        """Run one operation, check its output, return its wall time."""
        out = OUT / f"{self.w.name}-seed{self.seed}-{op}.csv"
        out.unlink(missing_ok=True)    # never check a previous run's file
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.root_ops.append((op, len(self.tracer.spans)))
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = main(self.argv(op, out))
        except Exception:  # a crashing operation is a failed one; go on
            elapsed = time.perf_counter() - start
            self.fail(op, traceback.format_exc(limit=4))
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            reason = self.check(op, rc, stdout.getvalue(), stderr.getvalue(),
                                out)
        except (OSError, ValueError, KeyError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            self.fail(op, reason)
        return elapsed

    def fail(self, op: str, reason: str) -> None:
        if len(self.failures) < 50:
            self.failures.append({"op": op, "reason": reason})
        else:
            self.failures.append({"op": op})

    def check(self, op: str, rc, stdout: str, stderr: str, out: Path
              ) -> Optional[str]:
        """Reason the operation's output is wrong, or None.

        The first good output of each kind becomes the run's reference
        after it passed the stored reference or the oracle; every later
        output must match it.
        """
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-400:]}"
        rows = checks.read_rows(out)
        if op == "analyze":
            got = checks.curves(rows)
            if "analyze" not in self.ref:
                self.ref["analyze"] = got
                if self.stored:
                    stored = self.stored["analyze"]
                    return checks.curve_mismatch(got, stored["mse"],
                                                 steps=stored["steps"])
                return None
            return checks.curve_mismatch(got, self.ref["analyze"])
        if "analyze" not in self.ref:
            return "no analyze reference to check against"
        if op == "exact":
            return checks.curve_mismatch(
                checks.curves(rows), self.ref["analyze"],
                steps=range(self.w.exact_horizon + 1))
        if op == "recommend":
            got = checks.improvements(rows)
            if "recommend" not in self.ref:
                self.ref["recommend"] = got
                if self.stored:
                    ref = {k: tuple(v) for k, v in
                           self.stored["recommend"].items()}
                    return checks.improvement_mismatch(got, ref)
                return None
            return checks.improvement_mismatch(got, self.ref["recommend"])
        if op == "recommend_oracle":
            return checks.improvement_mismatch(
                checks.improvements(rows),
                checks.recommend_oracle(self.scenario,
                                        RECOMMEND_ORACLE_HORIZON))
        # compare: the verdict, the analytic column, and Monte Carlo
        # output bitwise equal to the first --threads 1 run of this seed
        if not stdout.startswith("PASS:"):
            return f"compare verdict is not PASS: {stdout.strip()[:200]}"
        text = out.read_text(encoding="utf-8")
        if "compare" not in self.ref:
            if op != "compare":
                return "no --threads 1 compare output to check against"
            self.ref["compare"] = text
        elif text != self.ref["compare"]:
            return "Monte Carlo output differs from the --threads 1 run"
        horizon = self.w.compare_horizon
        return checks.curve_mismatch(
            checks.curves(rows), self.ref["analyze"],
            steps=None if horizon is None else range(horizon + 1))

    def round(self, ops, record: bool) -> tuple[float, float]:
        """One pass over ``ops``, the calibration kernel timed before
        each group of operations and after the last.  Returns the wall
        time of the operations and the round's ref_s per second."""
        main = self.cli_main
        if self.tracer is not None:
            main = self.tracer.span(spans.ROOT_SPAN, self.cli_main)
        kernel = [self.calibration.seconds()]
        groups = []
        wall = 0.0
        for op in ops:
            start = time.perf_counter()
            groups.append((op, [self.call(op, main)
                                for _ in range(self.w.reps.get(op, 1))]))
            wall += time.perf_counter() - start
            kernel.append(self.calibration.seconds())
        self.kernel_s += kernel
        if record:
            for idx, (op, group) in enumerate(groups):
                scale = CAL_REF_S / statistics.mean(kernel[idx:idx + 2])
                self.times[op] += group
                self.scaled[op] += [t * scale for t in group]
        return wall, CAL_REF_S / statistics.mean(kernel)

    def warm_up(self) -> None:
        """First round, untimed: fills caches and lazy imports, sets the
        references the timed rounds are checked against, and checks
        compare at two threads and the recommend oracle."""
        self.round(ROUND_OPS, record=False)
        self.call("compare_2t", self.cli_main)
        self.call("recommend_oracle", self.cli_main)

    # -- fresh processes ----------------------------------------------

    def fresh(self, children: list, rss: int) -> None:
        """Append one new interpreter's import and scenario load/validate
        times to ``children``; the first ``rss`` also run the RSS
        operation.  Called every few rounds, so that the samples spread
        over the run instead of sharing one state of the machine."""
        op = []
        if self.fresh_started < rss:
            op = self.argv(self.w.rss_op, OUT / f"{self.w.name}-child.csv")
        self.fresh_started += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(self.scenario),
                 *op],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired:
            self.fail("fresh", "fresh process timed out")
            return
        if proc.returncode != 0:
            self.fail("fresh", proc.stderr.strip()[-400:])
            return
        try:
            data = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail("fresh", f"no result line: {proc.stdout[-200:]!r}")
            return
        if not data["valid"] or (op and data["rc"] != 0):
            self.fail("fresh", f"invalid scenario or exit {data['rc']}")
            return
        data["ran_op"] = bool(op)
        children.append(data)

    # -- measurement --------------------------------------------------

    def measure(self, seconds: float, min_rounds: int) -> dict:
        self.warm_up()
        children: list[dict] = []

        def body(i):
            self.round(ROUND_OPS, record=True)
            if i % FRESH_EVERY == 0 and len(children) < FRESH_PROCESSES:
                self.fresh(children, RSS_PROCESSES)

        rounds = self._loop(seconds, min_rounds, body)
        metrics, detail = self.end_to_end(children)
        detail["rounds"] = rounds
        return {"metrics": metrics, "detail": detail}

    @staticmethod
    def _loop(seconds: float, min_rounds: int, body) -> int:
        """Call ``body(i)`` until ``seconds`` passed and ``min_rounds``
        rounds ran, or ``MAX_LOOP_S`` passed; returns the round count."""
        start = time.perf_counter()
        rounds = 0
        while True:
            now = time.perf_counter() - start
            if (now >= seconds and rounds >= min_rounds) or now >= MAX_LOOP_S:
                return rounds
            body(rounds)
            rounds += 1

    def end_to_end(self, children: list[dict]) -> tuple[dict, dict]:
        with open(self.scenario, encoding="utf-8") as fh:
            sc = json.load(fh)
        r, horizon, samples = len(sc["modes"]), sc["horizon"], sc["mc_samples"]
        kinds = ([f["kind"] for f in sc["filters"]] if "filters" in sc
                 else ["single-mode"] * r + ["average", "skf"])
        filters = len(kinds)
        compare_steps = self.w.compare_horizon or horizon
        k = self.w.exact_horizon
        leaves = sum(r ** (2 * k) if kind == "skf" else r ** k
                     for kind in kinds)

        metrics: dict = {}
        detail: dict = {"latency": {}}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        for op in ROUND_OPS:
            scaled_tail, pct, beyond = tail(self.scaled[op])
            detail["latency"][op] = {
                "samples": len(self.times[op]), "tail_percentile": pct,
                "samples_beyond_tail": beyond,
                "p50_ref_s": statistics.median(self.scaled[op]),
                "tail_ref_s": scaled_tail,
                "p50_s": statistics.median(self.times[op]),
                "tail_s": tail(self.times[op])[0]}
        for op in ("analyze", "recommend", "compare"):
            put(f"{op}_s_p50", detail["latency"][op]["p50_ref_s"], "ref_s")
            put(f"{op}_s_tail", detail["latency"][op]["tail_ref_s"], "ref_s")
        put("mc_sample_steps_per_s", samples * compare_steps * filters
            / detail["latency"]["compare"]["p50_ref_s"], "1/ref_s")
        put("analytic_filter_steps_per_s", filters * horizon
            / detail["latency"]["analyze"]["p50_ref_s"], "1/ref_s")
        put("enum_leaves_per_s",
            leaves / detail["latency"]["exact"]["p50_ref_s"], "1/ref_s")
        # set-up is scaled like every other time (see Calibration), by
        # the kernel timed in the same fresh process right after it; the
        # unit stays "s", seconds at the reference speed
        setup = [(c["import_s"] + c["load_validate_s"]) * CAL_REF_S
                 / c["kernel_s"] for c in children]
        rss = [c["peak_rss_kb"] / 1024.0 for c in children if c["ran_op"]]
        put("setup_s", median_or_zero(setup), "s")
        put("peak_rss_mb", median_or_zero(rss), "MB")
        detail["samples_s"] = self.times
        detail["calibration_kernel_s"] = {
            "p50": statistics.median(self.kernel_s),
            "min": min(self.kernel_s), "max": max(self.kernel_s),
            "ref": CAL_REF_S}
        detail["work"] = {"filters": filters, "horizon": horizon,
                          "mc_samples": samples, "compare_horizon": compare_steps,
                          "exact_horizon": k, "exact_leaves": leaves}
        detail["fresh_processes"] = children
        return metrics, detail

    def speedup(self) -> float:
        """Median over rounds of compare's time at one thread over its
        time at two.  Each pair runs within a second, so the ratio
        cancels the machine's slow drifts, but not how much of the second
        core the host grants: that moved the five-seed spread of this
        ratio to 0.13-0.19, so it is reported without a bound, from the
        traced runs."""
        return statistics.median(a / b for a, b in zip(
            self.times["compare"], self.times["compare_2t"]))

    def measure_traced(self, seconds: float, min_rounds: int) -> dict:
        """Alternating traced and untraced rounds at one MC thread; each
        untraced round is followed by compare at two threads."""
        children: list[dict] = []
        self.warm_up()
        tracer = spans.Tracer()
        walls = {True: [], False: []}
        ranges = []

        def body(i):
            traced = i % 2 == 0
            if traced:
                tracer.install()
                self.tracer = tracer
                lo = len(tracer.spans)
            try:
                wall, scale = self.round(ROUND_OPS, record=not traced)
            finally:
                if traced:
                    tracer.uninstall()
                    self.tracer = None
            if not traced:
                self.times["compare_2t"].append(
                    self.call("compare_2t", self.cli_main))
            if i % FRESH_EVERY == 0 and len(children) < TRACE_FRESH_PROCESSES:
                self.fresh(children, 0)
            walls[traced].append((wall, scale))
            if traced:
                ranges.append((lo, len(tracer.spans), scale))

        self._loop(seconds, max(min_rounds, 2), body)
        return self.per_layer(tracer, ranges, walls, children)

    def per_layer(self, tracer: spans.Tracer, ranges, walls, children
                  ) -> dict:
        all_spans = tracer.spans
        selfs = spans.self_times(all_spans)
        # per traced round: layer totals, self times scaled to ref_s
        per_round = []
        for lo, hi, scale in ranges:
            totals = spans.layer_totals(all_spans, selfs, range(lo, hi))
            for entry in totals.values():
                entry["self_s"] *= scale
            per_round.append(totals)
        every = spans.layer_totals(all_spans, selfs, range(len(all_spans)))
        metrics: dict = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        def med(span, key):
            return statistics.median(t.get(span, {}).get(key, 0)
                                     for t in per_round)

        def ratio(names, unit_scale):
            """Scaled self time per unit of counted work."""
            work = sum(t.get(n, {}).get("count", 0)
                       for t in per_round for n in names)
            busy = sum(t.get(n, {}).get("self_s", 0.0)
                       for t in per_round for n in names)
            return unit_scale * busy / work if work else 0.0

        for span in ("kalman.gain_schedule", "kalman.mode_schedules",
                     "fast.aggregate_series", "enumeration"):
            put(f"{span}.calls", med(span, "calls"), "count")
            put(f"{span}.self_s", med(span, "self_s"), "ref_s")
        for span in ("kalman.average_filter_modes", "fast.merge_recommendation",
                     "montecarlo.simulate", "montecarlo.detect",
                     "montecarlo.replay", "montecarlo.accumulate",
                     "montecarlo.run", "serialize.load_scenario",
                     "model.validate_scenario"):
            put(f"{span}.self_s", med(span, "self_s"), "ref_s")
        riccati = ("kalman.gain_schedule", "kalman.mode_schedules")
        put("kalman.riccati_steps",
            sum(med(s, "count") for s in riccati), "count")
        put("kalman.us_per_riccati_step", ratio(riccati, 1e6), "ref_us")
        put("fast.recursion_steps", med("fast.aggregate_series", "count"),
            "count")
        put("fast.us_per_step", ratio(("fast.aggregate_series",), 1e6),
            "ref_us")
        put("enumeration.leaves", med("enumeration", "count"), "count")
        put("enumeration.ns_per_leaf", ratio(("enumeration",), 1e9), "ref_ns")
        put("montecarlo.chunks", med("montecarlo.simulate", "calls"), "count")
        put("montecarlo.sample_steps", med("montecarlo.simulate", "count"),
            "count")
        put("cli.self_s", med(spans.ROOT_SPAN, "self_s"), "ref_s")
        put("setup.import_s", median_or_zero(
            [c["import_s"] * CAL_REF_S / c["kernel_s"] for c in children]),
            "ref_s")
        scaled = {traced: statistics.median(w * scale for w, scale in rounds)
                  for traced, rounds in walls.items()}
        put("trace.overhead_s", scaled[True] - scaled[False], "ref_s")
        # time inside named layer spans: the root span's time less its
        # own, so work left unwrapped (it lands in cli.self_s) is uncovered
        root = every.get(spans.ROOT_SPAN, {"total_s": 0.0, "self_s": 0.0})
        put("trace.coverage", (root["total_s"] - root["self_s"])
            / sum(w for w, _ in walls[True]), "fraction")
        put("trace.missing_spans", len(tracer.missing), "count")
        put("mc_speedup_2t", self.speedup(), "ratio")
        return {"metrics": metrics, "detail": {
            "traced_rounds": len(walls[True]),
            "untraced_rounds": len(walls[False]),
            "round_ref_s_p50": {"traced": scaled[True],
                                "untraced": scaled[False]},
            "missing_spans": sorted(tracer.missing),
            "layer_share_by_op": self.shares(all_spans, selfs),
            "span_totals": every,
        }}

    def shares(self, all_spans, selfs) -> dict:
        """Per operation kind, each layer's share of the command's wall
        time (self times summed by the span-name prefix)."""
        bounds = [idx for _, idx in self.root_ops] + [len(all_spans)]
        by_op: dict = {}
        for (op, lo), hi in zip(self.root_ops, bounds[1:]):
            entry = by_op.setdefault(op, {"wall_s": 0.0, "layers": {}})
            entry["wall_s"] += all_spans[lo].end - all_spans[lo].start
            for idx in range(lo, hi):
                layer = all_spans[idx].name.split(".")[0]
                layers = entry["layers"]
                layers[layer] = layers.get(layer, 0.0) + selfs[idx]
        return {op: {layer: busy / e["wall_s"]
                     for layer, busy in sorted(e["layers"].items())}
                for op, e in by_op.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-rounds", type=int, default=21,
                        help="timed rounds required even after --seconds "
                             "(21 leave ten samples beyond a tail above the "
                             "median)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.min_rounds < 1 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0, --min-rounds >= 1")
    return args


def import_package():
    """slds_mse.cli from this checkout's src directory, or exit 2."""
    if not (SRC / "slds_mse" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    from slds_mse import cli
    if Path(cli.__file__).resolve().parent != (SRC / "slds_mse").resolve():
        sys.exit(f"error: slds_mse imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli = import_package()
    if workload.make_scenario is None and not DEMO_SCENARIO.is_file():
        sys.exit(f"error: missing {DEMO_SCENARIO}")
    OUT.mkdir(exist_ok=True)
    run = Run(workload, args.seed, cli.main)
    if args.trace:
        result = run.measure_traced(args.seconds, args.min_rounds)
    else:
        result = run.measure(args.seconds, args.min_rounds)
    failed = len(run.failures)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": run.attempted, "failed": failed,
        "failed_frac": failed / run.attempted,
        "reference": "stored" if run.stored else "oracle",
        "failures": run.failures, "metrics": result["metrics"],
        "detail": result["detail"],
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    path = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in run.failures[:5]:
        print(f"failed {failure['op']}: {failure.get('reason', '')}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
