"""Which filter should track a randomly switching target?

Loads the two-mode benchmark scenario (fast mode 0.9, slow mode 0.46,
uniform switching), predicts the transient MSE of four candidate filters
analytically, cross-checks the predictions against Monte Carlo, and
writes a comparison chart.  The switching filter wins once its mode
detections start paying off; the average filter is the best
non-switching compromise.

Run:  python3 demos/bimodal_filter_selection.py [--out DIR]
"""

import argparse
import csv
from pathlib import Path

from slds_mse import (bank_series, load_scenario, run_monte_carlo,
                      write_line_chart)

SCENARIO = Path(__file__).parent / "scenarios" / "bimodal4d.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-output",
                        help="directory for the CSV/SVG artifacts")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scenario = load_scenario(SCENARIO)
    model, det, n = scenario.model, scenario.detection, scenario.horizon
    print(f"scenario: {SCENARIO.name}  (r={model.r} modes, z={model.z}, "
          f"horizon {n}, p_d={det.p_d})")

    print(f"\nanalytic MSE per step, then a {scenario.mc_samples}-sample "
          f"Monte Carlo cross-check:")
    series = {spec.display: analytic.mse for spec, analytic in
              zip(scenario.filters,
                  bank_series(model, det, scenario.filters, n))}
    runs = run_monte_carlo(model, scenario.filters, det, n,
                           scenario.mc_samples, scenario.seed)
    mc_mse = {spec.display: run.mse()
              for spec, run in zip(scenario.filters, runs)}
    mc_stderr = {spec.display: run.mse_stderr()
                 for spec, run in zip(scenario.filters, runs)}

    labels = list(series)
    print(f"\n{'step':>4} " + " ".join(f"{lab:>12}" for lab in labels))
    for step in range(n + 1):
        print(f"{step:>4} " + " ".join(f"{series[lab][step]:>12.5f}"
                                       for lab in labels))
    print("\nworst |analytic - mc| in Monte Carlo standard errors:")
    for lab in labels:
        z = max(abs(series[lab][s] - mc_mse[lab][s]) / mc_stderr[lab][s]
                for s in range(1, n + 1))
        print(f"  {lab:<12} {z:5.2f} stderr")

    best = min(labels, key=lambda lab: series[lab][n])
    print(f"\nlowest settled MSE: {best} "
          f"({series[best][n]:.5f} at step {n})")

    csv_path = out / "filter_selection.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step"] + [f"{lab}_{kind}" for lab in labels
                                    for kind in ("analytic", "mc")])
        for step in range(n + 1):
            row = [step]
            for lab in labels:
                row += [series[lab][step], mc_mse[lab][step]]
            writer.writerow(row)
    svg_path = out / "filter_selection.svg"
    write_line_chart(
        svg_path,
        [(lab, range(n + 1), series[lab]) for lab in labels]
        + [(f"{lab} (mc)", range(n + 1), mc_mse[lab])
           for lab in labels],
        title="Transient MSE: analytic curves, Monte Carlo overlay",
        dashed={f"{lab} (mc)" for lab in labels})
    print(f"\nwrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
