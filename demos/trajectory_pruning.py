"""How many mode trajectories does an accurate MSE prediction need?

Exact prediction enumerates every mode trajectory, which grows as r^n
(and r^(2n) for the switching filter's trajectory pairs).  Beam pruning
keeps only the most probable trajectories per step.  On a sticky chain
almost all probability sits on a handful of near-constant mode paths, so
a tiny fixed beam suffices for a fixed filter; for the switching filter
the detection randomness spreads mass across many detected paths per
true path, and a per-step mass target is the better budget.

Run:  python3 demos/trajectory_pruning.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from slds_mse import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    SldsModel,
    enumerate_filters,
    single_mode_slds_moments,
    skf_slds_moments,
    write_line_chart,
)

N_STEPS = 10
SKF, KF1 = FilterSpec("skf"), FilterSpec("single-mode", mode=1)
KEEPS = (1, 2, 4, 8, 16, 32)
MASSES = (0.9, 0.99, 0.999)


def sticky_model() -> SldsModel:
    modes = (ModeModel(A=np.array([[0.9]]), Q=np.array([[0.01]])),
             ModeModel(A=np.array([[0.46]]), Q=np.array([[0.01]])))
    chain = MarkovChain(Z=np.array([[0.99, 0.01], [0.01, 0.99]]),
                        prior=np.array([0.5, 0.5]))
    return SldsModel(modes=modes, meas=MeasurementModel(
        H=np.array([[1.0]]), R=np.array([[0.01]])),
        chain=chain, init=GaussianBelief(np.array([1.0]), np.array([[1.0]])))


def pruned(model, det, spec, **budget):
    """Beam-pruned MSE series of the one filter ``spec``."""
    return enumerate_filters(model, det, [spec], N_STEPS, **budget)[0][0]


def gap(series, exact) -> float:
    """Worst relative MSE deviation over steps 1..N."""
    return float(np.max(np.abs(series.mse[1:] - exact[1:]) / exact[1:]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo-output",
                        help="directory for the SVG artifact")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = sticky_model()
    det = DetectionModel(p_d=0.9)
    print("sticky two-mode chain, Z diagonal 0.99, horizon "
          f"{N_STEPS}")

    exact_single, _ = single_mode_slds_moments(model, model.modes[0], N_STEPS)
    print(f"\n-- fixed mode-1 filter: beam over the {2 ** N_STEPS} true "
          "trajectories --")
    print(f"{'keep':>6} {'final kept mass':>16} {'plain':>10} "
          f"{'renormalized':>13}")
    for keep in KEEPS:
        plain = pruned(model, det, KF1, keep=keep)
        renorm = pruned(model, det, KF1, keep=keep, renormalize=True)
        print(f"{keep:>6} {plain.kept_mass[-1]:>16.6f} "
              f"{gap(plain, exact_single.mse):>10.2e} "
              f"{gap(renorm, exact_single.mse):>13.2e}")
    print("the two constant-mode paths alone carry "
          "2 * 0.5 * 0.99^9 = 0.914 of the mass,\nso a beam of a few "
          "dozen paths tracks the exact curve to a fraction of a "
          "percent.")

    exact_skf, _ = skf_slds_moments(model, det, N_STEPS)
    print(f"\n-- switching filter, p_d = {det.p_d}: beam over the "
          f"{4 ** N_STEPS} (true, detected) pairs --")
    print(f"{'keep':>6} {'final kept mass':>16} {'plain':>10} "
          f"{'renormalized':>13}")
    keep_rows = {}
    for keep in KEEPS:
        plain = pruned(model, det, SKF, keep=keep)
        renorm = pruned(model, det, SKF, keep=keep, renormalize=True)
        keep_rows[keep] = plain
        print(f"{keep:>6} {plain.kept_mass[-1]:>16.6f} "
              f"{gap(plain, exact_skf.mse):>10.2e} "
              f"{gap(renorm, exact_skf.mse):>13.2e}")
    print("each true path now spawns a binomial spread of detected "
          "paths (0.9^10 = 0.35\nfor the all-correct one), so fixed "
          "beams leave most of the mass on the floor.")

    print("\nmass-targeted beam for the switching filter (per-step "
          "width adapts):")
    print(f"{'target':>8} {'final kept mass':>16} {'plain':>10}")
    mass_rows = {}
    for mass in MASSES:
        series = pruned(model, det, SKF, mass=mass)
        mass_rows[mass] = series
        print(f"{mass:>8} {series.kept_mass[-1]:>16.6f} "
              f"{gap(series, exact_skf.mse):>10.2e}")
    print("\nthe plain beam under-counts the MSE by roughly the dropped "
          "mass, so the kept\nmass is an a-posteriori error certificate: "
          "a 0.999 target gives ~3e-3 accuracy\nwhile touching a small "
          "slice of the 4^10 pairs.")

    svg_path = out / "pruning_tradeoff.svg"
    write_line_chart(
        svg_path,
        [("exact", range(N_STEPS + 1), exact_skf.mse),
         ("keep=32", range(N_STEPS + 1), keep_rows[32].mse),
         ("mass=0.9", range(N_STEPS + 1), mass_rows[0.9].mse),
         ("mass=0.99", range(N_STEPS + 1), mass_rows[0.99].mse),
         ("mass=0.999", range(N_STEPS + 1), mass_rows[0.999].mse)],
        title="Beam-pruned switching-filter MSE vs exact, sticky chain",
        dashed={"exact"})
    print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
