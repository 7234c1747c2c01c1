"""Write ``bench/reference.json``: stored analytic answers per seed.

    python3 bench/make_reference.py

Run it from a build whose outputs are trusted.  For every workload and
seed it runs one untimed round of the benchmark, which must pass the
enumeration oracle (and compare's PASS verdict) before anything is
stored, then records the ``analyze`` curves at a subset of steps and
the ``recommend`` improvements, for every seed in ``SEEDS``.  The
shipped demo scenario does not depend on the seed, so it is stored once
under ``"any"``.
"""

from __future__ import annotations

import json
import sys

import checks
import run

SEEDS = range(0, 21)


def stored_steps(horizon: int) -> list[int]:
    """Every step of a short horizon; the first five and every 25th of
    a long one."""
    if horizon <= 25:
        return list(range(horizon + 1))
    return sorted(set(range(6)) | set(range(25, horizon + 1, 25)))


def entry(workload: run.Workload, seed: int, cli_main) -> dict:
    bench = run.Run(workload, seed, cli_main)
    bench.stored = None
    bench.warm_up()
    if bench.failures:
        sys.exit(f"{workload.name} seed {seed}: {bench.failures}")
    analyze = bench.ref["analyze"]
    steps = stored_steps(len(next(iter(analyze.values()))) - 1)
    return {"analyze": {"steps": steps,
                        "mse": {label: [values[s] for s in steps]
                                for label, values in analyze.items()}},
            "recommend": {pair: list(v)
                          for pair, v in bench.ref["recommend"].items()}}


def main() -> int:
    cli = run.import_package()
    run.OUT.mkdir(exist_ok=True)
    table = {}
    for workload in run.WORKLOADS.values():
        seeds = SEEDS[:1] if workload.make_scenario is None else SEEDS
        table[workload.name] = {
            ("any" if workload.make_scenario is None else str(seed)):
                entry(workload, seed, cli.main)
            for seed in seeds}
        print(f"{workload.name}: {len(table[workload.name])} stored",
              file=sys.stderr)
    # one line per seed keeps the file reviewable in a diff
    lines = ["{"]
    for w_idx, (name, seeds) in enumerate(table.items()):
        lines.append(f' "{name}": {{')
        items = list(seeds.items())
        for s_idx, (seed, data) in enumerate(items):
            comma = "," if s_idx < len(items) - 1 else ""
            lines.append(f'  "{seed}": {json.dumps(data, sort_keys=True)}{comma}')
        lines.append(" }" + ("," if w_idx < len(table) - 1 else ""))
    lines.append("}")
    checks.REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
