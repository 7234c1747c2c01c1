"""Fresh-interpreter probe: set-up time and peak memory of one operation.

Usage: python3 bench/child.py SCENARIO [CLI ARGS...]

Times ``import slds_mse`` and then loading and validating SCENARIO, runs
the optional CLI operation in the same process, reads the peak RSS, and
last times the benchmark's calibration kernel (so that neither its
imports nor its arrays count in the other figures).  Prints one JSON
line.  ``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages at fork time, which
    Linux carries across exec, so the kernel's per-address-space mark is
    read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    scenario_path, op = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import slds_mse
    t1 = time.perf_counter()
    scenario = slds_mse.load_scenario(scenario_path)
    violations = slds_mse.validate_scenario(scenario)
    t2 = time.perf_counter()
    rc = None
    if op:
        from slds_mse.cli import main as cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(op)
    peak = peak_rss_kb()
    from run import Calibration
    calibration = Calibration()
    kernel_s = statistics.median(calibration.seconds() for _ in range(3))
    print(json.dumps({
        "import_s": t1 - t0,
        "load_validate_s": t2 - t1,
        "kernel_s": kernel_s,
        "valid": not violations,
        "rc": rc,
        "peak_rss_kb": peak,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
