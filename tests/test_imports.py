"""Import graph of the command line, what ``import slds_mse.cli`` loads,
what ``import slds_mse`` defers, and the public names the README
promises and retires."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slds_mse

README = Path(__file__).resolve().parents[1] / "README.md"
DEMO = README.parent / "demos" / "scenarios" / "bimodal4d.json"

# Modules no command needs, each costly to import on every invocation;
# xml.sax alone pulls in urllib.request, http.client and email.
UNWANTED = ("scipy", "xml.sax", "urllib.request", "http.client", "email")


def test_cli_imports_no_unwanted_module():
    src = str(Path(slds_mse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import json, sys, slds_mse.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert not [name for name in loaded
                if name.startswith(tuple(f"{m}." for m in UNWANTED))
                or name in UNWANTED]


# Modules that loading and validating a scenario never calls; the
# package imports them on first use.
DEFERRED = ("slds_mse.kalman", "slds_mse.fast", "slds_mse.enumeration",
            "slds_mse.montecarlo", "slds_mse.svgchart", "slds_mse.cli",
            "concurrent.futures")


def run_fresh(code: str, *args: str) -> str:
    """Standard output of ``code`` in a new interpreter on this ``src``."""
    src = str(Path(slds_mse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_loading_a_scenario_imports_no_engine():
    code = ("import json, sys, slds_mse; "
            "scenario = slds_mse.load_scenario(sys.argv[1]); "
            "assert not slds_mse.validate_scenario(scenario); "
            "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(run_fresh(code, str(DEMO))))
    assert {"slds_mse.model", "slds_mse.serialize"} <= loaded
    assert sorted(loaded & set(DEFERRED)) == []


# Engines a command imports only when it runs them.
LAZY_ENGINES = ("slds_mse.montecarlo", "slds_mse.enumeration",
                "slds_mse.svgchart", "concurrent.futures")


def command_imports(*argv: str) -> tuple:
    """Exit code of ``slds-mse ARGV`` run in a new interpreter, and the
    ``LAZY_ENGINES`` it left in ``sys.modules``."""
    code = ("import contextlib, io, json, sys\n"
            "from slds_mse.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        rc = main(sys.argv[1:])\n"
            "    except SystemExit as exc:\n"
            "        rc = exc.code\n"
            "print(json.dumps([rc, sorted(sys.modules)]))")
    rc, loaded = json.loads(run_fresh(code, *argv))
    return rc, sorted(set(loaded) & set(LAZY_ENGINES))


@pytest.mark.parametrize("argv, loaded", [
    (["analyze"], []),
    (["recommend"], []),
    (["compare", "--threads", "1", "--horizon", "4"],
     ["concurrent.futures", "slds_mse.montecarlo"]),
    (["simulate", "--threads", "1", "--horizon", "4"],
     ["concurrent.futures", "slds_mse.montecarlo"]),
    (["analyze", "--method", "exact", "--horizon", "3"],
     ["slds_mse.enumeration"]),
    (["analyze", "--svg", "{tmp}/chart.svg"], ["slds_mse.svgchart"]),
], ids=["analyze", "recommend", "compare", "simulate", "exact", "svg"])
def test_command_loads_only_the_engines_it_runs(tmp_path, argv, loaded):
    command, *flags = argv
    rc, got = command_imports(command, "--scenario", str(DEMO), "--out",
                              str(tmp_path / "out.csv"),
                              *(flag.format(tmp=tmp_path) for flag in flags))
    assert (rc, got) == (0, loaded)


def test_help_and_a_rejected_scenario_load_no_lazy_engine(tmp_path):
    scenario = json.loads(DEMO.read_text())
    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps({**scenario,
                                    "tolerances": {"psd_tol": -1.0}}))
    assert command_imports("--help") == (0, [])
    assert command_imports("compare", "--scenario", str(rejected),
                           "--threads", "1") == (2, [])


def test_engine_module_resolves_after_a_bare_import():
    code = ("import slds_mse; "
            "print(slds_mse.fast.__name__, "
            "slds_mse.fast.bank_series is slds_mse.bank_series)")
    assert run_fresh(code).split() == ["slds_mse.fast", "True"]


def test_every_public_name_is_its_modules_object():
    for name in slds_mse.__all__:
        obj = getattr(slds_mse, name)
        if f"slds_mse.{name}" in sys.modules:          # an engine module
            assert obj is sys.modules[f"slds_mse.{name}"]
        else:
            assert obj.__module__.startswith("slds_mse.")
            assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_gives_every_public_name_and_module():
    namespace = {}
    exec("from slds_mse import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(slds_mse.__all__)
    assert {"model", "serialize", "kalman", "enumeration", "fast",
            "montecarlo", "svgchart"} <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(slds_mse.__all__) <= set(dir(slds_mse))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        slds_mse.no_such_name
    with pytest.raises(ImportError):
        from slds_mse import no_such_name  # noqa: F401


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README} (Library)", "exec"), namespace)
    assert len(namespace["skf"].mse) == 21


def test_readme_removed_names_are_gone():
    removed = re.search(r"^Removed names:.*?(?=\n\n)", README.read_text(),
                        re.S | re.M).group(0)
    names = re.findall(r"`([A-Za-z_]\w*)`", removed)
    assert {"GainSchedule", "mode_schedules", "kf_update", "mismatch_step",
            "aggregate_series", "pruned_moments", "as_mode_sequence",
            "average_filter_modes", "FilterBank"} <= set(names)
    assert [name for name in names if hasattr(slds_mse, name)] == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("slds_mse.mismatch")
