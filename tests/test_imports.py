"""Import graph of the command line, what ``import slds_mse.cli`` loads,
and the public names the README promises and retires."""

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
