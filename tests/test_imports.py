"""Import graph of the command line: what ``import slds_mse.cli`` loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slds_mse

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
