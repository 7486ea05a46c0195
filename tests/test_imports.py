import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ringtrain

SRC = str(Path(ringtrain.__file__).resolve().parents[1])
# importing ringtrain.__main__ runs the CLI, so it is the one module left out
MODULES = sorted(m.name for m in pkgutil.walk_packages(ringtrain.__path__, "ringtrain.")
                 if m.name != "ringtrain.__main__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    """No import cycle breaks a module that is the first one loaded."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
