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


def _run_fresh(code: str, *argv: str) -> str:
    """Run ``code`` as a script in a fresh interpreter that imports ringtrain from this
    checkout; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["ringtrain.cli", "ringtrain.preset", "ringtrain.profiles",
                                    "ringtrain.transport.tcp"])
def test_the_launcher_modules_load_no_numpy(module):
    assert _run_fresh(f"import sys, {module}; print('numpy' in sys.modules)") == "False\n"


# Each stand-in worker exits with code 3 at once; it records whether numpy was loaded.
LAUNCH_SCRIPT = """
import subprocess, sys
seen = []

class Exited:
    returncode = 3

    def __init__(self, cmd, env=None):
        seen.append("numpy" in sys.modules)

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

subprocess.Popen = Exited
from ringtrain.cli import main
code = main(["launch", "--workers", "2", "--config", sys.argv[1], "--out", sys.argv[2],
             "--timeout", "5"])
print(code, seen)
"""


def test_launch_starts_its_first_worker_before_numpy_is_loaded(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"global_batch": 4, "per_device_batch": 2, "workers": 2}')
    assert _run_fresh(LAUNCH_SCRIPT, str(config), str(tmp_path / "out")) == "3 [False, False]\n"


# One rank trains against an in-process coordinator; it records what was loaded.
WORKER_SCRIPT = """
import sys
from ringtrain.cli import main
from ringtrain.transport.tcp import Coordinator

coordinator = Coordinator("127.0.0.1", 0, 1, timeout=10)
coordinator.start()
host, port = coordinator.address
code = main(["worker", "--rank", "0", "--size", "1", "--coordinator", f"{host}:{port}",
             "--config", sys.argv[1], "--out", sys.argv[2], "--timeout", "10"])
coordinator.join()
print(code, *(name in sys.modules for name in
               ("ringtrain.engine", "ringtrain.harness", "ringtrain.transport.sim")))
"""


def test_a_worker_never_imports_the_harness(tmp_path):
    """Nor the simulated transport: only ``run_training_sim`` loads it."""
    config = tmp_path / "cfg.json"
    config.write_text('{"global_batch": 2, "per_device_batch": 2, "workers": 1, '
                      '"iterations": 2}')
    out = tmp_path / "out"
    assert _run_fresh(WORKER_SCRIPT, str(config), str(out)) == "0 True False False\n"
    assert (out / "weights_rank0.npz").exists()
