"""Installs the layer probes in every Python process started with this
directory on ``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR`` set: the traced
``ringtrain launch`` and the worker processes it spawns. Each process writes
its spans to ``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when it exits.
"""

import atexit
import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import probes

    _recorder = probes.install(os.environ.get("PERFBENCH_WORKLOAD", ""))
    atexit.register(_recorder.dump, os.path.join(
        os.environ["PERFBENCH_TRACE_DIR"], f"spans-{os.getpid()}.jsonl"))
