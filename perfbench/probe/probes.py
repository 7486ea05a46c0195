"""Span recorder that times ringtrain's layers from outside the package.

:func:`install` replaces ringtrain functions and methods with wrappers, in the
defining module and in every ringtrain module that imported the same object by
name (``engine`` imports ``pack``, ``cli`` imports ``rendezvous``, ``tcp``
imports ``encode_frame``, ``harness.cost`` imports ``sim_transfer_time``, ...).
Each wrapped call records one span::

    {workload, pid, id, parent, rank, iter, layer, name, t0, t1, attr}

with times in ``perf_counter_ns`` units. ``rank`` and ``iter`` come from the
enclosing ``Worker.train_step`` (or ``Worker.__init__``), and threads started
inside a span inherit it as their parent. ``sim_transfer_time`` runs millions
of times per harness pass, so it is folded into per-parent call counters
instead of spans. Spans stay in memory until :meth:`Recorder.dump`.

This module imports nothing from ringtrain at module level, so a worker
process can load it from ``sitecustomize`` before the CLI starts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from functools import wraps
from pathlib import Path


class _Context(threading.local):
    def __init__(self):
        self.stack: list[int] = []   # ids of this thread's open spans
        self.base: int | None = None  # span that started this thread
        self.rank: int | None = None
        self.iter: int | None = None


def _payload_bytes(args, kwargs, result):
    return {"bytes": int(args[3].size) * 4}


def _result_len(args, kwargs, result):
    return {"copied": len(result)}


def _decode_copy(args, kwargs, result):
    # frombuffer + astype(copy=False) keeps a view of the payload on
    # little-endian hosts; anything else is a fresh array.
    return {"copied": 0 if result.base is args[0] else int(result.nbytes)}


def _aggregation_alg(args, kwargs, result):
    return {"alg": kwargs.get("alg", args[4] if len(args) > 4 else None)}


def _step_times(args, kwargs, result):
    return {"t_comp": result.t_comp, "t_comm": result.t_comm}


def _worker_rank(args, kwargs):
    endpoint = args[2] if len(args) > 2 else kwargs["endpoint"]
    return endpoint.rank, None


def _step_rank(args, kwargs):
    iteration = args[1] if len(args) > 1 else kwargs["iteration"]
    return args[0].endpoint.rank, iteration


def _rendezvous_rank(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["rank"]), None


# (module, attribute, layer, span name, enter hook, note hook)
TARGETS = [
    ("ringtrain.model", "RealModel.forward", "model", "forward", None, None),
    ("ringtrain.model", "RealModel.backward", "model", "backward", None, None),
    ("ringtrain.model", "RealModel.sgd_update", "model", "sgd_update", None, None),
    ("ringtrain.engine", "Worker.__init__", "engine", "init", _worker_rank, None),
    ("ringtrain.engine", "Worker.train_step", "engine", "train_step", _step_rank, _step_times),
    ("ringtrain.engine", "Worker._aggregate", "engine", "aggregate", None, None),
    ("ringtrain.collectives", "pack", "collectives", "pack", None, None),
    ("ringtrain.collectives", "unpack", "collectives", "unpack", None, None),
    ("ringtrain.collectives", "ring_allreduce", "collectives", "allreduce", None, None),
    ("ringtrain.collectives", "tree_allreduce", "collectives", "allreduce", None, None),
    ("ringtrain.transport.frame", "floats_to_wire", "frame", "floats_to_wire", None, _result_len),
    ("ringtrain.transport.frame", "encode_frame", "frame", "encode_frame", None, _result_len),
    ("ringtrain.transport.frame", "decode_header", "frame", "decode_header", None, None),
    ("ringtrain.transport.frame", "wire_to_floats", "frame", "wire_to_floats", None, _decode_copy),
    ("ringtrain.transport.tcp", "TcpEndpoint.send", "tcp", "send", None, _payload_bytes),
    ("ringtrain.transport.tcp", "TcpEndpoint.recv", "tcp", "recv", None, None),
    ("ringtrain.transport.tcp", "FramedSocket.recv_frame", "tcp", "recv_frame", None, None),
    ("ringtrain.transport.tcp", "rendezvous", "tcp", "rendezvous", _rendezvous_rank, None),
    ("ringtrain.transport.sim", "SimEndpoint.send", "sim", "send", None, _payload_bytes),
    ("ringtrain.transport.sim", "SimEndpoint.recv", "sim", "recv", None, None),
    ("ringtrain.transport.sim", "SimCluster.run", "sim", "cluster_run", None, None),
    ("ringtrain.harness.cost", "aggregation_comm_time", "cost", "aggregation", None, _aggregation_alg),
    ("ringtrain.harness.cost", "collective_time", "cost", "collective", None, None),
    ("ringtrain.harness.experiments", "run_scaling_experiment", "experiments", "run", None, None),
    ("ringtrain.harness.experiments", "run_collective_bench", "experiments", "run", None, None),
    ("ringtrain.harness.experiments", "run_aggregation_comparison", "experiments", "run", None, None),
    ("ringtrain.harness.experiments", "run_efficiency_sweep", "experiments", "run", None, None),
    ("ringtrain.harness.experiments", "run_rar_vs_tree", "experiments", "run", None, None),
    ("ringtrain.harness.experiments", "run_thermal_scenario", "experiments", "run", None, None),
    ("ringtrain.harness.calibrate", "fit_invocation_overhead", "calibrate", "fit_invocation_overhead", None, None),
    ("ringtrain.harness.calibrate", "fit_contention_coeff", "calibrate", "fit_contention_coeff", None, None),
    ("ringtrain.harness.calibrate", "fit_throughput_boundary", "calibrate", "fit_throughput_boundary", None, None),
    ("ringtrain.cli", "cmd_replay", "cli", "replay", None, None),
]

# Called too often to keep one span per call: counted per parent span.
COUNTED = [("ringtrain.transport.net", "sim_transfer_time", "net.transfer")]


class Recorder:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counters: dict[tuple, list[int]] = {}
        self.ctx = _Context()
        self._ids = itertools.count(1)

    def current(self) -> int | None:
        ctx = self.ctx
        return ctx.stack[-1] if ctx.stack else ctx.base

    def spanned(self, layer: str, name: str, fn, enter=None, note=None):
        """Wrap ``fn`` so that every call records a span."""
        ctx, spans, ids, clock = self.ctx, self.spans, self._ids, time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = ctx.stack[-1] if ctx.stack else ctx.base
            saved = ctx.rank, ctx.iter
            if enter is not None:
                ctx.rank, ctx.iter = enter(args, kwargs)
            ctx.stack.append(sid)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                ctx.stack.pop()
                attr = note(args, kwargs, result) if ok and note is not None else None
                spans.append((sid, parent, ctx.rank, ctx.iter, layer, name, t0, t1, attr))
                ctx.rank, ctx.iter = saved

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so that calls add to a counter keyed by parent span."""
        ctx, counters, clock, ident = self.ctx, self.counters, time.perf_counter_ns, threading.get_ident

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                # the thread id in the key keeps every entry single-writer
                key = (name, ctx.stack[-1] if ctx.stack else ctx.base, ident())
                entry = counters.get(key)
                if entry is None:
                    counters[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def dump(self, path: str | Path) -> None:
        pid = os.getpid()
        with open(path, "w") as fh:
            for sid, parent, rank, it, layer, name, t0, t1, attr in self.spans:
                fh.write(json.dumps({
                    "workload": self.workload, "pid": pid, "id": sid, "parent": parent,
                    "rank": rank, "iter": it, "layer": layer, "name": name,
                    "t0": t0, "t1": t1, "attr": attr}) + "\n")
            for (name, parent, _), (calls, ns) in self.counters.items():
                fh.write(json.dumps({"counter": name, "pid": pid, "parent": parent,
                                     "calls": calls, "ns": ns}) + "\n")


def _rebind(original, replacement) -> None:
    """Point every ringtrain module-level binding of ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "ringtrain" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(workload: str) -> Recorder:
    """Wrap every target in the loaded ringtrain package; returns the recorder."""
    importlib.import_module("ringtrain.cli")   # loads every module that holds a target
    rec = Recorder(workload)
    for mod_name, attr, layer, name, enter, note in TARGETS:
        module = importlib.import_module(mod_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, rec.spanned(layer, name, getattr(owner, method), enter, note))
        else:
            original = getattr(module, attr)
            _rebind(original, rec.spanned(layer, name, original, enter, note))
    for mod_name, attr, name in COUNTED:
        original = getattr(importlib.import_module(mod_name), attr)
        _rebind(original, rec.counted(name, original))

    # every evaluation of a calibration objective is one span
    calibrate = importlib.import_module("ringtrain.harness.calibrate")
    bisect = calibrate.bisect_increasing

    @wraps(bisect)
    def counted_bisect(fn, *args, **kwargs):
        return bisect(rec.spanned("calibrate", "objective", fn), *args, **kwargs)

    _rebind(bisect, counted_bisect)

    # threads inherit the starting span (so _isend sends keep rank and iter)
    start = threading.Thread.start

    def start_in_context(thread):
        ctx = rec.ctx
        parent, rank, it = rec.current(), ctx.rank, ctx.iter
        run = thread.run

        def run_in_context():
            inner = rec.ctx
            inner.base, inner.rank, inner.iter = parent, rank, it
            run()

        thread.run = run_in_context
        return start(thread)

    threading.Thread.start = rec.spanned("threading", "start", start_in_context)
    return rec
