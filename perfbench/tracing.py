"""Spans and counts recorded around the program's functions.

The tracer replaces each listed function, in every ``coactive`` namespace
that holds it (``coactive.cmat``, ``coactive.cli.cmat``,
``coactive.cluster.cmat`` ...), with a wrapper that records a span and
optional counts, and puts the originals back on ``uninstall``. Nothing in
``src/`` changes. Spans and counts stay in memory until the round ends.

Self time follows the wall clock: each instant of a traced round is
charged to the innermost span open at that instant. While worker threads
(the ``cluster`` grid pool) hold open spans, the instant is split evenly
among their innermost spans and the waiting main thread gets none of it.
So the self times of all layers plus ``bench.self_s`` add up to the
round's wall time exactly, whatever the thread count.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

BENCH = "bench.self_s"


def _cells(args, _kwargs, _result) -> dict:
    mk, ml = args[0], args[1]
    if not mk.terms or not ml.terms:
        return {}
    return {"closedform.itable_cells": mk.p * len(mk.terms) * len(ml.terms)}


def _counts_cmat(args, kwargs, result):
    return {"closedform.cmat_calls": 1, **_cells(args, kwargs, result)}


def _counts_cmat_trace(args, kwargs, result):
    return {"closedform.cmat_trace_calls": 1, **_cells(args, kwargs, result)}


def _counts_fit(_args, _kwargs, result):
    return {"model.fit_calls": 1, "model.terms_kept": len(result[0].terms)}


def _counts_gradient(args, _kwargs, _result):
    # args[0] is the surrogate (the wrapper replaces an unbound method)
    return {"model.gradient_points": len(args[1])}


def _counts_grid(_args, _kwargs, result):
    n = result.kappa.shape[0]
    return {"cluster.grid_pairs": n * (n - 1) // 2}


def _counts_mds(_args, _kwargs, result):
    return {"cluster.mds_iterations": len(result.stress_history) - 1}


def _counts_mc(_args, _kwargs, result):
    return {"montecarlo.mc_points": result.B}


# (module, attribute path, layer metric, count function or None). Every
# function a workload reaches is listed, so no program time falls into
# bench.self_s.
TARGETS = (
    ("model", "fit", "model.fit_s", None),
    ("model", "fit_with_report", "model.fit_s", _counts_fit),
    ("model", "fit_ensemble", "model.fit_s", None),
    ("model", "cross_validated_rmspe", "model.fit_s", None),
    ("model", "_forward_pass", "model.forward_s", None),
    ("model", "_backward_pass", "model.backward_s", None),
    ("model", "MarsSurrogate.gradient_batch", "model.gradient_batch_s", _counts_gradient),
    ("model", "MarsSurrogate.evaluate_batch", "model.evaluate_s", None),
    ("model", "MarsSurrogate.design_matrix", "model.evaluate_s", None),
    ("model", "load_training_csv", "model.io_s", None),
    ("model", "save_model", "model.io_s", None),
    ("model", "load_model", "model.io_s", None),
    ("model", "save_ensemble", "model.io_s", None),
    ("model", "load_ensemble", "model.io_s", None),
    ("closedform", "cmat", "closedform.cmat_s", _counts_cmat),
    ("closedform", "cmat_trace", "closedform.cmat_trace_s", _counts_cmat_trace),
    ("closedform", "expected_gradient", "closedform.expected_gradient_s", None),
    ("closedform", "cmat_modified", "closedform.other_s", None),
    ("closedform", "load_prior", "closedform.io_s", None),
    ("closedform", "save_prior", "closedform.io_s", None),
    ("closedform", "save_matrix", "closedform.io_s", None),
    ("closedform", "load_matrix", "closedform.io_s", None),
    ("closedform", "write_matrix_csv", "closedform.io_s", None),
    ("cluster", "pairwise_concordance", "cluster.grid_s", _counts_grid),
    ("cluster", "mds_embed", "cluster.mds_s", _counts_mds),
    ("cluster", "discordance_matrix", "cluster.other_s", None),
    ("cluster", "model_centers", "cluster.other_s", None),
    ("montecarlo", "mc_cmat", "montecarlo.mc_cmat_s", _counts_mc),
    ("montecarlo", "lhs_design", "montecarlo.lhs_s", None),
    ("analysis", "decompose", "analysis.decompose_s", None),
    ("analysis", "symmetrize", "analysis.other_s", None),
    ("analysis", "concordance", "analysis.other_s", None),
    ("analysis", "discordance", "analysis.other_s", None),
    ("cli", "main", "cli.self_s", None),
)

COUNTS = (
    "model.fit_calls",
    "model.terms_kept",
    "model.gradient_points",
    "closedform.cmat_calls",
    "closedform.cmat_trace_calls",
    "closedform.itable_cells",
    "cluster.grid_pairs",
    "cluster.mds_iterations",
    "montecarlo.mc_points",
    "cli.bytes_written",
)

SELF_TIMES = tuple(dict.fromkeys(t[2] for t in TARGETS)) + (BENCH,)


class Span:
    __slots__ = ("layer", "start", "end", "parent", "thread")

    def __init__(self, layer, parent, thread):
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Wraps the program's functions while installed; one round at a time."""

    def __init__(self):
        import importlib

        modules = [importlib.import_module("coactive")] + [
            importlib.import_module(f"coactive.{m}")
            for m in ("analysis", "closedform", "cluster", "model", "montecarlo", "cli", "verify")
        ]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, path, layer, counter in TARGETS:
            owner = importlib.import_module(f"coactive.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original, self._wrap(original, layer, counter)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, counter)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, name, original, wrapper))
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def count(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Span:
        stack = self._stack()
        thread = threading.get_ident()
        parent = stack[-1] if stack else None
        span = Span(layer, parent, thread)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    tracer.count(name, value)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Wall-clock self time per layer over the recorded spans."""
        events = []
        for i, s in enumerate(self.spans):
            events.append((s.start, 1, i))
            events.append((s.end, 0, i))
        events.sort()  # at equal times, closes (0) come before opens (1)
        stacks: dict[int, list] = defaultdict(list)
        out = dict.fromkeys(SELF_TIMES, 0.0)
        prev = None
        for t, kind, i in events:
            if prev is not None and t > prev:
                dt = t - prev
                workers = [st[-1] for th, st in stacks.items() if th != self._main and st]
                if workers:
                    for s in workers:
                        out[s.layer] += dt / len(workers)
                elif stacks[self._main]:
                    out[stacks[self._main][-1].layer] += dt
            prev = t
            s = self.spans[i]
            if kind:
                stacks[s.thread].append(s)
            else:
                stacks[s.thread].remove(s)
        return out
