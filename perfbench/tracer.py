"""Spans for the traced run.

The tracer replaces public functions of fnls, and numpy's 1-D FFTs, with
wrappers at the module attribute where their callers look them up (for
example `fnls.experiments.evolve`, which is the name `run_illposedness_demo`
calls).  Each wrapped call records one span: name, start, end, parent span
and thread.  Spans stay in memory, in per-thread columns, until the run
ends.  Calls into `parallel_map` hand their span to the worker threads, so
a worker's item span has the `parallel_map` span as its parent.

The private `_strang_kernel` and `_guard` of fnls.evolution are not
wrapped: their FFTs and transforms appear as children of `evolve`.
"""

from __future__ import annotations

import itertools
import math
import threading
from array import array
from time import perf_counter

import numpy as np

import fnls.constructions
import fnls.evolution
import fnls.experiments
import fnls.spectral
from metrics import PIPELINES

def step_count(cfg) -> int:
    """Steps `evolve` takes for cfg: whole steps of dt plus a shorter last one."""
    ratio = cfg.t_final / cfg.dt
    n_whole = int(math.floor(ratio + 1e-9))
    remainder = cfg.t_final - n_whole * cfg.dt
    return n_whole + (abs(remainder) > 1e-9 * abs(cfg.dt))


def _evolve_facts(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"steps": step_count(cfg), "nx": cfg.grid.nx, "records": len(result.states)}


def _picard_facts(args, kwargs, result):
    iterations = args[2] if len(args) > 2 else kwargs["iterations"]
    history = result.times.size * result.final.grid.nx * 16
    return {"history_bytes": (iterations + 1) * history}


def _records_facts(args, kwargs, result):
    return {"records": len(result.states)}


def _xsb_facts(args, kwargs, result):
    field = args[0] if args else kwargs["f"]
    return {"cells": field.values.size}


def _cells_out_facts(args, kwargs, result):
    return {"cells_out": result.values.size}


# (module, attribute, span name, facts(args, kwargs, result) or None)
TARGETS = [
    (fnls.evolution, "dealiased_density", "spectral.density", None),
    (fnls.evolution, "cubic_values", "spectral.cubic", None),
    (fnls.evolution, "forward_transform", "spectral.transform", None),
    (fnls.evolution, "inverse_transform", "spectral.transform", None),
    (fnls.spectral, "forward_transform", "spectral.transform", None),
    (fnls.spectral, "inverse_transform", "spectral.transform", None),
    (fnls.evolution, "spectral_values", "spectral.values", None),
    (fnls.spectral, "tail_fraction", "spectral.tail", None),
    (fnls.constructions, "tail_fraction", "spectral.tail", None),
    (fnls.constructions, "spectral_tail_fraction", "spectral.tail", None),
    (fnls.evolution, "evolve", "evolution.evolve", _evolve_facts),
    (fnls.experiments, "evolve", "evolution.evolve", _evolve_facts),
    (fnls.evolution, "picard_iterate", "evolution.picard", _picard_facts),
    (fnls.experiments, "picard_iterate", "evolution.picard", _picard_facts),
    (fnls.experiments, "sobolev_norm", "norms.sobolev", None),
    (fnls.constructions, "sobolev_norm", "norms.sobolev", None),
    (fnls.experiments, "energy", "norms.energy", None),
    (fnls.experiments, "mass", "norms.mass", None),
    (fnls.experiments, "xsb_norm", "norms.xsb", _xsb_facts),
    (fnls.experiments, "approximate_solution", "constructions.approximate_solution",
     _records_facts),
    (fnls.experiments, "rescale_solution", "constructions.rescale", None),
    (fnls.experiments, "trilinear_convolution", "constructions.trilinear", _cells_out_facts),
    (fnls.experiments, "modulated_wavepacket", "constructions.wavepacket", None),
    (fnls.experiments, "remainder_symbol", "symbols.remainder", None),
    (fnls.experiments, "fit_power_law", "experiments.fit", None),
] + [(fnls.experiments, name, f"experiments.{name}", None) for name in PIPELINES]

# numpy.fft attribute -> flops per n*log2(n) (a real transform does half the
# work); the real transforms are wrapped so a kernel that moves to them still counts
FFT_TARGETS = {"fft": 5.0, "ifft": 5.0, "rfft": 2.5, "irfft": 2.5}


class _Columns:
    """One thread's spans, column by column."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[int] = []
        self.idx = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.flops = array("d")
        self.nbytes = array("d")


class Tracer:
    """Records spans while installed (`with tracer: ...`); keeps them after."""

    def __init__(self):
        self.names: list[str] = []
        self.facts: dict[int, dict] = {}
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._columns: list[_Columns] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _cols(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns()
            self._columns.append(cols)
        return cols

    def _begin(self, parent=None):
        cols = self._cols()
        idx = next(self._ids)
        if parent is None:
            parent = cols.stack[-1] if cols.stack else -1
        cols.stack.append(idx)
        return cols, idx, parent, perf_counter()

    @staticmethod
    def _end(span, name_id, flops=0.0, nbytes=0.0, t1=None):
        if t1 is None:
            t1 = perf_counter()
        cols, idx, parent, t0 = span
        cols.stack.pop()
        cols.idx.append(idx)
        cols.name.append(name_id)
        cols.start.append(t0)
        cols.end.append(t1)
        cols.parent.append(parent)
        cols.flops.append(flops)
        cols.nbytes.append(nbytes)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, facts):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            span = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span, name_id)
            if facts is not None:
                self.facts[span[1]] = facts(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fft(self, fn, coeff: float):
        name_id = self._name_id("spectral.fft")

        def wrapper(a, *args, **kwargs):
            span = self._begin()
            try:
                out = fn(a, *args, **kwargs)
            except BaseException:
                self._end(span, name_id)
                raise
            t1 = perf_counter()  # the counting below is not the transform's time
            n = max(out.shape[-1], np.shape(a)[-1])
            flops = coeff * (out.size // out.shape[-1]) * n * math.log2(n)
            self._end(span, name_id, flops, float(out.nbytes + getattr(a, "nbytes", 0)), t1)
            return out

        return wrapper

    def _wrap_parallel_map(self, fn):
        map_id = self._name_id("experiments.parallel_map")
        item_id = self._name_id("experiments.parallel_map.item")
        workers = fnls.experiments.scan_workers

        def wrapper(item_fn, items):
            items = list(items)
            span = self._begin()

            def item(it):
                item_span = self._begin(parent=span[1])
                try:
                    return item_fn(it)
                finally:
                    self._end(item_span, item_id)

            try:
                return fn(item, items)
            finally:
                self._end(span, map_id)
                self.facts[span[1]] = {"workers": min(workers(), len(items))}

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def __enter__(self):
        for module, attr, name, facts in TARGETS:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, facts))
        for attr, coeff in FFT_TARGETS.items():
            self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr), coeff))
        pmap = fnls.experiments.parallel_map
        self._patch(fnls.experiments, "parallel_map", self._wrap_parallel_map(pmap))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """All spans as numpy columns, row i being span i."""
        parts = {key: [] for key in ("idx", "name", "start", "end", "parent", "flops", "nbytes")}
        threads = []
        for cols in self._columns:
            for key in parts:
                column = getattr(cols, key)
                parts[key].append(np.frombuffer(column, dtype=column.typecode).copy())
            threads.append(np.full(len(cols.idx), cols.thread, dtype=np.int64))
        cat = {key: np.concatenate(vals) if vals else np.zeros(0) for key, vals in parts.items()}
        order = np.argsort(cat.pop("idx"), kind="stable")
        out = {key: vals[order] for key, vals in cat.items()}
        out["thread"] = np.concatenate(threads)[order] if threads else np.zeros(0, np.int64)
        out["names"] = list(self.names)
        out["facts"] = dict(self.facts)
        return out
