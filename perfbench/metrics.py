"""Metric arithmetic: medians, error rate, self time, parallel efficiency,
and the per-layer metrics of a traced run.

Everything here is a pure function of its arguments.  Spans come as the
columns `Tracer.spans()` returns: row i is span i, `parent` holds a row
(-1 for a root), and `facts` maps a row to the counts its call carried.
"""

from __future__ import annotations

import statistics

import numpy as np

PIPELINES = (
    "run_illposedness_demo",
    "run_conservation_suite",
    "run_approximation_error",
    "scan_trilinear",
    "scan_remainder",
    "scan_wavepacket",
)

STEP_NX = (256, 2048, 4096)

# Spans under `evolution.evolve` whose FFTs are not part of a time step:
# the conversion of the initial datum and the tail checks at record times.
NOT_STEP_WORK = ("spectral.values", "spectral.tail")


def median(samples) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def error_rate(attempted: int, failed: int) -> float:
    """Share of attempted calls that failed."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 0 <= failed <= attempted, attempted >= 1; got {failed}/{attempted}")
    return failed / attempted


def end_to_end(run_s, cpu_s, setup_s, peak_rss_mb: float, attempted: int, failed: int) -> dict:
    """End-to-end metrics from per-pass and per-process samples."""
    return {
        "run_s": median(run_s),
        "cpu_s": median(cpu_s),
        "setup_s": median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": 1.0 - error_rate(attempted, failed),
    }


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(spans: dict, row: int) -> float:
    """Duration of span `row` minus the part its direct children cover.

    Children may run on other threads and overlap each other; the union of
    their intervals counts once.
    """
    start, end = spans["start"], spans["end"]
    kids = np.nonzero(spans["parent"] == row)[0]
    covered = union_length(zip(start[kids], end[kids]), start[row], end[row])
    return float(end[row] - start[row]) - covered


def parallel_efficiency(item_busy: float, worker_wall: float) -> float:
    """Summed item time over (workers x wall time) of the maps that ran them."""
    return item_busy / worker_wall if worker_wall > 0 else 0.0


def step_fft_rows(spans: dict) -> np.ndarray:
    """Rows of FFT spans made inside the time steps of `evolve` calls."""
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    state = np.full(name.size, -1, dtype=np.int8)  # -1 unknown, 1 step work, 0 not
    state[parent < 0] = 0
    for label in NOT_STEP_WORK:
        if label in names:
            state[name == names.index(label)] = 0
    if "evolution.evolve" in names:
        state[name == names.index("evolution.evolve")] = 1
    unknown = np.nonzero(state < 0)[0]
    while unknown.size:  # a parent's row is below its child's, so this ends
        state[unknown] = state[parent[unknown]]
        unknown = unknown[state[unknown] < 0]
    if "spectral.fft" not in names:
        return np.zeros(0, dtype=np.int64)
    return np.nonzero((name == names.index("spectral.fft")) & (state == 1))[0]


def layer_metrics(spans: dict, passes: int, run_s: float, traced_run_s: float) -> dict:
    """Per-layer metrics per traced pass; `run_s`/`traced_run_s` are the
    median untraced and traced pass times."""
    names, name, facts = spans["names"], spans["name"], spans["facts"]
    dur = spans["end"] - spans["start"]

    def rows(label):
        if label not in names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(name == names.index(label))[0]

    def busy(label):
        return float(dur[rows(label)].sum()) / passes

    def calls(label):
        return rows(label).size / passes

    def fact(label, key):  # a call that raised has no facts
        return sum(facts[r][key] for r in rows(label) if r in facts)

    fft = rows("spectral.fft")
    steps = fact("evolution.evolve", "steps")
    out = {
        "spectral.fft.calls": fft.size / passes,
        "spectral.fft.busy_s": busy("spectral.fft"),
        "spectral.fft.flops_computed": float(spans["flops"][fft].sum()) / passes,
        "spectral.fft.bytes_computed": float(spans["nbytes"][fft].sum()) / passes,
        "spectral.fft_per_step": step_fft_rows(spans).size / steps if steps else 0.0,
        "spectral.density.busy_s": busy("spectral.density"),
        "spectral.cubic.busy_s": busy("spectral.cubic"),
        "spectral.transform.busy_s": busy("spectral.transform"),
        "spectral.tail.busy_s": busy("spectral.tail"),
        "evolution.evolve.calls": calls("evolution.evolve"),
        "evolution.evolve.busy_s": busy("evolution.evolve"),
        "evolution.steps": steps / passes,
        "evolution.records": fact("evolution.evolve", "records") / passes,
    }
    for nx in STEP_NX:
        at_nx = [r for r in rows("evolution.evolve") if r in facts and facts[r]["nx"] == nx]
        nx_steps = sum(facts[r]["steps"] for r in at_nx)
        out[f"evolution.step_us.nx{nx}"] = (
            1e6 * float(dur[at_nx].sum()) / nx_steps if nx_steps else 0.0
        )
    out.update({
        "evolution.picard.busy_s": busy("evolution.picard"),
        "evolution.picard.history_bytes_computed": fact("evolution.picard", "history_bytes") / passes,
        "norms.sobolev.calls": calls("norms.sobolev"),
        "norms.sobolev.busy_s": busy("norms.sobolev"),
        "norms.energy.busy_s": busy("norms.energy"),
        "norms.mass.busy_s": busy("norms.mass"),
        "norms.xsb.busy_s": busy("norms.xsb"),
        "norms.xsb.cells": fact("norms.xsb", "cells") / passes,
        "constructions.approximate_solution.busy_s": busy("constructions.approximate_solution"),
        "constructions.approximate_solution.records":
            fact("constructions.approximate_solution", "records") / passes,
        "constructions.rescale.busy_s": busy("constructions.rescale"),
        "constructions.trilinear.busy_s": busy("constructions.trilinear"),
        "constructions.trilinear.cells_out": fact("constructions.trilinear", "cells_out") / passes,
        "constructions.wavepacket.busy_s": busy("constructions.wavepacket"),
        "symbols.remainder.busy_s": busy("symbols.remainder"),
        "experiments.parallel_map.busy_s": busy("experiments.parallel_map"),
    })
    maps = rows("experiments.parallel_map")
    items = rows("experiments.parallel_map.item")
    out["experiments.parallel_map.efficiency"] = parallel_efficiency(
        float(dur[items].sum()),
        float(sum(facts[r]["workers"] * dur[r] for r in maps)),
    )
    out["experiments.fit.busy_s"] = busy("experiments.fit")
    for pipeline in PIPELINES:
        out[f"experiments.{pipeline}.self_s"] = (
            sum(self_time(spans, r) for r in rows(f"experiments.{pipeline}")) / passes
        )
    out["trace.overhead"] = traced_run_s / run_s
    return out
