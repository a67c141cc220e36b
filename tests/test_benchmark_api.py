"""The names the benchmark in perfbench/ reaches into fnls for.

perfbench/tracer.py wraps fnls functions at the module attributes where
their callers look them up, and perfbench/metrics.py names the pipelines it
reports on.  A refactor that drops or renames one of them breaks the traced
benchmark run; this test makes it fail here first.  Both files are only
imported, never changed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import metrics
    import tracer

    return tracer, metrics


def test_every_traced_attribute_resolves(perfbench):
    tracer, _ = perfbench
    for module, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    import fnls.experiments

    assert callable(fnls.experiments.parallel_map)
    assert callable(fnls.experiments.scan_workers)


def test_every_pipeline_name_resolves(perfbench):
    _, metrics = perfbench
    import fnls.experiments

    for name in metrics.PIPELINES:
        assert callable(getattr(fnls.experiments, name, None)), name


def test_traced_space_time_facts_read_a_box_and_its_convolution(perfbench):
    # the traced scans count the stored band cells of each xsb_norm input
    # and each convolution output: 16 x 16 and 54 x 46 at N = 2^13, where
    # the output's whole lattice would be 29,114 x 46
    tracer, _ = perfbench
    from fnls.constructions import BoxSpec, box_data, trilinear_convolution

    plus = box_data(BoxSpec(n=2.0**13, alpha=1.5))
    minus = box_data(BoxSpec(n=2.0**13, alpha=1.5, conjugate=True))
    conv = trilinear_convolution(plus, minus, plus)
    assert tracer._xsb_facts((plus, 0.0, 0.51, 1.5, "-"), {}, 1.0) == {"cells": plus.values.size}
    assert tracer._xsb_facts((), {"f": conv}, 1.0) == {"cells": conv.values.size}
    assert tracer._cells_out_facts((plus, minus, plus), {}, conv) == {"cells_out": 54 * 46}
    assert plus.values.size == 16 * 16 and conv.tau.size == 29_114


def test_traced_record_facts_read_a_band_image(perfbench):
    # the tracer counts the records of approximate_solution's and
    # rescale_solution's results through .states: 3 records on the carrier's
    # band of 64 modes
    tracer, _ = perfbench
    import numpy as np
    from fnls.constructions import approximate_solution, rescale_solution
    from fnls.evolution import Trajectory
    from fnls.spectral import Field, make_grid

    length = 2.0 * np.pi * 61 / 8.0  # carrier 8 is mode 61
    y_grid = make_grid(64, length)
    env = Field.physical(y_grid, np.exp(-0.5 * ((y_grid.x - 0.5 * length) / 2.0) ** 2))
    traj = Trajectory([0.0, 0.1, 0.2], y_grid, np.tile(env.values, (3, 1)))
    image = approximate_solution(traj, 8.0, 2.0, length)
    zoomed = rescale_solution(image, 2.0, 2.0)
    assert image.values.shape == zoomed.values.shape == (3, 64)
    assert tracer._records_facts((traj, 8.0, 2.0, length), {}, image) == {"records": 3}
    assert tracer._records_facts((image, 2.0, 2.0), {}, zoomed) == {"records": 3}
