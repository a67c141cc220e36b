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
