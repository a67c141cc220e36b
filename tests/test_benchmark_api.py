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
