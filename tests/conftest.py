import pytest

from fnls.acceptance import run_acceptance


@pytest.fixture(scope="session")
def gate_results():
    """index -> CriterionResult of every acceptance gate, each run once per
    session, as `fnls verify` runs them."""
    return {res.index: res for res in run_acceptance(echo=None)}
