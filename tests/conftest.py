import pytest

from lpoa.driver import RunConfig, run


@pytest.fixture(scope="session")
def trace_example2_eps03():
    """example2 at p = 2, eps = 0.3: 27 iterations, a few seconds."""
    return run(RunConfig(problem_key="example2", p=2.0, epsilon=0.3))
