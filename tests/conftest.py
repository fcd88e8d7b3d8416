import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mirrorflow import maps, presets

# The default profile draws the same examples on every run, so the tier-1
# verdict depends on the tree alone. `pytest --hypothesis-profile=deep`
# searches afresh on every run, with many more examples. Tests set none of
# these values in their own decorators, so the profile always governs.
settings.register_profile(
    "default", derandomize=True, max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep", derandomize=False, max_examples=4000, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="session")
def simplex3():
    return maps.EntropicSimplexMap(3)


@pytest.fixture(scope="session")
def euclid2():
    return maps.EuclideanMap(2)


@pytest.fixture(scope="session")
def default_objective():
    return presets.default_sum_exp()


@pytest.fixture(scope="session")
def default_certificate(simplex3, default_objective):
    return presets.certificate_for(default_objective, simplex3)


@pytest.fixture()
def rng():
    return np.random.default_rng(171)
