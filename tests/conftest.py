import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fal",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fal")

from fal_spectrum import Catalog, PrecisionContext


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(30)


@pytest.fixture(scope="session")
def l41():
    return Catalog()["L41"]
