import math

import pytest
from hypothesis import HealthCheck, settings

from cflimits import cf
from cflimits.limitset import UnitModulusNumber, geometric_spec

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def reasons(monkeypatch):
    """Every stop reason a Monitor returns while the test runs, in order."""
    seen = []
    update = cf.Monitor.update

    def spy(self, delta, tail_bound=None):
        reason = update(self, delta, tail_bound)
        if reason is not None:
            seen.append(reason)
        return reason

    monkeypatch.setattr(cf.Monitor, "update", spy)
    return seen


# The perturbed-fraction worked example used throughout: geometric tails
# p_n = 0.3^n, q_n = 0.2^n with numeric angles sqrt(11) and sqrt(13).
@pytest.fixture(scope="session")
def worked_spec():
    return geometric_spec(
        UnitModulusNumber.from_angle(math.sqrt(11)),
        UnitModulusNumber.from_angle(math.sqrt(13)),
        1.0,
        0.3,
        1.0,
        0.2,
    )


# The unperturbed fraction K(-1 / (4/3)): alpha + beta = 4/3, alpha*beta = 1.
@pytest.fixture(scope="session")
def constant_spec():
    half_angle = math.atan2(math.sqrt(5.0) / 3.0, 2.0 / 3.0)
    return geometric_spec(
        UnitModulusNumber.from_angle(half_angle),
        UnitModulusNumber.from_angle(-half_angle),
    )
