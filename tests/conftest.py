import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cvqnet import NetworkParams, UserLink, default_config

settings.register_profile(
    "cvqnet",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("cvqnet")


@pytest.fixture(scope="session")
def table1() -> NetworkParams:
    return default_config().params


def random_params(
    rng: np.random.Generator, max_users: int = 5, n_users: int | None = None
) -> NetworkParams:
    """Random valid broadcast network in the physically sensible regime, with
    `n_users` users, or a uniform count from 1 to `max_users` if not given."""
    m = int(rng.integers(1, max_users + 1)) if n_users is None else n_users
    fractions = rng.uniform(0.05, 1.0, m)
    fractions = fractions / fractions.sum() * rng.uniform(0.3, 0.999)
    users = tuple(
        UserLink(
            transmittance=float(fractions[k]),
            excess_noise=float(rng.uniform(0.0, 0.02)),
            trusted_noise=float(rng.uniform(0.0, 0.15)),
        )
        for k in range(m)
    )
    return NetworkParams(
        modulation_variance=float(rng.uniform(2.0, 8.0)),
        users=users,
        detector_efficiency=float(rng.uniform(0.4, 1.0)),
        electronic_noise=0.0,
        beta=0.95,
        block_size=1_250_000_000,
    )


def unphysical_pair() -> NetworkParams:
    """Two users over the splitter budget: Gamma is positive definite but its
    smallest symplectic eigenvalue is 0.5."""
    return NetworkParams(
        modulation_variance=5.0,
        users=(
            UserLink(transmittance=0.55, excess_noise=0.0),
            UserLink(transmittance=0.55, excess_noise=0.0),
        ),
        enforce_splitter_budget=False,
    )
