import dataclasses

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


def single_user(eta=1.0, eps=0.0, eta_d=1.0, nu=0.0, v_mod=5.0, **kw):
    return NetworkParams(
        modulation_variance=v_mod,
        users=(UserLink(transmittance=eta, excess_noise=eps, trusted_noise=nu),),
        detector_efficiency=eta_d,
        **kw,
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


def receiver_cases(table1: NetworkParams, rng: np.random.Generator):
    """Networks for the high-precision receiver checks: `table1` as given and
    with every user's electronic noise at 0.15, and two random networks
    of up to four users (electronic noise up to 0.15), each at detector
    efficiency 0.68, 0.9999, 0.99999 and exactly 1.  The purification
    variance 1 + nu_el / (1 - eta_d) reaches 1.5e4 below 1."""
    noisy = dataclasses.replace(
        table1, users=tuple(dataclasses.replace(u, trusted_noise=0.15) for u in table1.users)
    )
    networks = [table1, noisy] + [random_params(rng, max_users=4) for _ in range(2)]
    return [
        dataclasses.replace(params, detector_efficiency=eta_d)
        for params in networks
        for eta_d in (0.68, 0.9999, 0.99999, 1.0)
    ]
