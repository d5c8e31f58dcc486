"""Covariance model of a one-to-M broadcast network with trusted receivers.

The entanglement-based picture is used throughout: Alice holds one arm of a
two-mode squeezed vacuum of variance V = V_mod + 1, the other arm is split
among M users, each link adding loss and excess noise.  Each receiver is
described by its calibrated efficiency eta_d and electronic noise nu_el
alone.  Both are trusted: `receiver_map` states the receiver once, as a
symplectic map of the measured mode and two vacuum ancillae with bounded
coefficients, so eta_d = 1 is an exact case.

A `NetworkParams` is hashed, and its per-user (transmittance, excess noise)
pairs `links`, outcome models `outcome_models` and SNRs `snrs` are read,
once, at construction: what follows from a network's fields alone and
cannot fail is taken on the object; only states that cost spectra or can
raise `ModelError` are memoised.  `build_channel_output_cm` states the X
entries from `links`, and every key rate reports them as its
`params_used`.  The builder's memoised state is the one place the X entries
are stated; the two-mode Holevo bounds read theirs from it as floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModelError, ValidationError
from .gaussian import CovarianceMatrix, check_physicality, symplectic_eigenvalues

SIGMA_P = np.diag([1.0, 1.0, -1.0])  # p flips the sign of D2 and V2

ALICE_LABEL = "A"

SPLITTER_BUDGET_SLACK = 1e-6


def check_noise(name: str, value: float) -> None:
    """Raise ValidationError naming `name` unless a noise variance is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def check_receiver(detector_efficiency: float, electronic_noise: float) -> None:
    """Raise ValidationError unless eta_d is in (0, 1] and nu_el is finite and >= 0."""
    if not 0.0 < detector_efficiency <= 1.0:
        raise ValidationError("detector efficiency must be in (0, 1]")
    check_noise("electronic noise", electronic_noise)


def check_eps_pe(eps_pe: float) -> None:
    """Raise ValidationError unless the parameter-estimation error eps_pe is in (0, 0.5)."""
    if not 0.0 < eps_pe < 0.5:
        raise ValidationError(f"eps_pe must be in (0, 0.5), got {eps_pe}")


def check_block_size(block_size: float) -> None:
    """Raise ValidationError unless a block size is finite and >= 1."""
    if not 1 <= block_size < math.inf:
        raise ValidationError(f"block size must be finite and >= 1, got {block_size}")


def check_integer(name: str, value: int) -> int:
    """`value` as an int if it is an integer (`operator.index`); else ValidationError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def check_user_index(k: int, n_users: int) -> int:
    """k as an int if it is a user index (0-based) of `n_users` users; else ValidationError."""
    k = check_integer("user index", k)
    if not 0 <= k < n_users:
        raise ValidationError(f"user index {k} out of range for {n_users} users")
    return k


@dataclass(frozen=True)
class UserLink:
    """One downstream link: channel transmittance, output-referred excess
    noise, and the receiver's trusted electronic noise (all SNU)."""

    transmittance: float
    excess_noise: float
    trusted_noise: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValidationError(f"transmittance must be in [0, 1], got {self.transmittance}")
        check_noise("excess noise", self.excess_noise)
        if self.trusted_noise is not None:
            check_noise("trusted noise", self.trusted_noise)


@dataclass(frozen=True)
class NetworkParams:
    """Physical inputs for the whole network evaluation.  Hashed once, at
    construction: the value keys the per-network memos.  Also taken once at
    construction, none of them a field: `links`, the per-user (transmittance,
    excess noise) pairs a key rate reports as its `params_used`, and each
    user's `measured_outcome_model` and SNR V_mod g_k^2 / N_k, in user order,
    as `outcome_models` and `snrs`."""

    modulation_variance: float
    users: tuple[UserLink, ...]
    detector_efficiency: float = 0.68
    electronic_noise: float = 0.0
    beta: float = 0.95
    block_size: int = 1_250_000_000
    eps_pe: float = 1e-10
    enforce_splitter_budget: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        if not 0.0 < self.modulation_variance < math.inf:
            raise ValidationError(
                f"modulation variance must be finite and positive, got {self.modulation_variance}"
            )
        if not self.users:
            raise ValidationError("need at least one user")
        check_receiver(self.detector_efficiency, self.electronic_noise)
        if not 0.0 < self.beta <= 1.0:
            raise ValidationError("reconciliation efficiency must be in (0, 1]")
        check_block_size(self.block_size)
        check_eps_pe(self.eps_pe)
        total = sum(u.transmittance for u in self.users)
        if self.enforce_splitter_budget and total > 1.0 + SPLITTER_BUDGET_SLACK:
            raise ValidationError(
                f"total transmittance {total:.6f} exceeds the passive splitter budget; "
                "set enforce_splitter_budget=False for non-broadcast what-if scans"
            )
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))
        links = tuple((u.transmittance, u.excess_noise) for u in self.users)
        object.__setattr__(self, "links", links)
        models = tuple(measured_outcome_model(self, k) for k in range(self.n_users))
        object.__setattr__(self, "outcome_models", models)
        snrs = tuple(self.modulation_variance * m.gain**2 / m.noise_variance for m in models)
        object.__setattr__(self, "snrs", snrs)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_users(self) -> int:
        return len(self.users)

    def check_user(self, k: int) -> int:
        """k as an int if it is a user index (0-based); else ValidationError."""
        return check_user_index(k, len(self.users))

    def trusted_noise(self, k: int) -> float:
        """Electronic noise of user k (0-based), falling back to the shared value."""
        nu = self.users[k].trusted_noise
        return self.electronic_noise if nu is None else nu

    def with_links(self, links: Sequence[tuple[float, float]]) -> "NetworkParams":
        """Copy with per-user (transmittance, excess_noise) replaced."""
        if len(links) != self.n_users:
            raise ValidationError("need one (eta, eps) pair per user")
        users = tuple(
            replace(u, transmittance=eta, excess_noise=eps)
            for u, (eta, eps) in zip(self.users, links)
        )
        return replace(self, users=users)


def user_label(k: int) -> str:
    """Mode label of user k's channel output (k is 0-based, label 1-based)."""
    return f"B{k + 1}"


def quadrature_signs(n_modes: int) -> np.ndarray:
    """j j^T, j = (-1, 1, ..., 1) with Alice first: P = J X J is X * j j^T."""
    signs = np.ones((n_modes, n_modes))
    signs[0, 1:] = signs[1:, 0] = -1.0
    return signs


@functools.lru_cache(maxsize=16)
def build_channel_output_cm(params: NetworkParams) -> CovarianceMatrix:
    """Joint covariance of Alice and all channel outputs B1..BM.

    With V = V_mod + 1:
      Alice block          V * I
      Alice-Bk block       sqrt(eta_k (V^2 - 1)) * diag(1, -1)
      Bk block             (eta_k V_mod + 1 + eps_k) * I
      Bj-Bk cross block    sqrt(eta_j eta_k) * V_mod * I
    The cross block follows from the splitter's orthonormal vacuum mixing:
    branches share the full signal mode (variance V) but vacuum contributions
    between distinct outputs cancel one unit, leaving V - 1 = V_mod.

    The x and p blocks are uncoupled, P = J X J (`quadrature_signs`) as in
    every state measured from it.  Memoised per `NetworkParams` value: the
    state is read-only, and each new state passes the physicality check; a
    failing one, even non-finite or indefinite, raises ModelError naming its params.
    """
    v_mod = params.modulation_variance
    v = v_mod + 1.0
    m = params.n_users
    eta, eps = np.array(params.links).T
    x = np.empty((m + 1, m + 1))
    x[0, 0] = v
    x[1:, 1:] = np.sqrt(eta[:, None] * eta) * v_mod
    x.reshape(-1)[m + 2 :: m + 2] = eta * v_mod + 1.0 + eps  # the diagonal of the Bk block
    x[0, 1:] = x[1:, 0] = np.sqrt(eta * (v * v - 1.0))
    gamma = np.zeros((2 * (m + 1), 2 * (m + 1)))
    gamma[0::2, 0::2] = x
    gamma[1::2, 1::2] = x * quadrature_signs(m + 1)
    labels = (ALICE_LABEL,) + tuple(user_label(k) for k in range(m))
    try:
        cm = CovarianceMatrix(gamma, labels)
        detail = None if check_physicality(cm) else f"min nu = {symplectic_eigenvalues(cm)[-1]}"
    except ValidationError as exc:  # non-finite, or not positive definite: Gamma + i Omega >= 0 fails
        detail = str(exc)
    if detail is not None:
        raise ModelError(
            f"network covariance unphysical ({detail}); "
            f"params: V_mod={v_mod}, users={params.users}"
        )
    return cm


class ReceiverMap(NamedTuple):
    """A trusted receiver as the bounded coefficients of its map on the
    measured mode; each coefficient is a NumPy float64, or an array with one
    entry per member, and `noise` is of its inputs' type (see `receiver_map`)."""

    t: float  # sqrt(eta_d)
    ru: float  # sqrt(1 - eta_d + nu_el / 2)
    rw: float  # sqrt(nu_el / 2)
    s: float  # sqrt(1 + nu_el / 2)
    noise: float  # N of `receiver_noise`: the outcome variance is eta_d W + N


def receiver_noise(detector_efficiency, electronic_noise):
    """N = 2 - eta_d + nu_el: the outcome variance behind a receiver is eta_d W + N."""
    return 2.0 - detector_efficiency + electronic_noise


def receiver_map(detector_efficiency, electronic_noise) -> ReceiverMap:
    """The trusted receiver (eta_d, nu_el) on a measured mode B, for scalars
    or for per-member arrays alike.

    The receiver mixes B with one arm of an EPR pair on a beamsplitter of
    transmittance eta_d, which gives the calibrated variance
    eta_d W + (1 - eta_d) + nu_el of a mode of variance W.  Written as a
    two-mode squeeze of two vacua V1, V2 (u = cosh, w = sinh of the squeeze,
    r^2 = 1 - eta_d, r^2 w^2 = nu_el / 2), the pair's variance
    1 + nu_el / (1 - eta_d) diverges as eta_d -> 1, but the measured mode
    does not: B' = t B + ru V1 + rw V2 in x (- rw V2 in p).  Any symplectic
    map on the two ancillae leaves every entropy unchanged, so they are
    taken in the basis where the map (B, V1, V2) -> (B', D1, D2) is, in x,
        [[t, ru, rw], [-ru/s, t/s, 0], [t rw/s, ru rw/s, s]]
    (in p the V2 column and the D2 row change sign).  Every coefficient
    stays bounded, so eta_d = 1 is an exact case.  B' is heterodyned with
    outcome variance a = eta_d W + N, N = 2 - eta_d + nu_el = ru^2 + s^2
    (the +1 is the heterodyne vacuum unit), and after it D2 is a vacuum
    uncorrelated with the rest: D2 - (rw/s) y is V2 and the heterodyne
    noise only.  So the measurement keeps one ancilla, D1.
    """
    eta_d, nu_el = detector_efficiency, electronic_noise
    half = nu_el / 2.0
    return ReceiverMap(
        np.sqrt(eta_d),
        np.sqrt(1.0 - eta_d + half),
        np.sqrt(half),
        np.sqrt(1.0 + half),
        receiver_noise(eta_d, nu_el),
    )


def attach_trusted_detector(
    cm: CovarianceMatrix,
    mode: str,
    detector_efficiency: float,
    electronic_noise: float,
) -> CovarianceMatrix:
    """Couple `mode` to a trusted-receiver purification.

    Appends two vacuum modes (D1, D2) and applies `receiver_map` to
    (`mode`, D1, D2).  The transformed mode (kept under its original label)
    then has variance eta_d W + (1 - eta_d) + nu_el, i.e. the calibrated
    receiver variance, while the noise purification stays out of the
    eavesdropper's hands.
    """
    check_receiver(detector_efficiency, electronic_noise)
    idx = cm.mode_index(mode)
    n = cm.dim_modes
    d1 = f"D1_{mode}"
    d2 = f"D2_{mode}"
    if d1 in cm.mode_labels or d2 in cm.mode_labels:
        raise ValidationError(f"detector already attached to {mode}")

    ext = np.eye(2 * (n + 2))
    ext[: 2 * n, : 2 * n] = cm.matrix
    t, ru, rw, s, _ = receiver_map(detector_efficiency, electronic_noise)
    x_map = np.array([[t, ru, rw], [-ru / s, t / s, 0.0], [t * rw / s, ru * rw / s, s]])
    x_rows = [2 * idx, 2 * n, 2 * n + 2]  # (mode, D1, D2)
    p_rows = [row + 1 for row in x_rows]
    symplectic = np.eye(2 * (n + 2))
    symplectic[np.ix_(x_rows, x_rows)] = x_map
    symplectic[np.ix_(p_rows, p_rows)] = SIGMA_P @ x_map @ SIGMA_P
    return CovarianceMatrix(symplectic @ ext @ symplectic.T, cm.mode_labels + (d1, d2))


class OutcomeModel(NamedTuple):
    """Classical per-quadrature model y = gain * s + n of one user's data."""

    gain: float
    noise_variance: float


def measured_outcome_model(params: NetworkParams, k: int) -> OutcomeModel:
    """Heterodyne outcome statistics for user k, per quadrature.

    y_q = gain * s_q + n with gain = sqrt(eta_k eta_d / 2) and
    Var(y_q) = (eta_d W_k + N) / 2, N = 2 - eta_d + nu_el of `receiver_noise`,
    where W_k = eta_k V_mod + 1 + eps_k is the channel-output variance.  The
    1/2 and the +1 vacuum unit in N are the heterodyne conventions.
    """
    params.check_user(k)
    user = params.users[k]
    eta_d = params.detector_efficiency
    gain = math.sqrt(user.transmittance * eta_d / 2.0)
    added = receiver_noise(eta_d, params.trusted_noise(k))
    return OutcomeModel(float(gain), float((eta_d * (1.0 + user.excess_noise) + added) / 2.0))


def link_from_outcome_model(
    params: NetworkParams, k: int, gain: float, noise_variance: float
) -> tuple[float, float]:
    """(transmittance, excess noise) of user k's channel behind an outcome
    model: the inverse of `measured_outcome_model`, read with user k's
    receiver in `params`."""
    eta_d = params.detector_efficiency
    transmittance = 2.0 * gain * gain / eta_d
    added = receiver_noise(eta_d, params.trusted_noise(params.check_user(k)))
    excess_noise = (2.0 * noise_variance - added) / eta_d - 1.0
    return float(transmittance), float(excess_noise)


def classical_outcome_cov(params: NetworkParams) -> np.ndarray:
    """Joint classical covariance of (s, y_1, ..., y_M) for one quadrature.

    V_mod g g^T + diag(0, noise_1, ..., noise_M) with g = (1, gain_1, ...,
    gain_M): given s the outcomes are independent, because the splitter
    vacua anti-correlate exactly with the shared signal shot noise.  Both
    quadratures have the same classical covariance.
    """
    g = np.array([1.0] + [model.gain for model in params.outcome_models])
    noise = np.array([0.0] + [model.noise_variance for model in params.outcome_models])
    return params.modulation_variance * np.outer(g, g) + np.diag(noise)
