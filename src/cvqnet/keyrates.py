"""Per-user mutual information, Holevo bounds and secret key rates.

Three post-processing interpretations of the same broadcast data are
supported.  For a reference user k:

  untrusted     other users belong to the eavesdropper; everything is
                evaluated on the reduced two-party state (A, Bk).
  trusted       other users are honest and excluded from the eavesdropper's
                purification; the Holevo bound uses the global state.
  collaborative other users publicly disclose their noisy outcomes; both
                quantities are evaluated on the state conditioned on those
                outcomes (no trust placed on the assisting receivers).

Reverse reconciliation throughout: Holevo bounds are conditioned on the
reference user's own measurement, whose receiver loss and electronic noise
are trusted (purified) in every interpretation.

`derive_worst_case` places the model-implied corner with the same
`worst_case_params` as block estimates.  A zero-transmittance link carries
no information about Alice's symbols, so its rates clamp to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ModelError, ValidationError
from .gaussian import CovarianceMatrix, condition_on_heterodyne, von_neumann_entropy
from .network import (
    ALICE_LABEL,
    NetworkParams,
    attach_trusted_detector,
    build_channel_output_cm,
    classical_outcome_cov,
    measured_outcome_model,
    user_label,
)
from .simulate import EstimateReport, worst_case_params


class TrustModel(Enum):
    UNTRUSTED = "untrusted"
    COLLABORATIVE = "collaborative"
    TRUSTED = "trusted"


def delta_fs(block_size: float) -> float:
    """Finite-size penalty 7 * sqrt(log2(2e10) / N) in bits per use.

    The prefactor is (2d + 3) with binary raw-key dimension d = 2; the
    2e10 encodes 2 / eps_bar at smoothing parameter 1e-10.  The privacy
    amplification term is negligible at the block sizes considered and
    is omitted.
    """
    if block_size < 1:
        raise ValidationError(f"block size must be >= 1, got {block_size}")
    return 7.0 * math.sqrt(math.log2(2e10) / block_size)


def _mode_delta(params: NetworkParams, mode: str) -> float:
    """Delta(N) of one user in "finite" mode, 0 in "asymptotic" mode."""
    if mode not in ("finite", "asymptotic"):
        raise ValidationError(f"mode must be 'finite' or 'asymptotic', got {mode!r}")
    return delta_fs(params.block_size) if mode == "finite" else 0.0


def _outcome_information(cov: np.ndarray, users: Iterable[int]) -> float:
    """I(A : y_users) in bits per use: log2 det(Sigma_yy) / det(Sigma_yy|s).

    `cov` is the classical outcome covariance of (s, y_1, ..., y_M); the two
    quadratures contribute identical halves, so one quadrature's
    determinant ratio is the information per channel use.
    """
    idx = [k + 1 for k in sorted(users)]
    syy = cov[np.ix_(idx, idx)]
    sys_ = cov[idx, :1]
    det_y = np.linalg.det(syy)
    det_y_given_s = np.linalg.det(syy - sys_ @ sys_.T / cov[0, 0])
    if det_y <= 0 or det_y_given_s <= 0:
        raise ModelError("degenerate joint outcome covariance")
    return float(np.log2(det_y / det_y_given_s))


def mutual_information(
    params: NetworkParams, k: int, conditioned_on: Iterable[int] = ()
) -> float:
    """I(A : y_k | y_cond) = I(A : y_cond + {k}) - I(A : y_cond), bits per use."""
    cond = sorted(set(int(j) for j in conditioned_on))
    if k in cond:
        raise ValidationError(f"user {k} cannot condition on itself")
    for j in cond + [k]:
        if not 0 <= j < params.n_users:
            raise ValidationError(f"user index {j} out of range")
    cov = classical_outcome_cov(params)
    info = _outcome_information(cov, cond + [k])
    return info - _outcome_information(cov, cond) if cond else info


def measure_reference_user(
    cm: CovarianceMatrix, label: str, detector_efficiency: float, electronic_noise: float
) -> CovarianceMatrix:
    """State of everything retained after the reference user's measurement.

    Attaches the trusted-receiver purification to `label`, heterodynes the
    detected mode, and keeps all other modes plus the two ancillae.
    """
    extended = attach_trusted_detector(cm, label, detector_efficiency, electronic_noise)
    return condition_on_heterodyne(extended, [label])


def _reference_holevo(cm: CovarianceMatrix, params: NetworkParams, k: int) -> float:
    """S(rho) - S(rho after the reference user k's trusted measurement)."""
    conditional = measure_reference_user(
        cm, user_label(k), params.detector_efficiency, params.trusted_noise(k)
    )
    return von_neumann_entropy(cm) - von_neumann_entropy(conditional)


def holevo_untrusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users assigned to the eavesdropper."""
    cm = build_channel_output_cm(params)
    return _reference_holevo(cm.reduce([ALICE_LABEL, user_label(k)]), params, k)


def holevo_trusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users excluded from the eavesdropper."""
    return _reference_holevo(build_channel_output_cm(params), params, k)


def holevo_collaborative(params: NetworkParams, k: int) -> float:
    """Holevo bound after conditioning on all other users' disclosed outcomes.

    Assisting receivers are applied as untrusted maps, all in one step:
    each scales its mode's rows and columns by sqrt(eta_d) and adds
    (1 - eta_d) + nu_el to its diagonal, so the disclosed data carry the
    receiver's loss and noise but nothing is purified for them.  The state
    is then conditioned jointly on their heterodyne outcomes.  The
    reference user's own receiver stays trusted.
    """
    if params.n_users == 1:
        return holevo_untrusted(params, k)
    cm = build_channel_output_cm(params)
    others = [j for j in range(params.n_users) if j != k]
    eta_d = params.detector_efficiency
    labels = [user_label(j) for j in others]
    rows = np.array([2 * cm.mode_index(label) + q for label in labels for q in (0, 1)])
    scale = np.ones(cm.matrix.shape[0])
    scale[rows] = np.sqrt(eta_d)
    gamma = scale[:, None] * cm.matrix * scale[None, :]
    gamma[rows, rows] += [(1.0 - eta_d) + params.trusted_noise(j) for j in others for _ in (0, 1)]
    assisted = CovarianceMatrix(gamma, cm.mode_labels)
    conditional_ab = condition_on_heterodyne(assisted, labels)
    return _reference_holevo(conditional_ab, params, k)


_HOLEVO = {
    TrustModel.UNTRUSTED: holevo_untrusted,
    TrustModel.TRUSTED: holevo_trusted,
    TrustModel.COLLABORATIVE: holevo_collaborative,
}


@dataclass(frozen=True)
class KeyRateReport:
    """Everything that went into one per-user secret key rate."""

    user: int  # 0-based
    trust: TrustModel
    mutual_information: float
    holevo: float
    delta: float
    rate: float
    non_positive: bool
    params_used: tuple[tuple[float, float], ...]  # per-user (eta, eps) actually evaluated
    params_source: str  # "as-given" | "interval-corner" | "ml-asymptotic"


def key_rate(
    params: NetworkParams,
    trust: TrustModel,
    k: int,
    mode: str = "finite",
    worst_case: NetworkParams | None = None,
) -> KeyRateReport:
    """Secret key rate K = max(0, beta * I - chi - Delta(N)) for user k.

    mode "finite": applies the Delta(N) penalty; parameters are taken from
    `worst_case` when a confidence-region corner is supplied, otherwise the
    given params are evaluated as-is (point-valued inputs are treated as the
    already-chosen security evaluation point).  mode "asymptotic": Delta = 0
    and the given params are used directly (maximum-likelihood reading).
    """
    delta = _mode_delta(params, mode)
    if not 0 <= k < params.n_users:
        raise ValidationError(f"user index {k} out of range")
    if mode == "asymptotic":
        eval_params = params
        source = "ml-asymptotic"
    elif worst_case is not None:
        if worst_case.n_users != params.n_users:
            raise ValidationError("worst-case params must describe the same users")
        eval_params = worst_case
        source = "interval-corner"
    else:
        eval_params = params
        source = "as-given"

    if trust is TrustModel.COLLABORATIVE:
        conditioned = [j for j in range(eval_params.n_users) if j != k]
    else:
        conditioned = []
    info = mutual_information(eval_params, k, conditioned)
    chi = _HOLEVO[trust](eval_params, k)
    raw = params.beta * info - chi - delta
    return KeyRateReport(
        user=k,
        trust=trust,
        mutual_information=info,
        holevo=chi,
        delta=delta,
        rate=max(0.0, raw),
        non_positive=raw <= 0.0,
        params_used=tuple((u.transmittance, u.excess_noise) for u in eval_params.users),
        params_source=source,
    )


def derive_worst_case(params: NetworkParams, n: float | None = None) -> NetworkParams:
    """Model-implied confidence-region corner (eta_min, eps_max per user).

    Treats the outcome model of the given parameters as maximum-likelihood
    estimates from a block of `n` symbols (default: the params' block size)
    and returns `worst_case_params` at their regions.  Used when no measured
    confidence region is available.
    """
    n_eff = float(params.block_size if n is None else n)
    models = [measured_outcome_model(params, k) for k in range(params.n_users)]
    return worst_case_params(params, EstimateReport.from_estimates(params, models, n_eff))


def rate_table(
    params: NetworkParams,
    trusts: Sequence[TrustModel] = tuple(TrustModel),
    users: Sequence[int] | None = None,
    mode: str = "finite",
    worst_case: NetworkParams | None = None,
) -> list[KeyRateReport]:
    """Key-rate reports over a (user x trust-model) grid, row-major by user."""
    users = list(range(params.n_users)) if users is None else list(users)
    return [
        key_rate(params, trust, k, mode=mode, worst_case=worst_case)
        for k in users
        for trust in trusts
    ]
