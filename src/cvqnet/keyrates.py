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
are trusted (purified) in every interpretation.  `measure_reference_user`
does that measurement in one closed-form step on the x and p blocks of one
state, `measure_reference_user_blocks` on a stack of them with the same
rounding; `attach_trusted_detector` followed by `condition_on_heterodyne` is
the same map written out on the labelled extended state.  The trusted bound
applies the single-state step to the blocks of the global state and reads
the conditional spectrum from the blocks it returns.  The untrusted and
collaborative bounds are read on a two-mode state (A, Bk) with x block
[[a, c], [c, b]] and p block [[a, -c], [-c, b]], where chi is a closed form
in the scalars a, b, c and the receiver (`_two_mode_holevo`; Lodewyck et
al., PRA 76, 042305 (2007)).  Mutual information is the closed form
log2(1 + sum_k V_mod g_k^2 / N_k) of the classical outcome model, built from
the outcome models of the users it involves only.

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

from .errors import ValidationError
from .gaussian import block_spectrum, spectrum_entropy, von_neumann_entropy
from .network import NetworkParams, build_channel_output_cm, measured_outcome_model, trusted_receiver
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


def _check_user(params: NetworkParams, k: int) -> None:
    if not 0 <= k < params.n_users:
        raise ValidationError(f"user index {k} out of range")


def _outcome_snrs(params: NetworkParams, users: Iterable[int] | None = None) -> dict[int, float]:
    """V_mod g_k^2 / N_k of the outcome model y_k = g_k s + n_k of each of
    `users` (default: every user)."""
    snrs = {}
    for k in range(params.n_users) if users is None else users:
        model = measured_outcome_model(params, k)
        snrs[k] = params.modulation_variance * model.gain**2 / model.noise_variance
    return snrs


def _outcome_information(snrs: dict[int, float], users: Iterable[int]) -> float:
    """I(A : y_users) = log2(1 + sum_{k in users} snr_k) in bits per use.

    The outcome covariance of (s, y_1, ..., y_M) is V_mod g g^T + diag(N)
    with g_0 = 1, N_0 = 0 (`classical_outcome_cov`); by the matrix
    determinant lemma, det(Sigma_yy) / det(Sigma_yy|s) = 1 + V_mod
    sum g_k^2 / N_k.  The two quadratures contribute identical halves, so
    one quadrature's ratio is the information per channel use.
    """
    return math.log2(1.0 + math.fsum(snrs[k] for k in users))


def mutual_information(
    params: NetworkParams, k: int, conditioned_on: Iterable[int] = ()
) -> float:
    """I(A : y_k | y_cond) = I(A : y_cond + {k}) - I(A : y_cond), bits per use."""
    cond = sorted(set(int(j) for j in conditioned_on))
    if k in cond:
        raise ValidationError(f"user {k} cannot condition on itself")
    for j in cond + [k]:
        _check_user(params, j)
    snrs = _outcome_snrs(params, cond + [k])
    info = _outcome_information(snrs, cond + [k])
    return info - _outcome_information(snrs, cond) if cond else info


def measure_reference_user(
    x: np.ndarray, p: np.ndarray, index: int, eta_d: float, v_d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature blocks of everything retained after the reference user's
    measurement, for one state without x-p correlation given as its (n, n)
    blocks x and p.

    One closed-form step for heterodyning mode `index` behind its trusted
    receiver (eta_d, v_d), the pair `trusted_receiver` returns; the same
    map as `condition_on_heterodyne(attach_trusted_detector(...))` without
    forming the extended state.  In the quadrature with block Q, with the
    mode's entry w, its cross column C with the other modes O, t^2 = eta_d,
    r^2 = 1 - eta_d, c = sqrt(v_d^2 - 1) and z = +1 in x, -1 in p, the
    retained modes (O, D1, D2) have the block
        [[Q_O, -r C, 0], [-r C^T, r^2 w + t^2 v_d, z t c], [0, z t c, v_d]],
    their cross column with the detected mode is [t C; t r (v_d - w); z r c],
    and they are conditioned on its outcome variance t^2 w + r^2 v_d + 1.
    The rounding is that of `measure_reference_user_blocks`.  Returns the
    (n + 1, n + 1) blocks: the other modes in order, then D1, D2.
    """
    t, r, c = math.sqrt(eta_d), math.sqrt(1.0 - eta_d), math.sqrt(v_d * v_d - 1.0)
    vacuum = r * r * v_d + 1.0
    o = len(x) - 1
    others = np.arange(o)
    others[index:] += 1
    w = [block[index, index] for block in (x, p)]
    a = [t * t * wq + vacuum for wq in w]
    out = []
    for q, (block, sign) in enumerate(((x, 1.0), (p, -1.0))):
        cross = block[others, index]
        retained = np.zeros((o + 2, o + 2))
        retained[:o, :o] = block[others[:, None], others]
        retained[:o, o] = retained[o, :o] = -r * cross
        retained[o, o] = r * r * w[q] + t * t * v_d
        retained[o, o + 1] = retained[o + 1, o] = sign * t * c
        retained[o + 1, o + 1] = v_d
        sigma = np.empty(o + 2)
        sigma[:o] = t * cross
        sigma[o:] = t * r * (v_d - w[q]), sign * r * c
        retained -= np.outer(sigma * (a[1 - q] / (a[0] * a[1])), sigma)
        out.append((retained + retained.T) / 2.0)
    return out[0], out[1]


def measure_reference_user_blocks(
    x: np.ndarray, p: np.ndarray, index: np.ndarray, eta_d: np.ndarray, v_d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`measure_reference_user` on a stack of states without x-p correlation.

    Member b is held as its (n, n) quadrature blocks x[b], p[b]; it measures
    its mode index[b] behind its own trusted receiver (eta_d[b], v_d[b]), the
    pair `trusted_receiver` returns.  The formula and the rounding are those
    of the single-state step, so each member equals it exactly.  Returns the
    (B, n + 1, n + 1) blocks of the retained modes: the other modes in order,
    then D1, D2.
    """
    members = np.arange(len(index))
    n = x.shape[-1]
    o = n - 1
    keep = np.arange(n) != index[:, None]  # the other modes of each member
    kept = keep[:, :, None] & keep[:, None, :]
    t, r, c = np.sqrt(eta_d), np.sqrt(1.0 - eta_d), np.sqrt(v_d * v_d - 1.0)
    rr, ttv, tc, tr, rc = r * r, t * t * v_d, t * c, t * r, r * c
    vacuum = rr * v_d + 1.0
    w = [block[members, index, index] for block in (x, p)]
    a = [t * t * wq + vacuum for wq in w]
    det = a[0] * a[1]
    out = []
    for q, (block, sign) in enumerate(((x, 1.0), (p, -1.0))):
        cross = block[members, :, index][keep].reshape(-1, o)
        retained = np.zeros((len(index), n + 1, n + 1))
        retained[:, :o, :o] = block[kept].reshape(-1, o, o)
        retained[:, :o, o] = retained[:, o, :o] = -r[:, None] * cross
        retained[:, o, o] = rr * w[q] + ttv
        retained[:, o, o + 1] = retained[:, o + 1, o] = sign * tc
        retained[:, o + 1, o + 1] = v_d
        sigma = np.concatenate(
            [t[:, None] * cross, (tr * (v_d - w[q]))[:, None], (sign * rc)[:, None]], axis=1
        )
        scaled = sigma * (a[1 - q] / det)[:, None]
        retained -= scaled[:, :, None] * sigma[:, None, :]
        out.append((retained + np.swapaxes(retained, 1, 2)) / 2.0)
    return out[0], out[1]


def _symplectic_pair(split: float, product: float) -> tuple[float, float]:
    """(nu_+, nu_-) from nu_+ - nu_- = split >= 0 and nu_+ nu_- = product > 0."""
    larger = (math.sqrt(split * split + 4.0 * product) + split) / 2.0
    return larger, product / larger


def _two_mode_holevo(a: float, b: float, c: float, eta_d: float, v_d: float) -> float:
    """S(A, B) - S(A, D1, D2 | y_B) in bits for the two-mode state with x block
    [[a, c], [c, b]] and p block [[a, -c], [-c, b]], B heterodyned behind the
    trusted receiver (eta_d, v_d) that `trusted_receiver` returns.

    With det = ab - c^2, the spectrum before the measurement has
    nu_+ nu_- = det and nu_+ - nu_- = |a - b|, so nu_+^2 + nu_-^2 =
    a^2 + b^2 - 2c^2 (Weedbrook et al., RMP 84, 621 (2012)).  The conditional
    state is `measure_reference_user` with O = {A}: a 3 x 3 x block X and the
    p block D X D, D = diag(-1, 1, -1).  (A, B) is purified by two modes and
    the measurement keeps the whole pure, so the conditional spectrum is
    {1, lambda_3, lambda_4}: lambda_3^2 + lambda_4^2 = tr(XP) - 1 and
    lambda_3 lambda_4 = det X.  With the added noise
    N = (1 - eta_d) v_d + 1 and the outcome variance s = eta_d b + N, these
    reduce to
        lambda_3 lambda_4 = (det N + eta_d a) / s,
        |lambda_3 - lambda_4| = |eta_d (1 - det) + N (b - a)| / s,
    which, unlike the roots of the quadratic in tr(XP) and det X, keep full
    precision when the two are close (a nearly pure state, where both tend
    to 1).  ab - c^2 <= 0 or a <= 0 raises ValidationError; the spectra are
    checked and clamped by `spectrum_entropy`.
    """
    det = a * b - c * c
    if not (a > 0.0 and det > 0.0):
        raise ValidationError("covariance matrix must be positive definite")
    noise = (1.0 - eta_d) * v_d + 1.0
    outcome = eta_d * b + noise
    measured = _symplectic_pair(
        abs(eta_d * (1.0 - det) + noise * (b - a)) / outcome,
        (det * noise + eta_d * a) / outcome,
    )
    return spectrum_entropy(_symplectic_pair(abs(a - b), det)) - spectrum_entropy(measured)


def holevo_untrusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users assigned to the eavesdropper.

    The bound is read on the reduced state (A, Bk): a, b and c are the
    entries (0, 0), (k+1, k+1) and (0, k+1) of the channel output's x block,
    and `_two_mode_holevo` evaluates them in closed form.
    """
    _check_user(params, k)
    gamma = build_channel_output_cm(params).matrix
    i = 2 * (k + 1)
    receiver = trusted_receiver(params.detector_efficiency, params.trusted_noise(k))
    a, c = gamma[0, [0, i]].tolist()
    return _two_mode_holevo(a, gamma[i, i].item(), c, *receiver)


def holevo_trusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users excluded from the eavesdropper:
    S(global) - S(global after user k's trusted measurement).  User k sits
    at position k + 1 of the channel output (A, B1..BM), and the state
    after its measurement is read on its quadrature blocks."""
    _check_user(params, k)
    cm = build_channel_output_cm(params)
    receiver = trusted_receiver(params.detector_efficiency, params.trusted_noise(k))
    x, p = measure_reference_user(cm.matrix[0::2, 0::2], cm.matrix[1::2, 1::2], k + 1, *receiver)
    return von_neumann_entropy(cm) - spectrum_entropy(block_spectrum(x, p).tolist())


def holevo_collaborative(params: NetworkParams, k: int) -> float:
    """Holevo bound after conditioning on all other users' disclosed outcomes.

    Assisting receivers are applied as untrusted maps, all in one step:
    each scales its mode's rows and columns by sqrt(eta_d) and adds
    (1 - eta_d) + nu_el to its diagonal, so the disclosed data carry the
    receiver's loss and noise but nothing is purified for them.  The state
    is then conditioned jointly on their heterodyne outcomes, which leaves
    the two-mode state (A, Bk) for `_two_mode_holevo`.  The reference user's
    own receiver stays trusted.

    Only the (M+1) x (M+1) x block is conditioned.  Every state the builder
    makes has p block P = D X D with D = diag(-1, 1, ..., 1): only Alice's
    cross entries change sign.  Receivers and heterodyne conditioning on user
    modes keep that form, so the conditioned p block is [[a, -c], [-c, b]].
    """
    if params.n_users == 1:
        return holevo_untrusted(params, k)
    _check_user(params, k)
    others = [j for j in range(params.n_users) if j != k]
    rows = 2 * np.array([0, k + 1] + [j + 1 for j in others])  # x rows of A, Bk, the others
    x = build_channel_output_cm(params).matrix[rows[:, None], rows]
    eta_d = params.detector_efficiency
    cross = math.sqrt(eta_d) * x[:2, 2:]
    outcome = eta_d * x[2:, 2:] + np.diag(
        [(1.0 - eta_d) + params.trusted_noise(j) + 1.0 for j in others]
    )
    (a, c01), (c10, b) = (x[:2, :2] - cross @ np.linalg.solve(outcome, cross.T)).tolist()
    receiver = trusted_receiver(params.detector_efficiency, params.trusted_noise(k))
    return _two_mode_holevo(a, b, (c01 + c10) / 2.0, *receiver)


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
    _check_user(params, k)
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
