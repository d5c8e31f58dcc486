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
reference user's own measurement, behind a trusted receiver of efficiency
eta_d and electronic noise nu_el (`receiver_map`) in every interpretation.
`measure_reference_user_blocks` does that measurement in one closed-form
step on the x blocks of a stack of states (P = J X J, `quadrature_signs`, is
formed only where a spectrum is taken), each member measuring its own mode
behind its own receiver and keeping one ancilla.  The trusted bound of user
k is chi({k}) = S(sigma_0) - S(sigma_{k}) of `CoalitionValues`, the
coalition set function the decomposition reads too, keyed by user bitmask.
A `CoalitionValues` is measured once, at construction, from its orders.
Per network state, the M singleton orders are one stacked step from the
channel output and one `block_entropies` call.  S(sigma_0) is the spectrum
the builder's physicality check already took.  The untrusted and
collaborative bounds are read on a two-mode state (A, Bk) with x block
[[a, c], [c, b]], where chi is a closed form in the scalars a, b, c, eta_d
and the receiver's added noise N = 2 - eta_d + nu_el (`_two_mode_holevo`;
Lodewyck et al., PRA 76, 042305 (2007)), with a, b and c read as floats
from the builder's state, the one place that states the X entries.
Conditioning (A, Bk) on the other users' outcomes is rank one, so the
collaborative pair is
(a - (a + 1) f, b - V_mod eta_k f, c (1 - f)) with f = Sigma_O / (1 + Sigma_O),
Sigma_O their outcome SNR sum.  Mutual information is log2(1 + sum_k snr_k),
snr_k = V_mod g_k^2 / N_k, of the classical outcome model; the M models
and their SNRs are `NetworkParams.outcome_models` and `.snrs`, taken at
construction, which `derive_worst_case` and the simulator's
`classical_outcome_cov` read too.  `key_rate` reads I through
`_conditional_information`, the one formula behind `mutual_information`,
with each user index checked once per public call, and reports as
`params_used` the `links` its evaluated `NetworkParams` took at
construction.

`derive_worst_case` places the model-implied corner with the same
`worst_case_params` as block estimates.  A zero-transmittance link carries
no information about Alice's symbols, so its rates clamp to 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .gaussian import CovarianceMatrix, block_entropies, spectrum_entropy, von_neumann_entropy
from .network import (
    NetworkParams,
    ReceiverMap,
    build_channel_output_cm,
    check_block_size,
    quadrature_signs,
    receiver_map,
    receiver_noise,
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
    check_block_size(block_size)
    return 7.0 * math.sqrt(math.log2(2e10) / block_size)


MODES = ("finite", "asymptotic")  # with and without the Delta(N) penalty


def _mode_delta(params: NetworkParams, mode: str) -> float:
    """Delta(N) of one user in "finite" mode, 0 in "asymptotic" mode."""
    if mode not in MODES:
        raise ValidationError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    return delta_fs(params.block_size) if mode == "finite" else 0.0


def _outcome_information(snrs: Iterable[float]) -> float:
    """I(A : y_users) = log2(1 + sum_{k in users} snr_k) in bits per use,
    given the users' SNRs.

    The outcome covariance of (s, y_1, ..., y_M) is V_mod g g^T + diag(N)
    with g_0 = 1, N_0 = 0 (`classical_outcome_cov`); by the matrix
    determinant lemma, det(Sigma_yy) / det(Sigma_yy|s) = 1 + V_mod
    sum g_k^2 / N_k.  The two quadratures contribute identical halves, so
    one quadrature's ratio is the information per channel use.
    """
    return math.log2(1.0 + math.fsum(snrs))


def mutual_information(
    params: NetworkParams, k: int, conditioned_on: Iterable[int] = ()
) -> float:
    """I(A : y_k | y_cond) = I(A : y_cond + {k}) - I(A : y_cond), bits per use."""
    k = params.check_user(k)
    cond = {params.check_user(j) for j in conditioned_on}
    if k in cond:
        raise ValidationError(f"user {k} cannot condition on itself")
    return _conditional_information(params.snrs, k, cond)


def _conditional_information(snrs: Sequence[float], k: int, cond: Iterable[int]) -> float:
    """`mutual_information` from the users' SNRs, for checked user indices:
    k, and the distinct users `cond`, none of them k."""
    # I(A : no users) = log2 1 = 0, and fsum is exactly rounded in any order
    conditioned = [snrs[j] for j in cond]
    return _outcome_information(conditioned + [snrs[k]]) - _outcome_information(conditioned)


def measure_reference_user_blocks(
    x: np.ndarray, index: np.ndarray, eta_d: float | np.ndarray, receiver: ReceiverMap
) -> np.ndarray:
    """X blocks retained after a reference user's measurement, for a stack of
    states with P = J X J (`quadrature_signs`): member b, held as its x block
    x[b], heterodynes its mode index[b] behind its own trusted receiver of
    efficiency eta_d[b], whose `receiver_map` is entry b of each field of
    `receiver` (a scalar eta_d or field serves every member), in one
    closed-form step.  That is the map of
    `condition_on_heterodyne(attach_trusted_detector(...))` without forming
    the extended state, less the ancilla D2, which that leaves in vacuum
    (`receiver_map`).  With the mode's entry w, its cross column C with the
    other modes O and the outcome variance a = eta_d w + N, the retained
    modes (O, D1) have the block
        [[X_O - eta_d C C^T / a, -2 s ru C / a], [., (N w + eta_d) / a]].
    P obeys the same formula, the measured mode is never Alice's and D1
    joins last with sign +1, so the result keeps P = J X J.  The arithmetic
    is member by member, so a member's result does not depend on the rest
    of the stack.  Returns the (B, n, n) x blocks of the retained modes: the
    other modes in order, then D1.
    """
    members = np.arange(len(index))
    n = x.shape[-1]
    o = n - 1
    keep = np.arange(n) != index[:, None]  # the other modes of each member
    kept = keep[:, :, None] & keep[:, None, :]
    w = x[members, index, index]
    outcome = eta_d * w + receiver.noise
    cross = x[members, :, index][keep].reshape(-1, o)
    scaled = (receiver.t / np.sqrt(outcome))[:, None] * cross
    retained = np.empty((len(index), n, n))
    retained[:, :o, :o] = x[kept].reshape(-1, o, o) - scaled[:, :, None] * scaled[:, None, :]
    retained[:, :o, o] = retained[:, o, :o] = (
        (-2.0 * receiver.s * receiver.ru / outcome)[:, None] * cross
    )
    retained[:, o, o] = (receiver.noise * w + eta_d) / outcome
    return retained


class CoalitionValues:
    """The set function v(S) = beta * I(A : y_S) - chi(S) of one network
    state, chi(S) = S(sigma_0) - S(sigma_S), measured once, at construction,
    on the prefix coalitions of the orders it serves.

    sigma_S is the retained system (Alice, the users outside S and the
    trusted-receiver ancillae of those in S) conditioned on the outcomes y_S
    of the users in S.  S is keyed by its bitmask, bit k for user k, so a
    prefix grows as S | 1 << k.  The trusted bound of user k is chi(1 << k)
    of the M singleton orders; the decomposition tables read the rest of the
    lattice.  The caller passes the channel output of `params` it holds, so
    both paths share one state.

    `terms` maps each coalition measured to (I(A : y_S), S(sigma_S)),
    `chains` holds each order's prefix coalitions, and `values` reads v of a
    table of coalitions in one array step.
    """

    def __init__(
        self,
        params: NetworkParams,
        channel_output: CovarianceMatrix,
        orders: Iterable[Sequence[int]],
    ):
        """Measure every prefix coalition of `orders`, of checked user indices.

        The layers (coalition sizes) are built up from the channel output,
        each coalition measured from the prefix it first follows; only the
        layer being measured from is held, as its (B, n, n) x blocks.  A
        layer is one stacked step in which every member measures its own
        mode behind its own receiver, each user's receiver built once here.
        A measured mode leaves the state and its ancilla goes last, so user k
        sits at its channel-output position k + 1 in (A, B1..BM) less the
        measured users before it.
        """
        self.params = params
        m = params.n_users
        layers = [{} for _ in range(m)]  # by size - 1: S -> (parent, k)
        self.chains = []
        for order in orders:
            parent, chain = 0, [0]
            for size, k in enumerate(order):  # a repeat raises before size reaches M
                grown = parent | 1 << k
                if grown == parent:
                    raise ValidationError(f"user {k} cannot join the coalition {set(order[:size])}")
                layers[size].setdefault(grown, (parent, k))
                chain.append(grown)
                parent = grown
            self.chains.append(chain)
        eta_d = params.detector_efficiency  # shared, so its t = sqrt(eta_d) is one scalar
        receivers = receiver_map(eta_d, np.array([params.trusted_noise(k) for k in range(m)]))
        signs = quadrature_signs(m + 1)  # every layer keeps M + 1 modes
        self.terms = {0: (0.0, von_neumann_entropy(channel_output))}
        x = channel_output.matrix[None, 0::2, 0::2]
        position, summands = {0: 0}, [()]  # of the layer below: each member's row; SNRs by row
        for layer in filter(None, layers):
            parents = [position[parent] for parent, _ in layer.values()]
            joining = [k for _, k in layer.values()]
            index = [k + 1 - (parent & ((1 << k) - 1)).bit_count() for parent, k in layer.values()]
            receiver = ReceiverMap(receivers.t, *(field[joining] for field in receivers[1:]))
            x = measure_reference_user_blocks(x[parents], np.array(index), eta_d, receiver)
            summands = [summands[i] + (params.snrs[k],) for i, k in zip(parents, joining)]
            entropies = block_entropies(x, x * signs).tolist()
            for grown, carried, entropy in zip(layer, summands, entropies):
                self.terms[grown] = (_outcome_information(carried), entropy)
            position = {grown: i for i, grown in enumerate(layer)}

    def holevo(self, coalition: int) -> float:
        """chi(S) = S(sigma_0) - S(sigma_S)."""
        return self.terms[0][1] - self.terms[coalition][1]

    def values(self, coalitions: Sequence[Sequence[int]]) -> np.ndarray:
        """v(S) = beta * I(A : y_S) - chi(S) of a table of measured
        coalitions, rows of one length, as one (rows, length) array."""
        position = {coalition: i for i, coalition in enumerate(self.terms)}
        info, entropy = np.array(list(self.terms.values())).T
        v = self.params.beta * info - (self.terms[0][1] - entropy)
        return v[[position[c] for row in coalitions for c in row]].reshape(len(coalitions), -1)


@functools.lru_cache(maxsize=16)
def _singletons(params: NetworkParams, channel_output: CovarianceMatrix) -> CoalitionValues:
    """`CoalitionValues` of one network state on the M singleton orders: one
    stacked measurement step and one `block_entropies` call for all M users.
    Keyed on the state the caller holds (hashed by identity), so it builds
    no state itself."""
    return CoalitionValues(params, channel_output, [(k,) for k in range(params.n_users)])


def _symplectic_pair(split: float, product: float) -> tuple[float, float]:
    """(nu_+, nu_-) from nu_+ - nu_- = split >= 0 and nu_+ nu_- = product > 0."""
    larger = (math.sqrt(split * split + 4.0 * product) + split) / 2.0
    return larger, product / larger


def _two_mode_holevo(a: float, b: float, c: float, eta_d: float, noise: float) -> float:
    """S(A, B) - S(A, D1, D2 | y_B) in bits for the two-mode state with x block
    [[a, c], [c, b]] (and P = J X J), B heterodyned behind a trusted receiver
    of efficiency eta_d and added noise N = `noise` (`receiver_noise`), so
    with outcome variance s = eta_d b + N.

    With det = ab - c^2, the spectrum before the measurement has
    nu_+ nu_- = det and nu_+ - nu_- = |a - b|, so nu_+^2 + nu_-^2 =
    a^2 + b^2 - 2c^2 (Weedbrook et al., RMP 84, 621 (2012)).  The conditional
    state is `measure_reference_user_blocks` with O = {A}, the pair (A, D1) with
    x block [[a - eta_d c^2 / s, -2 s' ru c / s], [., (N b + eta_d) / s]]
    (s' the receiver's s), where the same two relations reduce to
        lambda_3 lambda_4 = (det N + eta_d a) / s,
        |lambda_3 - lambda_4| = |eta_d (1 - det) + N (b - a)| / s,
    which keep full precision when the two are close (a nearly pure state,
    where both tend to 1).  ab - c^2 <= 0 or a <= 0 raises ValidationError;
    the spectra are checked and clamped by `spectrum_entropy`.
    """
    det = a * b - c * c
    if not (a > 0.0 and det > 0.0):
        raise ValidationError("covariance matrix must be positive definite")
    outcome = eta_d * b + noise
    measured = _symplectic_pair(
        abs(eta_d * (1.0 - det) + noise * (b - a)) / outcome,
        (det * noise + eta_d * a) / outcome,
    )
    return spectrum_entropy(_symplectic_pair(abs(a - b), det)) - spectrum_entropy(measured)


def _conditioned_pair_holevo(params: NetworkParams, k: int, f: float) -> float:
    """`_two_mode_holevo` of the pair (A, Bk) conditioned with the fraction f
    of `holevo_collaborative` (f = 0: not conditioned): a - (a + 1) f,
    b - V_mod eta_k f and c (1 - f), where a, b and c are the entries (0, 0),
    (k+1, k+1) and (0, k+1) of the channel output's x block."""
    params.check_user(k)
    gamma = build_channel_output_cm(params).matrix
    i = 2 * (k + 1)
    eta_d = params.detector_efficiency
    a, b, c = gamma.item(0, 0), gamma.item(i, i), gamma.item(0, i)
    return _two_mode_holevo(
        a - (a + 1.0) * f,
        b - params.modulation_variance * params.users[k].transmittance * f,
        c * (1.0 - f),
        eta_d,
        receiver_noise(eta_d, params.trusted_noise(k)),
    )


def holevo_untrusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users assigned to the eavesdropper: the
    closed form `_two_mode_holevo` on the reduced state (A, Bk), with nothing
    conditioned."""
    return _conditioned_pair_holevo(params, k, 0.0)


def holevo_trusted(params: NetworkParams, k: int) -> float:
    """Holevo bound with all other users excluded from the eavesdropper:
    chi({k}) = S(sigma_0) - S(sigma_{k}), the entropy the global state
    (A, B1..BM) loses when user k alone measures behind its trusted
    receiver.  Read from the singleton layer of `CoalitionValues`, which is
    evaluated once per network state for all M users."""
    k = params.check_user(k)
    return _singletons(params, build_channel_output_cm(params)).holevo(1 << k)


def holevo_collaborative(params: NetworkParams, k: int) -> float:
    """Holevo bound after conditioning on all other users' disclosed outcomes.

    Assisting receivers are applied as untrusted maps: each scales its
    mode's rows and columns by sqrt(eta_d), and its outcome variance is
    eta_d W + N with the N of `receiver_noise`, so the disclosed data carry
    the receiver's loss and noise but nothing is purified for them.  The
    reference user's own receiver stays trusted.

    With g_j = sqrt(eta_j), the others' outcome x block is
    D + eta_d V_mod g g^T with D_j = eta_d (1 + eps_j) + N_j, and its cross
    block to (A, Bk) is sqrt(eta_d) u g^T with u = (sqrt(V^2 - 1),
    sqrt(eta_k) V_mod): rank one.  By Sherman-Morrison,
    g^T (D + eta_d V_mod g g^T)^-1 g = q / (1 + eta_d V_mod q) with
    q = sum_j eta_j / D_j, and eta_d V_mod q = Sigma_O = sum_{j != k} snr_j,
    the other users' outcome SNR sum.  So conditioning subtracts
    u u^T f / V_mod with f = Sigma_O / (1 + Sigma_O): (a, b, c) of the
    unconditioned pair become (a - (a + 1) f, b - V_mod eta_k f, c (1 - f)),
    and f = 0, the untrusted bound, when no other user sees the signal.
    """
    others = math.fsum([snr for j, snr in enumerate(params.snrs) if j != k])
    return _conditioned_pair_holevo(params, k, others / (1.0 + others))


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
    if not isinstance(trust, TrustModel):
        raise ValidationError(f"trust must be a TrustModel, got {trust!r}")
    delta = _mode_delta(params, mode)
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
    k = params.check_user(k)  # reported as an int
    if trust is TrustModel.COLLABORATIVE:
        conditioned = [j for j in range(eval_params.n_users) if j != k]
    else:
        conditioned = []
    info = _conditional_information(eval_params.snrs, k, conditioned)
    chi = _HOLEVO[trust](eval_params, k)
    raw = params.beta * info - chi - delta
    # positional, in field order: keyword arguments add 40% to the construction
    return KeyRateReport(
        k, trust, info, chi, delta, max(0.0, raw), raw <= 0.0, eval_params.links, source
    )


def derive_worst_case(params: NetworkParams) -> NetworkParams:
    """Model-implied confidence-region corner (eta_min, eps_max per user).

    Treats the outcome model of the given parameters as maximum-likelihood
    estimates from a block of `params.block_size` symbols and returns
    `worst_case_params` at their regions.  Used when no measured confidence
    region is available.
    """
    report = EstimateReport.from_estimates(params, params.outcome_models, float(params.block_size))
    return worst_case_params(params, report)


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
        key_rate(params, trust, k, mode, worst_case)
        for k in users
        for trust in trusts
    ]
