"""Independent oracles used to cross-check the production code paths.

Everything here deliberately avoids the package's builders: covariance
matrices are assembled by explicit symplectic composition, eigenvalues by
closed two-mode formulas or a Hermitian eigenproblem, mutual information by
Monte-Carlo sampling or from heterodyne outcome covariances, and single-link
rates by the textbook closed form.  The exception is `measure_reference_user`,
the package's closed-form measurement step written for one state: it is the
reference the stacked step is checked against member by member.
"""

from __future__ import annotations

import numpy as np

from cvqnet import NetworkParams
from cvqnet.network import receiver_map

I2 = np.eye(2)
SZ = np.diag([1.0, -1.0])


def epr_cm(v: float) -> np.ndarray:
    c = np.sqrt(v * v - 1.0)
    return np.block([[v * I2, c * SZ], [c * SZ, v * I2]])


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size))
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def beamsplitter(n_modes: int, i: int, j: int, transmittance: float) -> np.ndarray:
    s = np.eye(2 * n_modes)
    c, r = np.sqrt(transmittance), np.sqrt(1.0 - transmittance)
    s[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = c * I2
    s[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = r * I2
    s[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = -r * I2
    s[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = c * I2
    return s


def brute_force_network_cm(
    v_mod: float,
    eta_fiber: float,
    fractions: np.ndarray,
    eta_last: np.ndarray,
    excess: np.ndarray,
    gs_seed: int = 0,
) -> np.ndarray:
    """Alice + M outputs by explicit composition.

    EPR source -> fiber loss -> 1:M splitter (orthonormal columns, completed
    by Gram-Schmidt) -> per-branch loss -> additive excess noise at output.
    Returns the (A, B_1..B_M) covariance in splitter-branch order.
    """
    m = len(fractions)
    v = v_mod + 1.0
    n = 2 + 1 + (m - 1) + m  # A, S, fiber vacuum, splitter vacua, last-mile vacua
    gamma = direct_sum(epr_cm(v), np.eye(2 * (n - 2)))

    bs = beamsplitter(n, 1, 2, eta_fiber)
    gamma = bs @ gamma @ bs.T

    branch_modes = [1] + [3 + i for i in range(m - 1)]
    ortho = np.zeros((m, m))
    ortho[:, 0] = np.sqrt(fractions)
    rng = np.random.default_rng(gs_seed)
    for j in range(1, m):
        vec = rng.normal(size=m)
        for i in range(j):
            vec -= (vec @ ortho[:, i]) * ortho[:, i]
        ortho[:, j] = vec / np.linalg.norm(vec)
    splitter = np.eye(2 * n)
    for a in range(m):
        for b in range(m):
            ia, ib = branch_modes[a], branch_modes[b]
            splitter[2 * ia : 2 * ia + 2, 2 * ib : 2 * ib + 2] = ortho[a, b] * I2
    gamma = splitter @ gamma @ splitter.T

    first_vac = 3 + (m - 1)
    for k in range(m):
        bs = beamsplitter(n, branch_modes[k], first_vac + k, eta_last[k])
        gamma = bs @ gamma @ bs.T
    for k in range(m):
        i = branch_modes[k]
        gamma[2 * i, 2 * i] += excess[k]
        gamma[2 * i + 1, 2 * i + 1] += excess[k]

    keep = [0] + branch_modes
    rows = np.concatenate([[2 * i, 2 * i + 1] for i in keep])
    return gamma[np.ix_(rows, rows)]


def two_mode_squeezer(n_modes: int, i: int, j: int, gain: float) -> np.ndarray:
    """Two-mode squeezer of gain G >= 1 on modes i and j: i -> sqrt(G) i +
    sqrt(G - 1) j*, so a vacuum j adds G - 1 to the variance of i."""
    s = np.eye(2 * n_modes)
    c, r = np.sqrt(gain), np.sqrt(gain - 1.0)
    for a, b in ((i, j), (j, i)):
        s[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = c * I2
        s[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = r * SZ
    return s


def two_mode_symplectic_eigenvalues(gamma: np.ndarray) -> tuple[float, float]:
    """Closed-form nu+- for a two-mode covariance in block form."""
    a = gamma[0:2, 0:2]
    b = gamma[2:4, 2:4]
    c = gamma[0:2, 2:4]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2 * np.linalg.det(c)
    det = np.linalg.det(gamma)
    root = np.sqrt(max(delta * delta - 4 * det, 0.0))
    nu_plus = np.sqrt((delta + root) / 2.0)
    nu_minus = np.sqrt(max((delta - root) / 2.0, 0.0))
    return float(nu_plus), float(nu_minus)


def mc_mutual_information(params: NetworkParams, k: int, n: int, seed: int) -> float:
    """Monte-Carlo estimate of I(A : y_k) from empirical variances."""
    from cvqnet import measured_outcome_model

    rng = np.random.default_rng(seed)
    model = measured_outcome_model(params, k)
    info = 0.0
    for _ in range(2):  # both quadratures, independent draws
        s = rng.normal(0.0, np.sqrt(params.modulation_variance), n)
        y = model.gain * s + rng.normal(0.0, np.sqrt(model.noise_variance), n)
        var_y = y.var()
        cov_sy = np.cov(s, y)[0, 1]
        var_cond = var_y - cov_sy**2 / s.var()
        info += 0.5 * np.log2(var_y / var_cond)
    return float(info)


# --- Four-user rate oracle -------------------------------------------------
#
# A second evaluation of the documented key-rate model, assembled from the
# pieces above and plain numpy: the network state from explicit composition,
# each trusted receiver as an explicit bounded dilation, assisting receivers
# as the documented eta_d + nu_el map, heterodyne conditioning as a Schur
# complement, symplectic spectra from a Hermitian eigenproblem, and mutual
# information from the heterodyne outcomes of the entanglement-based picture.

OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class _State:
    """Covariance matrix plus the name of the mode at each position."""

    def __init__(self, gamma: np.ndarray, labels: list[str]):
        self.gamma, self.labels = gamma, list(labels)

    def rows(self, labels) -> list[int]:
        modes = [self.labels.index(l) for l in labels]
        return [q for i in modes for q in (2 * i, 2 * i + 1)]

    def sub(self, labels) -> np.ndarray:
        r = self.rows(labels)
        return self.gamma[np.ix_(r, r)]


def _network_state(params: NetworkParams) -> _State:
    """(A, B1..BM) from `brute_force_network_cm`: the whole transmittance is
    fiber loss, split by T_k / sum(T), with lossless last miles."""
    t = np.array([u.transmittance for u in params.users])
    gamma = brute_force_network_cm(
        params.modulation_variance,
        float(t.sum()),
        t / t.sum(),
        np.ones(len(t)),
        np.array([u.excess_noise for u in params.users]),
    )
    return _State(gamma, ["A"] + [f"B{k + 1}" for k in range(len(t))])


def _purify(state: _State, label: str, eta_d: float, nu_el: float) -> _State:
    """Trusted receiver on `label` as a dilation on three vacua D1, D2, D3:
    a beamsplitter of transmittance eta_d with D1, a two-mode squeezer of
    gain G = 1/(1 - nu_el/2) with D2, and a beamsplitter of transmittance
    1/G with D3.  The mode's variance W becomes
    eta_d W + (1 - eta_d) + 2 (1 - 1/G) = eta_d W + (1 - eta_d) + nu_el, and
    every coefficient stays bounded up to eta_d = 1 (nu_el < 2)."""
    n = len(state.labels)
    i = state.labels.index(label)
    gain = 1.0 / (1.0 - nu_el / 2.0)
    gamma = direct_sum(state.gamma, np.eye(6))
    for op in (beamsplitter(n + 3, i, n, eta_d), two_mode_squeezer(n + 3, i, n + 1, gain),
               beamsplitter(n + 3, i, n + 2, 1.0 / gain)):
        gamma = op @ gamma @ op.T
    return _State(gamma, state.labels + [f"D{a}_{label}" for a in (1, 2, 3)])


def _purify_and_measure(state: _State, label: str, eta_d: float, nu_el: float) -> _State:
    """Trusted receiver on `label`, then heterodyne of `label`."""
    return _heterodyne(_purify(state, label, eta_d, nu_el), [label])


def _assisting_receiver(state: _State, label: str, eta_d: float, nu_el: float) -> _State:
    """Untrusted receiver map: Gamma -> eta_d Gamma + (1 - eta_d + nu_el) on `label`."""
    scale = np.ones(state.gamma.shape[0])
    rows = state.rows([label])
    scale[rows] = np.sqrt(eta_d)
    gamma = state.gamma * np.outer(scale, scale)
    gamma[rows, rows] += 1.0 - eta_d + nu_el
    return _State(gamma, state.labels)


def _heterodyne(state: _State, measured: list[str]) -> _State:
    """Schur complement Gamma_R - C (Gamma_M + I)^-1 C^T."""
    kept = [l for l in state.labels if l not in measured]
    r, m = state.rows(kept), state.rows(measured)
    g = state.gamma
    c = g[np.ix_(r, m)]
    cond = g[np.ix_(r, r)] - c @ np.linalg.solve(g[np.ix_(m, m)] + np.eye(len(m)), c.T)
    return _State((cond + cond.T) / 2.0, kept)


def hermitian_symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues (ascending): the positive half of the spectrum of
    the Hermitian i L^T Omega L, where Gamma = L L^T."""
    n = gamma.shape[0] // 2
    chol = np.linalg.cholesky(gamma)
    ev = np.linalg.eigvalsh(1j * chol.T @ np.kron(np.eye(n), OMEGA1) @ chol)
    return ev[n:]


def measure_reference_user(
    x: np.ndarray, p: np.ndarray, index: int, eta_d: float, nu_el: float
) -> tuple[np.ndarray, np.ndarray]:
    """`cvqnet.keyrates.measure_reference_user_blocks` for one state, given as
    its (n, n) quadrature blocks x and p, written out with the same rounding.

    Heterodynes mode `index` behind the trusted receiver (eta_d, nu_el) of
    `receiver_map`.  In either quadrature, with block Q, the mode's entry w,
    its cross column C with the other modes O and the outcome variance
    a = eta_d w + N, the retained modes (O, D1) have the block
        [[Q_O - eta_d C C^T / a, -2 s ru C / a], [., (N w + eta_d) / a]].
    Returns the (n, n) blocks: the other modes in order, then D1.
    """
    receiver = receiver_map(eta_d, nu_el)
    o = len(x) - 1
    others = np.arange(o)
    others[index:] += 1
    out = []
    for block in (x, p):
        w = block[index, index]
        outcome = eta_d * w + receiver.noise
        cross = block[others, index]
        scaled = (receiver.t / np.sqrt(outcome)) * cross
        retained = np.empty((o + 1, o + 1))
        retained[:o, :o] = block[others[:, None], others] - np.outer(scaled, scaled)
        retained[:o, o] = retained[o, :o] = (-2.0 * receiver.s * receiver.ru / outcome) * cross
        retained[o, o] = (receiver.noise * w + eta_d) / outcome
        out.append(retained)
    return out[0], out[1]


def _g(x: float) -> float:
    return 0.0 if x <= 0.0 else (x + 1.0) * np.log2(x + 1.0) - x * np.log2(x)


def _entropy(gamma: np.ndarray) -> float:
    nu = hermitian_symplectic_spectrum(gamma)
    if nu[0] < 1.0 - 1e-9:
        raise ValueError(f"unphysical state, min symplectic eigenvalue {nu[0]}")
    return float(sum(_g((v - 1.0) / 2.0) for v in nu))


def _outcome_logdet(params: NetworkParams):
    """log det of the covariance of the joint heterodyne outcomes (both
    quadratures) of the given modes, every user behind their own receiver.
    A heterodyne outcome of modes with covariance Gamma has covariance
    (Gamma + I) / 2."""
    state = _network_state(params)
    for j in range(params.n_users):
        state = _assisting_receiver(
            state, f"B{j + 1}", params.detector_efficiency, params.trusted_noise(j)
        )

    def logdet(labels) -> float:
        if not labels:
            return 0.0
        cov = (state.sub(labels) + np.eye(2 * len(labels))) / 2.0
        return np.linalg.slogdet(cov)[1]

    return logdet


def _outcome_information(params: NetworkParams, k: int, given: list[int]) -> float:
    """I(A : y_k | y_given) in bits from the joint heterodyne outcomes of Alice
    and the users."""
    logdet = _outcome_logdet(params)
    y = [f"B{j + 1}" for j in given]
    yk = [f"B{k + 1}"]
    nats = logdet(["A"] + y) + logdet(yk + y) - logdet(["A"] + yk + y) - logdet(y)
    return float(nats / 2.0 / np.log(2.0))


def _joint_information(params: NetworkParams) -> float:
    """I(A : y_1, ..., y_M) in bits from the joint heterodyne outcomes."""
    logdet = _outcome_logdet(params)
    y = [f"B{j + 1}" for j in range(params.n_users)]
    nats = logdet(["A"]) + logdet(y) - logdet(["A"] + y)
    return float(nats / 2.0 / np.log(2.0))


def oracle_delta(block_size: float) -> float:
    """Finite-size penalty 7 sqrt(log2(2 / 1e-10) / N)."""
    return 7.0 * np.sqrt(np.log2(2.0 / 1e-10) / block_size)


def oracle_rates(params: NetworkParams) -> dict[str, list[float]]:
    """Unclamped finite-size rate beta I - chi - Delta of every user, keyed by
    trust model name ("untrusted", "collaborative", "trusted")."""
    eta_d, m = params.detector_efficiency, params.n_users
    delta = oracle_delta(params.block_size)
    out: dict[str, list[float]] = {"untrusted": [], "collaborative": [], "trusted": []}
    for k in range(m):
        bk, nu_k = f"B{k + 1}", params.trusted_noise(k)
        others = [j for j in range(m) if j != k]
        network = _network_state(params)

        reduced = _State(network.sub(["A", bk]), ["A", bk])
        after = _purify_and_measure(reduced, bk, eta_d, nu_k)
        chi_untrusted = _entropy(reduced.gamma) - _entropy(after.gamma)

        after = _purify_and_measure(network, bk, eta_d, nu_k)
        chi_trusted = _entropy(network.gamma) - _entropy(after.gamma)

        assisted = network
        for j in others:
            assisted = _assisting_receiver(assisted, f"B{j + 1}", eta_d, params.trusted_noise(j))
        if others:
            assisted = _heterodyne(assisted, [f"B{j + 1}" for j in others])
        after = _purify_and_measure(assisted, bk, eta_d, nu_k)
        chi_collaborative = _entropy(assisted.gamma) - _entropy(after.gamma)

        info = _outcome_information(params, k, [])
        info_given_others = _outcome_information(params, k, others)
        out["untrusted"].append(params.beta * info - chi_untrusted - delta)
        out["trusted"].append(params.beta * info - chi_trusted - delta)
        out["collaborative"].append(params.beta * info_given_others - chi_collaborative - delta)
    return out


def oracle_decomposition(params: NetworkParams, order: tuple[int, ...]) -> list[float]:
    """Chain-rule contributions beta I(A : y_k | earlier) - [S(sigma_prev) -
    S(sigma_k)] - Delta along `order`, each user measured behind a trusted
    (purified) receiver whose ancillae stay in the retained system."""
    delta = oracle_delta(params.block_size)
    state = _network_state(params)
    entropy = _entropy(state.gamma)
    contributions = []
    for pos, k in enumerate(order):
        state = _purify_and_measure(
            state, f"B{k + 1}", params.detector_efficiency, params.trusted_noise(k)
        )
        entropy_after = _entropy(state.gamma)
        info = _outcome_information(params, k, list(order[:pos]))
        contributions.append(params.beta * info - (entropy - entropy_after) - delta)
        entropy = entropy_after
    return contributions


def oracle_joint_rate(params: NetworkParams, mode: str = "finite") -> float:
    """Joint rate beta I(A : all) - chi - M Delta in one shot: every trusted
    receiver purified, then all users heterodyned in one Schur complement."""
    state = _network_state(params)
    entropy = _entropy(state.gamma)
    users = [f"B{k + 1}" for k in range(params.n_users)]
    for k, label in enumerate(users):
        state = _purify(state, label, params.detector_efficiency, params.trusted_noise(k))
    chi = entropy - _entropy(_heterodyne(state, users).gamma)
    delta = oracle_delta(params.block_size) if mode == "finite" else 0.0
    return params.beta * _joint_information(params) - chi - params.n_users * delta


def lodewyck_untrusted_rate(
    v_mod: float, t: float, eps_out: float, eta_d: float, nu_el: float, beta: float, n: float
) -> float:
    """Textbook single-link heterodyne rate with a trusted receiver (Lodewyck et
    al., PRA 76, 042305 (2007)), in this package's conventions: output-referred
    excess noise eps_out (xi = eps_out / t) and receiver noise
    chi_het = (2 - eta_d + nu_el) / eta_d.  The fifth conditional symplectic
    eigenvalue is 1 under heterodyne and drops out.  Unclamped, with the
    finite-size penalty of `oracle_delta`."""
    v = v_mod + 1.0
    chi_line = 1.0 / t - 1.0 + eps_out / t
    chi_het = (2.0 - eta_d + nu_el) / eta_d
    chi_tot = chi_line + chi_het / t
    info = np.log2((v + chi_tot) / (1.0 + chi_tot))

    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + chi_line) ** 2
    b = t * t * (v * chi_line + 1.0) ** 2
    root = np.sqrt(a * a - 4.0 * b)
    lam12 = np.sqrt([(a + root) / 2.0, (a - root) / 2.0])
    denom = t * (v + chi_tot)
    c = (
        a * chi_het**2
        + b
        + 1.0
        + 2.0 * chi_het * (v * np.sqrt(b) + t * (v + chi_line))
        + 2.0 * t * (v * v - 1.0)
    ) / denom**2
    d = ((v + np.sqrt(b) * chi_het) / denom) ** 2
    root = np.sqrt(c * c - 4.0 * d)
    lam34 = np.sqrt([(c + root) / 2.0, (c - root) / 2.0])
    chi = sum(_g((x - 1.0) / 2.0) for x in lam12) - sum(_g((x - 1.0) / 2.0) for x in lam34)
    return float(beta * info - chi - oracle_delta(n))


def precise_coalition_terms(params: NetworkParams, coalitions, dps: int = 50) -> dict:
    """(I(A : y_S), S(sigma_S)) in bits of each coalition S (a set of 0-based
    users) to `dps` significant digits, with mpmath.

    The channel output's x block is assembled from its documented entries
    and its p block mirrors Alice's cross entries.  The users of S are
    measured in ascending order, each behind a receiver purified by an EPR
    pair of variance 1 + nu_el / (1 - eta_d) on a beamsplitter of
    transmittance eta_d, then heterodyned as a Schur
    complement per quadrature.  Spectra are sqrt(eig(L^T P L)) with X = L L^T.
    At eta_d = 1 the purification diverges, so the limit is taken at
    eta_d = 1 - 1e-20 with 90 digits.  I(A : y_S) is log2(1 + sum_k snr_k) of
    the outcome models.  mpmath is imported here only, so importing this
    module does not load it.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(max(dps, 90) if params.detector_efficiency == 1.0 else dps):
        eta_d = mp.mpf(params.detector_efficiency)
        if eta_d == 1:
            eta_d -= mp.mpf("1e-20")
        v_mod = mp.mpf(params.modulation_variance)
        eta = [mp.mpf(u.transmittance) for u in params.users]
        eps = [mp.mpf(u.excess_noise) for u in params.users]
        nu = [mp.mpf(params.trusted_noise(k)) for k in range(params.n_users)]
        m = params.n_users
        x = mp.matrix(m + 1, m + 1)
        x[0, 0] = v_mod + 1
        for j in range(m):
            x[0, j + 1] = x[j + 1, 0] = mp.sqrt(eta[j] * ((v_mod + 1) ** 2 - 1))
            for k in range(m):
                x[j + 1, k + 1] = mp.sqrt(eta[j] * eta[k]) * v_mod
            x[j + 1, j + 1] = eta[j] * v_mod + 1 + eps[j]
        mirror = mp.diag([-1] + [1] * m)
        p = mirror * x * mirror

        def measure(block, i, k, sign):
            n = block.rows
            v = 1 + nu[k] / (1 - eta_d)
            ext = mp.matrix(n + 2, n + 2)
            for a in range(n):
                for b in range(n):
                    ext[a, b] = block[a, b]
            ext[n, n] = ext[n + 1, n + 1] = v
            ext[n, n + 1] = ext[n + 1, n] = sign * mp.sqrt(v * v - 1)
            split = mp.eye(n + 2)
            t, r = mp.sqrt(eta_d), mp.sqrt(1 - eta_d)
            split[i, i] = split[n, n] = t
            split[i, n], split[n, i] = r, -r
            ext = split * ext * split.T
            kept = [a for a in range(n + 2) if a != i]
            out = mp.matrix(n + 1, n + 1)
            for a, ra in enumerate(kept):
                for b, rb in enumerate(kept):
                    out[a, b] = ext[ra, rb] - ext[ra, i] * ext[i, rb] / (ext[i, i] + 1)
            return out

        states = {(): (x, p)}

        def state(users):
            if users not in states:
                xq, pq = state(users[:-1])
                k = users[-1]
                i = k + 1 - len(users[:-1])  # every earlier user is below k
                states[users] = (measure(xq, i, k, 1), measure(pq, i, k, -1))
            return states[users]

        def entropy(xq, pq):
            chol = mp.cholesky(xq)
            inner = chol.T * pq * chol
            total = mp.mpf(0)
            for ev in mp.eigsy((inner + inner.T) / 2, eigvals_only=True):
                y = (max(mp.sqrt(ev), 1) - 1) / 2
                total += (y + 1) * mp.log(y + 1, 2) - (y * mp.log(y, 2) if y > 0 else 0)
            return total

        def information(users):
            snr = mp.mpf(0)
            for k in users:
                gain2 = eta[k] * eta_d / 2
                noise = (eta_d * (1 + eps[k]) + (1 - eta_d) + nu[k] + 1) / 2
                snr += v_mod * gain2 / noise
            return mp.log(1 + snr, 2)

        out = {}
        for coalition in coalitions:
            users = tuple(sorted(coalition))
            out[frozenset(users)] = (information(users), entropy(*state(users)))
        return out
