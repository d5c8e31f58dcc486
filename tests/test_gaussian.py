import numpy as np
import pytest
from hypothesis import given, strategies as st

from cvqnet import (
    CovarianceMatrix,
    attach_trusted_detector,
    build_channel_output_cm,
    check_physicality,
    condition_on_heterodyne,
    g_function,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from cvqnet.errors import NumericalError, UnphysicalStateError, ValidationError
from cvqnet.gaussian import block_entropies, spectrum_entropy

from conftest import random_params
from oracles import (
    OMEGA1,
    direct_sum,
    epr_cm,
    hermitian_symplectic_spectrum,
    two_mode_symplectic_eigenvalues,
)

G_HALF = 1.37744375108173427  # high-precision evaluation of g(0.5)


def cm(matrix, labels):
    return CovarianceMatrix(np.asarray(matrix, dtype=float), tuple(labels))


def symplectic_form(n):
    """Omega for n modes in interleaved ordering, as the reference spectra of
    `oracles` build it."""
    return np.kron(np.eye(n), OMEGA1)


class TestSymplecticForm:
    """The form that the reference spectra below are taken with."""

    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_diagonal(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
        assert np.array_equal(omega[2:, 2:], [[0, 1], [-1, 0]])
        assert np.all(omega[:2, 2:] == 0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_identities(self, n):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega.T, np.eye(2 * n))
        assert np.allclose(omega @ omega, -np.eye(2 * n))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        spec = symplectic_eigenvalues(cm(np.eye(6), "abc"))
        assert np.allclose(spec, 1.0)

    def test_thermal(self):
        spec = symplectic_eigenvalues(cm(3.0 * np.eye(2), "a"))
        assert spec == pytest.approx([3.0])

    def test_two_mode_squeezed_vacuum_is_pure(self):
        # independent oracle: brute-force eigendecomposition of i*Omega*Gamma
        gamma = epr_cm(5.0)
        i_omega = 1j * symplectic_form(2)
        brute = np.abs(np.linalg.eigvals(i_omega @ gamma))
        assert np.allclose(sorted(brute), [1, 1, 1, 1], atol=1e-10)
        spec = symplectic_eigenvalues(cm(gamma, ["a", "b"]))
        assert np.allclose(spec, [1.0, 1.0], atol=1e-9)

    def test_matches_two_mode_closed_form(self, table1):
        rng = np.random.default_rng(3)
        table1_state = build_channel_output_cm(table1)
        pairs = [table1_state.reduce(["A", f"B{k + 1}"]) for k in range(table1.n_users)]
        pairs += [build_channel_output_cm(random_params(rng, max_users=1)) for _ in range(20)]
        for gamma in pairs:
            ours = symplectic_eigenvalues(gamma)
            closed = two_mode_symplectic_eigenvalues(gamma.matrix)
            assert ours == pytest.approx(sorted(closed, reverse=True), rel=1e-12)

    def test_taken_once_per_state_and_read_only(self, table1, monkeypatch):
        import cvqnet.gaussian

        built = build_channel_output_cm(table1)
        state = CovarianceMatrix(built.matrix, built.mode_labels)  # no spectrum taken yet
        calls = []
        kernel = cvqnet.gaussian.block_spectrum

        def counted(x, p):
            calls.append(x.shape)
            return kernel(x, p)

        monkeypatch.setattr(cvqnet.gaussian, "block_spectrum", counted)
        spec = symplectic_eigenvalues(state)
        assert von_neumann_entropy(state) == spectrum_entropy(spec.tolist())
        assert check_physicality(state)
        assert symplectic_eigenvalues(state) is spec
        assert calls == [(5, 5)]
        with pytest.raises(ValueError):
            spec[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            cm([[bad, 0.0], [0.0, 1.0]], "a")

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            cm([[1.0, 0.5], [0.0, 1.0]], "a")

    def test_rejects_non_positive_definite(self):
        for matrix in (
            [[1.0, 0.0], [0.0, -1.0]],
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[1.0, 1.0], [1.0, 1.0]],  # singular
            [[1.0, 0.0], [0.0, -1e-300]],
        ):
            with pytest.raises(ValidationError):
                symplectic_eigenvalues(cm(matrix, "a"))


def general_eigen_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Reference spectrum from the real non-symmetric eigenproblem of
    Omega Gamma, whose eigenvalues are +/- i nu_j (descending)."""
    ev = np.linalg.eigvals(symplectic_form(gamma.shape[0] // 2) @ gamma)
    return np.sort(np.abs(ev.imag))[::-1][::2]


def measured_chain(params):
    """The channel-output state, then the states left after each user in
    turn is measured by its trusted receiver (one more mode per step)."""
    state = build_channel_output_cm(params)
    states = [state]
    for k in range(params.n_users - 1):
        label = f"B{k + 1}"
        state = attach_trusted_detector(
            state, label, params.detector_efficiency, params.trusted_noise(k)
        )
        state = condition_on_heterodyne(state, [label])
        states.append(state)
    return states


class TestHermitianKernel:
    def assert_matches_references(self, state):
        ours = symplectic_eigenvalues(state)
        assert ours.shape == (state.dim_modes,)
        assert np.all(np.diff(ours) <= 0.0)  # descending
        oracle = hermitian_symplectic_spectrum(state.matrix)[::-1]
        assert np.allclose(ours, oracle, rtol=1e-12, atol=0.0)
        assert np.allclose(ours, general_eigen_spectrum(state.matrix), rtol=1e-12, atol=0.0)

    def test_table1_states(self, table1):
        for state in measured_chain(table1):
            self.assert_matches_references(state)

    def test_random_network_states(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            for state in measured_chain(random_params(rng)):
                self.assert_matches_references(state)

    def test_eight_user_conditioned_states(self):
        rng = np.random.default_rng(32)
        modes = set()
        for _ in range(3):
            for state in measured_chain(random_params(rng, n_users=8)):
                modes.add(state.dim_modes)
                self.assert_matches_references(state)
        assert 11 in modes and max(modes) == 16

    @pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-6])
    def test_near_pure_states(self, noise):
        for v in (1.5, 5.0, 50.0):
            gamma = direct_sum(epr_cm(v), epr_cm(v + 1.0)) + noise * np.eye(8)
            state = cm(gamma, "abcd")
            self.assert_matches_references(state)
            # added noise d: nu = sqrt((w + d)^2 - (w^2 - 1)) for each pair of variance w
            expected = [np.sqrt(2.0 * w * noise + noise**2 + 1.0) for w in (v + 1.0, v)]
            assert np.allclose(
                symplectic_eigenvalues(state), np.repeat(expected, 2), rtol=1e-12, atol=0.0
            )


def quadrature_blocks(x, p, labels):
    """Uncoupled state X (+) P in interleaved ordering."""
    n = len(labels)
    gamma = np.zeros((2 * n, 2 * n))
    gamma[0::2, 0::2] = x
    gamma[1::2, 1::2] = p
    return cm(gamma, labels)


def phase_rotated(state, rng):
    """The state after an independent random phase rotation of every mode."""
    n = state.dim_modes
    rot = np.zeros((2 * n, 2 * n))
    for mode, theta in enumerate(rng.uniform(0.1, 2 * np.pi - 0.1, n)):
        c, s = np.cos(theta), np.sin(theta)
        rot[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
    rotated = rot @ state.matrix @ rot.T
    return cm((rotated + rotated.T) / 2.0, state.mode_labels)


class TestQuadratureBlockKernel:
    @pytest.mark.parametrize(
        "x, p",
        [
            (np.diag([2.0, 3.0]), np.diag([1.0, -0.5])),  # X positive definite, P indefinite
            (np.ones((2, 2)), np.eye(2)),  # X singular
            (np.eye(2), np.ones((2, 2))),  # P singular
        ],
        ids=["p-indefinite", "x-singular", "p-singular"],
    )
    def test_rejects_non_positive_definite(self, x, p):
        with pytest.raises(ValidationError, match="positive definite"):
            symplectic_eigenvalues(quadrature_blocks(x, p, "ab"))

    def test_quadrature_blocks_match_closed_form(self):
        # X = diag(a), P = diag(b) decouple into modes with nu = sqrt(a b)
        state = quadrature_blocks(np.diag([2.0, 3.0, 1.5]), np.diag([8.0, 1.0, 1.5]), "abc")
        assert np.allclose(symplectic_eigenvalues(state), [4.0, 3.0 ** 0.5, 1.5], rtol=1e-15)

    def assert_paths_agree(self, state, rng):
        # phase rotations are symplectic: the rotated state, coupled, has the
        # spectrum that the blocks of the uncoupled one give
        assert not state.matrix[0::2, 1::2].any()
        rotated = phase_rotated(state, rng)
        assert rotated.matrix[0::2, 1::2].any()
        assert np.allclose(hermitian_symplectic_spectrum(rotated.matrix)[::-1],
                           symplectic_eigenvalues(state), rtol=1e-12, atol=0.0)

    def test_table1_chain_agrees_with_hermitian_path(self, table1):
        rng = np.random.default_rng(41)
        for state in measured_chain(table1):
            self.assert_paths_agree(state, rng)

    def test_random_network_chains_agree_with_hermitian_path(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            for state in measured_chain(random_params(rng)):
                self.assert_paths_agree(state, rng)

    def test_rejects_coupled_state(self, table1):
        rng = np.random.default_rng(43)
        for state in measured_chain(table1):
            rotated = phase_rotated(state, rng)
            # twice each: a failed spectrum is not cached
            for read in (symplectic_eigenvalues, von_neumann_entropy, check_physicality) * 2:
                with pytest.raises(ValidationError, match="x-p correlation"):
                    read(rotated)


class TestGFunction:
    def test_zero(self):
        assert g_function(0.0) == 0.0

    def test_one(self):
        assert g_function(1.0) == 2.0

    def test_half(self):
        assert g_function(0.5) == pytest.approx(G_HALF, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            g_function(-1e-12)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="got nan"):
            g_function(float("nan"))

    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_monotone_increasing(self, x):
        assert g_function(x * 1.01) > g_function(x)

    @given(st.floats(min_value=0.0, max_value=1e3))
    def test_never_negative(self, x):
        assert g_function(x) >= 0.0


class TestRandomNetworkProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_builder_spectrum_at_least_vacuum(self, seed):
        params = random_params(np.random.default_rng(seed))
        spectrum = symplectic_eigenvalues(build_channel_output_cm(params))
        assert spectrum.min() >= 1.0 - 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_conditioning_preserves_physicality(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng)
        gamma = build_channel_output_cm(params)
        conditioned = condition_on_heterodyne(gamma, ["B1"])
        assert check_physicality(conditioned)


class TestEntropy:
    def test_vacuum_zero(self):
        assert von_neumann_entropy(cm(np.eye(4), "ab")) == 0.0

    def test_single_thermal(self):
        assert von_neumann_entropy(cm(3.0 * np.eye(2), "a")) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("v", [1.5, 5.0, 20.0])
    def test_pure_two_mode_squeezed(self, v):
        assert abs(von_neumann_entropy(cm(epr_cm(v), "ab"))) <= 1e-9

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalStateError):
            von_neumann_entropy(cm(0.5 * np.eye(2), "a"))

    def test_spectrum_clamp_and_check(self):
        # within PHYSICALITY_TOL below 1: clamped to 1, entropy 0; beyond it: raises
        assert spectrum_entropy([3.0, 1.0 - 1e-10]) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(UnphysicalStateError):
            spectrum_entropy([3.0, 1.0 - 1e-8])

    def test_additive_for_direct_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = build_channel_output_cm(random_params(rng, max_users=2))
            b = build_channel_output_cm(random_params(rng, max_users=2))
            combined = cm(
                direct_sum(a.matrix, b.matrix),
                [f"L{l}" for l in a.mode_labels] + [f"R{l}" for l in b.mode_labels],
            )
            assert von_neumann_entropy(combined) == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10
            )

    def test_local_rotation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            gamma = build_channel_output_cm(random_params(rng))
            n = gamma.dim_modes
            theta = rng.uniform(0, 2 * np.pi)
            mode = int(rng.integers(n))
            rot = np.eye(2 * n)
            rot[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [
                [np.cos(theta), np.sin(theta)],
                [-np.sin(theta), np.cos(theta)],
            ]
            rotated = rot @ gamma.matrix @ rot.T
            assert np.allclose(
                hermitian_symplectic_spectrum(rotated)[::-1],
                symplectic_eigenvalues(gamma),
                atol=1e-10,
            )


def block_stack(states):
    """The (B, n, n) X and P blocks of equally sized uncoupled states."""
    gammas = np.array([state.matrix for state in states])
    assert not gammas[:, 0::2, 1::2].any()
    return gammas[:, 0::2, 0::2], gammas[:, 1::2, 1::2]


class TestBlockEntropies:
    def chain_states_by_size(self, networks):
        by_size = {}
        for params in networks:
            for state in measured_chain(params):
                by_size.setdefault(state.dim_modes, []).append(state)
        return by_size

    def test_equal_single_state_entropies(self, table1):
        rng = np.random.default_rng(33)
        networks = [table1] + [random_params(rng, max_users=8) for _ in range(25)]
        by_size = self.chain_states_by_size(networks)
        assert max(len(states) for states in by_size.values()) > 10  # stacks, not singletons
        for states in by_size.values():
            stacked = block_entropies(*block_stack(states))
            assert stacked.shape == (len(states),)
            for entropy, state in zip(stacked, states):
                assert entropy == pytest.approx(von_neumann_entropy(state), abs=1e-12)

    def test_clamps_like_single_state(self):
        # nu = 1 - 1e-10 lies within PHYSICALITY_TOL: clamped to 1, entropy 0
        states = [cm((1.0 - 1e-10) * np.eye(4), "ab"), cm(epr_cm(3.0), "ab"), cm(np.eye(4), "ab")]
        stacked = block_entropies(*block_stack(states))
        assert stacked.tolist() == [von_neumann_entropy(state) for state in states]
        assert stacked[0] == 0.0

    def physical_three_mode_states(self):
        rng = np.random.default_rng(34)
        return [build_channel_output_cm(random_params(rng, n_users=2)) for _ in range(3)]

    @pytest.mark.parametrize(
        "x, p",
        [
            (np.diag([2.0, 3.0, 1.0]), np.diag([1.0, -0.5, 1.0])),  # P indefinite
            (np.ones((3, 3)), np.eye(3)),  # X singular
        ],
        ids=["p-indefinite", "x-singular"],
    )
    def test_one_non_positive_definite_member_raises(self, x, p):
        xs, ps = block_stack(self.physical_three_mode_states())
        xs[1], ps[1] = x, p
        with pytest.raises(ValidationError, match="positive definite"):
            block_entropies(xs, ps)

    def test_one_unphysical_member_raises(self):
        states = self.physical_three_mode_states()
        states[2] = cm(np.diag([1.2, 0.8, 1.0, 1.0, 1.0, 1.0]), "abc")  # mode a: nu = sqrt(0.96)
        with pytest.raises(UnphysicalStateError):
            block_entropies(*block_stack(states))

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("no convergence")

        xs, ps = block_stack(self.physical_three_mode_states())
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="eigensolver failed on 3x3"):
            block_entropies(xs, ps)


class TestHeterodyneConditioning:
    def test_uncorrelated_vacua(self):
        out = condition_on_heterodyne(cm(np.eye(4), "ab"), ["b"])
        assert np.allclose(out.matrix, np.eye(2))
        assert out.mode_labels == ("a",)

    def test_two_mode_squeezed_hand_value(self):
        # Schur complement by hand: V - (V^2-1)/(V+1) = 1 for both quadratures
        out = condition_on_heterodyne(cm(epr_cm(5.0), "ab"), ["b"])
        assert np.allclose(out.matrix, np.eye(2), atol=1e-12)

    def test_sequential_equals_joint(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            params = random_params(rng, max_users=5)
            gamma = build_channel_output_cm(params)
            labels = [l for l in gamma.mode_labels if l != "A"]
            k = int(rng.integers(1, len(labels) + 1))
            chosen = list(rng.choice(labels, size=k, replace=False))
            if len(chosen) == len(labels):
                chosen = chosen[:-1]
            if not chosen:
                continue
            joint = condition_on_heterodyne(gamma, chosen)
            seq = gamma
            for lab in chosen:
                seq = condition_on_heterodyne(seq, [lab])
            assert seq.mode_labels == joint.mode_labels
            assert np.max(np.abs(seq.matrix - joint.matrix)) <= 1e-10

    def test_conditioning_does_not_increase_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            params = random_params(rng, max_users=4)
            gamma = build_channel_output_cm(params)
            retained = [l for l in gamma.mode_labels if l != "B1"]
            before = von_neumann_entropy(gamma.reduce(retained))
            after = von_neumann_entropy(condition_on_heterodyne(gamma, ["B1"]))
            assert after <= before + 1e-9

    def test_measure_everything_rejected(self):
        with pytest.raises(ValidationError):
            condition_on_heterodyne(cm(np.eye(4), "ab"), ["a", "b"])

    def test_measure_nothing_rejected(self):
        with pytest.raises(ValidationError):
            condition_on_heterodyne(cm(np.eye(4), "ab"), [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            condition_on_heterodyne(cm(np.eye(4), "ab"), ["z"])

    def test_singular_measured_block_is_a_numerical_error(self):
        # Gamma_M = -I makes (Gamma_M + I) the zero matrix
        with pytest.raises(NumericalError, match=r"singular while conditioning on \('b',\)"):
            condition_on_heterodyne(cm(np.diag([1.0, 1.0, -1.0, -1.0]), "ab"), ["b"])


class TestPhysicality:
    def test_vacuum_physical(self):
        assert check_physicality(cm(np.eye(2), "a"))

    def test_below_vacuum_unphysical(self):
        below = cm(0.5 * np.eye(2), "a")
        assert not check_physicality(below)
        assert symplectic_eigenvalues(below)[-1] == pytest.approx(0.5)

    def test_builder_outputs_physical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = random_params(rng)
            gamma = build_channel_output_cm(params)
            assert check_physicality(gamma)
            extended = attach_trusted_detector(
                gamma, "B1", params.detector_efficiency, params.trusted_noise(0)
            )
            assert check_physicality(extended)


class TestCovarianceMatrixType:
    @pytest.mark.parametrize(
        "shape", [(2, 4), (3, 3), (2, 2, 2), (0, 0)], ids=["non-square", "odd", "3-d", "no-modes"]
    )
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValidationError, match="square 2n x 2n"):
            CovarianceMatrix(np.zeros(shape), ())

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError):
            cm(np.eye(4), "abc")

    def test_labels_unique(self):
        with pytest.raises(ValidationError):
            cm(np.eye(4), "aa")

    def test_unhashable_label_is_unknown(self):
        with pytest.raises(ValidationError, match=r"unknown mode label \['A'\]"):
            cm(np.eye(4), "AB").mode_index(["A"])

    def test_immutable(self):
        gamma = cm(np.eye(2), "a")
        with pytest.raises(ValueError):
            gamma.matrix[0, 0] = 2.0

    def test_block_and_reduce(self):
        gamma = cm(epr_cm(3.0), "ab")
        assert np.allclose(gamma.block(["a"], ["a"]), 3.0 * np.eye(2))
        reduced = gamma.reduce(["b"])
        assert reduced.mode_labels == ("b",)
        assert np.allclose(reduced.matrix, 3.0 * np.eye(2))
