"""Symplectic linear algebra over quadrature covariance matrices.

All matrices are in shot-noise units (vacuum variance = 1) with the
interleaved quadrature ordering (x1, p1, x2, p2, ...).  A `CovarianceMatrix`
addresses its modes by label; the block kernels (`block_spectrum`,
`block_entropies`) and the measurement steps built on them take bare
quadrature blocks and address modes by position.

Every channel and receiver in the model is phase-insensitive and Alice's x
and p are drawn independently, so every state the package builds has zero
x-p cross entries, and a state with x-p correlation is rejected.
`block_spectrum` reads the spectrum from the real n x n quadrature blocks:
nu = sqrt(eig(L^T P L)) with X = L L^T, since (i Omega Gamma)^2 =
diag(PX, XP) in xxpp ordering.  It takes one state or a stack of states
held as their (B, n, n) X and P blocks, with one batched Cholesky and one
batched `eigvalsh` for the whole stack; `symplectic_eigenvalues` is its
entry point for a `CovarianceMatrix`, whose spectrum is taken once, on first
use (the state is frozen), and `block_entropies` for a stack.
`spectrum_entropy` is the entropy of a spectrum found some other way (a
closed form, say) under the same clamp and physicality check as
`von_neumann_entropy`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalError, UnphysicalStateError, ValidationError

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9


def _as_label_tuple(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(map(str, labels))
    if len(set(out)) != len(out):
        raise ValidationError(f"mode labels must be unique, got {out}")
    return out


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Real symmetric 2n x 2n covariance matrix with labelled modes; compared
    and hashed by identity, so a state can key a memo."""

    matrix: np.ndarray
    mode_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        labels = _as_label_tuple(self.mode_labels)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or not m.size:
            raise ValidationError(f"covariance matrix must be square 2n x 2n, n > 0, got {m.shape}")
        n = m.shape[0] // 2
        if len(labels) != n:
            raise ValidationError(
                f"{len(labels)} labels for {n} modes: {labels}"
            )
        peak = float(np.abs(m).max())
        if not peak < math.inf:
            raise ValidationError("covariance matrix has non-finite entries")
        scale = max(1.0, peak)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise ValidationError("covariance matrix is not symmetric within tolerance")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def dim_modes(self) -> int:
        return len(self.mode_labels)

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown mode label {label!r}; have {self.mode_labels}") from None

    def _rows(self, labels: Sequence[str]) -> np.ndarray:
        idx = []
        for lab in labels:
            i = self.mode_index(lab)
            idx += [2 * i, 2 * i + 1]
        return np.asarray(idx, dtype=int)

    def block(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Sub-block (copy) selected by row/column mode labels."""
        return self.matrix[self._rows(rows)[:, None], self._rows(cols)]

    def reduce(self, labels: Sequence[str]) -> "CovarianceMatrix":
        """Reduced state on the given modes (partial trace of the rest)."""
        labels = list(labels)
        return CovarianceMatrix(self.block(labels, labels), tuple(labels))

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """`symplectic_eigenvalues`; a computation that raises caches nothing."""
        gamma = self.matrix
        if gamma[0::2, 1::2].any():
            raise ValidationError("covariance matrix has x-p correlation; it must be X (+) P")
        nu = block_spectrum(gamma[0::2, 0::2], gamma[1::2, 1::2])
        nu.flags.writeable = False
        return nu


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix, one value
    per mode, sorted descending, read-only and taken once per state:
    `block_spectrum` of its blocks X = Gamma[0::2, 0::2] and P = Gamma[1::2, 1::2].

    A state with x-p correlation (a phase rotation, say) raises
    ValidationError: Gamma is X (+) P only without it.
    """
    return cm._spectrum


def block_spectrum(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, sorted descending, of the state X (+) P given its
    (n, n) quadrature blocks; of each member of a (B, n, n) stack, one row
    per member.

    In xxpp ordering (i Omega Gamma)^2 = diag(PX, XP), so with X = L L^T the
    spectrum is sqrt(eig(L^T P L)), one real symmetric n x n problem
    (Weedbrook et al., RMP 84, 621 (2012)).  Gamma is positive definite
    exactly when X and P are: a failed Cholesky of X or a non-positive
    smallest eigenvalue of L^T P L (congruent to P) raises ValidationError.
    """
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix must be positive definite") from None
    try:
        ev = np.linalg.eigvalsh(chol.swapaxes(-1, -2) @ p @ chol)
    except np.linalg.LinAlgError as exc:
        n = x.shape[-1]
        raise NumericalError(f"eigensolver failed on {n}x{n} matrix:\n{p}") from exc
    if not ev.min() > 0.0:
        raise ValidationError("covariance matrix must be positive definite")
    return np.sqrt(ev[..., ::-1])


def g_function(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x in bits.

    g(0) = 0 by the convention 0 * log2(0) = 0.
    """
    if not x >= 0:
        raise ValidationError(f"g is defined for x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def spectrum_entropy(spectrum: Iterable[float]) -> float:
    """Entropy S = sum_j g((nu_j - 1)/2) in bits of a symplectic spectrum.

    Eigenvalues within PHYSICALITY_TOL below 1 are clamped to 1 (numerical
    drift from long conditioning chains); anything lower raises.
    """
    total = 0.0
    for nu in spectrum:
        if nu < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalStateError(
                f"symplectic eigenvalue {nu!r} below 1 beyond tolerance; state is unphysical"
            )
        total += g_function((max(nu, 1.0) - 1.0) / 2.0)
    return total


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """Entropy in bits of a state: `spectrum_entropy` of its symplectic spectrum."""
    return spectrum_entropy(cm._spectrum.tolist())


def block_entropies(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack of states without x-p correlation, given
    their (B, n, n) quadrature blocks X and P; one value per member.

    Member by member this is `von_neumann_entropy` on the state X (+) P, with
    the same checks: `block_spectrum` raises ValidationError on a state that
    is not positive definite, an eigenvalue below 1 beyond PHYSICALITY_TOL
    raises UnphysicalStateError, and the rest are clamped to 1.
    """
    nu = block_spectrum(x, p)[:, ::-1]  # summed in ascending order, as the tables were
    low = nu[:, 0].min()
    if low < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"symplectic eigenvalue {low!r} below 1 beyond tolerance; state is unphysical"
        )
    g = (np.maximum(nu, 1.0) - 1.0) / 2.0
    # g(0) = 0: x log2 x is taken as 0 where x = 0
    x_log_x = g * np.log2(g, out=np.zeros(g.shape), where=g > 0.0)
    g1 = g + 1.0
    return (g1 * np.log2(g1) - x_log_x).sum(axis=1)


def condition_on_heterodyne(cm: CovarianceMatrix, measured: Iterable[str]) -> CovarianceMatrix:
    """Conditional covariance of retained modes after heterodyning `measured`.

    Gaussian heterodyne conditioning: Gamma_R - Sigma (Gamma_M + I)^-1 Sigma^T,
    the identity adding one vacuum unit per measured quadrature.  The result
    does not depend on the measurement outcomes.
    """
    measured = _as_label_tuple(measured)
    if not measured:
        raise ValidationError("must measure at least one mode")
    rows_m = cm._rows(measured)
    retained = [lab for lab in cm.mode_labels if lab not in measured]
    if not retained:
        raise ValidationError("cannot heterodyne every mode: nothing would remain")
    rows_r = cm._rows(retained)
    gamma_r = cm.matrix[rows_r[:, None], rows_r]
    gamma_m = cm.matrix[rows_m[:, None], rows_m]
    sigma = cm.matrix[rows_r[:, None], rows_m]
    try:
        correction = sigma @ np.linalg.solve(gamma_m + np.eye(gamma_m.shape[0]), sigma.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(Gamma_M + I) singular while conditioning on {measured}") from exc
    cond = gamma_r - correction
    cond = (cond + cond.T) / 2.0
    return CovarianceMatrix(cond, tuple(retained))


def check_physicality(cm: CovarianceMatrix) -> bool:
    """Check the uncertainty relation Gamma + i Omega >= 0 via min(nu) >= 1."""
    return bool(symplectic_eigenvalues(cm)[-1] >= 1.0 - PHYSICALITY_TOL)
