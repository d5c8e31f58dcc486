"""Symplectic linear algebra over quadrature covariance matrices.

All matrices are in shot-noise units (vacuum variance = 1) with the
interleaved quadrature ordering (x1, p1, x2, p2, ...).  Modes are always
addressed by label, never by raw index, so that conditioning chains cannot
silently shift mode positions.

Every channel and receiver in the model is phase-insensitive and Alice's x
and p are drawn independently, so every state the package builds has zero
x-p cross entries.  `symplectic_eigenvalues` then reads the spectrum from the
real n x n blocks: nu = sqrt(eig(L^T P L)) with X = L L^T, since
(i Omega Gamma)^2 = diag(PX, XP) in xxpp ordering.  Only a state with x-p
correlation (a phase-rotated one, say) takes the complex Hermitian 2n x 2n
path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConditioningError,
    NumericalError,
    UnphysicalStateError,
    ValidationError,
)

SYMMETRY_RTOL = 1e-12
PHYSICALITY_TOL = 1e-9


def _as_label_tuple(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(map(str, labels))
    if len(set(out)) != len(out):
        raise ValidationError(f"mode labels must be unique, got {out}")
    return out


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2n x 2n covariance matrix with labelled modes."""

    matrix: np.ndarray
    mode_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        labels = _as_label_tuple(self.mode_labels)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValidationError(f"covariance matrix must be square 2n x 2n, got {m.shape}")
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

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        """Mode position of each label, built on first lookup."""
        return {label: i for i, label in enumerate(self.mode_labels)}

    def mode_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
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


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n: int) -> np.ndarray:
    """Symplectic form for n modes in interleaved ordering (a fresh array).

    Block-diagonal with 2x2 blocks [[0, 1], [-1, 0]]; satisfies
    Omega^2 = -I and Omega Omega^T = I.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"mode count must be a positive integer, got {n!r}")
    return np.kron(np.eye(n), _J)


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum of a positive-definite covariance matrix, one
    value per mode, sorted descending.

    Every state the package builds has no x-p correlation: Gamma is X (+) P
    with X = Gamma[0::2, 0::2] and P = Gamma[1::2, 1::2].  In xxpp ordering
    (i Omega Gamma)^2 = diag(PX, XP), so with X = L L^T the spectrum is
    sqrt(eig(L^T P L)), one real symmetric n x n problem.  Gamma is positive
    definite exactly when X and P are: the Cholesky factor of X and a
    positive smallest eigenvalue of L^T P L (congruent to P) check that.

    A state with x-p correlation (a phase rotation, say) takes the general
    path: with Gamma = L L^T, the Hermitian 2n x 2n matrix i L^T Omega L has
    eigenvalues +/- nu_j (Weedbrook et al., RMP 84, 621 (2012)), and the
    spectrum is its positive half.
    """
    gamma = cm.matrix
    if gamma[0::2, 1::2].any():
        chol = _cholesky(gamma)
        ev = _eigvalsh(1j * (chol.T @ symplectic_form(cm.dim_modes) @ chol), gamma)
        return ev[cm.dim_modes :][::-1]
    chol = _cholesky(gamma[0::2, 0::2])
    ev = _eigvalsh(chol.T @ gamma[1::2, 1::2] @ chol, gamma)
    if not ev[0] > 0.0:
        raise ValidationError("covariance matrix must be positive definite")
    return np.sqrt(ev[::-1])


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance matrix must be positive definite") from None


def _eigvalsh(hermitian: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(hermitian)
    except np.linalg.LinAlgError as exc:
        size = hermitian.shape[0]
        raise NumericalError(f"eigensolver failed on {size}x{size} matrix:\n{gamma}") from exc


def g_function(x: float) -> float:
    """Bosonic entropy g(x) = (x+1) log2(x+1) - x log2 x in bits.

    g(0) = 0 by the convention 0 * log2(0) = 0.
    """
    if x < 0:
        raise ValidationError(f"g is defined for x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """Entropy S = sum_j g((nu_j - 1)/2) in bits.

    Eigenvalues within PHYSICALITY_TOL below 1 are clamped to 1 (numerical
    drift from long conditioning chains); anything lower raises.
    """
    total = 0.0
    for nu in symplectic_eigenvalues(cm).tolist():
        if nu < 1.0 - PHYSICALITY_TOL:
            raise UnphysicalStateError(
                f"symplectic eigenvalue {nu!r} below 1 beyond tolerance; state is unphysical"
            )
        total += g_function((max(nu, 1.0) - 1.0) / 2.0)
    return total


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
        raise ConditioningError(
            f"(Gamma_M + I) singular while conditioning on {measured}"
        ) from exc
    cond = gamma_r - correction
    cond = (cond + cond.T) / 2.0
    return CovarianceMatrix(cond, tuple(retained))


def check_physicality(cm: CovarianceMatrix) -> bool:
    """Check the uncertainty relation Gamma + i Omega >= 0 via min(nu) >= 1."""
    return bool(symplectic_eigenvalues(cm)[-1] >= 1.0 - PHYSICALITY_TOL)
