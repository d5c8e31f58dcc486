"""Monte-Carlo emulation of the quantum phase and parameter estimation.

The simulator works entirely at the classical-outcome level: the physics of
modulation, broadcast, loss, excess noise and noisy heterodyne detection is
captured exactly by the joint outcome covariance, including the inter-user
correlations carried by the shared signal.  That is sufficient (and exact)
for validating estimators and the key-rate pipeline, and it is fast.

Generation is chunked; chunk i draws from its own stream,
SeedSequence(seed, spawn_key=(i,)), so the streams of different seeds and
chunks never overlap, and any sharding across workers that respects chunk
boundaries reproduces the same block bit for bit.

Estimation reads only the block: `estimate` gives one user's (t_hat,
sigma2_hat); `confidence_region` alone maps them and its corner back to
channel parameters, and `worst_case_params` alone turns corners into params.
"""

from __future__ import annotations

import math
import os
import statistics
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CorruptInputError, ModelError, ValidationError
from .network import NetworkParams, classical_outcome_cov, link_from_outcome_model

MAGIC = b"CVNB"
FORMAT_VERSION = 1
CHUNK = 1 << 19

# One-sided standard-normal quantile at 5e-11, i.e. the per-parameter
# confidence level for eps_pe = 1e-10 split over two tails.  Frozen from a
# high-precision evaluation; the test suite holds a regression check.
Z_EPS_PE_1E10 = 6.46695108724051617


def one_sided_quantile(eps_pe: float) -> float:
    """z with P(Z > z) = eps_pe / 2 for a standard normal.

    Evaluated on the lower tail (-inv_cdf(eps/2)) so the tiny tail
    probability is never formed as 1 - p, which would shed ~8 digits.
    At the default 1e-10 it returns the frozen Z_EPS_PE_1E10; inv_cdf is
    1 ulp below it there.
    """
    if not 0.0 < eps_pe < 0.5:
        raise ValidationError(f"eps_pe must be in (0, 0.5), got {eps_pe}")
    if eps_pe == 1e-10:
        return Z_EPS_PE_1E10
    return -statistics.NormalDist().inv_cdf(eps_pe / 2.0)


@dataclass(frozen=True)
class SymbolBlock:
    """One block of Alice symbols and user outcomes, held as its file payload.

    `columns` is the (2+2M, n) float64 array in block-file order: alice_x,
    alice_p, y_x of each user, then y_p of each user.  The other fields are
    views of it.
    """

    columns: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @property
    def n_users(self) -> int:
        return (self.columns.shape[0] - 2) // 2

    @property
    def alice_x(self) -> np.ndarray:
        return self.columns[0]

    @property
    def alice_p(self) -> np.ndarray:
        return self.columns[1]

    @property
    def y_x(self) -> np.ndarray:
        """User outcomes on x, shape (n, M)."""
        return self.columns[2 : 2 + self.n_users].T

    @property
    def y_p(self) -> np.ndarray:
        """User outcomes on p, shape (n, M)."""
        return self.columns[2 + self.n_users :].T


def check_seed(seed: int) -> int:
    """`seed` as an int, if it fits the block header's unsigned 64 bits."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def simulate(params: NetworkParams, n: int, seed: int) -> SymbolBlock:
    """Draw n symbols through the network's exact joint outcome model."""
    if n < 1:
        raise ValidationError("need at least one symbol")
    seed = check_seed(seed)
    cov = classical_outcome_cov(params)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ModelError("classical outcome covariance is not positive definite") from exc
    m = params.n_users
    try:
        columns = np.empty((2 + 2 * m, n))
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate a block of n={n} symbols for M={m} users") from None
    # rows of (s, y_1..y_M) per quadrature, in block-file order
    x_rows = [0, *range(2, 2 + m)]
    p_rows = [1, *range(2 + m, 2 + 2 * m)]
    for chunk_index, start in enumerate(range(0, n, CHUNK)):
        stop = min(start + CHUNK, n)
        rng = _chunk_rng(seed, chunk_index)
        # draw order fixed: x block first, then p block
        columns[x_rows, start:stop] = (rng.standard_normal((stop - start, m + 1)) @ chol.T).T
        columns[p_rows, start:stop] = (rng.standard_normal((stop - start, m + 1)) @ chol.T).T
    return SymbolBlock(columns=columns, seed=seed)


MIN_ESTIMATION_SYMBOLS = 1000


def estimate(block: SymbolBlock, k: int) -> tuple[float, float]:
    """(t_hat, sigma2_hat) of user k's outcome model y = t s + n.

    t_hat pools both quadratures: sum(s y) / sum(s^2).  sigma2_hat is the
    pooled residual variance.
    """
    if not 0 <= k < block.n_users:
        raise ValidationError(f"user index {k} out of range")
    if block.n < MIN_ESTIMATION_SYMBOLS:
        raise ValidationError(
            f"need at least {MIN_ESTIMATION_SYMBOLS} symbols for stable estimates, got {block.n}"
        )
    sx, sp = block.alice_x, block.alice_p
    yx, yp = block.y_x[:, k], block.y_p[:, k]
    denom = float(sx @ sx + sp @ sp)
    _check_finite(denom, k)
    if denom <= 0.0:
        raise ValidationError("Alice symbols have zero empirical variance")
    t_hat = float((sx @ yx + sp @ yp) / denom)
    _check_finite(t_hat, k)
    rx = yx - t_hat * sx
    rp = yp - t_hat * sp
    sigma2_hat = float((rx @ rx + rp @ rp) / (2 * block.n))
    _check_finite(sigma2_hat, k)
    return t_hat, sigma2_hat


def _check_finite(value: float, k: int) -> None:
    """A NaN or infinite sample makes every sum it enters non-finite."""
    if not math.isfinite(value):
        raise CorruptInputError(
            f"non-finite sample in the block: estimating user {k + 1} gives {value}"
        )


@dataclass(frozen=True)
class ConfidenceRegion:
    """Per-user confidence intervals and the key-rate-minimizing corner."""

    t_hat: float
    sigma2_hat: float
    delta_t: float
    delta_sigma2: float
    eta_hat: float
    eps_hat: float
    eta_min: float
    eps_max: float

    @property
    def negative_excess_flagged(self) -> bool:
        return self.eps_hat < 0


def confidence_region(
    t_hat: float,
    sigma2_hat: float,
    n: float,
    modulation_variance: float,
    eps_pe: float,
    *,
    detector_efficiency: float,
    electronic_noise: float,
) -> ConfidenceRegion:
    """Gaussian confidence region for (t, sigma^2) and its worst-case corner.

    Half-widths: delta_t = z sqrt(sigma2 / (n V_mod)) and
    delta_sigma2 = z sigma2 sqrt(2 / n), with z the one-sided normal
    quantile at eps_pe / 2 per parameter.  The estimates and the corner
    (t - delta_t, sigma2 + delta_sigma2) map back through the inverse
    outcome model to (eta_hat, eps_hat) and (eta_min, eps_max), the least
    favorable channel within the region.
    """
    if n < 2:
        raise ValidationError("need n >= 2 for a confidence region")
    if sigma2_hat <= 0:
        raise ValidationError("residual variance must be positive")
    z = one_sided_quantile(eps_pe)
    delta_t = z * np.sqrt(sigma2_hat / (n * modulation_variance))
    delta_sigma2 = z * sigma2_hat * np.sqrt(2.0 / n)
    receiver = (detector_efficiency, electronic_noise)
    eta_hat, eps_hat = link_from_outcome_model(t_hat, sigma2_hat, *receiver)
    eta_min, eps_max = link_from_outcome_model(
        max(t_hat - delta_t, 0.0), sigma2_hat + delta_sigma2, *receiver
    )
    return ConfidenceRegion(
        t_hat=float(t_hat),
        sigma2_hat=float(sigma2_hat),
        delta_t=float(delta_t),
        delta_sigma2=float(delta_sigma2),
        eta_hat=eta_hat,
        eps_hat=eps_hat,
        eta_min=eta_min,
        eps_max=eps_max,
    )


@dataclass(frozen=True)
class EstimateReport:
    """Confidence regions of every user, in user order, from n symbols."""

    n: float
    eps_pe: float
    users: tuple[ConfidenceRegion, ...]

    @classmethod
    def from_estimates(
        cls, params: NetworkParams, estimates: Iterable[tuple[float, float]], n: float
    ) -> "EstimateReport":
        """Regions of per-user (t_hat, sigma2_hat) pairs, read with the
        modulation, eps_pe and receivers of `params`."""
        regions = tuple(
            confidence_region(
                t_hat,
                sigma2_hat,
                n,
                params.modulation_variance,
                params.eps_pe,
                detector_efficiency=params.detector_efficiency,
                electronic_noise=params.trusted_noise(k),
            )
            for k, (t_hat, sigma2_hat) in enumerate(estimates)
        )
        return cls(n=n, eps_pe=params.eps_pe, users=regions)


def estimate_report(block: SymbolBlock, params: NetworkParams) -> EstimateReport:
    """Estimates, intervals and worst-case corners for every user of a block."""
    estimates = [estimate(block, k) for k in range(block.n_users)]
    return EstimateReport.from_estimates(params, estimates, block.n)


def worst_case_params(params: NetworkParams, report: EstimateReport) -> NetworkParams:
    """NetworkParams at the confidence-region corner of every user."""
    return params.with_links([(u.eta_min, max(u.eps_max, 0.0)) for u in report.users])


# ---------------------------------------------------------------------------
# Columnar binary + CSV export.  Layout: header, then the block's columns as
# little-endian float64: alice_x, alice_p, y_x per user, y_p per user.

_HEADER = struct.Struct("<4sHQHQ")
CSV_CHUNK_ROWS = 4096


def write_block(block: SymbolBlock, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, block.n, block.n_users, block.seed))
        fh.write(np.ascontiguousarray(block.columns, dtype="<f8"))  # no copy when already <f8


def read_block(path: str) -> SymbolBlock:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CorruptInputError(f"{path}: truncated header")
        magic, version, n, m, seed = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CorruptInputError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptInputError(f"{path}: unsupported version {version}")
        want = (2 + 2 * m) * n * 8
        have = os.fstat(fh.fileno()).st_size - _HEADER.size
        if have != want:
            raise CorruptInputError(
                f"{path}: expected {want} payload bytes for n={n}, M={m}, got {have}"
            )
        columns = np.empty((2 + 2 * m, n), dtype="<f8")
        got = fh.readinto(columns)
        if got != want:
            raise CorruptInputError(f"{path}: short read, {got} of {want} payload bytes")
    return SymbolBlock(columns=columns, seed=int(seed))


def write_block_csv(block: SymbolBlock, path: str) -> None:
    """CSV copy of a block, one `%.17g` row per symbol; one `%` call per chunk."""
    header = ["alice_x", "alice_p"]
    header += [f"y_x_{k + 1}" for k in range(block.n_users)]
    header += [f"y_p_{k + 1}" for k in range(block.n_users)]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, block.n, CSV_CHUNK_ROWS):
            chunk = block.columns[:, start : start + CSV_CHUNK_ROWS].T
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
