"""Monte-Carlo emulation of the quantum phase and parameter estimation.

The simulator works entirely at the classical-outcome level: the physics of
modulation, broadcast, loss, excess noise and noisy heterodyne detection is
captured exactly by the joint outcome covariance, including the inter-user
correlations carried by the shared signal.  That is sufficient (and exact)
for validating estimators and the key-rate pipeline, and it is fast.

Generation is chunked; chunk i draws from its own stream,
SeedSequence(seed, spawn_key=(i,)), so the streams of different seeds and
chunks never overlap, and any sharding across workers that respects chunk
boundaries reproduces the same block bit for bit.  `simulate` fills the
chunks concurrently, one thread per CPU the process may run on: each chunk
writes its own columns, so the block is the same whatever their number.

Estimation reads only the block: `estimate` gives one user's (t_hat,
sigma2_hat); `confidence_region` alone maps them and its corner back to
channel parameters, and `worst_case_params` alone turns corners into params.
The estimators make one pass over fixed TILE column ranges, the chunks again
on one thread per CPU, and pool each tile's sums in tile order.  They sum
with numpy's own loops, not BLAS, so their bits depend on the block alone.
"""

from __future__ import annotations

import math
import operator
import os
import stat
import statistics
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, CorruptInputError, ModelError, ValidationError
from .network import NetworkParams, check_user_index, classical_outcome_cov, link_from_outcome_model

MAGIC = b"CVNB"
FORMAT_VERSION = 1
CHUNK = 1 << 19
TILE = 1 << 14

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
    """`seed` as an int, if it is an integer that fits the header's unsigned 64 bits."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValidationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _workers(chunks: int) -> int:
    """Threads to run `chunks` chunks on: one per CPU this process may run
    on, at most one per chunk."""
    # sched_getaffinity is missing outside Linux and a few other Unixes
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, chunks)


def _map_chunks(fn, chunks: int, idle: list) -> list:
    """[fn(0, b), ..., fn(chunks - 1, b)] on one thread per buffer of `idle`.

    Each call holds one buffer b of `idle` while it runs, so no two calls
    share one.  The caller allocates them (what worker threads allocate
    stays in their malloc arenas), one per thread: at most len(idle) calls
    run at once, so `idle` never runs dry.
    """
    def run(chunk_index: int):
        buffers = idle.pop()
        try:
            return fn(chunk_index, buffers)
        finally:
            idle.append(buffers)

    if len(idle) == 1:
        return list(map(run, range(chunks)))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(idle)) as pool:
        return list(pool.map(run, range(chunks)))


def simulate(params: NetworkParams, n: int, seed: int) -> SymbolBlock:
    """Draw n symbols through the network's exact joint outcome model.

    The chunks are filled concurrently, one thread per CPU this process may
    run on; the block does not depend on their number.
    """
    if n < 1:
        raise ValidationError("need at least one symbol")
    seed = check_seed(seed)
    cov = classical_outcome_cov(params)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ModelError("classical outcome covariance is not positive definite") from exc
    m = params.n_users
    chunks = (n + CHUNK - 1) // CHUNK
    try:
        columns = np.empty((2 + 2 * m, n))
        # One draw and one product buffer per worker.  A pair is the size of
        # one chunk's columns and workers <= chunks, so the buffers stay under
        # the block plus a chunk.
        idle = [(np.empty((min(n, CHUNK), m + 1)), np.empty((min(n, CHUNK), m + 1)))
                for _ in range(_workers(chunks))]
    except (ValueError, MemoryError):
        raise ValidationError(f"cannot allocate a block of n={n} symbols for M={m} users") from None

    def fill(chunk_index: int, buffers: tuple[np.ndarray, np.ndarray]) -> None:
        start = chunk_index * CHUNK
        stop = min(start + CHUNK, n)
        rng = _chunk_rng(seed, chunk_index)
        z, y = (b[: stop - start] for b in buffers)
        # draw order fixed: x block first, then p block; rows (s, y_1..y_M)
        # of each quadrature in block-file order
        for s_row, y_rows in ((0, slice(2, 2 + m)), (1, slice(2 + m, 2 + 2 * m))):
            rng.standard_normal(out=z)
            np.matmul(z, chol.T, out=y)
            # transposed in TILE rows, which stay in cache while they are copied
            for a in range(0, stop - start, TILE):
                tile = y[a : a + TILE]
                columns[s_row, start + a : start + a + len(tile)] = tile[:, 0]
                columns[y_rows, start + a : start + a + len(tile)] = tile[:, 1:].T

    _map_chunks(fill, chunks, idle)
    return SymbolBlock(columns=columns, seed=seed)


MIN_ESTIMATION_SYMBOLS = 1000


def estimate(block: SymbolBlock, k: int) -> tuple[float, float]:
    """(t_hat, sigma2_hat) of user k's outcome model y = t s + n.

    t_hat pools both quadratures: sum(s y) / sum(s^2).  sigma2_hat is the
    pooled residual variance sum((y - t_hat s)^2) / (2n).  Both are pooled
    from per-tile sums over fixed TILE column ranges (`_pool`), so their
    bits depend on the block alone, not on the CPU or BLAS thread count,
    and are those of `estimate_report`.
    """
    k = check_user_index(k, block.n_users)
    return _estimates(block, [k])[0]


def _estimates(block: SymbolBlock, users: list[int]) -> list[tuple[float, float]]:
    """(t_hat, sigma2_hat) of each of `users`, checked in the order Alice's
    power (reported against users[0]), then each user's t_hat and sigma2_hat."""
    if block.n < MIN_ESTIMATION_SYMBOLS:
        raise ValidationError(
            f"need at least {MIN_ESTIMATION_SYMBOLS} symbols for stable estimates, got {block.n}"
        )
    power, t_hat, sigma2_hat = _pool(block)
    _check_finite(power, users[0])
    if power <= 0.0:
        raise ValidationError("Alice symbols have zero empirical variance")
    for k in users:
        _check_finite(t_hat[k], k)
        _check_finite(sigma2_hat[k], k)
    return [(t_hat[k], sigma2_hat[k]) for k in users]


def _pool(block: SymbolBlock) -> tuple[float, list[float], list[float]]:
    """Alice's power sum(s^2), and t_hat and sigma2_hat of every user, unchecked.

    Tile c gives S_ss,c = sum(s^2), S_sy,c = sum(s y), its own slope
    t_c = S_sy,c / S_ss,c and RSS_c = sum((y - t_c s)^2) (`_tile_sums`).
    Pooled in tile order: t = sum S_sy,c / sum S_ss,c and
    RSS = sum [RSS_c + (t_c - t)^2 S_ss,c], exact since sum s (y - t_c s) = 0
    on each tile.  Unlike sum y^2 - t sum s y, that does not cancel away the
    residual of a noiseless block.
    """
    n, m = block.n, block.n_users
    chunks = (n + CHUNK - 1) // CHUNK
    idle = [np.empty((m, min(n, TILE))) for _ in range(_workers(chunks))]
    sums = np.concatenate(_map_chunks(lambda i, r: _tile_sums(block, i, r), chunks, idle))
    s_ss, s_sy, t_c, rss = np.split(sums, [1, 1 + m, 1 + 2 * m], axis=1)
    power = _in_tile_order(s_ss)[0]
    with np.errstate(all="ignore"):  # a non-finite sample is reported by the caller
        t_hat = _in_tile_order(s_sy) / power
        sigma2_hat = _in_tile_order(rss + (t_c - t_hat) ** 2 * s_ss) / (2 * n)
    return float(power), t_hat.tolist(), sigma2_hat.tolist()


def _in_tile_order(rows: np.ndarray) -> np.ndarray:
    """Sum of `rows` over axis 0, added one row after another (np.sum may
    add pairwise, in an order that depends on the array's shape)."""
    return np.add.accumulate(rows, axis=0)[-1]


def _tile_sums(block: SymbolBlock, chunk_index: int, r: np.ndarray) -> np.ndarray:
    """One row (S_ss, S_sy, t_c, RSS_c) per TILE of chunk `chunk_index`, the
    last three for every user: S_sy = sum(y_x s_x + y_p s_p), and the rest
    likewise over both quadratures.  `r` is an (M, TILE) residual buffer."""
    columns, m = block.columns, block.n_users
    start = chunk_index * CHUNK
    stop = min(start + CHUNK, block.n)
    y_x, y_p = columns[2 : 2 + m], columns[2 + m :]
    sums = np.empty(((stop - start + TILE - 1) // TILE, 1 + 3 * m))
    # errstate is per thread: a non-finite sample must reach the caller's
    # check as a value, not print a RuntimeWarning (inf - inf in a residual)
    with np.errstate(invalid="ignore", over="ignore"):
        for row, a in zip(sums, range(start, stop, TILE)):
            b = min(a + TILE, stop)
            s_x, s_p = columns[0, a:b], columns[1, a:b]
            s_ss = _dot(s_x, s_x) + _dot(s_p, s_p)
            s_sy = np.einsum("ij,j->i", y_x[:, a:b], s_x) + np.einsum("ij,j->i", y_p[:, a:b], s_p)
            # a tile whose symbols are all zero adds nothing to the pooled sums, whatever its t_c
            t_c = s_sy / s_ss if s_ss else np.zeros(m)
            residual = r[:, : b - a]
            rss = np.zeros(m)
            for y, s in ((y_x, s_x), (y_p, s_p)):
                np.multiply(t_c[:, None], s, out=residual)
                np.subtract(y[:, a:b], residual, out=residual)
                rss += np.einsum("ij,ij->i", residual, residual)
            row[0] = s_ss
            row[1 : 1 + m] = s_sy
            row[1 + m : 1 + 2 * m] = t_c
            row[1 + 2 * m :] = rss
    return sums


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """sum(a b), summed by numpy's own loop: BLAS would split a long sum
    across its threads, so its last bits would depend on their number."""
    return np.einsum("i,i->", a, b)


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
    """Estimates, intervals and worst-case corners for every user of a block drawn on `params`."""
    if block.n_users != params.n_users:
        raise ConfigError(f"block has {block.n_users} users but config describes {params.n_users}")
    estimates = _estimates(block, list(range(block.n_users)))
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
    """Write `block` to `path` in the CVNB layout (header, then its columns).

    A regular file is rewritten in place, not truncated to zero first: a
    header of zero bytes, the payload, a truncate at its end, and the real
    header last.  So until the payload is whole the file has no magic, and
    `read_block` rejects a file whose write stopped part-way.  Any other
    target (a pipe, /dev/null) gets the header and payload as one stream.
    Nothing is fsynced.
    """
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, block.n, block.n_users, block.seed)
    payload = np.ascontiguousarray(block.columns, dtype="<f8")  # no copy when already <f8
    # no O_TRUNC: truncating a large file to zero makes the filesystem flush it first
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            fh.write(header)
            fh.write(payload)
            return
        fh.write(bytes(len(header)))
        fh.write(payload)
        fh.truncate()
        fh.seek(0)
        fh.write(header)


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
