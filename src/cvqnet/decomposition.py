"""Joint network key rate and its exact chain-rule split into per-user parts.

Both are views of one set function on coalitions S of users,
v(S) = beta * I(A : y_S) - [S(sigma_0) - S(sigma_S)], where y_S are the
outcomes of the users in S and sigma_S is the retained system (Alice, the
users outside S and the trusted-receiver ancillae of those in S) conditioned
on y_S.  Along an ordering, the user k joining the earlier users S adds
K_k = v(S + {k}) - v(S) - Delta(N), so every ordering sums to the joint rate
v(all) - M * Delta(N) and the first user's share is its trusted rate:
`holevo_trusted` reads chi({k}) from the same `CoalitionValues`
(`cvqnet.keyrates`).  Gaussian conditioning commutes, so sigma_S depends on
the set S only: `CoalitionValues` evaluates v once per coalition, keyed by
its user bitmask, and the joint rate is the lookup of v(all).  Each table
builds a fresh one on the channel output; it is not shared across tables,
since a full lattice holds 2^M coalitions.  A table first collects the
prefix coalitions of all its orderings and evaluates them one layer
(coalition size) at a time: the whole layer is measured from the layer
below in one stacked `measure_reference_user_blocks` step on the states' x
blocks, its entropies come from one `block_entropies` call on X and
P = J X J, and each coalition adds one closed-form I(A : y_S).  Then all R
rows are one array step: the (R, M + 1) prefix coalitions index one value
vector v, and the contributions are (v[:, 1:] - v[:, :-1]) - Delta(N).
`decompose` is that step with R = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardRefusalError, ValidationError
from .keyrates import CoalitionValues, _mode_delta
from .network import NetworkParams, build_channel_output_cm
from .simulate import check_seed

MAX_ENUMERATED_USERS = 8


@dataclass(frozen=True)
class DecompositionRow:
    order: tuple[int, ...]  # 0-based user indices
    contributions: tuple[float, ...]  # K at each position of `order`
    row_sum: float


def decompose(
    params: NetworkParams,
    order: Sequence[int],
    mode: str = "finite",
    coalitions: CoalitionValues | None = None,
) -> DecompositionRow:
    """Per-user contributions along one conditioning order.

    In finite mode one Delta(N) share is charged per user so the row sums to
    the joint finite-size rate, which carries M * Delta(N).  Pass the
    table's `coalitions`, filled with every prefix of its orderings, to read
    the row from it; prefixes it lacks are evaluated along this order.
    """
    order = tuple(map(params.check_user, order))
    delta = _mode_delta(params, mode)
    if coalitions is None:
        coalitions = CoalitionValues(params, build_channel_output_cm(params))
    elif coalitions.params != params:
        raise ValidationError("coalition values belong to a different network")
    return _rows(coalitions, [order], delta)[0]


def _rows(coalitions: CoalitionValues, orders: list, delta: float) -> tuple[DecompositionRow, ...]:
    """The rows of `orders`, tuples of checked user indices, in one array
    step: v of the (R, M + 1) prefix coalitions, and (v[:, 1:] - v[:, :-1]) - delta."""
    m = coalitions.params.n_users
    chains = coalitions.fill(orders)
    for order, chain in zip(orders, chains):
        if len(chain) != m + 1:  # with distinct users in range: a permutation
            raise ValidationError(f"ordering must be a permutation of 0..{m - 1}, got {order}")
    values = coalitions.values(chains)
    rows = ((values[:, 1:] - values[:, :-1]) - delta).tolist()
    return tuple(DecompositionRow(order, tuple(row), sum(row)) for order, row in zip(orders, rows))


@dataclass(frozen=True)
class DecompositionTable:
    rows: tuple[DecompositionRow, ...]
    joint_rate: float


def decomposition_table(
    params: NetworkParams, orders: Iterable[Sequence[int]], mode: str = "finite"
) -> DecompositionTable:
    """Decomposition rows of the given orderings and the joint rate.  The rows
    share one `CoalitionValues`, filled with every prefix coalition of the
    orderings before the first row; v(all) is the coalition every row ends on."""
    return _table(params, [tuple(map(params.check_user, order)) for order in orders], mode)


def _table(params: NetworkParams, orders: list[tuple[int, ...]], mode: str) -> DecompositionTable:
    """`decomposition_table` of orders of checked user indices."""
    if not orders:
        raise ValidationError("need at least one ordering")
    coalitions = CoalitionValues(params, build_channel_output_cm(params))
    rows = _rows(coalitions, orders, _mode_delta(params, mode))
    return DecompositionTable(rows, _joint_rate(coalitions, mode).rate)


def all_orderings(params: NetworkParams, mode: str = "finite") -> DecompositionTable:
    """Decomposition rows for every permutation (lexicographic order).

    Refuses above MAX_ENUMERATED_USERS users (factorial blow-up); sample
    orderings with `sample_orderings` instead.
    """
    m = params.n_users
    if m > MAX_ENUMERATED_USERS:
        raise GuardRefusalError(
            f"{m}! orderings is too many to enumerate (cap {MAX_ENUMERATED_USERS}); "
            "sample orderings instead (sample_orderings, or --orders sample:K)"
        )
    return _table(params, list(itertools.permutations(range(m))), mode)


def sample_orderings(
    params: NetworkParams, count: int, seed: int = 0, mode: str = "finite"
) -> DecompositionTable:
    """Decomposition over `count` random orderings (fixed-seed sampling)."""
    rng = np.random.default_rng(check_seed(seed))
    orders = [tuple(rng.permutation(params.n_users).tolist()) for _ in range(count)]
    return _table(params, orders, mode)


@dataclass(frozen=True)
class JointKeyRate:
    rate: float
    mutual_information: float
    holevo: float
    delta_total: float


def _joint_rate(coalitions: CoalitionValues, mode: str) -> JointKeyRate:
    """v(all) - M * Delta(N) with its parts read from the memo."""
    p = coalitions.params
    delta_total = p.n_users * _mode_delta(p, mode)
    full = (1 << p.n_users) - 1
    if full not in coalitions.terms:
        coalitions.prefixes(range(p.n_users))
    info = coalitions.terms[full][0]
    chi = coalitions.holevo(full)
    return JointKeyRate(p.beta * info - chi - delta_total, info, chi, delta_total)


def joint_key_rate(params: NetworkParams, mode: str = "finite") -> JointKeyRate:
    """Joint rate beta * I(A:all) - chi(all:E) - M * Delta(N).

    chi = S(sigma_0) - S(sigma_all), the retained system conditioned on every
    user in turn; sequential and joint Gaussian conditioning coincide, so it
    is the value every decomposition row sums to.
    """
    return _joint_rate(CoalitionValues(params, build_channel_output_cm(params)), mode)
