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
the set S only.

A `CoalitionValues` is measured once, at construction, from its orders:
each prefix coalition once, keyed by its user bitmask.  The layers
(coalition sizes) are measured one at a time.  A whole layer is one stacked
`measure_reference_user_blocks` step from the layer below, on the states' x
blocks.  Its entropies come from one `block_entropies` call on X and
P = J X J, and each coalition adds one closed-form I(A : y_S).  Each table
measures a fresh one on the channel output, since a full lattice holds 2^M
coalitions.  Then all R rows are one array step: the (R, M + 1) prefix
coalitions index one value vector v, and the contributions are
(v[:, 1:] - v[:, :-1]) - Delta(N).  `decompose` is the table of one order,
and the joint rate is v(all), measured along the identity order.

Every table holds at most 8! = 40,320 rows, the orderings of
MAX_ENUMERATED_USERS users: the orders are drawn lazily, and the one more
that would exceed the cap raises GuardRefusalError before any is measured.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardRefusalError, ValidationError
from .keyrates import CoalitionValues, _mode_delta
from .network import NetworkParams, build_channel_output_cm, check_integer
from .simulate import check_seed

MAX_ENUMERATED_USERS = 8


@dataclass(frozen=True)
class DecompositionRow:
    order: tuple[int, ...]  # 0-based user indices
    contributions: tuple[float, ...]  # K at each position of `order`
    row_sum: float


def decompose(
    params: NetworkParams, order: Sequence[int], mode: str = "finite"
) -> DecompositionRow:
    """Per-user contributions along one conditioning order: the one row of
    its own table.

    In finite mode one Delta(N) share is charged per user so the row sums to
    the joint finite-size rate, which carries M * Delta(N).
    """
    return decomposition_table(params, [order], mode).rows[0]


@dataclass(frozen=True)
class DecompositionTable:
    rows: tuple[DecompositionRow, ...]
    joint_rate: float


def decomposition_table(
    params: NetworkParams, orders: Iterable[Sequence[int]], mode: str = "finite"
) -> DecompositionTable:
    """Decomposition rows of the given orderings and the joint rate.  The rows
    share one `CoalitionValues`, measured on every prefix coalition of the
    orderings; v(all) is the coalition every row ends on.  A short order is
    rejected here and a repeated user by that constructor, before any layer."""
    m = params.n_users

    def checked(order):
        order = tuple(map(params.check_user, order))
        if len(set(order)) == len(order) != m:  # distinct users in range, too few
            raise ValidationError(f"ordering must be a permutation of 0..{m - 1}, got {order}")
        return order

    return _table(params, map(checked, orders), mode)


def _table(params: NetworkParams, orders: Iterable[tuple[int, ...]], mode: str) -> DecompositionTable:
    """`decomposition_table` of orders of checked user indices, each a
    permutation or holding a repeated user.  More than MAX_ENUMERATED_USERS!
    orders raise GuardRefusalError; at most one more is drawn.  All R rows are
    one array step: v of the (R, M + 1) prefix coalitions, and
    (v[:, 1:] - v[:, :-1]) - Delta(N)."""
    cap = math.factorial(MAX_ENUMERATED_USERS)
    orders = list(itertools.islice(orders, cap + 1))
    if len(orders) > cap:
        raise GuardRefusalError(
            f"a decomposition table holds at most {cap:,} rows, the orderings of "
            f"{MAX_ENUMERATED_USERS} users; sample at most {cap:,} orderings "
            "(sample_orderings, or --orders sample:K)"
        )
    if not orders:
        raise ValidationError("need at least one ordering")
    delta = _mode_delta(params, mode)
    coalitions = CoalitionValues(params, build_channel_output_cm(params), orders)
    values = coalitions.values(coalitions.chains)
    contributions = ((values[:, 1:] - values[:, :-1]) - delta).tolist()
    rows = tuple(
        DecompositionRow(order, tuple(row), sum(row)) for order, row in zip(orders, contributions)
    )
    return DecompositionTable(rows, _joint_rate(coalitions, delta).rate)


def all_orderings(params: NetworkParams, mode: str = "finite") -> DecompositionTable:
    """Decomposition rows for every permutation (lexicographic order).

    Above MAX_ENUMERATED_USERS users the M! rows exceed the table cap and
    raise GuardRefusalError; sample orderings with `sample_orderings` instead.
    """
    return _table(params, itertools.permutations(range(params.n_users)), mode)


def sample_orderings(
    params: NetworkParams, count: int, seed: int = 0, mode: str = "finite"
) -> DecompositionTable:
    """Decomposition over `count` random orderings (fixed-seed sampling).

    A `count` above the table cap, MAX_ENUMERATED_USERS! = 40,320, raises
    GuardRefusalError once one more ordering than that has been drawn.
    """
    rng = np.random.default_rng(check_seed(seed))
    count = check_integer("count", count)
    orders = (tuple(rng.permutation(params.n_users).tolist()) for _ in range(count))
    return _table(params, orders, mode)


@dataclass(frozen=True)
class JointKeyRate:
    rate: float
    mutual_information: float
    holevo: float
    delta_total: float


def _joint_rate(coalitions: CoalitionValues, delta: float) -> JointKeyRate:
    """v(all) - M * Delta(N), with Delta(N) = `delta`, and its parts."""
    p = coalitions.params
    delta_total = p.n_users * delta
    full = (1 << p.n_users) - 1
    info = coalitions.terms[full][0]
    chi = coalitions.holevo(full)
    return JointKeyRate(p.beta * info - chi - delta_total, info, chi, delta_total)


def joint_key_rate(params: NetworkParams, mode: str = "finite") -> JointKeyRate:
    """Joint rate beta * I(A:all) - chi(all:E) - M * Delta(N).

    chi = S(sigma_0) - S(sigma_all), the retained system conditioned on every
    user in turn (measured along the identity order); sequential and joint
    Gaussian conditioning coincide, so it is the value every decomposition
    row sums to.
    """
    delta = _mode_delta(params, mode)
    identity = [tuple(range(params.n_users))]
    return _joint_rate(CoalitionValues(params, build_channel_output_cm(params), identity), delta)
