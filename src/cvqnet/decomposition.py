"""Joint network key rate and its exact chain-rule split into per-user parts.

Both are views of one set function on coalitions S of users,
v(S) = beta * I(A : y_S) - [S(sigma_0) - S(sigma_S)], where y_S are the
outcomes of the users in S and sigma_S is the retained system (Alice, the
users outside S and the trusted-receiver ancillae of those in S) conditioned
on y_S.  Along an ordering, the user k joining the earlier users S adds
K_k = v(S + {k}) - v(S) - Delta(N), so every ordering sums to the joint rate
v(all) - M * Delta(N) and the first user's share is its trusted rate.
Gaussian conditioning commutes, so sigma_S depends on the set S only:
`CoalitionValues` evaluates v once per coalition, a row is M lookups and
the joint rate is the lookup of v(all).  Each new coalition costs one
closed-form `measure_reference_user` step from its parent's state and one
closed-form I(A : y_S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardRefusalError, ValidationError
from .gaussian import von_neumann_entropy
from .keyrates import _mode_delta, _outcome_information, _outcome_snrs, measure_reference_user
from .network import NetworkParams, build_channel_output_cm, user_label
from .simulate import check_seed

MAX_ENUMERATED_USERS = 8


def _check_ordering(params: NetworkParams, order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(params.n_users)):
        raise ValidationError(
            f"ordering must be a permutation of 0..{params.n_users - 1}, got {order}"
        )
    return order


class CoalitionValues:
    """The set function v(S) of one network, memoised per coalition.

    Coalitions are filled lazily as orderings are walked: S + {k} is
    conditioned from the cached state of S with one `measure_reference_user`
    step.  `terms` maps each coalition seen to (I(A : y_S), S(sigma_S)).
    Keep one instance per table: it holds a state per coalition.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self._snrs = _outcome_snrs(params)
        state = build_channel_output_cm(params)
        self._states = {frozenset(): state}
        self.terms = {frozenset(): (0.0, von_neumann_entropy(state))}

    def prefixes(self, order: Sequence[int]) -> list[frozenset]:
        """Coalitions of the first 0, 1, ..., len(order) users of `order`."""
        chain = [frozenset()]
        for k in order:
            parent = chain[-1]
            grown = parent | {k}
            if grown not in self.terms:
                p = self.params
                state = measure_reference_user(
                    self._states[parent], user_label(k), p.detector_efficiency, p.trusted_noise(k)
                )
                if len(grown) < p.n_users:  # the full coalition is nobody's parent
                    self._states[grown] = state
                info = _outcome_information(self._snrs, grown)
                self.terms[grown] = (info, von_neumann_entropy(state))
            chain.append(grown)
        return chain

    def value(self, coalition: frozenset) -> float:
        """v(S) = beta * I(A : y_S) - [S(sigma_0) - S(sigma_S)]."""
        info, entropy = self.terms[coalition]
        return self.params.beta * info - (self.terms[frozenset()][1] - entropy)


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
    table's `coalitions` to reuse the coalitions earlier rows filled.
    """
    order = _check_ordering(params, order)
    delta = _mode_delta(params, mode)
    if coalitions is None:
        coalitions = CoalitionValues(params)
    elif coalitions.params != params:
        raise ValidationError("coalition values belong to a different network")
    chain = coalitions.prefixes(order)
    contributions = tuple(
        coalitions.value(after) - coalitions.value(before) - delta
        for before, after in zip(chain, chain[1:])
    )
    return DecompositionRow(order, contributions, float(sum(contributions)))


@dataclass(frozen=True)
class DecompositionTable:
    rows: tuple[DecompositionRow, ...]
    joint_rate: float


def decomposition_table(
    params: NetworkParams, orders: Iterable[Sequence[int]], mode: str = "finite"
) -> DecompositionTable:
    """Decomposition rows of the given orderings and the joint rate.  The rows
    share one `CoalitionValues`, whose v(all) every row ends on."""
    coalitions = CoalitionValues(params)
    rows = tuple(decompose(params, order, mode, coalitions) for order in orders)
    if not rows:
        raise ValidationError("need at least one ordering")
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
    return decomposition_table(params, itertools.permutations(range(m)), mode)


def sample_orderings(
    params: NetworkParams, count: int, seed: int = 0, mode: str = "finite"
) -> DecompositionTable:
    """Decomposition over `count` random orderings (fixed-seed sampling)."""
    rng = np.random.default_rng(check_seed(seed))
    orders = (rng.permutation(params.n_users) for _ in range(count))
    return decomposition_table(params, orders, mode)


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
    full = frozenset(range(p.n_users))
    if full not in coalitions.terms:
        coalitions.prefixes(range(p.n_users))
    info, entropy = coalitions.terms[full]
    chi = coalitions.terms[frozenset()][1] - entropy
    return JointKeyRate(p.beta * info - chi - delta_total, info, chi, delta_total)


def joint_key_rate(params: NetworkParams, mode: str = "finite") -> JointKeyRate:
    """Joint rate beta * I(A:all) - chi(all:E) - M * Delta(N).

    chi = S(sigma_0) - S(sigma_all), the retained system conditioned on every
    user in turn; sequential and joint Gaussian conditioning coincide, so it
    is the value every decomposition row sums to.
    """
    return _joint_rate(CoalitionValues(params), mode)
