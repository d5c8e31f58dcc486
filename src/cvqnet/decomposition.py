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
the joint rate is the lookup of v(all).  A table first collects the prefix
coalitions of all its orderings and evaluates them one layer (coalition
size) at a time: the whole layer is measured from the layer below in one
stacked `measure_reference_user_blocks` step on the states' x and p blocks,
its entropies come from one `block_entropies` call, and each coalition
adds one closed-form I(A : y_S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GuardRefusalError, ValidationError
from .gaussian import block_entropies, von_neumann_entropy
from .keyrates import (
    _mode_delta,
    _outcome_information,
    _outcome_snrs,
    measure_reference_user_blocks,
)
from .network import NetworkParams, build_channel_output_cm
from .simulate import check_seed

MAX_ENUMERATED_USERS = 8


class CoalitionValues:
    """The set function v(S) of one network, memoised per coalition.

    `fill(orders)` evaluates every prefix coalition of the orders, one layer
    (coalition size) at a time; only the layer being measured from is held,
    as (B, n, n) x and p blocks.  `terms` maps each coalition evaluated to
    (I(A : y_S), S(sigma_S)).  Each step S -> S + {k} of a prefix chain is
    checked and built once and then looked up, so chains share their
    coalitions.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self._snrs = _outcome_snrs(params)
        self._eta_d = np.full(params.n_users, params.detector_efficiency)
        self._nu_el = np.array([params.trusted_noise(k) for k in range(params.n_users)])
        self._root = build_channel_output_cm(params)
        self.terms = {frozenset(): (0.0, von_neumann_entropy(self._root))}
        self._steps: dict[tuple[frozenset, int], frozenset] = {}  # (S, k) -> S + {k}

    def _chain(self, order: Sequence[int]) -> list[frozenset]:
        """Coalitions of the first 0, 1, ..., len(order) users of `order`."""
        chain = [frozenset()]
        for k in order:
            parent = chain[-1]
            grown = self._steps.get((parent, k))
            if grown is None:
                if not 0 <= k < self.params.n_users or k in parent:
                    raise ValidationError(f"user {k} cannot join the coalition {set(parent)}")
                grown = self._steps[parent, k] = parent | {k}
            chain.append(grown)
        return chain

    def fill(self, orders: Iterable[Sequence[int]]) -> None:
        """Add the prefix coalitions of `orders` that `terms` lacks.

        If any is missing, the layers are built up from the channel output,
        each coalition measured from the prefix it first follows; coalitions
        already in `terms` keep their values.  A layer is one stacked step in
        which every member measures its own mode behind its own receiver.  A
        measured mode leaves the state and its ancilla goes last, so user k
        sits at its channel-output position k + 1 in (A, B1..BM) less the
        measured users before it.
        """
        m = self.params.n_users
        layers = [{} for _ in range(m)]  # by size - 1: coalition -> (parent, joining user)
        for order in orders:
            chain = self._chain(order)
            for layer, parent, grown, k in zip(layers, chain, chain[1:], order):
                layer.setdefault(grown, (parent, k))
        layers = [layer for layer in layers if layer]
        if all(coalition in self.terms for layer in layers for coalition in layer):
            return
        gamma = self._root.matrix
        x, p = gamma[None, 0::2, 0::2], gamma[None, 1::2, 1::2]
        position = {frozenset(): 0}
        for layer in layers:
            parents = np.array([position[parent] for parent, _ in layer.values()])
            joining = np.array([k for _, k in layer.values()])
            index = np.array([k + 1 - sum(j < k for j in parent) for parent, k in layer.values()])
            x, p = measure_reference_user_blocks(
                x[parents], p[parents], index, self._eta_d[joining], self._nu_el[joining]
            )
            for coalition, entropy in zip(layer, block_entropies(x, p).tolist()):
                if coalition not in self.terms:
                    info = _outcome_information(self._snrs, coalition)
                    self.terms[coalition] = (info, entropy)
            position = {coalition: i for i, coalition in enumerate(layer)}

    def prefixes(self, order: Sequence[int]) -> list[frozenset]:
        """Coalitions of the first 0, 1, ..., len(order) users of `order`,
        each evaluated."""
        chain = self._chain(order)
        if any(coalition not in self.terms for coalition in chain):
            self.fill([order])
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
    table's `coalitions`, filled with every prefix of its orderings, to read
    the row from it; prefixes it lacks are evaluated along this order.
    """
    order = tuple(map(int, order))
    delta = _mode_delta(params, mode)
    if coalitions is None:
        coalitions = CoalitionValues(params)
    elif coalitions.params != params:
        raise ValidationError("coalition values belong to a different network")
    chain = coalitions.prefixes(order)
    if len(chain) != params.n_users + 1:  # with distinct users in range: a permutation
        raise ValidationError(
            f"ordering must be a permutation of 0..{params.n_users - 1}, got {order}"
        )
    values = [coalitions.value(coalition) for coalition in chain]
    contributions = tuple(after - before - delta for before, after in zip(values, values[1:]))
    return DecompositionRow(order, contributions, float(sum(contributions)))


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
    orders = [tuple(map(int, order)) for order in orders]
    if not orders:
        raise ValidationError("need at least one ordering")
    coalitions = CoalitionValues(params)
    coalitions.fill(orders)
    rows = tuple(decompose(params, order, mode, coalitions) for order in orders)
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
