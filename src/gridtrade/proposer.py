"""Participant-side trade formation.

A group's best joint move is found by an exact linear program over the
piecewise-linear utilities: maximise the group's expected utility gain
subject to per-scenario balance, the operator's announced loading-vector
directions, injection bounds, and day-ahead commitment.  Imposing the
announced directions inside the search (rather than filtering afterwards)
guarantees the operator will accept a positive fraction of the trade.

Only a whole-market search can certify termination; subset strategies fall
back to one such search when their own attempts come up empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import lp
from .dispatch import welfare_program
from .market import Market
from .network import LoadingMatrix, build_loading_matrix
from .participants import evaluate_utility
from .trading import Certificate, Trade, TradingState

__all__ = [
    "ProposerStrategy",
    "GroupSampler",
    "find_worthy_fd_trade",
    "FullGroupProposer",
    "SubsetProposer",
    "make_proposer",
]

_ENTRY_EPS = 1e-11


@dataclass(frozen=True)
class ProposerStrategy:
    """Group-formation policy: whole market, all small subsets, or sampling."""

    mode: str = "full_group"
    max_size: int = 2
    attempts: int = 20
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full_group", "exhaustive_subsets", "random_subsets"):
            raise ValueError(f"unknown proposer mode {self.mode!r}")
        if self.max_size < 2:
            raise ValueError("max_size must be >= 2")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


class GroupSampler:
    """Draws candidate trading groups according to a strategy.

    Exhaustive mode walks all subsets of size 2..max_size in lexicographic
    order across successive calls, then wraps around.  Random mode first
    draws a size, then a subset, so every admissible subset has positive
    probability.
    """

    def __init__(self, strategy: ProposerStrategy, participant_ids: tuple[str, ...]):
        if len(participant_ids) < 2:
            raise ValueError("need at least two participants to form groups")
        self.strategy = strategy
        self.ids = tuple(participant_ids)
        self._cycle: "itertools.cycle | None" = None
        if strategy.mode == "exhaustive_subsets":
            subsets = [
                combo
                for size in range(2, min(strategy.max_size, len(self.ids)) + 1)
                for combo in itertools.combinations(self.ids, size)
            ]
            self._subsets = subsets
            self._cycle = itertools.cycle(subsets)

    @property
    def cycle_length(self) -> int:
        return len(self._subsets) if self._cycle is not None else 1

    def sample(self, rng: np.random.Generator) -> tuple[str, ...]:
        mode = self.strategy.mode
        if mode == "full_group":
            return self.ids
        if mode == "exhaustive_subsets":
            return next(self._cycle)
        size = int(rng.integers(2, min(self.strategy.max_size, len(self.ids)) + 1))
        members = rng.choice(len(self.ids), size=size, replace=False)
        return tuple(self.ids[i] for i in sorted(members))


def find_worthy_fd_trade(
    group: tuple[str, ...],
    state: TradingState,
    announcements: tuple[tuple[int, ...], ...],
    epsilon: float,
    market: Market,
    lm: LoadingMatrix,
) -> tuple[Trade | None, float]:
    """Best balanced feasible-direction move for ``group``.

    Returns ``(trade, optimum)`` when the utility improvement reaches
    ``epsilon``, else ``(None, optimum)``: the optimum is the exact best
    improvement available to this group at this state, so a value below
    ``epsilon`` from the full group certifies termination.
    """
    members = [market.participant(pid) for pid in sorted(set(group))]
    y = np.array([state.y[p.id] for p in members])
    base_utility = sum(
        evaluate_utility(p, plan, p.weights(market.scenarios)) for p, plan in zip(members, y)
    )
    program = welfare_program(
        market, members, y, lm, announcements, [np.zeros(len(rows)) for rows in announcements]
    )
    sol = lp.solve(program)
    if sol.status != "optimal":
        raise lp.LpError(f"trade search LP ended with status {sol.status}")
    optimum = sol.objective - base_utility
    if optimum < epsilon:
        return None, optimum
    deltas = sol.x[: y.size].reshape(y.shape)
    deltas[np.abs(deltas) < _ENTRY_EPS] = 0.0
    return Trade({p.id: d for p, d in zip(members, deltas) if np.any(d != 0.0)}), optimum


class FullGroupProposer:
    """Always searches over the whole market; certifies when below epsilon."""

    def __init__(self, lm: LoadingMatrix | None = None):
        self._lm = lm

    def _loading(self, market: Market) -> LoadingMatrix:
        if self._lm is None:
            self._lm = build_loading_matrix(market.network)
        return self._lm

    def propose(self, market, state, announcements, epsilon, rng):
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, epsilon, market, self._loading(market)
        )
        if trade is None:
            return Certificate(optimum)
        return trade


class SubsetProposer:
    """Tries small groups first; one whole-market search settles termination."""

    def __init__(self, strategy: ProposerStrategy, lm: LoadingMatrix | None = None):
        self.strategy = strategy
        self._lm = lm
        self._sampler: GroupSampler | None = None
        self._own_rng = (
            np.random.default_rng(strategy.seed) if strategy.seed is not None else None
        )

    def _loading(self, market: Market) -> LoadingMatrix:
        if self._lm is None:
            self._lm = build_loading_matrix(market.network)
        return self._lm

    def propose(self, market, state, announcements, epsilon, rng):
        rng = self._own_rng if self._own_rng is not None else rng
        if self._sampler is None:
            self._sampler = GroupSampler(self.strategy, market.participant_ids)
        lm = self._loading(market)
        tries = (
            self._sampler.cycle_length
            if self.strategy.mode == "exhaustive_subsets"
            else self.strategy.attempts
        )
        for _ in range(tries):
            group = self._sampler.sample(rng)
            trade, optimum = find_worthy_fd_trade(group, state, announcements, epsilon, market, lm)
            if trade is not None:
                return trade
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, epsilon, market, lm
        )
        if trade is None:
            return Certificate(optimum)
        return trade


def make_proposer(strategy: ProposerStrategy, lm: LoadingMatrix | None = None):
    if strategy.mode == "full_group":
        return FullGroupProposer(lm)
    return SubsetProposer(strategy, lm)
