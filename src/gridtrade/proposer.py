"""Participant-side trade formation.

A group's best joint move is found by an exact linear program over the
piecewise-linear utilities: maximise the group's expected utility gain
subject to per-scenario balance, the operator's announced loading-vector
directions, injection bounds, and day-ahead commitment.  Imposing the
announced directions inside the search (rather than filtering afterwards)
guarantees the operator will accept a positive fraction of the trade.

One :class:`Proposer` serves every strategy.  Its sampler yields the groups
a call searches first: none for the full group, one cycle of small subsets
for exhaustive search, ``attempts`` random draws otherwise.  The call then
ends with a whole-market search, the only search that can certify
termination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lp
from .dispatch import welfare_program
from .market import Market
from .network import LoadingMatrix, build_loading_matrix
from .participants import evaluate_utility
from .trading import Certificate, Trade, TradingState

__all__ = [
    "ProposerStrategy",
    "Proposer",
    "find_worthy_fd_trade",
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
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


class Proposer:
    """Searches the strategy's groups in turn, then the whole market.

    Only the whole-market search can certify termination: when no earlier
    group has a worthy trade, its optimum below epsilon is returned as a
    :class:`Certificate`.
    """

    def __init__(self, strategy: ProposerStrategy, lm: LoadingMatrix | None = None):
        self.strategy = strategy
        self._lm = lm
        self._subsets: tuple[Iterator[tuple[str, ...]], int] | None = None
        self._own_rng = (
            np.random.default_rng(strategy.seed) if strategy.seed is not None else None
        )

    def groups(self, ids: tuple[str, ...], rng: np.random.Generator) -> Iterator[tuple[str, ...]]:
        """The groups one ``propose`` call searches before the whole market.

        Full group: none.  Exhaustive: one cycle through all subsets of size
        2..max_size in lexicographic order, resuming where the last call
        stopped.  Random: ``attempts`` draws of a size, then a subset of that
        size, so every admissible subset has positive probability.  Groups
        are drawn lazily, so a call that stops early consumes only what it
        searched.  A market of one participant has no subsets to search.
        """
        strategy = self.strategy
        top = min(strategy.max_size, len(ids))
        if strategy.mode == "exhaustive_subsets":
            if self._subsets is None:
                subsets = [
                    combo
                    for size in range(2, top + 1)
                    for combo in itertools.combinations(ids, size)
                ]
                self._subsets = itertools.cycle(subsets), len(subsets)
            cycle, length = self._subsets
            return itertools.islice(cycle, length)
        if strategy.mode == "random_subsets" and top >= 2:
            rng = self._own_rng if self._own_rng is not None else rng
            return (_draw(ids, top, rng) for _ in range(strategy.attempts))
        return iter(())

    def propose(self, market, state, announcements, epsilon, rng):
        if self._lm is None:
            self._lm = build_loading_matrix(market.network)
        for group in self.groups(market.participant_ids, rng):
            trade, _ = find_worthy_fd_trade(group, state, announcements, epsilon, market, self._lm)
            if trade is not None:
                return trade
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, epsilon, market, self._lm
        )
        return Certificate(optimum) if trade is None else trade


def _draw(ids: tuple[str, ...], top: int, rng: np.random.Generator) -> tuple[str, ...]:
    size = int(rng.integers(2, top + 1))
    members = rng.choice(len(ids), size=size, replace=False)
    return tuple(ids[i] for i in sorted(members))


def make_proposer(strategy: ProposerStrategy, lm: LoadingMatrix | None = None) -> Proposer:
    return Proposer(strategy, lm)
