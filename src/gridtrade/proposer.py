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

Most sampled pairs have nothing worth trading, so a pair is screened before
its LP.  A balanced pair trade moves ``t[s] = d_a[s] = -d_b[s]`` (one ``t``
for all scenarios when a member is day-ahead), and each announced row is a
sign limit on ``t[s]``, so :func:`pair_bound` finds the pair's best gain
exactly with :func:`participants.scan_maximum` over the market's utility
table.  The LP is skipped when that optimum is below ``epsilon -
_SCREEN_MARGIN``.  Rows whose coefficient on ``t`` is within ``_COEF_TOL *
max|H|`` of zero are dropped, which only relaxes the scan; where it does not
apply (bounds crossed by round-off) the LP runs.  Trades and certificates
come from the LP alone.

Consecutive whole-market searches of a run pose the same LP but for bounds,
right-hand sides and the announced rows, so each starts from the last one's
optimal basis (:class:`WarmStart`), which the dual simplex repairs in a few
iterations.  No basis outlives a run: the first step of a run, and a new
market, start cold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lp
from .dispatch import welfare_program
from .market import Market
from .network import LoadingMatrix, own_loading_matrix
from .participants import UtilityTable, scan_maximum
from .trading import Certificate, Trade, TradingState, require_integers

__all__ = [
    "ProposerStrategy",
    "Proposer",
    "WarmStart",
    "find_worthy_fd_trade",
    "make_proposer",
    "pair_bound",
]

_ENTRY_EPS = 1e-11
# A pair's LP is skipped when its scanned optimum is below epsilon minus
# this margin ($), which covers the round-off of the scan and of HiGHS's
# objective.  Announced rows with |coefficient| at most _COEF_TOL * max|H|
# are dropped from the scan.
_SCREEN_MARGIN = 1e-8
_COEF_TOL = 1e-9


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
        require_integers(self, "max_size", "attempts")
        if self.seed is not None:
            require_integers(self, "seed")
        if self.max_size < 2:
            raise ValueError("max_size must be >= 2")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class WarmStart:
    """The last whole-market search's optimal basis and the announced ``(S, 2L)`` mask it was posed under.

    Searches of one group on one market share their columns and their
    segment, chain and balance rows; only the announced rows differ.
    :meth:`start` carries the basis over to a new mask: an announced row
    kept, matched by ``(scenario, row)``, keeps its status and a newly
    announced row enters basic.  A row dropped while nonbasic leaves one
    basic status too many, so the basis is then marked alien for HiGHS to
    repair.  A new instance starts cold.
    """

    def __init__(self) -> None:
        self.mask: np.ndarray | None = None
        self.basis = lp.COLD

    def start(self, mask: np.ndarray, n_ub: int) -> lp.Basis:
        """The starting basis of a search under ``mask`` with ``n_ub`` inequality rows."""
        if self.mask is None:
            return lp.COLD
        old, new = np.flatnonzero(self.mask), np.flatnonzero(mask)
        first = n_ub - new.size  # the segment rows come first, then the announced rows
        rows = self.basis.row_status
        lines = rows[first:first + old.size]
        kept = self.mask.ravel()[new].tolist()
        at = np.searchsorted(old, new).tolist()
        statuses = [lines[i] if k else lp.BASIC for i, k in zip(at, kept)]
        dropped = np.flatnonzero(~mask.ravel()[old]).tolist()
        alien = any(lines[i] != lp.BASIC for i in dropped)
        return lp.Basis(self.basis.col_status, rows[:first] + statuses + rows[first + old.size:], alien)

    def keep(self, mask: np.ndarray, basis: lp.Basis) -> None:
        self.mask, self.basis = mask, basis


def find_worthy_fd_trade(
    group: tuple[str, ...],
    state: TradingState,
    announcements: np.ndarray,
    epsilon: float,
    market: Market,
    warm: WarmStart | None = None,
) -> tuple[Trade | None, float]:
    """Best balanced feasible-direction move for ``group``.

    ``announcements`` is the operator's ``(S, 2L)`` binding mask: no
    announced row's loading may increase.  Returns ``(trade, optimum)``
    when the utility improvement reaches ``epsilon``, else ``(None,
    optimum)``: the optimum is the exact best improvement available to this
    group at this state, so a value below ``epsilon`` from the full group
    certifies termination.  A ``warm`` start, kept from earlier searches of
    the same group on the same market, seeds the LP and takes its optimal
    basis.
    """
    ids = sorted(set(group))
    table = market.table
    members = table.rows(ids)
    y = state.plans[members]
    base_utility = float(np.sum(table.weights[members] * table.value(members, y[..., None])[..., 0]))
    program = welfare_program(market, members, y, announcements, np.zeros(announcements.shape))
    # A plan may sit past its bound by round-off (within LOCAL_TOL); the
    # search's box must still contain d = 0, so staying put stays feasible.
    np.minimum(program.lower, 0.0, out=program.lower)
    np.maximum(program.upper, 0.0, out=program.upper)
    if warm is None:
        sol = lp.solve(program)
    else:
        sol = lp.solve(program, warm.start(announcements, program.b_ub.size))
    if sol.status != "optimal":
        raise lp.LpError(f"trade search LP ended with status {sol.status}")
    if warm is not None:
        warm.keep(announcements, sol.basis)
    optimum = sol.objective - base_utility
    if optimum < epsilon:
        return None, optimum
    deltas = sol.x[: y.size].reshape(y.shape)
    deltas[np.abs(deltas) < _ENTRY_EPS] = 0.0
    return Trade({pid: d for pid, d in zip(ids, deltas) if np.any(d != 0.0)}), optimum


def pair_bound(
    table: UtilityTable,
    pair: tuple[str, str],
    state: TradingState,
    announcements: np.ndarray,
    shift_factors: np.ndarray,
) -> float | None:
    """The pair's best utility gain by breakpoint scan, or ``None`` where it does not apply.

    Equals :func:`find_worthy_fd_trade`'s optimum for the pair up to
    round-off, or exceeds it where announced rows with a coefficient within
    ``_COEF_TOL * max|H|`` of zero were dropped (``H`` is ``shift_factors``).
    """
    i, j = table.rows(pair)
    ya, yb = state.plans[i], state.plans[j]
    lower = np.maximum(table.lower[i] - ya, yb - table.upper[j])
    upper = np.minimum(table.upper[i] - ya, yb - table.lower[j])
    scenario, rows = np.nonzero(announcements)
    if rows.size:
        coef = shift_factors[rows, table.bus[i]] - shift_factors[rows, table.bus[j]]
        tol = _COEF_TOL * np.max(np.abs(shift_factors))
        np.minimum.at(upper, scenario[coef > tol], 0.0)
        np.maximum.at(lower, scenario[coef < -tol], 0.0)
    ya, yb = ya[:, None], yb[:, None]
    kinks = np.concatenate([np.zeros_like(ya), table.breakpoints[i] - ya, yb - table.breakpoints[j]], axis=1)

    def gain(t):
        return (table.weights[i][:, None] * (table.value(i, ya + t) - table.value(i, ya))
                + table.weights[j][:, None] * (table.value(j, yb - t) - table.value(j, yb)))

    return scan_maximum(lower, upper, kinks, gain, bool(table.day_ahead[i] or table.day_ahead[j]))


class Proposer:
    """Searches the strategy's groups in turn, then the whole market.

    Only the whole-market search can certify termination: when no earlier
    group has a worthy trade, its optimum below epsilon is returned as a
    :class:`Certificate`.  Each whole-market search starts from the last
    one's basis of the same run.
    """

    def __init__(self, strategy: ProposerStrategy, lm: LoadingMatrix | None = None):
        self.strategy = strategy
        self._lm = lm
        self._market: Market | None = None
        self._subsets: tuple[Iterator[tuple[str, ...]], int] | None = None
        self._warm = WarmStart()
        self._own_rng = (
            np.random.default_rng(strategy.seed) if strategy.seed is not None else None
        )

    def _bind(self, market: Market) -> None:
        """Reset the subset cycle and the warm start when ``market`` is not the last one seen.

        A loading matrix given to the constructor must hold the first
        market's shift factors; it is checked there, then dropped.
        """
        if market is self._market:
            return
        if self._lm is not None:
            own_loading_matrix(market.network, self._lm)
            self._lm = None
        self._market = market
        self._subsets = None
        self._warm = WarmStart()

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
        self._bind(market)
        if not state.records:  # a run's first step: no basis from an earlier run
            self._warm = WarmStart()
        for group in self.groups(market.participant_ids, rng):
            if len(group) == 2:
                bound = pair_bound(market.table, group, state, announcements, market.network.shift_factors)
                if bound is not None and bound < epsilon - _SCREEN_MARGIN:
                    continue
            trade, _ = find_worthy_fd_trade(group, state, announcements, epsilon, market)
            if trade is not None:
                return trade
        trade, optimum = find_worthy_fd_trade(
            market.participant_ids, state, announcements, epsilon, market, self._warm
        )
        return Certificate(optimum) if trade is None else trade


def _draw(ids: tuple[str, ...], top: int, rng: np.random.Generator) -> tuple[str, ...]:
    size = int(rng.integers(2, top + 1))
    members = rng.choice(len(ids), size=size, replace=False)
    return tuple(ids[i] for i in sorted(members))


def make_proposer(strategy: ProposerStrategy, lm: LoadingMatrix | None = None) -> Proposer:
    return Proposer(strategy, lm)
