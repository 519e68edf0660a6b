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
termination.  A proposer carries nothing across runs: its subset cycle,
seeded draws and warm start begin afresh at each run's first step.

Most sampled pairs have nothing worth trading, so a pair is screened before
its LP.  A balanced pair trade moves ``t[s] = d_a[s] = -d_b[s]`` (one ``t``
for all scenarios when a member is day-ahead), and each announced row is a
sign limit on ``t[s]``, so :func:`pair_bound` finds the pair's best gain
exactly with :func:`participants.scan_maximum` over the market's utility
table.  The LP is skipped when that optimum is below ``epsilon -
_SCREEN_MARGIN``.  Rows whose coefficient on ``t`` is within ``_COEF_TOL *
max|H|`` of zero are dropped, which only relaxes the scan.  Trades and
certificates come from the LP alone.

Searches and screens start from each member's plan clipped into its
bounds, so consecutive whole-market searches of a run pose the same LP but
for right-hand sides and the announced rows, and each starts from the last
one's optimal basis (:class:`WarmStart`), kept as HiGHS's own
``HighsBasis``, which the dual simplex repairs in a few iterations.  A run's
first step starts cold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lp
from .dispatch import welfare_plans, welfare_program
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
    chain and balance rows; only the announced rows, which come first,
    differ.  :meth:`start` carries the basis over to a new mask: an
    announced row kept, matched by ``(scenario, row)``, keeps its status
    and a newly announced row enters basic.  A row dropped while nonbasic
    leaves one basic status too many, so the basis is then marked alien for
    HiGHS to repair.  A new instance starts cold: its start is unset.
    """

    def __init__(self) -> None:
        self.mask: np.ndarray | None = None
        self.basis: lp.HighsBasis | None = None

    def start(self, mask: np.ndarray) -> lp.HighsBasis:
        """The starting basis of a search under ``mask``."""
        start = lp.HighsBasis()
        if self.mask is None:
            return start
        old, new = np.flatnonzero(self.mask), np.flatnonzero(mask)
        rows = self.basis.row_status
        kept = self.mask.ravel()[new].tolist()
        at = np.searchsorted(old, new).tolist()
        statuses = [rows[i] if k else lp.BASIC for i, k in zip(at, kept)]
        dropped = np.flatnonzero(~mask.ravel()[old]).tolist()
        start.col_status, start.row_status, start.valid = self.basis.col_status, statuses + rows[old.size:], True
        start.alien = any(rows[i] != lp.BASIC for i in dropped)
        return start

    def keep(self, mask: np.ndarray, basis: lp.HighsBasis) -> None:
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
    group from its plans clipped into their bounds (the trade moves from
    those), so a value below ``epsilon`` from the full group certifies
    termination.  A ``warm`` start, kept from earlier searches of the same
    group on the same market, seeds the LP and takes its optimal basis.
    """
    ids = sorted(set(group))
    table = market.table
    members = table.rows(ids)
    y = np.clip(state.plans[members], table.lower[members], table.upper[members])
    program = welfare_program(market, members, y, announcements)
    sol = lp.solve(program) if warm is None else lp.solve(program, warm.start(announcements))
    if sol.status != "optimal":
        raise lp.LpError(f"trade search LP ended with status {sol.status}")
    if warm is not None:
        warm.keep(announcements, sol.basis)
    # The LP's objective is the gain over the lower bounds; move it to a gain over y.
    values = table.value(members, np.stack([table.lower[members], y], axis=-1))
    optimum = sol.objective + float(np.sum(table.weights[members] * (values[..., 0] - values[..., 1])))
    if optimum < epsilon:
        return None, optimum
    deltas = welfare_plans(market, members, sol.x) - y
    deltas[np.abs(deltas) < _ENTRY_EPS] = 0.0
    return Trade({pid: d for pid, d in zip(ids, deltas) if np.any(d != 0.0)}), optimum


def pair_bound(
    table: UtilityTable,
    pair: tuple[str, str],
    state: TradingState,
    announcements: np.ndarray,
    shift_factors: np.ndarray,
) -> float:
    """The pair's best utility gain by breakpoint scan.

    Equals :func:`find_worthy_fd_trade`'s optimum for the pair up to
    round-off, or exceeds it where announced rows with a coefficient within
    ``_COEF_TOL * max|H|`` of zero were dropped (``H`` is ``shift_factors``).
    Both start from the members' plans clipped into their bounds, so the box
    is the plain intersection of the members' bounds and holds staying put:
    every scan interval holds ``t = 0``.
    """
    i, j = members = table.rows(pair)
    ya, yb = np.clip(state.plans[members], table.lower[members], table.upper[members])
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
    one's basis of the same run.  Nothing outlives a run: the subset cycle,
    the strategy's own seeded generator and the warm start all begin afresh
    at a run's first step, a state with no records.  A loading matrix given
    to the constructor must hold the first market's shift factors; it is
    checked there, then dropped.
    """

    def __init__(self, strategy: ProposerStrategy, lm: LoadingMatrix | None = None):
        self.strategy = strategy
        self._lm = lm
        self._start_run()

    def _start_run(self) -> None:
        seed = self.strategy.seed
        self._subsets: tuple[Iterator[tuple[str, ...]], int] | None = None
        self._own_rng = np.random.default_rng(seed) if seed is not None else None
        self._warm = WarmStart()

    def groups(self, ids: tuple[str, ...], rng: np.random.Generator) -> Iterator[tuple[str, ...]]:
        """The groups one ``propose`` call searches before the whole market.

        Full group: none.  Exhaustive: one cycle through all subsets of size
        2..max_size in lexicographic order, resuming within a run where the
        last call stopped.  Random: ``attempts`` draws of a size, then a
        subset of that size, so every admissible subset has positive
        probability.  Groups are drawn lazily, so a call that stops early
        consumes only what it searched.  A market of one participant has no
        subsets to search.
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
        if self._lm is not None:
            own_loading_matrix(market.network, self._lm)
            self._lm = None
        if not state.records:
            self._start_run()
        for group in self.groups(market.participant_ids, rng):
            if len(group) == 2:
                bound = pair_bound(market.table, group, state, announcements, market.network.shift_factors)
                if bound < epsilon - _SCREEN_MARGIN:
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
