"""Interval-valued trades and curtailment robust to local uncertainty.

When a trade's realisation depends on conditions only its members observe,
they submit per-participant lower and upper injection bounds instead of a
point plan.  The operator then keeps a box enclosure of the accumulated
network state and curtails each new trade so that the worst case of every
loading row stays within its limit for every combination of realisations.
The per-row worst case of a box is closed form, so the maximal factor is a
ratio test; a bisection solver is kept alongside as a cross-check because
the feasibility predicate is monotone in the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .market import Market
from .network import FEASIBILITY_TOL, LoadingMatrix

__all__ = [
    "IntervalTrade",
    "IntervalState",
    "IntervalRecord",
    "nodal_interval",
    "worst_case_loading",
    "robust_curtailment_factor",
    "bisection_curtailment_factor",
    "accept_interval_trade",
]


@dataclass(frozen=True)
class IntervalTrade:
    """Per-participant injection bounds; realisations land inside the box."""

    lower: Mapping[str, float]
    upper: Mapping[str, float]

    def __post_init__(self) -> None:
        lower = {pid: float(v) for pid, v in sorted(self.lower.items())}
        upper = {pid: float(v) for pid, v in sorted(self.upper.items())}
        if set(lower) != set(upper):
            raise ValueError("lower and upper must cover the same participants")
        for pid in lower:
            if not (math.isfinite(lower[pid]) and math.isfinite(upper[pid])):
                raise ValueError(f"{pid}: bounds must be finite")
            if lower[pid] > upper[pid]:
                raise ValueError(f"{pid}: lower bound above upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def participant_ids(self) -> tuple[str, ...]:
        return tuple(self.lower)


@dataclass(frozen=True, eq=False)
class IntervalRecord:
    trade: IntervalTrade
    gamma: float
    accepted: bool
    q_lower: np.ndarray
    q_upper: np.ndarray


@dataclass(frozen=True, eq=False)
class IntervalState:
    """Box bounds on the accumulated nodal injection plus the history."""

    x_lower: np.ndarray
    x_upper: np.ndarray
    records: tuple[IntervalRecord, ...] = ()

    @classmethod
    def initial(cls, bus_count: int) -> "IntervalState":
        return cls(np.zeros(bus_count), np.zeros(bus_count))

    def __post_init__(self) -> None:
        lo = np.asarray(self.x_lower, dtype=float)
        hi = np.asarray(self.x_upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be equal-length vectors")
        if np.any(lo > hi + 1e-12):
            raise ValueError("lower state bound exceeds upper state bound")
        object.__setattr__(self, "x_lower", lo)
        object.__setattr__(self, "x_upper", hi)


def nodal_interval(trade: IntervalTrade, market: Market) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus interval of the trade's possible nodal injections.

    Participant intervals add bus-wise; the balance coupling between members
    is deliberately ignored, matching an operator that cannot observe how
    the members' local conditions correlate.
    """
    bus = market.table.bus[market.table.rows(trade.participant_ids)]
    q_lo, q_hi = np.zeros(market.network.bus_count), np.zeros(market.network.bus_count)
    np.add.at(q_lo, bus, list(trade.lower.values()))
    np.add.at(q_hi, bus, list(trade.upper.values()))
    return q_lo, q_hi


def worst_case_loading(lm: LoadingMatrix, v_lower: np.ndarray, v_upper: np.ndarray) -> np.ndarray:
    """Row-wise maximum of ``rows @ v`` over the box ``[v_lower, v_upper]``."""
    pos = np.clip(lm.rows, 0.0, None)
    neg = np.clip(lm.rows, None, 0.0)
    return pos @ np.asarray(v_upper, dtype=float) + neg @ np.asarray(v_lower, dtype=float)


def robust_curtailment_factor(
    lm: LoadingMatrix,
    state: IntervalState,
    q_lower: np.ndarray,
    q_upper: np.ndarray,
) -> float:
    """Largest factor keeping every row's worst case within limits.

    Exact for box uncertainty: scaling the trade box by gamma scales its
    per-row worst case linearly, so each row yields one ratio.  The state box
    carries no scenario index, so a loading matrix with per-scenario limits
    is rejected.
    """
    if lm.scenario_limits is not None:
        raise ValueError("robust curtailment checks one set of line limits, not per-scenario limits")
    worst_state = worst_case_loading(lm, state.x_lower, state.x_upper)
    if np.any(worst_state > lm.limits + FEASIBILITY_TOL):
        raise ValueError("accumulated state is not robustly feasible")
    worst_q = worst_case_loading(lm, q_lower, q_upper)
    gamma = 1.0
    active = worst_q > 1e-12
    if np.any(active):
        headroom = np.maximum(lm.limits[active] - worst_state[active], 0.0)
        gamma = min(gamma, float(np.min(headroom / worst_q[active])))
    return max(gamma, 0.0)


def bisection_curtailment_factor(
    lm: LoadingMatrix,
    state: IntervalState,
    q_lower: np.ndarray,
    q_upper: np.ndarray,
) -> float:
    """Bisection on the monotone strong-feasibility predicate, to 1e-9."""
    worst_state = worst_case_loading(lm, state.x_lower, state.x_upper)
    worst_q = worst_case_loading(lm, q_lower, q_upper)

    def feasible(gamma: float) -> bool:
        return bool(np.all(worst_state + gamma * worst_q <= lm.limits + 1e-12))

    if feasible(1.0):
        return 1.0
    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def accept_interval_trade(
    state: IntervalState,
    trade: IntervalTrade,
    lm: LoadingMatrix,
    market: Market,
) -> tuple[float, IntervalState]:
    """Curtail robustly, widen the state box, and append the record.

    A factor of zero means the trade's worst direction has no headroom at an
    already tight row; the state is left unchanged and the rejection is
    recorded.
    """
    q_lo, q_hi = nodal_interval(trade, market)
    gamma = robust_curtailment_factor(lm, state, q_lo, q_hi)
    if gamma <= 0.0:
        record = IntervalRecord(trade, 0.0, False, q_lo, q_hi)
        return 0.0, replace(state, records=state.records + (record,))
    record = IntervalRecord(trade, gamma, True, q_lo, q_hi)
    return gamma, IntervalState(
        x_lower=state.x_lower + gamma * q_lo,
        x_upper=state.x_upper + gamma * q_hi,
        records=state.records + (record,),
    )
