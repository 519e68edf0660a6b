"""System-operator trading engine.

Trades are balanced multilateral exchanges of scenario-contingent power.
The operator never optimises: it validates each submitted trade, checks it
is worth at least ``epsilon`` to its group and against the announced
binding-line directions, scales it back just enough to stay inside the
network polytope, and applies it.  Because every
accepted step lands inside the feasible region, the run can stop at any
point with a safe dispatch.

The loop terminates when the proposer certifies that no trade worth at
least ``epsilon`` exists (by convention via one whole-market search), or
when ``max_steps`` is exhausted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .market import Market
from .network import (
    BALANCE_TOL,
    LoadingMatrix,
    binding_mask,
    build_loading_matrix,
    check_feasible,
    curtailment_factor,
    curtailment_factors,
    is_feasible_direction,
)
from .participants import UtilityTable

__all__ = [
    "Trade",
    "TradeRecord",
    "TradingState",
    "EngineConfig",
    "Certificate",
    "TradingResult",
    "InfeasibleStateError",
    "validate_trade",
    "is_worthy",
    "so_step",
    "announce",
    "run_trading",
]


class InfeasibleStateError(RuntimeError):
    """An accepted step left the network state over a line limit or unbalanced."""


@dataclass(frozen=True, eq=False)
class Trade:
    """Sparse map of participant id to per-scenario injection increments.

    ``group`` lists, in id order, the participants whose increments are not
    all zero.
    """

    plans: Mapping[str, np.ndarray]
    group: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clean: dict[str, np.ndarray] = {}
        for pid in sorted(self.plans):
            arr = np.array(self.plans[pid], dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{pid}: plan must be a per-scenario vector")
            if not np.isfinite(arr).all():
                raise ValueError(f"{pid}: plan entries must be finite")
            arr.setflags(write=False)
            clean[pid] = arr
        object.__setattr__(self, "plans", clean)
        object.__setattr__(self, "group", tuple(pid for pid, arr in clean.items() if arr.any()))


@dataclass(frozen=True, eq=False)
class TradeRecord:
    """One submission: the proposal, the operator's decision, and the context."""

    step: int
    trade: Trade
    gamma: float
    accepted: bool
    reasons: tuple[str, ...]
    nodal: np.ndarray
    welfare_delta: float
    binding_after: np.ndarray  # (S, 2L) binding mask after the decision, read-only
    gamma_by_scenario: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class TradingState:
    """Accumulated plans, read-only ``(P, S)`` in ``market.table`` row order, and the implied network state."""

    ids: tuple[str, ...]
    plans: np.ndarray
    x: np.ndarray
    records: tuple[TradeRecord, ...] = ()

    @property
    def y(self) -> dict[str, np.ndarray]:
        """The plans by participant id, in roster order: views of the rows of ``plans``."""
        return dict(zip(self.ids, self.plans))

    @classmethod
    def initial(cls, market: Market) -> "TradingState":
        zeros = np.zeros((len(market.participants), market.scenario_count))
        outside, spread = market.table.local_violations(np.arange(len(market.participants)), zeros)
        bad = np.flatnonzero(outside.any(axis=1) | spread)
        if bad.size:
            raise ValueError(
                f"{market.participants[bad[0]].id}: zero injection is not locally feasible; "
                "represent fixed obligations with elastic bounds and a value slope"
            )
        zeros.setflags(write=False)
        return cls(market.participant_ids, zeros, np.zeros((market.scenario_count, market.network.bus_count)))


def require_integers(settings, *names: str) -> None:
    """Raise ``ValueError`` for the first named field of ``settings`` that is a bool or not integral."""
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Operator-side knobs for one run."""

    epsilon: float = 1e-3
    curtailment_mode: str = "uniform"
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        require_integers(self, "max_steps", "seed")
        if isinstance(self.epsilon, (bool, np.bool_)):
            raise ValueError(f"epsilon must be a number, got {self.epsilon!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.curtailment_mode not in ("uniform", "hybrid"):
            raise ValueError("curtailment_mode must be 'uniform' or 'hybrid'")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Certificate:
    """Proof of termination: best whole-market improvement found."""

    optimum: float


@dataclass(frozen=True, eq=False)
class TradingResult:
    state: TradingState
    converged: bool
    certified_bound: float | None
    steps: int
    final_welfare: float


def validate_trade(trade: Trade, state: TradingState, market: Market) -> list[str]:
    """Empty list when acceptable, else one message per violation."""
    market.table.rows(trade.plans)  # an unknown id raises KeyError before any shape check
    n_s = market.scenario_count
    problems = [
        f"shape: {pid} plan has {plan.size} entries, expected {n_s}"
        for pid, plan in trade.plans.items()
        if plan.size != n_s
    ]
    if problems:
        return problems
    if not trade.group:
        return ["degenerate: all increments are zero"]
    sums = np.zeros(n_s)
    for plan in trade.plans.values():
        sums += plan
    for s, r in enumerate(sums):
        if abs(r) > BALANCE_TOL:
            problems.append(f"balance: scenario {s} sums to {r:.3e}")
    rows, y, d = _members(trade, state, market)
    outside, spread = market.table.local_violations(rows, y + d)
    for i in np.flatnonzero(d.any(axis=1) & (outside.any(axis=1) | spread)):
        problems.append(f"local: {state.ids[rows[i]]} violates {'non-anticipation' if spread[i] else 'bounds'}")
    return problems


def _members(trade: Trade, state: TradingState, market: Market) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trade's ``market.table`` rows, in id order, and their ``(G, S)`` plans and increments."""
    rows, d = market.table.stack(trade.plans)
    return rows, state.plans[rows], d


def _utility_change(table: UtilityTable, rows, before: np.ndarray, after: np.ndarray, weights) -> float:
    """Weighted utility change of table ``rows`` from plans ``before`` to ``after``, ``(G, S)`` each."""
    u = table.value(rows, np.stack([before, after], axis=-1))
    return float(np.sum(weights * (u[..., 1] - u[..., 0])))


def is_worthy(
    trade: Trade,
    state: TradingState,
    epsilon: float,
    market: Market,
) -> tuple[bool, float]:
    """Group utility change of the proposal against the threshold.

    Each member values the change with their own probabilities, so a trade
    can be worthwhile to heterogeneous believers.  The trade must have
    passed :func:`validate_trade`; no bounds are checked here.
    """
    rows, y, d = _members(trade, state, market)
    delta = _utility_change(market.table, rows, y, y + d, market.table.weights[rows])
    return delta >= epsilon, delta


def _normalize(d: np.ndarray, day_ahead: np.ndarray) -> np.ndarray:
    """Snap solver round-off in ``(G, S)`` increments: exact non-anticipation, then exact balance.

    Each scenario's balance residual goes to the group's largest real-time
    plan in that scenario, or to its largest plan when every member is
    day-ahead; of equal plans, the later row (rows are in id order).
    Residuals are already within the validation tolerances; this keeps them
    from compounding across hundreds of accepted steps.
    """
    d = d.copy()
    for i in np.flatnonzero(day_ahead & (np.ptp(d, axis=1) != 0.0)):
        d[i] = math.fsum(d[i]) / d.shape[1]
    live = d.any(axis=1)
    # An all-day-ahead group's plans are now constant, so every scenario
    # moves the same member by the same amount and the plans stay constant.
    targets = np.flatnonzero(live & ~day_ahead)
    targets = (targets if targets.size else np.flatnonzero(live))[::-1]
    for s in range(d.shape[1]):
        residual = math.fsum(d[:, s])
        if residual != 0.0:
            d[targets[np.argmax(np.abs(d[targets, s]))], s] -= residual
    return d


def announce(x: np.ndarray, lm: LoadingMatrix) -> np.ndarray:
    """The operator's guidance at injections ``x``: the read-only ``(S, 2L)`` mask of binding loading rows."""
    mask = binding_mask(lm, x)
    mask.setflags(write=False)
    return mask


def so_step(
    state: TradingState,
    trade: Trade,
    config: EngineConfig,
    lm: LoadingMatrix,
    market: Market,
) -> tuple[TradeRecord, TradingState]:
    """Operator decision on one submitted trade.

    Invalid trades, then trades worth less than ``config.epsilon`` to their
    group, then wrong-direction trades, then trades with no headroom are
    rejected with the state unchanged; otherwise the trade is scaled by the
    ratio-test factor and applied.  Scenario-wise factors are used only in
    hybrid mode and only when no day-ahead participant is involved, since
    they would otherwise break non-anticipation.  An accepted state is
    checked before it is announced: one over a line limit or unbalanced
    raises :class:`InfeasibleStateError`.
    """
    reasons = validate_trade(trade, state, market)
    if not reasons and not is_worthy(trade, state, config.epsilon, market)[0]:
        reasons = ["not epsilon-worthy"]
    if not reasons:
        rows, y_group, d = _members(trade, state, market)
        day_ahead = market.table.day_ahead[rows]
        d = _normalize(d, day_ahead)
        trade = Trade(dict(zip(trade.plans, d)))
    try:
        q = market.aggregate_nodal(trade.plans)
    except ValueError:  # a plan of the wrong length, already a rejection
        q = np.zeros_like(state.x)
    if not reasons and not is_feasible_direction(lm, state.x, q):
        reasons = ["direction: increases loading on a binding line"]
    per_scenario = False
    if not reasons:
        per_scenario = config.curtailment_mode == "hybrid" and not day_ahead[d.any(axis=1)].any()
        if per_scenario:
            factors = curtailment_factors(lm, state.x, q)
        else:
            factors = np.full(market.scenario_count, curtailment_factor(lm, state.x, q))
        if factors.min() <= 0.0:
            reasons = ["no headroom after ratio test"]

    plans, x, gamma, delta = state.plans, state.x, 0.0, 0.0
    if not reasons:
        after = y_group + factors * d
        plans = state.plans.copy()
        plans[rows] = after
        plans.setflags(write=False)
        x = state.x + factors[:, None] * q
        report = check_feasible(lm, x)
        if not report.ok:
            raise InfeasibleStateError(f"post-step state infeasible: {report}")
        gamma = float(factors.min())
        delta = _utility_change(market.table, rows, y_group, after, market.scenarios.as_array())
    record = TradeRecord(
        step=len(state.records),
        trade=trade,
        gamma=gamma,
        accepted=not reasons,
        reasons=tuple(reasons),
        nodal=q,
        welfare_delta=delta,
        binding_after=announce(x, lm),
        gamma_by_scenario=tuple(factors.tolist()) if per_scenario and not reasons else None,
    )
    return record, TradingState(state.ids, plans, x, state.records + (record,))


def run_trading(
    market: Market,
    config: EngineConfig,
    proposer: "Callable | object",
    lm: LoadingMatrix | None = None,
) -> TradingResult:
    """Run announce/propose/curtail/update until certified or out of steps.

    ``proposer`` must expose ``propose(market, state, announcements, epsilon,
    rng)`` returning either a :class:`Trade` or a :class:`Certificate`.
    """
    lm = build_loading_matrix(market.network) if lm is None else lm
    state = TradingState.initial(market)
    rng = np.random.default_rng(config.seed)
    converged = False
    certified: float | None = None
    steps = 0
    while steps < config.max_steps:
        # Every record's announcement was taken on the state it leaves behind.
        announcements = state.records[-1].binding_after if state.records else announce(state.x, lm)
        proposal = proposer.propose(market, state, announcements, config.epsilon, rng)
        if isinstance(proposal, Certificate):
            converged = True
            certified = proposal.optimum
            break
        _, state = so_step(state, proposal, config, lm, market)
        steps += 1
    return TradingResult(
        state=state,
        converged=converged,
        certified_bound=certified,
        steps=steps,
        final_welfare=market.total_utility(state.y),
    )
