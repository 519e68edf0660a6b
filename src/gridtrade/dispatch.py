"""Centralised benchmark: stochastic dispatch, nodal prices, equilibrium checks.

The dispatch LP maximises total expected utility over participant plans,
with the piecewise-linear utilities expressed through epigraph variables and
the network entering through one loading row per line direction and
scenario.  The trade search poses the same program for one group around its
current plans, so :func:`welfare_program` builds both, from the members'
rows of the market's utility table (``market.table``).  The contingent
nodal prices come from the system-balance duals ``gamma`` and loading-row
duals ``beta``: ``lambda[s, n] = -(gamma[s] + sum_r beta[s, r] H[r, n])``
is the marginal expected system cost of delivering one more MW at bus ``n``
in scenario ``s``.

The equilibrium check never reads the LP for the participant side: each
price-taking problem is separable and piecewise linear, so
:func:`participants.scan_maximum` maximises all of them exactly from the
table, which also values the plans they are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from . import lp
from .market import Market
from .network import LoadingMatrix, build_loading_matrix
from .participants import UtilityTable, scan_maximum

__all__ = [
    "DispatchSolution",
    "EquilibriumReport",
    "DispatchInfeasibleError",
    "welfare_program",
    "solve_dispatch",
    "lmp_from_marginals",
    "welfare_gap",
    "check_arrow_debreu",
]


class DispatchInfeasibleError(RuntimeError):
    """The welfare maximisation has no feasible plan."""

    def __init__(self, status: str):
        super().__init__(f"dispatch problem is {status}")
        self.status = status


@dataclass(frozen=True, eq=False)
class DispatchSolution:
    """Optimal plan plus every dual needed for pricing and verification.

    ``x`` aggregates the plans per bus.  ``zeta[pid][s]`` is the per-scenario
    commitment force for day-ahead participants (sums to zero over
    scenarios); ``beta`` are the loading-row duals and ``gamma_s`` the
    per-scenario system balance duals, from which the prices follow as
    ``lambda_[s] = -(gamma_s[s] + beta[s] @ H)``.
    """

    plans: dict[str, np.ndarray]
    x: np.ndarray
    objective: float
    lambda_: np.ndarray
    gamma_s: np.ndarray
    beta: np.ndarray
    eta_lower: dict[str, np.ndarray]
    eta_upper: dict[str, np.ndarray]
    zeta: dict[str, np.ndarray]


# Welfare LPs with at most this many dense cells (rows x columns) get a dense
# matrix, larger ones a CSR matrix.  Over 500 subset_hybrid searches (median
# 44 x 36) lp.solve took 1.05-1.18 ms dense against 1.39-1.65 ms with CSR (2
# vCPUs); the 20-bus searches (1.7M cells and up) and large dispatch LPs (27M)
# are under 1% nonzero and densely spend most of their time on zeros.
_DENSE_CELLS = 250_000

# MW a quoting injection keeps from its bounds and breakpoints; relative
# slack on each equilibrium condition.
_INTERIOR_TOL = 1e-7
_EQUILIBRIUM_TOL = 1e-6


def welfare_program(
    market: Market,
    members: Sequence[int],
    y: np.ndarray,
    lm: LoadingMatrix,
    rows: np.ndarray,
    rhs: np.ndarray,
) -> lp.LinearProgram:
    """Maximise the members' expected utility at ``y + d`` over increments ``d``.

    ``members`` are rows of ``market.table`` and ``y`` holds their current
    plans, shape ``(M, S)``.  Variables are the increments ``d``
    (member-major, then scenario) followed by the utility epigraph values
    ``u``.  Rows, in order: ``u - m d <= a + m y`` per utility segment;
    loading row ``r`` over scenario ``s``'s increments, bounded by
    ``rhs[s, r]``, wherever the ``(S, 2L)`` mask ``rows[s, r]`` is true
    (scenario-major); ``d[s] = d[s + 1]`` chains per day-ahead member;
    balance ``sum d[s] = 0`` per scenario.  Working in increments keeps
    ``y`` on the right-hand side, so no ``z - y`` cancels.
    """
    members = np.asarray(members, dtype=int)
    if not members.size:
        raise ValueError("the welfare program needs at least one member")
    table = market.table
    n_m, n_s = members.size, market.scenario_count
    n_d = n_m * n_s
    y = np.asarray(y, dtype=float).reshape(n_d)
    real = table.real[members]
    slopes = table.slopes[members][real]
    intercepts = table.intercepts[members][real]
    owner = np.repeat(np.arange(n_d), real.sum(axis=-1).ravel())
    n_seg = owner.size
    line_scenario, line_row = np.nonzero(rows)
    n_line = line_scenario.size
    loading = lm.rows[line_row][:, table.bus[members]]
    seg = np.arange(n_seg)
    ub_rows = np.concatenate([seg, seg, np.repeat(n_seg + np.arange(n_line), n_m)])
    ub_cols = np.concatenate([
        n_d + owner, owner, (line_scenario[:, None] + n_s * np.arange(n_m)).ravel(),
    ])
    ub_vals = np.concatenate([np.ones(n_seg), -slopes, loading.ravel()])

    da_first = (n_s * np.flatnonzero(table.day_ahead[members])[:, None] + np.arange(n_s - 1)).ravel()
    n_chain = da_first.size
    chain = np.arange(n_chain)
    eq_rows = np.concatenate([chain, chain, n_chain + np.arange(n_d) % n_s])
    eq_cols = np.concatenate([da_first, da_first + 1, np.arange(n_d)])
    eq_vals = np.concatenate([np.ones(n_chain), -np.ones(n_chain), np.ones(n_d)])

    dense = (n_seg + n_line + n_chain + n_s) * 2 * n_d <= _DENSE_CELLS
    return lp.LinearProgram(
        c=np.concatenate([np.zeros(n_d), table.weights[members].ravel()]),
        a_eq=_matrix(eq_rows, eq_cols, eq_vals, (n_chain + n_s, 2 * n_d), dense),
        b_eq=np.zeros(n_chain + n_s),
        a_ub=_matrix(ub_rows, ub_cols, ub_vals, (n_seg + n_line, 2 * n_d), dense),
        b_ub=np.concatenate([intercepts + slopes * y[owner], rhs[rows]]),
        lower=np.concatenate([table.lower[members].ravel() - y, np.full(n_d, -np.inf)]),
        upper=np.concatenate([table.upper[members].ravel() - y, np.full(n_d, np.inf)]),
    )


def _matrix(rows, cols, vals, shape, dense: bool):
    if dense:
        a = np.zeros(shape)
        a[rows, cols] = vals
        return a
    a = sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    a.eliminate_zeros()
    return a


def solve_dispatch(market: Market, lm: LoadingMatrix | None = None) -> DispatchSolution:
    """Maximise total expected utility subject to local and network limits."""
    lm = build_loading_matrix(market.network) if lm is None else lm
    parts = market.participants
    n_i, n_s, n_rows = len(parts), market.scenario_count, lm.rows.shape[0]
    program = welfare_program(
        market, np.arange(n_i), np.zeros((n_i, n_s)), lm,
        np.ones((n_s, n_rows), dtype=bool), lm.stacked_limits(n_s),
    )
    sol = lp.solve(program)
    if sol.status != "optimal":
        raise DispatchInfeasibleError(sol.status)

    n_d = n_i * n_s
    ids = market.participant_ids
    plans = dict(zip(ids, sol.x[:n_d].reshape(n_i, n_s)))
    beta = sol.duals_ub[sol.duals_ub.size - n_s * n_rows:].reshape(n_s, n_rows)
    gamma_s = sol.duals_eq[-n_s:]
    da_ids = [p.id for p in parts if p.timing == "DA"]
    chain = sol.duals_eq[:-n_s].reshape(len(da_ids), n_s - 1)
    # Commitment force in scenario s: chain dual s minus chain dual s - 1, zero past either end.
    zeta = dict(zip(da_ids, np.diff(np.pad(chain, ((0, 0), (1, 1))), axis=1)))
    return DispatchSolution(
        plans=plans,
        x=market.aggregate_nodal(plans),
        objective=sol.objective,
        lambda_=-(gamma_s[:, None] + beta @ lm.rows),
        gamma_s=gamma_s,
        beta=beta,
        eta_lower=dict(zip(ids, sol.duals_lower[:n_d].reshape(n_i, n_s))),
        eta_upper=dict(zip(ids, sol.duals_upper[:n_d].reshape(n_i, n_s))),
        zeta=zeta,
    )


def lmp_from_marginals(
    market: Market,
    plans: Mapping[str, np.ndarray],
    n: int,
    s: int,
) -> float | None:
    """Price quote from a strictly interior flexible participant at bus ``n``.

    Needs a real-time injection strictly inside its bounds and away from
    breakpoints, where the marginal value is unambiguous; otherwise ``None``
    (fall back to the dispatch duals).  The quote is weighted with the
    participant's own probabilities, as the balance duals are.
    """
    for p in compress(market.participants, (market.table.bus == n) & ~market.table.day_ahead):
        val = float(np.asarray(plans[p.id])[s])
        lo, hi = p.bounds[s]
        if not (lo + _INTERIOR_TOL < val < hi - _INTERIOR_TOL):
            continue
        if any(abs(val - b) <= _INTERIOR_TOL for b in p.utility[s].breakpoints):
            continue
        left, right = p.utility[s].marginals(val)
        return -float(p.weights(market.scenarios)[s]) * left
    return None


def welfare_gap(
    market: Market,
    plans: Mapping[str, np.ndarray],
    solution: DispatchSolution,
) -> float:
    """Optimality gap of a plan, clamped at zero for round-off.

    Both sides use each participant's own probabilities (the market's unless overridden).
    """
    achieved = market.total_utility(dict(plans), subjective=True)
    return max(0.0, solution.objective - achieved)


@dataclass(frozen=True)
class EquilibriumReport:
    """Price-taking optimality slacks for everyone plus market clearing."""

    participant_ok: dict[str, bool]
    participant_slack: dict[str, float]
    so_ok: bool
    so_slack: float
    clearing_residual: float
    clearing_ok: bool
    verdict: bool


def _best_responses(table: UtilityTable, lam: np.ndarray) -> np.ndarray:
    """Exact maximum of each participant's price-taking objective at ``(P, S)`` prices ``lam``.

    Day-ahead rows hold one injection across all scenarios; real-time rows pick each alone.
    """
    best = np.empty(len(lam))
    for shared in (False, True):
        rows = np.flatnonzero(table.day_ahead == shared)
        price, weights = lam[rows][..., None], table.weights[rows][..., None]
        best[rows] = scan_maximum(
            table.lower[rows], table.upper[rows], table.breakpoints[rows],
            lambda z: price * z + weights * table.value(rows, z), shared,
        )
    return best


def check_arrow_debreu(
    market: Market,
    plans: Mapping[str, np.ndarray],
    x: np.ndarray,
    prices: np.ndarray,
    lm: LoadingMatrix | None = None,
) -> EquilibriumReport:
    """Do plans, injections, and prices form a competitive equilibrium?

    Checks, with slack at most ``1e-6 * (1 + |optimum|)`` each: every
    participant maximises payment plus expected utility over its own set at
    the given prices; the network operator's injection maximises conversion
    profit over the feasible polytope; and every contingent commodity clears.
    A plan of the wrong length or outside its bounds raises ``ValueError``.
    """
    lm = build_loading_matrix(market.network) if lm is None else lm
    limits = lm.stacked_limits(market.scenario_count)
    prices = np.asarray(prices, dtype=float)
    x = np.asarray(x, dtype=float)
    table, ids = market.table, market.participant_ids
    injection = market.aggregate_nodal(plans)  # rejects a plan of the wrong length
    z = np.array([plans[pid] for pid in ids], dtype=float).reshape(table.lower.shape)
    outside, _ = table.local_violations(np.arange(len(ids)), z)
    if outside.any():
        i, s = np.argwhere(outside)[0]
        lo, hi = table.lower[i, s], table.upper[i, s]
        raise ValueError(f"{ids[i]}: plan {z[i, s]} outside bounds [{lo}, {hi}] in scenario {s}")
    lam = prices[:, table.bus].T
    utility = table.value(np.arange(len(ids)), z[..., None])[..., 0]
    achieved = (lam * z + table.weights * utility).sum(axis=1)
    best = _best_responses(table, lam)
    slack = best - achieved
    participant_slack = dict(zip(ids, slack.tolist()))
    participant_ok = dict(zip(ids, (slack <= _EQUILIBRIUM_TOL * (1.0 + np.abs(best))).tolist()))

    so_slack = 0.0
    for s in range(market.scenario_count):
        sol = lp.solve(lp.LinearProgram(c=-prices[s], a_eq=np.ones((1, market.network.bus_count)),
                                        b_eq=np.zeros(1), a_ub=lm.rows, b_ub=limits[s]))
        if sol.status != "optimal":
            raise lp.LpError(f"operator profit LP ended {sol.status}")
        so_slack += sol.objective - float(-prices[s] @ x[s])
    so_scale = 1.0 + abs(float(np.abs(prices).sum())) * float(np.abs(limits).max() if limits.size else 0.0)
    so_ok = so_slack <= _EQUILIBRIUM_TOL * so_scale

    clearing = float(np.max(np.abs(x - injection), initial=0.0))
    clearing_ok = clearing <= _EQUILIBRIUM_TOL * (1.0 + float(np.max(np.abs(x), initial=0.0)))

    return EquilibriumReport(
        participant_ok=participant_ok,
        participant_slack=participant_slack,
        so_ok=so_ok,
        so_slack=float(so_slack),
        clearing_residual=clearing,
        clearing_ok=clearing_ok,
        verdict=all(participant_ok.values()) and so_ok and clearing_ok,
    )
