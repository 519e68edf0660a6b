"""Centralised benchmark: stochastic dispatch, nodal prices, equilibrium checks.

The dispatch LP maximises total expected utility over participant plans,
with the piecewise-linear utilities expressed through epigraph variables.
The trade search poses the same participant block for one group around its
current plans, from the members' rows of the market's utility table
(``market.table``), so one builder serves both.  They differ in the
network: the search carries only the announced loading rows, as
shift-factor rows over its members' increments (:func:`welfare_program`);
the dispatch carries the whole network in bus-angle form (the DC OPF form
of MATPOWER), with one angle column per bus and scenario, the reference
angle fixed at 0, one nodal balance row per bus and scenario and a forward
and a reverse flow row ``b_l (theta_from - theta_to)`` per line and
scenario.  The contingent nodal prices are the nodal balance duals:
``lambda[s, n]`` is the marginal expected system cost of delivering one
more MW at bus ``n`` in scenario ``s``.  With ``beta`` the flow-row duals
and ``gamma[s] = -lambda[s, ref]``, ``lambda[s] = -(gamma[s] + beta[s] @ H)``
for the shift factors ``H = network.shift_factors``.

The equilibrium check never reads the LP for the participant side: each
price-taking problem is separable and piecewise linear, so
:func:`participants.scan_maximum` maximises all of them exactly from the
table, which also values the plans they are compared with.  The network
operator's side is one bus-angle LP over all scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from . import lp
from .market import Market
from .network import LoadingMatrix, Network, own_loading_matrix
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
    scenarios).  ``lambda_`` holds the prices, the negated nodal balance
    duals, shape ``(S, N)``.  ``beta`` holds the flow-row duals, shape
    ``(S, 2L)``: line ``l``'s forward row at ``l`` and its reverse row at
    ``L + l``, the layout of ``H = network.shift_factors``.
    ``gamma_s[s] = -lambda_[s, ref]`` is the price at the reference bus,
    negated, so that ``lambda_[s] = -(gamma_s[s] + beta[s] @ H)``.
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


# LPs with at most this many dense cells (rows x columns) get dense matrices,
# larger ones CSR matrices.  Over 500 subset_hybrid searches (median 44 x 36)
# lp.solve took 1.05-1.18 ms dense against 1.39-1.65 ms with CSR (2 vCPUs);
# the 20-bus searches (1.7M cells and up) and the bus-angle dispatch and
# operator LPs of the 20- and 40-bus markets (5M cells and up) are under 1%
# nonzero and densely spend most of their time on zeros.  The fleet's
# dispatch and operator LPs (at most about 25k cells) stay dense.
_DENSE_CELLS = 250_000

# MW a quoting injection keeps from its bounds and breakpoints; relative
# slack on each equilibrium condition.
_INTERIOR_TOL = 1e-7
_EQUILIBRIUM_TOL = 1e-6


def _participant_block(market: Market, members: np.ndarray, y: np.ndarray):
    """The members' columns, bounds and rows, shared by the trade search and the dispatch.

    ``members`` are rows of ``market.table`` and ``y`` holds their current
    plans, shape ``(M, S)``.  Columns are the increments ``d`` (member-major,
    then scenario) followed by the utility epigraph values ``u`` in units of
    ``V = table.value_base``.  Returns the objective (in $: cost ``w V`` on
    ``u``), the column bounds, the segment rows ``u - (m / V) d <= (a + m y)
    / V`` (one per utility segment) and the chains ``d[s] = d[s + 1]`` per
    day-ahead member, each as a row block (see :func:`_program`).  As ``V``
    is a power of two, a market whose slopes are scaled by a power of two
    poses the same rows.
    """
    if not members.size:
        raise ValueError("the welfare program needs at least one member")
    table = market.table
    base = table.value_base
    n_d = members.size * market.scenario_count
    y = np.asarray(y, dtype=float).reshape(n_d)
    real = table.real[members]
    slopes = table.slopes[members][real]
    intercepts = table.intercepts[members][real]
    owner = np.repeat(np.arange(n_d), real.sum(axis=-1).ravel())
    seg = np.arange(owner.size)
    segments = (
        [(seg, n_d + owner, np.ones(seg.size)), (seg, owner, slopes / -base)],
        (intercepts + slopes * y[owner]) / base,
    )
    n_s = market.scenario_count
    da_first = (n_s * np.flatnonzero(table.day_ahead[members])[:, None] + np.arange(n_s - 1)).ravel()
    chain = np.arange(da_first.size)
    chains = (
        [(chain, da_first, np.ones(chain.size)), (chain, da_first + 1, -np.ones(chain.size))],
        np.zeros(chain.size),
    )
    c = np.concatenate([np.zeros(n_d), table.weights[members].ravel() * base])
    lower = np.concatenate([table.lower[members].ravel() - y, np.full(n_d, -np.inf)])
    upper = np.concatenate([table.upper[members].ravel() - y, np.full(n_d, np.inf)])
    return c, lower, upper, segments, chains


def _angle_block(network: Network, limits: np.ndarray, node: np.ndarray, col0: int):
    """The network in bus-angle form over ``S`` scenarios, after ``col0`` other columns.

    Column ``col0 + s N + n`` is bus ``n``'s angle in scenario ``s``; the
    reference bus's angle is fixed at 0 by its bounds.  Equality row
    ``s N + n`` is the nodal balance ``(injections) - (B theta_s)[n] = 0``,
    where column ``k`` injects into row ``node[k]``.  Inequality rows
    ``s 2L + l`` and ``s 2L + L + l`` bound line ``l``'s flow
    ``b_l (theta_from - theta_to)`` and its negation by ``limits[s, l]`` and
    ``limits[s, L + l]`` (``limits`` has shape ``(S, 2L)``); only finite
    limits get a row, numbered in that order.  Returns the balance and flow
    row blocks (see :func:`_program`) and the angle columns' bounds.  A bus
    on several lines repeats its balance entries; :func:`_matrix` sums them.
    """
    n_s, n_b, n_l = len(limits), network.bus_count, network.line_count
    f, t, b = network.from_buses, network.to_buses, network.susceptances
    line = np.arange(n_l)
    first = n_b * np.arange(n_s)[:, None]  # each scenario's first balance row and angle
    angles = (col0 + first + np.concatenate([f, t, f, t])).ravel()
    flow_vals = np.tile(np.concatenate([b, -b, -b, b]), n_s)
    # A line's from end subtracts its forward flow row, its to end its reverse flow row.
    balance = (
        [(node, np.arange(node.size), np.ones(node.size)),
         ((first + np.concatenate([f, f, t, t])).ravel(), angles, -flow_vals)],
        np.zeros(n_s * n_b),
    )
    flow_rows = (2 * n_l * np.arange(n_s)[:, None] + np.concatenate([line, line, n_l + line, n_l + line])).ravel()
    rated = np.isfinite(limits).ravel()
    kept = rated[flow_rows]  # entries of rated rows, renumbered past the rows left out
    flows = ([((np.cumsum(rated) - 1)[flow_rows[kept]], angles[kept], flow_vals[kept])], limits.ravel()[rated])
    fixed = np.tile(np.arange(n_b) == network.reference_bus, n_s)
    return balance, flows, np.where(fixed, 0.0, -np.inf), np.where(fixed, 0.0, np.inf)


def _program(c, lower, upper, ub, eq) -> lp.LinearProgram:
    """The LP whose ``a_ub`` and ``a_eq`` rows stack the row blocks ``ub`` and ``eq`` in order.

    A row block is ``(parts, rhs)``: its right-hand sides, and ``(rows, cols,
    vals)`` triplets with rows numbered from 0 within the block.
    """
    families, n_rows = [], 0
    for blocks in (ub, eq):
        rows, cols, vals, offset = [], [], [], 0
        for parts, rhs in blocks:
            for part_rows, part_cols, part_vals in parts:
                rows.append(part_rows + offset)
                cols.append(part_cols)
                vals.append(part_vals)
            offset += rhs.size
        families.append((rows, cols, vals, np.concatenate([rhs for _, rhs in blocks])))
        n_rows += offset
    dense = n_rows * c.size <= _DENSE_CELLS
    (a_ub, b_ub), (a_eq, b_eq) = (
        (_matrix(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (rhs.size, c.size), dense), rhs)
        for rows, cols, vals, rhs in families
    )
    return lp.LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)


def _matrix(rows, cols, vals, shape, dense: bool):
    """Dense or CSR matrix of the triplets; both sum duplicate entries."""
    if dense:
        a = np.zeros(shape)
        np.add.at(a, (rows, cols), vals)
        return a
    a = sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    a.eliminate_zeros()
    return a


def welfare_program(
    market: Market,
    members: Sequence[int],
    y: np.ndarray,
    rows: np.ndarray,
    rhs: np.ndarray,
) -> lp.LinearProgram:
    """The trade search's LP: maximise the members' expected utility at ``y + d`` over increments ``d``.

    ``members`` are rows of ``market.table`` and ``y`` holds their current
    plans, shape ``(M, S)``.  Variables are the increments ``d``
    (member-major, then scenario) followed by the utility epigraph values
    ``u``, in units of ``market.table.value_base``.  Rows, in order: ``u -
    m d <= a + m y`` per utility segment (see :func:`_participant_block`);
    row ``r`` of ``market.network.shift_factors`` over scenario ``s``'s
    increments, bounded by ``rhs[s, r]``, wherever the ``(S, 2L)`` mask ``rows[s, r]`` is true
    (scenario-major); ``d[s] = d[s + 1]`` chains per day-ahead member;
    balance ``sum d[s] = 0`` per scenario.  Working in increments keeps
    ``y`` on the right-hand side, so no ``z - y`` cancels.  The search
    carries only the announced rows, so shift-factor rows serve it better
    than bus angles; the dispatch shares its participant block.
    """
    members = np.asarray(members, dtype=int)
    c, lower, upper, segments, chains = _participant_block(market, members, y)
    n_m, n_s = members.size, market.scenario_count
    n_d = n_m * n_s
    line_scenario, line_row = np.nonzero(rows)
    loading = market.network.shift_factors[line_row][:, market.table.bus[members]]
    lines = (
        [(np.repeat(np.arange(line_scenario.size), n_m),
          (line_scenario[:, None] + n_s * np.arange(n_m)).ravel(),
          loading.ravel())],
        rhs[rows],
    )
    balance = ([(np.arange(n_d) % n_s, np.arange(n_d), np.ones(n_d))], np.zeros(n_s))
    return _program(c, lower, upper, [segments, lines], [chains, balance])


def _ratings(market: Market, lm: LoadingMatrix | None) -> np.ndarray:
    """The ``(S, 2L)`` line ratings: ``lm``'s, which must hold the network's own rows, else the network's."""
    network, n_s = market.network, market.scenario_count
    if lm is None:
        ratings = network.ratings if network.scenario_ratings is None else network.scenario_ratings
        return np.broadcast_to(ratings, (n_s, ratings.shape[-1]))
    return own_loading_matrix(network, lm).stacked_limits(n_s)


def solve_dispatch(market: Market, lm: LoadingMatrix | None = None) -> DispatchSolution:
    """Maximise total expected utility subject to local and network limits.

    The participant block is the trade search's at zero plans; the network
    is the bus-angle block of ``market.network`` under the ratings of
    ``lm``, else the network's own; an unrated line's ``beta`` entries are 0.
    """
    limits = _ratings(market, lm)
    network, table = market.network, market.table
    n_i, n_s, n_b = len(market.participants), market.scenario_count, network.bus_count
    c, lower, upper, segments, chains = _participant_block(market, np.arange(n_i), np.zeros((n_i, n_s)))
    node = (n_b * np.arange(n_s) + table.bus[:, None]).ravel()
    balance, flows, angle_lower, angle_upper = _angle_block(network, limits, node, c.size)
    sol = lp.solve(_program(
        np.concatenate([c, np.zeros(n_s * n_b)]),
        np.concatenate([lower, angle_lower]),
        np.concatenate([upper, angle_upper]),
        [segments, flows],
        [chains, balance],
    ))
    if sol.status != "optimal":
        raise DispatchInfeasibleError(sol.status)

    n_d, n_chain = n_i * n_s, chains[1].size
    ids = market.participant_ids
    plans = dict(zip(ids, sol.x[:n_d].reshape(n_i, n_s)))
    lambda_ = -sol.duals_eq[n_chain:].reshape(n_s, n_b)
    beta = np.zeros(limits.shape)
    beta[np.isfinite(limits)] = sol.duals_ub[sol.duals_ub.size - flows[1].size:]
    da_ids = [p.id for p in market.participants if p.timing == "DA"]
    chain = sol.duals_eq[:n_chain].reshape(len(da_ids), n_s - 1)
    # Commitment force in scenario s: chain dual s minus chain dual s - 1, zero past either end.
    zeta = dict(zip(da_ids, np.diff(chain, axis=1, prepend=0.0, append=0.0)))
    return DispatchSolution(
        plans=plans,
        x=market.aggregate_nodal(plans),
        objective=sol.objective,
        lambda_=lambda_,
        gamma_s=-lambda_[:, network.reference_bus],
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


def _operator_profit(network: Network, prices: np.ndarray, limits: np.ndarray) -> float:
    """The operator's best conversion profit ``max -sum_s prices[s] @ x[s]`` over feasible injections.

    One bus-angle LP over all scenarios: injection columns ``x`` (scenario-major)
    balance each bus's angle terms, and the flows keep within ``limits`` ``(S, 2L)``.
    """
    n_x = prices.size
    balance, flows, angle_lower, angle_upper = _angle_block(network, limits, np.arange(n_x), n_x)
    sol = lp.solve(_program(
        np.concatenate([-prices.ravel(), np.zeros(n_x)]),
        np.concatenate([np.full(n_x, -np.inf), angle_lower]),
        np.concatenate([np.full(n_x, np.inf), angle_upper]),
        [flows],
        [balance],
    ))
    if sol.status not in ("optimal", "unbounded"):
        raise lp.LpError(f"operator profit LP ended {sol.status}")
    return sol.objective if sol.status == "optimal" else np.inf


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
    A plan of the wrong length or outside its bounds, prices or injections
    of a shape other than ``(S, N)``, or a loading matrix of another network
    raises ``ValueError``; an unbounded operator profit gives ``so_slack = inf``.
    """
    limits = _ratings(market, lm)
    prices = np.asarray(prices, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = (market.scenario_count, market.network.bus_count)
    if prices.shape != shape or x.shape != shape:
        raise ValueError(f"prices {prices.shape} and injections {x.shape} must both have shape {shape}")
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

    so_slack = _operator_profit(market.network, prices, limits) + float(np.sum(prices * x))
    so_scale = 1.0 + abs(float(np.abs(prices).sum())) * float(limits[np.isfinite(limits)].max(initial=0.0))
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
