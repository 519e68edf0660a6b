import sys
from pathlib import Path

import numpy as np
import pytest

from gridtrade import build_loading_matrix, solve_dispatch, two_bus_market
from gridtrade.generators import random_market
from gridtrade.market import Market
from gridtrade.network import Network
from gridtrade.trading import TradingState

FLEET_SEED = 20240817
FLEET_SIZE = 50


def fleet_markets():
    """The acceptance fleet: FLEET_SIZE random markets, every other one meshed."""
    master = np.random.default_rng(FLEET_SEED)
    return [
        random_market(
            np.random.default_rng(master.integers(2**63)),
            max_buses=6, max_scenarios=4, max_participants=10, meshed=(k % 2 == 0),
        )
        for k in range(FLEET_SIZE)
    ]


def scenario_rated_markets(count: int = 4):
    """The first ``count`` fleet markets with ``scenario_capacities``: each rating times a draw in [0.5, 1]."""
    rng = np.random.default_rng(FLEET_SEED)
    markets = []
    for m in fleet_markets()[:count]:
        net = m.network
        caps = rng.uniform(0.5, 1.0, (m.scenario_count, net.line_count)) * [line.capacity for line in net.lines]
        rated = Network(net.bus_count, net.lines, net.reference_bus, scenario_capacities=caps.tolist())
        markets.append(Market(rated, m.scenarios, m.participants))
    return markets


def _tier_markets(tier: str, seed: int):
    """The markets of ``bench/workloads.py``'s ``tier`` at ``seed``."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return getattr(workloads, tier).markets(seed)


def medium_full_markets(seed: int = 1):
    """The benchmark's ``medium_full`` markets at ``seed``, drawn by ``bench/workloads.py``."""
    return _tier_markets("MEDIUM", seed)


def dispatch_large_markets(seed: int = 1):
    """The benchmark's ``dispatch_large`` markets at ``seed``, drawn by ``bench/workloads.py``."""
    return _tier_markets("LARGE", seed)


@pytest.fixture(scope="session")
def two_bus():
    return two_bus_market()


@pytest.fixture(scope="session")
def two_bus_lm(two_bus):
    return build_loading_matrix(two_bus.network)


@pytest.fixture(scope="session")
def two_bus_dispatch(two_bus):
    return solve_dispatch(two_bus)


# Plans from the worked two-bus example, scenario-major.
TABLE_I = {"G1": [50.0, 50.0], "G2": [100.0, 50.0], "G3": [0.0, 50.0], "L": [-150.0, -150.0]}
TABLE_II = {"G1": [40.0, 40.0], "G2": [80.0, 40.0], "G3": [0.0, 40.0], "L": [-120.0, -120.0]}
TABLE_III = {"G1": [20.0, 20.0], "G2": [100.0, 50.0], "G3": [30.0, 80.0], "L": [-150.0, -150.0]}


@pytest.fixture(scope="session")
def golden_plans():
    return {
        "initial": {k: np.array(v) for k, v in TABLE_I.items()},
        "curtailed": {k: np.array(v) for k, v in TABLE_II.items()},
        "final": {k: np.array(v) for k, v in TABLE_III.items()},
    }


def state_at(market, plans, x):
    """A ``TradingState`` of id-keyed ``plans`` (participants not named at zero) and injections ``x``."""
    zeros = np.zeros(market.scenario_count)
    ids = market.participant_ids
    return TradingState(ids, np.array([plans.get(pid, zeros) for pid in ids], dtype=float), x)


def assert_plans_close(actual, expected, tol=1e-6):
    assert set(actual) == set(expected)
    for pid, plan in expected.items():
        np.testing.assert_allclose(actual[pid], plan, atol=tol, rtol=0)


def kkt_report(market, solution, lm, atol=1e-6):
    """Residuals of the dispatch optimality system, slope intervals at kinks.

    Empty list when, within ``atol``: every participant's stationarity
    interval covers zero, bound multipliers are nonnegative and complementary,
    day-ahead commitment forces cancel over scenarios, and the network-side
    price decomposition holds with nonnegative loading duals complementary to
    slack rows.
    """
    problems = []
    for p in market.participants:
        w = p.weights(market.scenarios)
        plan = solution.plans[p.id]
        for s in range(market.scenario_count):
            lam = solution.lambda_[s, p.bus]
            eta = solution.eta_upper[p.id][s] - solution.eta_lower[p.id][s]
            nu = solution.zeta.get(p.id, np.zeros(market.scenario_count))[s]
            # Solver output lands on a kink only up to round-off: snap within 1e-6.
            kink = min(p.utility[s].breakpoints, key=lambda b: abs(b - plan[s]))
            left, right = p.utility[s].marginals(kink if abs(kink - plan[s]) <= 1e-6 else plan[s])
            lo = w[s] * right + lam - eta - nu
            hi = w[s] * left + lam - eta - nu
            if not (lo <= atol and hi >= -atol):
                problems.append(f"{p.id}/{s}: stationarity interval [{lo:.2e}, {hi:.2e}]")
            lo_b, hi_b = p.bounds[s]
            if solution.eta_lower[p.id][s] < -1e-8 or solution.eta_upper[p.id][s] < -1e-8:
                problems.append(f"{p.id}/{s}: negative bound dual")
            if solution.eta_lower[p.id][s] * (plan[s] - lo_b) > atol * (1 + abs(plan[s])):
                problems.append(f"{p.id}/{s}: lower complementarity")
            if solution.eta_upper[p.id][s] * (hi_b - plan[s]) > atol * (1 + abs(plan[s])):
                problems.append(f"{p.id}/{s}: upper complementarity")
    for pid, nu in solution.zeta.items():
        if abs(float(np.sum(nu))) > atol:
            problems.append(f"{pid}: commitment duals do not cancel")
    for s in range(market.scenario_count):
        stat = solution.lambda_[s] + solution.gamma_s[s] + lm.rows.T @ solution.beta[s]
        if np.max(np.abs(stat)) > atol:
            problems.append(f"network stationarity scenario {s}: {np.max(np.abs(stat)):.2e}")
        if np.min(solution.beta[s]) < -1e-8:
            problems.append(f"negative loading dual scenario {s}")
        slack = lm.limits_for(s) - lm.rows @ solution.x[s]
        # An unrated row never binds, so its dual must vanish (0 * inf would hide it as NaN).
        comp = np.abs(solution.beta[s] * np.where(np.isfinite(slack), slack, 1.0))
        if np.max(comp, initial=0.0) > atol * (1 + float(np.max(np.abs(solution.x[s]), initial=0.0))):
            problems.append(f"loading complementarity scenario {s}")
    return problems
