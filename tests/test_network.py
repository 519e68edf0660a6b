import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridtrade import ProposerStrategy, make_proposer, two_bus_market
from gridtrade.dispatch import check_arrow_debreu, solve_dispatch
from gridtrade.market import Market
from gridtrade.network import (
    DisconnectedNetworkError,
    Line,
    LoadingMatrix,
    Network,
    binding_lines,
    binding_mask,
    build_loading_matrix,
    check_feasible,
    curtailment_factor,
    curtailment_factors,
    is_feasible_direction,
)
from gridtrade.trading import EngineConfig, announce, run_trading


def ptdf_via_pseudoinverse(network):
    """Independent oracle: shift factors from the full Laplacian pseudoinverse."""
    n = network.bus_count
    a = network.incidence()
    b = np.array([1.0 / line.reactance for line in network.lines])
    lap = a.T @ (b[:, None] * a)
    lplus = np.linalg.pinv(lap)
    h = (b[:, None] * a) @ lplus
    # Shift so the reference column is zero (flows of balanced p are unchanged).
    return h - h[:, [network.reference_bus]]


def flows_by_tree_walk(network, p):
    """Independent oracle on trees: accumulate subtree injections by DFS."""
    adj = {v: [] for v in range(network.bus_count)}
    for idx, line in enumerate(network.lines):
        adj[line.from_bus].append((line.to_bus, idx, 1.0))
        adj[line.to_bus].append((line.from_bus, idx, -1.0))
    flows = np.zeros(network.line_count)

    def subtree_sum(u, parent):
        total = p[u]
        for v, idx, orient in adj[u]:
            if v == parent:
                continue
            child = subtree_sum(v, u)
            flows[idx] = -orient * child  # flow toward u carries the child subtree
            total += child
        return total

    subtree_sum(0, -1)
    return flows


def excess(lm, x):
    """``(S, 2L)`` loading minus limit, each loading ``lm.rows @ x[s]`` as the library computes it."""
    return (lm.rows @ x[..., None])[..., 0] - lm.stacked_limits(x.shape[0])


def random_connected_network(rng, n, extra=0, ref=None):
    lines = [
        Line(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(50, 200)))
        for v in range(1, n)
    ]
    seen = {(l.from_bus, l.to_bus) for l in lines}
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in seen]
    rng.shuffle(candidates)
    for u, v in candidates[:extra]:
        lines.append(Line(u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(50, 200))))
    return Network(n, tuple(lines), reference_bus=int(rng.integers(0, n)) if ref is None else ref)


class TestBuildLoadingMatrix:
    def test_two_bus_single_line(self):
        net = Network(2, (Line(0, 1, reactance=0.7, capacity=120.0),), reference_bus=1)
        lm = build_loading_matrix(net)
        np.testing.assert_allclose(lm.rows[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(lm.limits, [120.0, 120.0])

    def test_triangle_equal_reactance_ptdf_third(self):
        net = Network(
            3,
            (Line(0, 1, 1.0, 100.0), Line(1, 2, 1.0, 100.0), Line(0, 2, 1.0, 100.0)),
            reference_bus=2,
        )
        lm = build_loading_matrix(net)
        # Injection at bus 0, withdrawal at the reference: one third takes the
        # two-hop path through line 0-1.
        assert lm.rows[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        oracle = ptdf_via_pseudoinverse(net)
        np.testing.assert_allclose(lm.rows[: net.line_count], oracle, atol=1e-9)

    def test_matches_pseudoinverse_oracle_on_random_networks(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_connected_network(rng, int(rng.integers(2, 7)), extra=int(rng.integers(0, 3)))
            lm = build_loading_matrix(net)
            np.testing.assert_allclose(lm.rows[: net.line_count], ptdf_via_pseudoinverse(net), atol=1e-8)

    def test_reverse_rows_are_negated_forward_rows(self):
        rng = np.random.default_rng(8)
        net = random_connected_network(rng, 5, extra=2)
        lm = build_loading_matrix(net)
        L = net.line_count
        np.testing.assert_allclose(lm.rows[L:], -lm.rows[:L], atol=0)

    def test_flows_depend_only_on_balanced_injections(self):
        # Adding a uniform shift changes nothing once balance is enforced
        # separately; equivalently H applied to balanced vectors is reference
        # independent.
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            lines = [
                Line(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0)), 100.0)
                for v in range(1, n)
            ]
            net_a = Network(n, tuple(lines), reference_bus=0)
            net_b = Network(n, tuple(lines), reference_bus=n - 1)
            p = rng.normal(size=n)
            p -= p.mean()
            fa = build_loading_matrix(net_a).rows[: n - 1] @ p
            fb = build_loading_matrix(net_b).rows[: n - 1] @ p
            np.testing.assert_allclose(fa, fb, atol=1e-9)

    def test_tree_flows_match_dfs_oracle(self):
        rng = np.random.default_rng(10)
        net = random_connected_network(rng, 6, extra=0, ref=0)
        lm = build_loading_matrix(net)
        for _ in range(100):
            p = rng.normal(size=6)
            p -= p.mean()
            np.testing.assert_allclose(
                lm.rows[: net.line_count] @ p, flows_by_tree_walk(net, p), atol=1e-9
            )

    def test_disconnected_network_rejected(self):
        with pytest.raises(DisconnectedNetworkError):
            Network(4, (Line(0, 1, 1.0, 10.0), Line(2, 3, 1.0, 10.0)))

    def test_line_validation(self):
        with pytest.raises(ValueError):
            Line(0, 0, 1.0, 10.0)
        with pytest.raises(ValueError):
            Line(0, 1, -1.0, 10.0)
        with pytest.raises(ValueError):
            Line(0, 1, 1.0, 0.0)


@pytest.fixture(scope="module")
def two_bus_lm120():
    net = Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1)
    return build_loading_matrix(net)


@pytest.fixture(scope="module")
def triangle_lm():
    net = Network(
        3, (Line(0, 1, 1.0, 100.0), Line(1, 2, 1.0, 100.0), Line(0, 2, 1.0, 100.0)), reference_bus=0
    )
    return build_loading_matrix(net)


@st.composite
def scenario_limited_case(draw, lm):
    """Per-scenario capacities for 2-3 scenarios, a feasible state and a direction.

    The state is a balanced draw scaled towards (and sometimes onto) its
    tightest limit per scenario.  The last bus takes the negated sum of the
    others, so the balance round-off stays relative to the state and
    survives scaling a near-zero state up (centring a draw with equal
    entries leaves pure round-off, which that scaling would unbalance far
    beyond 1e-9 MW).  Directions are whole MW, so on the equal-reactance
    triangle every nonzero row increase is at least 1/3 MW.
    """
    count = draw(st.integers(2, 3))
    caps = draw(hnp.arrays(float, (count, lm.line_count), elements=st.floats(20.0, 200.0)))
    lm = lm.with_scenario_capacities(caps)
    raw = draw(hnp.arrays(float, (count, lm.bus_count - 1), elements=st.floats(-100.0, 100.0)))
    x = np.concatenate([raw, -raw.sum(axis=1, keepdims=True)], axis=1)
    ratio = ((lm.rows @ x[..., None])[..., 0] / lm.scenario_limits).max(axis=1, keepdims=True)
    fill = draw(hnp.arrays(float, (count, 1), elements=st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    x = x * fill / np.maximum(ratio, 1e-12)
    q = draw(hnp.arrays(float, (count, lm.bus_count), elements=st.integers(-200, 200).map(float)))
    return lm, x, q - q.mean(axis=1, keepdims=True)


class TestCheckFeasible:
    def test_zero_state_feasible(self, two_bus_lm120):
        report = check_feasible(two_bus_lm120, np.zeros((2, 2)))
        assert report.ok and not report.line_violations

    def test_overload_reports_excess(self, two_bus_lm120):
        report = check_feasible(two_bus_lm120, np.array([150.0, -150.0]))
        assert not report.ok
        assert report.line_violations == ((0, 0, pytest.approx(30.0)),)

    def test_tight_state_feasible(self, two_bus_lm120):
        report = check_feasible(two_bus_lm120, np.array([120.0, -120.0]))
        assert report.ok

    def test_balance_residual_reported(self, two_bus_lm120):
        report = check_feasible(two_bus_lm120, np.array([10.0, -9.0]))
        assert not report.ok
        assert report.balance_residuals[0] == pytest.approx(1.0)

    def test_non_finite_injections_rejected(self, two_bus_lm120):
        with pytest.raises(ValueError, match="finite"):
            check_feasible(two_bus_lm120, np.array([np.nan, 0.0]))


class TestBindingLines:
    def test_interior_state_has_no_binding_rows(self, two_bus_lm120):
        assert binding_lines(two_bus_lm120, np.zeros(2)) == ()

    def test_forward_row_binds_at_capacity(self, two_bus_lm120):
        assert binding_lines(two_bus_lm120, np.array([120.0, -120.0])) == (0,)

    def test_below_capacity_not_binding(self, two_bus_lm120):
        assert binding_lines(two_bus_lm120, np.array([80.0, -80.0])) == ()

    def test_infeasible_state_rejected(self, two_bus_lm120):
        with pytest.raises(ValueError, match="infeasible"):
            binding_lines(two_bus_lm120, np.array([150.0, -150.0]))


class TestFeasibleDirection:
    def test_counterflow_on_binding_line(self, two_bus_lm120):
        x = np.array([[120.0, -120.0]])
        assert is_feasible_direction(two_bus_lm120, x, np.array([[-10.0, 10.0]]))

    def test_withflow_on_binding_line(self, two_bus_lm120):
        x = np.array([[120.0, -120.0]])
        assert not is_feasible_direction(two_bus_lm120, x, np.array([[10.0, -10.0]]))

    def test_vacuous_without_binding_lines(self, two_bus_lm120):
        x = np.array([[30.0, -30.0]])
        assert is_feasible_direction(two_bus_lm120, x, np.array([[1e6, -1e6]]))


class TestCurtailmentFactor:
    def test_overloaded_proposal_scaled_to_fit(self, two_bus_lm120):
        gamma = curtailment_factor(
            two_bus_lm120,
            np.zeros((2, 2)),
            np.array([[150.0, -150.0], [100.0, -100.0]]),
        )
        assert gamma == pytest.approx(0.8, abs=1e-12)

    def test_within_headroom_accepted_fully(self, two_bus_lm120):
        gamma = curtailment_factor(two_bus_lm120, np.array([[10.0, -10.0]]), np.array([[50.0, -50.0]]))
        assert gamma == 1.0

    def test_half_headroom_ratio(self, two_bus_lm120):
        gamma = curtailment_factor(two_bus_lm120, np.array([[100.0, -100.0]]), np.array([[40.0, -40.0]]))
        assert gamma == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(x1=st.floats(-100, 100), q1=st.floats(-200, 200))
    def test_maximality(self, two_bus_lm120, x1, q1):
        x = np.array([[x1, -x1]])
        q = np.array([[q1, -q1]])
        gamma = curtailment_factor(two_bus_lm120, x, q)
        assert check_feasible(two_bus_lm120, x + gamma * q).ok
        if gamma < 1.0:
            beyond = x + min(1.0, gamma + 1e-6) * q
            assert np.max(excess(two_bus_lm120, beyond)) > 1e-10

    def test_blocked_direction_returns_zero(self, two_bus_lm120):
        gamma = curtailment_factor(two_bus_lm120, np.array([[120.0, -120.0]]), np.array([[10.0, -10.0]]))
        assert gamma == 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_per_scenario_maximality(self, triangle_lm, data):
        lm, x, q = data.draw(scenario_limited_case(triangle_lm))
        gammas = curtailment_factors(lm, x, q)
        assert gammas.shape == (x.shape[0],)
        assert curtailment_factor(lm, x, q) == gammas.min()
        stepped = x + gammas[:, None] * q
        assert check_feasible(lm, stepped).ok
        for s, gamma in enumerate(gammas):
            if gamma < 1.0:
                beyond = stepped.copy()
                beyond[s] = x[s] + min(1.0, gamma + 1e-6) * q[s]
                over = (excess(lm, beyond) > 1e-10).any(axis=1)
                assert np.flatnonzero(over).tolist() == [s]

    def test_network_without_lines(self):
        lm = build_loading_matrix(Network(1, ()))
        x, q = np.zeros((3, 1)), np.array([[0.0], [5.0], [-5.0]])
        np.testing.assert_array_equal(curtailment_factors(lm, x, q), [1.0, 1.0, 1.0])
        assert curtailment_factor(lm, x, q) == 1.0
        assert is_feasible_direction(lm, x, q)
        assert binding_mask(lm, x).shape == (3, 0)
        assert check_feasible(lm, x).ok


class TestScenarioLimits:
    def test_override_changes_binding_and_gamma(self):
        net = Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1)
        lm = build_loading_matrix(net).with_scenario_capacities(np.array([[120.0], [60.0]]))
        x = np.array([[0.0, 0.0], [0.0, 0.0]])
        q = np.array([[100.0, -100.0], [100.0, -100.0]])
        assert curtailment_factor(lm, x, q) == pytest.approx(0.6)
        assert binding_lines(lm, np.array([60.0, -60.0]), scenario=1) == (0,)
        assert binding_lines(lm, np.array([60.0, -60.0]), scenario=0) == ()

    def test_binding_lines_needs_a_scenario_under_scenario_limits(self):
        net = Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1, scenario_capacities=((120.0,), (60.0,)))
        with pytest.raises(ValueError, match="scenario index"):
            binding_lines(build_loading_matrix(net), np.array([60.0, -60.0]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_announce_is_binding_lines_per_scenario(self, triangle_lm, data):
        lm, x, q = data.draw(scenario_limited_case(triangle_lm))
        x = x + curtailment_factors(lm, x, q)[:, None] * q
        expected = np.zeros((x.shape[0], lm.rows.shape[0]), dtype=bool)
        for s in range(x.shape[0]):
            expected[s, list(binding_lines(lm, x[s], scenario=s))] = True
        np.testing.assert_array_equal(announce(x, lm), expected)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_must_match_scenarios(self, rows):
        market = two_bus_market()
        solution = solve_dispatch(market)
        lm = build_loading_matrix(market.network).with_scenario_capacities(np.full((rows, 1), 100.0))
        x = np.zeros((2, 2))
        names = f"{rows} rows for 2 scenarios"
        with pytest.raises(ValueError, match=names):
            solve_dispatch(market, lm)
        with pytest.raises(ValueError, match=names):
            run_trading(market, EngineConfig(), make_proposer(ProposerStrategy()), lm)
        with pytest.raises(ValueError, match=names):
            check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_, lm=lm)
        with pytest.raises(ValueError, match=names):
            check_feasible(lm, x)
        with pytest.raises(ValueError, match=names):
            curtailment_factor(lm, x, x)


class TestLoadingMatrixValidation:
    @pytest.mark.parametrize("limit", [np.nan, 0.0, -5.0])
    def test_limits_must_be_positive(self, limit):
        lm = build_loading_matrix(two_bus_market().network)
        with pytest.raises(ValueError, match="limits must be positive"):
            LoadingMatrix(lm.rows, [limit, 120.0])
        with pytest.raises(ValueError, match="scenario_limits must be positive"):
            LoadingMatrix(lm.rows, lm.limits, [[120.0, 120.0], [120.0, limit]])
        with pytest.raises(ValueError, match="scenario_limits must be positive"):
            lm.with_scenario_capacities([[limit], [120.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rows_must_be_finite(self, entry):
        with pytest.raises(ValueError, match="rows must be finite"):
            LoadingMatrix([[1.0, entry], [-1.0, 0.0]], [120.0, 120.0])

    def test_infinite_limits_and_zero_lines_build(self):
        lm = build_loading_matrix(two_bus_market().network).with_scenario_capacities([[np.inf], [120.0]])
        np.testing.assert_array_equal(lm.scenario_limits, [[np.inf, np.inf], [120.0, 120.0]])
        empty = build_loading_matrix(Network(1, (), reference_bus=0)).with_scenario_capacities(np.zeros((3, 0)))
        assert empty.rows.shape == (0, 1) and empty.scenario_limits.shape == (3, 0)


class TestNetworkScenarioCapacities:
    def test_ratings_reach_the_loading_matrix(self):
        net = Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1,
                      scenario_capacities=((120.0,), (60.0,)))
        lm = build_loading_matrix(net)
        np.testing.assert_array_equal(lm.scenario_limits, [[120.0, 120.0], [60.0, 60.0]])
        np.testing.assert_array_equal(lm.limits, [120.0, 120.0])

    @pytest.mark.parametrize("caps,message", [
        (((120.0, 1.0), (60.0,)), "1 ratings"),
        (((120.0,), (0.0,)), "positive"),
        (((120.0,), (float("nan"),)), "positive"),
    ])
    def test_invalid_ratings_rejected(self, caps, message):
        with pytest.raises(ValueError, match=message):
            Network(2, (Line(0, 1, 1.0, 120.0),), reference_bus=1, scenario_capacities=caps)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_market_needs_one_row_per_scenario(self, rows):
        base = two_bus_market()
        net = Network(2, base.network.lines, reference_bus=1, scenario_capacities=((60.0,),) * rows)
        with pytest.raises(ValueError, match=f"{rows} rows for 2 scenarios"):
            Market(net, base.scenarios, base.participants)
