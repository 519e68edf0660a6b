from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from gridtrade import lp as lp_mod
from gridtrade import two_bus_market
from gridtrade.dispatch import solve_dispatch
from gridtrade.lp import LinearProgram, LpNumericalError, _kkt_residuals, solve

from conftest import fleet_markets


def kkt_holds(lp, sol, atol=1e-6):
    """Independent stationarity check in the documented max-form convention."""
    resid = lp.c + sol.duals_lower - sol.duals_upper
    if lp.a_eq is not None:
        resid = resid - lp.a_eq.T @ sol.duals_eq
    if lp.a_ub is not None:
        resid = resid - lp.a_ub.T @ sol.duals_ub
    return float(np.max(np.abs(resid), initial=0.0)) <= atol


def single_variable_box():
    return LinearProgram(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([3.0]),
                         lower=np.array([0.0]))


def infeasible_row():
    return LinearProgram(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([0.0]),
                         lower=np.array([1.0]))


def unbounded():
    return LinearProgram(c=np.array([1.0]))


def crossed_bounds():
    return LinearProgram(c=np.array([1.0]), lower=np.array([2.0]), upper=np.array([1.0]))


def random_box():
    c = np.random.default_rng(3).normal(size=4)
    return LinearProgram(c=c, lower=np.full(4, -5.0), upper=np.full(4, 5.0))


def min_sense_cover():
    # min x1 + 2 x2 s.t. x1 + x2 >= 1 (as -x1 - x2 <= -1), x >= 0, posed as
    # max -x1 - 2 x2.
    return LinearProgram(
        c=np.array([-1.0, -2.0]),
        a_ub=np.array([[-1.0, -1.0]]),
        b_ub=np.array([-1.0]),
        lower=np.zeros(2),
    )


def two_bus_initial_cost():
    # Variables: p1 (committed ahead), p2_w, p2_b, p3_w, p3_b; the fixed
    # 150 MW demand is substituted into the balance rows.  Expected cost
    # 4100 and the merit-order plan are pinned by the hand-derived
    # piecewise cost c(p1) = 5600 - 30 p1 on [0, 50], 18 p1 + 3200 after.
    # The LP maximises the negated cost.
    return LinearProgram(
        c=-np.array([50.0, 0.0, 0.0, 48.0, 32.0]),
        a_eq=np.array([
            [1.0, 1.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 1.0, 0.0, 1.0],
        ]),
        b_eq=np.array([150.0, 150.0]),
        lower=np.zeros(5),
        upper=np.array([200.0, 100.0, 50.0, 100.0, 100.0]),
    )


def random_programs():
    rng = np.random.default_rng(11)
    for k in range(25):
        n = int(rng.integers(2, 6))
        m_eq = int(rng.integers(0, 3))
        m_ub = int(rng.integers(1, 4))
        x0 = rng.uniform(-1, 1, size=n)  # a guaranteed feasible point
        a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
        b_eq = a_eq @ x0 if m_eq else None
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = a_ub @ x0 + rng.uniform(0.1, 2.0, size=m_ub)
        yield LinearProgram(
            c=(1.0 if k % 2 == 0 else -1.0) * rng.normal(size=n),
            a_eq=a_eq,
            b_eq=b_eq,
            a_ub=a_ub,
            b_ub=b_ub,
            lower=np.full(n, -3.0),
            upper=np.full(n, 3.0),
        )


class TestSolve:
    def test_single_variable_box(self):
        sol = solve(single_variable_box())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.duals_ub[0] == pytest.approx(1.0)

    def test_infeasible_reported(self):
        assert solve(infeasible_row()).status == "infeasible"

    def test_unbounded_reported(self):
        assert solve(unbounded()).status == "unbounded"

    def test_crossed_bounds_reported_infeasible(self):
        assert solve(crossed_bounds()).status == "infeasible"

    def test_objective_recomputed_from_primal(self):
        lp = random_box()
        sol = solve(lp)
        assert sol.objective == pytest.approx(float(lp.c @ sol.x), abs=1e-9)

    def test_min_sense_duals(self):
        lp = min_sense_cover()
        sol = solve(lp)
        assert sol.objective == pytest.approx(-1.0)
        assert kkt_holds(lp, sol)

    def test_initial_cost_minimisation_for_two_bus_market(self):
        sol = solve(two_bus_initial_cost())
        assert sol.objective == pytest.approx(-4100.0, abs=1e-7)
        np.testing.assert_allclose(sol.x, [50.0, 100.0, 50.0, 0.0, 50.0], atol=1e-7)

    def test_kkt_on_random_programs(self):
        for lp in random_programs():
            sol = solve(lp)
            assert sol.status == "optimal"
            assert kkt_holds(lp, sol)
            assert sol.residuals["primal"] <= 1e-7
            assert sol.residuals["complementarity"] <= 1e-6 * (1 + abs(sol.objective))
            assert sol.residuals["gap"] <= 1e-6 * (1 + abs(sol.objective))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(c=np.array([1.0]), a_ub=np.array([[1.0, 2.0]]), b_ub=np.array([1.0]))
        with pytest.raises(ValueError):
            LinearProgram(c=np.zeros(0))


class TestStartingBasis:
    """A solve given a start returns its optimal basis; restarting from it takes no iterations."""

    def test_only_a_start_asks_for_the_basis(self):
        lp = two_bus_initial_cost()
        plain, cold = solve(lp), solve(lp, lp_mod.COLD)
        assert plain.basis is None and plain.iterations > 0
        assert cold.iterations == plain.iterations and cold.x.tobytes() == plain.x.tobytes()
        assert len(cold.basis.col_status) == lp.n_vars and len(cold.basis.row_status) == lp.b_eq.size

    def test_restart_from_the_optimal_basis(self):
        for lp in [two_bus_initial_cost(), min_sense_cover(), *random_programs()]:
            cold = solve(lp, lp_mod.COLD)
            warm = solve(lp, cold.basis)
            assert warm.iterations == 0
            np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)

    def test_moved_bound_is_repaired_from_the_old_basis(self):
        lp = two_bus_initial_cost()
        start = solve(lp, lp_mod.COLD).basis
        moved = replace(lp, b_eq=np.array([160.0, 140.0]))
        warm, reference = solve(moved, start), solve(moved)
        assert warm.objective == pytest.approx(reference.objective, rel=1e-12)
        assert kkt_holds(moved, warm)


def test_cost_scaled_by_a_power_of_two_reaches_highs_unchanged():
    """HiGHS sees ``c`` over the power of two at or above ``max|c|``; the duals come back exactly scaled."""
    for lp in [two_bus_initial_cost(), *random_programs()]:
        sol = solve(lp)
        for factor in (2.0**-30, 8.0, 2.0**40):
            scaled = replace(lp, c=factor * lp.c)
            model, base = (lp_mod.highs_model(p, lp_mod.linprog(p)[2]) for p in (scaled, lp))
            assert model.col_cost_.tobytes() == base.col_cost_.tobytes()
            big = solve(scaled)
            assert big.x.tobytes() == sol.x.tobytes()
            for name in ("duals_eq", "duals_ub", "duals_lower", "duals_upper"):
                assert (getattr(big, name) == factor * getattr(sol, name)).all(), name


def _with_residuals(lp, sol, **changes):
    """``sol`` with some fields replaced and its residuals recomputed."""
    sol = replace(sol, **changes)
    residuals = _kkt_residuals(lp, sol.x, sol.duals_eq, sol.duals_ub, sol.duals_lower, sol.duals_upper)
    return replace(sol, residuals=residuals)


class TestQualityContract:
    """``_check_quality`` rejects non-finite answers and wrong multipliers."""

    @pytest.mark.parametrize("key", ["primal", "stationarity", "complementarity", "sign", "gap"])
    def test_nan_residual_rejected(self, key):
        lp = single_variable_box()
        sol = solve(lp)
        with pytest.raises(LpNumericalError, match="non-finite"):
            lp_mod._check_quality(lp, replace(sol, residuals={**sol.residuals, key: np.nan}))

    def test_nan_primal_rejected(self):
        # max(0, nan) is 0, so a NaN point reads as primal feasible and complementary.
        lp = single_variable_box()
        with pytest.raises(LpNumericalError, match="non-finite"):
            lp_mod._check_quality(lp, _with_residuals(lp, solve(lp), x=np.array([np.nan])))

    def test_stationarity_residual_rejected(self):
        lp = single_variable_box()
        sol = solve(lp)
        # Ten times the limit STATIONARITY_TOL * (1 + max|c|), with max|c| = 1.
        residuals = {**sol.residuals, "stationarity": 20 * lp_mod.STATIONARITY_TOL}
        with pytest.raises(LpNumericalError, match="stationarity"):
            lp_mod._check_quality(lp, replace(sol, residuals=residuals))

    def test_flipped_row_dual_sign_fails(self):
        # The sign convention of the row duals is what stationarity pins.
        flipped = 0
        for lp in [single_variable_box(), min_sense_cover(), *random_programs()]:
            sol = solve(lp)
            if np.any(np.abs(sol.duals_ub) > 1e-6):
                flipped += 1
                with pytest.raises(LpNumericalError, match="stationarity"):
                    lp_mod._check_quality(lp, _with_residuals(lp, sol, duals_ub=-sol.duals_ub))
        assert flipped >= 10


# The same programs through scipy's public ``linprog``: it drives the same
# HiGHS binding, so the private ``_highspy._core`` contract that ``lp.linprog``
# relies on is pinned here: a scipy that changes it fails these tests.
_SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def scipy_reference(lp):
    res = scipy.optimize.linprog(
        -lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
        options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    return _SCIPY_STATUS.get(res.status, f"scipy status {res.status}"), res


def captured_programs(monkeypatch, run):
    programs = []
    inner = lp_mod.solve
    monkeypatch.setattr(lp_mod, "solve", lambda lp: programs.append(lp) or inner(lp))
    run()
    monkeypatch.undo()
    return programs


def assert_matches_scipy(lp):
    expected, res = scipy_reference(lp)
    sol = solve(lp)
    assert sol.status == expected
    if expected == "optimal":
        np.testing.assert_allclose(sol.x, res.x, rtol=0, atol=1e-9)
        assert sol.objective == pytest.approx(float(lp.c @ res.x), rel=0, abs=1e-9)


class TestScipyOracle:
    @pytest.mark.parametrize("build", [single_variable_box, infeasible_row, unbounded, crossed_bounds,
                                       random_box, min_sense_cover, two_bus_initial_cost])
    def test_named_programs(self, build):
        assert_matches_scipy(build())

    def test_random_programs(self):
        for lp in random_programs():
            assert_matches_scipy(lp)

    def test_dispatch_programs(self, monkeypatch):
        markets = [two_bus_market(), *fleet_markets()]
        programs = captured_programs(monkeypatch, lambda: [solve_dispatch(m) for m in markets])
        assert len(programs) == len(markets)
        for lp in programs:
            assert_matches_scipy(lp)


def _sparse_with_zeros(rng, m, n):
    """CSR matrix whose stored entries include explicit zeros."""
    a = sparse.random(m, n, density=0.4, format="csr", random_state=rng)
    a.data[::3] = 0.0
    return a


def _dense_with_zeros(rng, m, n):
    return np.where(rng.random((m, n)) < 0.5, 0.0, rng.normal(size=(m, n)))


class TestColumns:
    """``linprog`` hands HiGHS exactly the CSC arrays of the stacked ``a_ub``, ``a_eq``."""

    @staticmethod
    def assert_csc(lp):
        parts = [lp.a_ub, lp.a_eq]
        if any(sparse.issparse(a) for a in parts):
            ref = sparse.vstack(parts, format="csc")
        else:
            ref = sparse.csc_array(np.vstack(parts))
        start, index, value = lp_mod._columns(parts, lp.n_vars)
        assert start == ref.indptr.tolist()
        assert index == ref.indices.tolist()
        assert value == ref.data.tolist()

    @pytest.mark.parametrize("ub, eq", [
        ("dense", "dense"), ("dense", None), (None, "dense"), (None, None),
        ("csr", "csr"), ("csr", None), (None, "csr"), ("csr", "dense"), ("dense", "csr"),
    ])
    def test_matches_scipy_csc(self, ub, eq):
        rng = np.random.default_rng(5)
        make = {"dense": _dense_with_zeros, "csr": _sparse_with_zeros}
        for n in (1, 4, 9):
            a_ub = make[ub](rng, 5, n) if ub else None
            a_eq = make[eq](rng, 3, n) if eq else None
            lp = LinearProgram(
                c=np.ones(n),
                a_ub=a_ub, b_ub=None if a_ub is None else np.ones(5),
                a_eq=a_eq, b_eq=None if a_eq is None else np.zeros(3),
            )
            self.assert_csc(lp)

    def test_explicit_zeros_are_kept(self):
        a = sparse.csr_matrix((np.array([0.0, 2.0]), np.array([1, 0]), np.array([0, 2])), shape=(1, 2))
        lp = LinearProgram(c=np.ones(2), a_ub=a, b_ub=np.ones(1))
        assert lp_mod._columns([lp.a_ub, lp.a_eq], 2) == ([0, 1, 2], [0, 0], [2.0, 0.0])
        self.assert_csc(lp)

    def test_dispatch_programs(self, monkeypatch):
        markets = [two_bus_market(), *fleet_markets()[:10]]
        for lp in captured_programs(monkeypatch, lambda: [solve_dispatch(m) for m in markets]):
            self.assert_csc(lp)


def _solution(**residuals):
    """An 'optimal' one-variable solution at 0 whose residuals are zero but for ``residuals``."""
    r = {"primal": 0.0, "stationarity": 0.0, "complementarity": 0.0, "sign": 0.0, "gap": 0.0, **residuals}
    empty = np.zeros(0)
    return lp_mod.LpSolution("optimal", np.zeros(1), 0.0, empty, empty, np.zeros(1), np.zeros(1), r)


def _quality(**residuals):
    lp_mod._check_quality(LinearProgram(c=np.ones(1)), _solution(**residuals))


INPUT_ERRORS = [
    (lambda: LinearProgram(c=np.ones(1), a_eq=np.ones((1, 1))), ValueError,
     "a_eq and b_eq must be given together"),
    (lambda: LinearProgram(c=np.ones(1), a_ub=np.full((1, 1), np.inf), b_ub=np.ones(1)), ValueError,
     "ub constraints must be finite"),
    (lambda: LinearProgram(c=np.ones(1), a_eq=np.ones((1, 1)), b_eq=np.full(1, np.nan)), ValueError,
     "eq constraints must be finite"),
    (lambda: LinearProgram(c=np.ones(1), lower=np.zeros(2)), ValueError, "bounds must match the variable count"),
    (lambda: _quality(primal=1e-6), LpNumericalError, "primal residual 1.00e-06 exceeds 1e-07"),
    (lambda: _quality(complementarity=1e-3), LpNumericalError, "complementarity residual 1.00e-03 too large"),
    (lambda: _quality(gap=1e-3), LpNumericalError, "duality gap 1.00e-03 exceeds 1e-06 * (1+|obj|)"),
    (lambda: _quality(sign=1e-6), LpNumericalError, "negative multiplier magnitude 1.00e-06"),
]


@pytest.mark.parametrize("call,error,message", INPUT_ERRORS, ids=[m for *_, m in INPUT_ERRORS])
def test_documented_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_crafted_solution_within_every_bound_passes():
    lp_mod._check_quality(LinearProgram(c=np.ones(1)), _solution())
