import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._highspy._core import HighsBasis, HighsBasisStatus

from gridtrade import lp as lp_mod
from gridtrade import two_bus_market
from gridtrade.dispatch import check_arrow_debreu, solve_dispatch
from gridtrade.lp import LinearProgram, LpNumericalError, _kkt_residuals, solve
from gridtrade.proposer import ProposerStrategy, make_proposer
from gridtrade.trading import EngineConfig, run_trading

from conftest import dispatch_large_markets, fleet_markets, medium_full_markets


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
        plain, cold = solve(lp), solve(lp, HighsBasis())
        assert plain.basis is None and plain.iterations > 0
        assert cold.iterations == plain.iterations and cold.x.tobytes() == plain.x.tobytes()
        assert len(cold.basis.col_status) == lp.n_vars and len(cold.basis.row_status) == lp.b_eq.size

    def test_restart_from_the_optimal_basis(self):
        for lp in [two_bus_initial_cost(), min_sense_cover(), *random_programs()]:
            cold = solve(lp, HighsBasis())
            warm = solve(lp, cold.basis)
            assert warm.iterations == 0
            np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)

    def test_kept_basis_belongs_to_the_caller(self):
        # Other solves on the thread, warm and cold, dense and sparse, of
        # other sizes, leave a kept basis as it was: it is no view of the
        # thread's instance.
        lp = two_bus_initial_cost()
        kept = solve(lp, HighsBasis()).basis
        statuses = kept.col_status, kept.row_status
        for other in [min_sense_cover(), random_box(), *random_programs()]:
            for program in (other, _as_sparse(other)):
                solve(program, solve(program, HighsBasis()).basis)
        assert (kept.col_status, kept.row_status) == statuses
        assert solve(lp, kept).iterations == 0

    def test_moved_bound_is_repaired_from_the_old_basis(self):
        lp = two_bus_initial_cost()
        start = solve(lp, HighsBasis()).basis
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


def captured_solves(monkeypatch, run):
    """Every ``(program, start)`` that ``run`` hands ``lp.solve``."""
    solves = []
    inner = lp_mod.solve
    monkeypatch.setattr(lp_mod, "solve", lambda lp, start=None: solves.append((lp, start)) or inner(lp, start))
    run()
    monkeypatch.undo()
    return solves


def captured_programs(monkeypatch, run):
    return [lp for lp, _ in captured_solves(monkeypatch, run)]


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


def _stacked_rows(lp):
    """The CSR of ``lp.a_ub`` over ``lp.a_eq``, each part's stored entries kept in their order."""
    return sparse.vstack([sparse.csr_array(a) for a in (lp.a_ub, lp.a_eq)], format="csr")


ROWWISE_MODEL = lp_mod.highs_model


def columnwise_model(lp, scale):
    """``highs_model``'s model with its matrix handed over column-wise, from scipy's CSC of the stack."""
    model = ROWWISE_MODEL(lp, scale)
    cols = _stacked_rows(lp).tocsc()
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = cols.indptr.tolist()
    model.a_matrix_.index_ = cols.indices.tolist()
    model.a_matrix_.value_ = cols.data.tolist()
    return model


def full_group_runs(markets):
    """Full-group trading to the certificate, then the dispatch and its equilibrium check, on each market."""
    for market in markets:
        run_trading(market, EngineConfig(epsilon=1e-3), make_proposer(ProposerStrategy()))
        dispatch_and_check(market)


def dispatch_and_check(market):
    solution = solve_dispatch(market)
    check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_)


class TestColumns:
    """``highs_model`` hands HiGHS the CSR rows of the stacked ``a_ub``, ``a_eq``; HiGHS holds their CSC columns."""

    @staticmethod
    def assert_csc(lp):
        rows = _stacked_rows(lp)
        start, index, value = lp_mod._rows([lp.a_ub, lp.a_eq])
        assert start == rows.indptr.tolist()
        assert index == rows.indices.tolist()
        assert value == rows.data.tolist()
        highs = _highs._Highs()
        highs.passOptions(lp_mod._options())
        highs.passModel(lp_mod.highs_model(lp, 1.0))
        held = highs.getLp().a_matrix_
        cols = rows.tocsc()
        cols.eliminate_zeros()  # HiGHS drops explicit zeros as it loads a model
        assert held.format_ == _highs.MatrixFormat.kColwise
        assert held.start_ == cols.indptr.tolist()
        assert held.index_ == cols.indices.tolist()
        assert held.value_ == cols.data.tolist()

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
        # One row storing column 1 (an explicit zero) before column 0: handed over as stored.
        a = sparse.csr_matrix((np.array([0.0, 2.0]), np.array([1, 0]), np.array([0, 2])), shape=(1, 2))
        lp = LinearProgram(c=np.ones(2), a_ub=a, b_ub=np.ones(1), a_eq=np.array([[0.0, 3.0]]), b_eq=np.ones(1))
        assert lp_mod._rows([lp.a_ub, lp.a_eq]) == ([0, 2, 3], [1, 0, 1], [0.0, 2.0, 3.0])
        self.assert_csc(lp)

    def test_dispatch_programs(self, monkeypatch):
        markets = [two_bus_market(), *fleet_markets()[:10]]
        for lp in captured_programs(monkeypatch, lambda: [solve_dispatch(m) for m in markets]):
            self.assert_csc(lp)

    def test_rowwise_and_columnwise_models_solve_alike(self, monkeypatch):
        # The LPs of full-group fleet and medium_full runs and of dispatch_large's dispatch
        # and equilibrium check, dense and CSR, each from its own start.
        solves = captured_solves(monkeypatch, lambda: (
            full_group_runs(fleet_markets()),
            full_group_runs(medium_full_markets()),
            [dispatch_and_check(m) for m in dispatch_large_markets()],
        ))
        assert any(sparse.issparse(program.a_ub) for program, _ in solves)
        assert any(not sparse.issparse(program.a_ub) for program, _ in solves)

        def solved(model, program, start):
            monkeypatch.setattr(lp_mod, "highs_model", model)
            status, highs, _ = lp_mod.linprog(program, start)
            solution = highs.getSolution()
            return status, [np.array(v).tobytes() for v in (solution.col_value, solution.col_dual, solution.row_dual)]

        for program, start in solves:
            assert solved(ROWWISE_MODEL, program, start) == solved(columnwise_model, program, start)


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


@pytest.mark.parametrize("lower, upper", [
    ([np.nan], [1.0]), ([0.0], [np.nan]), ([np.inf], [np.inf]), ([-np.inf], [-np.inf]),
], ids=["nan-lower", "nan-upper", "lower-plus-inf", "upper-minus-inf"])
def test_non_finite_column_bounds_rejected(lower, upper):
    with pytest.raises(ValueError, match="bounds must not be NaN, lower \\+inf or upper -inf"):
        LinearProgram(c=np.ones(1), lower=np.array(lower), upper=np.array(upper))


def _as_sparse(lp):
    return replace(lp, a_eq=sparse.csr_matrix(lp.a_eq), a_ub=sparse.csr_matrix(lp.a_ub))


def refused_start():
    """A two-column program with a one-column start, which HiGHS refuses: the solve raises."""
    lp = LinearProgram(c=np.ones(2), lower=np.zeros(2), upper=np.ones(2))
    start = HighsBasis()
    start.col_status, start.alien, start.valid = [lp_mod.BASIC], False, True
    return lp, start


def shared_solver_cases():
    """Dense and sparse programs: optimal, infeasible, unbounded, refused by ``passModel``, and a raising solve."""
    programs = [single_variable_box(), infeasible_row(), unbounded(), crossed_bounds(), random_box(),
                min_sense_cover(), two_bus_initial_cost(), *random_programs()]
    cases = [(p, None) for p in programs] + [(_as_sparse(p), None) for p in programs]
    cases += [(two_bus_initial_cost(), HighsBasis()), (_as_sparse(min_sense_cover()), HighsBasis()), refused_start()]
    return cases


def outcome(case):
    """Everything a solve returns, with its arrays as bytes, or the error it raised."""
    try:
        sol = solve(*case)
    except lp_mod.LpError as err:
        return "raised", str(err)
    if sol.status != "optimal":
        return (sol.status,)
    arrays = (sol.x, sol.duals_eq, sol.duals_ub, sol.duals_lower, sol.duals_upper)
    return sol.status, *(a.tobytes() for a in arrays), sol.objective, sol.iterations, sol.basis is None


def run_threads(*targets):
    """Run each target in its own new thread, with frequent thread switches, and wait for all."""
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def in_fresh_thread(function, *args):
    result = []
    run_threads(lambda: result.append(function(*args)))
    return result[0]


class TestSharedSolver:
    """Each thread's one HiGHS instance gives every solve the answer a fresh instance gives."""

    def test_solve_order_and_fresh_threads_agree(self):
        cases = shared_solver_cases()
        forward = [outcome(case) for case in cases]
        backward = [outcome(case) for case in reversed(cases)][::-1]
        alone = [in_fresh_thread(outcome, case) for case in cases]
        assert forward == backward == alone
        assert {o[0] for o in forward} == {"optimal", "infeasible", "unbounded", "raised"}

    def test_concurrent_threads_match_serial_results(self):
        cases = shared_solver_cases()
        serial = [outcome(case) for case in cases]
        results = [{} for _ in range(3)]

        def work(k):
            for i in np.random.default_rng(k).permutation(len(cases)):
                results[k][i] = outcome(cases[i])

        run_threads(*(lambda k=k: work(k) for k in range(len(results))))
        for result in results:
            assert [result[i] for i in range(len(cases))] == serial

    def test_presolve_only_for_sparse_programs(self):
        dense = two_bus_initial_cost()
        for lp, presolve in ((dense, "off"), (_as_sparse(dense), "on"),
                             (replace(dense, a_eq=sparse.csr_matrix(dense.a_eq)), "on")):
            _, highs, _ = lp_mod.linprog(lp)
            assert highs.getOptionValue("presolve")[1] == presolve

    def test_only_a_warm_solve_reads_the_basis(self):
        lp = two_bus_initial_cost()
        assert solve(lp).basis is None
        warm = solve(lp, solve(lp, HighsBasis()).basis)
        assert isinstance(warm.basis, HighsBasis) and len(warm.basis.col_status) == lp.n_vars


def basis_split(lp, start=None):
    """The bound multipliers of an optimal ``lp`` split by HiGHS's column statuses."""
    status, highs, scale = lp_mod.linprog(lp, start)
    assert status == "optimal"
    col_dual = np.array(highs.getSolution().col_dual) * scale
    statuses = np.array([int(s) for s in highs.getBasis().col_status])
    at_lower, at_upper = (statuses == int(k) for k in (HighsBasisStatus.kLower, HighsBasisStatus.kUpper))
    return np.where(at_lower, col_dual, 0.0), -np.where(at_upper, col_dual, 0.0)


def test_sign_rule_reproduces_the_basis_status_split(monkeypatch):
    """On the fleet's search, dispatch and operator LPs and the two-bus dispatch, bit for bit."""
    calls = []
    inner = lp_mod.solve
    monkeypatch.setattr(lp_mod, "solve", lambda lp, *start: calls.append((lp, *start)) or inner(lp, *start))
    for market in [two_bus_market(), *fleet_markets()]:
        result = run_trading(market, EngineConfig(epsilon=1e-3), make_proposer(ProposerStrategy()))
        solution = solve_dispatch(market)
        check_arrow_debreu(market, solution.plans, solution.x, solution.lambda_)
        assert result.converged
    monkeypatch.undo()
    cold = [(_as_sparse(lp),) for lp, *start in calls if not start]  # presolved
    compared = 0
    for call in calls + cold:
        split = basis_split(*call)
        sol = solve(*call)
        assert sol.duals_lower.tobytes() == split[0].tobytes()
        assert sol.duals_upper.tobytes() == split[1].tobytes()
        compared += 1
    assert compared == 369 and len(calls) == 267
