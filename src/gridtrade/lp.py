"""Linear programming with dual variables, backed by HiGHS.

HiGHS is called through the binding scipy bundles
(``scipy.optimize._highspy._core``), with the model and options scipy's
``linprog(method="highs")`` would pass it.  Constraint matrices may be
dense arrays or ``scipy.sparse`` matrices; the solution and its
verification are the same for both.  An omitted constraint family is an
empty one (no rows), so every routine below handles both families alike.

Each solve builds a fresh column-wise ``HighsLp``: the CSC form of the
``a_ub`` rows stacked over the ``a_eq`` rows, from one stable sort of the
stored entries by column, with every array handed over as a Python list,
which the binding copies faster than a numpy array.  The cost goes to HiGHS
divided by the power of two at or above ``max|c|``, and the duals come back
multiplied by it: both are exact, so a program whose cost is scaled by a
power of two reaches HiGHS unchanged and its duals scale exactly.

A solve may start from a :class:`Basis`, the statuses of an earlier solve's
optimal basis (see :func:`solve`); HiGHS then skips presolve and repairs the
basis with the dual simplex, which takes few iterations when the program
moved little.

Every program is a maximisation of ``c @ x``, and every consumer here needs
duals, so the solution carries Lagrange multipliers in a single documented
convention.  An optimal solution satisfies

    c  =  A_eq^T y_eq  +  A_ub^T y_ub  -  mu_lower  +  mu_upper,

with ``y_ub, mu_lower, mu_upper >= 0`` and complementary slackness:
``y_eq`` is the shadow price of the equality right-hand side and ``y_ub``
the (nonnegative) shadow price of relaxing a row limit.

HiGHS minimises ``-c @ x`` and reports minimisation duals, so
``y = -row_dual`` (split into the ``a_ub`` rows, then the ``a_eq`` rows),
``mu_lower = col_dual`` for columns nonbasic at their lower bound and
``mu_upper = -col_dual`` for those at their upper bound; every other bound
multiplier is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

__all__ = ["LinearProgram", "LpSolution", "LpError", "LpNumericalError", "Basis", "COLD", "BASIC", "solve"]

PRIMAL_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
GAP_TOL = 1e-6
STATIONARITY_TOL = 1e-6


def _options() -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-10
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return options


_HIGHS_OPTIONS = _options()
_STATUS = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)
BASIC = _highs.HighsBasisStatus.kBasic


class LpError(RuntimeError):
    """Solver failed for a reason other than infeasible/unbounded."""


class LpNumericalError(LpError):
    """An 'optimal' answer violated the solution quality contract."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximise ``c @ x`` over ``A_eq x = b_eq``, ``A_ub x <= b_ub``, boxes.

    ``a_eq`` and ``a_ub`` are dense arrays or sparse matrices (kept as CSR).
    An omitted constraint family is stored as an empty one: a ``(0, n)``
    matrix and an empty right-hand side.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("objective must be a finite, nonempty vector")
        object.__setattr__(self, "c", c)
        n = c.size
        for name, a, b in (("eq", self.a_eq, self.b_eq), ("ub", self.a_ub, self.b_ub)):
            if (a is None) != (b is None):
                raise ValueError(f"a_{name} and b_{name} must be given together")
            if a is None:
                a, b = np.zeros((0, n)), np.zeros(0)
            is_sparse = sparse.issparse(a)
            a = sparse.csr_matrix(a, dtype=float) if is_sparse else np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.ndim != 2 or a.shape[1] != n or b.shape != (a.shape[0],):
                raise ValueError(f"inconsistent {name} constraint dimensions")
            if not (np.all(np.isfinite(a.data if is_sparse else a)) and np.all(np.isfinite(b))):
                raise ValueError(f"{name} constraints must be finite")
            object.__setattr__(self, f"a_{name}", a)
            object.__setattr__(self, f"b_{name}", b)
        lower = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError("bounds must match the variable count")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True, eq=False)
class Basis:
    """A simplex basis: HiGHS's status of each column, then of each row (the ``a_ub`` rows first).

    The lists hold the statuses as ``getBasis()`` returns them.  ``alien``
    marks a basis whose count of basic statuses may differ from the row
    count; HiGHS then completes or trims it before the solve.
    """

    col_status: list
    row_status: list
    alien: bool = False


# A start for solve(): cold, with presolve, but the solution carries its optimal basis.
COLD = Basis([], [])


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Primal/dual solution; multipliers follow the module convention.

    ``iterations`` counts HiGHS's simplex iterations; ``basis`` is the
    optimal basis, kept only for a solve given a start.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    duals_lower: np.ndarray | None = None
    duals_upper: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    iterations: int | None = None
    basis: Basis | None = None


def linprog(lp: LinearProgram, start: Basis | None = None) -> tuple[str, _highs._Highs, float]:
    """Run HiGHS on ``lp``, from ``start`` unless it is empty; return the status, the solved model and the cost scale.

    The model is ``row_lower <= A x <= row_upper`` with the ``a_ub`` rows
    first (``row_lower = -inf``) and the ``a_eq`` rows after them
    (``row_lower = row_upper = b_eq``), column bounds ``lower``/``upper`` and
    the cost ``-c / scale``, where ``scale`` is the power of two at or
    above ``max|c|``.  A status other than optimal, infeasible or
    unbounded, or a basis HiGHS refuses, raises :class:`LpError`.
    """
    scale = power_of_two_above(float(np.abs(lp.c).max()))
    model = highs_model(lp, scale)
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        # A model HiGHS will not load, such as one with crossed bounds, is
        # reported infeasible, as scipy's linprog reports it.
        return "infeasible", highs, scale
    if start is not None and start.col_status:
        basis = _highs.HighsBasis()
        basis.col_status = start.col_status
        basis.row_status = start.row_status
        basis.alien = start.alien
        basis.valid = True
        if highs.setBasis(basis) == _highs.HighsStatus.kError:
            raise LpError("HiGHS refused the starting basis")
    highs.run()
    status = highs.getModelStatus()
    if status not in _STATUS:
        raise LpError(f"solver failure: {highs.modelStatusToString(status)}")
    return _STATUS[status], highs, scale


def power_of_two_above(value: float) -> float:
    """The least power of two above ``value >= 0``, 1 for 0; ``value * 2**k`` gives it times ``2**k``."""
    return math.ldexp(1.0, math.frexp(value)[1])


def highs_model(lp: LinearProgram, scale: float) -> _highs.HighsLp:
    """The ``HighsLp`` :func:`linprog` hands HiGHS for ``lp`` with the cost divided by ``scale``."""
    start, index, value = _columns([lp.a_ub, lp.a_eq], lp.n_vars)
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
    model.num_row_ = model.a_matrix_.num_row_ = lp.b_ub.size + lp.b_eq.size
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    model.col_cost_ = (lp.c * (-1.0 / scale)).tolist()
    model.col_lower_ = lp.lower.tolist()
    model.col_upper_ = lp.upper.tolist()
    model.row_lower_ = [-np.inf] * lp.b_ub.size + lp.b_eq.tolist()
    model.row_upper_ = lp.b_ub.tolist() + lp.b_eq.tolist()
    return model


def _columns(parts: list, n: int) -> tuple[list[int], list[int], list[float]]:
    """Column-wise ``(start, index, value)`` of the parts stacked by rows.

    These are the ``indptr``, ``indices`` and ``data`` of the stack's
    ``scipy.sparse`` CSC form: row indices ascend within each column, zeros
    of a dense part are left out and entries a sparse part stores (explicit
    zeros too) are kept.
    """
    triplets, offset = [], 0
    for a in parts:
        if sparse.issparse(a):
            r, c, v = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), a.indices, a.data
        else:
            r, c = np.nonzero(a)
            v = a[r, c]
        triplets.append((r + offset, c, v))
        offset += a.shape[0]
    rows, cols, values = (np.concatenate(t) for t in zip(*triplets))
    order = np.argsort(cols, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    return start.tolist(), rows.tolist(), values.tolist()


def solve(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve ``lp``; on success the KKT residual contract is checked.

    A ``start`` basis, an earlier optimal basis of a program with the same
    columns and rows (:data:`COLD` for none), asks for the optimal basis in
    ``LpSolution.basis``; without one, none is fetched.
    """
    status, highs, scale = linprog(lp, start)
    if status != "optimal":
        return LpSolution(status=status)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row_dual = np.array(solution.row_dual) * -scale
    col_dual = np.array(solution.col_dual) * scale
    basis = highs.getBasis()
    statuses = basis.col_status  # a new list of new status objects on every read
    col_status = np.fromiter(map(int, statuses), dtype=int, count=lp.n_vars)
    duals_eq, duals_ub = row_dual[lp.b_ub.size:], row_dual[:lp.b_ub.size]
    duals_lower = np.where(col_status == _AT_LOWER, col_dual, 0.0)
    duals_upper = -np.where(col_status == _AT_UPPER, col_dual, 0.0)
    sol = LpSolution(
        status="optimal",
        x=x,
        objective=float(lp.c @ x),
        duals_eq=duals_eq,
        duals_ub=duals_ub,
        duals_lower=duals_lower,
        duals_upper=duals_upper,
        residuals=_kkt_residuals(lp, x, duals_eq, duals_ub, duals_lower, duals_upper),
        iterations=highs.getInfoValue("simplex_iteration_count")[1],
        basis=None if start is None else Basis(statuses, basis.row_status),
    )
    _check_quality(lp, sol)
    return sol


def _kkt_residuals(
    lp: LinearProgram,
    x: np.ndarray,
    y_eq: np.ndarray,
    y_ub: np.ndarray,
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
) -> dict:
    r = lp.a_eq @ x - lp.b_eq
    slack = lp.b_ub - lp.a_ub @ x
    primal = max(float(np.max(np.abs(r), initial=0.0)), float(np.max(-slack, initial=0.0)))
    stationarity = lp.c + mu_lo - mu_hi - lp.a_eq.T @ y_eq - lp.a_ub.T @ y_ub
    complementarity = float(np.max(np.abs(y_ub * slack), initial=0.0))
    dual_value = float(y_eq @ lp.b_eq) + float(y_ub @ lp.b_ub)
    lo_finite = np.isfinite(lp.lower)
    hi_finite = np.isfinite(lp.upper)
    primal = max(primal, float(np.max((lp.lower - x)[lo_finite], initial=0.0)))
    primal = max(primal, float(np.max((x - lp.upper)[hi_finite], initial=0.0)))
    complementarity = max(
        complementarity,
        float(np.max(np.abs(mu_lo[lo_finite] * (x - lp.lower)[lo_finite]), initial=0.0)),
        float(np.max(np.abs(mu_hi[hi_finite] * (lp.upper - x)[hi_finite]), initial=0.0)),
    )
    dual_value += float(mu_hi[hi_finite] @ lp.upper[hi_finite]) - float(mu_lo[lo_finite] @ lp.lower[lo_finite])
    return {
        "primal": primal,
        "stationarity": float(np.max(np.abs(stationarity), initial=0.0)),
        "complementarity": complementarity,
        "sign": float(max(np.max(-y_ub, initial=0.0), np.max(-mu_lo, initial=0.0), np.max(-mu_hi, initial=0.0))),
        "gap": abs(dual_value - float(lp.c @ x)),
    }


def _check_quality(lp: LinearProgram, sol: LpSolution) -> None:
    r = sol.residuals
    values = (sol.x, sol.duals_eq, sol.duals_ub, sol.duals_lower, sol.duals_upper, [sol.objective], list(r.values()))
    if not np.all(np.isfinite(np.concatenate(values))):
        raise LpNumericalError(f"non-finite solution or residual: {r}")
    scale = 1.0 + abs(sol.objective or 0.0)
    if r["primal"] > PRIMAL_TOL:
        raise LpNumericalError(f"primal residual {r['primal']:.2e} exceeds {PRIMAL_TOL}")
    if r["stationarity"] > STATIONARITY_TOL * (1.0 + float(np.max(np.abs(lp.c), initial=0.0))):
        raise LpNumericalError(
            f"stationarity residual {r['stationarity']:.2e} exceeds {STATIONARITY_TOL} * (1+max|c|)"
        )
    if r["complementarity"] > COMPLEMENTARITY_TOL * scale:
        raise LpNumericalError(f"complementarity residual {r['complementarity']:.2e} too large")
    if r["gap"] > GAP_TOL * scale:
        raise LpNumericalError(f"duality gap {r['gap']:.2e} exceeds {GAP_TOL} * (1+|obj|)")
    if r["sign"] > 1e-8:
        raise LpNumericalError(f"negative multiplier magnitude {r['sign']:.2e}")
