"""Linear programming with dual variables, backed by HiGHS.

HiGHS is called through the binding scipy bundles
(``scipy.optimize._highspy._core``), with the model and options scipy's
``linprog(method="highs")`` would pass it.  Constraint matrices may be
dense arrays or ``scipy.sparse`` matrices; the solution and its
verification are the same for both.  An omitted constraint family is an
empty one (no rows), so every routine below handles both families alike.

Every consumer here needs duals, so the solution carries Lagrange
multipliers in a single documented convention.  For the equivalent
maximisation form (``sense="min"`` is solved by negating the objective)
an optimal solution satisfies

    c  =  A_eq^T y_eq  +  A_ub^T y_ub  -  mu_lower  +  mu_upper,

with ``y_ub, mu_lower, mu_upper >= 0`` and complementary slackness.  For a
maximisation, ``y_eq`` is then the shadow price of the equality right-hand
side and ``y_ub`` the (nonnegative) shadow price of relaxing a row limit.

HiGHS minimises ``-c @ x`` for a maximisation (``c @ x`` otherwise) and
reports minimisation duals, so for both senses ``y = -row_dual`` (split
into the ``a_ub`` rows, then the ``a_eq`` rows), ``mu_lower = col_dual``
for columns nonbasic at their lower bound and ``mu_upper = -col_dual`` for
those at their upper bound; every other bound multiplier is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

__all__ = ["LinearProgram", "LpSolution", "LpError", "LpNumericalError", "solve"]

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


class LpError(RuntimeError):
    """Solver failed for a reason other than infeasible/unbounded."""


class LpNumericalError(LpError):
    """An 'optimal' answer violated the solution quality contract."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max of ``c @ x`` over ``A_eq x = b_eq``, ``A_ub x <= b_ub``, boxes.

    ``a_eq`` and ``a_ub`` are dense arrays or sparse matrices (kept as CSR).
    An omitted constraint family is stored as an empty one: a ``(0, n)``
    matrix and an empty right-hand side.
    """

    sense: str
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
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


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual solution; multipliers follow the module convention."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    duals_lower: np.ndarray | None = None
    duals_upper: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)


def linprog(lp: LinearProgram) -> tuple[str, _highs._Highs]:
    """Run HiGHS on ``lp``; return the status and the solved model.

    The model is ``row_lower <= A x <= row_upper`` with the ``a_ub`` rows
    first (``row_lower = -inf``) and the ``a_eq`` rows after them
    (``row_lower = row_upper = b_eq``), column bounds ``lower``/``upper`` and
    the min-equivalent cost.  A status other than optimal, infeasible or
    unbounded raises :class:`LpError`.
    """
    parts = [lp.a_ub, lp.a_eq]
    if any(sparse.issparse(a) for a in parts):
        a = sparse.vstack(parts, format="csc")
    else:
        a = sparse.csc_array(np.vstack(parts))
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_vars
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = a.indptr
    model.a_matrix_.index_ = a.indices
    model.a_matrix_.value_ = a.data
    model.col_cost_ = -lp.c if lp.sense == "max" else lp.c
    model.col_lower_ = lp.lower
    model.col_upper_ = lp.upper
    model.row_lower_ = np.concatenate([np.full(lp.b_ub.size, -np.inf), lp.b_eq])
    model.row_upper_ = np.concatenate([lp.b_ub, lp.b_eq])
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        # A model HiGHS will not load, such as one with crossed bounds, is
        # reported infeasible, as scipy's linprog reports it.
        return "infeasible", highs
    highs.run()
    status = highs.getModelStatus()
    if status not in _STATUS:
        raise LpError(f"solver failure: {highs.modelStatusToString(status)}")
    return _STATUS[status], highs


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp``; on success the KKT residual contract is checked."""
    status, highs = linprog(lp)
    if status != "optimal":
        return LpSolution(status=status)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row_dual = -np.array(solution.row_dual)
    col_dual = np.array(solution.col_dual)
    col_status = np.array([int(s) for s in highs.getBasis().col_status])
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
    c_max = lp.c if lp.sense == "max" else -lp.c
    r = lp.a_eq @ x - lp.b_eq
    slack = lp.b_ub - lp.a_ub @ x
    primal = max(float(np.max(np.abs(r), initial=0.0)), float(np.max(-slack, initial=0.0)))
    stationarity = c_max + mu_lo - mu_hi - lp.a_eq.T @ y_eq - lp.a_ub.T @ y_ub
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
    obj_max = float(c_max @ x)
    return {
        "primal": primal,
        "stationarity": float(np.max(np.abs(stationarity), initial=0.0)),
        "complementarity": complementarity,
        "sign": float(max(np.max(-y_ub, initial=0.0), np.max(-mu_lo, initial=0.0), np.max(-mu_hi, initial=0.0))),
        "gap": abs(dual_value - obj_max),
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
