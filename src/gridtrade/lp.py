"""Linear programming with dual variables, backed by HiGHS.

Constraint matrices may be dense arrays or ``scipy.sparse`` matrices; the
solution and its verification are the same for both.

Every consumer here needs duals, so the solution carries Lagrange
multipliers in a single documented convention.  For the equivalent
maximisation form (``sense="min"`` is solved by negating the objective)
an optimal solution satisfies

    c  =  A_eq^T y_eq  +  A_ub^T y_ub  -  mu_lower  +  mu_upper,

with ``y_ub, mu_lower, mu_upper >= 0`` and complementary slackness.  For a
maximisation, ``y_eq`` is then the shadow price of the equality right-hand
side and ``y_ub`` the (nonnegative) shadow price of relaxing a row limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

__all__ = ["LinearProgram", "LpSolution", "LpError", "LpNumericalError", "solve"]

PRIMAL_TOL = 1e-7
COMPLEMENTARITY_TOL = 1e-6
GAP_TOL = 1e-6

_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class LpError(RuntimeError):
    """Solver failed for a reason other than infeasible/unbounded."""


class LpNumericalError(LpError):
    """An 'optimal' answer violated the solution quality contract."""


@dataclass(frozen=True)
class LinearProgram:
    """min or max of ``c @ x`` over ``A_eq x = b_eq``, ``A_ub x <= b_ub``, boxes.

    ``a_eq`` and ``a_ub`` are dense arrays or sparse matrices (kept as CSR).
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
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("objective must be a finite vector")
        object.__setattr__(self, "c", c)
        n = c.size
        for name, a, b in (("eq", self.a_eq, self.b_eq), ("ub", self.a_ub, self.b_ub)):
            if (a is None) != (b is None):
                raise ValueError(f"a_{name} and b_{name} must be given together")
            if a is not None:
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


_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve(lp: LinearProgram, verify: bool = True) -> LpSolution:
    """Solve ``lp``; on success the KKT residual contract is checked."""
    sign = -1.0 if lp.sense == "max" else 1.0
    res = linprog(
        c=sign * lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status in (2, 3):
        return LpSolution(status=_STATUS[res.status])
    if res.status != 0:
        raise LpError(f"solver failure (status {res.status}): {res.message}")

    x = np.asarray(res.x, dtype=float)
    objective = float(lp.c @ x)
    # scipy marginals are minimisation shadow prices, and the solver always
    # receives the min-equivalent objective, so the mapping onto the
    # maximisation-form multipliers is the same for both senses.
    duals_eq = -np.asarray(res.eqlin.marginals) if lp.a_eq is not None else np.zeros(0)
    duals_ub = -np.asarray(res.ineqlin.marginals) if lp.a_ub is not None else np.zeros(0)
    duals_lower = np.asarray(res.lower.marginals)
    duals_upper = -np.asarray(res.upper.marginals)
    sol = LpSolution(
        status="optimal",
        x=x,
        objective=objective,
        duals_eq=duals_eq,
        duals_ub=duals_ub,
        duals_lower=duals_lower,
        duals_upper=duals_upper,
        residuals=_kkt_residuals(lp, x, duals_eq, duals_ub, duals_lower, duals_upper),
    )
    if verify:
        _check_quality(sol)
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
    primal = 0.0
    stationarity = c_max + mu_lo - mu_hi
    complementarity = 0.0
    dual_value = 0.0
    if lp.a_eq is not None:
        r = lp.a_eq @ x - lp.b_eq
        primal = max(primal, float(np.max(np.abs(r), initial=0.0)))
        stationarity = stationarity - lp.a_eq.T @ y_eq
        dual_value += float(y_eq @ lp.b_eq)
    if lp.a_ub is not None:
        slack = lp.b_ub - lp.a_ub @ x
        primal = max(primal, float(np.max(-slack, initial=0.0)))
        stationarity = stationarity - lp.a_ub.T @ y_ub
        complementarity = max(complementarity, float(np.max(np.abs(y_ub * slack), initial=0.0)))
        dual_value += float(y_ub @ lp.b_ub)
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


def _check_quality(sol: LpSolution) -> None:
    r = sol.residuals
    scale = 1.0 + abs(sol.objective or 0.0)
    if r["primal"] > PRIMAL_TOL:
        raise LpNumericalError(f"primal residual {r['primal']:.2e} exceeds {PRIMAL_TOL}")
    if r["complementarity"] > COMPLEMENTARITY_TOL * scale:
        raise LpNumericalError(f"complementarity residual {r['complementarity']:.2e} too large")
    if r["gap"] > GAP_TOL * scale:
        raise LpNumericalError(f"duality gap {r['gap']:.2e} exceeds {GAP_TOL} * (1+|obj|)")
    if r["sign"] > 1e-8:
        raise LpNumericalError(f"negative multiplier magnitude {r['sign']:.2e}")
