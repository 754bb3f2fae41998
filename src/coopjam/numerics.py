"""Shared numerical kernels: exponential integral, semi-infinite
quadrature and a small LP front end.

The exponential integral is implemented here rather than imported so its
accuracy on the product arguments the outage formulas generate is under
our control (series in extended precision near zero, continued fraction
for large arguments).  Quadrature and LP solves delegate to scipy behind
thin, typed contracts.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.optimize

from .errors import (AccuracyError, DomainError, InvalidInputError,
                     NumericalError)

_EULER_GAMMA = 0.57721566490153286060651209008240243

# Series/continued-fraction crossover.  The alternating series loses
# roughly |x|/ln(10) digits to cancellation, so it runs in longdouble
# and hands over at |x| = 6 where the fraction is already fast.
_EI_CUTOVER = 6.0


def _ei_series_neg(x: float) -> float:
    """Ei(x) for small negative x via the power series.

    Accumulated in longdouble: at x = -6 the leading terms reach ~1e2
    while the result is ~1e-4, so float64 would lose ~6 digits.
    """
    xl = np.longdouble(x)
    term = xl
    total = xl
    k = 1
    while True:
        k += 1
        term *= xl / k
        inc = term / k
        total += inc
        if abs(inc) <= np.abs(total) * np.longdouble(1e-21) or k > 200:
            break
    return float(total + np.longdouble(_EULER_GAMMA) + np.log(np.abs(xl)))


def _e1_cf_scaled(t: float, max_iter: int = 400) -> float:
    """exp(t) * E1(t) for t > 0 by the modified Lentz continued fraction.

    E1(t) = exp(-t) * cf with cf = 1/(t+1- 1/(t+3- 4/(t+5- ...))); the
    scaled form never underflows.
    """
    tiny = 1e-300
    b = t + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    delta = 0.0
    for i in range(1, max_iter + 1):
        a = -float(i) * float(i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    if abs(delta - 1.0) < 1e-12:
        return h
    raise NumericalError(f"exponential-integral fraction stalled at t={t}")


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative x.

    Raises DomainError for x >= 0 (the positive branch is never needed
    here and has a singularity at 0).
    """
    x = float(x)
    if not np.isfinite(x) or x >= 0.0:
        raise DomainError(f"Ei is only evaluated for x < 0, got {x}")
    if x >= -_EI_CUTOVER:
        return _ei_series_neg(x)
    t = -x
    if t > 745.0:
        # exp(-t) underflows; the true value is smaller than the
        # smallest subnormal.
        return -0.0
    return -math.exp(-t) * _e1_cf_scaled(t)


def scaled_exp_integral_ei(t: float) -> float:
    """exp(t) * Ei(-t) for t > 0; stays finite for arbitrarily large t.

    This is the combination the closed-form outage terms actually use,
    fused so exp overflow never occurs.
    """
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise DomainError(f"need t > 0, got {t}")
    if t <= _EI_CUTOVER:
        return math.exp(t) * _ei_series_neg(-t)
    return -_e1_cf_scaled(t)


# ---------------------------------------------------------------------------
# semi-infinite quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def integrate_semi_infinite(f, a: float, rel_tol: float = 1e-10,
                            max_subdivisions: int = 200) -> QuadratureResult:
    """Adaptive integral of ``f`` over [a, infinity).

    Wraps scipy's QUADPACK with a non-finite guard on the integrand.
    If the requested accuracy is not certified the best estimate is
    attached to the raised AccuracyError.
    """
    if not np.isfinite(a):
        raise InvalidInputError("lower limit must be finite")
    if rel_tol <= 0:
        raise InvalidInputError("rel_tol must be positive")
    calls = [0]

    def guarded(x):
        calls[0] += 1
        v = f(x)
        if not np.isfinite(v):
            raise NumericalError(f"integrand returned {v} at x={x}")
        return v

    out = scipy.integrate.quad(guarded, a, np.inf, epsabs=1e-12,
                               epsrel=rel_tol, limit=max_subdivisions,
                               full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise AccuracyError(
            f"quadrature did not converge: {out[3].strip()} "
            f"(estimate {value:.6g}, err {abserr:.2g})",
            best_estimate=value)
    return QuadratureResult(value=float(value),
                           abs_error_estimate=float(abserr),
                           evaluations=calls[0])


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """min c @ x subject to rows (a, relation, b) and bounds on x.

    relation is one of "<=", ">=", "="; bounds entries may be +/-inf.
    """

    c: np.ndarray
    rows: tuple = ()
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        n = c.size
        lower = (np.full(n, -np.inf) if self.lower is None
                 else np.asarray(self.lower, dtype=float))
        upper = (np.full(n, np.inf) if self.upper is None
                 else np.asarray(self.upper, dtype=float))
        if lower.shape != (n,) or upper.shape != (n,):
            raise InvalidInputError("bound shapes do not match objective")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        rows = []
        for a, rel, b in self.rows:
            a = np.asarray(a, dtype=float)
            if a.shape != (n,):
                raise InvalidInputError(
                    f"constraint row shape {a.shape} != ({n},)")
            if rel not in ("<=", ">=", "="):
                raise InvalidInputError(f"unknown relation {rel!r}")
            rows.append((a, rel, float(b)))
        object.__setattr__(self, "rows", tuple(rows))


@dataclass(frozen=True)
class LpResult:
    status: str           # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


def lp_solve(lp: LinearProgram, presolve: bool = True) -> LpResult:
    """Solve a small dense LP (HiGHS under the hood).

    Goes through scipy's ``milp`` front end with no integer variables:
    the same HiGHS LP solve as ``linprog(method="highs")`` at about half
    the per-call cost.  ``presolve=False`` skips HiGHS's presolve, whose
    reductions can call a feasible LP infeasible (see _slice_optimum).
    """
    constraints = None
    if lp.rows:
        a = np.array([row[0] for row in lp.rows])
        b = np.array([row[2] for row in lp.rows])
        rel = np.array([row[1] for row in lp.rows])
        constraints = scipy.optimize.LinearConstraint(
            a, np.where(rel == "<=", -np.inf, b),
            np.where(rel == ">=", np.inf, b))
    res = scipy.optimize.milp(
        lp.c, constraints=constraints,
        bounds=scipy.optimize.Bounds(lp.lower, lp.upper),
        options=None if presolve else {"presolve": False})
    if res.status == 0:
        return LpResult(status="optimal", x=np.asarray(res.x, dtype=float),
                        value=float(res.fun))
    if res.status == 2:
        return LpResult(status="infeasible", x=None, value=None)
    if res.status == 3:
        return LpResult(status="unbounded", x=None, value=None)
    raise NumericalError(f"LP solver failed: {res.message}")
