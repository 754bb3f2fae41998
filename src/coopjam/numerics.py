"""Shared numerical kernels: exponential integral, semi-infinite
quadrature and a small LP solver.

The exponential integral is implemented here rather than imported so its
accuracy on the product arguments the outage formulas generate is under
our control (series in extended precision near zero, continued fraction
for large arguments, each at a fixed depth).  Only the scaled form
exp(t) Ei(-t), t > 0, that those formulas use is offered; plain Ei(-t)
underflows where the scaled form stays finite.  It acts on whole arrays
in one fixed-shape pass per branch; every operation is elementwise, so
an element gets the bits it would get alone, and one call serves every
argument of a closed-form evaluation.  The quadrature is a globally
adaptive Gauss-Kronrod rule on QUADPACK's map of the half line; its
integrand acts elementwise on an ndarray of nodes, so each refinement
round costs one call rather than one Python callback per node.  The LPs,
all tiny and dense, go to a bounded-variable primal simplex on a numpy
tableau.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, InvalidInputError,
                     NumericalError)
from .model import _integer

_EULER_GAMMA = 0.57721566490153286060651209008240243

# Series/continued-fraction crossover.  The alternating series loses
# roughly |x|/ln(10) digits to cancellation, so it runs in longdouble
# and hands over at |x| = 6 where the fraction is already fast.
_EI_CUTOVER = 6.0
# Series terms summed.  At |x| = 6, the widest argument the series
# takes, term 61 is ~4e-39 of the sum, far below a longdouble ulp
# (~5e-20 relative), so the tail left out cannot change the sum.
_SERIES_TERMS = 60
# Levels of the continued fraction evaluated.  From t = 6 up, 32 levels
# are within 2.5e-16 relative of exp(t) E1(t) (checked against mpmath
# from 6 to 1e300); the truncation error falls fast as t grows.
_CF_DEPTH = 32


def _ei_series_neg(x: np.ndarray) -> np.ndarray:
    """Ei(x) for small negative x via the power series
    gamma + ln|x| + sum_k x**k / (k k!), elementwise over a 1-d array.

    Accumulated in longdouble: at x = -6 the leading terms reach ~1e2
    while the result is ~1e-4, so float64 would lose ~6 digits.  All
    _SERIES_TERMS terms of every element are formed at once, as a
    cumulative product of the factors x/k divided by k, and summed in
    order of k by a cumulative sum (not np.sum, whose pairwise order
    would round differently).
    """
    xl = np.asarray(x, dtype=np.longdouble)
    ks = np.arange(1, _SERIES_TERMS + 1, dtype=np.longdouble)[:, None]
    terms = xl / ks
    np.multiply.accumulate(terms, out=terms)
    terms /= ks
    np.add.accumulate(terms, out=terms)
    return (terms[-1] + np.longdouble(_EULER_GAMMA)
            + np.log(np.abs(xl))).astype(float)


def _e1_cf_scaled(t: np.ndarray) -> np.ndarray:
    """exp(t) * E1(t) for t > 0 by its continued fraction, elementwise
    over a 1-d array; at depth _CF_DEPTH it is accurate to double
    precision from t = 4 up.

    exp(t) E1(t) = 1/(t+1- 1/(t+3- 4/(t+5- ...))) (Abramowitz & Stegun
    5.1.22), evaluated backward from level _CF_DEPTH; the scaled form
    never underflows.
    """
    t = np.asarray(t, dtype=float)
    # t + 2k - 1 for k = _CF_DEPTH .. 1, one row per level
    levels = t + np.arange(2 * _CF_DEPTH - 1, 0, -2, dtype=float)[:, None]
    f = t + (2 * _CF_DEPTH + 1)
    for k, level in zip(range(_CF_DEPTH, 0, -1), levels):
        np.divide(k * k, f, out=f)
        np.subtract(level, f, out=f)
    return 1.0 / f


def scaled_exp_integral_ei(t):
    """exp(t) * Ei(-t) for t > 0; stays finite for arbitrarily large t.

    This is the combination the closed-form outage terms actually use,
    fused so exp overflow never occurs.  ``t`` is a float, which gives a
    float, or an ndarray, which gives an ndarray of its shape.  Every
    operation is elementwise, so an element and a lone float agree bit
    for bit; any element that is not finite and positive raises
    DomainError.
    """
    if np.ndim(t) == 0:
        return float(scaled_exp_integral_ei(np.array([t], dtype=float))[0])
    t = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t) & (t > 0.0))
    if bad.any():
        raise DomainError(f"need t > 0, got {t[bad].flat[0]}")
    flat = t.ravel()
    out = np.empty(flat.shape)
    near = flat <= _EI_CUTOVER
    if near.any():
        # math.exp, not np.exp: the two differ in the last bit on some
        # arguments, and a float t has always been scaled by math.exp
        scale = np.array([math.exp(v) for v in flat[near].tolist()])
        out[near] = scale * _ei_series_neg(-flat[near])
    if not near.all():
        out[~near] = -_e1_cf_scaled(flat[~near])
    return out.reshape(t.shape)


# ---------------------------------------------------------------------------
# semi-infinite quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


# QUADPACK's 15-point Kronrod rule and its embedded 7-point Gauss rule
# (Piessens et al., QUADPACK, 1983) on [-1, 1], nodes ordered -x_1..-x_7,
# x_1..x_7, 0; the Gauss rule weighs the Kronrod-only nodes by 0.  Column
# 0 of _WEIGHTS is the Kronrod rule and column 1 the Kronrod minus the
# Gauss weights, so one product gives each interval's value and its
# Kronrod-Gauss difference.
_KRONROD_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649])
_GAUSS_W = np.array([0.0, 0.129484966168869693270611432679082,
                     0.0, 0.279705391489276667901467771423780,
                     0.0, 0.381830050505118944950369775488975, 0.0])
_NODES = np.concatenate([-_KRONROD_X, _KRONROD_X, [0.0]])
_WK15 = np.concatenate([_KRONROD_W, _KRONROD_W,
                        [0.209482141084727828012999174891714]])
_WG7 = np.concatenate([_GAUSS_W, _GAUSS_W,
                       [0.417959183673469387755102040816327]])
_WEIGHTS = np.column_stack([_WK15, _WK15 - _WG7])
_ROUNDING = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
_EPSABS = 1e-12


def _kronrod_rule(f, a, centre, half):
    """QUADPACK's qk15i on the t-intervals centre +- half of (0, 1], all
    in one call of ``f`` on their 15 * len(centre) nodes.  Returns each
    interval's Kronrod value and qk15i's error estimate for it."""
    t = centre[:, None] + half[:, None] * _NODES
    x = a + (1.0 - t) / t
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise InvalidInputError(
            f"integrand returned shape {fx.shape} for x of shape {x.shape}; "
            "it must act elementwise")
    # integrand times the map's Jacobian and the half-width, so that the
    # weighted sums below are integrals over each interval
    g = fx * (half[:, None] / (t * t))
    if not np.isfinite(g).all():
        i = np.flatnonzero(~np.isfinite(g))[0]
        raise NumericalError(
            f"integrand returned {fx.flat[i]} at x={x.flat[i]} "
            f"(weighted: {g.flat[i]})")
    value, diff = (g @ _WEIGHTS).T
    resabs = np.abs(g) @ _WK15
    # spread of g about its mean; |K - G| <= 1.06 * resasc, so where
    # resasc is 0 the difference is rounding that the floor covers
    resasc = np.abs(g - 0.5 * value[:, None]) @ _WK15
    err = resasc * np.minimum(
        1.0, (200.0 * np.abs(diff) / np.maximum(resasc, _TINY)) ** 1.5)
    return value, np.maximum(err, _ROUNDING * resabs)


def integrate_semi_infinite(f, a: float, rel_tol: float = 1e-10,
                            max_subdivisions: int = 200) -> QuadratureResult:
    """Integral of ``f`` over [a, infinity) by globally adaptive
    Gauss-Kronrod quadrature.

    ``f`` takes an ndarray of x and returns an ndarray of the same
    shape.  As in QUADPACK's qagi, x = a + (1 - t)/t maps t in (0, 1]
    onto the half line and each t-interval gets the 15-point Kronrod
    rule, with the 7-point Gauss rule inside it for the error estimate.
    Each round bisects every interval whose error estimate exceeds its
    share (its width) of the tolerance max(1e-12, rel_tol * |value|),
    and evaluates all the new intervals' nodes in one call of ``f``.
    If that tolerance is not met within ``max_subdivisions`` intervals,
    the best estimate is attached to the raised AccuracyError.  There is
    no extrapolation (qagi's epsilon algorithm), so an integrable
    singularity such as x**-0.5 at x = a ends in that error.
    """
    if not np.isfinite(a):
        raise InvalidInputError("lower limit must be finite")
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise InvalidInputError(
            f"rel_tol must be finite and positive, got {rel_tol}")
    max_subdivisions = _integer("max_subdivisions", max_subdivisions)
    if max_subdivisions < 1:
        raise InvalidInputError("max_subdivisions must be at least 1")
    centre, half = np.array([0.5]), np.array([0.5])
    value, err = _kronrod_rule(f, a, centre, half)
    evaluations = _NODES.size
    while True:
        total, total_err = math.fsum(value), math.fsum(err)
        tol = max(_EPSABS, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(value=total, abs_error_estimate=total_err,
                                    evaluations=evaluations)
        room = max_subdivisions - centre.size
        if room <= 0:
            raise AccuracyError(
                f"quadrature did not converge within {max_subdivisions} "
                f"subintervals (estimate {total:.6g}, err {total_err:.2g})",
                best_estimate=total)
        # the shares 2 * tol * half are exact and add up to tol, so some
        # interval exceeds its share whenever the total exceeds tol; a
        # NaN error (overflow inside the rule) counts as exceeding it
        split = np.flatnonzero(~(err <= 2.0 * tol * half))
        if split.size > room:
            split = split[np.argsort(err[split])[-room:]]
        keep = np.ones(centre.size, dtype=bool)
        keep[split] = False
        h = 0.5 * half[split]
        c = centre[split]
        new_centre = np.concatenate([c - h, c + h])
        new_half = np.concatenate([h, h])
        new_value, new_err = _kronrod_rule(f, a, new_centre, new_half)
        evaluations += _NODES.size * new_centre.size
        centre = np.concatenate([centre[keep], new_centre])
        half = np.concatenate([half[keep], new_half])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """min c @ x subject to row_lower <= a @ x <= row_upper and
    lower <= x <= upper.

    ``a`` is a dense (k, n) matrix, one row per constraint; a row whose
    two bounds are equal is an equality.  Any bound may be +/-inf, and
    omitted bounds are unbounded.  Without ``a`` there are no rows.
    """

    c: np.ndarray
    a: np.ndarray | None = None
    row_lower: np.ndarray | None = None
    row_upper: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        def array(name, shape, fill):
            value = getattr(self, name)
            value = (np.full(shape, fill) if value is None
                     else np.asarray(value, dtype=float))
            if value.shape != shape:
                raise InvalidInputError(
                    f"{name} has shape {value.shape}, expected {shape}")
            object.__setattr__(self, name, value)

        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        n = self.c.size
        k = np.shape(self.a)[0] if np.ndim(self.a) else 0
        array("a", (k, n), 0.0)
        array("row_lower", (k,), -np.inf)
        array("row_upper", (k,), np.inf)
        array("lower", (n,), -np.inf)
        array("upper", (n,), np.inf)


@dataclass(frozen=True)
class LpResult:
    status: str           # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


# Passes of the simplex loop (one pricing each, then one pivot or bound
# flip) before lp_solve gives up with NumericalError.
_LP_MAX_ITERATIONS = 500
# A basic variable within this of a bound, relative to max(1, |bound|),
# counts as feasible.
_LP_PRIMAL_TOL = 1e-12
# Reduced costs within this do not pivot; in phase 2 it is relative to
# max(1, max |c|).
_LP_DUAL_TOL = 1e-9
# Tableau entries within this of 0, relative to their column's largest,
# are never pivoted on.
_LP_PIVOT_TOL = 1e-9


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve a small dense LP by a bounded-variable primal simplex.

    Each row i gets an activity variable s_i = a_i @ x, bounded by the
    row bounds, so the system is [A, -I] @ (x, s) = 0 with every
    variable between its bounds.  The start basis is s; each x starts at
    its lower bound, else its upper bound, else 0 (free).  Phase 1
    minimises the total bound violation of the basic variables, whose
    per-variable costs of -1, 0 or +1 are re-read each pass; once none
    is violated, phase 2 minimises c @ x.  The dense tableau
    B^-1 [A, -I] is updated by one rank-one pivot per basis change.  A
    step ends at the first bound a basic variable reaches (an infeasible
    one at the bound it violates), or where the entering variable
    reaches its other bound, a flip with no basis change.  Entering and
    leaving variables follow Bland's smallest-index rule, so degenerate
    pivots cannot cycle (Bland, Math. Oper. Res. 1977).

    The basic values returned are solved afresh from the final basis, so
    nonbasic variables and rows sit exactly at their bounds.  Statuses:
    "optimal", "infeasible" (phase 1 stalls with a violation left) or
    "unbounded" (an improving direction meets no bound).
    """
    c, a = lp.c, lp.a
    k, n = a.shape
    lo = np.concatenate([lp.lower, lp.row_lower])
    hi = np.concatenate([lp.upper, lp.row_upper])
    if (not (np.isfinite(c).all() and np.isfinite(a).all())
            or np.isnan(lo).any() or np.isnan(hi).any()):
        raise InvalidInputError("LP data must be finite and bounds not NaN")
    if (lo > hi).any() or (lo == np.inf).any() or (hi == -np.inf).any():
        return LpResult(status="infeasible", x=None, value=None)
    full = np.hstack([a, -np.eye(k)])
    tab = -full                        # B^-1 [A, -I] for the basis B = -I
    basis = list(range(n, n + k))
    y = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    cost = np.concatenate([c, np.zeros(k)])
    lo_w = lo - _LP_PRIMAL_TOL * np.maximum(1.0, np.abs(lo))
    hi_w = hi + _LP_PRIMAL_TOL * np.maximum(1.0, np.abs(hi))
    cost_tol = _LP_DUAL_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    # the directions each nonbasic variable may move in; fixed and basic
    # variables move in none
    movable = lo < hi
    can_up = movable & (y < hi)
    can_down = movable & (y > lo)
    can_up[n:] = can_down[n:] = False
    # per basis position: value, bounds, bounds widened by the
    # tolerance, and cost
    yb = a @ y[:n]
    lo_b, hi_b = lo[n:].copy(), hi[n:].copy()
    lo_wb, hi_wb = lo_w[n:].copy(), hi_w[n:].copy()
    cost_b = np.zeros(k)
    for _ in range(_LP_MAX_ITERATIONS):
        below = yb < lo_wb
        above = yb > hi_wb
        phase1 = below.any() or above.any()
        if phase1:
            d = np.subtract(below, above, dtype=float) @ tab
            tol = _LP_DUAL_TOL
        else:
            d = cost - cost_b @ tab
            tol = cost_tol
        eligible = ((d < -tol) & can_up) | ((d > tol) & can_down)
        j = int(eligible.argmax())
        if not eligible[j]:
            if phase1:
                return LpResult(status="infeasible", x=None, value=None)
            break
        sign = 1.0 if d[j] < 0 else -1.0
        alpha = sign * tab[:, j]       # yb moves by -step * alpha
        size = np.abs(alpha)
        falling = alpha > 0
        # a basic variable stops at the bound it violates, else at the
        # one it moves towards; moving further out, it never stops
        target = np.where(falling, np.where(above, hi_b, lo_b),
                          np.where(below, lo_b, hi_b))
        stops = ((size > _LP_PIVOT_TOL * size.max(initial=0.0))
                 & ~np.where(falling, below, above))
        ratio = np.full(k, np.inf)
        ratio[stops] = np.maximum(
            (yb[stops] - target[stops]) / alpha[stops], 0.0)
        theta = ratio.min(initial=np.inf)
        step = hi[j] - lo[j]
        if theta >= step:
            # the entering variable reaches its other bound first
            if step == np.inf:
                if phase1:
                    raise NumericalError("LP phase 1 found no bounded step")
                return LpResult(status="unbounded", x=None, value=None)
            yb -= step * alpha
            y[j] = hi[j] if sign > 0 else lo[j]
            can_up[j], can_down[j] = sign < 0, sign > 0
            continue
        yb -= theta * alpha
        ties = np.flatnonzero(ratio <= theta + 1e-12 * max(1.0, theta))
        r = min(ties, key=basis.__getitem__)
        leaving = basis[r]
        y[leaving] = target[r]
        can_up[leaving] = movable[leaving] and target[r] < hi[leaving]
        can_down[leaving] = movable[leaving] and target[r] > lo[leaving]
        can_up[j] = can_down[j] = False
        yb[r] = y[j] + sign * theta
        row = tab[r] / tab[r, j]
        tab -= np.outer(tab[:, j], row)
        tab[r] = row
        basis[r] = j
        lo_b[r], hi_b[r], lo_wb[r], hi_wb[r] = lo[j], hi[j], lo_w[j], hi_w[j]
        cost_b[r] = cost[j]
    else:
        raise NumericalError(
            f"LP simplex did not finish within {_LP_MAX_ITERATIONS} passes")
    if k:
        off = np.ones(n + k, dtype=bool)
        off[basis] = False
        try:
            y[basis] = np.linalg.solve(full[:, basis],
                                       -(full[:, off] @ y[off]))
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"LP basis is singular: {err}") from None
    x = y[:n].copy()
    return LpResult(status="optimal", x=x, value=float(c @ x))
