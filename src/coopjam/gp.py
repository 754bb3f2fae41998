"""Posynomial machinery and the successive-approximation building blocks.

The secrecy-rate objective is a ratio of posynomials in the jammer
powers, which is not directly a geometric program.  The denominator
posynomial is condensed into a single monomial by the weighted AM-GM
inequality (evaluated at an expansion point, where the bound is tight),
turning each SINR-ratio constraint into a valid GP constraint.

The condensed ratios exist in one form, dense term rows for all
eavesdroppers at once (``_condensed_ratio_rows``): the SCA program
builder appends the t column to them, and ``power_opt.kkt_check``
evaluates them at stacked points.  Programs are held as dense arrays
too, every constraint term's log coefficient and exponent row stacked
constraint by constraint, and the solver, a primal-dual interior-point
method in log space, reads them directly.  ``Monomial``, ``Posynomial``
and ``condense`` work on single expressions given term by term.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, DomainError, InvalidInputError,
                     NumericalError)
from .model import ChannelGains, Scenario, _check_dims

# condensation weights below this are clamped to it
WEIGHT_CLAMP = 1e-14


def _logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a finite 1-d array.

    Same arithmetic as ``scipy.special.logsumexp`` (the maximal terms
    split off, the rest through log1p), without its per-call overhead,
    which dominated evaluating these few-term sums.
    """
    top = v.max()
    at_top = v == top
    count = np.count_nonzero(at_top)
    ex = np.exp(v - top)
    ex[at_top] = 0.0
    return float(np.log1p(ex.sum() / count) + np.log(count) + top)


@dataclass(frozen=True)
class Monomial:
    """c * prod_k x_k**e_k with c > 0; exponents may be any reals."""

    coeff: float
    exponents: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.exponents, dtype=float)
        object.__setattr__(self, "exponents", e)
        if not (np.isfinite(self.coeff) and self.coeff > 0):
            raise InvalidInputError(f"monomial coefficient must be > 0, got {self.coeff}")
        if e.ndim != 1 or not np.isfinite(e).all():
            raise InvalidInputError("exponents must be a finite 1-d vector")

    @property
    def n_vars(self) -> int:
        return self.exponents.size

    def evaluate(self, x) -> float:
        x = _positive_point(x, self.n_vars)
        return float(math.exp(math.log(self.coeff) + self.exponents @ np.log(x)))


class Posynomial:
    """Sum of monomials over a common variable vector.

    Keeps its ``terms`` and their coefficient vector and exponent matrix
    (one row per term).
    """

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise InvalidInputError("posynomial needs at least one term")
        widths = {t.n_vars for t in terms}
        if len(widths) != 1:
            raise InvalidInputError(f"mixed term widths {widths}")
        self.coeffs = np.array([t.coeff for t in terms])
        self.exponent_matrix = np.vstack([t.exponents for t in terms])
        self.terms = terms

    @property
    def n_vars(self) -> int:
        return self.exponent_matrix.shape[1]

    def evaluate(self, x) -> float:
        x = _positive_point(x, self.n_vars)
        logs = np.log(self.coeffs) + self.exponent_matrix @ np.log(x)
        return float(np.exp(_logsumexp(logs)))


def _positive_point(x, n_vars: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n_vars,):
        raise InvalidInputError(f"point shape {x.shape} != ({n_vars},)")
    if not (np.isfinite(x).all() and (x > 0).all()):
        raise DomainError("posynomials are evaluated at strictly positive points")
    return x


def _condense_rows(log_coeffs: np.ndarray, exponents: np.ndarray,
                   log_x: np.ndarray):
    """Condense each row of a stack of posynomials sharing one exponent
    matrix; a row's absent terms carry log coefficient -inf.

    Returns (log coefficient (R,), exponents (R, n), weights (R, K)) of
    the condensed monomials; absent terms get weight 0.
    """
    logs = log_coeffs + exponents @ log_x
    alpha = np.exp(logs - logs.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    present = log_coeffs > -np.inf
    low = present & (alpha < WEIGHT_CLAMP)
    if low.any():
        alpha[low] = WEIGHT_CLAMP
        alpha /= alpha.sum(axis=1, keepdims=True)
    safe_log_c = np.where(present, log_coeffs, 0.0)
    safe_log_a = np.log(np.where(present, alpha, 1.0))
    log_hat = (alpha * (safe_log_c - safe_log_a)).sum(axis=1)
    return log_hat, alpha @ exponents, alpha


def condense(g: Posynomial, x_hat):
    """Best monomial lower bound of ``g`` touching it at ``x_hat``, and
    its AM-GM weights, one per term of ``g``.

    Weighted AM-GM: with a_k proportional to the term values at x_hat,
    ghat(x) = prod_k (term_k(x)/a_k)**a_k satisfies ghat <= g everywhere
    and ghat(x_hat) = g(x_hat).  Weights below WEIGHT_CLAMP are clamped
    and the vector renormalised, which perturbs tightness by
    O(WEIGHT_CLAMP) but keeps downstream log-space arithmetic finite.
    """
    x_hat = _positive_point(x_hat, g.n_vars)
    log_hat, e_hat, alpha = _condense_rows(
        np.log(g.coeffs)[None, :], g.exponent_matrix, np.log(x_hat))
    return Monomial(coeff=math.exp(log_hat[0]), exponents=e_hat[0]), alpha[0]


# ---------------------------------------------------------------------------
# SINR-ratio posynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _product_layout(n: int):
    """Exponent rows of (sum_i a_i p_i + a_n + a_{n+1}) *
    (sum_j b_j p_j + b_n), one per (i, j) pair, ordered by exponent
    vector (stably, so like terms keep their (i, j) order), and the
    permutation taking the flattened (i, j) grid to that order."""
    e_a = np.vstack([np.eye(n), np.zeros((2, n))])
    e_b = np.vstack([np.eye(n), np.zeros((1, n))])
    e = (e_a[:, None, :] + e_b[None, :, :]).reshape(-1, n)
    order = np.lexsort(e.T[::-1])
    e = e[order]
    e.setflags(write=False)
    order.setflags(write=False)
    return e, order


def _ratio_coefficients(scenario: Scenario, gains: ChannelGains):
    """(numerator, denominator) term coefficients of every eavesdropper's
    SINR ratio, shape (M, (N+2)(N+1)), in ``_product_layout`` order.

    Eavesdropper m's ratio (1 + SINR_e_m) / (1 + SINR_d) is
    (g_e[m] p + s_e[m] + ps h_e[m]) (g_d p + s_d)
    / ((g_d p + ps h_d + s_d) (g_e[m] p + s_e[m])).
    Zero gains leave zero coefficients in place.
    """
    _, order = _product_layout(scenario.n_jammers)
    m = scenario.n_eavesdroppers
    ps, s_d, s_e = scenario.p_source, scenario.sigma2_dest, scenario.sigma2_eaves
    num_a = np.column_stack([gains.g_e, s_e, ps * gains.h_e])
    num_b = np.append(gains.g_d, s_d)
    den_a = np.append(gains.g_d, [ps * gains.h_d, s_d])
    den_b = np.column_stack([gains.g_e, s_e])
    num = (num_a[:, :, None] * num_b).reshape(m, -1)[:, order]
    den = (den_a[:, None] * den_b[:, None, :]).reshape(m, -1)[:, order]
    return num, den


def _condensed_ratio_rows(scenario: Scenario, gains: ChannelGains,
                          p: np.ndarray):
    """Every eavesdropper's SINR ratio with its denominator condensed at
    the positive point ``p``, as term rows.

    Returns log coefficients b (M, K), -inf where a zero gain leaves the
    numerator term out, and exponents a (M, K, N), K = (N+2)(N+1) in
    ``_product_layout`` order: condensed ratio m at q is
    sum_k exp(b[m, k] + a[m, k] @ log q).
    """
    e, _ = _product_layout(scenario.n_jammers)
    num, den = _ratio_coefficients(scenario, gains)
    with np.errstate(divide="ignore"):
        log_num = np.log(num)
        log_den = np.log(den)
    log_hat, e_hat, _ = _condense_rows(log_den, e, np.log(p))
    return log_num - log_hat[:, None], e - e_hat[:, None, :]


# ---------------------------------------------------------------------------
# GP assembly and solve
# ---------------------------------------------------------------------------

class GpProblem:
    """min objective (monomial) s.t. each posynomial constraint <= 1.

    The constraints are the arrays the solver reads: ``log_coeffs`` (T,)
    and ``exponents`` (T, n) of all constraint terms stacked constraint
    by constraint, and ``sizes``, each constraint's term count.
    ``warm_start`` must be strictly feasible; the solver starts from it
    directly.
    """

    def __init__(self, objective: Monomial, log_coeffs, exponents, sizes,
                 warm_start):
        n = objective.n_vars
        log_coeffs = np.asarray(log_coeffs, dtype=float)
        exponents = np.asarray(exponents, dtype=float)
        sizes = np.asarray(sizes, dtype=int)
        if (log_coeffs.ndim != 1 or exponents.shape != (log_coeffs.size, n)
                or (sizes < 1).any() or sizes.sum() != log_coeffs.size):
            raise InvalidInputError("constraint arrays do not match")
        ws = np.asarray(warm_start, dtype=float)
        if ws.shape != (n,) or not ((ws > 0).all() and np.isfinite(ws).all()):
            raise InvalidInputError("warm start must be strictly positive")
        self.objective = objective
        self.log_coeffs = log_coeffs
        self.exponents = exponents
        self.sizes = sizes
        self.warm_start = ws

    @property
    def n_vars(self) -> int:
        return self.objective.n_vars


def default_power_floor(scenario: Scenario) -> float:
    return 1e-8 * float(np.min(scenario.p_max))


def build_approx_program(scenario: Scenario, gains: ChannelGains, p_tilde):
    """GP whose solution improves the secrecy rate from ``p_tilde``.

    Variables are (p_1..p_N, t); t upper-bounds every condensed SINR
    ratio, so minimising t maximises the approximate secrecy rate.
    Constraints: one per eavesdropper (its numerator's nonzero terms
    over its condensed denominator and t), then p_i <= p_max[i] and
    p_floor <= p_i for each jammer, p_floor from default_power_floor.
    """
    _check_dims(scenario, gains)
    n = scenario.n_jammers
    p_floor = default_power_floor(scenario)
    p_tilde = np.asarray(p_tilde, dtype=float)
    if p_tilde.shape != (n,):
        raise InvalidInputError(f"expansion point shape {p_tilde.shape} != ({n},)")
    if (p_tilde < 0).any() or (p_tilde > scenario.p_max * (1 + 1e-9)).any():
        raise InvalidInputError("expansion point outside the power box")
    # strict interior, where logs are finite and the warm start feasible
    p_int = np.clip(p_tilde, p_floor * (1 + 1e-6),
                    scenario.p_max * (1 - 1e-9))

    # ratio rows: numerator term / condensed denominator / t
    b_ratio, a_p = _condensed_ratio_rows(scenario, gains, p_int)
    a_ratio = np.empty(a_p.shape[:2] + (n + 1,))
    a_ratio[:, :, :n] = a_p
    a_ratio[:, :, n] = -1.0
    # box rows, per jammer: p_i / p_max[i] <= 1, then p_floor / p_i <= 1
    b_box = np.empty(2 * n)
    b_box[0::2] = -np.log(scenario.p_max)
    b_box[1::2] = math.log(p_floor)
    a_box = np.zeros((2 * n, n + 1))
    a_box[0::2, :n] = np.eye(n)
    a_box[1::2, :n] = -np.eye(n)

    # t starts just above the worst condensed ratio at p_int
    ratio = np.exp(b_ratio + a_p @ np.log(p_int)).sum(axis=1)
    warm = np.append(p_int, float(ratio.max()) * math.exp(0.1))
    t_col = np.zeros(n + 1)
    t_col[n] = 1.0
    keep = b_ratio > -np.inf  # zero-gain terms are left out
    return GpProblem(
        Monomial(coeff=1.0, exponents=t_col),
        np.concatenate([b_ratio[keep], b_box]),
        np.vstack([a_ratio[keep], a_box]),
        np.concatenate([keep.sum(axis=1), np.ones(2 * n, dtype=int)]), warm)


@dataclass(frozen=True)
class GpSolution:
    x: np.ndarray
    value: float
    duality_gap: float
    newton_iterations: int


# Primal-dual parameters (Boyd & Vandenberghe, Convex Optimization,
# §11.7.3): t = _MU * m / eta, fraction-to-boundary _STEP_BACK, residual
# decrease _ARMIJO per unit step, backtracking factor 1/2, and the
# dual-residual norm a solution must reach.
_MU = 5.0
_STEP_BACK = 0.99
_ARMIJO = 0.01
_DUAL_TOL = 1e-8


def gp_solve(problem: GpProblem, tol: float = 1e-9,
             max_newton: int = 600) -> GpSolution:
    """Primal-dual interior-point solve of a geometric program.

    Works on z = log x, where the objective c'z is linear and each
    constraint f_j(z) = log(sum of its terms) is log-sum-exp (convex).
    Each iteration takes one Newton step on the perturbed KKT residual
    (c + Df' lam, -lam*f - 1/t) with t = mu*m/eta, eta = -f'lam the
    surrogate duality gap; eliminating the dual step leaves one n x n
    system.  The step keeps lam and the linearised slacks -f - Df dz a
    fraction away from zero, then backtracks until the residual norm
    falls.  Stops once eta <= ``tol`` and the dual residual is below
    1e-8, so the reported objective is within ~tol of optimal in log
    terms (relative in x).  ``max_newton`` caps the iterations;
    reaching it, or a step that cannot lower the residual, raises
    ``AccuracyError`` carrying the current point.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    m_c = problem.sizes.size
    if m_c == 0:
        raise InvalidInputError("unbounded GP: no constraints")
    b, a = problem.log_coeffs, problem.exponents
    n_terms = b.size
    starts = np.concatenate(([0], np.cumsum(problem.sizes)[:-1]))
    groups = np.repeat(np.arange(m_c), problem.sizes)
    c = problem.objective.exponents
    n = c.size
    # The Newton matrix sum_j lam_j Hess f_j + Df' diag(lam/(-f)) Df is
    # k' diag(weights) k with k = [term exponents; Df] and weights
    # [lam_j(k) * w_k; lam * (1/(-f) - 1)], w the softmax weights of the
    # terms within their constraint.
    k = np.vstack([a, np.empty((m_c, n))])
    weights = np.empty(n_terms + m_c)

    def evaluate(z):
        """Constraint values f, term weights w and Jacobian Df at z."""
        v = b + a.dot(z)
        tops = np.maximum.reduceat(v, starts)
        ex = np.exp(v - tops[groups])
        sums = np.add.reduceat(ex, starts)
        w = ex / sums[groups]
        return (tops + np.log(sums), w,
                np.add.reduceat(a * w[:, None], starts))

    def failure(message, z, eta, iterations):
        x = np.exp(z)
        return AccuracyError(message, best_estimate=GpSolution(
            x=x, value=problem.objective.evaluate(x), duality_gap=eta,
            newton_iterations=iterations))

    z = np.log(problem.warm_start)
    f, w, df = evaluate(z)
    if (f >= 0).any():
        raise InvalidInputError(
            f"warm start violates constraints (max log value "
            f"{f.max():.3g})")
    # 1/(-f) would start near-active constraints, such as a warm start
    # clipped just inside the power box, with huge multipliers
    lam = 1.0 / np.maximum(-f, 1.0)
    r_dual = c + df.T.dot(lam)
    iterations = 0
    while True:
        lam_f = lam * f
        eta = -float(lam_f.sum())
        dual_sq = float(r_dual.dot(r_dual))
        if eta <= tol and dual_sq <= _DUAL_TOL ** 2:
            break
        if iterations >= max_newton:
            raise failure(f"GP solver hit the iteration budget ({max_newton})",
                          z, eta, iterations)
        inv_t = eta / (_MU * m_c)
        inv_s = -1.0 / f
        k[n_terms:] = df
        np.multiply(lam[groups], w, out=weights[:n_terms])
        np.multiply(lam, inv_s - 1.0, out=weights[n_terms:])
        hess = (k.T * weights).dot(k)
        rhs = df.T.dot(inv_s * -inv_t) - c
        try:
            dz = np.linalg.solve(hess, rhs)
        except np.linalg.LinAlgError:
            try:
                dz = np.linalg.solve(hess + 1e-10 * np.eye(n), rhs)
            except np.linalg.LinAlgError:
                dz = None
        if dz is None or not math.isfinite(float(dz.dot(dz))):
            raise NumericalError("GP Newton system is singular")
        iterations += 1
        ddz = df.dot(dz)
        dlam = inv_s * (lam * ddz + inv_t) - lam
        step = _STEP_BACK / max(1.0, float((-dlam / lam).max()),
                                float((ddz * inv_s).max()))
        r_cent = lam_f + inv_t  # negated; only its norm is used
        res = math.sqrt(dual_sq + float(r_cent.dot(r_cent)))
        while True:
            z_new = z + step * dz
            lam_new = lam + step * dlam
            f_new, w_new, df_new = evaluate(z_new)
            if max(f_new.tolist()) < 0:
                r_dual_new = c + df_new.T.dot(lam_new)
                r_cent = lam_new * f_new + inv_t
                if (math.sqrt(float(r_dual_new.dot(r_dual_new))
                              + float(r_cent.dot(r_cent)))
                        <= (1.0 - _ARMIJO * step) * res):
                    break
            step *= 0.5
            if step < 1e-14:
                raise failure("GP line search found no residual decrease",
                              z, eta, iterations)
        z, lam, f, w, df = z_new, lam_new, f_new, w_new, df_new
        r_dual = r_dual_new
    x = np.exp(z)
    return GpSolution(x=x, value=problem.objective.evaluate(x),
                      duality_gap=eta, newton_iterations=iterations)
