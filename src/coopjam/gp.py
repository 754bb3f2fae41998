"""Posynomial machinery and the successive-approximation building blocks.

The secrecy-rate objective is a ratio of posynomials in the jammer
powers, which is not directly a geometric program.  Each SINR ratio is
a product of affine factors A_m B / (C E_m) (``_ratio_factors``): the
denominator factors are condensed into monomials by the weighted AM-GM
inequality (evaluated at an expansion point, where the bound is tight),
and B is bounded by one auxiliary variable, turning each SINR-ratio
constraint into a valid GP constraint.  The SCA program builder and
``power_opt.kkt_check`` both read the ratios in that factor form.
Programs are held as dense arrays, every constraint term's log
coefficient and exponent row stacked constraint by constraint, and the
solver, a primal-dual interior-point method in log space, reads them
directly.  Only the condensed denominators and the warm start change
from one SCA round to the next, so the rest of a program (which terms
zero gains leave out, the fixed coefficients and exponents, the
objective and the solver's index arrays) is a ``_ProgramLayout``, built
and checked once per ``algorithm_a`` call and passed to every round.
The solver centres with a long step: after a nearly full Newton step it
aims at a duality gap 20 times smaller than the current one, after a
damped step only 5 times smaller.  ``Monomial``, ``Posynomial`` and
``condense`` work on single expressions given term by term.
"""

import math
import numbers
from dataclasses import dataclass

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
    """Sum of monomials over a common variable vector, held as their
    coefficient vector and exponent matrix (one row per term)."""

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise InvalidInputError("posynomial needs at least one term")
        widths = {t.n_vars for t in terms}
        if len(widths) != 1:
            raise InvalidInputError(f"mixed term widths {widths}")
        self.coeffs = np.array([t.coeff for t in terms])
        self.exponent_matrix = np.vstack([t.exponents for t in terms])

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

def _ratio_factors(scenario: Scenario, gains: ChannelGains):
    """Coefficient rows, over the terms (p_1..p_N, 1), of the affine
    factors of every eavesdropper's SINR ratio

        (1 + SINR_e_m) / (1 + SINR_d) = A_m(p) B(p) / (C(p) E_m(p)):

    A (M, N+1) = g_e[m] p + s_e[m] + ps h_e[m],  B (N+1,) = g_d p + s_d,
    C (N+1,) = g_d p + ps h_d + s_d  and  E (M, N+1) = g_e[m] p + s_e[m].
    Zero gains leave zero coefficients in place.
    """
    ps, s_d, s_e = scenario.p_source, scenario.sigma2_dest, scenario.sigma2_eaves
    return (np.column_stack([gains.g_e, s_e + ps * gains.h_e]),
            np.append(gains.g_d, s_d),
            np.append(gains.g_d, ps * gains.h_d + s_d),
            np.column_stack([gains.g_e, s_e]))


def _condense_denominator_logs(log_ce: np.ndarray, log_p: np.ndarray):
    """Every denominator C(p) E_m(p) condensed at the positive point p,
    as the product of C's and E_m's own condensations, from the logs
    ``log_ce`` of the stacked rows [C; E] (``_ProgramLayout.log_ce``)
    and ``log_p`` of the point.

    Returns log coefficients log_den (M,) and exponents e_den (M, N):
    condensed ratio m at q is A_m(q) B(q) / exp(log_den[m] + e_den[m] @ log q).
    """
    n = log_p.size
    log_hat, e_hat, _ = _condense_rows(log_ce, np.eye(n + 1, n), log_p)
    return log_hat[0] + log_hat[1:], e_hat[0] + e_hat[1:]


# ---------------------------------------------------------------------------
# GP assembly and solve
# ---------------------------------------------------------------------------

class GpProblem:
    """min objective (monomial) s.t. each posynomial constraint <= 1.

    The constraints are the arrays the solver reads: ``log_coeffs`` (T,)
    and ``exponents`` (T, n) of all constraint terms stacked constraint
    by constraint, and ``sizes``, each constraint's term count, from
    which the constructor derives the solver's index arrays ``starts``
    (each constraint's first term) and ``groups`` (each term's
    constraint).  ``warm_start`` must be strictly feasible; the solver
    starts from it directly.
    """

    def __init__(self, objective: Monomial, log_coeffs, exponents, sizes,
                 warm_start):
        n = objective.n_vars
        log_coeffs = np.asarray(log_coeffs, dtype=float)
        exponents = np.asarray(exponents, dtype=float)
        sizes = np.asarray(sizes, dtype=int)
        _check_constraint_arrays(n, log_coeffs, exponents, sizes)
        ws = np.asarray(warm_start, dtype=float)
        if ws.shape != (n,) or not ((ws > 0).all() and np.isfinite(ws).all()):
            raise InvalidInputError("warm start must be strictly positive")
        self._set(objective, log_coeffs, exponents, sizes,
                  *_constraint_index(sizes), ws)

    @classmethod
    def _checked(cls, objective, log_coeffs, exponents, sizes, starts, groups,
                 warm_start):
        """A problem from arrays whose shapes the caller has checked."""
        problem = cls.__new__(cls)
        problem._set(objective, log_coeffs, exponents, sizes, starts, groups,
                     warm_start)
        return problem

    def _set(self, objective, log_coeffs, exponents, sizes, starts, groups,
             warm_start):
        self.objective = objective
        self.log_coeffs = log_coeffs
        self.exponents = exponents
        self.sizes = sizes
        self.starts = starts
        self.groups = groups
        self.warm_start = warm_start

    @property
    def n_vars(self) -> int:
        return self.objective.n_vars


def _check_constraint_arrays(n, log_coeffs, exponents, sizes):
    if (log_coeffs.ndim != 1 or exponents.shape != (log_coeffs.size, n)
            or sizes.ndim != 1 or (sizes < 1).any()
            or sizes.sum() != log_coeffs.size):
        raise InvalidInputError("constraint arrays do not match")


def _constraint_index(sizes):
    """Read-only ``starts`` and ``groups`` for constraints of ``sizes``."""
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    groups = np.repeat(np.arange(sizes.size), sizes)
    starts.setflags(write=False)
    groups.setflags(write=False)
    return starts, groups


def default_power_floor(scenario: Scenario) -> float:
    return 1e-8 * float(np.min(scenario.p_max))


class _ProgramLayout:
    """Everything of a (scenario, gains) pair's SCA programs that does
    not depend on the expansion point, built and checked once per
    ``algorithm_a`` call, which passes it to every round's
    ``build_approx_program``.

    Holds the strict-interior clip ``clip_lo`` .. ``clip_hi`` of the
    expansion points, the ratio factors a, b (``_ratio_factors``) for
    the warm start, the logs ``log_ce`` of the stacked rows [C; E] for
    the condensation, and the constraint arrays with the condensed
    denominators left out: the log coefficients and exponent rows of
    every kept term (zero gains drop theirs), ``sizes``, the solver's
    index arrays and the objective.  ``owner`` names the eavesdropper
    row of each of the first ``n_ratio`` terms, the ones a round's
    condensation updates.
    """

    def __init__(self, scenario: Scenario, gains: ChannelGains):
        _check_dims(scenario, gains)
        n = scenario.n_jammers
        p_floor = default_power_floor(scenario)
        self.box_hi = scenario.p_max * (1 + 1e-9)
        # strict interior, where logs are finite and the warm start feasible
        self.clip_lo = p_floor * (1 + 1e-6)
        self.clip_hi = scenario.p_max * (1 - 1e-9)
        a, b, c, e = _ratio_factors(scenario, gains)
        m = a.shape[0]
        self.a, self.b = a, b
        with np.errstate(divide="ignore"):
            self.log_ce = np.log(np.vstack([c, e]))
            # factor rows, one term per column of a and b: first A_m's
            # terms times v over t (and, each round, over the condensed
            # denominator), then B's terms over v
            b_fac = np.log(np.vstack([a, b]))
        a_fac = np.zeros((m + 1, n + 1, n + 2))
        a_fac[:, :, :n] = np.eye(n + 1, n)
        a_fac[:m, :, n] = -1.0
        a_fac[:m, :, n + 1] = 1.0
        a_fac[m, :, n + 1] = -1.0
        # box rows, per jammer: p_i / p_max[i] <= 1, then p_floor / p_i <= 1
        b_box = np.empty(2 * n)
        b_box[0::2] = -np.log(scenario.p_max)
        b_box[1::2] = math.log(p_floor)
        a_box = np.zeros((2 * n, n + 2))
        a_box[0::2, :n] = np.eye(n)
        a_box[1::2, :n] = -np.eye(n)

        keep = b_fac > -np.inf  # zero-gain terms are left out
        kept = keep.sum(axis=1)
        self.owner = np.repeat(np.arange(m), kept[:m])
        self.n_ratio = self.owner.size
        self.log_coeffs = np.concatenate([b_fac[keep], b_box])
        self.exponents = np.vstack([a_fac[keep], a_box])
        self.sizes = np.concatenate([kept, np.ones(2 * n, dtype=int)])
        self.objective = Monomial(coeff=1.0, exponents=np.eye(n + 2)[n])
        _check_constraint_arrays(n + 2, self.log_coeffs, self.exponents,
                                 self.sizes)
        for arr in (self.sizes, self.objective.exponents):
            arr.setflags(write=False)
        self.starts, self.groups = _constraint_index(self.sizes)


def build_approx_program(layout: _ProgramLayout, p_tilde):
    """GP whose solution improves the secrecy rate from ``p_tilde``, for
    the (scenario, gains) pair of ``layout``.

    Variables are (p_1..p_N, t, v); t upper-bounds every condensed SINR
    ratio, so minimising t maximises the approximate secrecy rate, and v
    bounds the ratios' common factor B (``_ratio_factors``).
    Constraints: one per eavesdropper, A_m v / (C E_m t) <= 1 with C and
    E_m condensed at ``p_tilde``, then B / v <= 1, then p_i <= p_max[i]
    and p_floor <= p_i for each jammer, p_floor from default_power_floor.

    Only the condensed denominators and the warm start depend on
    ``p_tilde``; the rest of the program, its term layout included,
    comes from ``layout``, so each round writes just the eavesdroppers'
    log coefficients and exponent rows.
    """
    n = layout.clip_hi.size
    p_tilde = np.asarray(p_tilde, dtype=float)
    if p_tilde.shape != (n,):
        raise InvalidInputError(f"expansion point shape {p_tilde.shape} != ({n},)")
    if not ((p_tilde >= 0) & (p_tilde <= layout.box_hi)).all():
        if not np.isfinite(p_tilde).all():
            raise InvalidInputError(
                f"expansion point must be finite, got {p_tilde}")
        raise InvalidInputError("expansion point outside the power box")
    p_int = np.minimum(np.maximum(p_tilde, layout.clip_lo), layout.clip_hi)
    log_p = np.log(p_int)
    log_den, e_den = _condense_denominator_logs(layout.log_ce, log_p)
    k, owner = layout.n_ratio, layout.owner
    log_coeffs = layout.log_coeffs.copy()
    log_coeffs[:k] -= log_den[owner]
    exponents = layout.exponents.copy()
    exponents[:k, :n] -= e_den[owner]

    # v starts just above B(p_int), t just above the worst condensed
    # ratio there
    q = np.append(p_int, 1.0)
    v = float(q @ layout.b) * math.exp(0.1)
    ratio = (layout.a @ q) * v / np.exp(log_den + e_den @ log_p)
    t = float(ratio.max()) * math.exp(0.1)
    if not (0.0 < t < math.inf and 0.0 < v < math.inf):
        raise InvalidInputError("warm start must be strictly positive")
    return GpProblem._checked(
        layout.objective, log_coeffs, exponents, layout.sizes, layout.starts,
        layout.groups, np.append(p_int, [t, v]))


@dataclass(frozen=True)
class GpSolution:
    x: np.ndarray
    value: float
    duality_gap: float
    newton_iterations: int


# Primal-dual parameters (Boyd & Vandenberghe, Convex Optimization,
# §11.7.3): t = mu * m / eta, with mu = _MU_LONG after a step of at
# least _LONG_STEP and _MU otherwise (the first step included), so the
# target gap shrinks fast only while Newton steps run nearly full;
# fraction-to-boundary _STEP_BACK, residual decrease _ARMIJO per unit
# step, backtracking factor 1/2, and the dual-residual norm a solution
# must reach.
_MU = 5.0
_MU_LONG = 20.0
_LONG_STEP = 0.9
_STEP_BACK = 0.99
_ARMIJO = 0.01
_DUAL_TOL = 1e-8
# Newton iterations before gp_solve gives up with AccuracyError
_MAX_NEWTON = 600


def _positive_tol(tol) -> float:
    """``tol`` as a float; InvalidInputError unless it is a finite real
    number > 0 (a bool, None or a string is none)."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0)):
        raise InvalidInputError(f"tol must be a finite real > 0, got {tol!r}")
    return float(tol)


def gp_solve(problem: GpProblem, tol: float = 1e-9) -> GpSolution:
    """Primal-dual interior-point solve of a geometric program.

    Works on z = log x, where the objective c'z is linear and each
    constraint f_j(z) = log(sum of its terms) is log-sum-exp (convex).
    Each iteration takes one Newton step on the perturbed KKT residual
    (c + Df' lam, -lam*f - 1/t) with t = mu*m/eta, eta = -f'lam the
    surrogate duality gap; eliminating the dual step leaves one n x n
    system.  mu is 20 after a step of at least 0.9 and 5 after a damped
    step or at the start (Boyd & Vandenberghe's 10 to 20 only while
    Newton steps run nearly full).  The step keeps lam and the
    linearised slacks -f - Df dz a fraction away from zero, then
    backtracks until the residual norm falls.  Stops once eta <= ``tol``
    (finite and positive) and the dual residual is below 1e-8, so the
    reported objective is within ~tol of optimal in log terms (relative
    in x).  _MAX_NEWTON caps the iterations; reaching it, or a step that
    cannot lower the residual, raises ``AccuracyError`` carrying the
    current point.  The constraint index arrays come with the problem
    (built once per program layout), and the objective value is read
    off z without re-checking the point.
    """
    tol = _positive_tol(tol)
    m_c = problem.sizes.size
    if m_c == 0:
        raise InvalidInputError("unbounded GP: no constraints")
    b, a = problem.log_coeffs, problem.exponents
    n_terms = b.size
    starts, groups = problem.starts, problem.groups
    c = problem.objective.exponents
    log_c0 = math.log(problem.objective.coeff)
    n = c.size
    # The Newton matrix sum_j lam_j Hess f_j + Df' diag(lam/(-f)) Df is
    # k' diag(weights) k with k = [term exponents; Df] and weights
    # [lam_j(k) * w_k; lam * (1/(-f) - 1)], w the softmax weights of the
    # terms within their constraint.
    k = np.vstack([a, np.empty((m_c, n))])
    weights = np.empty(n_terms + m_c)

    def values(z):
        """Constraint values f at z, with each term's exponential shifted
        by its constraint's largest and their sums per constraint."""
        v = b + a.dot(z)
        tops = np.maximum.reduceat(v, starts)
        ex = np.exp(v - tops[groups])
        sums = np.add.reduceat(ex, starts)
        return tops + np.log(sums), ex, sums

    def derivatives(ex, sums):
        """Term weights w and Jacobian Df from ``values``' exponentials;
        skipped at trial points outside the feasible set."""
        w = ex / sums[groups]
        return w, np.add.reduceat(a * w[:, None], starts)

    def solution(z, eta, iterations):
        return GpSolution(x=np.exp(z), value=float(np.exp(log_c0 + c.dot(z))),
                          duality_gap=eta, newton_iterations=iterations)

    def failure(message, z, eta, iterations):
        return AccuracyError(message,
                             best_estimate=solution(z, eta, iterations))

    z = np.log(problem.warm_start)
    f, ex, sums = values(z)
    if (f >= 0).any():
        raise InvalidInputError(
            f"warm start violates constraints (max log value "
            f"{f.max():.3g})")
    w, df = derivatives(ex, sums)
    # 1/(-f) would start near-active constraints, such as a warm start
    # clipped just inside the power box, with huge multipliers
    lam = 1.0 / np.maximum(-f, 1.0)
    r_dual = c + df.T.dot(lam)
    iterations = 0
    mu = _MU
    while True:
        lam_f = lam * f
        eta = -float(lam_f.sum())
        dual_sq = float(r_dual.dot(r_dual))
        if eta <= tol and dual_sq <= _DUAL_TOL ** 2:
            break
        if iterations >= _MAX_NEWTON:
            raise failure(f"GP solver hit the iteration budget ({_MAX_NEWTON})",
                          z, eta, iterations)
        inv_t = eta / (mu * m_c)
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
        # maxima of these short vectors through lists: numpy's reductions
        # cost more in call overhead than the work
        step = _STEP_BACK / max(1.0, -min((dlam / lam).tolist()),
                                max((ddz * inv_s).tolist()))
        r_cent = lam_f + inv_t  # negated; only its norm is used
        res = math.sqrt(dual_sq + float(r_cent.dot(r_cent)))
        while True:
            z_new = z + step * dz
            f_new, ex, sums = values(z_new)
            if max(f_new.tolist()) < 0:
                lam_new = lam + step * dlam
                w_new, df_new = derivatives(ex, sums)
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
        mu = _MU_LONG if step >= _LONG_STEP else _MU
    return solution(z, eta, iterations)
