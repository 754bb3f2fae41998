"""Jammer power allocation: iterative GP ascent, a 1-d search
cross-check, a single-jammer baseline, and a stationarity report.

``algorithm_a`` (successive convex approximation): condense the SINR
ratios at the current point, solve the resulting GP, repeat until the
exact secrecy rate stops improving.  Each round can only raise the true
rate because the approximation touches from the conservative side.

``algorithm_b`` (search over received jamming power): fixing the total
jamming power seen by the destination pins the destination SINR, after
which the best worst-eavesdropper ratio on that slice is one linear
program in the powers and a Charnes-Cooper variable.  An outer 1-d
search over the slice parameter then recovers the global shape without
any convexification, making this an independent check on algorithm A.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CoopJamError, InvalidInputError, NumericalError
from .gp import (build_approx_program, condensed_ratios, default_power_floor,
                 gp_solve)
from .model import (ChannelGains, PowerAllocation, Scenario, _check_dims,
                    _p_vec, secrecy_rate, secrecy_rate_batch,
                    sinr_destination, sinr_eavesdropper)
from .numerics import LinearProgram, bisect_max, lp_solve

ZERO_SNAP_FACTOR = 10.0


class IterationPoint(NamedTuple):
    allocation: PowerAllocation
    secrecy_rate: float
    ratio_bound: float
    """Worst-eavesdropper value of (1+SINR_e)/(1+SINR_d), the quantity
    the GP step minimises."""


@dataclass(frozen=True)
class IterationTrace:
    iterations: tuple
    converged: bool
    stop_reason: str  # "tolerance" | "max_iter"

    @property
    def rates(self) -> np.ndarray:
        return np.array([pt.secrecy_rate for pt in self.iterations])


def max_sinr_ratio(scenario: Scenario, gains: ChannelGains, p) -> float:
    gd = sinr_destination(scenario, gains, p)
    worst = max(sinr_eavesdropper(scenario, gains, p, m)
                for m in range(scenario.n_eavesdroppers))
    return (1.0 + worst) / (1.0 + gd)


def algorithm_a(scenario: Scenario, gains: ChannelGains, p0=None,
                tol: float = 1e-6, max_iter: int = 100,
                gp_tol: float = 1e-9):
    """Iterated condense-and-solve ascent of the secrecy rate.

    Returns (allocation, rate, trace).  The trace records the exact rate
    after every GP round and is nondecreasing; near-floor powers are
    snapped to zero at the end and the final rate re-evaluated exactly.
    Assumes a feasible instance (see check_positive_secrecy).

    The ascent is local, so the routine hedges against a bad basin: a
    custom ``p0`` is raced against the canonical half-power start, and
    if the winner still trails the cheap single-jammer optimum a final
    restart from that baseline allocation is tried.  The best run is
    returned, so the result never degrades with a poor ``p0`` and
    always dominates the baseline.
    """
    _check_dims(scenario, gains)
    if tol <= 0 or max_iter < 1:
        raise InvalidInputError("tol must be > 0 and max_iter >= 1")
    n = scenario.n_jammers
    p_floor = default_power_floor(scenario)
    if p0 is None:
        pv = scenario.p_max / 2.0
    else:
        pv = _p_vec(p0)
        if pv.shape != (n,):
            raise InvalidInputError("p0 length does not match scenario")
        pv = np.clip(pv, 0.0, scenario.p_max)

    def run(pv):
        # Convergence runs on the unclamped rate -log2(worst ratio):
        # while the reported rate sits clamped at 0 the ratio can still
        # be descending, and stopping on a 0 -> 0 "improvement" would
        # strand the iteration before positive-rate territory.
        tau = max_sinr_ratio(scenario, gains, pv)
        work = -np.log2(tau)
        points = [IterationPoint(PowerAllocation(pv), max(0.0, work), tau)]
        converged = False
        stop_reason = "max_iter"
        for _ in range(max_iter):
            try:
                problem, _ = build_approx_program(scenario, gains, pv,
                                                  p_floor=p_floor)
                sol = gp_solve(problem, tol=gp_tol)
            except CoopJamError as err:
                err.trace = IterationTrace(tuple(points), False, "error")
                raise
            p_new = np.clip(sol.x[:n], 0.0, scenario.p_max)
            tau_new = max_sinr_ratio(scenario, gains, p_new)
            work_new = -np.log2(tau_new)
            if work_new < work - 1e-12:
                # No exact improvement at solver accuracy: fixed point.
                # Keep the previous iterate so the trace stays monotone.
                converged = True
                stop_reason = "tolerance"
                break
            points.append(IterationPoint(PowerAllocation(p_new),
                                         max(0.0, work_new), tau_new))
            delta = work_new - work
            pv, work = p_new, work_new
            if delta < tol:
                converged = True
                stop_reason = "tolerance"
                break

        trace = IterationTrace(tuple(points), converged, stop_reason)
        p_final = pv.copy()
        p_final[p_final <= ZERO_SNAP_FACTOR * p_floor] = 0.0
        rate_final = secrecy_rate(scenario, gains, p_final)
        return PowerAllocation(p_final), rate_final, trace

    alloc, rate, trace = run(pv)

    def challenge(start):
        nonlocal alloc, rate, trace
        try:
            alloc2, rate2, trace2 = run(start)
        except CoopJamError:
            return
        if rate2 > rate:
            alloc, rate, trace = alloc2, rate2, trace2

    half = scenario.p_max / 2.0
    if p0 is not None and not np.allclose(pv, half):
        challenge(half)
    p_bj, r_bj = best_jammer_selection(scenario, gains)
    if r_bj > rate + 1e-9:
        challenge(np.asarray(p_bj.p))
    return alloc, rate, trace


# ---------------------------------------------------------------------------
# search over received jamming power (independent route)
# ---------------------------------------------------------------------------

def _slice_optimum(scenario: Scenario, gains: ChannelGains, t0: float):
    """Best worst-eavesdropper capacity ratio on the slice where the
    destination receives total jamming power exactly t0.

    Returns (q, p) with q = max over in-box allocations on the slice of
    min_m (1+SINR_d)/(1+SINR_e_m).  SINR_d is pinned by t0, so with
    top = 1 + SINR_d the ratio is top*u/(1+u), where u = min_m 1/SINR_e_m
    is linear in the powers after the Charnes-Cooper change of
    variables.  One LP in (p, u) therefore finds the slice optimum:

        max u  s.t.  g_d @ p = t0,
                     g_e[m] @ p - p_source*h_e[m]*u >= -sigma2_e[m],
                     0 <= p <= p_max,  u >= 0,

    over the eavesdroppers with h_e[m] > 0.  Without any, u is unbounded
    and the slice's ratio is top at every point.
    """
    n = scenario.n_jammers
    gd = scenario.p_source * gains.h_d / (scenario.sigma2_dest + t0)
    top = 1.0 + gd
    active = np.flatnonzero(gains.h_e > 0)
    if not active.size:
        lp = LinearProgram(c=np.ones(n), rows=((gains.g_d, "=", t0),),
                           lower=np.zeros(n), upper=scenario.p_max)
    else:
        h = scenario.p_source * gains.h_e[active]
        sig = scenario.sigma2_eaves[active]
        rows = [(np.append(gains.g_d, 0.0), "=", t0)]
        rows += [(np.append(gains.g_e[m], -h_m), ">=", -s_m)
                 for m, h_m, s_m in zip(active, h, sig)]
        lp = LinearProgram(c=np.append(np.zeros(n), -1.0), rows=tuple(rows),
                           lower=np.zeros(n + 1),
                           upper=np.append(scenario.p_max, np.inf))
    res = lp_solve(lp)
    if res.status == "infeasible":
        # 0 <= t0 <= p_max @ g_d keeps the slice feasible, but HiGHS's
        # presolve calls it infeasible when t0 sits within ~1e-9 relative
        # of a vertex of the box, where algorithm_b's search often ends.
        res = lp_solve(lp, presolve=False)
    if res.status != "optimal":
        raise NumericalError(f"slice t0={t0} LP is {res.status}")
    p = res.x[:n]
    if not active.size:
        return top, p
    # Score the witness itself rather than the solver's u, which may sit
    # up to the LP's feasibility tolerance past what p attains.
    u = float(np.min((gains.g_e[active] @ p + sig) / h))
    q = top * u / (1.0 + u)
    return q if q > 0 else 1.0, p


def algorithm_b(scenario: Scenario, gains: ChannelGains,
                eps: float | None = None):
    """Global 1-d search over the destination's received jamming power.

    Returns (allocation, rate) where the rate is evaluated exactly at
    the best witness found.  Slower than algorithm_a but free of any
    convex approximation, so the two should land on the same optimum.
    """
    _check_dims(scenario, gains)
    t_max = float(scenario.p_max @ gains.g_d)
    if eps is None:
        eps = max(1e-9, 1e-7 * t_max)

    cache = {}

    def q_of(t0):
        t0 = float(t0)
        if t0 not in cache:
            cache[t0] = _slice_optimum(scenario, gains, t0)
        return cache[t0][0]

    if t_max == 0.0:
        q_of(0.0)
    else:
        # Pre-scan before the 1-d search: the objective is unimodal
        # where the rate is positive, but that region can be a sliver of
        # [0, t_max] when some jammer is nearly invisible to the
        # destination.  Per-jammer caps and their partial sums are the
        # natural breakpoints, so probing them (plus a uniform grid)
        # brackets the peak; the search then refines locally.
        caps = scenario.p_max * gains.g_d
        grid = np.concatenate([np.linspace(0.0, t_max, 25), caps,
                               np.cumsum(np.sort(caps)),
                               [0.75 * t_max]])
        grid = np.unique(np.clip(grid, 0.0, t_max))
        for t in grid:
            q_of(t)
        qs = np.array([q_of(t) for t in grid])
        k = int(np.argmax(qs))  # first max, so ties go to smaller t0
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        if hi > lo:
            bisect_max(q_of, lo, hi, eps)

    best_t0 = min(sorted(cache), key=lambda t: (-cache[t][0], t))
    p_best = np.clip(cache[best_t0][1], 0.0, scenario.p_max)
    return (PowerAllocation(p_best),
            secrecy_rate(scenario, gains, p_best))


def best_jammer_selection(scenario: Scenario, gains: ChannelGains,
                          grid_points: int = 200):
    """Best allocation that uses a single jammer at a time.

    Coarse grid over each jammer's power range plus golden-section
    refinement around the best grid cell.  Serves as the baseline the
    joint allocation must dominate.
    """
    _check_dims(scenario, gains)
    n = scenario.n_jammers
    best_p = np.zeros(n)
    best_rate = secrecy_rate(scenario, gains, best_p)
    for j in range(n):
        grid = np.linspace(0.0, scenario.p_max[j], grid_points)
        pmat = np.zeros((grid_points, n))
        pmat[:, j] = grid
        rates = secrecy_rate_batch(scenario, gains, pmat)
        k = int(np.argmax(rates))

        def rate_j(x):
            pv = np.zeros(n)
            pv[j] = x
            return secrecy_rate(scenario, gains, pv)

        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid_points - 1)]
        x, fx = bisect_max(rate_j, lo, hi,
                           eps=max(1e-12, 1e-9 * scenario.p_max[j]))
        if fx > best_rate:
            best_rate = fx
            best_p = np.zeros(n)
            best_p[j] = x
    return PowerAllocation(best_p), best_rate


# ---------------------------------------------------------------------------
# stationarity diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KktReport:
    """How well an allocation satisfies the fixed-point conditions of
    the condense-and-solve iteration.

    equality_residual: worst |ratio - condensed ratio| at the solution
    (the approximation must touch there).
    gradient_residual: worst finite-difference gradient mismatch between
    ratio and condensed ratio over genuinely interior coordinates (at
    least 1e-3 of the cap); nearer the floor the condensed power law's
    curvature diverges and a finite step would measure that instead of
    the first-order tangency, so those coordinates fall under the
    boundary slope test below.
    bound_gap_max / bound_gap_min: extremes over random probe points of
    condensed minus exact ratio; the minimum certifies the condensation
    really is an upper bound on the ratio objective being minimised.
    boundary_derivative_min: smallest one-sided slope of the worst-case
    ratio when pushing a zeroed or near-floor jammer up (None when every
    coordinate is interior); nonnegative values mean switching such a
    jammer on cannot help.
    """

    equality_residual: float
    gradient_residual: float
    bound_gap_max: float
    bound_gap_min: float
    boundary_derivative_min: float | None
    n_probes: int


def kkt_check(scenario: Scenario, gains: ChannelGains, p_star,
              n_probes: int = 50, seed: int = 0) -> KktReport:
    _check_dims(scenario, gains)
    pv = _p_vec(p_star)
    p_floor = default_power_floor(scenario)
    p_ref = np.clip(pv, p_floor * (1 + 1e-6), scenario.p_max)
    m_count = scenario.n_eavesdroppers
    ratios = condensed_ratios(scenario, gains, p_ref)

    def gamma_exact(p):
        gd = sinr_destination(scenario, gains, p)
        return np.array([(1.0 + sinr_eavesdropper(scenario, gains, p, m))
                         / (1.0 + gd) for m in range(m_count)])

    def gamma_hat(p):
        return np.array([r.evaluate(p) for r in ratios])

    equality_residual = float(np.max(np.abs(gamma_exact(p_ref)
                                            - gamma_hat(p_ref))))

    active = pv > ZERO_SNAP_FACTOR * p_floor
    # Tangency of gradients is checkable by finite differences only well
    # inside the box: at a near-floor coordinate the condensed power law
    # has curvature ~1/p^2, so any finite step measures that divergence
    # rather than the first-order match.  Such coordinates are
    # boundary-like and are covered by the one-sided slope test instead.
    interior = active & (p_ref >= 1e-3 * scenario.p_max)
    gradient_residual = 0.0
    for i in np.flatnonzero(interior):
        h = 1e-6 * max(p_ref[i], 1e-2 * scenario.p_max[i])
        up, dn = p_ref.copy(), p_ref.copy()
        up[i] += h
        dn[i] -= h
        d_exact = (gamma_exact(up) - gamma_exact(dn)) / (2 * h)
        d_hat = (gamma_hat(up) - gamma_hat(dn)) / (2 * h)
        gradient_residual = max(gradient_residual,
                                float(np.max(np.abs(d_exact - d_hat))))

    rng = np.random.default_rng(seed)
    lo = np.full(scenario.n_jammers, p_floor)
    probes = rng.uniform(lo, scenario.p_max, size=(n_probes, scenario.n_jammers))
    gaps = np.array([gamma_hat(q) - gamma_exact(q) for q in probes])
    # The condensation upper-bounds the ratio objective, so gaps stay
    # (numerically) nonnegative.
    bound_gap_max = float(gaps.max())
    bound_gap_min = float(gaps.min())

    boundary_derivative_min = None
    inactive = np.flatnonzero(~interior)
    if inactive.size:
        tau0 = float(np.max(gamma_exact(p_ref)))
        slopes = []
        for i in inactive:
            h = 1e-6 * max(p_floor, 1e-3 * scenario.p_max[i])
            up = p_ref.copy()
            up[i] += h
            slopes.append((float(np.max(gamma_exact(up))) - tau0) / h)
        boundary_derivative_min = min(slopes)

    return KktReport(equality_residual=equality_residual,
                     gradient_residual=gradient_residual,
                     bound_gap_max=bound_gap_max,
                     bound_gap_min=bound_gap_min,
                     boundary_derivative_min=boundary_derivative_min,
                     n_probes=n_probes)
