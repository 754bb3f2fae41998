"""Jammer power allocation: iterative GP ascent, an exact 1-d search
cross-check, a single-jammer baseline, and a stationarity report.

``algorithm_a`` (successive convex approximation): condense the SINR
ratios at the current point, solve the resulting GP, repeat until the
exact secrecy rate stops improving.  Each round can only raise the true
rate because the approximation touches from the conservative side.
Two things cut the rounds and Newton steps this takes.  Every third
round starts from a squared extrapolation of the two before it in log
power (SQUAREM: Varadhan & Roland, Scand. J. Stat. 2008), and its result
is kept only if it raises the exact rate.  Each GP is solved only to a
duality gap of 1% of the last round's gain (inexact MM: Razaviyayn, Hong
& Luo, SIAM J. Optim. 2013), never below 1e-9, and a loose round that
does not gain is redone at 1e-9 before the ascent may stop.

``algorithm_b`` (search over received jamming power): fixing the total
jamming power seen by the destination pins the destination SINR, after
which the best worst-eavesdropper ratio on that slice is one linear
program in the powers and a Charnes-Cooper variable.  That LP's value
is concave and piecewise linear in the slice parameter; its few pieces
are found exactly by a parametric LP (the sandwich method), and the
rate's maximum on each piece has a closed form.  The result is the
global optimum without any convexification, an independent check on
algorithm A.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoopJamError, InvalidInputError, NumericalError
from .feasibility import check_positive_secrecy
from .gp import (_condense_denominator_logs, _positive_tol, _ProgramLayout,
                 build_approx_program, default_power_floor, gp_solve)
from .model import (ChannelGains, PowerAllocation, Scenario, _ArrayEq,
                    _allocations, _check_dims, _integer, _p_vec, _sinrs,
                    secrecy_rate, secrecy_rate_batch)
from .numerics import LinearProgram, lp_solve

ZERO_SNAP_FACTOR = 10.0
# random points at which kkt_check probes the condensation bound, drawn
# with seed 0
KKT_PROBES = 50


@dataclass(frozen=True, eq=False)
class IterationTrace(_ArrayEq):
    """One ascent run: the exact rate at the start and after every
    accepted GP round, whether it met its stop rule, and why it ended."""

    rates: np.ndarray
    converged: bool
    stop_reason: str  # "tolerance" | "max_iter" | "error"


def max_sinr_ratio(scenario: Scenario, gains: ChannelGains, p) -> float:
    _check_dims(scenario, gains)
    gd, ge = _sinrs(scenario, gains, _p_vec(p))
    return (1.0 + ge.max()) / (1.0 + gd)


def algorithm_a(scenario: Scenario, gains: ChannelGains, p0=None,
                tol: float = 1e-6, max_iter: int = 100):
    """Iterated condense-and-solve ascent of the secrecy rate.

    Returns (allocation, rate, trace).  The trace records the exact rate
    after every accepted GP round and is nondecreasing; near-floor
    powers are snapped to zero at the end and the final rate
    re-evaluated exactly.  Should the snap leave a start below its own
    starting rate, that start's allocation is its result instead.
    Assumes a feasible instance (see check_positive_secrecy).

    Rounds run in cycles of three.  Two plain rounds take the log
    powers z0 -> z1 -> z2; with r = z1 - z0, v = z2 - 2 z1 + z0 and
    alpha = max(-4, min(-1, -|r|/|v|)), the third round starts from
    z0 - 2 alpha r + alpha^2 v, clipped into the box.  It is accepted
    only if its exact unclamped rate beats the current one; otherwise
    it leaves no trace row and the ascent carries on from z2.  Each GP
    is solved to tol max(1e-9, 0.01 * last accepted gain).  A plain
    round solved at a looser tol that does not gain is redone from the
    same point at 1e-9, and only a 1e-9 round may end the ascent as a
    fixed point; a plain round gaining less than ``tol`` ends it too.
    ``max_iter`` bounds the GP solves of each start, the redone and
    rejected rounds included.

    The ascent is local, so the routine hedges against a bad basin: a
    custom ``p0`` is raced against the canonical half-power start, and
    if the winner still trails the cheap single-jammer optimum a final
    restart from that baseline allocation is tried.  If every run so
    far ends at rate 0, one more restarts from the feasibility witness
    (the allocation with the largest worst slack) when there is one.
    The best run is returned, so the result never degrades with a poor
    ``p0`` and always dominates the baseline.
    """
    _check_dims(scenario, gains)
    tol = _positive_tol(tol)
    max_iter = _integer("max_iter", max_iter)
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    n = scenario.n_jammers
    p_floor = default_power_floor(scenario)
    if p0 is None:
        pv = scenario.p_max / 2.0
    else:
        pv = _p_vec(p0)
        if pv.shape != (n,):
            raise InvalidInputError("p0 length does not match scenario")
        if not np.isfinite(pv).all():
            raise InvalidInputError(f"p0 must be finite, got {pv}")
        pv = np.clip(pv, 0.0, scenario.p_max)
    # one program layout serves every round of every start
    layout = _ProgramLayout(scenario, gains)

    # log powers clipped to the strict interior the GP builder uses
    z_lo, z_hi = math.log(layout.clip_lo), np.log(scenario.p_max)

    def log_point(p):
        return np.log(np.clip(p, layout.clip_lo, scenario.p_max))

    def run(start):
        pv = start
        # Convergence runs on the unclamped rate -log2(worst ratio):
        # while the reported rate sits clamped at 0 the ratio can still
        # be descending, and stopping on a 0 -> 0 "improvement" would
        # strand the iteration before positive-rate territory.
        work = -np.log2(max_sinr_ratio(scenario, gains, pv))
        rates = [max(0.0, work)]
        stop_reason = "max_iter"
        solves = 0
        gain = 0.0  # the last accepted round's gain; 0 asks for tol 1e-9
        history = [log_point(pv)]  # accepted points since the last jump

        def sca_round(p_from, gp_tol):
            nonlocal solves
            solves += 1
            try:
                problem = build_approx_program(layout, p_from)
                sol = gp_solve(problem, tol=gp_tol)
            except CoopJamError as err:
                err.trace = IterationTrace(np.array(rates), False, "error")
                raise
            p_new = np.clip(sol.x[:n], 0.0, scenario.p_max)
            return p_new, -np.log2(max_sinr_ratio(scenario, gains, p_new))

        while solves < max_iter:
            gp_tol = max(1e-9, 0.01 * gain)
            if len(history) == 3:
                # Squared extrapolation of the last two rounds in log
                # power, step length bounded so a jump cannot leave the
                # basin; kept only if the round from there gains.
                z0, z1, z2 = history
                r, v = z1 - z0, z2 - 2.0 * z1 + z0
                norm_v = math.sqrt(v.dot(v))
                ratio = math.sqrt(r.dot(r)) / norm_v if norm_v else math.inf
                alpha = max(-4.0, min(-1.0, -ratio))
                z = np.clip(z0 - 2.0 * alpha * r + alpha * alpha * v,
                            z_lo, z_hi)
                p_new, work_new = sca_round(np.exp(z), gp_tol)
                if work_new > work:
                    rates.append(max(0.0, work_new))
                    gain = work_new - work
                    pv, work = p_new, work_new
                history = [log_point(pv)]
                continue
            p_new, work_new = sca_round(pv, gp_tol)
            if work_new <= work and gp_tol > 1e-9:
                # An inexact solve may simply have stopped short: redo
                # the round at full accuracy before calling it a stall.
                gain = 0.0
                continue
            if work_new < work - 1e-12:
                # No exact improvement at solver accuracy: fixed point.
                # Keep the previous iterate so the trace stays monotone.
                stop_reason = "tolerance"
                break
            rates.append(max(0.0, work_new))
            gain = work_new - work
            pv, work = p_new, work_new
            history.append(log_point(pv))
            if gain < tol:
                stop_reason = "tolerance"
                break

        trace = IterationTrace(np.array(rates), stop_reason == "tolerance",
                               stop_reason)
        p_final = pv.copy()
        p_final[p_final <= ZERO_SNAP_FACTOR * p_floor] = 0.0
        rate_final = secrecy_rate(scenario, gains, p_final)
        if rate_final < rates[0]:
            # The rounds shifted the other jammers to offset near-floor
            # ones, and zeroing those lost more than the ascent gained.
            p_final = np.array(start, dtype=float)
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
    if rate <= 0.0:
        # Every start fell into a zero-rate basin; the witness has
        # positive secrecy by construction when the instance does.
        verdict = check_positive_secrecy(scenario, gains)
        if verdict.feasible:
            challenge(np.asarray(verdict.witness.p))
    return alloc, rate, trace


# ---------------------------------------------------------------------------
# search over received jamming power (independent route)
# ---------------------------------------------------------------------------

# Past this many slice vertices algorithm_b gives up rather than loop.
MAX_SLICE_VERTICES = 500

# A tilted LP's witness is a new vertex only if it clears the chord by
# more than this, relative to the larger end value of u.
_CHORD_REL_TOL = 1e-11


def _charnes_cooper_lp(scenario: Scenario, gains: ChannelGains, active,
                       c_p, slice_t0=None) -> LinearProgram:
    """LP in (p, u): minimise c_p @ p - u subject to the rows
    g_e[m] @ p - p_source*h_e[m]*u >= -sigma2_e[m] for m in ``active``,
    g_d @ p = slice_t0 if given, and 0 <= p <= p_max, u >= 0."""
    a = np.column_stack([gains.g_e[active],
                         -scenario.p_source * gains.h_e[active]])
    lo = -scenario.sigma2_eaves[active]
    hi = np.full(active.size, np.inf)
    if slice_t0 is not None:
        a = np.vstack([np.append(gains.g_d, 0.0), a])
        lo, hi = np.append(slice_t0, lo), np.append(slice_t0, hi)
    return LinearProgram(c=np.append(c_p, -1.0), a=a,
                         row_lower=lo, row_upper=hi,
                         lower=np.zeros(scenario.n_jammers + 1),
                         upper=np.append(scenario.p_max, np.inf))


def _attained_u(scenario: Scenario, gains: ChannelGains, active, p) -> float:
    """min over ``active`` of 1/SINR_e_m at p: the u that p attains."""
    return float(np.min((gains.g_e[active] @ p + scenario.sigma2_eaves[active])
                        / (scenario.p_source * gains.h_e[active])))


def _solve_feasible(lp: LinearProgram, what: str):
    """Solve an LP that is feasible by construction (p = 0, u = 0 is,
    and 0 <= t0 <= p_max @ g_d keeps a slice so) and bounded."""
    res = lp_solve(lp)
    if res.status != "optimal":
        raise NumericalError(f"{what} LP is {res.status}")
    return res


def _slice_vertices(scenario: Scenario, gains: ChannelGains):
    """Breakpoints of the slice value u*(t) over 0 <= t <= t_max.

    u*(t), the best u = min_m 1/SINR_e_m over in-box allocations on the
    slice where the destination receives jamming power t = g_d @ p, is
    after the Charnes-Cooper change of variables the value of the LP

        max u  s.t.  g_d @ p = t,
                     g_e[m] @ p - p_source*h_e[m]*u >= -sigma2_e[m],
                     0 <= p <= p_max,  u >= 0

    over the eavesdroppers with h_e[m] > 0 (``_charnes_cooper_lp``), an
    LP in one right-hand side, so u* is concave and piecewise linear.
    The sandwich method (Eisner & Severance, J. ACM 1976) finds its
    vertices: the slice LP gives the two end points; for neighbours a
    and b, the LP max u - lam*g_d@p with lam the slope of chord ab and
    without the slice row either finds a point above the chord, a new
    vertex between them, or shows that [a, b] is one linear piece.  With
    k interior vertices that is 2k + 3 LPs.

    Every point is scored at its LP witness clipped into the box: t and
    u are what that allocation attains.  Returns (t, u, P) sorted by t,
    with P[i] the allocation behind (t[i], u[i]); needs h_e > 0 for at
    least one eavesdropper.
    """
    n = scenario.n_jammers
    active = np.flatnonzero(gains.h_e > 0)

    def point(lp, what):
        p = np.clip(_solve_feasible(lp, what).x[:n], 0.0, scenario.p_max)
        return float(gains.g_d @ p), _attained_u(scenario, gains, active, p), p

    def on_slice(t0):
        return point(_charnes_cooper_lp(scenario, gains, active,
                                        np.zeros(n), t0), f"slice t0={t0}")

    t_max = float(scenario.p_max @ gains.g_d)
    found = [on_slice(0.0)]
    pending = []
    if t_max > 0.0:
        found.append(on_slice(t_max))
        pending.append((found[0], found[1]))
    while pending:
        a, b = pending.pop()
        if b[0] <= a[0]:
            continue
        lam = (b[1] - a[1]) / (b[0] - a[0])
        c = point(_charnes_cooper_lp(scenario, gains, active, lam * gains.g_d),
                  f"tilted lam={lam}")
        rise = (c[1] - lam * c[0]) - (a[1] - lam * a[0])
        if (a[0] < c[0] < b[0]
                and rise > _CHORD_REL_TOL * max(abs(a[1]), abs(b[1]))):
            if len(found) >= MAX_SLICE_VERTICES:
                raise NumericalError(
                    f"slice value has over {MAX_SLICE_VERTICES} vertices")
            found.append(c)
            pending += [(a, c), (c, b)]
    found.sort(key=lambda v: v[0])
    return tuple(map(np.array, zip(*found)))


def _piece_stationary_points(t_a, u_a, t_b, u_b, a_src, sigma2_d):
    """Interior stationary points of q(t) = (1 + A/(s2 + t))*u/(1 + u) on
    the linear piece u = u_a + beta*(t - t_a), t_a < t < t_b.

    With s = s2 + t and u = c0 + beta*s, q' = 0 reads
    beta*s*(s + A) = A*u*(1 + u), i.e. the quadratic
    beta*(1 - A*beta)*s^2 - 2*A*beta*c0*s - A*c0*(1 + c0) = 0.
    """
    beta = (u_b - u_a) / (t_b - t_a)
    c0 = u_a - beta * (t_a + sigma2_d)
    k2 = beta * (1.0 - a_src * beta)
    k1 = -2.0 * a_src * beta * c0
    k0 = -a_src * c0 * (1.0 + c0)
    if k2 == 0.0:
        roots = [-k0 / k1] if k1 != 0.0 else []
    else:
        disc = k1 * k1 - 4.0 * k2 * k0
        if disc < 0.0:
            return []
        big = -0.5 * (k1 + np.copysign(np.sqrt(disc), k1))
        roots = [big / k2] + ([k0 / big] if big != 0.0 else [])
    return [s - sigma2_d for s in roots if t_a < s - sigma2_d < t_b]


def algorithm_b(scenario: Scenario, gains: ChannelGains):
    """Exact global search over the destination's received jamming power.

    Fixing t = g_d @ p pins SINR_d, and the best worst-eavesdropper
    ratio on that slice is top(t)*u*(t)/(1 + u*(t)) with u*(t) concave
    and piecewise linear (``_slice_vertices``).  On each linear piece
    the ratio is a 1-d rational function whose stationary points are
    the roots of a quadratic, so its maximum over [0, t_max] is among
    the vertices and those roots.  A root's allocation is the convex
    combination of its piece's end allocations, which is in the box and
    attains at least the piece's u.

    Returns (allocation, rate), the rate evaluated exactly at the best
    candidate (ties to the smallest t).  A handful of LPs per draw and
    free of any convex approximation, so the result certifies the global
    optimum that algorithm_a should reach.
    """
    _check_dims(scenario, gains)
    if not (gains.h_e > 0).any():
        # Jamming only hurts the destination when no eavesdropper hears
        # the source.
        p_best = np.zeros(scenario.n_jammers)
        return (PowerAllocation(p_best),
                secrecy_rate(scenario, gains, p_best))
    ts, us, ps = _slice_vertices(scenario, gains)
    a_src = scenario.p_source * gains.h_d
    cands = [ps]
    for k in range(ts.size - 1):
        if ts[k + 1] <= ts[k]:
            continue
        for t in _piece_stationary_points(ts[k], us[k], ts[k + 1], us[k + 1],
                                          a_src, scenario.sigma2_dest):
            w = (t - ts[k]) / (ts[k + 1] - ts[k])
            cands.append(np.clip(ps[k] + w * (ps[k + 1] - ps[k]), 0.0,
                                 scenario.p_max)[None, :])
    cands = np.concatenate(cands)
    cands = cands[np.argsort(cands @ gains.g_d, kind="stable")]
    # Unclamped log ratio, so a draw without positive secrecy still gets
    # its least-bad allocation.
    gd, ge = _sinrs(scenario, gains, cands)
    p_best = cands[int(np.argmax(np.log1p(gd) - np.log1p(ge.max(axis=1))))]
    return (PowerAllocation(p_best),
            secrecy_rate(scenario, gains, p_best))


def best_jammer_selection(scenario: Scenario, gains: ChannelGains):
    """Best allocation that uses a single jammer at a time, exactly.

    With only jammer j on at power p, each eavesdropper's 1/SINR is the
    line u_m(p) = (sigma2_e[m] + g_e[m, j]*p) / (p_source*h_e[m]), so the
    slice value u(p) = min_m u_m(p) is concave and piecewise linear with
    its breakpoints among the lines' pairwise crossings.  With
    t = g_d[j]*p the rate is log2 of (1 + A/(sigma2_d + t))*u/(1 + u),
    A = p_source*h_d, so on each piece its maximum is at an end or at a
    stationary point (``_piece_stationary_points``, in p with A and
    sigma2_d scaled by 1/g_d[j]).  Where g_d[j] = 0 the rate does not
    decrease in p, so p_max[j] is the only candidate; eavesdroppers with
    h_e = 0 never bind and are left out, and without any eavesdropper
    that hears the source p = 0 is optimal.

    All candidates of all jammers are scored in one batch; ties go to
    p = 0, then to the lowest jammer index and power.  Returns
    (allocation, rate): the baseline the joint allocation must dominate.
    """
    _check_dims(scenario, gains)
    n = scenario.n_jammers
    active = np.flatnonzero(gains.h_e > 0)
    cands = [np.zeros((1, n))]
    if active.size:
        scale = scenario.p_source * gains.h_e[active]
        u0 = scenario.sigma2_eaves[active] / scale
        slope = gains.g_e[active] / scale[:, None]
        a, b = np.triu_indices(active.size, 1)
        a_src = scenario.p_source * gains.h_d
        for j in range(n):
            p_max = scenario.p_max[j]
            if gains.g_d[j] == 0.0:
                powers = [p_max]
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    cross = (u0[a] - u0[b]) / (slope[b, j] - slope[a, j])
                knots = np.unique(np.concatenate(
                    ([0.0, p_max], cross[(cross > 0.0) & (cross < p_max)])))
                u = (u0[:, None] + slope[:, j, None] * knots).min(axis=0)
                powers = list(knots[1:])
                for k in range(knots.size - 1):
                    powers += _piece_stationary_points(
                        knots[k], u[k], knots[k + 1], u[k + 1],
                        a_src / gains.g_d[j],
                        scenario.sigma2_dest / gains.g_d[j])
            rows = np.zeros((len(powers), n))
            rows[:, j] = np.sort(powers)
            cands.append(rows)
    cands = np.concatenate(cands)
    p_best = cands[int(np.argmax(secrecy_rate_batch(scenario, gains, cands)))]
    return PowerAllocation(p_best), secrecy_rate(scenario, gains, p_best)


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
    bound_gap_max / bound_gap_min: extremes over KKT_PROBES random points
    of condensed minus exact ratio; the minimum certifies the condensation
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


def kkt_check(scenario: Scenario, gains: ChannelGains, p_star) -> KktReport:
    _check_dims(scenario, gains)
    pv = _allocations(scenario, p_star)
    p_floor = default_power_floor(scenario)
    layout = _ProgramLayout(scenario, gains)
    p_ref = np.clip(pv, layout.clip_lo, scenario.p_max)
    a, b = layout.a, layout.b
    log_den, e_den = _condense_denominator_logs(layout.log_ce, np.log(p_ref))

    # both ratio forms at the allocations given as the rows of q, (k, M)
    def gamma_exact(q):
        gd, ge = _sinrs(scenario, gains, q)
        return (1.0 + ge) / (1.0 + gd[:, None])

    def gamma_hat(q):
        q1 = np.column_stack([q, np.ones(len(q))])
        return ((q1 @ a.T) * (q1 @ b)[:, None]
                / np.exp(log_den + np.log(q) @ e_den.T))

    def nudged(coords, h):
        """Copies of p_ref, row r with coordinate coords[r] moved by h[r]."""
        q = np.tile(p_ref, (coords.size, 1))
        q[np.arange(coords.size), coords] += h
        return q

    ref = p_ref[None, :]
    equality_residual = float(np.max(np.abs(gamma_exact(ref)
                                            - gamma_hat(ref))))

    active = pv > ZERO_SNAP_FACTOR * p_floor
    # Tangency of gradients is checkable by finite differences only well
    # inside the box: at a near-floor coordinate the condensed power law
    # has curvature ~1/p^2, so any finite step measures that divergence
    # rather than the first-order match.  Such coordinates are
    # boundary-like and are covered by the one-sided slope test instead.
    interior = active & (p_ref >= 1e-3 * scenario.p_max)
    inside = np.flatnonzero(interior)
    h = 1e-6 * np.maximum(p_ref[inside], 1e-2 * scenario.p_max[inside])
    up, dn = nudged(inside, h), nudged(inside, -h)
    d_exact = (gamma_exact(up) - gamma_exact(dn)) / (2 * h[:, None])
    d_hat = (gamma_hat(up) - gamma_hat(dn)) / (2 * h[:, None])
    gradient_residual = float(np.max(np.abs(d_exact - d_hat), initial=0.0))

    rng = np.random.default_rng(0)
    lo = np.full(scenario.n_jammers, p_floor)
    probes = rng.uniform(lo, scenario.p_max,
                         size=(KKT_PROBES, scenario.n_jammers))
    gaps = gamma_hat(probes) - gamma_exact(probes)
    # The condensation upper-bounds the ratio objective, so gaps stay
    # (numerically) nonnegative.
    bound_gap_max = float(gaps.max())
    bound_gap_min = float(gaps.min())

    boundary_derivative_min = None
    inactive = np.flatnonzero(~interior)
    if inactive.size:
        tau0 = float(np.max(gamma_exact(ref)))
        h = 1e-6 * np.maximum(p_floor, 1e-3 * scenario.p_max[inactive])
        slopes = (gamma_exact(nudged(inactive, h)).max(axis=1) - tau0) / h
        boundary_derivative_min = float(slopes.min())

    return KktReport(equality_residual=equality_residual,
                     gradient_residual=gradient_residual,
                     bound_gap_max=bound_gap_max,
                     bound_gap_min=bound_gap_min,
                     boundary_derivative_min=boundary_derivative_min)
