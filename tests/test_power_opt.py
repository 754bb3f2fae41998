"""Both allocation routes, the single-jammer baseline and the
stationarity report."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coopjam import (ChannelGains, InvalidInputError, NumericalError,
                     PowerAllocation, Scenario, algorithm_a, algorithm_b,
                     best_jammer_selection, check_positive_secrecy,
                     gp, kkt_check, power_opt, sample_channels,
                     secrecy_rate)
from coopjam.experiments import (ASCENT_MAX_ITER, ExperimentConfig,
                                 _feasible_draws, default_scenario)
from coopjam.feasibility import default_strict_margin
from coopjam.gp import Monomial, Posynomial, condense, default_power_floor
from coopjam.model import _sinrs, secrecy_rate_batch, sinr_eavesdropper
from coopjam.numerics import LinearProgram, lp_solve
from coopjam.power_opt import (_attained_u, _charnes_cooper_lp,
                               _solve_feasible, max_sinr_ratio)
from tests.conftest import feasible_draws

# GP solves and Newton steps algorithm_a makes on the table_ab draws
TABLE_AB_GP_SOLVES = 47
TABLE_AB_NEWTON_STEPS = 624


def _onto_slice(p, g_d, t0: float, p_max):
    """Move the in-box ``p`` onto g_d @ p = t0 by shifting coordinates
    with g_d > 0 in turn, each within [0, p_max]."""
    gap = t0 - float(g_d @ p)
    for i in np.flatnonzero(g_d > 0):
        target = min(max(p[i] + gap / g_d[i], 0.0), p_max[i])
        gap -= (target - p[i]) * g_d[i]
        p[i] = target
    return p


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

    A witness outside the box by rounding is clipped into it and moved
    back onto the slice (``_onto_slice``), and q is the exact ratio at
    the result, top included: the value returned is always one that
    the returned in-box allocation attains.
    """
    n = scenario.n_jammers
    active = np.flatnonzero(gains.h_e > 0)
    if not active.size:
        lp = LinearProgram(c=np.ones(n), a=gains.g_d[None, :],
                           row_lower=[t0], row_upper=[t0],
                           lower=np.zeros(n), upper=scenario.p_max)
    else:
        lp = _charnes_cooper_lp(scenario, gains, active, np.zeros(n), t0)
    x = _solve_feasible(lp, f"slice t0={t0}").x[:n]
    p = np.clip(x, 0.0, scenario.p_max)
    if ((x < 0) | (x > scenario.p_max)).any():
        p = _onto_slice(p, gains.g_d, t0, scenario.p_max)
    top = 1.0 + scenario.p_source * gains.h_d / (scenario.sigma2_dest
                                                 + float(gains.g_d @ p))
    if not active.size:
        return top, p
    # Score the witness itself rather than the solver's u, which may sit
    # past what p attains by rounding.
    u = _attained_u(scenario, gains, active, p)
    q = top * u / (1.0 + u)
    return q if q > 0 else 1.0, p


class TestAlgorithmA:
    def test_trace_monotone_and_converged(self, scenario3x2):
        for g in feasible_draws(scenario3x2, seed=31, count=3):
            alloc, rate, trace = algorithm_a(scenario3x2, g)
            assert trace.converged and trace.stop_reason == "tolerance"
            assert (np.diff(trace.rates) >= -1e-12).all()
            assert rate >= trace.rates[-1] - 1e-9

    def test_result_is_exact_rate_at_allocation(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=32, count=1)[0]
        alloc, rate, _ = algorithm_a(scenario3x2, g)
        assert (alloc.p <= scenario3x2.p_max).all()
        assert rate == secrecy_rate(scenario3x2, g, alloc)

    def test_initialisation_insensitive(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=33, count=1)[0]
        _, r_mid, _ = algorithm_a(scenario3x2, g)
        _, r_hi, _ = algorithm_a(scenario3x2, g, p0=scenario3x2.p_max)
        _, r_lo, _ = algorithm_a(scenario3x2, g,
                                 p0=0.05 * scenario3x2.p_max)
        assert r_hi == pytest.approx(r_mid, abs=1e-4)
        assert r_lo == pytest.approx(r_mid, abs=1e-4)

    def test_useless_jammer_snapped_to_zero(self, scenario3x2):
        # jammer 2 reaches only the destination: any power it spends is
        # pure self-harm, so the optimiser must switch it off exactly
        g = ChannelGains(h_d=2.0, h_e=[1.5, 1.0], g_d=[0.2, 0.3, 1.0],
                         g_e=[[2.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
        alloc, rate, _ = algorithm_a(scenario3x2, g)
        assert alloc.p[2] == 0.0
        assert rate > 0

    def test_beats_no_jamming_when_it_helps(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=34, count=1)[0]
        passive = secrecy_rate(scenario3x2, g, np.zeros(3))
        _, rate, _ = algorithm_a(scenario3x2, g)
        assert rate >= passive - 1e-9

    def test_no_gp_solve_fails(self, scenario3x2, monkeypatch):
        # algorithm_a drops any error raised in a challenger run, so a
        # failing GP solve there would change results without a trace
        real = power_opt.gp_solve
        solves, raised = [], []

        def recorded(problem, **kwargs):
            solves.append(problem)
            try:
                return real(problem, **kwargs)
            except Exception as err:
                raised.append(err)
                raise

        monkeypatch.setattr(power_opt, "gp_solve", recorded)
        for g in feasible_draws(scenario3x2, seed=36, count=10):
            algorithm_a(scenario3x2, g, max_iter=300)
            algorithm_a(scenario3x2, g, p0=scenario3x2.p_max, max_iter=300)
        assert solves and not raised, raised[:3]

    def test_gp_work_on_table_ab_draws(self, monkeypatch):
        # the table_ab experiment's five draws: the solve count pins the
        # SCA path, the Newton total what the GP solver spends on it
        real = power_opt.gp_solve
        solutions = []

        def recorded(problem, **kwargs):
            solutions.append(real(problem, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(power_opt, "gp_solve", recorded)
        s = default_scenario()
        cfg = ExperimentConfig("table_ab")
        for _, g in _feasible_draws(s, cfg.seed, cfg.n_channel_sets):
            algorithm_a(s, g, max_iter=ASCENT_MAX_ITER)
        assert len(solutions) == TABLE_AB_GP_SOLVES
        newton = sum(sol.newton_iterations for sol in solutions)
        assert newton <= TABLE_AB_NEWTON_STEPS

    def test_one_program_layout_per_call(self, monkeypatch):
        # every SCA round of every start shares the call's layout, and
        # the next call on the same pair builds its own
        built = []

        class Counted(gp._ProgramLayout):
            def __init__(self, scenario, gains):
                built.append(gains)
                super().__init__(scenario, gains)

        monkeypatch.setattr(power_opt, "_ProgramLayout", Counted)
        s = default_scenario()
        cfg = ExperimentConfig("table_ab")
        for _, g in _feasible_draws(s, cfg.seed, cfg.n_channel_sets):
            built.clear()
            algorithm_a(s, g, max_iter=ASCENT_MAX_ITER)
            assert len(built) == 1 and built[0] is g
            algorithm_a(s, g, max_iter=ASCENT_MAX_ITER)
            assert len(built) == 2 and built[1] is g

    # jammers loud at both eavesdroppers, quiet at the destination: the
    # ascent from half power beats the best single jammer after one round,
    # so no challenger run replaces its trace
    LOUD_AT_EAVES = ChannelGains(h_d=1.0, h_e=[2.0, 3.0],
                                 g_d=[0.01, 0.01, 0.01],
                                 g_e=[[5.0, 1.0, 1.0], [1.0, 5.0, 1.0]])

    def test_trace_stops_at_max_iter(self, scenario3x2):
        g = self.LOUD_AT_EAVES
        _, _, trace = algorithm_a(scenario3x2, g, max_iter=1)
        assert trace.stop_reason == "max_iter" and not trace.converged
        # the start and the one round
        assert trace.rates.dtype == float and trace.rates.size == 2

    def test_error_carries_trace_of_rounds_done(self, scenario3x2,
                                                monkeypatch):
        g = self.LOUD_AT_EAVES
        _, _, one_round = algorithm_a(scenario3x2, g, max_iter=1)
        real = power_opt.gp_solve
        calls = []

        def second_fails(problem, **kwargs):
            calls.append(problem)
            if len(calls) == 2:
                raise NumericalError("injected")
            return real(problem, **kwargs)

        monkeypatch.setattr(power_opt, "gp_solve", second_fails)
        with pytest.raises(NumericalError, match="injected") as err:
            algorithm_a(scenario3x2, g)
        trace = err.value.trace
        assert trace.stop_reason == "error" and not trace.converged
        np.testing.assert_array_equal(trace.rates, one_round.rates)

    @staticmethod
    def _record_rounds(monkeypatch, swap):
        """Record each GP round's expansion point, tol and solution;
        ``swap(k, sol)`` may replace the k-th solution (from 0)."""
        real_build = power_opt.build_approx_program
        real_solve = power_opt.gp_solve
        points, tols, solutions = [], [], []

        def build(layout, p_tilde):
            points.append(np.array(p_tilde))
            return real_build(layout, p_tilde)

        def solve(problem, **kwargs):
            tols.append(kwargs["tol"])
            sol = swap(len(solutions), real_solve(problem, **kwargs))
            solutions.append(sol)
            return sol

        monkeypatch.setattr(power_opt, "build_approx_program", build)
        monkeypatch.setattr(power_opt, "gp_solve", solve)
        return points, tols, solutions

    @staticmethod
    def _back_to(p, solve):
        """A ``swap`` for _record_rounds that makes the ``solve``-th GP
        solution land on the allocation ``p``."""
        def swap(k, sol):
            if k != solve:
                return sol
            return gp.GpSolution(np.append(p, sol.x[p.size:]), sol.value,
                                 sol.duality_gap, sol.newton_iterations)
        return swap

    def test_rejected_jump_leaves_no_trace(self, scenario3x2, monkeypatch):
        # Solves 1 and 2 are plain rounds and solve 3 the first
        # extrapolated one.  Made to land back on the start, which two
        # rounds of ascent beat, it must be dropped: no trace row, and
        # the run ends where round 2 left it.
        g = self.LOUD_AT_EAVES
        alloc2, rate2, two = algorithm_a(scenario3x2, g, max_iter=2)
        _, _, solutions = self._record_rounds(
            monkeypatch, self._back_to(scenario3x2.p_max / 2.0, 2))
        alloc3, rate3, three = algorithm_a(scenario3x2, g, max_iter=3)
        assert len(solutions) == 3 and two.rates.size == 3
        np.testing.assert_array_equal(three.rates, two.rates)
        np.testing.assert_array_equal(alloc3.p, alloc2.p)
        assert rate3 == rate2 and three.stop_reason == "max_iter"

    def test_rejected_jump_resumes_from_last_round(self, scenario3x2,
                                                   monkeypatch):
        # on this draw the jump point is 0.14 W from round 2's iterate,
        # and the half-power run ends above the best single jammer
        g = feasible_draws(scenario3x2, seed=34, count=4)[3]
        points, _, solutions = self._record_rounds(
            monkeypatch, self._back_to(scenario3x2.p_max / 2.0, 2))
        _, _, trace = algorithm_a(scenario3x2, g)

        def exact(k):
            p = np.clip(solutions[k].x[:3], 0.0, scenario3x2.p_max)
            return p, -np.log2(max_sinr_ratio(scenario3x2, g, p))

        p2 = exact(1)[0]
        assert not np.array_equal(points[2], p2)
        np.testing.assert_array_equal(points[3], p2)
        assert list(trace.rates[1:4]) == [exact(k)[1] for k in (0, 1, 3)]

    def test_gp_tol_schedule(self, scenario3x2, monkeypatch):
        _, tols, _ = self._record_rounds(monkeypatch, lambda k, sol: sol)
        for g in feasible_draws(scenario3x2, seed=37, count=5):
            # below tol 1e-7 the gains that keep a run going reach 1e-9
            for tol in (1e-6, 1e-10):
                tols.clear()
                algorithm_a(scenario3x2, g, tol=tol, max_iter=300)
                assert tols[0] == 1e-9 and min(tols) >= 1e-9
                assert max(tols) > 1e-9  # inexact rounds happen

    def test_stalled_inexact_round_is_redone_exactly(self, scenario3x2,
                                                     monkeypatch):
        # Solve 2 is the first at a loose tol.  Made to land back on the
        # start, it must be redone from the same point at 1e-9 rather
        # than end the run as a fixed point.
        g = self.LOUD_AT_EAVES
        points, tols, _ = self._record_rounds(
            monkeypatch, self._back_to(scenario3x2.p_max / 2.0, 1))
        _, _, trace = algorithm_a(scenario3x2, g)
        assert tols[0] == 1e-9 and tols[1] > 1e-9 and tols[2] == 1e-9
        np.testing.assert_array_equal(points[2], points[1])
        assert trace.stop_reason == "tolerance" and trace.rates.size > 3

    @given(n=st.integers(1, 5), m=st.integers(1, 4),
           p_source=st.floats(0.5, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    @example(n=3, m=3, p_source=3.0, caps=[1.0] * 5, seed=217, index=0)
    def test_ascent_properties_on_random_draws(self, n, m, p_source, caps,
                                               seed, index):
        # Extrapolated and inexact rounds keep the plain ascent's
        # guarantees; max_iter clears the slowest of the 1,240 calls in
        # tests/sca_rates.py (709 GP solves).  On the example, the best
        # jammer's own start ended 9.9e-8 below it once its near-floor
        # jammers were snapped to zero.
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=np.array(caps[:n]), sigma2_dest=0.1,
                     sigma2_eaves=np.full(m, 0.1))
        g = feasible_draws(s, seed=seed, count=1, start_index=index)[0]
        _, rate, trace = algorithm_a(s, g, max_iter=1000)
        assert (np.diff(trace.rates) >= -1e-12).all()
        assert trace.stop_reason == "tolerance" and trace.converged
        assert rate >= best_jammer_selection(s, g)[1] - 1e-9

    def test_argument_validation(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, tol=0.0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, max_iter=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, p0=[0.1, 0.1])

    def test_nan_tol_rejected(self, scenario3x2):
        # tol <= 0 is False for NaN, which used to run to max_iter
        g = sample_channels(scenario3x2, seed=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, tol=float("nan"))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, None, "1e-6", 0.0,
                                     -1e-9])
    def test_rejects_bad_tol(self, tol):
        # inf stopped every start after one round as "tolerance"; None
        # or a string raised a bare TypeError
        s = default_scenario()
        (_, g), = _feasible_draws(s, 0, 1)
        with pytest.raises(InvalidInputError, match="tol"):
            algorithm_a(s, g, tol=tol)

    def test_non_finite_p0_named(self, scenario3x2):
        # a NaN used to reach the program builder and surface as
        # "constraint arrays do not match"
        g = sample_channels(scenario3x2, seed=0)
        with pytest.raises(InvalidInputError, match="p0 must be finite"):
            algorithm_a(scenario3x2, g, p0=[np.nan, 0.5, 0.5])

    def test_non_integer_max_iter_rejected(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, max_iter=1.5)

    def test_unclamped_progress_metric(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=1)
        p = scenario3x2.p_max / 3
        tau = max_sinr_ratio(scenario3x2, g, p)
        want = max(0.0, -np.log2(tau))
        assert secrecy_rate(scenario3x2, g, p) == pytest.approx(want)


class TestAlgorithmB:
    def test_rate_matches_allocation(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=35, count=1)[0]
        alloc, rate = algorithm_b(scenario3x2, g)
        assert (alloc.p <= scenario3x2.p_max).all()
        assert rate == secrecy_rate(scenario3x2, g, alloc)

    def test_agrees_with_algorithm_a(self, scenario3x2):
        for g in feasible_draws(scenario3x2, seed=36, count=3):
            _, r_a, _ = algorithm_a(scenario3x2, g, max_iter=300)
            alloc_b, r_b = algorithm_b(scenario3x2, g)
            assert r_a == pytest.approx(r_b, abs=1e-2)

    def test_single_jammer_grid_oracle(self):
        s = Scenario(n_jammers=1, n_eavesdroppers=1, p_source=2.0,
                     p_max=[2.0], sigma2_dest=0.1, sigma2_eaves=[0.1])
        for seed in range(4):
            g = sample_channels(s, seed=seed)
            grid = np.linspace(0, 2.0, 20001)[:, None]
            best = secrecy_rate_batch(s, g, grid).max()
            _, r_b = algorithm_b(s, g)
            assert r_b == pytest.approx(best, abs=1e-6)
            _, r_a, _ = algorithm_a(s, g, max_iter=300)
            assert r_a == pytest.approx(best, abs=1e-4)


class TestSliceObjective:
    def grid_values(self, s, g, points):
        t_max = float(s.p_max @ g.g_d)
        ts = np.linspace(0.0, t_max, points)
        return ts, np.array([_slice_optimum(s, g, t)[0] for t in ts])

    def test_no_interior_dip_where_positive(self, scenario3x2):
        # unimodality witness: on the stretch where the rate is positive
        # the sampled objective has no strict interior local minimum
        for g in feasible_draws(scenario3x2, seed=50, count=4):
            _, q = self.grid_values(scenario3x2, g, 40)
            pos = q > 1.0 + 1e-9
            for k in range(1, 39):
                if pos[k - 1] and pos[k] and pos[k + 1]:
                    assert not (q[k] < q[k - 1] - 1e-7
                                and q[k] < q[k + 1] - 1e-7)

    def test_single_eavesdropper_curve_unimodal(self):
        # the positive stretch of the curve rises then falls; the curve
        # is NOT concave there (its decaying tail is convex), so only
        # the weaker no-interior-dip property is checkable
        s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                     p_max=[1.5, 1.5], sigma2_dest=0.1, sigma2_eaves=[0.1])
        for g in feasible_draws(s, seed=51, count=3):
            ts, q = self.grid_values(s, g, 40)
            pos = q > 1.0 + 1e-9
            k_best = int(np.argmax(q))
            before = q[:k_best][pos[:k_best]]
            after = q[k_best:][pos[k_best:]]
            assert (np.diff(before) >= -1e-7).all()
            assert (np.diff(after) <= 1e-7).all()


def _count_lp_calls(monkeypatch, module=power_opt):
    """Record every LP that ``module`` hands to lp_solve."""
    calls = []

    def counted(lp):
        calls.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(module, "lp_solve", counted)
    return calls


def _bisection_oracle(s, g, t0, rel_tol=1e-9):
    """Slice optimum by bisecting t in the LP-feasibility question "every
    eavesdropper's ratio (1+SINR_d)/(1+SINR_e) can reach t"."""
    top = 1.0 + s.p_source * g.h_d / (s.sigma2_dest + t0)
    n = s.n_jammers

    def reachable(t):
        need = s.p_source * g.h_e * t / (top - t) - s.sigma2_eaves
        lp = LinearProgram(c=np.ones(n), a=np.vstack([g.g_d, g.g_e]),
                           row_lower=np.append(t0, need),
                           row_upper=np.append(t0, np.full(need.size, np.inf)),
                           lower=np.zeros(n), upper=s.p_max)
        return lp_solve(lp).status == "optimal"

    lo, hi = 0.0, top
    while hi - lo > rel_tol * top:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reachable(mid) else (lo, mid)
    return lo


class TestSliceLp:
    def test_one_lp_per_slice(self, scenario3x2, monkeypatch):
        g = feasible_draws(scenario3x2, seed=52, count=1)[0]
        calls = _count_lp_calls(monkeypatch)
        _slice_optimum(scenario3x2, g, 0.3 * float(scenario3x2.p_max @ g.g_d))
        assert len(calls) == 1

    def test_algorithm_b_lp_calls_pinned(self, scenario3x2, monkeypatch):
        # two end-point slices, then one tilted LP per vertex and one per
        # linear piece: 2k + 3 for this draw's k = 2 interior vertices
        g = feasible_draws(scenario3x2, seed=35, count=1)[0]
        calls = _count_lp_calls(monkeypatch)
        algorithm_b(scenario3x2, g)
        assert len(calls) == 7

    def test_witness_attains_value_on_slice(self, scenario3x2):
        s = scenario3x2
        for g in feasible_draws(s, seed=53, count=3):
            t_max = float(s.p_max @ g.g_d)
            for t0 in np.linspace(0.0, t_max, 9):
                q, p = _slice_optimum(s, g, t0)
                top = 1.0 + s.p_source * g.h_d / (s.sigma2_dest + t0)
                worst = max(sinr_eavesdropper(s, g, p, m)
                            for m in range(s.n_eavesdroppers))
                assert q == pytest.approx(top / (1.0 + worst), rel=1e-12)
                assert g.g_d @ p == pytest.approx(t0, rel=1e-9, abs=1e-15)
                assert (p >= 0).all() and (p <= s.p_max).all()

    def test_matches_bisection_oracle(self, scenario3x2):
        s21 = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                       p_max=[1.5, 1.5], sigma2_dest=0.1, sigma2_eaves=[0.1])
        for s, seed in ((scenario3x2, 54), (s21, 55)):
            for g in feasible_draws(s, seed=seed, count=2):
                t_max = float(s.p_max @ g.g_d)
                for t0 in np.linspace(0.0, t_max, 5):
                    q, _ = _slice_optimum(s, g, t0)
                    assert q == pytest.approx(_bisection_oracle(s, g, t0),
                                              rel=2e-6)

    def test_slice_next_to_a_vertex(self):
        # A slice next to a vertex of the box: t0 is 1.2e-7 below
        # p_max[0]*g_d[0] + p_max[1]*g_d[1], where algorithm_b's search
        # ended on this draw.  An LP presolve that fixes variables at
        # their bounds within its tolerance (HiGHS's did) calls it
        # infeasible.
        s = Scenario(n_jammers=3, n_eavesdroppers=2, p_source=4.0,
                     p_max=[0.25, 4.0, 0.109375], sigma2_dest=0.1,
                     sigma2_eaves=[0.1, 0.1])
        g = sample_channels(s, seed=430681827, index=1)
        t0 = 0.21844217857507855
        q, p = _slice_optimum(s, g, t0)
        assert q == pytest.approx(_bisection_oracle(s, g, t0), rel=2e-6)
        assert g.g_d @ p == pytest.approx(t0, rel=1e-9)
        alloc, _ = algorithm_b(s, g)
        assert (alloc.p >= 0).all() and (alloc.p <= s.p_max).all()

    def test_value_attained_by_clipped_witness(self):
        # Same slice as above: a witness outside the box by the solver's
        # tolerance (HiGHS's had p[2] ~ -9.7e-8) scores a ratio ~5e-7
        # above what any in-box allocation on or near the slice attains;
        # the value must be the one the returned in-box p attains.
        s = Scenario(n_jammers=3, n_eavesdroppers=2, p_source=4.0,
                     p_max=[0.25, 4.0, 0.109375], sigma2_dest=0.1,
                     sigma2_eaves=[0.1, 0.1])
        g = sample_channels(s, seed=430681827, index=1)
        q, p = _slice_optimum(s, g, 0.21844217857507855)
        assert (p >= 0).all() and (p <= s.p_max).all()
        top = 1.0 + s.p_source * g.h_d / (s.sigma2_dest + g.g_d @ p)
        worst = max(sinr_eavesdropper(s, g, p, m)
                    for m in range(s.n_eavesdroppers))
        assert q <= top / (1.0 + worst) * (1 + 1e-15)

    def test_no_eavesdropper_hears_source(self, scenario3x2):
        s = scenario3x2
        g = ChannelGains(h_d=2.0, h_e=[0.0, 0.0], g_d=[0.2, 0.3, 1.0],
                         g_e=[[2.0, 1.0, 0.5], [1.0, 2.0, 0.5]])
        alloc, rate = algorithm_b(s, g)
        assert (alloc.p == 0.0).all()
        assert rate == pytest.approx(
            np.log2(1.0 + s.p_source * g.h_d / s.sigma2_dest), rel=1e-12)


def _slice_u(s, g, p):
    """u = min_m 1/SINR_e_m at allocation p."""
    return float(np.min((g.g_e @ p + s.sigma2_eaves)
                        / (s.p_source * g.h_e)))


def _near_invisible_draw(s):
    # jammer 2 at ~1e-4 of the others' gain towards the destination
    g = feasible_draws(s, seed=57, count=1)[0]
    g_d = g.g_d.copy()
    g_d[2] = 1e-4 * min(g_d[0], g_d[1])
    return ChannelGains(h_d=g.h_d, h_e=g.h_e, g_d=g_d, g_e=g.g_e)


class TestSliceVertices:
    S21 = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                   p_max=[1.5, 1.5], sigma2_dest=0.1, sigma2_eaves=[0.1])
    S43 = Scenario(n_jammers=4, n_eavesdroppers=3, p_source=3.0,
                   p_max=[1.0, 2.0, 0.5, 1.5], sigma2_dest=0.1,
                   sigma2_eaves=[0.1, 0.2, 0.1])

    def draws(self, scenario3x2):
        return [(scenario3x2, feasible_draws(scenario3x2, seed=56,
                                             count=1)[0]),
                (self.S21, feasible_draws(self.S21, seed=56, count=1)[0]),
                (self.S43, feasible_draws(self.S43, seed=56, count=1)[0]),
                (scenario3x2, _near_invisible_draw(scenario3x2))]

    def test_vertices_interpolate_slice_optimum(self, scenario3x2):
        for s, g in self.draws(scenario3x2):
            ts, us, _ = power_opt._slice_vertices(s, g)
            for t0 in np.linspace(0.0, float(s.p_max @ g.g_d), 41):
                _, p = _slice_optimum(s, g, t0)
                assert np.interp(t0, ts, us) == pytest.approx(
                    _slice_u(s, g, p), rel=1e-9)

    def test_rate_beats_slice_grid(self, scenario3x2):
        for s, g in self.draws(scenario3x2):
            t_max = float(s.p_max @ g.g_d)
            best = max(secrecy_rate(s, g, _slice_optimum(s, g, t0)[1])
                       for t0 in np.linspace(0.0, t_max, 801))
            _, rate = algorithm_b(s, g)
            assert rate >= best - 1e-12

    def test_vertex_budget_raises(self, scenario3x2, monkeypatch):
        g = feasible_draws(scenario3x2, seed=35, count=1)[0]
        monkeypatch.setattr(power_opt, "MAX_SLICE_VERTICES", 2)
        with pytest.raises(NumericalError):
            algorithm_b(scenario3x2, g)


class TestGlobalOptimality:
    @given(n=st.integers(1, 4), m=st.integers(1, 3),
           p_source=st.floats(0.5, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32), index=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_search_never_trails_ascent(self, n, m, p_source, caps, seed,
                                        index):
        # algorithm_b maximises over every slice exactly, so the local
        # ascent can only match it
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=np.array(caps[:n]), sigma2_dest=0.1,
                     sigma2_eaves=np.full(m, 0.1))
        g = feasible_draws(s, seed=seed, count=1, start_index=index)[0]
        # Skip draws within 1e-9 of the feasibility boundary, where the
        # attainable rate is itself ~0
        assume(check_positive_secrecy(s, g).margin
               > default_strict_margin(s, g) + 1e-9)
        _, r_a, _ = algorithm_a(s, g)
        _, r_b = algorithm_b(s, g)
        assert r_a > 0
        assert r_b >= r_a - 1e-9

    def test_ascent_leaves_zero_rate_basin(self):
        # Every start of the ascent, the best single jammer included,
        # ends at rate 0 on this draw (feasibility margin 0.063); the
        # restart from the feasibility witness reaches the optimum
        s = Scenario(n_jammers=4, n_eavesdroppers=4,
                     p_source=1.7017800178158802,
                     p_max=np.array([3.303744831797692, 0.42273054693736056,
                                     2.96017185194869, 3.0493587891771163]),
                     sigma2_dest=0.1, sigma2_eaves=np.full(4, 0.1))
        g = sample_channels(s, seed=2926247093, index=703)
        _, r_a, _ = algorithm_a(s, g)
        _, r_b = algorithm_b(s, g)
        assert r_b > 0.4
        assert r_a >= r_b - 1e-6


class TestBestJammer:
    def test_at_most_one_active(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=40)
        alloc, rate = best_jammer_selection(scenario3x2, g)
        assert np.count_nonzero(alloc.p) <= 1
        assert rate == pytest.approx(secrecy_rate(scenario3x2, g, alloc))

    def test_joint_allocation_dominates(self, scenario3x2):
        for g in feasible_draws(scenario3x2, seed=41, count=3):
            _, r_single = best_jammer_selection(scenario3x2, g)
            _, r_joint, _ = algorithm_a(scenario3x2, g, max_iter=300)
            assert r_joint >= r_single - 1e-6

    def test_single_jammer_case_is_exact(self):
        s = Scenario(n_jammers=1, n_eavesdroppers=2, p_source=1.5,
                     p_max=[1.0], sigma2_dest=0.1, sigma2_eaves=[0.1, 0.2])
        g = sample_channels(s, seed=2)
        alloc, rate = best_jammer_selection(s, g)
        grid = np.linspace(0, 1.0, 20001)[:, None]
        assert rate == pytest.approx(
            secrecy_rate_batch(s, g, grid).max(), abs=1e-6)

    def test_optimum_at_eavesdropper_crossing(self):
        # The optimum sits where the binding eavesdropper changes, a kink
        # of the rate; a grid refined by golden-section search stalled
        # there at 0.96627646078.  A fine grid reaches 0.96627646290598.
        s = Scenario(n_jammers=1, n_eavesdroppers=3,
                     p_source=0.6137226121368629,
                     p_max=[2.7488334881477856], sigma2_dest=0.1,
                     sigma2_eaves=[0.151159030121587, 0.07317171986646089,
                                   0.18070162366158304])
        g = sample_channels(s, seed=921209089, index=590)
        _, rate = best_jammer_selection(s, g)
        assert rate >= 0.9662764629

    @given(n=st.integers(1, 5), m=st.integers(1, 4),
           p_source=st.floats(0.3, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=5, max_size=5),
           noise=st.lists(st.floats(0.05, 0.3), min_size=4, max_size=4),
           deaf=st.lists(st.booleans(), min_size=4, max_size=4),
           blind=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_no_worse_than_fine_grid(self, n, m, p_source, caps, noise,
                                     deaf, blind, seed, index):
        # deaf eavesdroppers (h_e = 0) never bind; jammers the
        # destination cannot hear (g_d = 0) are best at full power
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=caps[:n], sigma2_dest=0.1,
                     sigma2_eaves=noise[:m])
        g = sample_channels(s, seed=seed, index=index)
        g = ChannelGains(h_d=g.h_d, h_e=np.where(deaf[:m], 0.0, g.h_e),
                         g_d=np.where(blind[:n], 0.0, g.g_d), g_e=g.g_e)
        alloc, rate = best_jammer_selection(s, g)
        assert np.count_nonzero(alloc.p) <= 1
        assert (alloc.p <= s.p_max).all()
        assert rate == secrecy_rate(s, g, alloc)
        for j in range(n):
            pmat = np.zeros((20001, n))
            pmat[:, j] = np.linspace(0.0, s.p_max[j], 20001)
            assert rate >= secrecy_rate_batch(s, g, pmat).max() - 1e-12


class TestPowerBox:
    @given(shape=st.sampled_from([(2, 1), (3, 2)]),
           p_source=st.floats(0.5, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32), index=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    @example(shape=(3, 2), p_source=2.0, caps=[1.0, 2.0, 0.1015625],
             seed=199, index=997)
    def test_allocations_stay_in_box(self, shape, p_source, caps, seed,
                                     index):
        n, m = shape
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=np.array(caps[:n]), sigma2_dest=0.1,
                     sigma2_eaves=np.full(m, 0.1))
        g = feasible_draws(s, seed=seed, count=1, start_index=index)[0]
        allocations = [algorithm_a(s, g)[0], algorithm_b(s, g)[0],
                       best_jammer_selection(s, g)[0]]
        for alloc in allocations:
            assert (alloc.p >= 0).all() and (alloc.p <= s.p_max).all()

    def test_search_candidate_between_capped_ends(self):
        # both end allocations of the chosen piece hold jammer 3 at its
        # cap, and (1 - w) a + w b rounded one ulp above it
        s = Scenario(n_jammers=3, n_eavesdroppers=2, p_source=2.0,
                     p_max=np.array([1.0, 2.0, 0.1015625]), sigma2_dest=0.1,
                     sigma2_eaves=np.full(2, 0.1))
        g = feasible_draws(s, seed=199, count=1, start_index=997)[0]
        p = algorithm_b(s, g)[0].p
        assert (p >= 0).all() and (p <= s.p_max).all()


class TestFeasibilityAgreement:
    @given(shape=st.sampled_from([(2, 1), (3, 2)]),
           p_source=st.floats(0.5, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32), index=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_verdict_matches_search_rate(self, shape, p_source, caps, seed,
                                         index):
        # the feasibility LP and algorithm_b decide positive secrecy by
        # independent routes
        n, m = shape
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=np.array(caps[:n]), sigma2_dest=0.1,
                     sigma2_eaves=np.full(m, 0.1))
        g = sample_channels(s, seed=seed, index=index)
        verdict = check_positive_secrecy(s, g)
        # Skip instances within 1e-9 of the feasibility boundary: the
        # margin is the best worst slack, which a feasible verdict needs
        # to reach the strict margin
        if verdict.feasible:
            assume(verdict.margin > default_strict_margin(s, g) + 1e-9)
        else:
            assume(verdict.margin < -1e-9)
        _, rate = algorithm_b(s, g)
        assert verdict.feasible == (rate > 0)


def _kkt_reference(scenario, gains, p_star):
    """kkt_check as a loop over points, as it was before it evaluated
    stacked allocations: condensed ratio m is the posynomials
    A_m = g_e[m] p + s_e[m] + ps h_e[m] and B = g_d p + s_d over the
    monomials condensing C = g_d p + ps h_d + s_d and
    E_m = g_e[m] p + s_e[m], and every point is evaluated alone."""
    pv = np.asarray(p_star, dtype=float)
    p_floor = default_power_floor(scenario)
    p_ref = np.clip(pv, p_floor * (1 + 1e-6), scenario.p_max)
    n, ps = scenario.n_jammers, scenario.p_source

    def affine(gain_row, constant):
        return Posynomial([Monomial(coeff=float(c), exponents=row)
                           for c, row in zip(gain_row, np.eye(n)) if c != 0.0]
                          + [Monomial(coeff=float(constant),
                                      exponents=np.zeros(n))])

    b = affine(gains.g_d, scenario.sigma2_dest)
    c_hat = condense(affine(gains.g_d, ps * gains.h_d + scenario.sigma2_dest),
                     p_ref)[0]
    ratios = [(affine(g_e, s_e + ps * h_e),
               condense(affine(g_e, s_e), p_ref)[0])
              for g_e, s_e, h_e in zip(gains.g_e, scenario.sigma2_eaves,
                                       gains.h_e)]

    def gamma_exact(p):
        gd, ge = _sinrs(scenario, gains, p)
        return (1.0 + ge) / (1.0 + gd)

    def gamma_hat(p):
        return np.array([a.evaluate(p) * b.evaluate(p)
                         / (c_hat.evaluate(p) * e_hat.evaluate(p))
                         for a, e_hat in ratios])

    equality_residual = float(np.max(np.abs(gamma_exact(p_ref)
                                            - gamma_hat(p_ref))))
    active = pv > power_opt.ZERO_SNAP_FACTOR * p_floor
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
    rng = np.random.default_rng(0)
    lo = np.full(scenario.n_jammers, p_floor)
    probes = rng.uniform(lo, scenario.p_max, size=(50, scenario.n_jammers))
    gaps = np.array([gamma_hat(q) - gamma_exact(q) for q in probes])
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
    return power_opt.KktReport(
        equality_residual=equality_residual,
        gradient_residual=gradient_residual,
        bound_gap_max=float(gaps.max()), bound_gap_min=float(gaps.min()),
        boundary_derivative_min=boundary_derivative_min)


def _kkt_cases():
    """(scenario, gains, allocation): feasible random draws, N <= 5 and
    M <= 4, each at algorithm_a's optimum and at half power, and a draw
    whose optimum switches a jammer off."""
    rng = np.random.default_rng(515)
    cases = []
    while len(cases) < 24:
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        s = Scenario(n_jammers=n, n_eavesdroppers=m,
                     p_source=float(rng.uniform(0.5, 5.0)),
                     p_max=rng.uniform(0.1, 3.0, n), sigma2_dest=0.1,
                     sigma2_eaves=np.full(m, 0.1))
        g = sample_channels(s, seed=int(rng.integers(0, 2 ** 31)))
        if check_positive_secrecy(s, g).feasible:
            cases += [(s, g, algorithm_a(s, g)[0].p), (s, g, s.p_max / 2)]
    s = Scenario(n_jammers=3, n_eavesdroppers=2, p_source=2.0,
                 p_max=np.array([1.0, 1.0, 3.0]), sigma2_dest=0.1,
                 sigma2_eaves=np.array([0.1, 0.1]))
    g = ChannelGains(h_d=2.0, h_e=[1.5, 1.0], g_d=[0.2, 0.3, 1.0],
                     g_e=[[2.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
    return cases + [(s, g, algorithm_a(s, g)[0].p)]


class TestKktReport:
    def test_matches_per_point_reference(self):
        # Stacked and single evaluations differ in the last bits, which
        # the finite-difference steps (down to ~1e-9) amplify in the two
        # derivative fields; the bounds are the largest differences
        # measured on 150 draws.
        for s, g, p in _kkt_cases():
            got, want = kkt_check(s, g, p), _kkt_reference(s, g, p)
            for field in ("equality_residual", "bound_gap_max",
                          "bound_gap_min"):
                a, b = getattr(got, field), getattr(want, field)
                assert abs(a - b) <= 2e-15 * max(1.0, abs(b)), field
            assert abs(got.gradient_residual
                       - want.gradient_residual) <= 1e-8
            if want.boundary_derivative_min is None:
                assert got.boundary_derivative_min is None
            else:
                b = want.boundary_derivative_min
                assert abs(got.boundary_derivative_min - b) <= \
                    6.7e-7 * max(1.0, abs(b))

    def test_exact_tangency_at_optimum(self):
        # the condensed ratio touches the exact one at the expansion
        # point to rounding, zeroed jammers included; _kkt_cases lists
        # each draw's optimum first
        for s, g, p in _kkt_cases()[::2]:
            p_ref = np.clip(p, default_power_floor(s) * (1 + 1e-6), s.p_max)
            bound = 16 * np.finfo(float).eps * max_sinr_ratio(s, g, p_ref)
            assert kkt_check(s, g, p).equality_residual <= bound

    def test_stationary_point_passes(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=42, count=1)[0]
        alloc, _, _ = algorithm_a(scenario3x2, g, tol=1e-9, max_iter=300)
        rep = kkt_check(scenario3x2, g, alloc)
        assert rep.equality_residual < 1e-8
        assert rep.gradient_residual < 1e-5
        assert rep.bound_gap_min >= -1e-9
        assert rep.bound_gap_max >= rep.bound_gap_min

    def test_boundary_slope_reported_for_zeroed_jammer(self, scenario3x2):
        g = ChannelGains(h_d=2.0, h_e=[1.5, 1.0], g_d=[0.2, 0.3, 1.0],
                         g_e=[[2.0, 1.0, 0.0], [1.0, 2.0, 0.0]])
        alloc, _, _ = algorithm_a(scenario3x2, g)
        rep = kkt_check(scenario3x2, g, alloc)
        # switching the dead jammer back on must not look profitable
        assert rep.boundary_derivative_min is not None
        assert rep.boundary_derivative_min >= -1e-6

    def test_no_boundary_report_when_all_active(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=43, count=1)[0]
        rep = kkt_check(scenario3x2, g, scenario3x2.p_max / 2)
        assert rep.boundary_derivative_min is None

    def test_interior_point_fails_gradient(self, scenario3x2):
        # an arbitrary point should not masquerade as stationary
        g = feasible_draws(scenario3x2, seed=44, count=1)[0]
        alloc, _, _ = algorithm_a(scenario3x2, g, tol=1e-9, max_iter=300)
        good = kkt_check(scenario3x2, g, alloc)
        bad = kkt_check(scenario3x2, g, scenario3x2.p_max * 0.9)
        assert good.equality_residual <= bad.equality_residual + 1e-12
