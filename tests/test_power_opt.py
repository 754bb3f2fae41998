"""Both allocation routes, the single-jammer baseline and the
stationarity report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam import (ChannelGains, InvalidInputError, PowerAllocation,
                     Scenario, algorithm_a, algorithm_b,
                     best_jammer_selection, kkt_check, power_opt,
                     sample_channels, secrecy_rate)
from coopjam.model import secrecy_rate_batch, sinr_eavesdropper
from coopjam.numerics import LinearProgram, lp_solve
from coopjam.power_opt import _slice_optimum, max_sinr_ratio
from tests.conftest import feasible_draws


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
        alloc.validate_for(scenario3x2)
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

    def test_argument_validation(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, tol=0.0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, max_iter=0)
        with pytest.raises(InvalidInputError):
            algorithm_a(scenario3x2, g, p0=[0.1, 0.1])

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
        alloc.validate_for(scenario3x2)
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


def _count_lp_calls(monkeypatch):
    calls = []

    def counted(lp, **kwargs):
        calls.append(lp)
        return lp_solve(lp, **kwargs)

    monkeypatch.setattr(power_opt, "lp_solve", counted)
    return calls


def _bisection_oracle(s, g, t0, rel_tol=1e-9):
    """Slice optimum by bisecting t in the LP-feasibility question "every
    eavesdropper's ratio (1+SINR_d)/(1+SINR_e) can reach t"."""
    top = 1.0 + s.p_source * g.h_d / (s.sigma2_dest + t0)
    n = s.n_jammers

    def reachable(t):
        rows = [(g.g_d, "=", t0)]
        for m in range(s.n_eavesdroppers):
            need = s.p_source * g.h_e[m] * t / (top - t) - s.sigma2_eaves[m]
            rows.append((g.g_e[m], ">=", need))
        lp = LinearProgram(c=np.ones(n), rows=tuple(rows),
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

    def test_algorithm_b_one_lp_per_distinct_slice(self, scenario3x2,
                                                   monkeypatch):
        g = feasible_draws(scenario3x2, seed=35, count=1)[0]
        calls = _count_lp_calls(monkeypatch)
        slices = []

        def recorded(s, gains, t0):
            slices.append(t0)
            return _slice_optimum(s, gains, t0)

        monkeypatch.setattr(power_opt, "_slice_optimum", recorded)
        algorithm_b(scenario3x2, g)
        assert len(calls) == len(set(slices)) == len(slices)

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
        # HiGHS's presolve calls this slice infeasible: t0 is 1.2e-7 below
        # p_max[0]*g_d[0] + p_max[1]*g_d[1], where algorithm_b's search
        # ended on this draw.
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

    def test_no_eavesdropper_hears_source(self, scenario3x2):
        s = scenario3x2
        g = ChannelGains(h_d=2.0, h_e=[0.0, 0.0], g_d=[0.2, 0.3, 1.0],
                         g_e=[[2.0, 1.0, 0.5], [1.0, 2.0, 0.5]])
        alloc, rate = algorithm_b(s, g)
        assert (alloc.p == 0.0).all()
        assert rate == pytest.approx(
            np.log2(1.0 + s.p_source * g.h_d / s.sigma2_dest), rel=1e-12)


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


class TestPowerBox:
    @given(shape=st.sampled_from([(2, 1), (3, 2)]),
           p_source=st.floats(0.5, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32), index=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
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


class TestKktReport:
    def test_stationary_point_passes(self, scenario3x2):
        g = feasible_draws(scenario3x2, seed=42, count=1)[0]
        alloc, _, _ = algorithm_a(scenario3x2, g, tol=1e-9, max_iter=300)
        rep = kkt_check(scenario3x2, g, alloc)
        assert rep.equality_residual < 1e-8
        assert rep.gradient_residual < 1e-5
        assert rep.bound_gap_min >= -1e-9
        assert rep.bound_gap_max >= rep.bound_gap_min
        assert rep.n_probes == 50

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
