"""Positive-secrecy feasibility check."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopjam import (ChannelGains, InvalidInputError, Scenario,
                     check_positive_secrecy, feasibility, sample_channels,
                     secrecy_rate)
from coopjam.feasibility import build_max_slack_lp, default_strict_margin
from coopjam.numerics import lp_solve
from tests.conftest import feasible_draws
from tests.test_power_opt import _count_lp_calls


def cross_multiplied(s, g):
    """The rows a @ p > b of positive secrecy, built term by term."""
    a = np.array([[g.h_d * g.g_e[j, k] - g.h_e[j] * g.g_d[k]
                   for k in range(s.n_jammers)]
                  for j in range(s.n_eavesdroppers)])
    b = np.array([g.h_e[j] * s.sigma2_dest - g.h_d * s.sigma2_eaves[j]
                  for j in range(s.n_eavesdroppers)])
    return a, b


def scalar_scenario(p_max=2.0):
    return Scenario(n_jammers=1, n_eavesdroppers=1, p_source=1.0,
                    p_max=[p_max], sigma2_dest=0.1, sigma2_eaves=[0.1])


class TestVerdicts:
    def test_feasible_with_witness(self, scenario3x2):
        # jammers loud at both eavesdroppers, quiet at destination
        g = ChannelGains(h_d=1.0, h_e=[2.0, 3.0],
                         g_d=[0.01, 0.01, 0.01],
                         g_e=[[5.0, 1.0, 1.0], [1.0, 5.0, 1.0]])
        v = check_positive_secrecy(scenario3x2, g)
        assert v.feasible and v.margin > 0
        assert (v.witness.p <= scenario3x2.p_max).all()
        assert secrecy_rate(scenario3x2, g, v.witness) > 0

    def test_infeasible_reports_negative_margin(self, scenario3x2):
        # jammers unheard by the eavesdroppers, strong eaves channels
        g = ChannelGains(h_d=1.0, h_e=[4.0, 4.0],
                         g_d=[1.0, 1.0, 1.0], g_e=np.zeros((2, 3)))
        v = check_positive_secrecy(scenario3x2, g)
        assert not v.feasible and v.witness is None
        assert v.margin < 0
        # the margin is the unreachable gap of the worst row
        want = -max(4.0 * 0.1 - 1.0 * 0.1 for _ in range(2))
        assert v.margin == pytest.approx(want, rel=1e-6)

    def test_margin_is_best_worst_slack(self, scenario3x2):
        # seed 7's first feasible draw needs jamming; its witness has
        # the best worst slack, far above the strict margin
        s = scenario3x2
        g = feasible_draws(s, seed=7, count=1)[0]
        assert secrecy_rate(s, g, np.zeros(3)) == 0.0
        v = check_positive_secrecy(s, g)
        best = lp_solve(build_max_slack_lp(s, g))
        assert best.status == "optimal"
        assert v.margin == pytest.approx(best.x[-1], rel=1e-12)
        assert v.margin > 1e6 * default_strict_margin(s, g)
        a, b = cross_multiplied(s, g)
        assert np.min(a @ v.witness.p - b) == pytest.approx(v.margin,
                                                           rel=1e-9)

    def test_no_jamming_needed(self):
        s = scalar_scenario()
        g = ChannelGains(h_d=3.0, h_e=[1.0], g_d=[1.0], g_e=[[1.0]])
        v = check_positive_secrecy(s, g)
        assert v.feasible
        assert secrecy_rate(s, g, v.witness) > 0

    def test_single_jammer_threshold(self):
        # one jammer, one eavesdropper: feasibility has a closed form
        rng = np.random.default_rng(17)
        s = scalar_scenario(p_max=1.5)
        for _ in range(200):
            hd, he, gd, ge = rng.exponential(size=4)
            g = ChannelGains(h_d=hd, h_e=[he], g_d=[gd], g_e=[[ge]])
            a = hd * ge - he * gd
            b = he * s.sigma2_dest - hd * s.sigma2_eaves[0]
            want = b < max(a, 0.0) * 1.5 or b < 0
            v = check_positive_secrecy(s, g)
            assert v.feasible == want, (hd, he, gd, ge)

    def test_verdict_matches_grid_search(self, scenario3x2):
        rng = np.random.default_rng(23)
        grid = rng.uniform(0, 1, size=(500, 3)) * scenario3x2.p_max
        for seed in range(30):
            g = sample_channels(scenario3x2, seed=seed)
            v = check_positive_secrecy(scenario3x2, g)
            from coopjam.model import secrecy_rate_batch
            best = secrecy_rate_batch(scenario3x2, g, grid).max()
            if v.feasible:
                assert secrecy_rate(scenario3x2, g, v.witness) > 0
            else:
                assert best == 0.0


class TestLpConstruction:
    def test_rows_match_cross_multiplied_inequality(self, scenario3x2):
        # (p, z) with a @ p - z >= b: z is every row's slack
        g = sample_channels(scenario3x2, seed=3)
        lp = build_max_slack_lp(scenario3x2, g)
        a, b = cross_multiplied(scenario3x2, g)
        assert lp.a.shape == (2, 4)
        np.testing.assert_array_equal(lp.a[:, :3], a)
        np.testing.assert_array_equal(lp.a[:, 3], -1.0)
        np.testing.assert_array_equal(lp.row_lower, b)
        np.testing.assert_array_equal(lp.row_upper, np.inf)
        np.testing.assert_array_equal(lp.c, [0.0, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(lp.upper,
                                      np.append(scenario3x2.p_max, np.inf))
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0, 0.0, -np.inf])

    def test_margin_tightens_constraints(self):
        # a boundary instance flips verdict once the margin exceeds its slack
        s = scalar_scenario(p_max=1.0)
        g = ChannelGains(h_d=1.0, h_e=[1.0], g_d=[1.0], g_e=[[1.1]])
        # row: p*(1.1 - 1.0) >= 0, slack at p_max is 0.1
        assert check_positive_secrecy(s, g, strict_margin=0.0).feasible
        assert not check_positive_secrecy(s, g, strict_margin=0.2).feasible

    def test_default_margin_scales_with_rhs(self):
        s = scalar_scenario()
        g1 = ChannelGains(h_d=1.0, h_e=[1.0], g_d=[1.0], g_e=[[1.0]])
        g2 = ChannelGains(h_d=1.0, h_e=[1e12], g_d=[1.0], g_e=[[1.0]])
        assert default_strict_margin(s, g1) == pytest.approx(1e-9)
        assert default_strict_margin(s, g2) == pytest.approx(
            1e-9 * (1e12 * 0.1 - 0.1), rel=1e-9)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_rejected(self, scenario3x2, margin):
        # NaN compared false against every margin and so read as
        # "infeasible" on a feasible draw
        g = sample_channels(scenario3x2, seed=1)
        with pytest.raises(InvalidInputError):
            check_positive_secrecy(scenario3x2, g, strict_margin=margin)


class TestOneLp:
    def test_one_lp_per_verdict(self, scenario3x2, monkeypatch):
        calls = _count_lp_calls(monkeypatch, feasibility)
        for seed in range(4):
            check_positive_secrecy(scenario3x2,
                                   sample_channels(scenario3x2, seed=seed))
            assert len(calls) == seed + 1

    @given(n=st.integers(1, 5), m=st.integers(1, 4),
           p_source=st.floats(0.3, 5.0),
           caps=st.lists(st.floats(0.1, 4.0), min_size=5, max_size=5),
           noise=st.lists(st.floats(0.05, 0.3), min_size=4, max_size=4),
           deaf=st.lists(st.booleans(), min_size=4, max_size=4),
           blind=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_verdict_matches_margined_lp(self, n, m, p_source, caps, noise,
                                         deaf, blind, seed, index):
        # the verdict against scipy's own solve of the margined system
        # a @ p >= b + strict_margin over the box; deaf eavesdroppers
        # (h_e = 0) and jammers the destination cannot hear (g_d = 0)
        # make rows with one-signed coefficients
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=p_source,
                     p_max=caps[:n], sigma2_dest=0.1,
                     sigma2_eaves=noise[:m])
        g = sample_channels(s, seed=seed, index=index)
        g = ChannelGains(h_d=g.h_d, h_e=np.where(deaf[:m], 0.0, g.h_e),
                         g_d=np.where(blind[:n], 0.0, g.g_d), g_e=g.g_e)
        strict = default_strict_margin(s, g)
        v = check_positive_secrecy(s, g)
        a, b = cross_multiplied(s, g)
        scale = max(1.0, float(np.max(np.abs(b))))
        assume(abs(v.margin - strict) > 1e-7 * scale)
        oracle = scipy.optimize.linprog(
            np.ones(n), A_ub=-a, b_ub=-(b + strict),
            bounds=list(zip(np.zeros(n), s.p_max)), method="highs")
        assert oracle.status in (0, 2)
        assert v.feasible == (oracle.status == 0)
        if v.feasible:
            assert (v.witness.p <= s.p_max).all()
            assert np.min(a @ v.witness.p - b) == pytest.approx(v.margin,
                                                               rel=1e-9)
        else:
            assert v.witness is None
