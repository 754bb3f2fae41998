"""Positive-secrecy feasibility check."""

import numpy as np
import pytest

from coopjam import (ChannelGains, Scenario, check_positive_secrecy,
                     secrecy_rate)
from coopjam.feasibility import (build_feasibility_lp, build_max_slack_lp,
                                 default_strict_margin)
from coopjam.numerics import lp_solve
from tests.conftest import feasible_draws


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
        v.witness.validate_for(scenario3x2)
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
        # seed 7's first feasible draw needs jamming; its minimum-power
        # witness sits at the strict margin, the instance does not
        s = scenario3x2
        g = feasible_draws(s, seed=7, count=1)[0]
        assert secrecy_rate(s, g, np.zeros(3)) == 0.0
        v = check_positive_secrecy(s, g)
        best = lp_solve(build_max_slack_lp(s, g))
        assert best.status == "optimal"
        assert v.margin == pytest.approx(best.x[-1], rel=1e-12)
        assert v.margin > 1e6 * default_strict_margin(s, g)
        rows = build_feasibility_lp(s, g, strict_margin=0.0).rows
        witness_slack = min(a @ v.witness.p - b for a, _, b in rows)
        assert witness_slack == pytest.approx(default_strict_margin(s, g),
                                              rel=1e-6)

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
            from coopjam import sample_channels
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
        from coopjam import sample_channels
        g = sample_channels(scenario3x2, seed=3)
        lp = build_feasibility_lp(scenario3x2, g, strict_margin=0.0)
        assert len(lp.rows) == 2
        for j, (a, sense, b) in enumerate(lp.rows):
            np.testing.assert_array_equal(
                a, g.h_d * g.g_e[j] - g.h_e[j] * g.g_d)
            assert sense == ">="
            assert b == pytest.approx(
                g.h_e[j] * scenario3x2.sigma2_dest
                - g.h_d * scenario3x2.sigma2_eaves[j])
        np.testing.assert_array_equal(lp.upper, scenario3x2.p_max)
        np.testing.assert_array_equal(lp.lower, 0.0)

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
