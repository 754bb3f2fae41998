"""Network dataclasses, SINR/rate evaluation, sampling, JSON round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam import (ChannelGains, InvalidInputError, PowerAllocation,
                     Scenario, algorithm_a, check_positive_secrecy,
                     estimate_sop, kkt_check, sample_channels, secrecy_rate,
                     sinr_destination, sinr_eavesdropper, sop_closed_form,
                     sop_closed_form_n2m1, sop_integral)
from coopjam.model import (gains_from_dict, gains_to_dict, load_scenario,
                           save_scenario, scenario_from_dict,
                           scenario_to_dict, secrecy_rate_batch)


def make_gains(rng, n, m):
    return ChannelGains(h_d=float(rng.exponential()),
                        h_e=rng.exponential(size=m),
                        g_d=rng.exponential(size=n),
                        g_e=rng.exponential(size=(m, n)))


class TestValidation:
    def test_scenario_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            Scenario(n_jammers=2, n_eavesdroppers=1, p_source=1.0,
                     p_max=[1.0, 1.0, 1.0], sigma2_dest=0.1,
                     sigma2_eaves=[0.1])
        with pytest.raises(InvalidInputError):
            Scenario(n_jammers=1, n_eavesdroppers=2, p_source=1.0,
                     p_max=[1.0], sigma2_dest=0.1, sigma2_eaves=[0.1])

    def test_scenario_rejects_nonpositive(self):
        for kw in [dict(p_source=0.0), dict(sigma2_dest=-0.1),
                   dict(p_max=[1.0, 0.0])]:
            args = dict(n_jammers=2, n_eavesdroppers=1, p_source=1.0,
                        p_max=[1.0, 2.0], sigma2_dest=0.1,
                        sigma2_eaves=[0.1])
            args.update(kw)
            with pytest.raises(InvalidInputError):
                Scenario(**args)

    def test_gains_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ChannelGains(h_d=-1.0, h_e=[0.1], g_d=[0.1], g_e=[[0.1]])
        with pytest.raises(InvalidInputError):
            ChannelGains(h_d=1.0, h_e=[0.1], g_d=[0.1], g_e=[[0.1, 0.2]])

    def test_allocation_box(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation([-0.1])

    def test_arrays_frozen(self, scenario3x2):
        with pytest.raises(ValueError):
            scenario3x2.p_max[0] = 5.0

    @pytest.mark.parametrize("call, expected", [
        pytest.param(lambda s: estimate_sop(s, 1000, 0), "SopScenario",
                     id="estimate_sop"),
        pytest.param(sop_integral, "SopScenario", id="sop_integral"),
        pytest.param(sop_closed_form, "SopScenario", id="sop_closed_form"),
        pytest.param(sop_closed_form_n2m1, "SopScenario",
                     id="sop_closed_form_n2m1"),
        pytest.param(lambda s: algorithm_a(s, None), "ChannelGains",
                     id="algorithm_a"),
        pytest.param(lambda s: check_positive_secrecy(s, None),
                     "ChannelGains", id="check_positive_secrecy"),
    ])
    def test_wrong_argument_type_named(self, call, expected):
        # a Scenario where a SopScenario belongs, or None for the gains,
        # used to end in a bare AttributeError
        s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                     p_max=[1.0, 2.5], sigma2_dest=0.1, sigma2_eaves=[0.1])
        with pytest.raises(InvalidInputError,
                           match=f"must be a {expected}, got"):
            call(s)


class TestRates:
    def test_sinr_matches_direct_formula(self, scenario3x2):
        rng = np.random.default_rng(3)
        g = make_gains(rng, 3, 2)
        p = rng.uniform(0, 1, size=3)
        want = scenario3x2.p_source * g.h_d / (g.g_d @ p + 0.1)
        assert sinr_destination(scenario3x2, g, p) == pytest.approx(want)
        for m in range(2):
            want_m = scenario3x2.p_source * g.h_e[m] / (g.g_e[m] @ p + 0.1)
            assert sinr_eavesdropper(scenario3x2, g, p, m) == \
                pytest.approx(want_m)

    def test_rate_is_capacity_gap(self, scenario3x2):
        rng = np.random.default_rng(4)
        g = make_gains(rng, 3, 2)
        p = rng.uniform(0, 1, size=3)
        gd = sinr_destination(scenario3x2, g, p)
        ge = max(sinr_eavesdropper(scenario3x2, g, p, m) for m in range(2))
        want = max(0.0, np.log2(1 + gd) - np.log2(1 + ge))
        assert secrecy_rate(scenario3x2, g, p) == pytest.approx(want)

    def test_rate_clamps_at_zero(self, scenario3x2):
        g = ChannelGains(h_d=0.01, h_e=[5.0, 5.0], g_d=[1.0, 1.0, 1.0],
                         g_e=np.zeros((2, 3)))
        assert secrecy_rate(scenario3x2, g, [1.0, 1.0, 3.0]) == 0.0

    def test_more_jamming_on_eaves_only_helps(self, scenario3x2):
        # raising power of a jammer unheard by the destination
        g = ChannelGains(h_d=2.0, h_e=[1.0, 0.5], g_d=[0.0, 1.0, 1.0],
                         g_e=np.ones((2, 3)))
        r1 = secrecy_rate(scenario3x2, g, [0.2, 0.1, 0.1])
        r2 = secrecy_rate(scenario3x2, g, [0.9, 0.1, 0.1])
        assert r2 >= r1

    def test_batch_matches_scalar(self, scenario3x2):
        rng = np.random.default_rng(5)
        g = make_gains(rng, 3, 2)
        pmat = rng.uniform(0, 2, size=(40, 3))
        batch = secrecy_rate_batch(scenario3x2, g, pmat)
        single = [secrecy_rate(scenario3x2, g, row) for row in pmat]
        np.testing.assert_allclose(batch, single, atol=1e-13)

    def test_dimension_mismatch_caught(self, scenario3x2):
        g = ChannelGains(h_d=1.0, h_e=[1.0], g_d=[1.0], g_e=[[1.0]])
        with pytest.raises(InvalidInputError):
            secrecy_rate(scenario3x2, g, [0.1, 0.1, 0.1])
        g2 = make_gains(np.random.default_rng(0), 3, 2)
        with pytest.raises(InvalidInputError):
            sinr_eavesdropper(scenario3x2, g2, [0.1, 0.1, 0.1], 5)

    def test_bad_allocation_or_index_rejected(self, scenario3x2):
        # each used to raise numpy's bare ValueError or IndexError, return
        # a (1, M) array for the index True, or read a NaN power as rate 0
        g = make_gains(np.random.default_rng(1), 3, 2)
        ok = [0.1, 0.2, 0.1]
        for p in ([0.1, 0.2], [0.1, 0.2, 0.1, 0.3], [[0.1, 0.2, 0.1]],
                  [np.nan, 0.2, 0.1], [0.1, np.inf, 0.1], [0.1, -0.2, 0.1],
                  ["a", 0.2, 0.1]):
            for call in (secrecy_rate, sinr_destination, kkt_check,
                         lambda s, g, p: sinr_eavesdropper(s, g, p, 0)):
                with pytest.raises(InvalidInputError):
                    call(scenario3x2, g, p)
        for pmat in ([[0.1, 0.2]], [[0.1, 0.2, 0.1], [0.1, np.nan, 0.1]],
                     np.zeros((2, 2, 3))):
            with pytest.raises(InvalidInputError):
                secrecy_rate_batch(scenario3x2, g, pmat)
        for m in (1.5, True, "0"):
            with pytest.raises(InvalidInputError):
                sinr_eavesdropper(scenario3x2, g, ok, m)
        assert sinr_eavesdropper(scenario3x2, g, ok, np.int64(1)) == \
            sinr_eavesdropper(scenario3x2, g, ok, 1)
        assert secrecy_rate_batch(scenario3x2, g, ok).shape == (1,)


@given(st.floats(0.01, 50), st.floats(0.01, 50), st.floats(0.001, 10))
@settings(max_examples=60, deadline=None)
def test_rate_nonnegative_and_bounded(hd, he, sig):
    s = Scenario(n_jammers=1, n_eavesdroppers=1, p_source=2.0, p_max=[1.0],
                 sigma2_dest=sig, sigma2_eaves=[sig])
    g = ChannelGains(h_d=hd, h_e=[he], g_d=[0.5], g_e=[[0.5]])
    r = secrecy_rate(s, g, [0.7])
    assert 0.0 <= r <= np.log2(1 + 2.0 * hd / sig) + 1e-12


class TestSampling:
    def test_deterministic_per_seed_and_index(self, scenario3x2):
        a = sample_channels(scenario3x2, seed=9, index=4)
        b = sample_channels(scenario3x2, seed=9, index=4)
        c = sample_channels(scenario3x2, seed=9, index=5)
        d = sample_channels(scenario3x2, seed=10, index=4)
        assert a.h_d == b.h_d and np.array_equal(a.g_e, b.g_e)
        assert a.h_d != c.h_d
        assert a.h_d != d.h_d

    def test_unit_mean_exponential_marginals(self, scenario3x2):
        import scipy.stats
        draws = np.array([sample_channels(scenario3x2, seed=2, index=i).h_d
                          for i in range(4000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.06)
        ks = scipy.stats.kstest(draws, "expon")
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("seed, index", [(1.5, 0), (1, 1.5), (True, 0),
                                             (1, -1)])
    def test_bad_seed_or_index_rejected(self, scenario3x2, seed, index):
        # a float would silently pick another stream and a negative
        # index has no counter
        with pytest.raises(InvalidInputError):
            sample_channels(scenario3x2, seed, index=index)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, -2 ** 64])
    def test_seed_outside_stream_keys_rejected(self, scenario3x2, seed):
        # the stream keys on seed mod 2**64: 2**64 and 2**70 drew seed 0's
        # gains and -1 drew seed 2**64 - 1's
        with pytest.raises(InvalidInputError, match=r"\[0, 2\*\*64\)"):
            sample_channels(scenario3x2, seed, index=0)

    def test_seed_range_ends_accepted(self, scenario3x2):
        first = sample_channels(scenario3x2, 0, index=0)
        last = sample_channels(scenario3x2, 2 ** 64 - 1, index=0)
        assert first.h_d == 0.1011915225580015
        assert last.h_d != first.h_d

    def test_index_past_stream_end_rejected(self, scenario3x2):
        # 12 draws per sample: the last sample whose counters fit in
        # 2**64 draws, then the first that does not
        last = 2 ** 64 // 12 - 1
        g = sample_channels(scenario3x2, seed=0, index=last)
        assert np.isfinite(g.g_e).all()
        with pytest.raises(InvalidInputError):
            sample_channels(scenario3x2, seed=0, index=last + 1)

    def test_gains_are_fresh_across_slots(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=2, index=0)
        flat = np.concatenate([[g.h_d], g.h_e, g.g_d, g.g_e.ravel()])
        assert np.unique(flat).size == flat.size  # no repeated draw


class TestJson:
    def test_scenario_round_trip(self, scenario3x2):
        doc = scenario_to_dict(scenario3x2)
        back = scenario_from_dict(json.loads(json.dumps(doc)))
        assert back == scenario3x2

    def test_gains_round_trip(self):
        g = make_gains(np.random.default_rng(1), 2, 3)
        back = gains_from_dict(json.loads(json.dumps(gains_to_dict(g))))
        assert back == g

    def test_file_round_trip(self, tmp_path, scenario3x2):
        g = make_gains(np.random.default_rng(2), 3, 2)
        path = tmp_path / "doc.json"
        save_scenario(path, scenario3x2, g)
        s2, g2 = load_scenario(path)
        assert s2 == scenario3x2 and g2 == g
        save_scenario(path, scenario3x2)
        s3, g3 = load_scenario(path)
        assert s3 == scenario3x2 and g3 is None

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"n_jammers": 1}}))
        with pytest.raises(InvalidInputError):
            load_scenario(path)
        path.write_text(json.dumps({"channels": {}}))
        with pytest.raises(InvalidInputError):
            load_scenario(path)

    def test_mismatched_channels_rejected(self, tmp_path, scenario3x2):
        path = tmp_path / "doc.json"
        g_bad = make_gains(np.random.default_rng(3), 2, 2)
        save_scenario(path, scenario3x2)
        doc = json.loads(path.read_text())
        doc["channels"] = gains_to_dict(g_bad)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            load_scenario(path)
