"""Outage analytics: partial-fraction coefficients, SINR laws, the
integral reductions and the closed forms."""

import functools
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopjam.sop_analytic as sop_analytic
from coopjam import (CoopJamError, DegeneratePowersError, InvalidInputError,
                     NumericalError, ResourceLimitError, Scenario,
                     SopScenario, estimate_sop,
                     sop_closed_form, sop_closed_form_n2m1, sop_integral)
from coopjam.numerics import integrate_semi_infinite
from coopjam.sop_analytic import (_cdf_sinr_max, _pdf_dest, coeff_a,
                                  expansion_term_count, min_relative_gap,
                                  pole_integral)
from tests.conftest import conditioned_sop_scenario


def sop(n=2, m=1, p=(1.0, 2.5), ps=2.0, rate=0.5, sig_d=0.1, sig_e=None):
    s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=ps,
                 p_max=np.asarray(p, float), sigma2_dest=sig_d,
                 sigma2_eaves=np.full(m, 0.1) if sig_e is None else sig_e)
    return SopScenario(scenario=s, rate=rate)


def cdf_dest(x, s):
    """The destination SINR's CDF at the scenario's powers."""
    return _cdf_sinr_max(x, s.p_max, s.p_source, np.array([s.sigma2_dest]))


def cdf_emax(x, s):
    """The CDF of the eavesdroppers' best SINR at the scenario's powers."""
    return _cdf_sinr_max(x, s.p_max, s.p_source, s.sigma2_eaves)


class TestCoefficients:
    def test_weighted_sum_is_one(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 6):
            p = np.sort(rng.uniform(0.2, 5.0, size=n))
            while n > 1 and np.min(np.diff(p) / p[1:]) < 0.05:
                p = np.sort(rng.uniform(0.2, 5.0, size=n))
            a = coeff_a(p)
            assert a @ p == pytest.approx(1.0, abs=1e-10)
        # four powers 1e-4 apart: the A_n reach 1e12, and formed from exact
        # differences their identity still holds to rounding
        p = 1.0 + 1e-4 * np.arange(4)
        assert coeff_a(p) @ p == pytest.approx(1.0, abs=1e-3)

    def test_matches_lagrange_spelling(self):
        # A_n = P_n**(N-2) / prod_{j != n}(P_n - P_j)
        p = np.array([0.7, 1.9, 3.2])
        a = coeff_a(p)
        for n in range(3):
            denom = np.prod([p[n] - p[j] for j in range(3) if j != n])
            assert a[n] == pytest.approx(p[n] ** (3 - 2) / denom, rel=1e-12)

    def test_single_power(self):
        np.testing.assert_allclose(coeff_a([2.0]), [0.5])

    def test_tied_powers_rejected(self):
        with pytest.raises(DegeneratePowersError):
            coeff_a([1.0, 1.0])

    def test_min_relative_gap(self):
        assert min_relative_gap([2.0]) == np.inf
        assert min_relative_gap([1.0, 2.0]) == pytest.approx(0.5)
        assert min_relative_gap([2.0, 1.0, 1.1]) == pytest.approx(0.1 / 1.1)

    def test_rate_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            sop(rate=0.0)
        with pytest.raises(InvalidInputError):
            sop(rate=-1.0)

    @pytest.mark.parametrize("rate", ["1", [1.0], None, True, np.True_,
                                      1 + 0j])
    def test_rate_must_be_a_real_number(self, rate):
        # a string or a list used to raise a bare TypeError, and True
        # passed as rate 1
        with pytest.raises(InvalidInputError, match="real number"):
            sop(rate=rate)

    @pytest.mark.parametrize("scenario", [None, {"n_jammers": 2}, "s"])
    def test_scenario_must_be_a_scenario(self, scenario):
        # None used to be accepted, and sop_integral then raised an
        # AttributeError
        with pytest.raises(InvalidInputError, match="Scenario"):
            SopScenario(scenario=scenario, rate=0.5)

    def test_real_number_types_accepted(self):
        for rate in (1, np.float32(0.5), np.int64(2), np.float64(0.25)):
            assert sop(rate=rate).rate == rate

    def test_rate_must_keep_two_to_the_rate_finite(self):
        # 2.0 ** 1024 overflows; every route forms 2**rate
        for rate in (1024.0, 2000.0, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                sop(rate=rate)
        # just below the limit all three routes run and agree on outage
        sc = sop(n=3, m=2, p=(1.0, 1.0, 3.0), rate=1023.9)
        assert sop_integral(sc).p_out == 1.0
        assert estimate_sop(sc, 1000, 0).p_out == 1.0
        with pytest.raises(NumericalError):
            sop_closed_form(sc)


class TestSinrLaws:
    def empirical(self, draw, n_samples=200_000, seed=1):
        rng = np.random.default_rng(seed)
        return draw(rng, n_samples)

    def test_destination_cdf_against_sampling(self):
        sc = sop(n=3, m=1, p=(0.6, 1.4, 2.8), ps=2.0, sig_d=0.15)
        s = sc.scenario

        def draw(rng, n):
            h = rng.exponential(size=n)
            g = rng.exponential(size=(n, 3))
            return s.p_source * h / (g @ s.p_max + s.sigma2_dest)

        samples = self.empirical(draw)
        for x in (0.2, 0.7, 1.5, 4.0, 10.0):
            assert cdf_dest(x, s) == pytest.approx(
                (samples <= x).mean(), abs=0.01)

    def test_eavesdropper_max_cdf_against_sampling(self):
        sc = sop(n=2, m=3, p=(0.9, 2.1), ps=1.5,
                 sig_e=np.array([0.1, 0.2, 0.05]))
        s = sc.scenario

        def draw(rng, n):
            h = rng.exponential(size=(n, 3))
            g = rng.exponential(size=(n, 3, 2))
            sinr = s.p_source * h / (g @ s.p_max + s.sigma2_eaves)
            return sinr.max(axis=1)

        samples = self.empirical(draw)
        for x in (0.3, 1.0, 2.5, 6.0):
            assert cdf_emax(x, s) == pytest.approx(
                (samples <= x).mean(), abs=0.01)

    def test_cdf_anchors(self):
        s = sop(n=3, m=2, p=(0.5, 1.2, 2.6)).scenario
        assert cdf_dest(0.0, s) == pytest.approx(0.0, abs=1e-12)
        assert cdf_dest(-1.0, s) == 0.0
        assert cdf_dest(1e9, s) == pytest.approx(1.0, abs=1e-6)
        # a negative x is 0 without forming the laws there: with
        # p_source 2 and a 1 W jammer, P x + p_source is 0 at x = -2
        one = sop(n=1, m=1, p=(1.0,), ps=2.0).scenario
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf_dest(-2.0, one) == 0.0
            assert cdf_emax(np.array([-2.0, -1e5]), one).tolist() == [0, 0]
        xs = np.linspace(0, 20, 200)
        assert (np.diff(cdf_dest(xs, s)) >= -1e-12).all()
        assert (np.diff(cdf_emax(xs, s)) >= -1e-12).all()

    @staticmethod
    def pdf_dest(x, s):
        # the density sop_integral integrates, at the scenario's powers
        return _pdf_dest(x, s.p_max, s.p_source, s.sigma2_dest)

    def test_pdf_is_cdf_derivative(self):
        s = sop(n=2, m=1, p=(0.8, 2.2)).scenario
        h = 1e-6
        for x in (0.1, 0.9, 3.0, 8.0):
            num = (cdf_dest(x + h, s) - cdf_dest(x - h, s)) / (2 * h)
            assert self.pdf_dest(x, s) == pytest.approx(num, rel=1e-6)

    def test_pdf_normalised(self):
        # tied powers too: the product form needs no partial fractions
        for p in ((0.5, 1.3, 3.1), (0.7, 0.7, 0.7, 2.0)):
            s = sop(n=len(p), m=1, p=p).scenario
            quad = integrate_semi_infinite(lambda x: self.pdf_dest(x, s), 0.0,
                                           rel_tol=1e-11)
            assert quad.value == pytest.approx(1.0, abs=1e-9)


class TestIntegralReductions:
    def quad(self, f):
        return integrate_semi_infinite(f, 0.0, rel_tol=1e-12).value

    def test_elementary_against_quadrature(self):
        rng = np.random.default_rng(3)
        for i in (1, 2, 3, 4):
            for _ in range(4):
                a1 = float(rng.uniform(0.05, 3.0))
                c = float(rng.uniform(0.1, 4.0))
                want = self.quad(lambda x: np.exp(-a1 * x) / (x + c) ** i)
                assert pole_integral(a1, (c,), (i,)) == \
                    pytest.approx(want, rel=1e-9)

    def test_elementary_large_argument(self):
        # would overflow if exp(a1*c) and Ei(-a1*c) were separate factors
        val = pole_integral(50.0, (30.0,), (1,))
        want = self.quad(lambda x: np.exp(-50 * x) / (x + 30.0))
        assert val == pytest.approx(want, rel=1e-9)

    # (a1, poles, multiplicities)
    POLE_CASES = [
        (0.8, (1.1, 2.0, 3.0), (1, 0, 0)),
        (0.5, (0.9, 2.2, 3.3), (1, 1, 0)),
        (0.3, (1.4, 0.6, 2.8), (2, 1, 2)),
        (1.2, (2.0, 0.9, 3.7), (2, 0, 3)),
        (0.7, (0.4, 1.5, 5.0), (1, 2, 1)),
        # bit-equal poles merge: (x + 1.3)**-3 (x + 2.4)**-1
        (0.6, (1.3, 2.4, 1.3), (1, 1, 2)),
    ]

    def test_basic_against_quadrature(self):
        for a1, poles, mults in self.POLE_CASES:
            def f(x):
                out = np.exp(-a1 * x)
                for p, m in zip(poles, mults):
                    out /= (x + p) ** m
                return out
            want = self.quad(f)
            got = pole_integral(a1, poles, mults)
            assert got == pytest.approx(want, rel=1e-8), (poles, mults)

    def test_basic_rejects_colliding_poles(self):
        # distinct but close poles raise; bit-equal ones merge
        with pytest.raises(DegeneratePowersError, match="sop_integral"):
            pole_integral(0.5, (1.0, 1.0 + 1e-9), (1, 1))
        with pytest.raises(DegeneratePowersError):
            pole_integral(0.5, (2.0, 1.0, 1.0 + 1e-8), (1, 1, 1))
        assert pole_integral(0.5, (1.0, 1.0), (1, 1)) == \
            pole_integral(0.5, (1.0,), (2,))
        # with every pole absent the integrand is exp(-a1 x)
        assert pole_integral(0.5, (1.0, 2.0), (0, 0)) == 2.0
        assert pole_integral(0.5, (), ()) == 2.0
        # a zero multiplicity hides its pole, collision allowed
        pole_integral(0.5, (1.0, 1.0 + 1e-9, 2.0), (1, 0, 1))
        for bad in [(0.5, (1.0,), (-1,)), (0.5, (1.0, 2.0), (1,)),
                    (0.5, (1.0,), (1.5,)), (0.0, (1.0,), (1,)),
                    (0.5, (-1.0, 2.0), (1, 1)), (0.0, (1.0,), (0,)),
                    (-1.0, (1.0,), (1,)), (1.0, (0.0,), (1,))]:
            with pytest.raises(InvalidInputError):
                pole_integral(*bad)

    def test_expansion_term_count(self):
        # N + 1 pole integrals per group of eavesdropper subsets, at most
        # 2**M groups
        assert expansion_term_count(2, 1) == 3 * 2
        assert expansion_term_count(1, 1) == 2 * 2
        assert expansion_term_count(3, 2) == 4 * 4


class TestOutageRoutes:
    def test_closed_matches_integral(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            sc = conditioned_sop_scenario(rng, n=int(rng.integers(1, 4)),
                                          m=int(rng.integers(1, 4)))
            ref = sop_integral(sc)
            got = sop_closed_form(sc)
            assert got.p_out == pytest.approx(ref.p_out, abs=1e-9)
            assert 0.0 <= got.p_out <= 1.0
            # each route's estimate bounds its share of the gap
            assert abs(got.p_out - ref.p_out) <= \
                got.error_estimate + ref.error_estimate
            assert got.error_estimate < 1e-7

    def test_special_case_matches_general(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sc = conditioned_sop_scenario(rng, n=2, m=1)
            a = sop_closed_form(sc)
            b = sop_closed_form_n2m1(sc)
            assert b.p_out == pytest.approx(a.p_out, abs=1e-12)

    def test_overflow_raises_rather_than_reading_zero(self):
        # at large rates the addends overflow to NaN, which the [0, 1]
        # clip used to turn into p_out 0 while the other routes give 1
        for rate in (400.0, 600.0, 800.0, 1000.0):
            sc = sop(n=3, m=2, p=(1.0, 1.0, 3.0), rate=rate)
            with pytest.raises(NumericalError, match="sop_integral"):
                sop_closed_form(sc)
            assert sop_integral(sc).p_out == 1.0
        # noise above the source power: xi = sig_d 2**rate / ps, and so
        # the exponential-integral arguments, overflow to inf
        sc = sop(p=(1.0, 2.5), ps=0.05, rate=1023.0)
        with pytest.raises(NumericalError, match="sop_integral"):
            sop_closed_form(sc)

    @pytest.mark.parametrize("scale, sig", [(1e120, 1e-200), (1.0, 1e-320)])
    def test_subnormal_ei_argument_raises(self, scale, sig):
        # every input is a normal float, but noise / p_source is
        # subnormal, so the exponential-integral arguments keep a few
        # bits and the partial fractions used to give p_out 1.0
        sc = sop(p=(0.8 * scale, 2.1 * scale), ps=2.0 * scale, rate=1.0,
                 sig_d=sig, sig_e=np.array([sig]))
        with pytest.raises(NumericalError, match="underflow.*sop_integral"):
            sop_closed_form(sc)
        # Monte Carlo refuses noise this small; the closed form at
        # noise 1e-300, whose arguments are normal, is the oracle
        near = sop_closed_form(sop(p=(0.8, 2.1), ps=2.0, rate=1.0,
                                   sig_d=1e-300, sig_e=np.array([1e-300])))
        ref = sop_integral(sc)
        assert abs(ref.p_out - near.p_out) <= 1e-9
        assert ref.p_out == pytest.approx(0.83385124597, abs=1e-9)

    def test_special_case_shape_guard(self):
        with pytest.raises(InvalidInputError):
            sop_closed_form_n2m1(sop(n=3, m=1, p=(1.0, 2.0, 3.0)))

    def test_outage_increases_with_rate_target(self):
        rng = np.random.default_rng(7)
        sc0 = conditioned_sop_scenario(rng, n=2, m=2, rate=0.3)
        prev = 0.0
        for rate in (0.3, 0.8, 1.5, 2.5):
            sc = SopScenario(scenario=sc0.scenario, rate=rate)
            cur = sop_integral(sc).p_out
            assert cur >= prev - 1e-12
            prev = cur

    @pytest.mark.parametrize("p,m", [((1.0, 1.0, 3.0), 2), ((1.0, 1.0), 2)],
                             ids=["default_1_1_3", "two_at_1"])
    def test_exactly_tied_powers_merge(self, p, m):
        # bit-equal powers give bit-equal poles of summed multiplicity
        sc = sop(n=len(p), m=m, p=p, ps=2.0, rate=0.5)
        got, ref = sop_closed_form(sc), sop_integral(sc)
        gap = abs(got.p_out - ref.p_out)
        assert gap <= got.error_estimate + ref.error_estimate
        assert gap <= 1e-9

    def test_tied_powers_rejected_by_both_closed_routes(self):
        # a near tie, unlike an exact one, is rejected
        sc = sop(n=2, m=1, p=(1.0, 1.0 + 1e-9))
        for fn in (sop_closed_form, sop_closed_form_n2m1):
            with pytest.raises(DegeneratePowersError):
                fn(sc)
        # the quadrature route takes the near tie and lands on the tie
        tied = sop_integral(sop(n=2, m=1, p=(1.0, 1.0))).p_out
        assert sop_integral(sc).p_out == pytest.approx(tied, abs=1e-8)

    def test_near_tied_powers_carry_large_error_estimate(self):
        # passes the distinctness gate yet cancels catastrophically;
        # the result must say so rather than look authoritative
        sc = sop(n=3, m=2, p=(1.0, 1.0 + 3e-6, 1.0 + 6e-6))
        res = sop_closed_form(sc)
        assert res.error_estimate > 1.0
        # the product-form integral is unaffected by the near tie
        ref = sop_integral(sc)
        assert 0.0 <= ref.p_out <= 1.0
        mc = estimate_sop(sc, 200_000, 3)
        assert abs(ref.p_out - mc.p_out) <= ref.error_estimate + 5 * mc.std_error

    def test_source_power_matching_jammer_power_collides(self):
        # kappa_n == lam_n == 1 exactly when P_n == p_source; the two
        # poles merge
        for m in (1, 3):
            sc = sop(n=2, m=m, p=(2.0, 3.5), ps=2.0, rate=1.0)
            got, ref = sop_closed_form(sc), sop_integral(sc)
            gap = abs(got.p_out - ref.p_out)
            assert gap <= got.error_estimate + ref.error_estimate
            assert gap <= 1e-9

    def test_resource_guard(self):
        # (N + 1) 2**M = 262,144 pole integrals, past the 200,000 cap
        sc = sop(n=1, m=17, p=(1.0,))
        assert expansion_term_count(1, 17) > sop_analytic.MAX_CLOSED_FORM_TERMS
        with pytest.raises(ResourceLimitError) as exc:
            sop_closed_form(sc)
        assert "sop_integral" in str(exc.value)

    @pytest.mark.parametrize("route, kw", [
        (sop_integral, dict(n=3, m=2, p=(1.0, 1.0, 3.0), rate=1023.9)),
        (sop_closed_form, dict(p=(0.8, 2.1), ps=1e300)),
        (sop_closed_form, dict(p=(0.8, 2.1), ps=1e-300)),
    ])
    def test_extreme_inputs_warn_nothing(self, route, kw):
        # the overflow, or the division by an underflowed pole gap, used
        # to surface as a RuntimeWarning before the result or the error
        sc = sop(**kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if route is sop_integral:
                assert route(sc).p_out == 1.0
            else:
                with pytest.raises(NumericalError, match="sop_integral"):
                    route(sc)


class TestTiedPowers:
    """The integral route at exactly equal jammer powers, where the
    partial-fraction coefficients do not exist."""

    @pytest.mark.parametrize("p,m", [((1.0, 1.0, 3.0), 2), ((1.5,) * 4, 2)],
                             ids=["default_1_1_3", "four_at_1.5"])
    def test_matches_monte_carlo(self, p, m):
        sc = sop(n=len(p), m=m, p=p, ps=2.0, rate=0.5)
        ref = sop_integral(sc).p_out
        mc = estimate_sop(sc, 10_000_000, 0)
        assert abs(mc.p_out - ref) <= 3 * mc.std_error

    @pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_continuous_across_the_tie(self, delta):
        tied = sop_integral(sop(n=2, m=2, p=(1.0, 1.0))).p_out
        near = sop_integral(sop(n=2, m=2, p=(1.0, 1.0 + delta))).p_out
        assert abs(near - tied) <= 10 * delta


def ladder(n, ps_db, rate):
    """A sop_vs_ps ladder setting: n = m, caps 1 dB and 26% apart."""
    return sop(n=n, m=n, p=10.0 ** 0.1 * 10.0 ** (0.1 * np.arange(n)),
               ps=10.0 ** (ps_db / 10.0), rate=rate)


# float.hex of (p_out, error_estimate) for (sop_closed_form, sop_integral).
# The closed-form halves were recorded when the closed form became one
# partial-fraction kernel over the merged poles of the product form, after
# TestIntegralOracle::test_closed_form_within_its_estimate passed on it,
# and the n3m3 and n4m4 ones again when that kernel came to run on
# arrays, whose sums and powers round differently, after the same test
# passed on it.
# The n4m4 closed form sits on the pole-proximity loss (ROADMAP item 4),
# which its error_estimate now covers: a fix for that loss is expected to
# move it, and should re-record it.  PINNED_CDF below was recorded when
# the SINR laws took the product form over the jamming sum's Laplace
# transform (no partial fractions), after TestIntegralOracle passed
# unchanged on it.  The integral halves were recorded again when
# sop_integral came to integrate in the integrand's own unit of SINR,
# after TestIntegralOracle, TestEstimateHonesty and TestIntegralUnit
# passed on it: p_out moved by at most 1.1e-16, the error estimates
# by more, since the quadrature now stops after fewer rounds.
PINNED_ROUTES = {
    "n2m1_sweep": (("0x1.29e075c77ab79p-1", "0x1.4626efe9d24e9p-36"),
                   ("0x1.29e075c77a578p-1", "0x1.cbf6ea3a155bdp-40")),
    "n3m3_unequal_noise": (("0x1.eaa86038e01a0p-1", "0x1.5114624401fbbp-29"),
                           ("0x1.eaa86038dbb6cp-1", "0x1.d17b272212a08p-39")),
    "n4m4_ladder_0db": (("0x1.fe041b13834d3p-1", "0x1.69a93877585d1p-1"),
                        ("0x1.fdee988147344p-1", "0x1.cd13e19c66a05p-45")),
    "n2m3": (("0x1.d0e86d4cb7d33p-1", "0x1.366890dab9eefp-30"),
             ("0x1.d0e86d4cbbbb1p-1", "0x1.961cf4bb4ddd6p-44")),
}

PINNED_SETTINGS = {
    "n2m1_sweep": lambda: sop(p=(1.0, 10.0 ** 0.2), ps=10.0 ** 1.5),
    "n3m3_unequal_noise": lambda: sop(n=3, m=3, p=(0.7, 1.3, 2.9), rate=1.0,
                                      sig_e=np.array([0.1, 0.2, 0.3])),
    "n4m4_ladder_0db": lambda: ladder(4, 0.0, 1.0),
    "n2m3": lambda: sop(n=2, m=3, p=(0.9, 2.1), ps=1.5, rate=0.7,
                        sig_e=np.array([0.1, 0.2, 0.05])),
}

PINNED_CDF_X = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, 6.0])
PINNED_CDF = ("0x0.0p+0", "0x0.0p+0", "0x1.28b2afab9a78fp-4",
              "0x1.bf61e4845fc00p-2", "0x1.971055b72e499p-1",
              "0x1.e9613b1070d9fp-1")


class TestPinnedBits:
    """Work-saving rewrites of the outage routes must not move a bit."""

    @pytest.mark.parametrize("name", sorted(PINNED_ROUTES))
    def test_routes(self, name):
        sc = PINNED_SETTINGS[name]()
        got = tuple((r.p_out.hex(), float(r.error_estimate).hex())
                    for r in (sop_closed_form(sc), sop_integral(sc)))
        assert got == PINNED_ROUTES[name]

    def test_cdf_gamma_emax(self):
        s = PINNED_SETTINGS["n2m3"]().scenario
        got = tuple(float(v).hex() for v in cdf_emax(PINNED_CDF_X, s))
        assert got == PINNED_CDF
        assert float(cdf_emax(2.5, s)).hex() == PINNED_CDF[4]


def _sop_oracle(sc: SopScenario, dps: int = 30) -> float:
    """Outage probability by mpmath quadrature at ``dps`` digits of the
    product form sop_integral integrates, with the Laplace transform
    L(x) = prod_n p_s / (P_n x + p_s) of the jamming sum, so tied powers
    and P_n == p_source need nothing special."""
    s = sc.scenario
    with mpmath.workdps(dps):
        p = [mpmath.mpf(v) for v in s.p_max]
        ps, sig_d = mpmath.mpf(s.p_source), mpmath.mpf(s.sigma2_dest)
        sig_e = [mpmath.mpf(v) for v in s.sigma2_eaves]
        mu = mpmath.mpf(2) ** mpmath.mpf(sc.rate)
        nu = 1 / mu - 1

        def lap(x):
            return mpmath.fprod(ps / (pn * x + ps) for pn in p)

        def integrand(x):
            cdf = mpmath.fprod(1 - mpmath.exp(-se * x / ps) * lap(x)
                               for se in sig_e)
            u = mu * (x - nu)
            pdf = mpmath.exp(-sig_d * u / ps) * lap(u) * (
                sig_d / ps + mpmath.fsum(pn / (pn * u + ps) for pn in p))
            return cdf * pdf

        edges = [0, 1, 10, 100, 1000, 10000, mpmath.inf]
        return float(1 - mu * mpmath.quad(integrand, edges))


ORACLE_SETTINGS = {
    **PINNED_SETTINGS,
    **{f"ladder_n{n}_{db:g}db_rate{rate:g}": functools.partial(ladder, n, db, rate)
       for n in range(1, 5) for db in (0.0, 30.0) for rate in (0.01, 1.0)},
    # merged poles: two tied jammers; four tied jammers, whose
    # multiplicity-8 and -5 poles 7% apart cancel to nothing and which
    # the estimate must flag; kappa_1 == lam_1 == 1 at P_1 == p_source
    "tied_1_1_3": lambda: sop(n=3, m=2, p=(1.0, 1.0, 3.0), ps=2.0, rate=0.5),
    "four_at_1.5": lambda: sop(n=4, m=2, p=(1.5,) * 4, ps=2.0, rate=0.5),
    "jammer_at_source_power": lambda: sop(n=2, m=3, p=(2.0, 3.5), ps=2.0,
                                          rate=1.0),
}


@functools.cache
def _oracle_by_name(name: str) -> float:
    return _sop_oracle(ORACLE_SETTINGS[name]())


class TestIntegralOracle:
    """Both analytic routes against a 30-digit quadrature of the same
    integral."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_matches_mpmath(self, name):
        sc = ORACLE_SETTINGS[name]()
        res = sop_integral(sc)
        gap = abs(res.p_out - _oracle_by_name(name))
        assert gap <= max(res.error_estimate, 1e-13)
        assert gap <= 1e-12

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_closed_form_within_its_estimate(self, name):
        # the ladder's low-rate points put destination poles next to
        # eavesdropper poles; error_estimate must cover that cancellation
        sc = ORACLE_SETTINGS[name]()
        closed, quad = sop_closed_form(sc), sop_integral(sc)
        assert abs(closed.p_out - _oracle_by_name(name)) <= closed.error_estimate
        assert abs(closed.p_out - quad.p_out) <= \
            closed.error_estimate + quad.error_estimate


def _random_outage_setting(rng):
    """N <= 4 jammers, M <= 3 eavesdroppers, source 0.3 to 100 W and
    rates 0.01 to 3, with exact ties among the jammer powers in about
    30% of settings and a jammer at the source power in about 20%."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    ps = float(10.0 ** rng.uniform(-0.5, 2.0))
    p = 10.0 ** rng.uniform(-0.7, 0.6, n)
    if n > 1 and rng.random() < 0.3:
        p[1:int(rng.integers(2, n + 1))] = p[0]
    if rng.random() < 0.2:
        p[int(rng.integers(n))] = ps
    return sop(n=n, m=m, p=p, ps=ps,
               rate=float(10.0 ** rng.uniform(-2.0, np.log10(3.0))),
               sig_d=float(rng.choice([0.05, 0.1, 0.3])),
               sig_e=rng.choice([0.05, 0.1, 0.3], m))


class TestEstimateHonesty:
    def test_closed_gap_within_estimates(self):
        # re-checks _CLOSED_FORM_ROUNDING: wherever the closed form and
        # the quadrature part, their estimates together cover the gap
        rng = np.random.default_rng(1515)
        ties = at_source = 0
        for _ in range(240):
            sc = _random_outage_setting(rng)
            p, ps = sc.scenario.p_max, sc.scenario.p_source
            ties += np.unique(p).size < p.size
            at_source += bool((p == ps).any())
            closed, quad = sop_closed_form(sc), sop_integral(sc)
            assert abs(closed.p_out - quad.p_out) <= \
                closed.error_estimate + quad.error_estimate, sc
        assert ties >= 40 and at_source >= 30

    def test_integral_gap_within_its_estimate(self):
        # the quadrature's own estimate against a 30-digit quadrature of
        # the same integral, beyond the fixed ORACLE_SETTINGS
        rng = np.random.default_rng(7)
        for _ in range(40):
            sc = _random_outage_setting(rng)
            res = sop_integral(sc)
            gap = abs(res.p_out - _sop_oracle(sc))
            assert gap <= max(res.error_estimate, 1e-13), sc
            assert gap <= 1e-12, sc


# two jammers at 0.8 and 2.1 W against one eavesdropper, noise 0.1 and
# rate 1: at high source power the outage tends to the jamming-limited
# value, which the closed form gives at 1e12 W
HIGH_SNR_POWERS = (0.8, 2.1)


class TestIntegralUnit:
    """sop_integral integrates in the integrand's own unit of SINR, so
    no input scale leaves the mass where the quadrature never looks."""

    @pytest.mark.parametrize("ps", [1e8, 1e12, 1e100, 1e300])
    def test_high_source_power(self, ps):
        # the closed form overflows from about 1e77 W here; at 1e12 W it
        # is within 1e-12 of the high-SNR limit, while at 1e8 W the
        # outage is still 8e-9 above it
        ref = sop_closed_form(sop(p=HIGH_SNR_POWERS, ps=min(ps, 1e12),
                                  rate=1.0))
        assert ref.error_estimate < 1e-10
        got = sop_integral(sop(p=HIGH_SNR_POWERS, ps=ps, rate=1.0))
        assert abs(got.p_out - ref.p_out) <= 1e-9

    def test_extreme_inputs(self):
        # every input scale a Scenario accepts gives a probability or a
        # library error, and no warning on the way
        negligible_jamming = 0
        for ps, sig, rate, k in itertools.product(
                (1e-300, 1e-10, 1.0, 1e10, 1e300),
                (1e-320, 1e-300, 1e-10, 1.0, 1e10, 1e300),
                (0.01, 1.0, 100.0, 1023.0), (1e-300, 1.0, 1e300)):
            sc = sop(p=(0.8 * k, 2.1 * k), ps=ps, rate=rate, sig_d=sig,
                     sig_e=np.array([sig]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = sop_integral(sc)
                except CoopJamError:
                    continue
            assert 0.0 <= res.p_out <= 1.0, sc
            assert math.isfinite(res.error_estimate), sc
            if k == 1e-300 and sig >= 1e-10 and ps >= 1e10 * sig:
                # jamming 1e-290 of the noise or less and SNR >= 100 dB:
                # outage is Pr[h_d < mu h_e] = mu / (1 + mu)
                negligible_jamming += 1
                mu = 2.0 ** rate
                assert abs(res.p_out - mu / (1.0 + mu)) <= 1e-8, sc
        assert negligible_jamming == 24

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-9, 9))
    @settings(max_examples=30, deadline=None)
    def test_joint_scale_invariance(self, seed, k):
        # scaling every power and noise variance by one factor leaves
        # every SINR, and so the outage, unchanged
        sc = _random_outage_setting(np.random.default_rng(seed))
        s, c = sc.scenario, 10.0 ** k
        scaled = sop(n=s.n_jammers, m=s.n_eavesdroppers, p=s.p_max * c,
                     ps=s.p_source * c, rate=sc.rate,
                     sig_d=s.sigma2_dest * c, sig_e=s.sigma2_eaves * c)
        assert abs(sop_integral(scaled).p_out - sop_integral(sc).p_out) \
            <= 1e-12


class TestWorkCounts:
    def count_calls(self, monkeypatch, name):
        seen = []
        real = getattr(sop_analytic, name)

        def counted(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(sop_analytic, name, counted)
        return seen

    def test_one_ei_per_distinct_argument(self, monkeypatch):
        # n = m = 4 with equal noise: N destination poles kappa_n for the
        # empty subset plus those and the N eavesdropper poles lam_n for
        # each of the M nonempty subset sizes, 36 distinct arguments in
        # one array
        seen = self.count_calls(monkeypatch, "scaled_exp_integral_ei")
        sc = ladder(4, 15.0, 1.0)
        sop_closed_form(sc)
        assert len(seen) == 1
        args = seen[0][0].tolist()
        assert len(args) == len(set(args)) == 36
        # nothing outlives a call: the same call pays the same again
        sop_closed_form(sc)
        assert len(seen) == 2 and seen[1][0].tolist() == args

    def test_integral_builds_coefficients_once(self, monkeypatch):
        # neither route built on the product form needs the A_n
        seen = self.count_calls(monkeypatch, "coeff_a")
        sop_integral(ladder(3, 10.0, 1.0))
        sop_closed_form(ladder(3, 10.0, 1.0))
        assert len(seen) == 0

    def test_integral_evaluations(self, monkeypatch):
        # integrand evaluations are deterministic, so this guards the
        # quadrature's work without timing it; 1560 is this route's
        # count, and integrating the same settings in units of x = 1
        # takes 2340
        evaluations = []
        real = sop_analytic.integrate_semi_infinite

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(sop_analytic, "integrate_semi_infinite", counted)
        for setting in PINNED_SETTINGS.values():
            sop_integral(setting())
        for ps_db in (0.0, 30.0):
            for rate in (0.01, 1.0):
                sop_integral(ladder(4, ps_db, rate))
        assert len(evaluations) == 8
        assert sum(evaluations) <= 1560


powers = st.tuples(st.floats(0.3, 3.0),
                   st.lists(st.floats(1.2, 2.0), min_size=0, max_size=2))


class TestOutageInvariants:
    @given(p=powers, m=st.integers(1, 3), ps=st.floats(0.5, 30.0),
           rate=st.floats(0.05, 3.0), step=st.floats(0.01, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_integral_nondecreasing_in_rate(self, p, m, ps, rate, step):
        # jammer powers at least 20% apart keep the route well conditioned
        caps = np.cumprod([p[0], *p[1]])
        low = sop(n=caps.size, m=m, p=caps, ps=ps, rate=rate)
        high = SopScenario(scenario=low.scenario, rate=rate + step)
        assert sop_integral(high).p_out >= sop_integral(low).p_out - 1e-9


def _partial_fraction_laws(x, s):
    """cdf_dest, cdf_emax and _pdf_dest spelt with the
    hypoexponential coefficients, L(x) = sum_n A_n P_n ps / (P_n x + ps),
    each with a bound on this spelling's own rounding: the sums cancel
    terms as large as |A_n P_n|, which reach ~200 for four powers 20%
    apart."""
    p, ps = s.p_max, s.p_source
    ap = coeff_a(p) * p
    denom = p * x + ps
    unit = 10 * p.size * np.finfo(float).eps
    lap_terms = ps * ap / denom
    lap, lap_err = np.sum(lap_terms), unit * np.sum(np.abs(lap_terms))
    cdf_d = 1.0 - np.exp(-s.sigma2_dest * x / ps) * lap
    cdf_e = np.prod(1.0 - np.exp(-s.sigma2_eaves * x / ps) * lap)
    pdf_terms = ap * (s.sigma2_dest / denom + ps * p / denom ** 2)
    pdf = np.exp(-s.sigma2_dest * x / ps) * np.sum(pdf_terms)
    return ((cdf_d, lap_err), (cdf_e, s.n_eavesdroppers * lap_err),
            (pdf, unit * np.sum(np.abs(pdf_terms))))


class TestProductLaws:
    @given(p=st.tuples(st.floats(0.3, 3.0),
                       st.lists(st.floats(1.2, 2.0), max_size=3)),
           m=st.integers(1, 3), ps=st.floats(0.5, 30.0),
           sig=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           x=st.floats(0.0, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_match_partial_fractions(self, p, m, ps, sig, x):
        # jammer powers at least 20% apart keep the A_n well conditioned;
        # the product forms agree to 1e-13 beyond the partial-fraction
        # spelling's own rounding
        caps = np.cumprod([p[0], *p[1]])
        s = sop(n=caps.size, m=m, p=caps, ps=ps, sig_d=sig[0],
                sig_e=np.array(sig[1:m + 1])).scenario
        got = (cdf_dest(x, s), cdf_emax(x, s),
               _pdf_dest(x, s.p_max, ps, s.sigma2_dest))
        for value, (want, rounding) in zip(got, _partial_fraction_laws(x, s)):
            assert value == pytest.approx(want, abs=1e-13 + rounding)
