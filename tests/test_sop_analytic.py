"""Outage analytics: partial-fraction coefficients, SINR laws, the
integral reductions and the closed forms."""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopjam.sop_analytic as sop_analytic
from coopjam import (DegeneratePowersError, InvalidInputError, Scenario,
                     SopScenario, estimate_sop, perturb_distinct,
                     sop_closed_form, sop_closed_form_n2m1, sop_integral)
from coopjam.numerics import integrate_semi_infinite
from coopjam.sop_analytic import (_compositions, _pdf_dest, basic_integral,
                                  cdf_gamma_d, cdf_gamma_emax, coeff_a,
                                  elementary_integral, expansion_term_count,
                                  min_relative_gap, sop_constants)
from tests.conftest import conditioned_sop_scenario


def sop(n=2, m=1, p=(1.0, 2.5), ps=2.0, rate=0.5, sig_d=0.1, sig_e=None):
    s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=ps,
                 p_max=np.asarray(p, float), sigma2_dest=sig_d,
                 sigma2_eaves=np.full(m, 0.1) if sig_e is None else sig_e)
    return SopScenario(scenario=s, rate=rate)


class TestCoefficients:
    def test_weighted_sum_is_one(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 6):
            p = np.sort(rng.uniform(0.2, 5.0, size=n))
            while n > 1 and np.min(np.diff(p) / p[1:]) < 0.05:
                p = np.sort(rng.uniform(0.2, 5.0, size=n))
            a = coeff_a(p)
            assert a @ p == pytest.approx(1.0, abs=1e-10)

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

    def test_perturb_distinct(self):
        s = Scenario(n_jammers=3, n_eavesdroppers=1, p_source=1.0,
                     p_max=[1.0, 1.0, 2.0], sigma2_dest=0.1,
                     sigma2_eaves=[0.1])
        with pytest.warns(UserWarning):
            s2 = perturb_distinct(s)
        sop_constants(SopScenario(scenario=s2, rate=0.5))  # now accepted
        np.testing.assert_allclose(s2.p_max, s.p_max, rtol=1e-5)

    def test_constants_shapes_and_signs(self):
        sc = sop(n=3, m=2, p=(0.8, 1.7, 2.9))
        k = sop_constants(sc)
        assert k.mu == pytest.approx(2 ** 0.5)
        assert k.nu == pytest.approx(2 ** -0.5 - 1) and k.nu < 0
        assert (k.kappa > 0).all() and (k.lam > 0).all()
        assert len(k.psi_subsets) == 4  # all subsets of 2 eavesdroppers
        assert k.psi_subsets[()] == pytest.approx(k.xi)

    def test_rate_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            sop(rate=0.0)
        with pytest.raises(InvalidInputError):
            sop(rate=-1.0)


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
            assert cdf_gamma_d(x, s) == pytest.approx(
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
            assert cdf_gamma_emax(x, s) == pytest.approx(
                (samples <= x).mean(), abs=0.01)

    def test_cdf_anchors(self):
        s = sop(n=3, m=2, p=(0.5, 1.2, 2.6)).scenario
        assert cdf_gamma_d(0.0, s) == pytest.approx(0.0, abs=1e-12)
        assert cdf_gamma_d(-1.0, s) == 0.0
        assert cdf_gamma_d(1e9, s) == pytest.approx(1.0, abs=1e-6)
        xs = np.linspace(0, 20, 200)
        assert (np.diff(cdf_gamma_d(xs, s)) >= -1e-12).all()
        assert (np.diff(cdf_gamma_emax(xs, s)) >= -1e-12).all()

    @staticmethod
    def pdf_dest(x, s):
        # the density sop_integral integrates, at the scenario's powers
        p, ps = s.p_max, s.p_source
        return _pdf_dest(x, p, ps, s.sigma2_dest, coeff_a(p) * p, ps * p)

    def test_pdf_is_cdf_derivative(self):
        s = sop(n=2, m=1, p=(0.8, 2.2)).scenario
        h = 1e-6
        for x in (0.1, 0.9, 3.0, 8.0):
            num = (cdf_gamma_d(x + h, s) - cdf_gamma_d(x - h, s)) / (2 * h)
            assert self.pdf_dest(x, s) == pytest.approx(num, rel=1e-6)

    def test_pdf_normalised(self):
        s = sop(n=3, m=1, p=(0.5, 1.3, 3.1)).scenario
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
                assert elementary_integral(i, a1, c) == \
                    pytest.approx(want, rel=1e-9)

    def test_elementary_large_argument(self):
        # would overflow if exp(a1*c) and Ei(-a1*c) were separate factors
        val = elementary_integral(1, 50.0, 30.0)
        want = self.quad(lambda x: np.exp(-50 * x) / (x + 30.0))
        assert val == pytest.approx(want, rel=1e-9)

    def test_elementary_validation(self):
        for bad in [(0, 1.0, 1.0), (1, -1.0, 1.0), (1, 1.0, 0.0)]:
            with pytest.raises(InvalidInputError):
                elementary_integral(*bad)

    def test_basic_against_quadrature(self):
        cases = [
            (1, (0, 0), 0.8, 1.1, (2.0, 3.0)),
            (1, (1, 0), 0.5, 0.9, (2.2, 3.3)),
            (2, (1, 2), 0.3, 1.4, (0.6, 2.8)),
            (2, (0, 3), 1.2, 2.0, (0.9, 3.7)),
            (1, (2, 1), 0.7, 0.4, (1.5, 5.0)),
        ]
        for ell, k, a1, a2, a3 in cases:
            def f(x):
                out = np.exp(-a1 * x) / (x + a2) ** ell
                for kt, at in zip(k, a3):
                    out /= (x + at) ** kt
                return out
            want = self.quad(f)
            got = basic_integral(ell, k, a1, a2, np.array(a3))
            assert got == pytest.approx(want, rel=1e-8), (ell, k)

    def test_basic_rejects_colliding_poles(self):
        with pytest.raises(DegeneratePowersError):
            basic_integral(1, (1,), 0.5, 1.0, np.array([1.0]))
        with pytest.raises(DegeneratePowersError):
            basic_integral(1, (1, 1), 0.5, 2.0, np.array([1.0, 1.0]))
        # a zero multiplicity hides its pole, collision allowed
        basic_integral(1, (0, 1), 0.5, 1.0, np.array([1.0, 2.0]))

    def test_compositions(self):
        out = list(_compositions(3, 2))
        assert out == [(0, 3), (1, 2), (2, 1), (3, 0)]
        four = list(_compositions(2, 3))
        assert len(four) == 6 and all(sum(v) == 2 for v in four)

    def test_expansion_term_count(self):
        assert expansion_term_count(2, 1) == 1 + 2
        assert expansion_term_count(1, 1) == 2
        # subsets of 2 eavesdroppers with 3 jammers:
        # 1 + 2*C(3,2) + C(4,2) = 1 + 6 + 6
        assert expansion_term_count(3, 2) == 13


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
            assert got.error_estimate < 1e-9

    def test_special_case_matches_general(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sc = conditioned_sop_scenario(rng, n=2, m=1)
            a = sop_closed_form(sc)
            b = sop_closed_form_n2m1(sc)
            assert b.p_out == pytest.approx(a.p_out, abs=1e-12)

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

    def test_tied_powers_rejected_by_both_closed_routes(self):
        sc = sop(n=2, m=1, p=(1.0, 1.0 + 1e-9))
        for fn in (sop_closed_form, sop_closed_form_n2m1, sop_integral):
            with pytest.raises(DegeneratePowersError):
                fn(sc)

    def test_near_tied_powers_carry_large_error_estimate(self):
        # passes the distinctness gate yet cancels catastrophically;
        # the result must say so rather than look authoritative
        sc = sop(n=3, m=2, p=(1.0, 1.0 + 3e-6, 1.0 + 6e-6))
        res = sop_closed_form(sc)
        assert res.error_estimate > 1.0
        # the rounded A_n put sum_n A_n P_n at 1.97, not 1, and the
        # integral's estimate must cover what that costs
        ref = sop_integral(sc)
        assert 0.0 <= ref.p_out <= 1.0
        mc = estimate_sop(sc, 200_000, 3)
        assert abs(ref.p_out - mc.p_out) <= ref.error_estimate + 5 * mc.std_error

    def test_source_power_matching_jammer_power_collides(self):
        # kappa_n == lam_n exactly when P_n == p_source
        sc = sop(n=2, m=1, p=(2.0, 3.5), ps=2.0, rate=1.0)
        with pytest.raises(DegeneratePowersError):
            sop_closed_form(sc)
        assert 0.0 <= sop_integral(sc).p_out <= 1.0

    def test_resource_guard(self):
        sc = sop(n=2, m=1)
        with pytest.raises(Exception) as exc:
            sop_closed_form(sc, max_terms=1)
        assert "sop_integral" in str(exc.value)


def ladder(n, ps_db, rate):
    """A sop_vs_ps ladder setting: n = m, caps 1 dB and 26% apart."""
    return sop(n=n, m=n, p=10.0 ** 0.1 * 10.0 ** (0.1 * np.arange(n)),
               ps=10.0 ** (ps_db / 10.0), rate=rate)


# float.hex of (p_out, error_estimate) for (sop_closed_form, sop_integral).
# The closed-form halves were recorded with the library as it was before
# Ei was shared within a call and the eavesdropper CDF factors shared
# their jamming sum.  The n4m4 closed form sits on the recorded
# pole-proximity defect (ROADMAP item 3): a fix for it is expected to
# move that value, and should re-record it.  The integral halves were
# recorded when the quadrature became the vectorised Gauss-Kronrod rule
# of numerics.integrate_semi_infinite and error_estimate gained the
# coefficients' lost mass.
PINNED_ROUTES = {
    "n2m1_sweep": (("0x1.29e075c77a76dp-1", "0x1.53591638bca3fp-43"),
                   ("0x1.29e075c77a57ap-1", "0x1.ce2c4f14f13aep-40")),
    "n3m3_unequal_noise": (("0x1.eaa86038d1589p-1", "0x1.325155cb60b75p-40"),
                           ("0x1.eaa86038dbb6cp-1", "0x1.cc5305dc48356p-51")),
    "n4m4_ladder_0db": (("0x1.fd4abe35c9687p-1", "0x1.795e2099611dap-17"),
                        ("0x1.fdee98814730ep-1", "0x1.8763e20492b4cp-44")),
    "n2m3": (("0x1.d0e86d4cc3334p-1", "0x1.d3c2a5bd589f8p-43"),
             ("0x1.d0e86d4cbbbb1p-1", "0x1.ae28adcb9cf78p-40")),
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
PINNED_CDF = ("0x0.0p+0", "0x0.0p+0", "0x1.28b2afab9a786p-4",
              "0x1.bf61e4845fbfep-2", "0x1.971055b72e498p-1",
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
        got = tuple(float(v).hex() for v in cdf_gamma_emax(PINNED_CDF_X, s))
        assert got == PINNED_CDF
        assert float(cdf_gamma_emax(2.5, s)).hex() == PINNED_CDF[4]


def _sop_oracle(sc: SopScenario, dps: int = 30) -> float:
    """Outage probability by mpmath quadrature at ``dps`` digits, with
    the A_n formed in that precision from the scenario's float powers."""
    s = sc.scenario
    with mpmath.workdps(dps):
        p = [mpmath.mpf(v) for v in s.p_max]
        ps, sig_d = mpmath.mpf(s.p_source), mpmath.mpf(s.sigma2_dest)
        sig_e = [mpmath.mpf(v) for v in s.sigma2_eaves]
        mu = mpmath.mpf(2) ** mpmath.mpf(sc.rate)
        nu = 1 / mu - 1
        ap = [1 / mpmath.fprod(1 - pj / pn for j, pj in enumerate(p) if j != n)
              for n, pn in enumerate(p)]

        def integrand(x):
            jam = mpmath.fsum(c / (pn * x + ps) for c, pn in zip(ap, p))
            cdf = mpmath.fprod(1 - ps * mpmath.exp(-se * x / ps) * jam
                               for se in sig_e)
            u = mu * (x - nu)
            pdf = mpmath.exp(-sig_d * u / ps) * mpmath.fsum(
                c * (sig_d / (pn * u + ps) + ps * pn / (pn * u + ps) ** 2)
                for c, pn in zip(ap, p))
            return cdf * pdf

        edges = [0, 1, 10, 100, 1000, 10000, mpmath.inf]
        return float(1 - mu * mpmath.quad(integrand, edges))


ORACLE_SETTINGS = {
    **PINNED_SETTINGS,
    **{f"ladder_n{n}_{db:g}db_rate{rate:g}": functools.partial(ladder, n, db, rate)
       for n in range(1, 5) for db in (0.0, 30.0) for rate in (0.01, 1.0)},
}


class TestIntegralOracle:
    """sop_integral against a 30-digit quadrature of the same integral."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SETTINGS))
    def test_matches_mpmath(self, name):
        sc = ORACLE_SETTINGS[name]()
        res = sop_integral(sc)
        gap = abs(res.p_out - _sop_oracle(sc))
        assert gap <= max(res.error_estimate, 1e-13)
        assert gap <= 1e-12


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
        # n = m = 4 with equal noise: N destination poles for the empty
        # subset plus 2N poles for each of the M nonempty subset sizes
        seen = self.count_calls(monkeypatch, "scaled_exp_integral_ei")
        sc = ladder(4, 15.0, 1.0)
        sop_closed_form(sc)
        assert len(seen) == len(set(seen)) == 36
        # no table outlives a call: the same call pays the same again
        sop_closed_form(sc)
        assert len(seen) == 72 and set(seen[:36]) == set(seen[36:])

    def test_integral_builds_coefficients_once(self, monkeypatch):
        seen = self.count_calls(monkeypatch, "coeff_a")
        sop_integral(ladder(3, 10.0, 1.0))
        assert len(seen) == 1


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
