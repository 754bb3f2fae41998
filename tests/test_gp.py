"""Posynomial algebra, AM-GM condensation, the array-built SCA program
and the primal-dual GP solver."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam import (ChannelGains, Scenario, algorithm_a, gp,
                     sample_channels)
from coopjam.errors import (AccuracyError, DomainError, InvalidInputError,
                            NumericalError)
from coopjam.gp import (GpProblem, Monomial, Posynomial,
                        _condense_denominator_logs, _ProgramLayout,
                        _ratio_factors, build_approx_program, condense,
                        gp_solve)
from coopjam.model import sinr_destination, sinr_eavesdropper
from tests.conftest import feasible_draws


def poly(*terms):
    return Posynomial(terms=tuple(
        Monomial(coeff=c, exponents=np.asarray(e, float)) for c, e in terms))


def condensed(s, g, p_hat):
    """Every SINR ratio with its denominators condensed at ``p_hat``, as
    a function of the positive point p."""
    layout = _ProgramLayout(s, g)
    log_den, e_den = _condense_denominator_logs(layout.log_ce, np.log(p_hat))

    def at(p):
        q = np.append(p, 1.0)
        return ((layout.a @ q) * (layout.b @ q)
                / np.exp(log_den + e_den @ np.log(p)))
    return at


def constraint_values(prob, x):
    """Each constraint posynomial of ``prob`` at the positive point ``x``."""
    terms = np.exp(prob.log_coeffs + prob.exponents @ np.log(x))
    return np.add.reduceat(terms, np.cumsum(prob.sizes) - prob.sizes)


def capacity_ratio(s, g, p, m):
    return ((1 + sinr_eavesdropper(s, g, p, m))
            / (1 + sinr_destination(s, g, p)))


class TestAlgebra:
    def test_monomial_evaluate(self):
        m = Monomial(coeff=3.0, exponents=np.array([2.0, -1.0]))
        assert m.evaluate([2.0, 4.0]) == pytest.approx(3.0 * 4.0 / 4.0)

    def test_monomial_rejects_bad_coeff(self):
        for c in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidInputError):
                Monomial(coeff=c, exponents=np.array([1.0]))

    def test_posynomial_evaluate_is_sum(self):
        g = poly((1.0, [1, 0]), (2.0, [0, 1]), (0.5, [-1, 2]))
        x = np.array([3.0, 5.0])
        want = 3.0 + 2 * 5.0 + 0.5 * 25.0 / 3.0
        assert g.evaluate(x) == pytest.approx(want, rel=1e-14)

    def test_posynomial_rejects_empty_and_mixed(self):
        with pytest.raises(InvalidInputError):
            Posynomial(terms=())
        with pytest.raises(InvalidInputError):
            poly((1.0, [1.0]), (1.0, [1.0, 2.0]))

    def test_domain_guard(self):
        g = poly((1.0, [1.0]))
        with pytest.raises(DomainError):
            g.evaluate([0.0])
        with pytest.raises(DomainError):
            g.evaluate([-1.0])


class TestRatioParts:
    def test_term_count_all_positive_gains(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=1)
        n, m = scenario3x2.n_jammers, scenario3x2.n_eavesdroppers
        a, b, c, e = _ratio_factors(scenario3x2, g)
        assert a.shape == e.shape == (m, n + 1)
        assert b.shape == c.shape == (n + 1,)
        for rows in (a, b, c, e):
            assert (rows > 0).all()

    def test_zero_gains_drop_terms(self, scenario3x2):
        from coopjam import ChannelGains
        g = ChannelGains(h_d=1.0, h_e=[1.0, 1.0], g_d=[0.5, 0.0, 0.5],
                         g_e=[[0.4, 0.4, 0.0], [0.4, 0.4, 0.4]])
        a, b, c, e = _ratio_factors(scenario3x2, g)
        np.testing.assert_array_equal(a[:, :3] == 0.0, g.g_e == 0.0)
        np.testing.assert_array_equal(e[:, :3] == 0.0, g.g_e == 0.0)
        np.testing.assert_array_equal(b[:3] == 0.0, g.g_d == 0.0)
        np.testing.assert_array_equal(c[:3] == 0.0, g.g_d == 0.0)
        assert (a[:, 3] > 0).all() and (e[:, 3] > 0).all()
        assert b[3] > 0 and c[3] > 0
        # the absent terms drop out of the condensed denominators
        log_den, e_den = _condense_denominator_logs(
            _ProgramLayout(scenario3x2, g).log_ce,
            np.log(scenario3x2.p_max / 2))
        assert np.isfinite(log_den).all() and np.isfinite(e_den).all()

    def test_ratio_equals_capacity_ratio(self, scenario3x2):
        rng = np.random.default_rng(7)
        g = sample_channels(scenario3x2, seed=3)
        a, b, c, e = _ratio_factors(scenario3x2, g)
        for m in range(2):
            for _ in range(10):
                p = rng.uniform(0.01, 1.0, size=3) * scenario3x2.p_max
                q = np.append(p, 1.0)
                got = (a[m] @ q) * (b @ q) / ((c @ q) * (e[m] @ q))
                assert got == pytest.approx(
                    capacity_ratio(scenario3x2, g, p, m), rel=1e-12)


class TestCondense:
    def test_tight_at_expansion_point(self):
        g = poly((1.0, [1, 0]), (2.0, [0, 1]), (3.0, [1, 1]))
        x_hat = np.array([0.7, 1.3])
        ghat, w = condense(g, x_hat)
        assert ghat.evaluate(x_hat) == pytest.approx(g.evaluate(x_hat),
                                                     rel=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_proportional_to_term_values(self):
        g = poly((1.0, [1]), (4.0, [0]))
        ghat, w = condense(g, np.array([2.0]))
        # term values at x=2: 2 and 4 -> weights 1/3 and 2/3
        np.testing.assert_allclose(w, [1 / 3, 2 / 3], rtol=1e-12)

    def test_clamped_weights_stay_normalised(self):
        g = poly((1.0, [1]), (1e-30, [0]))
        ghat, w = condense(g, np.array([1.0]))
        assert (w >= 1e-14 * (1 - 1e-9)).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # tightness degrades only by O(clamp)
        assert ghat.evaluate([1.0]) == pytest.approx(g.evaluate([1.0]),
                                                     rel=1e-10)

    @given(st.lists(st.tuples(st.floats(0.01, 100), st.floats(-2, 2),
                              st.floats(-2, 2)), min_size=1, max_size=5),
           st.floats(0.1, 10), st.floats(0.1, 10),
           st.floats(0.1, 10), st.floats(0.1, 10))
    @settings(max_examples=150, deadline=None)
    def test_condensation_is_global_lower_bound(self, term_data, xh1, xh2,
                                                x1, x2):
        g = poly(*((c, [e1, e2]) for c, e1, e2 in term_data))
        x_hat = np.array([xh1, xh2])
        x = np.array([x1, x2])
        ghat, _ = condense(g, x_hat)
        assert ghat.evaluate(x) <= g.evaluate(x) * (1 + 1e-9)
        assert ghat.evaluate(x_hat) == pytest.approx(g.evaluate(x_hat),
                                                     rel=1e-9)

    def test_condensed_ratio_bounds_true_ratio(self, scenario3x2):
        # denominator shrinks, so the condensed ratio can only grow
        g = sample_channels(scenario3x2, seed=4)
        p_hat = scenario3x2.p_max / 2
        rng = np.random.default_rng(11)
        ratios = condensed(scenario3x2, g, p_hat)
        at_hat = ratios(p_hat)
        for m in range(2):
            true_hat = capacity_ratio(scenario3x2, g, p_hat, m)
            assert at_hat[m] == pytest.approx(true_hat, rel=1e-10)
            for _ in range(5):
                p = rng.uniform(0.01, 1.0, size=3) * scenario3x2.p_max
                assert ratios(p)[m] >= (
                    capacity_ratio(scenario3x2, g, p, m) * (1 - 1e-9))


class TestGpSolve:
    def test_scalar_problem(self):
        # min x subject to 1/x <= 1: optimum at x = 1
        prob = GpProblem(
            objective=Monomial(coeff=1.0, exponents=np.array([1.0])),
            log_coeffs=[0.0], exponents=[[-1.0]], sizes=[1],
            warm_start=np.array([5.0]))
        sol = gp_solve(prob, tol=1e-10)
        assert sol.x[0] == pytest.approx(1.0, rel=1e-7)
        assert sol.value == pytest.approx(1.0, rel=1e-7)
        assert sol.duality_gap <= 1e-10

    def test_arithmetic_mean_problem(self):
        # min t s.t. (x + 1/x)/t <= 1: t* = 2 at x = 1
        prob = GpProblem(
            objective=Monomial(coeff=1.0, exponents=np.array([0.0, 1.0])),
            log_coeffs=[0.0, 0.0], exponents=[[1.0, -1.0], [-1.0, -1.0]],
            sizes=[2], warm_start=np.array([3.0, 6.0]))
        sol = gp_solve(prob, tol=1e-10)
        assert sol.x[0] == pytest.approx(1.0, rel=1e-5)
        assert sol.value == pytest.approx(2.0, rel=1e-8)

    def test_box_constrained_minimum(self):
        # min 1/(x y) with x <= 2, y <= 3: optimum 1/6 at the corner
        prob = GpProblem(
            objective=Monomial(coeff=1.0, exponents=np.array([-1.0, -1.0])),
            log_coeffs=np.log([0.5, 1 / 3]),
            exponents=[[1.0, 0.0], [0.0, 1.0]], sizes=[1, 1],
            warm_start=np.array([1.0, 1.0]))
        sol = gp_solve(prob, tol=1e-10)
        np.testing.assert_allclose(sol.x, [2.0, 3.0], rtol=1e-7)
        assert sol.value == pytest.approx(1 / 6, rel=1e-8)

    def test_rejects_infeasible_warm_start(self):
        with pytest.raises(InvalidInputError):
            gp_solve(GpProblem(
                objective=Monomial(coeff=1.0, exponents=np.array([1.0])),
                log_coeffs=[0.0], exponents=[[-1.0]], sizes=[1],
                warm_start=np.array([0.5])))

    def test_rejects_mismatched_arrays(self):
        objective = Monomial(coeff=1.0, exponents=np.array([1.0]))
        for log_coeffs, exponents, sizes in (
                ([0.0], [[-1.0, 1.0]], [1]),    # exponent row too wide
                ([0.0], [[-1.0]], [2]),         # sizes overrun the terms
                ([0.0, 0.0], [[-1.0], [1.0]], [2, 0]),  # empty constraint
                ([[0.0]], [[-1.0]], [1])):      # coefficients not 1-d
            with pytest.raises(InvalidInputError):
                GpProblem(objective, log_coeffs, exponents, sizes, [2.0])

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9, None,
                                     "1e-9"])
    def test_rejects_bad_tol(self, scenario3x2, tol):
        # NaN slipped past tol <= 0 into a singular Newton system, inf
        # returned a point with gap 6.7e-5 as if solved, and None or a
        # string raised a bare TypeError
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        with pytest.raises(InvalidInputError, match="tol"):
            gp_solve(prob, tol=tol)

    def test_newton_budget_raises_with_estimate(self, monkeypatch):
        prob = GpProblem(
            objective=Monomial(coeff=1.0, exponents=np.array([0.0, 1.0])),
            log_coeffs=[0.0, 0.0], exponents=[[1.0, -1.0], [-1.0, -1.0]],
            sizes=[2], warm_start=np.array([3.0, 6.0]))
        monkeypatch.setattr(gp, "_MAX_NEWTON", 3)
        with pytest.raises(AccuracyError, match=r"budget \(3\)") as exc:
            gp_solve(prob, tol=1e-10)
        est = exc.value.best_estimate
        assert est is not None and est.x.shape == (2,)


class TestApproxProgram:
    def test_shapes_and_warm_start(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        p_hat = scenario3x2.p_max / 2
        prob = build_approx_program(_ProgramLayout(scenario3x2, g), p_hat)
        n, m = 3, 2
        # all gains positive: (p, t, v), one row per eavesdropper, B's
        # row and the box rows
        assert (g.g_d > 0).all() and (g.g_e > 0).all()
        assert prob.n_vars == n + 2
        assert prob.sizes.size == m + 1 + 2 * n
        assert prob.log_coeffs.size == (m + 1) * (n + 1) + 2 * n
        # warm start feasible by construction
        assert (constraint_values(prob, prob.warm_start) < 1.0).all()

    def test_solution_improves_on_expansion_point(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        p_hat = scenario3x2.p_max / 2
        prob = build_approx_program(_ProgramLayout(scenario3x2, g), p_hat)
        ratios = condensed(scenario3x2, g, p_hat)
        sol = gp_solve(prob)
        worst_at_hat = ratios(p_hat).max()
        assert sol.value <= worst_at_hat * (1 + 1e-9)
        # t has to cover every condensed ratio at the solved point
        p_new = sol.x[:3]
        assert (ratios(p_new) <= sol.value * (1 + 1e-8)).all()

    def test_solution_respects_box(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=6)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        sol = gp_solve(prob)
        assert (sol.x[:3] <= scenario3x2.p_max * (1 + 1e-7)).all()
        assert (sol.x[:3] > 0).all()

    def test_expansion_point_outside_box_rejected(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=7)
        with pytest.raises(InvalidInputError):
            build_approx_program(_ProgramLayout(scenario3x2, g),
                                 scenario3x2.p_max * 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_expansion_point_named(self, scenario3x2, bad):
        # a NaN used to pass the box check and surface as "constraint
        # arrays do not match"
        g = sample_channels(scenario3x2, seed=7)
        with pytest.raises(InvalidInputError,
                           match="expansion point must be finite"):
            build_approx_program(_ProgramLayout(scenario3x2, g),
                                 [bad, 0.5, 0.5])


def assert_same_program(got, want):
    for name in ("log_coeffs", "exponents", "sizes", "starts", "groups",
                 "warm_start"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.objective.coeff == want.objective.coeff
    np.testing.assert_array_equal(got.objective.exponents,
                                  want.objective.exponents)


def _bits(result):
    """An ``algorithm_a`` result as bytes and hex, equal only bit for
    bit."""
    alloc, rate, trace = result
    return (alloc.p.tobytes(), float(rate).hex(), trace.rates.tobytes(),
            trace.converged, trace.stop_reason)


class TestProgramLayout:
    def test_cached_layout_builds_the_fresh_program(self):
        # random draws, a third of them with zero gains that drop terms;
        # a layout used at one point builds at the next what a fresh
        # layout builds there
        rng = np.random.default_rng(24)
        dropped = 0
        for k in range(40):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            s = Scenario(n, m, p_source=float(rng.uniform(0.5, 5.0)),
                         p_max=rng.uniform(0.2, 3.0, size=n),
                         sigma2_dest=0.1, sigma2_eaves=np.full(m, 0.1))
            raw = sample_channels(s, 24, index=k)
            zero = k % 3 == 0
            g = ChannelGains(
                h_d=raw.h_d, h_e=raw.h_e,
                g_d=np.where(zero & (rng.random(n) < 0.4), 0.0, raw.g_d),
                g_e=np.where(zero & (rng.random((m, n)) < 0.4), 0.0, raw.g_e))
            layout = _ProgramLayout(s, g)
            build_approx_program(layout, rng.uniform(0.0, 1.0, n) * s.p_max)
            p = rng.uniform(0.0, 1.0, n) * s.p_max
            got = build_approx_program(layout, p)
            want = build_approx_program(_ProgramLayout(s, g), p)
            assert_same_program(got, want)
            dropped += got.log_coeffs.size < (m + 1) * (n + 1) + 2 * n
        assert dropped >= 5

    def test_threads_get_their_pair_s_serial_results(self, scenario3x2):
        # each algorithm_a call holds its own layout: threads running it
        # on different pairs, switching as often as the interpreter
        # lets them, get each pair's serial result bit for bit
        pairs = feasible_draws(scenario3x2, seed=28, count=4)
        want = [_bits(algorithm_a(scenario3x2, g)) for g in pairs]
        wrong = []

        def work(i):
            g, w = pairs[i % len(pairs)], want[i % len(pairs)]
            for _ in range(2):
                if _bits(algorithm_a(scenario3x2, g)) != w:
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_programs_do_not_share_writable_arrays(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        p = scenario3x2.p_max / 2
        layout = _ProgramLayout(scenario3x2, g)
        first = build_approx_program(layout, p)
        first.log_coeffs[:] = 0.0
        first.exponents[:] = 0.0
        for name in ("sizes", "starts", "groups"):
            with pytest.raises(ValueError):
                getattr(first, name)[0] = 7
        with pytest.raises(ValueError):
            first.objective.exponents[0] = 7.0
        assert_same_program(
            build_approx_program(layout, p),
            build_approx_program(_ProgramLayout(scenario3x2, g), p))


# Value and iteration count of the workhorse program on seed 5 at half
# power.  The value is the one the earlier log-barrier solver returned,
# an independent route to the same optimum.
SEED5_HALF_POWER_VALUE = 0.25477111506760197
SEED5_HALF_POWER_ITERATIONS = 12


class TestPrimalDual:
    def test_matches_barrier_value(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        sol = gp_solve(prob)
        assert sol.value == pytest.approx(SEED5_HALF_POWER_VALUE, rel=1e-9)
        assert sol.duality_gap <= 1e-9

    def test_pinned_iteration_count(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        assert gp_solve(prob).newton_iterations == SEED5_HALF_POWER_ITERATIONS

    def test_warm_start_on_the_box_edge(self, scenario3x2):
        # expanding at p_max clips the warm start to p_max*(1 - 1e-9), so
        # each upper-box constraint starts 1e-9 from active
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max)
        n = scenario3x2.n_jammers
        values = constraint_values(prob, prob.warm_start)
        upper = values[-2 * n::2]  # the box rows come last
        assert upper.size == n
        assert (1.0 - upper < 2e-9).all()
        sol = gp_solve(prob)
        assert sol.newton_iterations <= 40
        assert sol.duality_gap <= 1e-9

    def test_singular_newton_system_is_regularised(self, scenario3x2,
                                                   monkeypatch):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        solve = np.linalg.solve
        calls = []

        def first_singular(a, b):
            calls.append(a)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_singular)
        sol = gp_solve(prob)
        # the retry is the same system shifted by 1e-10 * I
        n = calls[0].shape[0]
        assert np.array_equal(calls[1], calls[0] + 1e-10 * np.eye(n))
        assert sol.value == pytest.approx(SEED5_HALF_POWER_VALUE, rel=1e-9)

    def test_singular_after_regularisation_raises(self, scenario3x2,
                                                  monkeypatch):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="singular"):
            gp_solve(prob)

    def test_zero_gain_terms_left_out(self, scenario3x2):
        from coopjam import ChannelGains
        g = ChannelGains(h_d=1.0, h_e=[1.0, 1.0], g_d=[0.5, 0.0, 0.5],
                         g_e=[[0.4, 0.4, 0.0], [0.4, 0.4, 0.4]])
        prob = build_approx_program(_ProgramLayout(scenario3x2, g),
                                    scenario3x2.p_max / 2)
        a, b, _, _ = _ratio_factors(scenario3x2, g)
        assert np.isfinite(prob.log_coeffs).all()
        for m in range(2):
            assert prob.sizes[m] == np.count_nonzero(a[m])
        assert prob.sizes[2] == np.count_nonzero(b) < b.size
        assert np.count_nonzero(a[0]) < a.shape[1]
        sol = gp_solve(prob)
        ratios = condensed(scenario3x2, g, scenario3x2.p_max / 2)
        assert (ratios(sol.x[:3]) <= sol.value * (1 + 1e-8)).all()
