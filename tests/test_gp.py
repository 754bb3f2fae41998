"""Posynomial algebra, AM-GM condensation, the array-built SCA program
and the primal-dual GP solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam import sample_channels
from coopjam.errors import (AccuracyError, DomainError, InvalidInputError,
                            NumericalError)
from coopjam.gp import (GpProblem, Monomial, Posynomial, _condensed_ratio_rows,
                        _product_layout, _ratio_coefficients,
                        build_approx_program, condense, gp_solve)
from coopjam.model import sinr_destination, sinr_eavesdropper


def poly(*terms):
    return Posynomial(terms=tuple(
        Monomial(coeff=c, exponents=np.asarray(e, float)) for c, e in terms))


def condensed(rows, p):
    """Every condensed ratio at the positive point ``p``, from the rows
    ``_condensed_ratio_rows`` returns."""
    b, a = rows
    return np.exp(b + a @ np.log(p)).sum(axis=1)


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
        n = scenario3x2.n_jammers
        e, _ = _product_layout(n)
        num, den = _ratio_coefficients(scenario3x2, g)
        assert e.shape == ((n + 2) * (n + 1), n)
        for m in range(2):
            assert np.count_nonzero(num[m]) == (n + 2) * (n + 1)
            assert np.count_nonzero(den[m]) == (n + 2) * (n + 1)

    def test_zero_gains_drop_terms(self, scenario3x2):
        from coopjam import ChannelGains
        g = ChannelGains(h_d=1.0, h_e=[1.0, 1.0], g_d=[0.5, 0.0, 0.5],
                         g_e=[[0.4, 0.4, 0.0], [0.4, 0.4, 0.4]])
        num, den = _ratio_coefficients(scenario3x2, g)
        assert np.count_nonzero(num[0]) < np.count_nonzero(num[1])
        assert (num >= 0).all() and (den >= 0).all()
        # a zero-gain numerator term is left out of the condensed rows
        b, _ = _condensed_ratio_rows(scenario3x2, g, scenario3x2.p_max / 2)
        np.testing.assert_array_equal(b == -np.inf, num == 0.0)
        assert np.isfinite(b[num > 0]).all()

    def test_terms_sorted_by_exponent(self, scenario3x2):
        e, _ = _product_layout(scenario3x2.n_jammers)
        keys = [tuple(row) for row in e]
        assert keys == sorted(keys)

    def test_ratio_equals_capacity_ratio(self, scenario3x2):
        rng = np.random.default_rng(7)
        g = sample_channels(scenario3x2, seed=3)
        e, _ = _product_layout(scenario3x2.n_jammers)
        num, den = _ratio_coefficients(scenario3x2, g)
        for m in range(2):
            for _ in range(10):
                p = rng.uniform(0.01, 1.0, size=3) * scenario3x2.p_max
                powers = np.prod(p ** e, axis=1)
                got = (num[m] @ powers) / (den[m] @ powers)
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
        rows = _condensed_ratio_rows(scenario3x2, g, p_hat)
        at_hat = condensed(rows, p_hat)
        for m in range(2):
            true_hat = capacity_ratio(scenario3x2, g, p_hat, m)
            assert at_hat[m] == pytest.approx(true_hat, rel=1e-10)
            for _ in range(5):
                p = rng.uniform(0.01, 1.0, size=3) * scenario3x2.p_max
                assert condensed(rows, p)[m] >= (
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

    def test_newton_budget_raises_with_estimate(self):
        prob = GpProblem(
            objective=Monomial(coeff=1.0, exponents=np.array([0.0, 1.0])),
            log_coeffs=[0.0, 0.0], exponents=[[1.0, -1.0], [-1.0, -1.0]],
            sizes=[2], warm_start=np.array([3.0, 6.0]))
        with pytest.raises(AccuracyError) as exc:
            gp_solve(prob, tol=1e-10, max_newton=3)
        est = exc.value.best_estimate
        assert est is not None and est.x.shape == (2,)


class TestApproxProgram:
    def test_shapes_and_warm_start(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        p_hat = scenario3x2.p_max / 2
        prob = build_approx_program(scenario3x2, g, p_hat)
        n, m = 3, 2
        assert prob.n_vars == n + 1
        assert prob.sizes.size == m + 2 * n
        # warm start feasible by construction
        assert (constraint_values(prob, prob.warm_start) < 1.0).all()

    def test_solution_improves_on_expansion_point(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        p_hat = scenario3x2.p_max / 2
        prob = build_approx_program(scenario3x2, g, p_hat)
        rows = _condensed_ratio_rows(scenario3x2, g, p_hat)
        sol = gp_solve(prob)
        worst_at_hat = condensed(rows, p_hat).max()
        assert sol.value <= worst_at_hat * (1 + 1e-9)
        # t has to cover every condensed ratio at the solved point
        p_new = sol.x[:3]
        assert (condensed(rows, p_new) <= sol.value * (1 + 1e-8)).all()

    def test_solution_respects_box(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=6)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)
        sol = gp_solve(prob)
        assert (sol.x[:3] <= scenario3x2.p_max * (1 + 1e-7)).all()
        assert (sol.x[:3] > 0).all()

    def test_expansion_point_outside_box_rejected(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=7)
        with pytest.raises(InvalidInputError):
            build_approx_program(scenario3x2, g, scenario3x2.p_max * 2)


# Value and iteration count of the workhorse program on seed 5 at half
# power.  The value is the one the earlier log-barrier solver returned,
# an independent route to the same optimum.
SEED5_HALF_POWER_VALUE = 0.25477111506760197
SEED5_HALF_POWER_ITERATIONS = 18


class TestPrimalDual:
    def test_matches_barrier_value(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)
        sol = gp_solve(prob)
        assert sol.value == pytest.approx(SEED5_HALF_POWER_VALUE, rel=1e-9)
        assert sol.duality_gap <= 1e-9

    def test_pinned_iteration_count(self, scenario3x2):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)
        assert gp_solve(prob).newton_iterations == SEED5_HALF_POWER_ITERATIONS

    def test_warm_start_on_the_box_edge(self, scenario3x2):
        # expanding at p_max clips the warm start to p_max*(1 - 1e-9), so
        # each upper-box constraint starts 1e-9 from active
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max)
        n = scenario3x2.n_jammers
        values = constraint_values(prob, prob.warm_start)
        upper = values[scenario3x2.n_eavesdroppers::2][:n]
        assert upper.size == n
        assert (1.0 - upper < 2e-9).all()
        sol = gp_solve(prob)
        assert sol.newton_iterations <= 40
        assert sol.duality_gap <= 1e-9

    def test_singular_newton_system_is_regularised(self, scenario3x2,
                                                   monkeypatch):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)
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
        np.testing.assert_allclose(calls[1] - calls[0],
                                   1e-10 * np.eye(calls[0].shape[0]),
                                   rtol=0, atol=1e-15)
        assert sol.value == pytest.approx(SEED5_HALF_POWER_VALUE, rel=1e-9)

    def test_singular_after_regularisation_raises(self, scenario3x2,
                                                  monkeypatch):
        g = sample_channels(scenario3x2, seed=5)
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="singular"):
            gp_solve(prob)

    def test_zero_gain_terms_left_out(self, scenario3x2):
        from coopjam import ChannelGains
        g = ChannelGains(h_d=1.0, h_e=[1.0, 1.0], g_d=[0.5, 0.0, 0.5],
                         g_e=[[0.4, 0.4, 0.0], [0.4, 0.4, 0.4]])
        prob = build_approx_program(scenario3x2, g, scenario3x2.p_max / 2)
        rows = _condensed_ratio_rows(scenario3x2, g, scenario3x2.p_max / 2)
        num, _ = _ratio_coefficients(scenario3x2, g)
        assert np.isfinite(prob.log_coeffs).all()
        for m in range(2):
            assert (prob.sizes[m] == np.count_nonzero(num[m])
                    == np.isfinite(rows[0][m]).sum())
        assert np.count_nonzero(num[0]) < num.shape[1]
        sol = gp_solve(prob)
        assert (condensed(rows, sol.x[:3]) <= sol.value * (1 + 1e-8)).all()
