"""Exponential integral, semi-infinite quadrature, LP kernel."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coopjam
from coopjam import ChannelGains, Scenario, numerics
from coopjam.errors import (AccuracyError, DomainError, InvalidInputError,
                            NumericalError)
from coopjam.feasibility import build_max_slack_lp
from coopjam.numerics import (LinearProgram, integrate_semi_infinite,
                              lp_solve, scaled_exp_integral_ei)
from coopjam.power_opt import _charnes_cooper_lp

# mpmath reference values of exp(t) * Ei(-t), 20 digits
EI_TABLE = {
    0.01: -4.0785114434564258466,
    0.25: -1.3408854448313933526,
    1.0: -0.59634736232319407434,
    2.5: -0.30352583648598409918,
    5.999: -0.14528903146117000545,   # just inside the series branch
    6.001: -0.14524623338534427291,   # just inside the fraction branch
    10.0: -0.091563333939788081876,
    30.0: -0.032289738758980125216,
    100.0: -0.0099019422867330184064,
    300.0: -0.0033222955652707070644,
    700.0: -0.0014265364183008866918,
}
SCALED_TABLE = {
    0.5: -0.92291063248373046883,
    6.0: -0.14526762923388689381,
    30.0: -0.032289738758980125216,
    200.0: -0.0049752463231793566242,
}

# float.hex of exp(t) * Ei(-t) from the series branch (t <= 6), recorded
# before the series was reshaped to a fixed 60 terms; its bits must not move
SERIES_BITS = {
    1e-300: "-0x1.5919624b963c8p+9",
    1e-3: "-0x1.959fba908db85p+2",
    0.1: "-0x1.01dfce9153962p+1",
    0.5: "-0x1.d887be0f4bedbp-1",
    1.0: "-0x1.3154710477cc5p-1",
    2.5: "-0x1.36cf7a14cb1afp-2",
    4.0: "-0x1.a6988c4ff9a66p-3",
    5.0: "-0x1.5d064d4d3fa10p-3",
    5.8197295492487475: "-0x1.31a06ea3c6cd9p-3",
    6.0: "-0x1.29821325d0e06p-3",
}


def _mpmath_scaled_ei():
    """About 1,000 arguments from 1e-300 to 1e300 (geometric, plus linear
    on (0, 6]) and 40-digit mpmath exp(t) * Ei(-t) at each."""
    t = np.unique(np.concatenate([np.geomspace(1e-300, 1e300, 700),
                                  np.linspace(0.0, 6.0, 301)[1:],
                                  [np.nextafter(6.0, 7.0)]]))
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(v) * mpmath.ei(-v))
                         for v in map(mpmath.mpf, t.tolist())])
    return t, want


class TestExpIntegral:
    def test_reference_values(self):
        for t, want in EI_TABLE.items():
            got = scaled_exp_integral_ei(t)
            assert got == pytest.approx(want, rel=5e-14), t

    def test_scaled_reference_values(self):
        for t, want in SCALED_TABLE.items():
            assert scaled_exp_integral_ei(t) == pytest.approx(want, rel=5e-14)

    def test_series_and_fraction_agree_on_overlap(self):
        # both branches are accurate on [4, 6]; cross-check them
        from coopjam.numerics import _e1_cf_scaled, _ei_series_neg
        t = np.linspace(4.0, 6.0, 21)
        series = _ei_series_neg(-t)
        fraction = -np.exp(-t) * _e1_cf_scaled(t)
        np.testing.assert_allclose(series, fraction, rtol=2e-13, atol=0)

    def test_series_bits_pinned(self):
        got = {t: scaled_exp_integral_ei(t).hex() for t in SERIES_BITS}
        assert got == SERIES_BITS

    def test_series_against_mpmath(self):
        # the series loses digits to cancellation as t nears 6: the worst
        # point of this grid is 1.5e-14, at t = 5.98
        t, want = _mpmath_scaled_ei()
        near = t <= 6.0
        got = scaled_exp_integral_ei(t[near])
        assert (np.abs(got - want[near]) / np.abs(want[near])).max() <= 2e-14

    def test_fraction_against_mpmath(self):
        t, want = _mpmath_scaled_ei()
        far = t > 6.0
        got = scaled_exp_integral_ei(t[far])
        assert (np.abs(got - want[far]) / np.abs(want[far])).max() <= 1e-15
        # exp(t) Ei(-t) ~ -1/t is subnormal here
        edge = scaled_exp_integral_ei(1.7e308)
        assert math.isfinite(edge) and edge < 0

    def test_array_matches_scalar_bit_for_bit(self):
        # each element of an array takes the steps a lone float takes, on
        # both sides of the series/fraction cutover at t = 6, whatever
        # else is in the array
        t = np.concatenate([np.geomspace(1e-6, 6.0, 40),
                            [6.0, np.nextafter(6.0, 7.0)],
                            np.geomspace(6.01, 1e3, 40)])
        np.random.default_rng(11).shuffle(t)
        got = scaled_exp_integral_ei(t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        alone = [scaled_exp_integral_ei(float(v)) for v in t]
        assert all(type(v) is float for v in alone)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in alone]
        halves = scaled_exp_integral_ei(t.reshape(2, -1))
        assert halves.shape == (2, t.size // 2)
        assert np.array_equal(halves.ravel(), got)
        assert scaled_exp_integral_ei(np.empty(0)).shape == (0,)
        for bad in [0.0, -1.0, -np.inf, np.inf, np.nan]:
            with pytest.raises(DomainError):
                scaled_exp_integral_ei(np.array([1.0, bad, 7.0]))

    def test_derivative_identity(self):
        # f(t) = exp(t) Ei(-t) has f'(t) = f(t) + 1/t
        for t in [0.5, 2.0, 8.0, 20.0]:
            h = 1e-5 * t
            fd = (scaled_exp_integral_ei(t + h)
                  - scaled_exp_integral_ei(t - h)) / (2 * h)
            assert fd == pytest.approx(scaled_exp_integral_ei(t) + 1.0 / t,
                                       rel=1e-7)

    def test_monotone_negative(self):
        # exp(t) Ei(-t) is negative and rises with t: ~ -1/t far out,
        # -inf at 0+
        ts = [20.0, 10.0, 5.0, 1.0, 0.1, 0.001]
        vals = [scaled_exp_integral_ei(t) for t in ts]
        assert all(v < 0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    def test_domain_errors(self):
        for bad in [0.0, -1.0, np.inf, np.nan]:
            with pytest.raises(DomainError):
                scaled_exp_integral_ei(bad)


class TestQuadrature:
    def test_exponential_times_rational(self):
        # int_0^inf exp(-x)/(x+1) dx = -e*Ei(-1)
        res = integrate_semi_infinite(lambda x: np.exp(-x) / (x + 1.0), 0.0,
                                      rel_tol=1e-12)
        assert res.value == pytest.approx(0.59634736232319407434, rel=1e-12)
        assert res.evaluations > 0
        assert res.abs_error_estimate < 1e-9

    def test_plain_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-2.0 * x), 1.0)
        assert res.value == pytest.approx(np.exp(-2.0) / 2.0, rel=1e-10)

    def test_matches_elementary_identity(self):
        # int_0^inf e^{-a x}/(x+c) dx = -e^{a c} Ei(-a c)
        for a, c in [(0.6, 0.9), (2.0, 3.0), (5.0, 0.3)]:
            res = integrate_semi_infinite(lambda x: np.exp(-a * x) / (x + c),
                                          0.0, rel_tol=1e-12)
            assert res.value == pytest.approx(-scaled_exp_integral_ei(a * c),
                                              rel=1e-9)

    def test_accuracy_error_carries_estimate(self):
        # force subdivision starvation on an oscillatory integrand
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return np.sin(50 * x) * np.exp(-0.01 * x)

        with pytest.raises(AccuracyError) as err:
            integrate_semi_infinite(f, 0.0, rel_tol=1e-13, max_subdivisions=3)
        assert err.value.best_estimate is not None
        # each bisection hands two new intervals to the integrand and
        # grows the partition, which the cap bounds, by one
        assert 1 + sum(calls[1:]) // 2 == 3

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NumericalError):
            integrate_semi_infinite(lambda x: np.where(x > 1, np.inf, 1.0), 0.0)

    def test_one_integrand_call_per_round(self):
        # every call gets a (k, 15) block of nodes, and the evaluations
        # reported are exactly the nodes passed in
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.exp(-x) / (x + 0.5)

        res = integrate_semi_infinite(f, 0.0, rel_tol=1e-12)
        assert len(shapes) > 1
        assert all(len(s) == 2 and s[1] == 15 for s in shapes)
        assert shapes[0] == (1, 15)
        assert res.evaluations == sum(s[0] * s[1] for s in shapes)

    def test_scalar_integrand_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate_semi_infinite(lambda x: 1.0, 0.0)

    def test_bad_args(self):
        with pytest.raises(InvalidInputError):
            integrate_semi_infinite(lambda x: 0.0, np.inf)
        for rel_tol in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                integrate_semi_infinite(lambda x: 0.0, 0.0, rel_tol=rel_tol)
        with pytest.raises(InvalidInputError):
            integrate_semi_infinite(lambda x: 0.0, 0.0, max_subdivisions=0)

    def test_fractional_max_subdivisions_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate_semi_infinite(lambda x: np.exp(-x), 0.0,
                                    max_subdivisions=2.5)

    def test_nan_max_subdivisions_rejected(self):
        # a NaN cap would compare False and switch the cap off
        with pytest.raises(InvalidInputError):
            integrate_semi_infinite(lambda x: np.exp(-x), 0.0,
                                    max_subdivisions=float("nan"))


def test_import_does_not_load_scipy():
    # the quadrature, the LP kernel and the GP Newton solves are the
    # library's own; any scipy module would add its load time to every
    # process that imports coopjam
    src = str(Path(coopjam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, coopjam; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _vertex_optimum(lp: LinearProgram):
    """Brute-force LP oracle: enumerate all basic points (intersections
    of n active constraints drawn from rows and bounds), keep those that
    satisfy everything, and take the best objective."""
    n = lp.c.size
    planes = []
    for a, lo, hi in zip(lp.a, lp.row_lower, lp.row_upper):
        planes += [(a, b) for b in {lo, hi} if np.isfinite(b)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(lp.lower[i]):
            planes.append((e.copy(), lp.lower[i]))
        if np.isfinite(lp.upper[i]):
            planes.append((e.copy(), lp.upper[i]))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        a_mat = np.array([planes[i][0] for i in combo])
        b_vec = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(a_mat)) < 1e-12:
            continue
        x = np.linalg.solve(a_mat, b_vec)
        ok = ((x >= lp.lower - 1e-9).all() and (x <= lp.upper + 1e-9).all()
              and (lp.a @ x >= lp.row_lower - 1e-9).all()
              and (lp.a @ x <= lp.row_upper + 1e-9).all())
        if ok:
            val = lp.c @ x
            if best is None or val < best:
                best = val
    return best


def random_lp(rng, n, n_rows):
    """LP with ``n_rows`` random one-sided rows in the box [-2, 2]^n.
    Each row draws its coefficients, its side and its bound in turn,
    then the objective is drawn."""
    a = np.empty((n_rows, n))
    lo, hi = np.full(n_rows, -np.inf), np.full(n_rows, np.inf)
    for i in range(n_rows):
        a[i] = rng.normal(size=n)
        upper_side = rng.choice([True, False])
        (hi if upper_side else lo)[i] = rng.normal()
    return LinearProgram(c=rng.normal(size=n), a=a, row_lower=lo,
                         row_upper=hi, lower=np.full(n, -2.0),
                         upper=np.full(n, 2.0))


class TestLinearProgram:
    def test_known_optimum(self):
        # min x+y s.t. x+2y >= 4, 3x+y >= 6 in the positive quadrant
        lp = LinearProgram(c=np.array([1.0, 1.0]),
                           a=np.array([[1.0, 2.0], [3.0, 1.0]]),
                           row_lower=np.array([4.0, 6.0]),
                           lower=np.zeros(2), upper=np.full(2, np.inf))
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.8, abs=1e-9)
        assert res.x == pytest.approx([1.6, 1.2], abs=1e-8)

    def test_equality_row(self):
        lp = LinearProgram(c=np.array([1.0, 2.0]),
                           a=np.array([[1.0, 1.0]]), row_lower=[3.0],
                           row_upper=[3.0],
                           lower=np.zeros(2), upper=np.array([2.0, 2.0]))
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.x == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(c=np.ones(1), a=np.array([[1.0]]),
                           row_lower=[5.0],
                           lower=np.zeros(1), upper=np.array([1.0]))
        assert lp_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(c=np.array([-1.0]), lower=np.zeros(1),
                           upper=np.array([np.inf]))
        assert lp_solve(lp).status == "unbounded"

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(2, 4))
            lp = random_lp(rng, n, int(rng.integers(1, 4)))
            res = lp_solve(lp)
            oracle = _vertex_optimum(lp)
            if res.status == "optimal":
                solved += 1
                assert oracle is not None
                assert res.value == pytest.approx(oracle, abs=1e-6)
            else:
                assert oracle is None
        assert solved > 20  # the sampler produces plenty of solvable LPs

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), a=np.ones((1, 3)))
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), a=np.ones(2))
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), a=np.ones((2, 2)), row_lower=[1.0])
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), a=np.ones((1, 2)),
                          row_upper=[1.0, 2.0])
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), row_lower=[1.0])
        with pytest.raises(InvalidInputError):
            LinearProgram(c=np.ones(2), lower=np.zeros(3))

    def test_vertex_values_to_rounding(self):
        # the kernel's optimum is a vertex solved afresh from its basis,
        # so it matches the brute-force vertex value to rounding
        rng = np.random.default_rng(8)
        solved = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            lp = random_lp(rng, n, int(rng.integers(1, 4)))
            res = lp_solve(lp)
            oracle = _vertex_optimum(lp)
            if res.status == "optimal":
                solved += 1
                assert res.value == pytest.approx(oracle, rel=0, abs=1e-12)
            else:
                assert oracle is None
        assert solved > 40

    def test_beale_cycling_example(self):
        # Beale (1955): from the slack basis, the largest-coefficient
        # rule cycles through degenerate pivots on this LP forever
        lp = LinearProgram(c=[-0.75, 20.0, -0.5, 6.0],
                           a=[[0.25, -8.0, -1.0, 9.0],
                              [0.5, -12.0, -0.5, 3.0],
                              [0.0, 0.0, 1.0, 0.0]],
                           row_upper=[0.0, 0.0, 1.0], lower=np.zeros(4))
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-1.25, rel=0, abs=1e-12)
        assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0], rel=0, abs=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        lp = LinearProgram(c=np.array([1.0, 1.0]),
                           a=np.array([[1.0, 2.0], [3.0, 1.0]]),
                           row_lower=np.array([4.0, 6.0]),
                           lower=np.zeros(2))
        assert lp_solve(lp).status == "optimal"
        monkeypatch.setattr(numerics, "_LP_MAX_ITERATIONS", 1)
        with pytest.raises(NumericalError):
            lp_solve(lp)

    def test_non_finite_data_rejected(self):
        with pytest.raises(InvalidInputError):
            lp_solve(LinearProgram(c=np.array([np.nan])))
        with pytest.raises(InvalidInputError):
            lp_solve(LinearProgram(c=np.ones(1), a=np.array([[np.inf]]),
                                   row_lower=[0.0]))

    def test_crossed_bounds_are_infeasible(self):
        lp = LinearProgram(c=np.ones(2), lower=np.array([0.0, 2.0]),
                           upper=np.array([1.0, 1.0]))
        assert lp_solve(lp).status == "infeasible"


def _linprog_oracle(lp: LinearProgram):
    """(status, value) of ``lp`` by scipy's HiGHS ``linprog``.

    At HiGHS's default tolerances of 1e-7 its optimum can trail by more
    than 1e-7 relative: on max u - 3e-8 p, a reduced cost of 3e-8 passes
    for 0.  The tolerances here are 1e-10."""
    eq = lp.row_lower == lp.row_upper
    up = ~eq & np.isfinite(lp.row_upper)
    down = ~eq & np.isfinite(lp.row_lower)
    a_ub = np.vstack([lp.a[up], -lp.a[down]])
    b_ub = np.concatenate([lp.row_upper[up], -lp.row_lower[down]])
    res = scipy.optimize.linprog(
        lp.c, A_ub=a_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=lp.a[eq] if eq.any() else None,
        b_eq=lp.row_lower[eq] if eq.any() else None,
        bounds=list(zip(lp.lower, lp.upper)), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, res.fun


_GAIN = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@st.composite
def _library_lps(draw):
    """The LPs the library builds: the max-slack feasibility LP, and
    algorithm_b's slice and tilted LPs, on draws with zeroed gains."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    s = Scenario(n_jammers=n, n_eavesdroppers=m,
                 p_source=draw(st.floats(0.5, 5.0)),
                 p_max=draw(st.lists(st.floats(0.1, 4.0), min_size=n,
                                     max_size=n)),
                 sigma2_dest=draw(st.floats(0.01, 1.0)),
                 sigma2_eaves=draw(st.lists(st.floats(0.01, 1.0), min_size=m,
                                            max_size=m)))
    g = ChannelGains(
        h_d=draw(_GAIN),
        h_e=draw(st.lists(_GAIN, min_size=m, max_size=m)),
        g_d=draw(st.lists(_GAIN, min_size=n, max_size=n)),
        g_e=np.reshape(draw(st.lists(_GAIN, min_size=m * n,
                                     max_size=m * n)), (m, n)))
    kind = draw(st.sampled_from(["max_slack", "slice", "tilted"]))
    if kind == "max_slack":
        return build_max_slack_lp(s, g)
    active = np.flatnonzero(g.h_e > 0)
    assume(active.size)  # algorithm_b needs an eavesdropper that hears
    if kind == "slice":
        # past the end of the slices, so some are infeasible; within the
        # solvers' feasibility tolerances of the end, the status is theirs
        fraction = draw(st.floats(0.0, 1.2))
        assume(not 1.0 < fraction < 1.0 + 1e-6)
        t0 = fraction * float(s.p_max @ g.g_d)
        return _charnes_cooper_lp(s, g, active, np.zeros(n), t0)
    return _charnes_cooper_lp(s, g, active, draw(st.floats(-5.0, 5.0)) * g.g_d)


class TestLibraryLps:
    @given(lp=_library_lps())
    @settings(max_examples=300, deadline=None)
    def test_match_highs(self, lp):
        res = lp_solve(lp)
        status, value = _linprog_oracle(lp)
        assert res.status == status
        if status != "optimal":
            return
        assert abs(res.value - value) <= 1e-7 * max(1.0, abs(value))
        x = res.x
        rows = lp.a @ x
        row_tol = 1e-12 * (1.0 + np.abs(lp.a) @ np.abs(x))
        assert (rows >= lp.row_lower - row_tol).all()
        assert (rows <= lp.row_upper + row_tol).all()
        box_tol = 1e-12 * (1.0 + np.abs(x))
        assert (x >= lp.lower - box_tol).all()
        assert (x <= lp.upper + box_tol).all()
