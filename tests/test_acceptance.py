"""End-to-end gate: eleven go/no-go checks, one test per criterion.

Each test prints a one-line ``[criterion N] PASS/FAIL`` verdict with the
measured figures (run pytest with ``-s`` to see the lines for passing
tests).  Seeds are fixed so every run measures the same instances.
"""

import time

import numpy as np

from coopjam import (ChannelGains, Scenario, algorithm_a, algorithm_b,
                     best_jammer_selection, check_positive_secrecy, estimate_sop,
                     kkt_check, sample_channels, sop_closed_form,
                     sop_closed_form_n2m1, sop_integral)
from coopjam.gp import Monomial, Posynomial, condense
from coopjam.model import secrecy_rate_batch
from coopjam.numerics import (integrate_semi_infinite, lp_solve,
                              scaled_exp_integral_ei)
from coopjam.sop_analytic import SopScenario
from tests.conftest import conditioned_sop_scenario, feasible_draws
from tests.test_numerics import _vertex_optimum, random_lp

WORKHORSE = Scenario(n_jammers=3, n_eavesdroppers=2, p_source=2.0,
                     p_max=np.array([1.0, 1.0, 3.0]), sigma2_dest=0.1,
                     sigma2_eaves=np.array([0.1, 0.1]))


def _verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _db(x):
    return 10.0 ** (x / 10.0)


def _sop_setting(ps, powers, m, rate, s2=0.1):
    s = Scenario(n_jammers=len(powers), n_eavesdroppers=m, p_source=float(ps),
                 p_max=np.asarray(powers, dtype=float), sigma2_dest=s2,
                 sigma2_eaves=np.full(m, s2))
    return SopScenario(scenario=s, rate=float(rate))


def test_criterion_01_optimizers_agree():
    # ascent and search routes must land on the same optimum
    t0 = time.perf_counter()
    worst_rate = worst_coord = 0.0
    for g in feasible_draws(WORKHORSE, 101, 20):
        pa, ra, _ = algorithm_a(WORKHORSE, g, max_iter=300)
        pb, rb = algorithm_b(WORKHORSE, g)
        worst_rate = max(worst_rate, abs(ra - rb))
        worst_coord = max(worst_coord,
                          float(np.abs(np.asarray(pa.p) - np.asarray(pb.p)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_rate <= 1e-2 and worst_coord <= 0.02 and elapsed < 120.0
    _verdict(1, ok, f"20 instances, max rate gap {worst_rate:.2e} bits, "
                    f"max allocation gap {worst_coord:.2e}, {elapsed:.0f}s")


def test_criterion_02_grid_search_oracle():
    # low-dimensional instances checked against a dense grid
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    done = k = 0
    worst_ratio = 0.0
    while done < 50 and k < 4000:
        n = 1 + (k % 2)
        m = int(rng.integers(1, 4))
        s = Scenario(n_jammers=n, n_eavesdroppers=m,
                     p_source=float(rng.uniform(0.5, 4.0)),
                     p_max=rng.uniform(0.3, 3.0, size=n),
                     sigma2_dest=float(rng.uniform(0.05, 0.3)),
                     sigma2_eaves=rng.uniform(0.05, 0.3, size=m))
        g = sample_channels(s, 55, index=k)
        k += 1
        if not check_positive_secrecy(s, g).feasible:
            continue
        done += 1
        _, ra, _ = algorithm_a(s, g, max_iter=300)
        axes = [np.linspace(0.0, s.p_max[i], 501) for i in range(n)]
        if n == 1:
            rgrid = secrecy_rate_batch(s, g, axes[0][:, None])
        else:
            aa, bb = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([aa.ravel(), bb.ravel()])
            rgrid = secrecy_rate_batch(s, g, pts).reshape(501, 501)
        idx = np.unravel_index(np.argmax(rgrid), rgrid.shape)
        rbest = float(rgrid[idx])
        # tolerance: how much the rate moves across one cell at the peak
        var = 0.0
        for off in np.ndindex(*(3,) * n):
            j = tuple(np.clip(np.array(idx) + np.array(off) - 1, 0, 500))
            var = max(var, abs(rbest - float(rgrid[j])))
        tol = max(var, 1e-9)
        worst_ratio = max(worst_ratio, abs(ra - rbest) / tol)
    elapsed = time.perf_counter() - t0
    ok = done == 50 and worst_ratio <= 1.0 and elapsed < 300.0
    _verdict(2, ok, f"{done} instances, worst gap = {worst_ratio:.2f} of one "
                    f"cell's variation, {elapsed:.0f}s")


def test_criterion_03_monotone_and_init_insensitive():
    t0 = time.perf_counter()
    worst_drop = worst_gap = 0.0
    for g in feasible_draws(WORKHORSE, 202, 100):
        _, r1, tr1 = algorithm_a(WORKHORSE, g, max_iter=300)
        _, r2, tr2 = algorithm_a(WORKHORSE, g, p0=WORKHORSE.p_max, max_iter=300)
        for tr in (tr1, tr2):
            d = np.diff(np.asarray(tr.rates))
            if d.size:
                worst_drop = max(worst_drop, float(-d.min()))
        worst_gap = max(worst_gap, abs(r1 - r2))
    elapsed = time.perf_counter() - t0
    ok = worst_drop <= 1e-9 and worst_gap <= 1e-4
    _verdict(3, ok, f"100 instances, worst trace drop {worst_drop:.2e}, "
                    f"worst cross-init gap {worst_gap:.2e} bits, {elapsed:.0f}s")


def test_criterion_04_condensation_bound():
    rng = np.random.default_rng(404)
    worst_eq = worst_over = worst_wsum = 0.0
    for _ in range(1000):
        nv = int(rng.integers(1, 5))
        nt = int(rng.integers(1, 7))
        terms = tuple(Monomial(coeff=float(rng.lognormal(0.0, 1.0)),
                               exponents=rng.uniform(-2.0, 2.0, nv))
                      for _ in range(nt))
        g = Posynomial(terms)
        x_hat = rng.lognormal(0.0, 1.0, nv)
        mono, w = condense(g, x_hat)
        worst_wsum = max(worst_wsum, abs(float(w.alpha.sum()) - 1.0))
        gx = g.evaluate(x_hat)
        worst_eq = max(worst_eq, abs(mono.evaluate(x_hat) - gx) / gx)
        for x in x_hat * rng.lognormal(0.0, 0.8, (20, nv)):
            over = (mono.evaluate(x) - g.evaluate(x)) / g.evaluate(x)
            worst_over = max(worst_over, over)
    ok = worst_eq <= 1e-10 and worst_over <= 1e-10 and worst_wsum <= 1e-12
    _verdict(4, ok, f"1000 condensations, tangency {worst_eq:.2e}, worst "
                    f"overshoot {worst_over:.2e}, weight sum off by {worst_wsum:.2e}")


def test_criterion_05_kkt_at_fixed_points():
    worst_eq = worst_grad = 0.0
    for g in feasible_draws(WORKHORSE, 202, 30):
        alloc, _, _ = algorithm_a(WORKHORSE, g, max_iter=300)
        rep = kkt_check(WORKHORSE, g, alloc)
        worst_eq = max(worst_eq, rep.equality_residual)
        worst_grad = max(worst_grad, rep.gradient_residual)
    ok = worst_eq < 1e-8 and worst_grad < 1e-5
    _verdict(5, ok, f"30 fixed points, equality residual {worst_eq:.2e}, "
                    f"gradient residual {worst_grad:.2e}")


def test_criterion_06_outage_three_way():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    worst_ci = worst_z = 0.0
    for i in range(50):
        sc = conditioned_sop_scenario(rng, *pairs[i % 9])
        closed = sop_closed_form(sc).p_out
        quad = sop_integral(sc).p_out
        mc = estimate_sop(sc, n_samples=10_000_000, seed=1000 + i)
        worst_ci = max(worst_ci, abs(closed - quad))
        se = max(mc.std_error, 1e-12)
        worst_z = max(worst_z, abs(closed - mc.p_out) / se,
                      abs(quad - mc.p_out) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_ci <= 1e-7 and worst_z <= 3.0 and elapsed < 600.0
    _verdict(6, ok, f"50 instances, closed vs quadrature {worst_ci:.2e}, "
                    f"worst Monte Carlo z {worst_z:.2f}, {elapsed:.0f}s")


def test_criterion_07_two_jammer_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        sc = conditioned_sop_scenario(rng, 2, 1)
        worst = max(worst, abs(sop_closed_form_n2m1(sc).p_out
                               - sop_closed_form(sc).p_out))
    ok = worst <= 1e-10
    _verdict(7, ok, f"100 instances, worst specialised-vs-general gap {worst:.2e}")


def test_criterion_08_outage_floor_spot_value():
    # source 15 dB, jammer caps 0 and 2 dB, noise 0.1 at both ends:
    # the outage floor over target rates should sit at one half
    rates = np.geomspace(0.01, 4.0, 40)
    vals = [sop_integral(_sop_setting(_db(15.0), [_db(0.0), _db(2.0)], 1, r)).p_out
            for r in rates]
    floor = float(np.min(vals))
    ok = abs(floor - 0.5) <= 0.05
    _verdict(8, ok, f"minimum outage over rates {floor:.4f} (target 0.50±0.05)")


def test_criterion_09_outage_trends():
    caps = [_db(0.0), _db(2.0)]
    rate_vals = [sop_integral(_sop_setting(_db(15.0), caps, 1, r)).p_out
                 for r in (0.25, 0.5, 1.0, 2.0, 3.0)]
    up_in_rate = bool(np.all(np.diff(rate_vals) >= -1e-9))
    ps_vals = [sop_integral(_sop_setting(ps, caps, 1, 1.0)).p_out
               for ps in (2.0, 4.0, 8.0, 16.0, 32.0)]
    down_in_ps = bool(np.all(np.diff(ps_vals) < 0.0))
    m_vals = [sop_integral(_sop_setting(_db(10.0), caps, m, 1.0)).p_out
              for m in (1, 2, 3)]
    up_in_m = bool(np.all(np.diff(m_vals) > 0.0))
    # small vs large network at matched source power, both ladder settings
    ladder_ok = True
    for rate, p1db in ((1.0, -4.0), (0.01, 1.0)):
        for psdb in (5.0, 10.0, 15.0):
            small = sop_integral(_sop_setting(_db(psdb), [_db(p1db)], 1,
                                              rate)).p_out
            big = sop_integral(_sop_setting(_db(psdb),
                                            [_db(p1db + i) for i in range(4)],
                                            4, rate)).p_out
            ladder_ok &= small < big
    ok = up_in_rate and down_in_ps and up_in_m and ladder_ok
    _verdict(9, ok, f"monotone in rate {up_in_rate}, decreasing in source "
                    f"power {down_in_ps}, degrading with eavesdroppers "
                    f"{up_in_m}, 1x1 below 4x4 {ladder_ok}")


def test_criterion_10_baseline_dominance():
    # dominance everywhere; strict wins concentrated where cooperation
    # matters: tight caps and jammers sitting closer to the eavesdroppers
    # than to the destination (gains scaled 3x toward the eavesdroppers)
    rng = np.random.default_rng(1010)
    total = strict = viol = n_multi = k = 0
    while total < 100 and k < 5000:
        if total < 10:
            m = int(rng.integers(1, 4))
            s = Scenario(n_jammers=1, n_eavesdroppers=m,
                         p_source=float(rng.uniform(1.0, 4.0)),
                         p_max=rng.uniform(0.5, 2.0, size=1),
                         sigma2_dest=0.1, sigma2_eaves=np.full(m, 0.1))
            g = sample_channels(s, 1010, index=k)
        else:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            s = Scenario(n_jammers=n, n_eavesdroppers=m,
                         p_source=float(rng.uniform(1.0, 4.0)),
                         p_max=rng.uniform(0.1, 0.5, size=n),
                         sigma2_dest=0.1, sigma2_eaves=np.full(m, 0.1))
            raw = sample_channels(s, 1010, index=k)
            g = ChannelGains(h_d=raw.h_d, h_e=raw.h_e,
                             g_d=np.asarray(raw.g_d) / 3.0,
                             g_e=np.asarray(raw.g_e) * 3.0)
        k += 1
        if not check_positive_secrecy(s, g).feasible:
            continue
        total += 1
        _, ra, _ = algorithm_a(s, g, max_iter=300)
        _, rb = best_jammer_selection(s, g)
        if ra < rb - 1e-9:
            viol += 1
        if s.n_jammers >= 2:
            n_multi += 1
            strict += ra > rb + 1e-9
    ok = total == 100 and viol == 0 and strict * 2 >= n_multi
    _verdict(10, ok, f"{total} instances, {viol} dominance violations, "
                     f"strict wins {strict}/{n_multi} multi-jammer")


# -- criterion 11: independent oracles for the numerics kernels ------------

_EULER = np.longdouble(
    "0.577215664901532860606512090082402431042159335939923598805767")


def _ei_series_neg(x):
    xl = np.longdouble(x)
    term = np.longdouble(1.0)
    total = np.longdouble(0.0)
    for k in range(1, 400):
        term = term * xl / k
        inc = term / k
        total += inc
        if abs(inc) < np.longdouble(1e-25) * max(abs(total),
                                                 np.longdouble(1e-30)):
            break
    return float(_EULER + np.log(abs(xl)) + total)


def _e1_cf_scaled_backward(t, depth=220):
    # e^t E1(t) via the Legendre continued fraction, run backward from a
    # zero tail; a different evaluation route than the library's
    f = np.longdouble(0.0)
    tl = np.longdouble(t)
    for k in range(depth, 0, -1):
        f = (k * k) / (tl + 2 * k + 1 - f)
    return float(1.0 / (tl + 1.0 - f))


def _ei_oracle(x):
    if x > -6.0:
        return _ei_series_neg(x)
    return -np.exp(x) * _e1_cf_scaled_backward(-x)


def test_criterion_11_numerics_kernels():
    rng = np.random.default_rng(1101)
    solved = 0
    worst_lp = 0.0
    status_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 4))
        lp = random_lp(rng, n, int(rng.integers(1, 4)))
        res = lp_solve(lp)
        oracle = _vertex_optimum(lp)
        if res.status == "optimal":
            solved += 1
            status_ok &= oracle is not None
            if oracle is not None:
                worst_lp = max(worst_lp, abs(res.value - oracle))
        else:
            status_ok &= oracle is None
    lp_ok = status_ok and solved >= 60 and worst_lp <= 1e-6

    grid = -np.power(10.0, np.linspace(-3.0, 1.79, 45))
    worst_ei = max(abs(np.exp(-x) * _ei_oracle(x) - scaled_exp_integral_ei(-x))
                   / abs(np.exp(-x) * _ei_oracle(x)) for x in grid)
    ei_ok = worst_ei <= 1e-12

    worst_quad = 0.0
    for _ in range(30):
        a = 10.0 ** rng.uniform(-1.2, 1.2)
        b = 10.0 ** rng.uniform(-1.2, 1.2)
        res = integrate_semi_infinite(lambda x: np.exp(-a * x) / (x + b), 0.0,
                                      rel_tol=1e-12)
        t = a * b
        want = (_e1_cf_scaled_backward(t) if t > 6.0
                else -np.exp(t) * _ei_series_neg(-t))
        worst_quad = max(worst_quad, abs(res.value - want) / abs(want))
    quad_ok = worst_quad <= 1e-9

    ok = lp_ok and ei_ok and quad_ok
    _verdict(11, ok, f"LP oracle gap {worst_lp:.2e} over {solved} solvable of "
                     f"200, Ei cross-check {worst_ei:.2e}, quadrature "
                     f"identity {worst_quad:.2e}")
