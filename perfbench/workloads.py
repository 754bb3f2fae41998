"""Inputs, timed items and oracle checks of the benchmark workloads.

An item is one fading draw, or one outage setting, taken through the
workload's whole chain of library calls.  ``run`` is the timed part;
``check`` compares its output with an independent oracle and runs
outside the timing.

Inputs are fixed pools perturbed per seed.  Fading draws come from the
library's own counter stream under ``POOL_KEY``, the seed the canned
experiments default to, so the crosscheck pool is the table_ab
experiment's draws.  The benchmark seed then scales every gain, source
power and target rate by exp(JITTER * N(0, 1)).  Independent draws per
seed were tried first: algorithm_a's cost is heavy-tailed over draws
(coefficient of variation about 1.4 on feasible workhorse draws) and
chaotic in them (one 4x4 draw needed 156 to 301 GP solves under 5%
perturbations), so a run's cost swung by tens of percent from seed to
seed.  At JITTER the GP solve counts repeat; Newton step totals still
move by a few percent.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

import coopjam as cj
from coopjam.experiments import default_scenario

POOL_KEY = 0
JITTER = 1e-3
MAX_ITER = 300
MC_SAMPLES = 200_000

# Tolerances of the acceptance criteria named in each check.
KKT_EQ_TOL = 1e-8          # criterion 5
MONOTONE_TOL = 1e-9        # criterion 3
BASELINE_TOL = 1e-9        # criterion 10
AB_RATE_TOL = 1e-2         # criterion 1
AB_ALLOC_TOL = 0.02        # criterion 1
CLOSED_VS_INTEGRAL_TOL = 1e-7   # criterion 6
# Chance that one outage_mc run of a correct library reports any Monte
# Carlo failure.  Criterion 6's |z| <= 3 alone has 0.27% per comparison;
# a run makes 66 and the benchmark is run dozens of times, so that rate
# would mark some runs incorrect by chance.
MC_RUN_FALSE_ALARM = 1e-4
# Largest closed-form vs integral gap at n = m = 2 counted as the known
# defect; ten seeds showed 1e-7 to 1.1e-5.
KNOWN_N2M2_GAP = 1e-4


@dataclass(frozen=True)
class Item:
    label: str
    kind: str
    args: tuple


def _rng(seed, workload):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _jitter(rng, x):
    x = np.asarray(x, dtype=float)
    return x * np.exp(JITTER * rng.standard_normal(x.shape))


def _jittered_draw(scenario, index, rng):
    g = cj.sample_channels(scenario, POOL_KEY, index=index)
    return cj.ChannelGains(h_d=float(_jitter(rng, g.h_d)), h_e=_jitter(rng, g.h_e),
                           g_d=_jitter(rng, g.g_d), g_e=_jitter(rng, g.g_e))


def _feasible_draws(scenario, count, rng):
    """The first ``count`` feasible draws of the pool stream, the way
    the experiments pick their channel sets."""
    items = []
    index = 0
    while len(items) < count:
        g = _jittered_draw(scenario, index, rng)
        if cj.check_positive_secrecy(scenario, g).feasible:
            items.append(Item(f"3x2 draw {index}", "3x2", (scenario, g)))
        index += 1
    return items


def _db(x):
    return 10.0 ** (x / 10.0)


def _sop(rng, n, m, p_source, p_max, rate):
    s = cj.Scenario(n_jammers=n, n_eavesdroppers=m,
                    p_source=float(_jitter(rng, p_source)), p_max=p_max,
                    sigma2_dest=0.1, sigma2_eaves=np.full(m, 0.1))
    return cj.SopScenario(scenario=s, rate=float(_jitter(rng, rate)))


LADDER_RATES = (0.01, 1.0)
LADDER_PS_DB = (0, 5, 10, 15, 20, 25, 30)
SWEEP_RATES = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _sweep(rng):
    """The sop_vs_rate setting: N2M1, source 15 dB, caps 0 and 2 dB."""
    return [Item(f"n2m1 ps=15dB rate={r}", "n2m1",
                 (_sop(rng, 2, 1, _db(15.0), np.array([1.0, _db(2.0)]), r),))
            for r in SWEEP_RATES]


def _ladder(rng):
    """The sop_vs_ps ladder: n = m = 1..4, caps 1 dB and 26% apart,
    source 0..30 dB, at the experiment's rate 0.01 and at rate 1."""
    items = []
    for rate in LADDER_RATES:
        for count in (1, 2, 3, 4):
            p_max = _db(1.0) * _db(1.0) ** np.arange(count)
            for d in LADDER_PS_DB:
                items.append(Item(f"n{count}m{count} ps={d}dB rate={rate}",
                                  f"n{count}m{count}",
                                  (_sop(rng, count, count, _db(d), p_max, rate),)))
    return items


class Workload:
    name = ""
    required = ()     # span names a traced run must record
    reference = ()    # speed.py parts whose slowdowns track this workload's

    def known_defect(self, item, values, failures):
        """Whether an item's failures are a recorded library defect."""
        return False


class Crosscheck(Workload):
    """check_positive_secrecy, algorithm_a and algorithm_b on feasible
    workhorse draws, as the table_ab experiment runs them (its five
    channel sets by default)."""

    name = "crosscheck"
    required = ("sample_channels", "secrecy_rate", "check_positive_secrecy",
                "lp_solve", "algorithm_a", "algorithm_b", "build_approx_program",
                "gp_solve", "best_jammer_selection")
    n_draws = 5
    reference = ("linprog", "linprog", "small_arrays")

    def inputs(self, seed):
        return _feasible_draws(default_scenario(), self.n_draws,
                               _rng(seed, self.name))

    def run(self, item):
        s, g = item.args
        verdict = cj.check_positive_secrecy(s, g)
        ascent = cj.algorithm_a(s, g, max_iter=MAX_ITER)
        search = cj.algorithm_b(s, g)
        return verdict, ascent, search

    def check(self, item, out):
        s, g = item.args
        verdict, (pa, ra, trace), (pb, rb) = out
        p = np.asarray(pa.p)
        kkt = cj.kkt_check(s, g, pa).equality_residual
        rates = trace.rates
        drop = float(max(0.0, -np.diff(rates).min())) if rates.size > 1 else 0.0
        _, baseline = cj.best_jammer_selection(s, g)
        rate_gap = abs(ra - rb)
        alloc_gap = float(np.abs(p - np.asarray(pb.p)).max())
        failures = []
        if not verdict.feasible:
            failures.append("feasibility verdict changed on a feasible draw")
        if not kkt < KKT_EQ_TOL:
            failures.append(f"KKT equality residual {kkt:.2e} >= {KKT_EQ_TOL:g}")
        if drop > MONOTONE_TOL:
            failures.append(f"ascent trace drops by {drop:.2e}")
        if ra < baseline - BASELINE_TOL:
            failures.append(f"rate {ra:.9g} below best single jammer {baseline:.9g}")
        if not (np.all(p >= 0) and np.all(p <= s.p_max)):
            failures.append(f"allocation {p} outside the box")
        if rate_gap > AB_RATE_TOL:
            failures.append(f"rate gap {rate_gap:.2e} > {AB_RATE_TOL:g}")
        if alloc_gap > AB_ALLOC_TOL:
            failures.append(f"allocation gap {alloc_gap:.3g} > {AB_ALLOC_TOL:g}")
        return {"kkt_eq": kkt, "ab_rate_gap": rate_gap}, failures


class OutageAnalytic(Workload):
    """sop_closed_form and sop_integral on each outage setting."""

    name = "outage_analytic"
    required = ("sop_closed_form", "sop_integral", "integrate_semi_infinite",
                "scaled_exp_integral_ei")
    reference = ("interpreter", "quadrature", "quadrature")

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        return _sweep(rng) + _ladder(rng)

    def run(self, item):
        sc, = item.args
        return cj.sop_closed_form(sc), cj.sop_integral(sc)

    def check(self, item, out):
        closed, quad = out
        gap = abs(closed.p_out - quad.p_out)
        failures = []
        if not gap <= CLOSED_VS_INTEGRAL_TOL:
            failures.append(
                f"closed form {closed.p_out:.6f} (error estimate "
                f"{closed.error_estimate:.1e}) vs integral {quad.p_out:.6f}: "
                f"gap {gap:.1e} > {CLOSED_VS_INTEGRAL_TOL:g}")
        return {"closed_vs_integral": gap}, failures

    def known_defect(self, item, values, failures):
        """Whether the failures are the closed form's recorded defect.

        On the ladder, sop_closed_form disagrees with quadrature by up to
        0.98 at n = m = 3 and 4, and by up to about 1e-5 at n = m = 2.
        Those failures are counted and listed but do not by themselves
        mark the run incorrect.  A gap on n = m = 1, on the N2M1 sweep,
        or above KNOWN_N2M2_GAP at n = m = 2 is not the recorded defect.
        """
        if len(failures) != 1 or not failures[0].startswith("closed form "):
            return False
        if item.kind in ("n3m3", "n4m4"):
            return True
        return item.kind == "n2m2" and values["closed_vs_integral"] <= KNOWN_N2M2_GAP


class OutageMc(Workload):
    """estimate_sop at a fixed sample count on the outage settings of
    outage_analytic.

    The sweep's N2M1 points sit between the ladder's n = 1 and n = 2
    costs; without them the four equal ladder classes put the median
    item exactly between the n = 2 and n = 3 classes, where it would
    swing with the slowest n = 2 and fastest n = 3 timings.
    """

    name = "outage_mc"
    required = ("estimate_sop", "mc_outage_count")
    reference = ("interpreter", "memory")

    def __init__(self):
        self._reference = {}
        self.comparisons = 1

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        items = []
        for k, item in enumerate(_sweep(rng) + _ladder(rng)):
            mc_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            items.append(Item(item.label, item.kind, item.args + (mc_seed,)))
        # Every pass repeats the same streams, so a run makes one
        # independent comparison per outage setting.
        self.comparisons = len(items)
        return items

    @staticmethod
    def z_limit(comparisons):
        """Per-comparison |z| limit that keeps the chance of any false
        alarm among ``comparisons`` independent ones at
        MC_RUN_FALSE_ALARM (Sidak)."""
        per = 1.0 - (1.0 - MC_RUN_FALSE_ALARM) ** (1.0 / comparisons)
        return NormalDist().inv_cdf(1.0 - per / 2.0)

    def run(self, item):
        sc, mc_seed = item.args
        return cj.estimate_sop(sc, MC_SAMPLES, seed=mc_seed)

    def check(self, item, out):
        sc, _ = item.args
        if item.label not in self._reference:
            self._reference[item.label] = cj.sop_integral(sc).p_out
        ref = self._reference[item.label]
        z = abs(out.p_out - ref) / out.std_error if out.std_error > 0 else (
            0.0 if out.p_out == ref else float("inf"))
        limit = self.z_limit(self.comparisons)
        failures = []
        if not z <= limit:
            failures.append(f"Monte Carlo {out.p_out:.6f} vs integral {ref:.6f}: "
                            f"|z| {z:.2f} > {limit:.2f}")
        return {"mc_z": z}, failures


WORKLOADS = {w.name: w for w in (Crosscheck, OutageAnalytic, OutageMc)}
