"""Canned experiment runs behind the command line.

Every experiment writes a CSV with a schema comment line, a header row
and 12-significant-digit values, so reruns with the same seed produce
byte-identical files.  Units in files are linear watts; dB conversion
happens in the CLI argument layer only.
"""

import csv
import io
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegeneratePowersError, InvalidInputError,
                     NumericalError, ResourceLimitError)
from .feasibility import check_positive_secrecy
from .model import Scenario, sample_channels
from .power_opt import algorithm_a, algorithm_b, best_jammer_selection
from .sop_analytic import SopScenario, sop_closed_form, sop_integral
from .sop_mc import estimate_sop

log = logging.getLogger(__name__)

EXPERIMENTS = ("convergence", "table_ab", "comparison", "sop_vs_rate",
               "sop_vs_ps")

CSV_VERSION = "coopjam csv v1"

# GP solves allowed to each algorithm_a start
ASCENT_MAX_ITER = 300


@dataclass
class ExperimentConfig:
    experiment: str
    output: str | None = None
    seed: int = 0
    scenario: Scenario | None = None
    sweep: list = field(default_factory=list)
    n_channel_sets: int = 5
    mc_samples: int = 100_000

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}")


def default_scenario() -> Scenario:
    """Three jammers with caps (1, 1, 3) W, two eavesdroppers, source at
    2 W, all noise variances 0.1: the workhorse deterministic setting."""
    return Scenario(n_jammers=3, n_eavesdroppers=2, p_source=2.0,
                    p_max=np.array([1.0, 1.0, 3.0]), sigma2_dest=0.1,
                    sigma2_eaves=np.array([0.1, 0.1]))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_rows(header, rows, path=None) -> str:
    """Serialise rows deterministically; write to ``path`` if given and
    return the CSV text either way."""
    buf = io.StringIO()
    buf.write(f"# {CSV_VERSION} {','.join(header)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def _feasible_draws(scenario, seed, want):
    """First ``want`` fading draws with achievable positive secrecy,
    among the first 100 * ``want``."""
    max_tries = 100 * want
    out = []
    for index in range(max_tries):
        gains = sample_channels(scenario, seed, index=index)
        if check_positive_secrecy(scenario, gains).feasible:
            out.append((index, gains))
            if len(out) == want:
                return out
        else:
            log.debug("draw %d infeasible, skipping", index)
    raise InvalidInputError(
        f"only {len(out)}/{want} feasible draws in {max_tries} tries")


def run_convergence(cfg: ExperimentConfig):
    """Secrecy rate after each accepted ascent round, per fading draw."""
    s = cfg.scenario or default_scenario()
    rows = []
    for set_id, (index, gains) in enumerate(
            _feasible_draws(s, cfg.seed, cfg.n_channel_sets)):
        _, _, trace = algorithm_a(s, gains, max_iter=ASCENT_MAX_ITER)
        for it, rate in enumerate(trace.rates):
            rows.append((set_id, index, it, float(rate)))
    return ("channel_set", "draw_index", "iteration", "secrecy_rate"), rows


def run_table_ab(cfg: ExperimentConfig):
    """Side-by-side allocations from the ascent and the 1-d search."""
    s = cfg.scenario or default_scenario()
    rows = []
    for set_id, (index, gains) in enumerate(
            _feasible_draws(s, cfg.seed, cfg.n_channel_sets)):
        pa, ra, _ = algorithm_a(s, gains, max_iter=ASCENT_MAX_ITER)
        pb, rb = algorithm_b(s, gains)
        rows.append((set_id, index, "ascent", *map(float, pa.p), float(ra)))
        rows.append((set_id, index, "search", *map(float, pb.p), float(rb)))
    header = ("channel_set", "draw_index", "method",
              *(f"p{i+1}" for i in range(s.n_jammers)), "secrecy_rate")
    return header, rows


def run_comparison(cfg: ExperimentConfig):
    """Joint allocation against the best single jammer, over a sweep of
    equal power budgets (source and per-jammer caps set to the budget)."""
    base = cfg.scenario or Scenario(
        n_jammers=3, n_eavesdroppers=1, p_source=1.0,
        p_max=np.ones(3), sigma2_dest=0.1, sigma2_eaves=np.array([0.1]))
    budgets = list(cfg.sweep) or [0.5, 1.0, 2.0, 4.0, 8.0]
    rows = []
    for set_id in range(cfg.n_channel_sets):
        gains = sample_channels(base, cfg.seed, index=set_id)
        for budget in budgets:
            s = Scenario(n_jammers=base.n_jammers,
                         n_eavesdroppers=base.n_eavesdroppers,
                         p_source=float(budget),
                         p_max=np.full(base.n_jammers, float(budget)),
                         sigma2_dest=base.sigma2_dest,
                         sigma2_eaves=base.sigma2_eaves)
            if not check_positive_secrecy(s, gains).feasible:
                log.info("set %d budget %g infeasible, skipping", set_id, budget)
                continue
            _, ra, _ = algorithm_a(s, gains, max_iter=ASCENT_MAX_ITER)
            _, rb = best_jammer_selection(s, gains)
            rows.append((set_id, float(budget), "joint", float(ra)))
            rows.append((set_id, float(budget), "best_single", float(rb)))
    return ("channel_set", "power_budget", "method", "secrecy_rate"), rows


def _sop_point(sc: SopScenario, cfg: ExperimentConfig, config_label, sweep_value):
    """closed + integral + mc rows for one outage setting; the closed
    route drops out (flagged) where its preconditions fail."""
    rows = []
    flag = ""
    try:
        closed = sop_closed_form(sc)
        rows.append((config_label, sweep_value, "closed",
                     closed.p_out, closed.error_estimate, ""))
    except (DegeneratePowersError, NumericalError, ResourceLimitError) as exc:
        log.warning("closed form unavailable (%s); integral+mc only", exc)
        flag = "closed_unavailable"
    quad = sop_integral(sc)
    rows.append((config_label, sweep_value, "integral",
                 quad.p_out, quad.error_estimate, flag))
    mc = estimate_sop(sc, cfg.mc_samples, cfg.seed)
    rows.append((config_label, sweep_value, "mc",
                 mc.p_out, mc.std_error, flag))
    return rows


def run_sop_sweeps(cfg: ExperimentConfig):
    """Outage probability sweeps.

    sop_vs_rate: two jammers at 1 W and ~1.6 W, one eavesdropper,
    source 10**1.5 W, sweeping the target rate; shows the low-rate
    outage floor.  sop_vs_ps: matched jammer/eavesdropper counts 1..4
    with powers climbing ~26% per jammer, sweeping source power.
    """
    header = ("config", "sweep_value", "method", "p_out", "err", "flag")
    rows = []
    if cfg.experiment == "sop_vs_rate":
        s = Scenario(n_jammers=2, n_eavesdroppers=1,
                     p_source=10.0 ** 1.5,   # 15 dB
                     p_max=np.array([1.0, 10.0 ** 0.2]),  # 0 and 2 dB
                     sigma2_dest=0.1, sigma2_eaves=np.array([0.1]))
        targets = list(cfg.sweep) or [0.01, 0.05, 0.1, 0.25, 0.5, 1.0,
                                      1.5, 2.0, 2.5, 3.0]
        for r in targets:
            rows.extend(_sop_point(SopScenario(scenario=s, rate=float(r)),
                                   cfg, "n2m1", float(r)))
    elif cfg.experiment == "sop_vs_ps":
        ps_list = list(cfg.sweep) or [10.0 ** (d / 10.0)
                                      for d in (0, 5, 10, 15, 20, 25, 30)]
        p1 = 10.0 ** 0.1  # 1 dB
        rate = 0.01
        for count in (1, 2, 3, 4):
            p_max = p1 * (10.0 ** 0.1) ** np.arange(count)
            for ps in ps_list:
                s = Scenario(n_jammers=count, n_eavesdroppers=count,
                             p_source=float(ps), p_max=p_max,
                             sigma2_dest=0.1,
                             sigma2_eaves=np.full(count, 0.1))
                rows.extend(_sop_point(SopScenario(scenario=s, rate=rate),
                                       cfg, f"n{count}m{count}", float(ps)))
    else:
        raise InvalidInputError(f"not an outage sweep: {cfg.experiment}")
    return header, rows


def run_experiment(cfg: ExperimentConfig):
    """Dispatch; returns (header, rows) and writes cfg.output if set."""
    runner = {"convergence": run_convergence,
              "table_ab": run_table_ab,
              "comparison": run_comparison,
              "sop_vs_rate": run_sop_sweeps,
              "sop_vs_ps": run_sop_sweeps}[cfg.experiment]
    header, rows = runner(cfg)
    write_rows(header, rows, cfg.output)
    return header, rows
