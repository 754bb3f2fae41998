"""Command line front end.

Exit codes: 0 success, 2 instance infeasible (no positive secrecy), 3
library failure (bad input, degenerate powers, numerics).  Scenario
files and CSV outputs are always linear watts; the dB options here are
the only place dB is converted (x_dB = 10*log10 x).
"""

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .errors import CoopJamError, DegeneratePowersError, ResourceLimitError
from .experiments import (EXPERIMENTS, ExperimentConfig, default_scenario,
                          run_experiment, write_rows)
from .feasibility import check_positive_secrecy
from .model import (load_scenario, sample_channels, save_scenario,
                    scenario_to_dict)
from .power_opt import algorithm_a, algorithm_b, best_jammer_selection
from .sop_analytic import (SopScenario, sop_closed_form, sop_closed_form_n2m1,
                           sop_integral)
from .sop_mc import estimate_sop

EXIT_INFEASIBLE = 2
EXIT_FAILURE = 3


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CoopJamError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FAILURE)
    return wrapper


def _load(scenario_path, seed, index):
    if scenario_path:
        scenario, gains = load_scenario(scenario_path)
    else:
        scenario, gains = default_scenario(), None
    if gains is None:
        gains = sample_channels(scenario, seed, index=index)
    return scenario, gains


def _emit(doc, as_json):
    if as_json:
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in doc.items():
            click.echo(f"{key}: {value}")


@click.group()
@click.version_option(version=__version__)
def main():
    """Jammer power allocation and secrecy outage analysis."""


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(exists=True),
              help="Scenario JSON (default: built-in 3x2 setting).")
@click.option("--seed", default=0, show_default=True,
              help="Fading seed when the file has no channels section.")
@click.option("--index", default=0, show_default=True,
              help="Fading draw index under the seed.")
@click.option("--margin", type=float, default=None,
              help="Strict-inequality margin override.")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def feasibility(scenario_path, seed, index, margin, as_json):
    """Check whether positive secrecy is achievable."""
    scenario, gains = _load(scenario_path, seed, index)
    verdict = check_positive_secrecy(scenario, gains, strict_margin=margin)
    doc = {"feasible": verdict.feasible, "margin": verdict.margin}
    if verdict.witness is not None:
        doc["witness"] = verdict.witness.p.tolist()
    _emit(doc, as_json)
    if not verdict.feasible:
        sys.exit(EXIT_INFEASIBLE)


@main.command()
@click.option("--scenario", "scenario_path", type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--index", default=0, show_default=True)
@click.option("--method", type=click.Choice(["a", "b", "best-jammer"]),
              default="a", show_default=True,
              help="a: GP ascent, b: 1-d search, best-jammer: baseline.")
@click.option("--tol", default=1e-6, show_default=True)
@click.option("--max-iter", default=100, show_default=True)
@click.option("--out", "out_path", type=click.Path(),
              help="Write the result JSON here instead of stdout.")
@click.option("--json", "as_json", is_flag=True)
@_guarded
def optimize(scenario_path, seed, index, method, tol, max_iter, out_path,
             as_json):
    """Maximise the secrecy rate over jammer powers."""
    scenario, gains = _load(scenario_path, seed, index)
    verdict = check_positive_secrecy(scenario, gains)
    if not verdict.feasible:
        click.echo(f"infeasible: best margin {verdict.margin:.3e}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    doc = {"method": method, "seed": seed, "index": index}
    if method == "a":
        alloc, rate, trace = algorithm_a(scenario, gains, tol=tol,
                                         max_iter=max_iter)
        doc.update(iterations=len(trace.iterations),
                   converged=trace.converged,
                   stop_reason=trace.stop_reason)
    elif method == "b":
        alloc, rate = algorithm_b(scenario, gains)
    else:
        alloc, rate = best_jammer_selection(scenario, gains)
    doc.update(allocation=alloc.p.tolist(), secrecy_rate=rate)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"wrote {out_path}")
    else:
        _emit(doc, as_json)


@main.command()
@click.option("--rate", required=True, type=float,
              help="Secrecy-rate target in bits (> 0).")
@click.option("--scenario", "scenario_path", type=click.Path(exists=True))
@click.option("--method",
              type=click.Choice(["closed", "closed-n2m1", "integral", "mc",
                                 "all"]),
              default="integral", show_default=True)
@click.option("--samples", default=1_000_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@_guarded
def sop(rate, scenario_path, method, samples, seed, as_json):
    """Secrecy outage probability when jammers transmit at p_max.

    With --method all, a closed form that cannot run (tied powers, too
    many terms) is reported as null with the reason."""
    if scenario_path:
        scenario, _ = load_scenario(scenario_path)
    else:
        scenario = default_scenario()
    sc = SopScenario(scenario=scenario, rate=rate)
    doc = {"rate": rate, "method": method,
           "p_max": scenario.p_max.tolist(), "p_source": scenario.p_source}
    if method in ("closed", "all"):
        try:
            res = sop_closed_form(sc)
            doc.update(closed=res.p_out, closed_err=res.error_estimate)
        except (DegeneratePowersError, ResourceLimitError) as exc:
            if method == "closed":
                raise
            doc.update(closed=None, closed_unavailable=str(exc))
    if method == "closed-n2m1":
        doc["closed_n2m1"] = sop_closed_form_n2m1(sc).p_out
    if method in ("integral", "all"):
        res = sop_integral(sc)
        doc["integral"] = res.p_out
        doc["integral_err"] = res.error_estimate
    if method in ("mc", "all"):
        est = estimate_sop(sc, samples, seed)
        doc.update(mc=est.p_out, mc_std_error=est.std_error)
    _emit(doc, as_json)


@main.command()
@click.option("--name", type=click.Choice(EXPERIMENTS), required=True)
@click.option("--scenario", "scenario_path", type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path())
@click.option("--samples", default=100_000, show_default=True,
              help="Monte Carlo samples per outage point.")
@click.option("--sets", default=5, show_default=True,
              help="Fading draws per deterministic experiment.")
@click.option("--sweep", default=None,
              help="Comma-separated sweep values (linear units).")
@click.option("--sweep-db", default=None,
              help="Comma-separated sweep values in dB (powers only).")
@_guarded
def experiment(name, scenario_path, seed, out_path, samples, sets, sweep,
               sweep_db):
    """Run a canned experiment and emit its CSV."""
    if sweep and sweep_db:
        raise click.UsageError("--sweep and --sweep-db are exclusive")
    values = []
    if sweep:
        values = [float(v) for v in sweep.split(",")]
    elif sweep_db:
        values = [10.0 ** (float(v) / 10.0) for v in sweep_db.split(",")]
    scenario = None
    if scenario_path:
        scenario, _ = load_scenario(scenario_path)
    cfg = ExperimentConfig(experiment=name, output=out_path, seed=seed,
                           scenario=scenario, sweep=values,
                           n_channel_sets=sets, mc_samples=samples)
    header, rows = run_experiment(cfg)
    if out_path:
        click.echo(f"wrote {out_path} ({len(rows)} rows)")
    else:
        click.echo(write_rows(header, rows), nl=False)


@main.command("make-scenario")
@click.argument("path", type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--index", default=0, show_default=True)
@click.option("--with-channels", is_flag=True,
              help="Embed one sampled fading draw in the file.")
@_guarded
def make_scenario(path, seed, index, with_channels):
    """Write the built-in scenario as an editable JSON template."""
    scenario = default_scenario()
    gains = sample_channels(scenario, seed, index) if with_channels else None
    save_scenario(path, scenario, gains)
    click.echo(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
