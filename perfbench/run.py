"""coopjam benchmark: one command for every workload.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 35 --trace 0

Run from the repository root.  The library is imported from ``src/``
next to this directory, never from an installed copy.  With
``--trace 0`` nothing is instrumented and the run prints the end-to-end
metrics; with ``--trace 1`` every layer boundary listed in ``spans.py``
records spans and the run prints the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

A run repeats whole passes over the workload's fixed pool of items
(see ``workloads.py``): the first pass always runs, and another starts
only while the first pass's duration says it will end by ``--seconds``.
Every pass does identical work, so pass count does not move any metric.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit).  BENCHMARK.json declares the same names and units.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("gp.solves", "count"),
    ("gp.newton_steps", "count"),
    ("gp.newton_per_solve", "count"),
    ("gp.ms_per_newton", "ms"),
    ("gp.busy_s", "s"),
    ("gp.build_busy_s", "s"),
    ("algorithm_a.sca_rounds", "count"),
    ("algorithm_a.busy_s", "s"),
    ("lp.calls", "count"),
    ("lp.busy_s", "s"),
    ("lp.ms_per_call", "ms"),
    ("lp.optimal_ratio", "ratio"),
    ("algorithm_b.busy_s", "s"),
    ("algorithm_b.lp_per_call", "count"),
    ("feasibility.calls", "count"),
    ("feasibility.busy_s", "s"),
    ("best_jammer.busy_s", "s"),
    ("integral.busy_s", "s"),
    ("quad.evals", "count"),
    ("quad.us_per_eval", "us"),
    ("closed.busy_s", "s"),
    ("ei.calls", "count"),
    ("ei.busy_s", "s"),
    ("mc.samples", "count"),
    ("mc.busy_s", "s"),
    ("mc.samples_per_s", "1/s"),
    ("mc.eff_samples_per_s", "1/s"),
    ("check.kkt_eq_max", "ratio"),
    ("check.ab_rate_gap_max", "bit/s/Hz"),
    ("check.closed_vs_integral_max", "probability"),
    ("check.mc_z_max", "sigma"),
    ("check.known_defect_items", "count"),
    ("traced.items_per_s", "1/s"),
    ("traced.item_ms_p50", "ms"),
    ("trace.spans", "count"),
    ("calibration.ms", "ms"),
) + tuple((f"self_s.{name}", "s") for name in (
    "item", "setup", "sample_channels", "secrecy_rate", "check_positive_secrecy",
    "lp_solve", "integrate_semi_infinite", "scaled_exp_integral_ei",
    "build_approx_program", "gp_solve", "algorithm_a", "algorithm_b",
    "best_jammer_selection", "sop_closed_form", "sop_integral",
    "estimate_sop", "mc_outage_count",
)) + tuple((f"layer_self_s.{layer}", "s") for layer in (
    "model", "feasibility", "numerics", "gp", "power_opt", "sop_analytic",
    "sop_mc", "bench",
))

SETUP_PROBES = 4      # extra set-ups in child processes; median of 1 + this
SETUP_CALIBRATIONS = 15
# One thread of load: numpy and scipy each bundle an OpenBLAS that would
# otherwise start a worker thread, three threads on two cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


@dataclass
class Record:
    item: object
    out: object
    err: Exception | None
    raw_s: float        # wall-clock seconds of the item
    nominal_s: float    # the same at the reference loop's nominal speed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit (used for the "
                         "repeated set-up measurement)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_library():
    """Import coopjam and the workload code from this checkout's src/."""
    if not (SRC / "coopjam" / "__init__.py").is_file():
        raise BenchError(f"no coopjam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coopjam
    if Path(coopjam.__file__).resolve().parent != SRC / "coopjam":
        raise BenchError(f"imported coopjam from {coopjam.__file__}, "
                         f"not from {SRC}")
    import workloads
    return coopjam, workloads


def setup(args):
    """Import, optional instrumentation and input generation.

    Returns the set-up time at nominal speed (setup_s) with the library
    handles; the speed comes from calibrations right after set-up.
    """
    t0 = time.perf_counter()
    coopjam, workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    targets = spans.resolve_patches()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(targets)
    wl = workloads.WORKLOADS[args.workload]()
    if tracer:
        with tracer.span("setup"):
            pool = wl.inputs(args.seed)
    else:
        pool = wl.inputs(args.seed)
    raw = time.perf_counter() - t0
    probe = speed.SpeedProbe(wl.reference)
    probe.warm_up()
    for _ in range(SETUP_CALIBRATIONS):
        probe.calibrate()
    setup_s = raw * probe.nominal_s / probe.median_seconds()
    return (raw, setup_s), coopjam, wl, pool, tracer, probe


def time_passes(wl, pool, seconds, tracer, probe, error_type):
    """Run whole passes over the pool, calibrating between items."""
    timed = []
    started = time.perf_counter()
    first_pass = None
    while True:
        pass_start = time.perf_counter()
        for item in pool:
            probe.between_items()
            with tracer.span("item") if tracer else nullcontext():
                t = time.perf_counter()
                try:
                    out, err = wl.run(item), None
                except error_type as exc:
                    out, err = None, exc
                end = time.perf_counter()
            timed.append((item, out, err, t, end))
        now = time.perf_counter()
        first_pass = first_pass or now - pass_start
        if now - started + first_pass > seconds:
            break
    probe.between_items()
    return [Record(item, out, err, end - t, (end - t) * probe.scale(t, end))
            for item, out, err, t, end in timed]


def check_records(wl, records):
    """Oracle checks outside the timing.

    Returns (check maxima, failures, unexpected) where failures lists
    (item label, reasons, known) per failed attempt, known telling
    whether the failure is a recorded library defect, and unexpected
    counts the failures that are not.
    """
    maxima = {}
    failures = []
    for r in records:
        if r.err is not None:
            reasons = [f"raised {type(r.err).__name__}: {r.err}"]
        else:
            values, reasons = wl.check(r.item, r.out)
            for key, value in values.items():
                maxima[key] = max(maxima.get(key, 0.0), value)
        if reasons:
            known = r.err is None and wl.known_defect(r.item, values, reasons)
            failures.append((r.item.label, reasons, known))
    unexpected = sum(not known for _, _, known in failures)
    return maxima, failures, unexpected


def tail_latency(times_ms):
    """Highest listed percentile with at least ten items beyond it."""
    n = len(times_ms)
    if n < 20:
        return None

    def rank(q):      # nearest rank, in exact arithmetic
        return max(1, math.ceil(Fraction(str(q)) * n / 100))

    q = max(p for p in TAIL_PERCENTILES if n - rank(p) >= 10)
    return q, sorted(times_ms)[rank(q) - 1]


def setup_probe_times(args):
    """Time SETUP_PROBES fresh set-ups, each in its own interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "coopjam").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def provenance(args, coopjam):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "process_threads": thread_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": coopjam.backend_in_use(),
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def layer_metrics(tracer, wl, records, maxima, passes, probe):
    """Per-layer metrics of a traced run.

    Counts and seconds are per pass over the pool, so they do not depend
    on how many passes fit in the run.
    """
    everything, _ = tracer.summary()
    missing = [name for name in wl.required if not everything[name]["calls"]]
    if missing:
        raise spans.InstrumentationError(
            f"workload {wl.name} recorded no calls to {', '.join(missing)}; "
            "an import site moved and the tracer no longer sees that layer")
    summary, under = tracer.summary(root="item")
    counts = {k: v / passes for k, v in tracer.counts.items()}

    def calls(name):
        return summary[name]["calls"] / passes

    def busy(name):
        return summary[name]["busy_s"] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    times = [r.nominal_s for r in records]
    m = {
        "gp.solves": calls("gp_solve"),
        "gp.newton_steps": counts["gp.newton_steps"],
        "gp.newton_per_solve": ratio(counts["gp.newton_steps"], calls("gp_solve")),
        "gp.ms_per_newton": 1e3 * ratio(busy("gp_solve"), counts["gp.newton_steps"]),
        "gp.busy_s": busy("gp_solve"),
        "gp.build_busy_s": busy("build_approx_program"),
        "algorithm_a.sca_rounds": ratio(calls("build_approx_program"),
                                        calls("algorithm_a")),
        "algorithm_a.busy_s": busy("algorithm_a"),
        "lp.calls": calls("lp_solve"),
        "lp.busy_s": busy("lp_solve"),
        "lp.ms_per_call": 1e3 * ratio(busy("lp_solve"), calls("lp_solve")),
        "lp.optimal_ratio": ratio(counts["lp.optimal"], calls("lp_solve")),
        "algorithm_b.busy_s": busy("algorithm_b"),
        "algorithm_b.lp_per_call": ratio(under["lp_solve"].get("algorithm_b", 0),
                                         calls("algorithm_b")),
        "feasibility.calls": calls("check_positive_secrecy"),
        "feasibility.busy_s": busy("check_positive_secrecy"),
        "best_jammer.busy_s": busy("best_jammer_selection"),
        "integral.busy_s": busy("sop_integral"),
        "quad.evals": counts["quad.evals"],
        "quad.us_per_eval": 1e6 * ratio(busy("integrate_semi_infinite"),
                                        counts["quad.evals"]),
        "closed.busy_s": busy("sop_closed_form"),
        "ei.calls": calls("scaled_exp_integral_ei"),
        "ei.busy_s": busy("scaled_exp_integral_ei"),
        "mc.samples": counts["mc.samples"],
        "mc.busy_s": busy("estimate_sop"),
        "mc.samples_per_s": ratio(counts["mc.samples"], busy("estimate_sop")),
        "mc.eff_samples_per_s": ratio(counts["mc.eff_samples"], busy("estimate_sop")),
        "check.kkt_eq_max": maxima.get("kkt_eq", 0.0),
        "check.ab_rate_gap_max": maxima.get("ab_rate_gap", 0.0),
        "check.closed_vs_integral_max": maxima.get("closed_vs_integral", 0.0),
        "check.mc_z_max": maxima.get("mc_z", 0.0),
        "traced.items_per_s": len(times) / sum(times),
        "traced.item_ms_p50": 1e3 * statistics.median(times),
        "trace.spans": sum(v["calls"] for v in summary.values()) / passes,
        "calibration.ms": 1e3 * probe.median_seconds(),
    }
    for name in tracer.names:
        m[f"self_s.{name}"] = summary[name]["self_s"] / passes
    # set-up runs once, before the passes
    m["self_s.setup"] = everything["setup"]["self_s"]
    for layer in spans.LAYERS:
        m[f"layer_self_s.{layer}"] = sum(
            summary[name]["self_s"] for name in tracer.names
            if spans.layer_of(name) == layer) / passes
    return m, summary


def run(args):
    setup_s, coopjam, wl, pool, tracer, probe = setup(args)
    if args.setup_only:
        print(f"{setup_s[0]:.6f} {setup_s[1]:.6f}")
        return 0
    records = time_passes(wl, pool, args.seconds, tracer, probe,
                          coopjam.CoopJamError)
    if tracer:
        tracer.recording = False
    maxima, failures, unexpected = check_records(wl, records)
    attempted = len(records)
    passes = attempted // len(pool)
    times_ms = [1e3 * r.nominal_s for r in records]
    raw_ms = [1e3 * r.raw_s for r in records]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{passes} pass(es) over {len(pool)} items, {attempted} attempted")
    print("provenance " + json.dumps(provenance(args, coopjam), sort_keys=True))
    print(f"reference loop: median {1e3 * probe.median_seconds():.3f} ms over "
          f"{len(probe.samples)} calibrations, nominal "
          f"{1e3 * probe.nominal_s:.3f} ms")

    if tracer:
        metrics, summary = layer_metrics(tracer, wl, records, maxima, passes,
                                         probe)
        metrics["check.known_defect_items"] = (len(failures) - unexpected) / passes
        units = dict(PER_LAYER)
        timed = sum(r.raw_s for r in records)
        print("self time per pass over timed items (raw s, share):")
        ranked = sorted(((metrics[f"self_s.{n}"], n) for n in tracer.names
                         if n != "setup"), reverse=True)
        for self_s, name in ranked:
            if summary[name]["calls"]:
                print(f"  {name:26s} {self_s:10.4f}  "
                      f"{self_s * passes / timed:6.1%}  "
                      f"calls={summary[name]['calls'] // passes}")
        print(f"largest self time: {ranked[0][1]}")
    else:
        setups = [setup_s] + setup_probe_times(args)
        metrics = {
            "setup_s": statistics.median(s for _, s in setups),
            "items_per_s": attempted / (sum(times_ms) / 1e3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for _, s in setups)}")
        print(f"raw wall clock: setup_s {statistics.median(r for r, _ in setups):.6g}, "
              f"items_per_s {attempted / (sum(raw_ms) / 1e3):.6g}, "
              f"item_ms_p50 {statistics.median(raw_ms):.6g}")
        print(f"item_ms_p50: {statistics.median(times_ms):.4f} ms over "
              f"{attempted} items")
        tail = tail_latency(times_ms)
        if tail:
            print(f"item_ms_tail: p{tail[0]:g} = {tail[1]:.4f} ms over "
                  f"{attempted} items")
        else:
            print(f"item_ms_tail: omitted, {attempted} items < 20")
    print(f"fail_ratio: {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f} ({len(failures) - unexpected} "
          f"recorded library defect, {unexpected} not; the result's "
          f"'failed' counts the latter)")
    for name, value in metrics.items():
        if value or not tracer:
            print(f"  {name:32s} {value:16.6g} {units[name]}")
    if failures:
        distinct = {}
        for label, reasons, known in failures:
            distinct.setdefault(label, [reasons, known, 0])[2] += 1
        print(f"failing items ({len(distinct)} distinct, "
              f"{unexpected} failures not a recorded defect):")
        for label, (reasons, known, count) in distinct.items():
            tag = "recorded defect" if known else "UNEXPECTED"
            print(f"  {label} (x{count}, {tag}): {'; '.join(reasons)}")

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        # The recorded defect is counted in fail_ratio, listed above and
        # reported as check.known_defect_items; 'failed' holds the rest,
        # the failures that also make the run incorrect.
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        return run(args)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except spans.InstrumentationError as exc:
        print(f"perfbench: instrumentation broken: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
