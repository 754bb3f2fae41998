"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They check that the metrics printed are the ones BENCHMARK.json
declares, that a seed changes inputs but not a workload's composition,
that spans nest, and that broken instrumentation stops the run.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_code():
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in DECLARED["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    # outage_mc is the cheapest workload; every workload prints its
    # metrics through the same code.
    result = _result("outage_mc", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def _values(item):
    out = []
    for arg in item.args:
        if isinstance(arg, workloads.cj.ChannelGains):
            out += [arg.h_d, *arg.h_e, *arg.g_d, *arg.g_e.ravel()]
        elif isinstance(arg, workloads.cj.SopScenario):
            out += [arg.rate, arg.scenario.p_source]
        elif isinstance(arg, int):
            out.append(arg)
    return np.array(out, dtype=float)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_not_composition(name):
    a = workloads.WORKLOADS[name]().inputs(7)
    b = workloads.WORKLOADS[name]().inputs(8)
    again = workloads.WORKLOADS[name]().inputs(7)
    assert [i.kind for i in a] == [i.kind for i in b]
    for x, y, z in zip(a, b, again):
        assert np.all(_values(x) != _values(y)), x.label
        assert np.array_equal(_values(x), _values(z)), x.label


def _assert_nested(tracer):
    name, parent, start, end = tracer.arrays()
    assert np.all(end >= start)
    child = parent >= 0
    assert np.all(start[parent[child]] <= start[child])
    assert np.all(end[child] <= end[parent[child]])
    summary, _ = tracer.summary()
    assert all(v["self_s"] >= -1e-12 for v in summary.values())
    return summary


def test_spans_nest_on_fake_module():
    # traced names without result hooks, so plain return values do
    fake = types.ModuleType("fake")

    def secrecy_rate():
        return sum(range(1000))

    def best_jammer_selection():
        return fake.secrecy_rate() + fake.secrecy_rate()

    def algorithm_a():
        return fake.best_jammer_selection() + fake.secrecy_rate()

    fake.secrecy_rate = secrecy_rate
    fake.best_jammer_selection = best_jammer_selection
    fake.algorithm_a = algorithm_a
    tracer = spans.Tracer()
    tracer.install([(fake, n, "x") for n in
                    ("secrecy_rate", "best_jammer_selection", "algorithm_a")])
    try:
        for _ in range(3):
            with tracer.span("item"):
                fake.algorithm_a()
    finally:
        tracer.uninstall()
    assert fake.secrecy_rate is secrecy_rate
    summary = _assert_nested(tracer)
    assert summary["item"]["calls"] == 3
    assert summary["algorithm_a"]["calls"] == 3
    assert summary["secrecy_rate"]["calls"] == 9
    self_total = sum(v["self_s"] for v in summary.values())
    assert self_total == pytest.approx(summary["item"]["busy_s"], rel=1e-9)


def test_spans_nest_on_library():
    wl = workloads.OutageAnalytic()
    pool = wl.inputs(3)
    picked = [i for i in pool if i.kind in ("n2m1", "n3m3")][:2]
    tracer = spans.Tracer()
    tracer.install(spans.resolve_patches())
    try:
        for item in picked:
            with tracer.span("item"):
                wl.run(item)
    finally:
        tracer.uninstall()
    summary = _assert_nested(tracer)
    _, under = tracer.summary(root="item")
    assert summary["scaled_exp_integral_ei"]["calls"] > 0
    assert set(under["scaled_exp_integral_ei"]) == {"sop_closed_form"}
    assert set(under["integrate_semi_infinite"]) == {"sop_integral"}


def test_missing_name_is_an_error(monkeypatch):
    monkeypatch.setattr(spans, "PATCHES",
                        spans.PATCHES + (("coopjam", "no_such_function", "model"),))
    with pytest.raises(spans.InstrumentationError, match="no_such_function"):
        spans.resolve_patches()
    for var in run.BLAS_THREAD_VARS:      # main() sets them; undo afterwards
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "outage_mc", "--seed", "1",
                     "--trace", "1"]) == 3


def test_unrecorded_layer_is_an_error():
    tracer = spans.Tracer()
    with pytest.raises(spans.InstrumentationError, match="gp_solve"):
        run.layer_metrics(tracer, workloads.Crosscheck(), [], {}, 1, None)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_latency(list(range(19))) is None
    assert run.tail_latency(list(range(20)))[0] == 50
    assert run.tail_latency(list(range(100)))[0] == 90
    assert run.tail_latency(list(range(1000)))[0] == 99


def test_mc_z_limit():
    from statistics import NormalDist
    for k in (1, 66):
        per = 2.0 * (1.0 - NormalDist().cdf(workloads.OutageMc.z_limit(k)))
        assert 1.0 - (1.0 - per) ** k == pytest.approx(
            workloads.MC_RUN_FALSE_ALARM, rel=1e-6)
    assert 4.7 < workloads.OutageMc.z_limit(66) < 4.9


def _analytic_record(kind, closed_p, quad_p):
    item = workloads.Item(f"{kind} forced", kind, ())
    closed = workloads.cj.SopResult(p_out=closed_p, method="closed",
                                    error_estimate=1e-12)
    quad = workloads.cj.SopResult(p_out=quad_p, method="integral",
                                  error_estimate=1e-12)
    return run.Record(item, (closed, quad), None, 0.0, 0.0)


@pytest.mark.parametrize("kind,closed_p,expected", [
    ("n1m1", 0.5, 1),      # agrees today: any gap is unexpected
    ("n2m1", 0.5, 1),      # the sweep agrees today too
    ("n2m2", 0.5, 1),      # far beyond the recorded ~1e-5 gap
    ("n2m2", 0.4 + 1e-5, 0),
    ("n3m3", 1.0, 0),
    ("n4m4", 0.0, 0),
])
def test_known_defect_is_narrow(kind, closed_p, expected):
    records = [_analytic_record(kind, closed_p, 0.4)]
    _, failures, unexpected = run.check_records(workloads.OutageAnalytic(),
                                                records)
    assert len(failures) == 1
    assert unexpected == expected
    assert failures[0][2] is (expected == 0)


def test_recorded_defect_is_listed_not_failed():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "outage_analytic",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0
    known = last["metrics"]["check.known_defect_items"]["value"]
    assert known > 0
    listed = [line for line in lines if "(x1, recorded defect)" in line]
    assert len(listed) == known


def test_result_counts_only_under_items():
    fake = types.ModuleType("fake")
    fake.lp_solve = lambda: types.SimpleNamespace(status="optimal")
    tracer = spans.Tracer()
    tracer.install([(fake, "lp_solve", "numerics")])
    try:
        with tracer.span("setup"):
            fake.lp_solve()
        with tracer.span("item"):
            fake.lp_solve()
    finally:
        tracer.uninstall()
    assert tracer.counts["lp.optimal"] == 1
    summary, _ = tracer.summary(root="item")
    assert summary["lp_solve"]["calls"] == 1
