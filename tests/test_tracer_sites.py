"""The benchmark tracer still sees every layer its workloads require.

``perfbench/spans.py`` wraps library functions at the module globals
their callers look up, and a traced benchmark run fails when a required
name records no call.  Moving an import site breaks that without
breaking any library test, so this runs the first seed-1 item of each
workload under the tracer.  The perfbench modules are loaded from their
files without writing bytecode next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = ("crosscheck", "outage_analytic", "outage_mc")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spans, workloads = _load("spans"), _load("workloads")
    finally:
        sys.dont_write_bytecode = write_bytecode
    yield spans, workloads
    for name in ("spans", "workloads"):
        sys.modules.pop(f"_perfbench_{name}", None)


def test_every_workload_is_covered(perfbench):
    _, workloads = perfbench
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_required_spans_record_calls(perfbench, name):
    spans, workloads = perfbench
    tracer = spans.Tracer()
    tracer.install(spans.resolve_patches())
    try:
        wl = workloads.WORKLOADS[name]()
        with tracer.span("setup"):
            pool = wl.inputs(1)
        with tracer.span("item"):
            wl.run(pool[0])
    finally:
        tracer.uninstall()
    summary, _ = tracer.summary()
    silent = [span for span in wl.required if not summary[span]["calls"]]
    assert not silent, f"{name}: the tracer saw no call of {silent}"
