"""Span tracing of coopjam from outside the library.

The tracer replaces selected public functions with wrappers at the
names their callers look up (``coopjam.power_opt.gp_solve`` is what
``algorithm_a`` calls, ``coopjam.feasibility.lp_solve`` is what
``check_positive_secrecy`` calls, and so on).  Every wrapped call
becomes a span: name, start, end and the span that was open when it
began.  Self time is a span's duration minus the time its child spans
cover.  Spans live in flat arrays and are only summarised at the end.
"""

import functools
import importlib
from array import array
from time import perf_counter

# (module, attribute, layer).  The attribute is the span name; the layer
# is the coopjam module that defines the function.
PATCHES = (
    ("coopjam", "sample_channels", "model"),
    ("coopjam.power_opt", "secrecy_rate", "model"),
    ("coopjam", "check_positive_secrecy", "feasibility"),
    ("coopjam.feasibility", "lp_solve", "numerics"),
    ("coopjam.power_opt", "lp_solve", "numerics"),
    ("coopjam.sop_analytic", "integrate_semi_infinite", "numerics"),
    ("coopjam.sop_analytic", "scaled_exp_integral_ei", "numerics"),
    ("coopjam.power_opt", "build_approx_program", "gp"),
    ("coopjam.power_opt", "gp_solve", "gp"),
    ("coopjam", "algorithm_a", "power_opt"),
    ("coopjam", "algorithm_b", "power_opt"),
    ("coopjam.power_opt", "best_jammer_selection", "power_opt"),
    ("coopjam", "sop_closed_form", "sop_analytic"),
    ("coopjam", "sop_integral", "sop_analytic"),
    ("coopjam", "estimate_sop", "sop_mc"),
    ("coopjam.sop_mc", "mc_outage_count", "sop_mc"),
)

LAYERS = ("model", "feasibility", "numerics", "gp", "power_opt",
          "sop_analytic", "sop_mc", "bench")

# Spans the benchmark opens itself, around set-up and each timed item.
ROOT_SPANS = ("setup", "item")

TRACED_NAMES = tuple(dict.fromkeys(attr for _, attr, _ in PATCHES))


class InstrumentationError(RuntimeError):
    """A name the tracer must wrap is gone, or a layer went unrecorded."""


def resolve_patches():
    """Look up every patched name; raise if any is missing."""
    targets = []
    for modname, attr, layer in PATCHES:
        try:
            module = importlib.import_module(modname)
        except ImportError as exc:
            raise InstrumentationError(f"cannot import {modname}: {exc}") from exc
        if not callable(getattr(module, attr, None)):
            raise InstrumentationError(
                f"{modname}.{attr} is missing; the tracing table in "
                f"perfbench/spans.py no longer matches the library")
        targets.append((module, attr, layer))
    return targets


def _count_gp(counts, args, out):
    counts["gp.newton_steps"] += out.newton_iterations


def _count_lp(counts, args, out):
    counts["lp.optimal"] += out.status == "optimal"


def _count_quad(counts, args, out):
    counts["quad.evals"] += out.evaluations


def _count_mc(counts, args, out):
    counts["mc.samples"] += out.n_samples
    if out.std_error > 0:
        # samples a plain counter would need for the same standard error
        counts["mc.eff_samples"] += out.p_out * (1 - out.p_out) / out.std_error ** 2


RESULT_HOOKS = {
    "gp_solve": _count_gp,
    "lp_solve": _count_lp,
    "integrate_semi_infinite": _count_quad,
    "estimate_sop": _count_mc,
}

COUNT_KEYS = ("gp.newton_steps", "lp.optimal", "quad.evals", "mc.samples",
              "mc.eff_samples")


class Tracer:
    """Records nested spans in flat arrays (one entry per span)."""

    def __init__(self):
        self.names = list(ROOT_SPANS) + list(TRACED_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._item_id = self._ids["item"]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.recording = True
        self._stack = []
        self._saved = []

    def open(self, name):
        i = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        if self._stack.pop() != i:
            raise InstrumentationError("spans closed out of order")

    def span(self, name):
        return _Span(self, name)

    def install(self, targets):
        """Replace each target with a recording wrapper."""
        for module, attr, _ in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            # counts cover timed items only, like the summaries they
            # are divided by
            if hook is not None and self._stack and \
                    self.name_id[self._stack[0]] == self._item_id:
                hook(self.counts, args, out)
            return out

        return traced

    def arrays(self):
        """(name index, parent index, start, end) as numpy arrays."""
        import numpy as np
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def summary(self, root=None):
        """Per span name: calls, inclusive seconds and self seconds.

        With ``root``, only spans opened under a root span of that name
        count.  Also returns, per name, how many of those spans have a
        parent of each other name (for ratios such as LPs per
        algorithm_b call).
        """
        import numpy as np
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        keep = np.ones(dur.size, dtype=bool)
        if root is not None:
            top = list(range(dur.size))
            for i, p in enumerate(self.parent):   # parents precede children
                if p >= 0:
                    top[i] = top[p]
            keep = name[np.asarray(top, dtype=np.int64)] == self._ids[root]
        out = {}
        under = {}
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        for k, label in enumerate(self.names):
            sel = keep & (name == k)
            out[label] = {"calls": int(sel.sum()),
                          "busy_s": float(dur[sel].sum()),
                          "self_s": float(self_time[sel].sum())}
            under[label] = {self.names[p]: int(c) for p, c in zip(
                *np.unique(parent_name[sel & has_parent], return_counts=True))}
        return out, under


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def layer_of(name):
    if name in ROOT_SPANS:
        return "bench"
    for _, attr, layer in PATCHES:
        if attr == name:
            return layer
    raise KeyError(name)
