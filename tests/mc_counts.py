"""Monte Carlo outage estimates on 248 fixed settings, exact to the bit.

A regression check for changes to the counting kernel, run outside the
test suite (pytest does not collect this file).  The settings are the
``outage_mc`` benchmark workload's 66 at seeds 1, 2 and 3 (200,000
samples each, generated by the workload itself) and acceptance
criterion 6's 50 (ten million samples each).  Each prints one JSON line
with ``float.hex`` of its estimate, so any moved count shows.

Run it from the repository root on two checkouts and compare:

    python3 tests/mc_counts.py > new.jsonl
    python3 tests/mc_counts.py --diff old.jsonl new.jsonl
    python3 tests/mc_counts.py --time

The diff prints every setting whose estimate moved.  ``--time`` runs
the seed-1 workload settings on one worker and on two, a few passes
each, and prints each kind's milliseconds a pass, the minimum over the
passes.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from coopjam import _kernels, estimate_sop  # noqa: E402
from perfbench.workloads import MC_SAMPLES, OutageMc  # noqa: E402
from tests.conftest import conditioned_sop_scenario  # noqa: E402

WORKLOAD_SEEDS = (1, 2, 3)
CRITERION_6_SAMPLES = 10_000_000


def workload_settings(seed):
    """(name, kind, scenario, samples, mc seed) of the workload's items."""
    for k, item in enumerate(OutageMc().inputs(seed)):
        sc, mc_seed = item.args
        yield f"outage_mc/{seed}/{k}", item.kind, sc, MC_SAMPLES, mc_seed


def criterion_6_settings():
    """Criterion 6's inputs, generated as it generates them."""
    rng = np.random.default_rng(606)
    pairs = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    for i in range(50):
        n, m = pairs[i % 9]
        yield (f"c6/{i}", f"n{n}m{m}", conditioned_sop_scenario(rng, n, m),
               CRITERION_6_SAMPLES, 1000 + i)


def settings():
    for seed in WORKLOAD_SEEDS:
        yield from workload_settings(seed)
    yield from criterion_6_settings()


def run():
    for name, kind, sc, samples, seed in settings():
        est = estimate_sop(sc, samples, seed)
        print(json.dumps({"setting": name, "kind": kind, "samples": samples,
                          "seed": seed, "p_out": float.hex(est.p_out)}),
              flush=True)


def diff(old_path, new_path):
    def load(path):
        with open(path) as f:
            return {d["setting"]: d for d in map(json.loads, f)}

    old, new = load(old_path), load(new_path)
    if old.keys() != new.keys():
        sys.exit("the two files hold different settings")
    moved = [k for k in old if old[k]["p_out"] != new[k]["p_out"]]
    for k in moved:
        print(f"moved {k} ({old[k]['kind']}): "
              f"{float.fromhex(old[k]['p_out'])!r} -> "
              f"{float.fromhex(new[k]['p_out'])!r}")
    print(f"{len(moved)} of {len(old)} settings moved")


def timing(passes):
    items = list(workload_settings(1))
    kinds = sorted({kind for _, kind, *_ in items})
    real = _kernels._WORKERS
    try:
        for workers in (1, 2):
            _kernels._WORKERS = workers
            best = dict.fromkeys(kinds + ["total"], float("inf"))
            for _ in range(passes):
                spent = dict.fromkeys(kinds, 0.0)
                for _, kind, sc, samples, seed in items:
                    t0 = time.perf_counter()
                    estimate_sop(sc, samples, seed)
                    spent[kind] += time.perf_counter() - t0
                spent["total"] = sum(spent.values())
                best = {k: min(best[k], spent[k]) for k in best}
            print(f"{workers} worker{'s' if workers > 1 else ''}: "
                  + ", ".join(f"{k} {1e3 * v:.0f} ms"
                              for k, v in best.items()), flush=True)
    finally:
        _kernels._WORKERS = real


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two outputs instead of running")
    parser.add_argument("--time", action="store_true",
                        help="time the kinds on one and two workers")
    parser.add_argument("--passes", type=int, default=5,
                        help="passes per worker count with --time "
                             "(default 5)")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
    elif args.time:
        timing(args.passes)
    else:
        run()


if __name__ == "__main__":
    main()
