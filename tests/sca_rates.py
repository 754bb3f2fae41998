"""Final rates and GP work of ``algorithm_a`` on 620 seeded calls.

A regression check for changes to the SCA ascent, run outside the test
suite (pytest does not collect this file).  The calls are criteria 1, 3
and 10's draws (20, 100 twice and 100, all with max_iter=300) and 300
random feasible draws: N <= 5, M <= 4, noise 0.1, generated from
``default_rng(2323)`` or the ``--rng`` given.  Each call prints one JSON
line with its rate and allocation, ``algorithm_b``'s rate on the same
draw, the GP solves and Newton steps it took, and the GP errors it
raised (a challenger start drops its errors silently).

Run it from the repository root on two checkouts and compare:

    python3 tests/sca_rates.py > new.jsonl
    python3 tests/sca_rates.py --rng 4242 > held_out.jsonl
    python3 tests/sca_rates.py --diff old.jsonl new.jsonl

The diff prints the totals, the number of calls whose rate and
allocation are both bit-identical, every rate that fell by more than
1e-9, and the draws that trail ``algorithm_b`` by more than 1e-6 and
1e-2 on either side.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from coopjam import (ChannelGains, CoopJamError, Scenario,  # noqa: E402
                     algorithm_a, algorithm_b, check_positive_secrecy,
                     power_opt, sample_channels)
from tests.conftest import feasible_draws  # noqa: E402
from tests.test_acceptance import WORKHORSE  # noqa: E402

MAX_ITER = 300
RANDOM_DRAWS = 300


def criterion_10_draws():
    """The draws criterion 10 runs, generated as it generates them."""
    rng = np.random.default_rng(1010)
    total = k = 0
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
        if check_positive_secrecy(s, g).feasible:
            total += 1
            yield s, g


def random_draws(seed):
    """RANDOM_DRAWS feasible draws of random shape up to 5 x 4."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < RANDOM_DRAWS:
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        s = Scenario(n_jammers=n, n_eavesdroppers=m,
                     p_source=float(rng.uniform(0.5, 5.0)),
                     p_max=rng.uniform(0.1, 4.0, size=n),
                     sigma2_dest=0.1, sigma2_eaves=np.full(m, 0.1))
        g = sample_channels(s, int(rng.integers(2 ** 32)),
                            index=int(rng.integers(1000)))
        if check_positive_secrecy(s, g).feasible:
            done += 1
            yield s, g


def calls(seed):
    """(name, scenario, gains, p0) of every call, in a fixed order."""
    for i, g in enumerate(feasible_draws(WORKHORSE, 101, 20)):
        yield f"c1/{i}", WORKHORSE, g, None
    for i, g in enumerate(feasible_draws(WORKHORSE, 202, 100)):
        yield f"c3/{i}", WORKHORSE, g, None
        yield f"c3/{i}/p_max", WORKHORSE, g, WORKHORSE.p_max
    for i, (s, g) in enumerate(criterion_10_draws()):
        yield f"c10/{i}", s, g, None
    for i, (s, g) in enumerate(random_draws(seed)):
        yield f"rng{seed}/{i}", s, g, None


def run(seed):
    real = power_opt.gp_solve
    newton, errors = [], []

    def counted(problem, **kwargs):
        try:
            sol = real(problem, **kwargs)
        except CoopJamError as err:
            errors.append(err)
            raise
        newton.append(sol.newton_iterations)
        return sol

    power_opt.gp_solve = counted
    try:
        for name, s, g, p0 in calls(seed):
            newton.clear()
            errors.clear()
            alloc, rate, trace = algorithm_a(s, g, p0=p0, max_iter=MAX_ITER)
            print(json.dumps({
                "call": name, "shape": f"{s.n_jammers}x{s.n_eavesdroppers}",
                "rate": rate, "allocation": alloc.p.tolist(),
                "rate_b": algorithm_b(s, g)[1],
                "gp_solves": len(newton) + len(errors),
                "newton_steps": sum(newton), "gp_errors": len(errors),
                "stop_reason": trace.stop_reason}), flush=True)
    finally:
        power_opt.gp_solve = real


def diff(old_path, new_path):
    def load(path):
        with open(path) as f:
            return {d["call"]: d for d in map(json.loads, f)}

    old, new = load(old_path), load(new_path)
    if old.keys() != new.keys():
        sys.exit("the two files hold different calls")
    for key in ("gp_solves", "newton_steps", "gp_errors"):
        a = sum(d[key] for d in old.values())
        b = sum(d[key] for d in new.values())
        print(f"{key}: {a} -> {b}" + (f" ({(b - a) / a:+.1%})" if a else ""))
    def bits(d):
        # JSON writes floats by repr, so equal text is equal bits (and
        # tells -0.0 from 0.0)
        return json.dumps([d["rate"], d.get("allocation")])

    # a file without allocations matches nothing
    same = sum("allocation" in old[k] and bits(old[k]) == bits(new[k])
               for k in old)
    print(f"rate and allocation bit-identical on {same} of {len(old)} calls")
    moves = np.array([new[k]["rate"] - old[k]["rate"] for k in old])
    print(f"rates rose on {(moves > 1e-9).sum()} calls, fell on "
          f"{(moves < -1e-9).sum()}, worst fall {max(0.0, -moves.min()):.2e}")
    for k in old:
        if new[k]["rate"] < old[k]["rate"] - 1e-9:
            print(f"  fell {k} ({old[k]['shape']}): {old[k]['rate']!r} -> "
                  f"{new[k]['rate']!r}")
    for gap in (1e-6, 1e-2):
        trail = [{k for k, d in side.items() if d["rate"] < d["rate_b"] - gap}
                 for side in (old, new)]
        print(f"trailing algorithm_b by more than {gap:g}: {len(trail[0])} -> "
              f"{len(trail[1])}, newly {sorted(trail[1] - trail[0])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rng", type=int, default=2323,
                        help="seed of the 300 random draws (default 2323)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two outputs instead of running")
    args = parser.parse_args()
    if args.diff:
        diff(*args.diff)
    else:
        run(args.rng)


if __name__ == "__main__":
    main()
