import numpy as np
import pytest
from hypothesis import settings

from coopjam import Scenario, check_positive_secrecy, sample_channels
from coopjam.sop_analytic import SopScenario, min_relative_gap

# Property tests draw the same examples on every run, so a run's result
# is reproducible.  The "sweep" profile draws them from the seed given on
# the command line instead, to search for failures under other seeds:
#   python -m pytest tests/ --hypothesis-profile sweep --hypothesis-seed 7
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("sweep", derandomize=False, database=None)


@pytest.fixture
def scenario3x2():
    """The workhorse setting: three jammers capped at (1, 1, 3) W, two
    eavesdroppers, source 2 W, noise 0.1 everywhere."""
    return Scenario(n_jammers=3, n_eavesdroppers=2, p_source=2.0,
                    p_max=np.array([1.0, 1.0, 3.0]), sigma2_dest=0.1,
                    sigma2_eaves=np.array([0.1, 0.1]))


def feasible_draws(scenario, seed, count, start_index=0, max_tries=2000):
    """First ``count`` fading draws that admit positive secrecy."""
    out = []
    index = start_index
    while len(out) < count and index < start_index + max_tries:
        gains = sample_channels(scenario, seed, index=index)
        if check_positive_secrecy(scenario, gains).feasible:
            out.append(gains)
        index += 1
    assert len(out) == count, f"only {len(out)} feasible draws found"
    return out


def conditioned_sop_scenario(rng, n, m, rate=None):
    """Random outage setting safe for the closed form: comfortably
    separated powers and no destination pole colliding with an
    eavesdropper pole (which happens when some P_n is near p_source)."""
    while True:
        ps = rng.uniform(0.5, 8.0)
        p = rng.uniform(0.3, 5.0, size=n)
        r = rate if rate is not None else rng.uniform(0.1, 2.5)
        if min_relative_gap(p) < 0.15:
            continue
        mu = 2.0 ** r
        nu = 2.0 ** -r - 1.0
        kappa = ps / (mu * p) - nu
        lam = ps / p
        sep = np.abs(kappa[:, None] - lam[None, :]).min()
        if sep < 0.05 * max(1.0, lam.max()):
            continue
        s = Scenario(n_jammers=n, n_eavesdroppers=m, p_source=float(ps),
                     p_max=p, sigma2_dest=float(rng.uniform(0.05, 0.3)),
                     sigma2_eaves=rng.uniform(0.05, 0.3, size=m))
        return SopScenario(scenario=s, rate=float(r))
