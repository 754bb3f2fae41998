"""Monte Carlo secrecy outage estimation.

The empirical counterpart of sop_analytic: draw fading realisations,
count how often the achievable secrecy rate falls below the target.
Unlike the analytic routes this needs no distinct-power assumption, so
it also covers equal-power settings.  Sampling is counter-based and
fully reproducible per seed; see _kernels for the counting kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import mc_outage_count
from .errors import InvalidInputError, NumericalError
from .model import _integer, _seed
from .sop_analytic import SopScenario, _scenario_of

# The largest draw the stream gives, -log1p(-(1 - 2**-53)) = 53 ln 2.
_MAX_DRAW = -math.log1p(-(1.0 - 2.0 ** -53))


@dataclass(frozen=True)
class OutageEstimate:
    p_out: float
    std_error: float
    n_samples: int
    seed: int


def estimate_sop(sc: SopScenario, n_samples: int, seed: int) -> OutageEstimate:
    """Fraction of fading draws in outage, with its binomial standard
    error.  An outage is max_j SINR_e_j >= SINR_d/mu + nu, the exact
    complement of achieving the target rate.

    ``sc`` must be a SopScenario and ``n_samples`` and ``seed``
    integers (not bool); anything else raises InvalidInputError, as do
    ``n_samples < 1000``, a seed outside [0, 2**64) and a count whose
    counters, 1 + m + n + m*n per sample, run past the stream's 2**64.
    Powers and noise levels at which a sampled SINR could overflow a
    float raise NumericalError before any sampling.

    The kernel spreads the samples over the process's CPUs; its count,
    and so the estimate, does not depend on how many there are.
    """
    s = _scenario_of(sc)
    n_samples = _integer("n_samples", n_samples)
    seed = _seed(seed)
    if n_samples < 1000:
        raise InvalidInputError(
            f"n_samples must be >= 1000 for a usable error bar, got {n_samples}")
    n, m = s.n_jammers, s.n_eavesdroppers
    if n_samples * (1 + m + n + m * n) > 2 ** 64:
        raise InvalidInputError(
            f"n_samples {n_samples} runs past the end of the 2**64-counter "
            "stream")
    # Python floats, which overflow to inf without a numpy warning.
    noise = [float(s.sigma2_dest), *s.sigma2_eaves.tolist()]
    jammers = sum(s.p_max.tolist())
    peak = float(s.p_source) * _MAX_DRAW / min(noise)
    if not (math.isfinite(peak)
            and math.isfinite(_MAX_DRAW * jammers + max(noise))):
        raise NumericalError(
            f"sampled SINRs can overflow a float at p_source={s.p_source:g} "
            f"with p_max summing to {jammers:g} and noise down to "
            f"{min(noise):g}; rescale the powers and noise together")
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    count = mc_outage_count(s.p_source, s.p_max, s.sigma2_dest,
                            s.sigma2_eaves, mu, nu, seed, n_samples)
    p_hat = count / n_samples
    return OutageEstimate(p_out=p_hat,
                          std_error=float(np.sqrt(p_hat * (1 - p_hat)
                                                  / n_samples)),
                          n_samples=n_samples, seed=seed)


def backend_in_use() -> str:
    """Name of the counting kernel estimate_sop runs: always ``"numpy"``.

    There is one kernel; the name stays public because the benchmark
    harness records it in every run's provenance."""
    return "numpy"
