"""Monte Carlo secrecy outage estimation.

The empirical counterpart of sop_analytic: draw fading realisations,
count how often the achievable secrecy rate falls below the target.
Unlike the analytic routes this needs no distinct-power assumption, so
it also covers equal-power settings.  Sampling is counter-based and
fully reproducible per seed; see _kernels for the backend split.
"""

import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import active_backend, mc_outage_count
from .errors import InvalidInputError
from .sop_analytic import SopScenario


@dataclass(frozen=True)
class OutageEstimate:
    p_out: float
    std_error: float
    n_samples: int
    seed: int


def _integer(name, value) -> int:
    """``value`` as a plain int; InvalidInputError for a bool or a
    non-integer (a float seed would silently reuse another stream)."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(
            f"{name} must be an integer, got {value!r}") from None


def estimate_sop(sc: SopScenario, n_samples: int, seed: int,
                 backend: str | None = None) -> OutageEstimate:
    """Fraction of fading draws in outage, with its binomial standard
    error.  An outage is max_j SINR_e_j >= SINR_d/mu + nu, the exact
    complement of achieving the target rate.

    ``n_samples`` and ``seed`` must be integers (not bool); anything
    else raises InvalidInputError, as does ``n_samples < 1000``.

    ``backend`` picks the counting kernel: ``"numba"``, ``"numpy"`` or
    ``"auto"`` (numba when it imports); None reads ``COOPJAM_BACKEND``,
    default ``auto``.  An unknown name, or ``"numba"`` when numba is not
    installed, raises InvalidInputError.  The uniform draws are the same
    on every backend; counts agree up to last-ulp effects.  The numpy
    kernel spreads the samples over the process's CPUs; its count, and
    so the estimate, does not depend on how many there are.
    """
    n_samples = _integer("n_samples", n_samples)
    seed = _integer("seed", seed)
    if n_samples < 1000:
        raise InvalidInputError(
            f"n_samples must be >= 1000 for a usable error bar, got {n_samples}")
    s = sc.scenario
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    count = mc_outage_count(s.p_source, s.p_max, s.sigma2_dest,
                            s.sigma2_eaves, mu, nu, seed, n_samples,
                            backend=backend)
    p_hat = count / n_samples
    return OutageEstimate(p_out=p_hat,
                          std_error=float(np.sqrt(p_hat * (1 - p_hat)
                                                  / n_samples)),
                          n_samples=n_samples, seed=seed)


def backend_in_use() -> str:
    """Which kernel implementation estimate_sop will run."""
    return active_backend()
