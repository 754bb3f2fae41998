"""Can jamming make the secrecy rate strictly positive?

For each eavesdropper, demanding a higher destination SINR than
eavesdropper SINR is linear in the jammer powers once cross-multiplied:

    sum_k p_k * (h_d * g_e[j,k] - h_e[j] * g_d[k])  >  h_e[j]*sigma2_d - h_d*sigma2_e[j]

LP solvers only handle closed constraints, so the strict inequalities
are decided in max-min slack form (phase I by maximum infeasibility):
one LP maximises z subject to z <= a_j @ p - b_j for every row and p in
the power box.  The rows hold strictly, up to a small ``strict_margin``,
exactly when the optimal z reaches that margin, and the optimal p is a
witness allocation whose worst slack is z.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .model import ChannelGains, PowerAllocation, Scenario, _check_dims
from .numerics import LinearProgram, lp_solve


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: PowerAllocation | None
    margin: float
    """Largest worst-case slack of the un-margined inequalities over the
    power box, feasible or not: at least the strict margin when
    feasible, below it when not (to LP tolerance).  The witness attains
    it: its worst slack is the margin."""


def default_strict_margin(scenario: Scenario, gains: ChannelGains) -> float:
    rhs = (gains.h_e * scenario.sigma2_dest
           - gains.h_d * scenario.sigma2_eaves)
    return 1e-9 * max(1.0, float(np.max(np.abs(rhs))))


def build_max_slack_lp(scenario: Scenario, gains: ChannelGains) -> LinearProgram:
    """LP in (p, z) maximising the worst slack z <= a @ p - b of the
    inequalities over the power box."""
    _check_dims(scenario, gains)
    n = scenario.n_jammers
    a = gains.h_d * gains.g_e - gains.h_e[:, None] * gains.g_d
    b = gains.h_e * scenario.sigma2_dest - gains.h_d * scenario.sigma2_eaves
    return LinearProgram(c=np.append(np.zeros(n), -1.0),
                         a=np.column_stack([a, -np.ones(b.size)]),
                         row_lower=b,
                         lower=np.append(np.zeros(n), -np.inf),
                         upper=np.append(scenario.p_max, np.inf))


def check_positive_secrecy(scenario: Scenario, gains: ChannelGains,
                           strict_margin: float | None = None) -> FeasibilityVerdict:
    """Decide whether some in-box allocation yields secrecy rate > 0.

    One LP, ``build_max_slack_lp``, gives the margin: the largest
    worst-case slack any in-box allocation reaches against the
    un-margined inequalities.  The verdict is feasible when the margin
    is at least ``strict_margin`` (finite; by default
    ``default_strict_margin``), and then the witness is the LP's
    allocation, whose worst slack is the margin.  A margin of ~0 means
    the instance sits on the feasibility boundary and the verdict is
    margin-sensitive.
    """
    _check_dims(scenario, gains)
    if strict_margin is None:
        strict_margin = default_strict_margin(scenario, gains)
    elif not np.isfinite(strict_margin):
        raise InvalidInputError(
            f"strict_margin must be finite, got {strict_margin}")
    res = lp_solve(build_max_slack_lp(scenario, gains))
    if res.status != "optimal":
        raise NumericalError(f"max-slack LP ended with status {res.status}")
    margin = float(res.x[-1])
    witness = (PowerAllocation(np.clip(res.x[:-1], 0.0, scenario.p_max))
               if margin >= strict_margin else None)
    return FeasibilityVerdict(feasible=witness is not None, witness=witness,
                              margin=margin)
