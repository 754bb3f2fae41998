"""Can jamming make the secrecy rate strictly positive?

For each eavesdropper, demanding a higher destination SINR than
eavesdropper SINR is linear in the jammer powers once cross-multiplied:

    sum_k p_k * (h_d * g_e[j,k] - h_e[j] * g_d[k])  >  h_e[j]*sigma2_d - h_d*sigma2_e[j]

A witness allocation inside the power box certifies feasibility.  Strict
inequalities are approximated by a small margin added to the right-hand
side, since LP solvers only handle closed constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import ChannelGains, PowerAllocation, Scenario, _check_dims
from .numerics import LinearProgram, lp_solve


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: PowerAllocation | None
    margin: float
    """Largest worst-case slack of the un-margined inequalities over the
    power box, feasible or not: at least the strict margin when
    feasible, below it when not (to LP tolerance).  The witness itself
    may have less slack."""


def default_strict_margin(scenario: Scenario, gains: ChannelGains) -> float:
    rhs = (gains.h_e * scenario.sigma2_dest
           - gains.h_d * scenario.sigma2_eaves)
    return 1e-9 * max(1.0, float(np.max(np.abs(rhs))))


def _inequalities(scenario: Scenario, gains: ChannelGains):
    """The cross-multiplied inequalities as (a, b) pairs, a @ p > b."""
    _check_dims(scenario, gains)
    return [(gains.h_d * gains.g_e[j] - gains.h_e[j] * gains.g_d,
             gains.h_e[j] * scenario.sigma2_dest
             - gains.h_d * scenario.sigma2_eaves[j])
            for j in range(scenario.n_eavesdroppers)]


def build_feasibility_lp(scenario: Scenario, gains: ChannelGains,
                         strict_margin: float) -> LinearProgram:
    """Minimum-total-power LP whose feasibility decides positive secrecy."""
    rows = tuple((a, ">=", b + strict_margin)
                 for a, b in _inequalities(scenario, gains))
    return LinearProgram(c=np.ones(scenario.n_jammers), rows=rows,
                         lower=np.zeros(scenario.n_jammers),
                         upper=scenario.p_max)


def build_max_slack_lp(scenario: Scenario, gains: ChannelGains) -> LinearProgram:
    """LP in (p, z) maximising the worst slack z <= a @ p - b of the
    inequalities over the power box."""
    n = scenario.n_jammers
    rows = tuple((np.append(a, -1.0), ">=", b)
                 for a, b in _inequalities(scenario, gains))
    return LinearProgram(c=np.append(np.zeros(n), -1.0), rows=rows,
                         lower=np.append(np.zeros(n), -np.inf),
                         upper=np.append(scenario.p_max, np.inf))


def check_positive_secrecy(scenario: Scenario, gains: ChannelGains,
                           strict_margin: float | None = None) -> FeasibilityVerdict:
    """Decide whether some in-box allocation yields secrecy rate > 0.

    The witness of a feasible verdict is the minimum-total-power
    allocation whose every slack is at least ``strict_margin``.  The
    margin, in both verdicts, is the optimum of ``build_max_slack_lp``:
    the largest worst-case slack any in-box allocation reaches against
    the un-margined inequalities.  A margin of ~0 means the instance
    sits on the feasibility boundary and the verdict is
    margin-sensitive.
    """
    if strict_margin is None:
        strict_margin = default_strict_margin(scenario, gains)
    res = lp_solve(build_feasibility_lp(scenario, gains, strict_margin))
    if res.status == "optimal":
        witness = PowerAllocation(np.clip(res.x, 0.0, scenario.p_max))
    elif res.status == "infeasible":
        witness = None
    else:
        raise NumericalError(
            f"feasibility LP ended with status {res.status}")
    aux = lp_solve(build_max_slack_lp(scenario, gains))
    if aux.status != "optimal":
        raise NumericalError(
            f"max-slack LP ended with status {aux.status}")
    return FeasibilityVerdict(feasible=witness is not None, witness=witness,
                              margin=float(aux.x[-1]))
