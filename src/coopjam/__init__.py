"""Cooperative jamming for physical-layer secrecy: optimal jammer power
allocation against multiple eavesdroppers, plus exact and empirical
secrecy outage probability under Rayleigh fading."""

from .errors import (AccuracyError, CoopJamError, DegeneratePowersError,
                     DomainError, InvalidInputError, NumericalError,
                     ResourceLimitError)
from .feasibility import FeasibilityVerdict, check_positive_secrecy
from .model import (ChannelGains, PowerAllocation, Scenario, load_scenario,
                    sample_channels, save_scenario, secrecy_rate,
                    sinr_destination, sinr_eavesdropper)
from .power_opt import (IterationTrace, KktReport, algorithm_a, algorithm_b,
                        best_jammer_selection, kkt_check)
from .sop_analytic import (SopResult, SopScenario, sop_closed_form,
                           sop_closed_form_n2m1, sop_integral)
from .sop_mc import OutageEstimate, backend_in_use, estimate_sop

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ChannelGains", "CoopJamError", "DegeneratePowersError",
    "DomainError", "FeasibilityVerdict", "InvalidInputError",
    "IterationTrace", "KktReport", "NumericalError", "OutageEstimate",
    "PowerAllocation", "ResourceLimitError", "Scenario", "SopResult",
    "SopScenario", "algorithm_a", "algorithm_b", "backend_in_use",
    "best_jammer_selection", "check_positive_secrecy", "estimate_sop",
    "kkt_check", "load_scenario", "sample_channels", "save_scenario",
    "secrecy_rate", "sinr_destination", "sinr_eavesdropper",
    "sop_closed_form", "sop_closed_form_n2m1", "sop_integral",
]
