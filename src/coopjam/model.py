"""Network description and exact secrecy-rate evaluation.

A ``Scenario`` fixes the deterministic side of the problem: one source
transmitting at ``p_source``, ``n_jammers`` friendly jammers with per-jammer
power caps ``p_max``, one destination with noise variance ``sigma2_dest``
and ``n_eavesdroppers`` eavesdroppers with noise variances ``sigma2_eaves``.
``ChannelGains`` holds one realisation of the squared channel magnitudes.
All quantities are linear (watts); dB conversion lives in the CLI only.

The secrecy rate log2((1 + SINR_d) / (1 + max_m SINR_e_m)) is built on
one kernel, ``_sinrs``, which forms both SINR quotients for one
allocation or a batch of them.  The public SINR and rate functions here
and the optimizers' exact scoring all call it.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidInputError


def _freeze(a, shape_name):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != len(shape_name):
        raise InvalidInputError(
            f"expected {len(shape_name)}-d array for {shape_name}, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class _ArrayEq:
    """Field-wise equality that copes with ndarray members."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in self.__dataclass_fields__)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Scenario(_ArrayEq):
    """Deterministic network parameters, all strictly positive."""

    n_jammers: int
    n_eavesdroppers: int
    p_source: float
    p_max: np.ndarray
    sigma2_dest: float
    sigma2_eaves: np.ndarray

    def __post_init__(self):
        if self.n_jammers < 1 or self.n_eavesdroppers < 1:
            raise InvalidInputError("need at least one jammer and one eavesdropper")
        object.__setattr__(self, "p_max", _freeze(self.p_max, "n"))
        object.__setattr__(self, "sigma2_eaves", _freeze(self.sigma2_eaves, "m"))
        if self.p_max.shape != (self.n_jammers,):
            raise InvalidInputError(
                f"p_max has shape {self.p_max.shape}, expected ({self.n_jammers},)")
        if self.sigma2_eaves.shape != (self.n_eavesdroppers,):
            raise InvalidInputError(
                f"sigma2_eaves has shape {self.sigma2_eaves.shape}, "
                f"expected ({self.n_eavesdroppers},)")
        vals = [self.p_source, self.sigma2_dest, *self.p_max, *self.sigma2_eaves]
        if not all(np.isfinite(v) and v > 0 for v in vals):
            raise InvalidInputError("powers and noise variances must be finite and > 0")


@dataclass(frozen=True, eq=False)
class ChannelGains(_ArrayEq):
    """One realisation of squared channel magnitudes (all >= 0).

    ``g_e[j, k]`` is the gain from jammer ``k`` to eavesdropper ``j``.
    """

    h_d: float
    h_e: np.ndarray
    g_d: np.ndarray
    g_e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_e", _freeze(self.h_e, "m"))
        object.__setattr__(self, "g_d", _freeze(self.g_d, "n"))
        object.__setattr__(self, "g_e", _freeze(self.g_e, "mn"))
        if self.g_e.shape != (self.h_e.size, self.g_d.size):
            raise InvalidInputError(
                f"g_e has shape {self.g_e.shape}, expected "
                f"({self.h_e.size}, {self.g_d.size})")
        if not np.isfinite(self.h_d) or self.h_d < 0:
            raise InvalidInputError("h_d must be finite and >= 0")
        for arr in (self.h_e, self.g_d, self.g_e):
            if not (np.isfinite(arr).all() and (arr >= 0).all()):
                raise InvalidInputError("gains must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class PowerAllocation(_ArrayEq):
    """Jammer transmit powers, one entry per jammer, all >= 0."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p, "n"))
        if not (np.isfinite(self.p).all() and (self.p >= 0).all()):
            raise InvalidInputError("powers must be finite and >= 0")


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


def _seed(value) -> int:
    """``value`` as a stream seed: an integer in [0, 2**64).  A seed out
    of that range would silently reuse the stream of the seed it is
    congruent to mod 2**64."""
    seed = _integer("seed", value)
    if not 0 <= seed < 2 ** 64:
        raise InvalidInputError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _p_vec(p):
    return np.asarray(p.p if isinstance(p, PowerAllocation) else p, dtype=float)


def _allocations(scenario: Scenario, p, batch: bool = False) -> np.ndarray:
    """``p``, one allocation or with ``batch`` the rows of a matrix, as a
    float array of N columns; InvalidInputError unless it has that shape
    and every entry is finite and >= 0."""
    try:
        p = _p_vec(p)
    except (TypeError, ValueError):
        raise InvalidInputError(f"allocation is not numeric: {p!r}") from None
    if batch:
        p = np.atleast_2d(p)
    if p.shape[-1:] != (scenario.n_jammers,) or p.ndim != 1 + batch:
        raise InvalidInputError(
            f"allocation shape {p.shape} does not give {scenario.n_jammers} "
            "jammer powers")
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise InvalidInputError("powers must be finite and >= 0")
    return p


def _check_type(name, value, cls):
    """InvalidInputError naming ``cls`` unless ``value`` is one."""
    if not isinstance(value, cls):
        raise InvalidInputError(
            f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _check_dims(scenario: Scenario, gains: ChannelGains):
    """The check of every (scenario, gains) entry point: the types, and
    gains shaped for the scenario's jammers and eavesdroppers."""
    _check_type("scenario", scenario, Scenario)
    _check_type("gains", gains, ChannelGains)
    if gains.g_e.shape != (scenario.n_eavesdroppers, scenario.n_jammers):
        raise InvalidInputError(
            f"gains shaped {gains.g_e.shape} do not match scenario "
            f"({scenario.n_eavesdroppers}, {scenario.n_jammers})")


def _sinrs(scenario: Scenario, gains: ChannelGains, p):
    """SINR_d and the SINR_e vector, the two quotients of the secrecy
    rate: a float and an (M,) array for one allocation ``p``, a (k,) and
    a (k, M) array for k allocations given as the rows of ``p``."""
    gd = scenario.p_source * gains.h_d / (p @ gains.g_d + scenario.sigma2_dest)
    ge = scenario.p_source * gains.h_e / (p @ gains.g_e.T
                                          + scenario.sigma2_eaves)
    return gd, ge


def sinr_destination(scenario: Scenario, gains: ChannelGains, p) -> float:
    """Destination SINR: source power over jamming-plus-noise."""
    _check_dims(scenario, gains)
    return _sinrs(scenario, gains, _allocations(scenario, p))[0]


def sinr_eavesdropper(scenario: Scenario, gains: ChannelGains, p, m: int) -> float:
    _check_dims(scenario, gains)
    if not 0 <= _integer("m", m) < scenario.n_eavesdroppers:
        raise InvalidInputError(f"eavesdropper index {m} out of range")
    return _sinrs(scenario, gains, _allocations(scenario, p))[1][m]


def secrecy_rate(scenario: Scenario, gains: ChannelGains, p) -> float:
    """Achievable secrecy rate in bits: capacity gap to the best
    eavesdropper, clamped at zero."""
    _check_dims(scenario, gains)
    gd, ge = _sinrs(scenario, gains, _allocations(scenario, p))
    return max(0.0, np.log2((1.0 + gd) / (1.0 + ge.max())))


def secrecy_rate_batch(scenario: Scenario, gains: ChannelGains, pmat) -> np.ndarray:
    """Vectorised secrecy rate for many allocations (rows of ``pmat``)."""
    _check_dims(scenario, gains)
    gd, ge = _sinrs(scenario, gains, _allocations(scenario, pmat, batch=True))
    return np.maximum(0.0, np.log2((1.0 + gd) / (1.0 + ge.max(axis=1))))


def sample_channels(scenario: Scenario, seed: int, index: int = 0) -> ChannelGains:
    """Draw one Rayleigh-fading realisation (unit-mean exponential power
    gains) from the counter-based stream used by the Monte Carlo kernel.

    ``index`` selects independent realisations under one seed; drawing
    index ``i`` here reproduces sample ``i`` of the streaming estimator.
    Raises InvalidInputError unless both are integers, seed is in
    [0, 2**64), index >= 0 and the sample's counters fit the stream's
    2**64.
    """
    seed = _seed(seed)
    index = _integer("index", index)
    if index < 0:
        raise InvalidInputError(f"index must be >= 0, got {index}")
    n, m = scenario.n_jammers, scenario.n_eavesdroppers
    if (index + 1) * (1 + m + n + m * n) > 2 ** 64:
        raise InvalidInputError(
            f"index {index} is past the end of the 2**64-counter stream")
    h_d, h_e, g_d, g_e = _kernels.draw_channel_arrays(seed, index, n, m)
    return ChannelGains(h_d=float(h_d), h_e=h_e, g_d=g_d, g_e=g_e)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "n_jammers": scenario.n_jammers,
        "n_eavesdroppers": scenario.n_eavesdroppers,
        "p_source": scenario.p_source,
        "p_max": scenario.p_max.tolist(),
        "sigma2_dest": scenario.sigma2_dest,
        "sigma2_eaves": scenario.sigma2_eaves.tolist(),
    }


def scenario_from_dict(d: dict) -> Scenario:
    try:
        return Scenario(
            n_jammers=int(d["n_jammers"]),
            n_eavesdroppers=int(d["n_eavesdroppers"]),
            p_source=float(d["p_source"]),
            p_max=d["p_max"],
            sigma2_dest=float(d["sigma2_dest"]),
            sigma2_eaves=d["sigma2_eaves"],
        )
    except KeyError as exc:
        raise InvalidInputError(f"scenario document missing key {exc}") from exc


def gains_to_dict(gains: ChannelGains) -> dict:
    return {
        "h_d": gains.h_d,
        "h_e": gains.h_e.tolist(),
        "g_d": gains.g_d.tolist(),
        "g_e": gains.g_e.tolist(),
    }


def gains_from_dict(d: dict) -> ChannelGains:
    try:
        return ChannelGains(h_d=float(d["h_d"]), h_e=d["h_e"],
                            g_d=d["g_d"], g_e=d["g_e"])
    except KeyError as exc:
        raise InvalidInputError(f"channel document missing key {exc}") from exc


def save_scenario(path, scenario: Scenario, gains: ChannelGains | None = None):
    doc = {"scenario": scenario_to_dict(scenario)}
    if gains is not None:
        doc["channels"] = gains_to_dict(gains)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    """Read a scenario document; returns (Scenario, ChannelGains or None)."""
    with open(path) as fh:
        doc = json.load(fh)
    if "scenario" not in doc:
        raise InvalidInputError("document has no 'scenario' section")
    scenario = scenario_from_dict(doc["scenario"])
    gains = gains_from_dict(doc["channels"]) if "channels" in doc else None
    if gains is not None:
        _check_dims(scenario, gains)
    return scenario, gains
