"""Secrecy outage probability over Rayleigh fading, analytically.

With unit-mean exponential power gains, the jamming sum at fixed powers
P_n has the Laplace transform L(x) = prod_n p_s / (P_n x + p_s), so a
receiver with noise sigma2 sees an SINR with CDF
1 - exp(-sigma2 x / p_s) L(x) for any positive powers, tied ones
included; the eavesdroppers' best SINR has the product of their CDFs.
The outage probability

    P_out = Pr[secrecy rate < target]

is then a single semi-infinite integral, evaluated by quadrature in
sop_integral.  It also collapses to exponential-integral terms after a
binomial expansion of the CDF product and a partial-fraction split
(the hypoexponential coefficients A_n) of every rational factor; that
closed form and the printed two-jammer/one-eavesdropper special case
need pairwise-distinct jammer powers.  The routes cross-check each
other; the Monte Carlo route lives in sop_mc.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import (DegeneratePowersError, InvalidInputError,
                     ResourceLimitError)
from .model import Scenario, _integer
from .numerics import integrate_semi_infinite, scaled_exp_integral_ei

MIN_RELATIVE_POWER_GAP = 1e-6
_POLE_GAP = 1e-9


def min_relative_gap(powers) -> float:
    p = np.sort(np.asarray(powers, dtype=float))
    if p.size < 2:
        return np.inf
    return float(np.min(np.diff(p) / p[1:]))


def require_distinct(powers, min_gap: float, context: str):
    gap = min_relative_gap(powers)
    if gap < min_gap:
        raise DegeneratePowersError(
            f"{context}: jammer powers too close (relative gap {gap:.2e} "
            f"< {min_gap:.0e}); separate them, or use sop_integral or "
            "estimate_sop, which accept tied powers")


@dataclass(frozen=True)
class SopScenario:
    """Statistical outage setting: jammers always transmit at p_max and
    the secrecy-rate target is strictly positive."""

    scenario: Scenario
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise InvalidInputError(f"rate target must be > 0, got {self.rate}")


def coeff_a(powers) -> np.ndarray:
    """Partial-fraction coefficients of the sum of independent
    exponentials with distinct means: A_n = 1/(P_n prod_{j!=n}(1 - P_j/P_n)).
    They satisfy sum_n A_n P_n = 1."""
    p = np.asarray(powers, dtype=float)
    require_distinct(p, _POLE_GAP, "coeff_a")
    out = np.empty(p.size)
    for n in range(p.size):
        ratio = np.delete(p, n) / p[n]
        out[n] = 1.0 / (p[n] * np.prod(1.0 - ratio))
    return out


@dataclass(frozen=True)
class SopConstants:
    """Scalars the outage formulas are written in."""

    mu: float            # 2**rate
    nu: float            # 2**(-rate) - 1, always <= 0
    xi: float            # sigma2_dest * mu / p_source
    kappa: np.ndarray    # destination-side poles, one per jammer
    lam: np.ndarray      # eavesdropper-side poles p_source / P_n
    a_coeff: np.ndarray
    psi_subsets: dict
    """Exponential decay rate for each eavesdropper subset:
    xi + sum_{j in subset} sigma2_eaves[j] / p_source."""


def sop_constants(sc: SopScenario) -> SopConstants:
    s = sc.scenario
    require_distinct(s.p_max, MIN_RELATIVE_POWER_GAP, "sop_constants")
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    xi = s.sigma2_dest * mu / s.p_source
    kappa = s.p_source / (mu * s.p_max) - nu
    lam = s.p_source / s.p_max
    a = coeff_a(s.p_max)
    total = float(np.abs(a * s.p_max).sum())
    if abs(float(a @ s.p_max) - 1.0) > 1e-9 * max(1.0, total):
        raise DegeneratePowersError(
            "partial-fraction identity sum A_n P_n = 1 lost to rounding; "
            "jammer powers are too close")
    psi = {}
    for size in range(s.n_eavesdroppers + 1):
        for subset in itertools.combinations(range(s.n_eavesdroppers), size):
            psi[subset] = xi + sum(s.sigma2_eaves[j] for j in subset) / s.p_source
    return SopConstants(mu=mu, nu=nu, xi=xi, kappa=kappa, lam=lam,
                        a_coeff=a, psi_subsets=psi)


# ---------------------------------------------------------------------------
# SINR distributions
# ---------------------------------------------------------------------------

def _cdf_sinr_max(x, powers, ps, sigma2s):
    """CDF of the largest of independent SINRs ps*h / (sum_n P_n g_n +
    sigma2), one per noise variance in the array ``sigma2s``, all gains
    unit-mean exponential, evaluated elementwise for x >= 0.

    The jamming sum is the same for every receiver, so its Laplace
    transform L(x) is formed once and all factors of the product are
    evaluated together.
    """
    x = np.asarray(x, dtype=float)
    # L(x); np.multiply.reduce is ndarray.prod without its Python-level
    # wrapper, which is a noticeable share of one quadrature evaluation
    lap = np.multiply.reduce(ps / (powers * x[..., None] + ps), -1)
    sigma2s = sigma2s.reshape((-1,) + (1,) * x.ndim)
    val = np.where(x < 0, 0.0, 1.0 - np.exp(-sigma2s * x / ps) * lap)
    return np.multiply.reduce(val)


def cdf_gamma_d(x, scenario: Scenario):
    return _cdf_sinr_max(x, scenario.p_max, scenario.p_source,
                         np.array([scenario.sigma2_dest]))


def _pdf_dest(u, p, ps: float, sig_d: float):
    """Destination SINR density, elementwise over u >= 0, for jammer
    powers ``p``, source power ``ps`` and noise ``sig_d``: the
    derivative of 1 - exp(-sig_d u / ps) L(u), using
    -L'(u)/L(u) = sum_n P_n / (P_n u + ps)."""
    u = np.asarray(u, dtype=float)
    denom = p * u[..., None] + ps
    lap = np.multiply.reduce(ps / denom, -1)
    rate = sig_d / ps + np.add.reduce(p / denom, -1)
    return np.exp(-sig_d * u / ps) * lap * rate


def cdf_gamma_emax(x, scenario: Scenario):
    """CDF of the largest eavesdropper SINR (independent across
    eavesdroppers given the fixed jammer powers)."""
    return _cdf_sinr_max(x, scenario.p_max, scenario.p_source,
                         scenario.sigma2_eaves)


# ---------------------------------------------------------------------------
# outage by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SopResult:
    p_out: float
    method: str
    error_estimate: float


def sop_integral(sc: SopScenario, rel_tol: float = 1e-10) -> SopResult:
    """Outage probability by integrating the unexpanded product form.

    P_no_outage = mu * int_0^inf F_emax(x) f_d(mu*(x - nu)) dx with
    mu = 2**rate and nu = 2**(-rate) - 1.  Both laws are evaluated in
    product form, without partial fractions, so any positive jammer
    powers are accepted, tied ones included, and the integrand is as
    accurate at a tie as away from one.  ``rel_tol`` must be finite and
    positive.

    ``error_estimate`` is mu times the quadrature's error estimate.
    """
    s = sc.scenario
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    p, ps, sig_d, sig_e = s.p_max, s.p_source, s.sigma2_dest, s.sigma2_eaves

    def integrand(x):
        return (_cdf_sinr_max(x, p, ps, sig_e)
                * _pdf_dest(mu * (x - nu), p, ps, sig_d))

    quad = integrate_semi_infinite(integrand, 0.0, rel_tol=rel_tol)
    p_out = min(1.0, max(0.0, 1.0 - mu * quad.value))
    return SopResult(p_out=p_out, method="integral",
                     error_estimate=mu * quad.abs_error_estimate)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def elementary_integral(i: int, a1: float, c: float) -> float:
    """int_0^inf exp(-a1*x) / (x+c)**i dx for integer i >= 1, a1, c > 0.

    Reduction to the exponential integral; the exp(a1*c)*Ei(-a1*c)
    product is evaluated in fused form so large a1*c cannot overflow.
    """
    return _elementary_integral(i, a1, c, scaled_exp_integral_ei)


def _elementary_integral(i, a1, c, ei) -> float:
    """elementary_integral with ``ei`` standing in for
    scaled_exp_integral_ei."""
    if i < 1 or a1 <= 0 or c <= 0:
        raise InvalidInputError(f"need i >= 1, a1 > 0, c > 0; got {i}, {a1}, {c}")
    head = sum(factorial(r - 1) * (-a1) ** (i - r - 1) * c ** (-r)
               for r in range(1, i))
    tail = (-a1) ** (i - 1) * ei(a1 * c)
    return (head - tail) / factorial(i - 1)


def _ei_per_call():
    """scaled_exp_integral_ei evaluated once per distinct argument.

    The table lives only as long as the returned function, i.e. for one
    closed-form evaluation; nothing is shared across calls.
    """
    table = {}

    def ei(t):
        try:
            return table[t]
        except KeyError:
            value = table[t] = scaled_exp_integral_ei(t)
            return value

    return ei


def _derivatives_of_pole_product(poles, mults, x0: float, order: int):
    """Value and first ``order`` derivatives at x0 of
    f(x) = prod_t (x + poles[t])**(-mults[t]).

    Uses the logarithmic-derivative recursion: with L = f'/f,
    f^(r+1) = sum_j C(r,j) L^(j) f^(r-j), and every L^(j)(x0) is an
    elementary power sum.
    """
    f0 = 1.0
    for p, m in zip(poles, mults):
        f0 *= (x0 + p) ** (-m)
    derivs = [f0]
    l_derivs = [sum(-m * (-1.0) ** j * factorial(j) / (x0 + p) ** (j + 1)
                    for p, m in zip(poles, mults))
                for j in range(order)]
    for r in range(order):
        nxt = sum(comb(r, j) * l_derivs[j] * derivs[r - j] for j in range(r + 1))
        derivs.append(nxt)
    return derivs


def basic_integral(ell: int, k, a1: float, a2: float, a3) -> float:
    """int_0^inf exp(-a1 x) (x+a2)**(-ell) prod_t (x+a3_t)**(-k_t) dx.

    Partial fractions in x reduce everything to elementary_integral
    calls at the poles -a2 and -a3_t.  Repeated or nearly coincident
    poles among {a2} U {a3_t with k_t > 0} are rejected: the expansion
    coefficients diverge there.
    """
    if ell not in (1, 2):
        raise InvalidInputError(f"ell must be 1 or 2, got {ell}")
    k = np.asarray(k, dtype=int)
    if (k < 0).any():
        raise InvalidInputError("multiplicities must be >= 0")
    a3 = np.asarray(a3, dtype=float)
    if a3.shape != k.shape:
        raise InvalidInputError("a3 and k length mismatch")
    k, a3 = k.tolist(), a3.tolist()
    used = [t for t, kt in enumerate(k) if kt > 0]
    _check_poles(a2, a3, used)
    return _basic_integral(ell, k, a1, a2, a3, used, scaled_exp_integral_ei)


def _check_poles(a2, a3, used):
    """Reject coincident poles among a2 and the a3[t] with t in used."""
    for t in used:
        if abs(a2 - a3[t]) <= _POLE_GAP * max(1.0, a2, a3[t]):
            raise DegeneratePowersError(
                f"poles collide: a2={a2} vs a3[{t}]={a3[t]}")
    for i, t in itertools.combinations(used, 2):
        if abs(a3[i] - a3[t]) <= _POLE_GAP * max(1.0, a3[i], a3[t]):
            raise DegeneratePowersError(
                f"poles collide: a3[{i}]={a3[i]} vs a3[{t}]={a3[t]}")


def _basic_integral(ell, k, a1, a2, a3, used, ei) -> float:
    """basic_integral on checked poles: ``k`` and ``a3`` are sequences of
    Python numbers, ``used`` lists the t with k[t] > 0, and ``ei``
    stands in for scaled_exp_integral_ei."""
    if not used:
        return _elementary_integral(ell, a1, a2, ei)

    total = []
    # coefficients on (x+a2)^-1 .. (x+a2)^-ell
    zeta = _derivatives_of_pole_product([a3[t] for t in used],
                                        [k[t] for t in used], -a2, ell - 1)
    for r in range(ell):
        coeff = zeta[r] / factorial(r)
        total.append(coeff * _elementary_integral(ell - r, a1, a2, ei))
    # coefficients on (x+a3_j)^-1 .. (x+a3_j)^-k_j
    for j in used:
        others = [t for t in used if t != j]
        poles = [a2] + [a3[t] for t in others]
        mults = [ell] + [k[t] for t in others]
        theta = _derivatives_of_pole_product(poles, mults, -a3[j], k[j] - 1)
        for r in range(k[j]):
            coeff = theta[r] / factorial(r)
            total.append(coeff * _elementary_integral(k[j] - r, a1, a3[j], ei))
    return math.fsum(total)


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total,
    in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def expansion_term_count(n_jammers: int, n_eaves: int) -> int:
    return sum(comb(n_eaves, i) * comb(i + n_jammers - 1, n_jammers - 1)
               for i in range(n_eaves + 1))


def sop_closed_form(sc: SopScenario, max_terms: int = 200_000) -> SopResult:
    """Exact outage probability in exponential-integral terms.

    Expands the eavesdropper CDF product over subsets (inclusion-
    exclusion signs) and each power of the partial-fraction sum by the
    multinomial theorem; every piece is then a basic_integral.  All
    addends are accumulated with exact compensated summation, so the
    term order cannot affect the result.  The expansion reuses a few
    exponential-integral arguments t = a1*c thousands of times, so Ei is
    evaluated once per distinct argument within each call, and subsets
    of eavesdroppers with equal noise, whose addends coincide, are
    expanded once.

    Barely-distinct powers technically pass validation but make the
    expansion cancel catastrophically (error ~ max|A_n|**(M+1) * eps);
    check error_estimate, and prefer sop_integral when powers are close.
    """
    s = sc.scenario
    n = s.n_jammers
    m_eaves = s.n_eavesdroppers
    if _integer("max_terms", max_terms) < 1:
        raise InvalidInputError("max_terms must be at least 1")
    if expansion_term_count(n, m_eaves) > max_terms:
        raise ResourceLimitError(
            f"closed form needs {expansion_term_count(n, m_eaves)} "
            f"expansion terms (> {max_terms}); use sop_integral")
    k = sop_constants(sc)
    a = k.a_coeff
    ps = s.p_source
    sig_d = s.sigma2_dest
    kappa, lam = k.kappa.tolist(), k.lam.tolist()
    ei = _ei_per_call()

    # Subsets of equal size and equal decay rate psi (eavesdroppers with
    # equal noise) give identical addends: expand each such group once
    # and repeat its addends once per subset.
    groups = Counter((len(subset), psi)
                     for subset, psi in k.psi_subsets.items())
    addends = []
    for (size, psi), count in groups.items():
        sign = (-1.0) ** size
        for ks in _compositions(size, n):
            used = [t for t, kt in enumerate(ks) if kt > 0]
            multi = factorial(size)
            for kt in ks:
                multi //= factorial(kt)
            weight = sign * ps ** size * multi * float(np.prod(a ** np.array(ks)))
            for idx in range(n):
                _check_poles(kappa[idx], lam, used)
                base = (sig_d * _basic_integral(1, ks, psi, kappa[idx], lam,
                                                used, ei)
                        + (ps / k.mu) * _basic_integral(2, ks, psi, kappa[idx],
                                                        lam, used, ei))
                addends.extend([weight * (a[idx] / k.mu) * base] * count)
    y = math.fsum(addends)
    scale = k.mu * math.exp(k.xi * k.nu)
    # fsum is exact, so accuracy is set by the addends themselves; their
    # rounding scales with their magnitude, which blows up as powers
    # approach each other (|A_n| large).  Surface that honestly.
    err = 1e-14 * scale * math.fsum(abs(t) for t in addends)
    p_out = min(1.0, max(0.0, 1.0 - scale * y))
    return SopResult(p_out=p_out, method="closed", error_estimate=err)


# ---------------------------------------------------------------------------
# printed special case: two jammers, one eavesdropper
# ---------------------------------------------------------------------------

def _i10(a1: float, c: float) -> float:
    return -scaled_exp_integral_ei(a1 * c)


def _i20(a1: float, c: float) -> float:
    return 1.0 / c + a1 * scaled_exp_integral_ei(a1 * c)


def _i11(a1: float, c: float, d: float) -> float:
    return (_i10(a1, c) - _i10(a1, d)) / (d - c)


def _i21(a1: float, c: float, d: float) -> float:
    dc = d - c
    return _i20(a1, c) / dc + (_i10(a1, d) - _i10(a1, c)) / dc ** 2


def sop_closed_form_n2m1(sc: SopScenario) -> SopResult:
    """Hand-expanded closed form for exactly two jammers and one
    eavesdropper; an independent spelling of sop_closed_form used to
    cross-validate the general expansion machinery."""
    s = sc.scenario
    if s.n_jammers != 2 or s.n_eavesdroppers != 1:
        raise InvalidInputError(
            f"special case needs N=2, M=1; got N={s.n_jammers}, "
            f"M={s.n_eavesdroppers}")
    k = sop_constants(sc)
    a = k.a_coeff
    ps = s.p_source
    sig_d = s.sigma2_dest
    psi = k.xi + s.sigma2_eaves[0] / ps
    terms = []
    for idx in range(2):
        kap = k.kappa[idx]
        base = sig_d * _i10(k.xi, kap) + (ps / k.mu) * _i20(k.xi, kap)
        sub1 = sig_d * _i11(psi, kap, k.lam[0]) + \
            (ps / k.mu) * _i21(psi, kap, k.lam[0])
        sub2 = sig_d * _i11(psi, kap, k.lam[1]) + \
            (ps / k.mu) * _i21(psi, kap, k.lam[1])
        terms.append((a[idx] / k.mu)
                     * (base - ps * a[0] * sub1 - ps * a[1] * sub2))
    y = math.fsum(terms)
    scale = k.mu * math.exp(k.xi * k.nu)
    err = 1e-14 * scale * math.fsum(abs(t) for t in terms)
    p_out = min(1.0, max(0.0, 1.0 - scale * y))
    return SopResult(p_out=p_out, method="closed_n2m1", error_estimate=err)
