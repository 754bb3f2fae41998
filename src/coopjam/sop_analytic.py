"""Secrecy outage probability over Rayleigh fading, analytically.

With unit-mean exponential power gains, the jamming sum at fixed powers
P_n has the Laplace transform L(x) = prod_n p_s / (P_n x + p_s), so a
receiver with noise sigma2 sees an SINR with CDF
1 - exp(-sigma2 x / p_s) L(x) for any positive powers, tied ones
included; the eavesdroppers' best SINR has the product of their CDFs.
The outage probability

    P_out = Pr[secrecy rate < target]

is then a single semi-infinite integral, evaluated by quadrature in
sop_integral.  It also collapses to exponential-integral terms:
sop_closed_form expands the CDF product over eavesdropper subsets and
splits each rational factor into partial fractions over its merged
poles, so exactly tied powers are accepted there too, while distinct
poles closer than MIN_RELATIVE_POWER_GAP are rejected.  One array
kernel does that for every pole integral of a call at once, with one
exponential-integral evaluation over all their arguments; pole_integral
is its one-integral case.  At rates past a few hundred bits, or at
source powers whose limit falls with N and M (at rate 1 and noise 0.1,
~1e77 W for P = (0.8, 2.1) W, M = 1; ~1e26 W for P = (0.7, 1.3, 2.9) W,
M = 3; sop_integral is right past it), its constants or addends
overflow, and where noise is so small against the source power that an
exponential-integral argument is subnormal, its cancelling terms lose
the result; both raise NumericalError.
The printed two-jammer/one-eavesdropper special case,
sop_closed_form_n2m1, is spelt independently: it forms its own mu, nu,
xi and poles kappa_n, lam_n, uses the hypoexponential coefficients A_n
(coeff_a) and needs pairwise-distinct jammer powers.  The routes
cross-check each other; the Monte Carlo route lives in sop_mc.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from numbers import Real

import numpy as np

from .errors import (DegeneratePowersError, InvalidInputError,
                     NumericalError, ResourceLimitError)
from .model import Scenario, _check_type, _integer
from .numerics import _TINY, integrate_semi_infinite, scaled_exp_integral_ei

MIN_RELATIVE_POWER_GAP = 1e-6
# sop_closed_form raises ResourceLimitError past this many pole integrals
MAX_CLOSED_FORM_TERMS = 200_000
# relative tolerance of sop_integral's quadrature
INTEGRAL_REL_TOL = 1e-10
# sop_closed_form's error_estimate is this times the sum of its addends'
# absolute-value forms.  Each addend comes out of a chain of roundings,
# about 100 long at N = M = 4, so its error is at most about 100
# half-ulps of its absolute-value form, and that only if every rounding
# aligns.  Over 470 settings (N, M <= 5, exact ties, P_n == p_source,
# rates 0.01 to 3, p_source up to 1000 W) the error against 30-digit
# quadrature never exceeded 1.8 eps times that sum; 32 eps leaves an
# 18-fold margin.
_CLOSED_FORM_ROUNDING = 32 * float(np.finfo(float).eps)
_HUGE = float(np.finfo(float).max)


def min_relative_gap(powers) -> float:
    p = np.sort(np.asarray(powers, dtype=float))
    if p.size < 2:
        return np.inf
    return float(np.min(np.diff(p) / p[1:]))


@dataclass(frozen=True)
class SopScenario:
    """Statistical outage setting: jammers always transmit at p_max and
    the secrecy-rate target is strictly positive and below 1024 bits,
    so that every route's 2**rate is a finite float.  InvalidInputError
    unless ``scenario`` is a Scenario and ``rate`` a real number (not a
    bool) in that range."""

    scenario: Scenario
    rate: float

    def __post_init__(self):
        _check_type("scenario", self.scenario, Scenario)
        if isinstance(self.rate, bool) or not isinstance(self.rate, Real):
            raise InvalidInputError(
                f"rate target must be a real number, got {self.rate!r}")
        if not 0 < self.rate < 1024:
            raise InvalidInputError(
                f"rate target must be > 0 and < 1024, got {self.rate}")


def _scenario_of(sc) -> Scenario:
    """The check of every SopScenario entry point: ``sc``'s Scenario,
    InvalidInputError unless ``sc`` is a SopScenario."""
    _check_type("sc", sc, SopScenario)
    return sc.scenario


def coeff_a(powers) -> np.ndarray:
    """Partial-fraction coefficients of the sum of independent
    exponentials with distinct means,
    A_n = P_n**(N-2) / prod_{j!=n}(P_n - P_j), formed from exact
    differences of the powers.  They satisfy sum_n A_n P_n = 1."""
    p = np.asarray(powers, dtype=float)
    gap = min_relative_gap(p)
    if gap < MIN_RELATIVE_POWER_GAP:
        raise DegeneratePowersError(
            f"coeff_a: jammer powers too close (relative gap {gap:.2e} "
            f"< {MIN_RELATIVE_POWER_GAP:.0e}); separate them, or use "
            "sop_integral or estimate_sop, which accept tied powers")
    out = np.empty(p.size)
    for n in range(p.size):
        out[n] = p[n] ** (p.size - 2) / np.prod(p[n] - np.delete(p, n))
    return out


# ---------------------------------------------------------------------------
# SINR distributions
# ---------------------------------------------------------------------------

def _cdf_sinr_max(x, powers, ps, sigma2s):
    """CDF of the largest of independent SINRs ps*h / (sum_n P_n g_n +
    sigma2), one per noise variance in the array ``sigma2s``, all gains
    unit-mean exponential, evaluated elementwise for x >= 0.  With
    ``sigma2s`` the destination's noise alone it is the destination
    SINR's CDF; with the eavesdroppers' noises, that of their best SINR
    (independent across eavesdroppers given the fixed jammer powers).

    The jamming sum is the same for every receiver, so its Laplace
    transform L(x) is formed once and all factors of the product are
    evaluated together.
    """
    x = np.asarray(x, dtype=float)
    # the laws are formed at x >= 0 only, so a negative x, whose value
    # np.where discards, cannot divide by zero or overflow on the way
    xs = np.maximum(x, 0.0)
    # L(x); np.multiply.reduce is ndarray.prod without its Python-level
    # wrapper, which is a noticeable share of one quadrature evaluation
    lap = np.multiply.reduce(ps / (powers * xs[..., None] + ps), -1)
    sigma2s = sigma2s.reshape((-1,) + (1,) * x.ndim)
    val = np.where(x < 0, 0.0, 1.0 - np.exp(-sigma2s * xs / ps) * lap)
    return np.multiply.reduce(val)


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


# ---------------------------------------------------------------------------
# outage by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SopResult:
    p_out: float
    method: str
    error_estimate: float


def sop_integral(sc: SopScenario) -> SopResult:
    """Outage probability by integrating the unexpanded product form.

    P_no_outage = mu * int_0^inf F_emax(x) f_d(mu*(x - nu)) dx with
    mu = 2**rate and nu = 2**(-rate) - 1.  Both laws are evaluated in
    product form, without partial fractions, so any positive jammer
    powers are accepted, tied ones included, and the integrand is as
    accurate at a tie as away from one.  The quadrature runs to relative
    tolerance INTEGRAL_REL_TOL.

    It runs in the integrand's own unit of SINR, x = s*y with
    s = p_source / max(mu*sigma2_dest + sum_m sigma2_m, min_n P_n): the
    smaller of the decay length of the exponentials and the distance of
    the farthest pole -p_source/P_n, so the mass sits at y of order 1
    at any source power.  The laws at x = s*y are the laws at source
    power p_source/s evaluated at y, and s times the density at s*u is
    the density at p_source/s, so the integrand in y is formed from
    p_source/s and nu/s without forming s, which can overflow.

    ``error_estimate`` is mu times the quadrature's error estimate.
    """
    s = _scenario_of(sc)
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    p, sig_e = s.p_max, s.sigma2_eaves
    sig_d = float(s.sigma2_dest)
    # formed in Python floats, which overflow to inf without a warning,
    # and capped at the largest float: p_source/s overflows only with the
    # noise, and 1/s only where the SINR unit is below every float and
    # the outage is 1 to double precision
    ps_over_s = min(max(mu * sig_d + sum(sig_e.tolist()), float(p.min())),
                    _HUGE)
    nu_over_s = nu * min(ps_over_s / float(s.p_source), _HUGE)

    def integrand(y):
        return (_cdf_sinr_max(y, p, ps_over_s, sig_e)
                * _pdf_dest(mu * (y - nu_over_s), p, ps_over_s, sig_d))

    # near rate 1024 the destination density's u = mu (y - nu/s)
    # overflows to inf, where the density is 0; an integrand that
    # overflows to inf or NaN raises NumericalError inside the quadrature
    with np.errstate(over="ignore", invalid="ignore"):
        quad = integrate_semi_infinite(integrand, 0.0,
                                       rel_tol=INTEGRAL_REL_TOL)
    p_out = min(1.0, max(0.0, 1.0 - mu * quad.value))
    return SopResult(p_out=p_out, method="integral",
                     error_estimate=mu * quad.abs_error_estimate)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def _merge_poles(poles, mults):
    """Bit-equal poles merged into nodes of summed multiplicity.

    ``poles`` has P entries and ``mults`` is an (I, P) integer array, one
    row per pole integral.  Returns the sorted distinct poles that some
    row uses and the (I, U) multiplicity matrix over them.  Distinct
    nodes closer than MIN_RELATIVE_POWER_GAP (relative) raise
    DegeneratePowersError, because their partial fractions cancel
    catastrophically.
    """
    used = mults.any(axis=0)
    nodes, where = np.unique(np.asarray(poles, dtype=float)[used],
                             return_inverse=True)
    merged = mults[:, used] @ (where[:, None] == np.arange(nodes.size))
    close = np.flatnonzero(np.diff(nodes) < MIN_RELATIVE_POWER_GAP * nodes[1:])
    if close.size:
        lo, hi = float(nodes[close[0]]), float(nodes[close[0] + 1])
        raise DegeneratePowersError(
            f"poles {lo!r} and {hi!r} are distinct but closer than "
            f"{MIN_RELATIVE_POWER_GAP:.0e} (relative); their partial "
            "fractions cancel catastrophically; use sop_integral, which "
            "accepts any positive powers")
    return nodes, merged


def _pole_product_derivatives(diff, others, order: int) -> np.ndarray:
    """Value and first ``order`` derivatives at x = 0 of
    f(x) = prod_q (x + diff[..., u, q])**(-others[i, u, q]), for every
    row i and node u at once; shape (order + 1, ..., I, U).

    Uses the logarithmic-derivative recursion: with L = f'/f,
    f^(r+1) = sum_j C(r,j) L^(j) f^(r-j), and every L^(j)(0) is an
    elementary power sum.
    """
    derivs = [np.multiply.reduce(diff ** -others, -1)]
    l_derivs = [np.add.reduce(-others * (-1.0) ** j * factorial(j)
                              / diff ** (j + 1), -1)
                for j in range(order)]
    for r in range(order):
        derivs.append(sum(comb(r, j) * l_derivs[j] * derivs[r - j]
                          for j in range(r + 1)))
    return np.array(derivs)


def _pole_integral_addends(a1, nodes, mults):
    """The partial-fraction addends of the pole integrals
    int_0^inf exp(-a1[i] x) prod_u (x + nodes[u])**(-mults[i, u]) dx,
    one per row i, as flat arrays (row, addend, size).

    Row i's integral is the exact sum of its addends.  Each size is the
    same product formed from absolute values, which bounds the size of
    that addend's rounding errors.  ``nodes`` must be distinct, sorted
    and positive, ``a1`` positive.  At node c of multiplicity m the
    partial fraction has the coefficients g^(r)(-c)/r! on
    (x + c)**-(m - r), r < m, where g is the product over the other
    nodes.  Each such power integrates to elementary terms, the last of
    them an exp(a1 c) Ei(-a1 c) term, and scaled_exp_integral_ei runs
    once, on the distinct a1 c.
    """
    top = int(mults.max())
    # diff[u, q] = c_q - c_u: the other nodes as seen from node u, which
    # sits at x = 0; node u's own factor has exponent 0.  The sizes come
    # from the same recursion on |c_q - c_u|, where nothing cancels.
    diff = nodes - nodes[:, None]
    np.fill_diagonal(diff, 1.0)
    others = mults[:, None, :] * (1 - np.eye(nodes.size, dtype=mults.dtype))
    coef = _pole_product_derivatives(np.stack([diff, np.abs(diff)])[:, None],
                                     others, top - 1)
    # one addend per (row i, node u, coefficient r, elementary term p):
    # (x + c)**-k, k = m - r, integrates to the terms p < k,
    # (p-1)! (-a1)**(k-p-1) c**-p / (k-1)!, and the Ei term p = k,
    # -(-a1)**(k-1) exp(a1 c) Ei(-a1 c) / (k-1)!
    steps = np.arange(top)
    row, node, r, p = np.nonzero(
        steps[:, None] + steps + 1 <= mults[:, :, None, None])
    p += 1
    k = mults[row, node] - r
    a, c = a1[row], nodes[node]
    fact = np.array([float(factorial(j)) for j in range(top)])
    e = fact[p - 1] * (-a) ** (k - p - 1) * c ** -p
    last = p == k
    args, at = np.unique(a[last] * c[last], return_inverse=True)
    e[last] = -(-a[last]) ** (k[last] - 1) * scaled_exp_integral_ei(args)[at]
    e /= fact[k - 1]
    out = coef[r, :, row, node] / fact[r, None] * e[:, None]
    return row, out[:, 0], np.abs(out[:, 1])


def pole_integral(a1: float, poles, mults) -> float:
    """int_0^inf exp(-a1 x) prod_t (x + poles[t])**(-mults[t]) dx for
    a1 > 0, positive poles and integer multiplicities >= 0.

    Partial fractions reduce it to terms in powers of the poles and
    exp(a1 c) Ei(-a1 c), the product fused so that a large a1 c cannot
    overflow (``_pole_integral_addends``).  Bit-equal
    poles merge into one pole of summed multiplicity, and a pole of
    multiplicity 0 is absent; distinct poles closer than
    MIN_RELATIVE_POWER_GAP (relative) raise DegeneratePowersError,
    because the partial fractions cancel catastrophically there.
    """
    if len(poles) != len(mults) or any(_integer("multiplicity", m) < 0
                                       for m in mults):
        raise InvalidInputError("need one integer multiplicity >= 0 per pole")
    nodes, merged = _merge_poles(poles, np.array([mults], dtype=int))
    if not nodes.size:
        # no pole: the integral of exp(-a1 x)
        if not a1 > 0:
            raise InvalidInputError(f"need a1 > 0; got {a1}")
        return 1.0 / a1
    if a1 <= 0 or nodes[0] <= 0:
        raise InvalidInputError(
            f"need a1 > 0 and poles > 0; got a1 {a1}, pole "
            f"{float(nodes[0])}")
    _, terms, _ = _pole_integral_addends(np.array([a1], dtype=float), nodes,
                                         merged)
    return math.fsum(terms.tolist())


def expansion_term_count(n_jammers: int, n_eaves: int) -> int:
    """Bound on sop_closed_form's pole integrals: N + 1 for each group of
    eavesdropper subsets, and at most 2**M groups."""
    return (n_jammers + 1) * 2 ** n_eaves


def sop_closed_form(sc: SopScenario) -> SopResult:
    """Exact outage probability in exponential-integral terms.

    Expands the product form F_emax(x) = prod_m [1 - exp(-sigma2_m x/ps)
    L(x)] over eavesdropper subsets S (inclusion-exclusion signs); with
    the destination density at u = mu (x - nu), every piece is a
    pole_integral over the poles lam_n = ps/P_n (multiplicity |S|) and
    kappa_n = ps/(mu P_n) - nu (multiplicity 1, or 2 for the kappa_j the
    density's sum over jammers brings in).  Subsets of equal size and
    equal noise sum give the same pieces and are expanded once.  The
    poles are merged once per call, every piece is one row of a
    multiplicity matrix over the merged poles, and the partial fractions
    of all rows are formed together on arrays.  scaled_exp_integral_ei
    is called once per call, on the array of distinct arguments, and
    all addends are summed exactly, so the term order cannot affect the
    result.

    Tied powers, and a jammer power equal to the source power, give
    bit-equal poles, which merge.  Powers closer than
    MIN_RELATIVE_POWER_GAP (relative) but not equal raise
    DegeneratePowersError.  ``error_estimate`` bounds the rounding of the
    partial fractions, including their cancellation when a destination
    pole kappa_n nears an eavesdropper pole lam_j; prefer sop_integral
    when it is large.  Where the constants or addends overflow, at rates
    of a few hundred bits or at high source powers, or an
    exponential-integral argument is subnormal, NumericalError is
    raised, and past MAX_CLOSED_FORM_TERMS pole integrals
    ResourceLimitError.  The source-power limit falls as jammers and
    eavesdroppers are added (see the module docstring); past it, use
    sop_integral.
    """
    s = _scenario_of(sc)
    n = s.n_jammers
    m_eaves = s.n_eavesdroppers
    if expansion_term_count(n, m_eaves) > MAX_CLOSED_FORM_TERMS:
        raise ResourceLimitError(
            f"closed form needs {expansion_term_count(n, m_eaves)} "
            f"pole integrals (> {MAX_CLOSED_FORM_TERMS}); use sop_integral")
    ps = s.p_source
    sig_d = s.sigma2_dest
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    xi = sig_d * mu / ps
    # at extreme rates or powers the poles, the constants, the
    # exponential-integral arguments a1 c or the addends overflow, and
    # the result is NaN; that raises NumericalError below
    y = err = math.nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam = ps / s.p_max
        # kappa_n = ps/(mu P_n) - nu, spelt so that P_n == ps gives
        # kappa_n == lam_n == 1 exactly and the two poles merge
        kappa = 1.0 + (lam - 1.0) / mu
        dest_const = float(np.prod(lam / mu))
        groups = Counter(
            (size, xi + sum(s.sigma2_eaves[j] for j in subset) / ps)
            for size in range(m_eaves + 1)
            for subset in itertools.combinations(range(m_eaves), size))
        sizes = np.array([size for size, _ in groups])
        const = (np.array(list(groups.values())) * (-1.0) ** sizes
                 * np.multiply.reduce(lam ** sizes[:, None], 1) * dest_const)
        # one pole integral per group and term of the density's factor
        # sig_d/ps + sum_j (1/mu)/(x + kappa_j); j = -1 is the constant term
        j = np.arange(-1, n)
        weight = np.where(j < 0, sig_d / ps, 1.0 / mu)
        mults = np.empty((sizes.size, n + 1, 2 * n), dtype=int)
        mults[..., :n] = sizes[:, None, None]
        mults[..., n:] = 1 + (np.arange(n) == j[:, None])
        nodes, merged = _merge_poles(np.concatenate([lam, kappa]),
                                     mults.reshape(-1, 2 * n))
        a1 = np.repeat([psi for _, psi in groups], n + 1)
        # a subnormal argument a1 c keeps only a few bits, and the
        # partial fractions' cancelling log terms then lose the result
        smallest = float(a1.min()) * float(nodes[0])
        if smallest < _TINY:
            raise NumericalError(
                f"closed form's exponential-integral argument {smallest:.3g} "
                f"underflows (noise too small against p_source {ps}); "
                "use sop_integral")
        if math.isfinite(float(a1.max()) * float(nodes[-1])):
            row, terms, mags = _pole_integral_addends(a1, nodes, merged)
            w = (const[:, None] * weight).ravel()[row]
            addends, sizes = w * terms, np.abs(w) * mags
            if np.isfinite(addends).all() and np.isfinite(sizes).all():
                scale = mu * math.exp(xi * nu)
                y = scale * math.fsum(addends.tolist())
                err = (_CLOSED_FORM_ROUNDING * scale
                       * math.fsum(sizes.tolist()))
    if not (math.isfinite(y) and math.isfinite(err)):
        raise NumericalError(
            f"closed form overflowed at rate {sc.rate}, p_source {ps}; "
            "use sop_integral")
    p_out = min(1.0, max(0.0, 1.0 - y))
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
    cross-validate the general expansion machinery.  It forms mu, nu,
    xi, the poles kappa_n = ps/(mu P_n) - nu and lam_n = ps/P_n and the
    A_n itself, so it shares no constants with the general route."""
    s = _scenario_of(sc)
    if s.n_jammers != 2 or s.n_eavesdroppers != 1:
        raise InvalidInputError(
            f"special case needs N=2, M=1; got N={s.n_jammers}, "
            f"M={s.n_eavesdroppers}")
    a = coeff_a(s.p_max)
    ps = s.p_source
    sig_d = s.sigma2_dest
    mu = 2.0 ** sc.rate
    nu = 2.0 ** (-sc.rate) - 1.0
    xi = sig_d * mu / ps
    kappa = ps / (mu * s.p_max) - nu
    lam = ps / s.p_max
    psi = xi + s.sigma2_eaves[0] / ps
    terms = []
    for idx in range(2):
        kap = kappa[idx]
        base = sig_d * _i10(xi, kap) + (ps / mu) * _i20(xi, kap)
        sub1 = sig_d * _i11(psi, kap, lam[0]) + \
            (ps / mu) * _i21(psi, kap, lam[0])
        sub2 = sig_d * _i11(psi, kap, lam[1]) + \
            (ps / mu) * _i21(psi, kap, lam[1])
        terms.append((a[idx] / mu)
                     * (base - ps * a[0] * sub1 - ps * a[1] * sub2))
    y = math.fsum(terms)
    scale = mu * math.exp(xi * nu)
    err = 1e-14 * scale * math.fsum(abs(t) for t in terms)
    p_out = min(1.0, max(0.0, 1.0 - scale * y))
    return SopResult(p_out=p_out, method="closed_n2m1", error_estimate=err)
