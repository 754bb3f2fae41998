"""Counter-based random streams and the Monte Carlo outage kernel.

Two interchangeable backends evaluate the same stream:

* a numba-compiled per-sample loop, and
* a blocked, multi-core numpy kernel: each CPU the process may run on
  counts one contiguous range of samples, a few thousand samples at a
  time in buffers it reuses.  The count does not depend on the number
  of workers or on the block size.

Backend choice comes from the environment variable ``COOPJAM_BACKEND``
(``numba``, ``numpy`` or ``auto``; default ``auto`` picks numba when it
imports).  numba is an optional dependency: forcing ``numba`` without it,
or naming an unknown backend, raises InvalidInputError.  Every draw is a
pure function of ``(seed, counter)``, so both paths see identical uint64
words and the resulting outage counts agree up to last-ulp differences
in ``log1p`` and in the interference sum (``sig2d + sum p*g`` in the
numba loop, ``g_d @ p + sig2d`` in numpy).

Draw layout for fading sample ``i`` of a network with ``n`` jammers and
``m`` eavesdroppers (``d = 1 + m + n + m*n`` draws per sample, counters
``i*d .. i*d + d - 1``):

====================  =========================
offset                draw
====================  =========================
0                     source->destination gain
1 .. m                source->eavesdropper gains
1+m .. 1+m+n          jammer->destination gains
1+m+n + j*n + k       jammer k -> eavesdropper j
====================  =========================
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import InvalidInputError

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = 2.0 ** -53


def _mix_int(z: int) -> int:
    """Finalising bijection of splitmix64, on plain python ints."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    z ^= z >> 31
    return z


def seed_key(seed: int) -> int:
    """Scramble a user-facing seed into a stream key.

    Consecutive seeds land far apart so seed 0 and seed 1 share no
    obvious structure.
    """
    return _mix_int((int(seed) & _MASK) ^ 0x5851F42D4C957F2D)


def _word_int(key: int, counter: int) -> int:
    return _mix_int((key + ((counter + 1) * _GOLDEN)) & _MASK)


def uniform_at(seed: int, counter: int) -> float:
    """Uniform [0, 1) draw for one (seed, counter) pair."""
    return (_word_int(seed_key(seed), counter) >> 11) * _INV_2_53


def _words_np(key: int, counters: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 word for an array of counters (uint64)."""
    z = (counters + _U64(1)) * _U64(_GOLDEN) + _U64(key)
    z ^= z >> _U64(30)
    z *= _U64(_MIX_A)
    z ^= z >> _U64(27)
    z *= _U64(_MIX_B)
    z ^= z >> _U64(31)
    return z


def uniform_stream(seed: int, counters) -> np.ndarray:
    counters = np.asarray(counters, dtype=np.uint64)
    return (_words_np(seed_key(seed), counters) >> _U64(11)) * _INV_2_53


def exponential_stream(seed: int, counters) -> np.ndarray:
    """Unit-rate exponential draws via inverse CDF, -log1p(-u)."""
    return -np.log1p(-uniform_stream(seed, counters))


def draw_channel_arrays(seed: int, index: int, n: int, m: int):
    """All power gains for fading sample ``index``: (h_d, h_e, g_d, g_e)."""
    d = 1 + m + n + m * n
    base = index * d
    e = exponential_stream(seed, np.arange(base, base + d, dtype=np.uint64))
    h_d = e[0]
    h_e = e[1:1 + m].copy()
    g_d = e[1 + m:1 + m + n].copy()
    g_e = e[1 + m + n:].reshape(m, n).copy()
    return h_d, h_e, g_d, g_e


# ---------------------------------------------------------------------------
# outage kernels
# ---------------------------------------------------------------------------

# Samples per block of the numpy kernel.  Each worker reuses its
# (block, d) buffers, under 1 MB each at d = 25, for every block, so the
# working set stays in the core's cache.
_BLOCK = 4096
# Runs shorter than this stay on the calling thread.
_MIN_SPLIT = 4 * _BLOCK

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - platforms without affinity
    _WORKERS = os.cpu_count() or 1
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The module's thread pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=_WORKERS,
                                       thread_name_prefix="coopjam-mc")
        return _POOL


def _forget_pool():
    # A forked child inherits the pool object but none of its threads.
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mc_outage_range(ps, p, sig2d, sig2e, mu, nu, key, start, stop):
    """Outage count over samples ``start .. stop - 1``, block by block.

    The hash input of draw ``off`` of sample ``i`` is
    ``(i*d + off + 1)*GOLDEN + key`` (mod 2**64), formed as a per-sample
    term ``i*d*GOLDEN`` plus a per-offset term ``(off + 1)*GOLDEN + key``;
    the split is exact in uint64 arithmetic.  The remaining steps repeat
    _words_np and exponential_stream operation for operation, in place.
    """
    if stop <= start:
        return 0
    n = p.size
    m = sig2e.size
    d = 1 + m + n + m * n
    rows = min(_BLOCK, stop - start)
    step = (d * _GOLDEN) & _MASK
    per_offset = (np.arange(1, d + 1, dtype=np.uint64) * _U64(_GOLDEN)
                  + _U64(key))
    per_sample = np.arange(rows, dtype=np.uint64) * _U64(step)
    # Hash inputs of a block that starts at sample 0.
    base = per_sample[:, None] + per_offset[None, :]
    words = np.empty((rows, d), dtype=np.uint64)
    draws = np.empty((rows, d))
    # The shifted words live in the draw buffer until the draws do.
    shifted = draws.view(np.uint64)
    count = 0
    for first in range(start, stop, rows):
        k = min(rows, stop - first)
        z = words[:k]
        t = shifted[:k]
        x = draws[:k]
        np.add(base[:k], _U64((first * step) & _MASK), out=z)
        np.right_shift(z, _U64(30), out=t)
        z ^= t
        z *= _U64(_MIX_A)
        np.right_shift(z, _U64(27), out=t)
        z ^= t
        z *= _U64(_MIX_B)
        np.right_shift(z, _U64(31), out=t)
        z ^= t
        z >>= _U64(11)
        np.multiply(z, _INV_2_53, out=x)
        np.negative(x, out=x)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        h_d = x[:, 0]
        h_e = x[:, 1:1 + m]
        g_d = x[:, 1 + m:1 + m + n]
        g_e = x[:, 1 + m + n:].reshape(k, m, n)
        # These matmuls keep the views' shapes: re-laying them (explicit
        # sums, one matmul per eavesdropper) changes some SINRs' last bit.
        gamma_d = ps * h_d / (g_d @ p + sig2d)
        gamma_e = ps * h_e / (g_e @ p + sig2e)
        worst = gamma_e[:, 0].copy()
        for j in range(1, m):
            np.maximum(worst, gamma_e[:, j], out=worst)
        count += int(np.count_nonzero(worst >= gamma_d / mu + nu))
    return count


def _mc_outage_numpy(ps, p, sig2d, sig2e, mu, nu, key, n_samples):
    """Blocked count of secrecy outage events, one contiguous range of
    samples per CPU.  Every draw is a pure function of (key, counter),
    so the count does not depend on how the range is split."""
    if _WORKERS < 2 or n_samples < _MIN_SPLIT:
        return _mc_outage_range(ps, p, sig2d, sig2e, mu, nu, key,
                                0, n_samples)
    workers = min(_WORKERS, n_samples // _BLOCK)
    bounds = [n_samples * w // workers for w in range(workers + 1)]
    pool = _pool()
    futures = [pool.submit(_mc_outage_range, ps, p, sig2d, sig2e, mu, nu,
                           key, lo, hi)
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    wait(futures)  # no range is still running if one of them raised
    return sum(f.result() for f in futures)


_HAVE_NUMBA = False
_mc_outage_numba = None
try:  # pragma: no cover - exercised indirectly through backend tests
    import numba

    @numba.njit(cache=True)
    def _mc_outage_numba(ps, p, sig2d, sig2e, mu, nu, key, n_samples):
        n = p.size
        m = sig2e.size
        d = np.uint64(1 + m + n + m * n)
        golden = np.uint64(_GOLDEN)
        mix_a = np.uint64(_MIX_A)
        mix_b = np.uint64(_MIX_B)
        key64 = np.uint64(key)
        count = 0
        for i in range(n_samples):
            base = np.uint64(i) * d

            def draw(off):
                z = (base + np.uint64(off) + np.uint64(1)) * golden + key64
                z ^= z >> np.uint64(30)
                z *= mix_a
                z ^= z >> np.uint64(27)
                z *= mix_b
                z ^= z >> np.uint64(31)
                return -np.log1p(-((z >> np.uint64(11)) * _INV_2_53))

            acc = sig2d
            for kk in range(n):
                acc += p[kk] * draw(1 + m + kk)
            gamma_d = ps * draw(0) / acc
            worst = -1.0
            for j in range(m):
                acc = sig2e[j]
                for kk in range(n):
                    acc += p[kk] * draw(1 + m + n + j * n + kk)
                g = ps * draw(1 + j) / acc
                if g > worst:
                    worst = g
            if worst >= gamma_d / mu + nu:
                count += 1
        return count

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    pass


def _resolve_backend(name=None):
    """Kernel name for ``name`` (or ``COOPJAM_BACKEND``, default ``auto``).

    Raises InvalidInputError for an unknown name, and for ``numba`` when
    numba does not import.
    """
    name = (name or os.environ.get("COOPJAM_BACKEND", "auto")).lower()
    if name == "auto":
        return "numba" if _HAVE_NUMBA else "numpy"
    if name == "numba":
        if not _HAVE_NUMBA:
            raise InvalidInputError(
                "backend 'numba' requested but numba is not installed "
                "(install the 'numba' extra)")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise InvalidInputError(
        f"unknown backend {name!r} (expected auto, numba or numpy)")


def active_backend() -> str:
    """Name of the kernel backend that will actually run."""
    return _resolve_backend()


def mc_outage_count(ps, p, sig2d, sig2e, mu, nu, seed, n_samples,
                    backend=None) -> int:
    """Number of outage events among ``n_samples`` fading draws.

    ``mu = 2**rate`` and ``nu = 2**(-rate) - 1`` encode the target
    secrecy rate; an outage is ``max_j gamma_e_j >= gamma_d/mu + nu``.
    ``backend`` is ``numba``, ``numpy``, ``auto`` or None (read
    ``COOPJAM_BACKEND``); see _resolve_backend for the errors.
    """
    p = np.ascontiguousarray(p, dtype=float)
    sig2e = np.ascontiguousarray(sig2e, dtype=float)
    key = seed_key(seed)
    if _resolve_backend(backend) == "numba":
        return int(_mc_outage_numba(float(ps), p, float(sig2d), sig2e,
                                    float(mu), float(nu), _U64(key),
                                    n_samples))
    return _mc_outage_numpy(float(ps), p, float(sig2d), sig2e,
                            float(mu), float(nu), key, n_samples)
