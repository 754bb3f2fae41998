"""Counter-based random stream and the Monte Carlo outage kernel.

Every draw is a pure function of ``(seed, counter)``: splitmix64 of the
counter, scaled to a uniform u in [0, 1) and mapped to a unit-rate
exponential -log1p(-u).  uniform_at is the scalar reference; one array
generator (_hash_inputs and _exponential_block) makes the draws of
both sample_channels (draw_channel_arrays, one sample) and the outage
kernel (a block of samples at a time).

The outage kernel is blocked and multi-core: each CPU the process may
run on counts one contiguous range of samples, a few thousand samples
at a time in buffers it reuses.  Since every draw depends on its
counter alone, the count does not depend on the number of workers or
on the block size.

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


def _hash_inputs(key: int, d: int, rows: int):
    """The (rows, d) uint64 hash inputs of samples 0 .. rows - 1, and
    the shift per sample.

    Draw ``off`` of sample ``i`` hashes ``(i*d + off + 1)*GOLDEN + key``
    (mod 2**64), as uniform_at does for counter ``i*d + off``; samples
    ``first ..`` hash the table plus ``first * shift``, exact in uint64.
    """
    shift = (d * _GOLDEN) & _MASK
    per_offset = (np.arange(1, d + 1, dtype=np.uint64) * _U64(_GOLDEN)
                  + _U64(key))
    per_sample = np.arange(rows, dtype=np.uint64) * _U64(shift)
    return per_sample[:, None] + per_offset[None, :], shift


def _exponential_block(base, shift, words, draws):
    """Unit-rate exponential draws -log1p(-u) for the hash inputs
    ``base + shift`` (mod 2**64), written into ``draws``.

    ``words`` (uint64) and ``draws`` (float64) are buffers of the shape
    of ``base``; splitmix64 runs in place in ``words``, and the shifted
    words live in the draw buffer until the draws do.
    """
    z = words
    t = draws.view(np.uint64)
    np.add(base, _U64(shift & _MASK), out=z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _U64(_MIX_A)
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _U64(_MIX_B)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    z >>= _U64(11)
    np.multiply(z, _INV_2_53, out=draws)
    np.negative(draws, out=draws)
    np.log1p(draws, out=draws)
    np.negative(draws, out=draws)


def draw_channel_arrays(seed: int, index: int, n: int, m: int):
    """All power gains for fading sample ``index``: (h_d, h_e, g_d, g_e)."""
    d = 1 + m + n + m * n
    base, shift = _hash_inputs(seed_key(seed), d, 1)
    words = np.empty((1, d), dtype=np.uint64)
    draws = np.empty((1, d))
    _exponential_block(base, index * shift, words, draws)
    e = draws[0]
    h_d = e[0]
    h_e = e[1:1 + m].copy()
    g_d = e[1 + m:1 + m + n].copy()
    g_e = e[1 + m + n:].reshape(m, n).copy()
    return h_d, h_e, g_d, g_e


# ---------------------------------------------------------------------------
# outage kernel
# ---------------------------------------------------------------------------

# Samples per block of the outage kernel.  Each worker reuses its
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
    """Outage count over samples ``start .. stop - 1``, block by block,
    each block's draws made by _exponential_block in reused buffers."""
    if stop <= start:
        return 0
    n = p.size
    m = sig2e.size
    d = 1 + m + n + m * n
    rows = min(_BLOCK, stop - start)
    base, shift = _hash_inputs(key, d, rows)
    words = np.empty((rows, d), dtype=np.uint64)
    draws = np.empty((rows, d))
    count = 0
    for first in range(start, stop, rows):
        k = min(rows, stop - first)
        x = draws[:k]
        _exponential_block(base[:k], first * shift, words[:k], x)
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


def mc_outage_count(ps, p, sig2d, sig2e, mu, nu, seed, n_samples) -> int:
    """Number of outage events among ``n_samples`` fading draws.

    ``mu = 2**rate`` and ``nu = 2**(-rate) - 1`` encode the target
    secrecy rate; an outage is ``max_j gamma_e_j >= gamma_d/mu + nu``.
    Runs long enough to split are shared out as one contiguous range of
    samples per CPU.
    """
    args = (float(ps), np.ascontiguousarray(p, dtype=float), float(sig2d),
            np.ascontiguousarray(sig2e, dtype=float), float(mu), float(nu),
            seed_key(seed))
    if _WORKERS < 2 or n_samples < _MIN_SPLIT:
        return _mc_outage_range(*args, 0, n_samples)
    workers = min(_WORKERS, n_samples // _BLOCK)
    bounds = [n_samples * w // workers for w in range(workers + 1)]
    pool = _pool()
    futures = [pool.submit(_mc_outage_range, *args, lo, hi)
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    wait(futures)  # no range is still running if one of them raised
    return sum(f.result() for f in futures)
