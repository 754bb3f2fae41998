"""Counter-based random stream and the Monte Carlo outage kernel.

Every draw is a pure function of ``(seed, counter)``: splitmix64 of the
counter, scaled to a uniform u in [0, 1) and mapped to a unit-rate
exponential -log1p(-u).  uniform_at is the scalar reference; one array
generator (_hash_bases and _exponential_block) makes the draws of
both sample_channels (draw_channel_arrays, one sample) and the outage
kernel (a block of samples at a time).

The outage kernel is blocked and multi-core: each CPU the process may
run on counts one contiguous range of samples, one block at a time.  A
block is as many samples as fit a first pass of 81,920 draws (8,192
samples at n = 4).  Every array the blocks write, the draws, SINRs and
thresholds included, is allocated once per range.  The kernel works
one eavesdropper at a time.  The first pass draws, for every sample of
the block, the destination's gains and eavesdropper 0's (2 + 2n
draws) and forms the outage threshold SINR_d/mu + nu.  Pass j draws
eavesdropper j's 1 + n gains only for the samples still out of
outage, from their compressed hash bases, and the block ends once none
are left.  Outage is max_j SINR_e_j >= threshold, so a sample's later
draws cannot change the count.  Since every draw depends on its
counter alone, skipping them moves no other draw, and the count does
not depend on the number of workers, the block size or the order of
the eavesdroppers.

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


def _hash_bases(key: int, d: int, rows: int):
    """Per-sample and per-offset hash bases of samples 0 .. rows - 1,
    and the shift per sample.

    Draw ``off`` of sample ``i`` hashes ``(i*d + off + 1)*GOLDEN + key``
    (mod 2**64), as uniform_at does for counter ``i*d + off``: that is
    ``sample[i] + offset[off]``, with ``sample[i] = i * shift``.
    Samples ``first ..`` add ``first * shift`` to either base, exact in
    uint64.
    """
    shift = (d * _GOLDEN) & _MASK
    offset = (np.arange(1, d + 1, dtype=np.uint64) * _U64(_GOLDEN)
              + _U64(key))
    sample = np.arange(rows, dtype=np.uint64) * _U64(shift)
    return sample, offset, shift


def _exponential_block(sample, offset, words, draws):
    """Unit-rate exponential draws -log1p(-u) for the hash inputs
    ``offset[c] + sample[i]`` (mod 2**64), written into ``draws[c, i]``.

    ``words`` (uint64) and ``draws`` (float64) are (offset.size,
    sample.size) buffers, one row per draw offset so that the broadcast
    add runs along the samples; splitmix64 runs in place in ``words``,
    and the shifted words live in the draw buffer until the draws do.
    """
    z = words
    t = draws.view(np.uint64)
    np.add(offset[:, None], sample, out=z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _U64(_MIX_A)
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _U64(_MIX_B)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    z >>= _U64(11)
    # -u in one step: scaling by -2**-53 is exact, as is the sign flip.
    np.multiply(z, -_INV_2_53, out=draws)
    np.log1p(draws, out=draws)
    np.negative(draws, out=draws)


def draw_channel_arrays(seed: int, index: int, n: int, m: int):
    """All power gains for fading sample ``index``: (h_d, h_e, g_d, g_e)."""
    d = 1 + m + n + m * n
    sample, offset, shift = _hash_bases(seed_key(seed), d, 1)
    words = np.empty((d, 1), dtype=np.uint64)
    draws = np.empty((d, 1))
    _exponential_block(sample, offset + _U64((index * shift) & _MASK),
                       words, draws)
    e = draws[:, 0]
    h_d = e[0]
    h_e = e[1:1 + m].copy()
    g_d = e[1 + m:1 + m + n].copy()
    g_e = e[1 + m + n:].reshape(m, n).copy()
    return h_d, h_e, g_d, g_e


# ---------------------------------------------------------------------------
# outage kernel
# ---------------------------------------------------------------------------

# Draws per block of the outage kernel.  A block holds as many samples
# as fit one first pass, 2 + 2n draws each, into this budget (see
# _block_rows): 8,192 samples at n = 4, 20,480 at n = 1, one at any n
# whose first pass alone is larger.  A worker's two reused draw buffers
# (uint64 words and float64 draws) are then 0.66 MB each at every n up
# to 40,959, so the working set stays in the core's cache.  Each numpy
# call of a block then runs over enough draws that the workers seldom
# wait on each other for the interpreter lock between calls; smaller
# blocks made two workers slower than one.
_BLOCK = 81_920
# Runs of fewer blocks than this stay on the calling thread.
_MIN_SPLIT = 4

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


def _block_rows(n: int) -> int:
    """Samples per block with ``n`` jammers: as many first passes of
    2 + 2n draws as fit _BLOCK draws, and at least one."""
    return max(1, _BLOCK // (2 + 2 * n))


def _eavesdropper_offsets(n: int, m: int, j: int):
    """Draw offsets of eavesdropper j's gains: h_e_j, then g_e_j."""
    return np.r_[1 + j, 1 + m + n + j * n:1 + m + n + (j + 1) * n]


def _sinr(ps, h, p, g, noise, out, den):
    """ps * h / (p @ g + noise), written into ``out``; ``den`` is
    scratch of the same size."""
    np.multiply(ps, h, out=out)
    np.matmul(p, g, out=den)
    np.add(den, noise, out=den)
    return np.divide(out, den, out=out)


def _mc_outage_range(ps, p, sig2d, sig2e, mu, nu, key, start, stop):
    """Outage count over samples ``start .. stop - 1``, block by block.

    Each block draws the destination's and eavesdropper 0's gains for
    every sample, then eavesdropper j's only for the samples that no
    earlier eavesdropper has put in outage.  Every array the blocks
    write is allocated here, once per range; the survivors' hash bases
    and thresholds move between two buffers of each, one pass to the
    next.
    """
    if stop <= start:
        return 0
    n = p.size
    m = sig2e.size
    d = 1 + m + n + m * n
    width = 2 + 2 * n
    rows = min(_block_rows(n), stop - start)
    sample, offset, shift = _hash_bases(key, d, rows)
    first = offset[np.r_[0, 1 + m:1 + m + n, _eavesdropper_offsets(n, m, 0)]]
    later = [offset[_eavesdropper_offsets(n, m, j)] for j in range(1, m)]
    words = np.empty(rows * width, dtype=np.uint64)
    draws = np.empty(rows * width)
    moved = np.empty(width, dtype=np.uint64)
    sinr = np.empty(rows)
    den = np.empty(rows)
    flags = np.empty(rows, dtype=bool)
    bases = np.empty((2, rows), dtype=np.uint64)
    thresholds = np.empty((2, rows))
    count = 0
    for lo in range(start, stop, rows):
        k = min(rows, stop - lo)
        at = _U64((lo * shift) & _MASK)
        x = draws[:k * width].reshape(width, k)
        _exponential_block(sample[:k], np.add(first, at, out=moved),
                           words[:k * width].reshape(width, k), x)
        # p @ (n, k) products may differ from the earlier kernel's
        # (k, n) @ p in a SINR's last bit; a count moves only if that
        # SINR lies within one ulp of its threshold.
        threshold = _sinr(ps, x[0], p, x[1:1 + n], sig2d, thresholds[0, :k],
                          den[:k])
        np.divide(threshold, mu, out=threshold)
        np.add(threshold, nu, out=threshold)
        e = _sinr(ps, x[1 + n], p, x[2 + n:], sig2e[0], sinr[:k], den[:k])
        hit = np.greater_equal(e, threshold, out=flags[:k])
        hits = int(np.count_nonzero(hit))
        count += hits
        alive = sample[:k]
        for j, (eaves, noise) in enumerate(zip(later, sig2e[1:]), 1):
            if hits == alive.size:
                break
            live = np.logical_not(hit, out=hit)
            c = alive.size - hits
            alive = np.compress(live, alive, out=bases[j % 2, :c])
            threshold = np.compress(live, threshold,
                                    out=thresholds[j % 2, :c])
            y = draws[:c * (1 + n)].reshape(1 + n, c)
            _exponential_block(alive, np.add(eaves, at, out=moved[:1 + n]),
                               words[:c * (1 + n)].reshape(1 + n, c), y)
            e = _sinr(ps, y[0], p, y[1:], noise, sinr[:c], den[:c])
            hit = np.greater_equal(e, threshold, out=flags[:c])
            hits = int(np.count_nonzero(hit))
            count += hits
    return count


def mc_outage_count(ps, p, sig2d, sig2e, mu, nu, seed, n_samples) -> int:
    """Number of outage events among ``n_samples`` fading draws.

    ``mu = 2**rate`` and ``nu = 2**(-rate) - 1`` encode the target
    secrecy rate; an outage is ``max_j gamma_e_j >= gamma_d/mu + nu``.
    Runs of at least _MIN_SPLIT blocks are shared out as one contiguous
    range of samples per CPU.
    """
    args = (float(ps), np.ascontiguousarray(p, dtype=float), float(sig2d),
            np.ascontiguousarray(sig2e, dtype=float), float(mu), float(nu),
            seed_key(seed))
    rows = _block_rows(np.size(p))
    if _WORKERS < 2 or n_samples < _MIN_SPLIT * rows:
        return _mc_outage_range(*args, 0, n_samples)
    workers = min(_WORKERS, n_samples // rows)
    bounds = [n_samples * w // workers for w in range(workers + 1)]
    pool = _pool()
    futures = [pool.submit(_mc_outage_range, *args, lo, hi)
               for lo, hi in zip(bounds[:-1], bounds[1:])]
    wait(futures)  # no range is still running if one of them raised
    return sum(f.result() for f in futures)
