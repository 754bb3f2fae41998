"""Counter-based random stream and the Monte Carlo outage kernel.

Every draw is a pure function of ``(seed, counter)``: splitmix64 of the
counter, scaled to a uniform u in [0, 1) and mapped to a unit-rate
exponential -log1p(-u).  uniform_at is the scalar reference; one array
generator (_hash_bases and _exponential_block) makes the draws of
both sample_channels (draw_channel_arrays, one sample) and the outage
kernel (a block of samples at a time).

The outage kernel is blocked and multi-core: each CPU the process may
run on counts one contiguous range of samples.  Every array it writes,
the draws, SINRs, thresholds and queues included, is allocated once
per range.  The kernel works one eavesdropper at a time, and every pass
runs on a full budget of 81,920 draws.  The first pass goes block by
block, as many samples as fit 2 + 2n draws each into the budget (8,192
samples at n = 4): it draws the destination's and eavesdropper 0's
gains and forms the outage threshold SINR_d/mu + nu.  A sample still
out of outage joins queue 1 as its absolute hash base and threshold.
Pass j draws eavesdropper j's 1 + n gains for a chunk of queue j, as
many samples as fit 1 + n draws each into the budget (16,384 at
n = 4), whenever the queue holds that many, and its survivors join
queue j + 1.  At the end of the range the queues are flushed in order,
1 to m - 1: each runs what it holds, and the queues behind it still
run whenever they hold a chunk, so a queue's last pass is the only
one that may be short of a chunk.

Outage is max_j SINR_e_j >= threshold, so a sample's later draws cannot
change the count, and a sample's draws depend on its counter alone, not
on which samples it shares a block or chunk with.  Skipping draws moves
no other draw and regrouping samples moves none either, so the count
does not depend on the number of workers, the block or chunk size, the
order of the eavesdroppers or the order in which the queues run.

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
    """Negated unit-rate exponential draws log1p(-u) for the hash inputs
    ``offset[c] + sample[i]`` (mod 2**64), written into ``draws[c, i]``.

    ``words`` (uint64) and ``draws`` (float64) are (offset.size,
    sample.size) buffers, one row per draw offset so that the broadcast
    add runs along the samples; splitmix64 runs in place in ``words``,
    and the shifted words live in the draw buffer until the draws do.
    The draws come out negated, which saves a pass: the outage kernel
    forms its SINRs from negated gains (see _sinr), and negation is
    exact.
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
    # The words are below 2**53, so their int64 view holds the same
    # values and converts to float faster than uint64 does.
    np.multiply(z.view(np.int64), -_INV_2_53, out=draws)
    np.log1p(draws, out=draws)


def draw_channel_arrays(seed: int, index: int, n: int, m: int):
    """All power gains for fading sample ``index``: (h_d, h_e, g_d, g_e)."""
    d = 1 + m + n + m * n
    sample, offset, shift = _hash_bases(seed_key(seed), d, 1)
    words = np.empty((d, 1), dtype=np.uint64)
    draws = np.empty((d, 1))
    _exponential_block(sample, offset + _U64((index * shift) & _MASK),
                       words, draws)
    e = -draws[:, 0]
    h_d = e[0]
    h_e = e[1:1 + m].copy()
    g_d = e[1 + m:1 + m + n].copy()
    g_e = e[1 + m + n:].reshape(m, n).copy()
    return h_d, h_e, g_d, g_e


# ---------------------------------------------------------------------------
# outage kernel
# ---------------------------------------------------------------------------

# Draws per pass of the outage kernel.  A first-pass block holds as
# many samples as fit 2 + 2n draws each into this budget (see
# _block_rows): 8,192 samples at n = 4, 20,480 at n = 1, one at any n
# whose first pass alone is larger.  A later pass takes a chunk of its
# queue, as many samples as fit 1 + n draws each (see _chunk_rows):
# 16,384 at n = 4.  A worker's two reused draw buffers (uint64 words
# and float64 draws) are then 0.66 MB each at every n up to 40,959, so
# the working set stays in the core's cache, and each queue holds
# fewer than two chunks.  Each numpy call of a pass then runs over
# enough draws that the workers seldom wait on each other for the
# interpreter lock between calls; smaller blocks made two workers
# slower than one, and so did later passes over a single block's
# survivors.
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


def _chunk_rows(n: int) -> int:
    """Samples per later pass with ``n`` jammers: as many passes of
    1 + n draws as fit _BLOCK draws, and at least one."""
    return max(1, _BLOCK // (1 + n))


def _eavesdropper_offsets(n: int, m: int, j: int):
    """Draw offsets of eavesdropper j's gains: h_e_j, then g_e_j."""
    return np.r_[1 + j, 1 + m + n + j * n:1 + m + n + (j + 1) * n]


def _sinr(ps, h, p, g, noise, out, den):
    """ps * h / (p @ g + noise) from the negated gains ``h`` and ``g``
    as (ps * h) / (p @ g - noise), written into ``out``; ``den`` is
    scratch of the same size.

    Negation is exact and rounding is symmetric in sign, so both forms
    give the same bits.
    """
    np.multiply(ps, h, out=out)
    np.matmul(p, g, out=den)
    np.subtract(den, noise, out=den)
    return np.divide(out, den, out=out)


def _mc_outage_range(ps, p, sig2d, sig2e, mu, nu, key, start, stop):
    """Outage count over samples ``start .. stop - 1``.

    The passes and queues are those of the module docstring.  Queue j,
    the samples left for pass j, is row j - 1 of ``bases`` and
    ``thresholds``, filled up to ``fill[j - 1]``.  Every array the
    passes write is allocated here, once per range.
    """
    if stop <= start:
        return 0
    n = p.size
    m = sig2e.size
    d = 1 + m + n + m * n
    width = 2 + 2 * n
    rows = min(_block_rows(n), stop - start)
    chunk = _chunk_rows(n)
    # A queue holds less than a chunk after its pass has run, and it
    # takes at most a chunk from the pass before.
    cap = min(2 * chunk - 1, stop - start)
    wide = min(chunk, cap)  # samples in the widest later pass
    sample, offset, shift = _hash_bases(key, d, rows)
    # h_d and h_e_0, then g_d and g_e_0: one (2, k) batch of SINRs.
    first = offset[np.r_[0, 1, 1 + m:1 + m + 2 * n]]
    later = [offset[_eavesdropper_offsets(n, m, j)] for j in range(1, m)]
    noise = np.array([[sig2d], [sig2e[0]]])
    size = max(rows * width, wide * (1 + n))
    words = np.empty(size, dtype=np.uint64)
    draws = np.empty(size)
    moved = np.empty(width, dtype=np.uint64)
    sinr = np.empty(max(2 * rows, wide))
    den = np.empty_like(sinr)
    flags = np.empty(sinr.size, dtype=bool)
    bases = np.empty((m - 1, cap), dtype=np.uint64)
    thresholds = np.empty((m - 1, cap))
    fill = [0] * (m - 1)

    def push(q, live, base, threshold):
        """Append the samples flagged ``live`` to queue q + 1; returns
        their hash bases there."""
        kept = np.flatnonzero(live)
        lo = fill[q]
        hi = fill[q] = lo + kept.size
        # mode="clip" writes straight into ``out``; the indices are valid.
        np.take(threshold, kept, out=thresholds[q, lo:hi], mode="clip")
        return np.take(base, kept, out=bases[q, lo:hi], mode="clip")

    def later_pass(q):
        """Pass q + 1 over the head of its queue: a chunk, or all the
        queue holds if less.  Returns the outages found."""
        c = min(chunk, fill[q])
        y = draws[:c * (1 + n)].reshape(1 + n, c)
        _exponential_block(bases[q, :c], later[q],
                           words[:c * (1 + n)].reshape(1 + n, c), y)
        e = _sinr(ps, y[0], p, y[1:], sig2e[q + 1], sinr[:c], den[:c])
        live = np.less(e, thresholds[q, :c], out=flags[:c])
        if q + 2 < m:
            left = push(q + 1, live, bases[q, :c], thresholds[q, :c]).size
        else:
            left = int(np.count_nonzero(live))
        rest = fill[q] - c
        bases[q, :rest] = bases[q, c:fill[q]]
        thresholds[q, :rest] = thresholds[q, c:fill[q]]
        fill[q] = rest
        return c - left

    def cascade(q):
        """Run the passes of queues q, q + 1, ... while they hold a
        chunk.  Each held less than a chunk before the pass ahead of it
        last ran and gained at most a chunk from it, so each runs at
        most once.  Returns the outages found."""
        hits = 0
        for r in range(q, m - 1):
            if fill[r] < chunk:
                break
            hits += later_pass(r)
        return hits

    # SINRs are never NaN, so a sample is out of outage exactly when
    # SINR_e < threshold.
    count = 0
    for lo in range(start, stop, rows):
        k = min(rows, stop - lo)
        at = _U64((lo * shift) & _MASK)
        x = draws[:k * width].reshape(width, k)
        _exponential_block(sample[:k], np.add(first, at, out=moved),
                           words[:k * width].reshape(width, k), x)
        # Row 0 is SINR_d, row 1 SINR_e_0.  p @ (2, n, k) gives each
        # row the bits p @ (n, k) gives it alone.
        s = _sinr(ps, x[:2], p, x[2:].reshape(2, n, k), noise,
                  sinr[:2 * k].reshape(2, k), den[:2 * k].reshape(2, k))
        threshold = np.divide(s[0], mu, out=s[0])
        np.add(threshold, nu, out=threshold)
        live = np.less(s[1], threshold, out=flags[:k])
        if m == 1:
            count += k - int(np.count_nonzero(live))
            continue
        queued = push(0, live, sample[:k], threshold)
        queued += at  # absolute hash bases, exact in uint64
        count += k - queued.size + cascade(0)
    # Flush queue by queue; the passes behind each flush still run on
    # full chunks, so no queue outgrows its two chunks.
    for q in range(m - 1):
        if fill[q]:
            count += later_pass(q) + cascade(q + 1)
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
