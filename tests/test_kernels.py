"""Counter-based RNG and the Monte Carlo outage kernel.

The contract under test: one (seed, counter) pair maps to one double in
[0, 1), scalar and vectorised paths agree bit for bit, the outage kernel
counts what a per-sample evaluation of the secrecy rate counts, its
counts stay pinned, they do not depend on how the sample range is
split, and it draws no eavesdropper's gains for a sample already in
outage.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopjam import _kernels


def exponentials(seed, start, count):
    """Draws at counters start .. start + count - 1 from the block
    generator, as ``count`` samples of one draw each.  The generator
    writes them negated."""
    sample, offset, shift = _kernels._hash_bases(_kernels.seed_key(seed), 1,
                                                 count)
    words = np.empty((1, count), dtype=np.uint64)
    draws = np.empty((1, count))
    _kernels._exponential_block(sample, offset + np.uint64(start * shift
                                                           % 2 ** 64),
                                words, draws)
    return -draws.ravel()


def reference(seed, counters):
    """-log1p(-u) of the scalar reference's uniform at each counter."""
    u = np.array([_kernels.uniform_at(seed, int(c)) for c in counters])
    return -np.log1p(-u)


class TestStream:
    def test_scalar_matches_vector(self):
        # a (d, rows) block from sample `first` on: draw `off` of sample
        # `first + i` is the scalar reference at counter (first + i)*d + off
        seed, d, rows, first = 123, 5, 9, 7
        sample, offset, shift = _kernels._hash_bases(_kernels.seed_key(seed),
                                                     d, rows)
        words = np.empty((d, rows), dtype=np.uint64)
        draws = np.empty((d, rows))
        _kernels._exponential_block(sample + np.uint64(first * shift
                                                       % 2 ** 64),
                                    offset, words, draws)
        want = reference(seed, range(first * d, (first + rows) * d))
        assert (-draws).T.ravel().tolist() == want.tolist()

    def test_unit_exponential(self):
        e = exponentials(0, 0, 100_000)
        # u in [0, 1 - 2**-53], so e in [0, 53 ln 2]
        assert (e >= 0).all() and (e <= 53 * np.log(2.0)).all()
        assert e.mean() == pytest.approx(1.0, abs=0.02)

    def test_seed_and_counter_sensitivity(self):
        a = exponentials(1, 0, 1000)
        b = exponentials(2, 0, 1000)
        c = exponentials(1, 1000, 1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # adjacent seeds must not produce correlated lanes
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_exponential_is_inverse_cdf(self):
        # sample_channels' draws are -log1p(-u) of the scalar reference,
        # bit for bit, up to the end of the counter range
        cases = [(5, 0, 1, 1), (11, 6, 3, 2), (2 ** 63 + 3, 10 ** 9, 6, 4),
                 # the last sample whose counters fit below 2**64
                 (7, 2 ** 64 // 25 - 1, 4, 4)]
        for seed, index, n, m in cases:
            d = 1 + m + n + m * n
            h_d, h_e, g_d, g_e = _kernels.draw_channel_arrays(seed, index,
                                                              n, m)
            got = np.concatenate([[h_d], h_e, g_d, g_e.ravel()])
            want = reference(seed, range(index * d, (index + 1) * d))
            assert got.tolist() == want.tolist(), (seed, index)
            assert (got >= 0).all()

    def test_draw_layout_matches_stream(self):
        # channel draws are a fixed window of the exponential stream
        n, m = 3, 2
        seed, index = 11, 6
        h_d, h_e, g_d, g_e = _kernels.draw_channel_arrays(seed, index, n, m)
        per = 1 + m + n + m * n
        flat = exponentials(seed, index * per, per)
        assert h_d == flat[0]
        np.testing.assert_array_equal(h_e, flat[1:1 + m])
        np.testing.assert_array_equal(g_d, flat[1 + m:1 + m + n])
        np.testing.assert_array_equal(g_e.ravel(), flat[1 + m + n:])


class TestOutageKernels:
    def setup_method(self):
        self.args = dict(ps=2.0, p=np.array([0.4, 0.7]), sig2d=0.1,
                         sig2e=np.array([0.1, 0.2]), mu=2.0, nu=-0.5,
                         seed=42)

    def test_deterministic(self):
        a = _kernels.mc_outage_count(n_samples=50_000, **self.args)
        b = _kernels.mc_outage_count(n_samples=50_000, **self.args)
        assert a == b

    def test_prefix_property(self):
        # first k samples of a longer run count the same outages
        short = _kernels.mc_outage_count(n_samples=10_000, **self.args)
        assert short <= _kernels.mc_outage_count(n_samples=20_000, **self.args)

    def test_count_matches_python_reference(self):
        # tiny run re-done with sample_channels + exact rate evaluation
        from coopjam import Scenario, sample_channels, secrecy_rate
        args = self.args
        n_samples = 400
        sc = Scenario(n_jammers=2, n_eavesdroppers=2, p_source=args["ps"],
                      p_max=args["p"] + 1.0, sigma2_dest=args["sig2d"],
                      sigma2_eaves=args["sig2e"])
        rate = np.log2(args["mu"])
        want = 0
        for i in range(n_samples):
            g = sample_channels(sc, args["seed"], index=i)
            if secrecy_rate(sc, g, args["p"]) < rate:
                want += 1
        got = _kernels.mc_outage_count(n_samples=n_samples, **self.args)
        assert got == want


def kernel_args(n, m, seed=2024, rate=0.5):
    """Kernel inputs for an n-jammer, m-eavesdropper network."""
    return dict(ps=10.0, p=np.linspace(0.5, 2.0, n), sig2d=0.1,
                sig2e=np.linspace(0.1, 0.3, m), mu=2.0 ** rate,
                nu=2.0 ** -rate - 1.0, seed=seed)


class TestPinnedCounts:
    # Recorded with the earlier numpy kernel (65,536-sample chunks, one
    # thread) before the blocked, multi-core one replaced it.  The middle
    # sample counts straddled one block of 4,096 samples, that kernel's
    # block size at m = 1; 200,000 is split across the worker threads.
    COUNTS = (1000, 4095, 4096, 4097, 20_011, 200_000)
    PINNED = {
        (1, 1): (578, 2366, 2366, 2366, 11619, 115575),
        (2, 1): (621, 2461, 2462, 2462, 12015, 120065),
        (3, 2): (755, 3181, 3182, 3183, 15235, 152537),
        (4, 4): (900, 3592, 3593, 3593, 17634, 175854),
        (6, 3): (853, 3520, 3521, 3522, 17200, 172318),
    }
    # Recorded with the blocked kernel that drew every eavesdropper's
    # gains for every sample (4,096-sample blocks).  The first three
    # straddled one block of 8,192 samples, the block size at m >= 2 of
    # the kernel that followed it; 40,009 is split across two workers
    # from n = 4 on.
    BLOCK_COUNTS = (8191, 8192, 8193, 40_009)
    BLOCK_PINNED = {
        (1, 1): (4768, 4768, 4768, 23230),
        (2, 1): (4964, 4965, 4966, 24088),
        (3, 2): (6265, 6266, 6267, 30601),
        (4, 4): (7190, 7191, 7191, 35198),
        (6, 3): (7047, 7048, 7049, 34452),
    }
    # Recorded with the kernel of 8,192-sample blocks (4,096 at m = 1)
    # at each network's block of _BLOCK draws: one sample short of a
    # block, one block, one sample more, and the shortest run that is
    # split across workers.
    DRAW_BLOCK_PINNED = {
        (1, 1): ((20_479, 20_480, 20_481, 81_920),
                 (11887, 11887, 11887, 47450)),
        (2, 1): ((13_652, 13_653, 13_654, 54_612),
                 (8244, 8244, 8245, 32922)),
        (3, 2): ((10_239, 10_240, 10_241, 40_960),
                 (7803, 7804, 7805, 31324)),
        (4, 4): ((8191, 8192, 8193, 32_768), (7190, 7191, 7191, 28859)),
        (6, 3): ((5850, 5851, 5852, 23_404), (5030, 5031, 5032, 20139)),
    }

    # Recorded with the kernel that drew each later eavesdropper for one
    # block's survivors at a time, before the queued passes replaced it.
    # Keyed by (n, m, workers): sample counts that leave part-full queues
    # at the end of each worker's range, and their outage counts.
    QUEUE_PINNED = {
        (3, 3, 2): ((200_001, 99_999), (165850, 82841)),
        (4, 4, 2): ((200_001, 99_999), (175855, 87939)),
        (3, 3, 1): ((50_021,), (41443,)),
        (4, 4, 1): ((50_021,), (43962,)),
    }

    @pytest.mark.parametrize("case", sorted(QUEUE_PINNED))
    def test_counts_with_part_full_queues(self, case, monkeypatch):
        n, m, workers = case
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        counts, want = self.QUEUE_PINNED[case]
        got = tuple(_kernels.mc_outage_count(n_samples=count,
                                             **kernel_args(n, m))
                    for count in counts)
        assert got == want

    def test_sample_counts_straddle_one_block(self):
        for (n, _), (counts, _) in self.DRAW_BLOCK_PINNED.items():
            rows = _kernels._block_rows(n)
            assert counts == (rows - 1, rows, rows + 1,
                              _kernels._MIN_SPLIT * rows)
            assert self.COUNTS[-1] >= _kernels._MIN_SPLIT * rows

    @pytest.mark.parametrize("shape", sorted(DRAW_BLOCK_PINNED))
    def test_counts_at_the_draw_block_boundary(self, shape, monkeypatch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        counts, want = self.DRAW_BLOCK_PINNED[shape]
        got = tuple(_kernels.mc_outage_count(n_samples=count,
                                             **kernel_args(*shape))
                    for count in counts)
        assert got == want

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_counts_unchanged(self, shape):
        got = tuple(_kernels.mc_outage_count(n_samples=count,
                                             **kernel_args(*shape))
                    for count in self.COUNTS)
        assert got == self.PINNED[shape]

    @pytest.mark.parametrize("shape", sorted(BLOCK_PINNED))
    def test_counts_at_the_block_boundary(self, shape, monkeypatch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        got = tuple(_kernels.mc_outage_count(n_samples=count,
                                             **kernel_args(*shape))
                    for count in self.BLOCK_COUNTS)
        assert got == self.BLOCK_PINNED[shape]


class TestDrawBudget:
    def test_rows_rule(self):
        # rows >= 1, and a first pass of more than one sample fills the
        # budget to within one sample without passing it
        budget = _kernels._BLOCK
        for n in range(1, 100_001):
            rows, width = _kernels._block_rows(n), 2 + 2 * n
            assert rows >= 1
            if rows > 1 or width <= budget:
                assert rows * width <= budget < (rows + 1) * width

    @given(n=st.integers(1, 6), m=st.integers(1, 4),
           n_samples=st.integers(1, 3000), seed=st.integers(0, 2 ** 32))
    # both workers end their ranges with every queue part full
    @example(n=3, m=4, n_samples=2999, seed=7)
    # a flush that once overfilled the queue behind it
    @example(n=1, m=4, n_samples=546, seed=7533)
    @settings(max_examples=30, deadline=None)
    def test_tiny_budget_gives_the_same_count(self, n, m, n_samples, seed):
        # blocks of 4 to 16 samples, split across two workers from 4
        # blocks on
        args = kernel_args(n, m, seed=seed)
        default = _kernels.mc_outage_count(n_samples=n_samples, **args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_BLOCK", 64)
            patch.setattr(_kernels, "_WORKERS", 2)
            assert _kernels._block_rows(n) == 64 // (2 + 2 * n)
            tiny = _kernels.mc_outage_count(n_samples=n_samples, **args)
        assert tiny == default


class TestFullWidthPasses:
    """Later passes run on whole chunks of their queue, not on one
    block's survivors."""

    @staticmethod
    def later_widths(n, monkeypatch):
        """Sample counts of each later pass's calls, on one worker, keyed
        by the pass."""
        widths = {}
        generate = _kernels._exponential_block

        def recording(sample, offset, words, draws):
            if draws.shape[0] == 1 + n:  # a later pass
                # a pass's offsets are the same on every call
                widths.setdefault(int(offset[0]), []).append(sample.size)
            generate(sample, offset, words, draws)

        monkeypatch.setattr(_kernels, "_exponential_block", recording)
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        return widths

    @staticmethod
    def assert_full_chunks(widths, n, m):
        chunk = _kernels._BLOCK // (1 + n)
        assert len(widths) == m - 1
        for calls in widths.values():
            assert len(calls) > 1
            assert calls[:-1] == [chunk] * (len(calls) - 1)
            assert 0 < calls[-1] <= chunk

    @pytest.mark.parametrize("shape", [(1, 2), (3, 3), (4, 4)])
    def test_only_the_final_flush_is_short(self, shape, monkeypatch):
        widths = self.later_widths(shape[0], monkeypatch)
        _kernels.mc_outage_count(n_samples=200_000, **kernel_args(*shape))
        self.assert_full_chunks(widths, *shape)

    def test_flush_keeps_the_queues_behind_it_in_bounds(self, monkeypatch):
        # Rare outages leave each queue close to a chunk at the end of
        # the range, so flushing one queue can fill the next; the next
        # must run its full chunks before it takes more.  The count was
        # recorded with the kernel that drew each later eavesdropper for
        # one block's survivors at a time.
        args = dict(kernel_args(1, 4, seed=9, rate=0.01),
                    sig2e=np.full(4, 1e3))
        widths = self.later_widths(1, monkeypatch)
        assert _kernels.mc_outage_count(n_samples=150_000, **args) == 270
        self.assert_full_chunks(widths, 1, 4)


def count_draws(monkeypatch):
    """Run the kernel on one worker, counting the draws it makes."""
    made = [0]
    generate = _kernels._exponential_block

    def counting(sample, offset, words, draws):
        made[0] += draws.size
        generate(sample, offset, words, draws)

    monkeypatch.setattr(_kernels, "_exponential_block", counting)
    monkeypatch.setattr(_kernels, "_WORKERS", 1)
    return made


def reference_count(args, n_samples):
    """Outages among the first samples, each drawn whole by
    draw_channel_arrays and judged on all m eavesdroppers."""
    n, m = args["p"].size, args["sig2e"].size
    count = 0
    for i in range(n_samples):
        h_d, h_e, g_d, g_e = _kernels.draw_channel_arrays(args["seed"], i,
                                                          n, m)
        gamma_d = args["ps"] * h_d / (g_d @ args["p"] + args["sig2d"])
        gamma_e = args["ps"] * h_e / (g_e @ args["p"] + args["sig2e"])
        count += bool(gamma_e.max() >= gamma_d / args["mu"] + args["nu"])
    return count


class TestShortCircuit:
    """Eavesdropper j's gains are drawn only for samples that no earlier
    eavesdropper has put in outage."""

    def test_skips_draws_of_samples_in_outage(self, monkeypatch):
        made = count_draws(monkeypatch)
        _kernels.mc_outage_count(n_samples=200_000, **kernel_args(4, 4))
        # every draw of every sample would be 5,000,000
        assert made[0] <= 2_727_445

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_one_eavesdropper_draws_everything(self, n, monkeypatch):
        made = count_draws(monkeypatch)
        _kernels.mc_outage_count(n_samples=20_000, **kernel_args(n, 1))
        assert made[0] == 20_000 * (2 + 2 * n)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 4), (3, 3), (5, 2),
                                       (6, 4)])
    def test_count_matches_whole_sample_reference(self, shape):
        args = kernel_args(*shape, seed=77)
        assert (_kernels.mc_outage_count(n_samples=3000, **args)
                == reference_count(args, 3000))

    def test_every_sample_in_outage_at_the_first_eavesdropper(
            self, monkeypatch):
        # SINR_d near 0 puts the threshold at about nu < 0, below every
        # SINR_e, so no sample is left after eavesdropper 0
        args = dict(kernel_args(3, 4, seed=5, rate=1.0), sig2d=1e6)
        assert reference_count(args, 3000) == 3000
        made = count_draws(monkeypatch)
        assert _kernels.mc_outage_count(n_samples=3000, **args) == 3000
        assert made[0] == 3000 * (2 + 2 * 3)

    def test_rare_outage_reaches_the_last_eavesdropper(self, monkeypatch):
        # eavesdroppers far noisier than the destination: few outages,
        # so nearly every sample is drawn for all m eavesdroppers
        args = dict(kernel_args(2, 4, seed=9, rate=0.01),
                    sig2e=np.full(4, 1e3))
        want = reference_count(args, 3000)
        made = count_draws(monkeypatch)
        assert _kernels.mc_outage_count(n_samples=3000, **args) == want
        assert 0 < want < 30
        # an outage at eavesdropper j skips the (3 - j)(1 + n) draws after it
        assert made[0] >= 3000 * (1 + 4) * (1 + 2) - want * 3 * (1 + 2)


def range_count(args, start, stop):
    key = _kernels.seed_key(args["seed"])
    return _kernels._mc_outage_range(args["ps"], args["p"], args["sig2d"],
                                     args["sig2e"], args["mu"], args["nu"],
                                     key, start, stop)


class TestSplitInvariance:
    @given(shape=st.sampled_from([(1, 1), (2, 1), (3, 2)]),
           n_samples=st.integers(1, 3 * _kernels._block_rows(1) + 100),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_split_points_do_not_change_count(self, shape, n_samples, cuts,
                                              seed):
        args = kernel_args(*shape, seed=seed)
        whole = _kernels.mc_outage_count(n_samples=n_samples, **args)
        bounds = [0, *sorted(int(c * n_samples) for c in cuts), n_samples]
        parts = sum(range_count(args, lo, hi)
                    for lo, hi in zip(bounds[:-1], bounds[1:]))
        assert parts == whole

    def test_one_worker_gives_the_same_count(self, monkeypatch):
        args = kernel_args(3, 2)
        default = _kernels.mc_outage_count(n_samples=50_000, **args)
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        assert _kernels.mc_outage_count(n_samples=50_000, **args) == default

    def test_pool_is_reused(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        args = kernel_args(2, 1)
        first = _kernels.mc_outage_count(n_samples=50_000, **args)
        pool = _kernels._POOL
        assert pool is not None
        second = _kernels.mc_outage_count(n_samples=50_000, **args)
        assert _kernels._POOL is pool
        assert first == second

    def test_empty_range_counts_nothing(self):
        assert range_count(kernel_args(2, 1), 10, 10) == 0
