"""Counter-based RNG and the Monte Carlo outage kernels.

The contract under test: one (seed, counter) pair maps to one double in
[0, 1), scalar and vectorised paths agree bit for bit, the numba and
numpy outage kernels count the same outages for the same inputs, and the
numpy count does not depend on how its sample range is split.
"""

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopjam import _kernels
from coopjam.errors import InvalidInputError


def ctr(start, count):
    return np.arange(start, start + count, dtype=np.uint64)


class TestStream:
    def test_scalar_matches_vector(self):
        vec = _kernels.uniform_stream(123, ctr(7, 64))
        for i, v in enumerate(vec):
            assert _kernels.uniform_at(123, 7 + i) == v

    def test_unit_interval(self):
        u = _kernels.uniform_stream(0, ctr(0, 100_000))
        assert (u >= 0).all() and (u < 1).all()
        assert u.mean() == pytest.approx(0.5, abs=0.01)

    def test_seed_and_counter_sensitivity(self):
        a = _kernels.uniform_stream(1, ctr(0, 1000))
        b = _kernels.uniform_stream(2, ctr(0, 1000))
        c = _kernels.uniform_stream(1, ctr(1000, 1000))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # adjacent seeds must not produce correlated lanes
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_exponential_is_inverse_cdf(self):
        u = _kernels.uniform_stream(5, ctr(3, 512))
        e = _kernels.exponential_stream(5, ctr(3, 512))
        np.testing.assert_array_equal(e, -np.log1p(-u))
        assert (e >= 0).all()

    def test_draw_layout_matches_stream(self):
        # channel draws are a fixed window of the exponential stream
        n, m = 3, 2
        seed, index = 11, 6
        h_d, h_e, g_d, g_e = _kernels.draw_channel_arrays(seed, index, n, m)
        per = 1 + m + n + m * n
        flat = _kernels.exponential_stream(seed, ctr(index * per, per))
        assert h_d == flat[0]
        np.testing.assert_array_equal(h_e, flat[1:1 + m])
        np.testing.assert_array_equal(g_d, flat[1 + m:1 + m + n])
        np.testing.assert_array_equal(g_e.ravel(), flat[1 + m + n:])


class TestOutageKernels:
    def setup_method(self):
        self.args = dict(ps=2.0, p=np.array([0.4, 0.7]), sig2d=0.1,
                         sig2e=np.array([0.1, 0.2]), mu=2.0, nu=-0.5,
                         seed=42)

    def test_backends_agree_exactly(self):
        pytest.importorskip("numba")
        n = 200_000
        counts = {}
        for backend in ("numpy", "numba"):
            counts[backend] = _kernels.mc_outage_count(
                n_samples=n, backend=backend, **self.args)
        assert counts["numpy"] == counts["numba"]
        assert 0 < counts["numpy"] < n

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

    def test_resolve_backend(self, monkeypatch):
        monkeypatch.setenv("COOPJAM_BACKEND", "numpy")
        assert _kernels.active_backend() == "numpy"
        monkeypatch.setenv("COOPJAM_BACKEND", "numba")
        if importlib.util.find_spec("numba") is not None:
            assert _kernels.active_backend() == "numba"
        else:
            with pytest.raises(InvalidInputError):
                _kernels.active_backend()
        monkeypatch.delenv("COOPJAM_BACKEND")
        assert _kernels.active_backend() in ("numba", "numpy")
        monkeypatch.setenv("COOPJAM_BACKEND", "cuda")
        with pytest.raises(ValueError):
            _kernels.active_backend()

    def test_backend_argument_ignores_case(self):
        assert _kernels._resolve_backend("NumPy") == "numpy"
        assert _kernels._resolve_backend("NUMPY") == "numpy"


def kernel_args(n, m, seed=2024, rate=0.5):
    """Kernel inputs for an n-jammer, m-eavesdropper network."""
    return dict(ps=10.0, p=np.linspace(0.5, 2.0, n), sig2d=0.1,
                sig2e=np.linspace(0.1, 0.3, m), mu=2.0 ** rate,
                nu=2.0 ** -rate - 1.0, seed=seed)


class TestPinnedCounts:
    # Recorded with the earlier numpy kernel (65,536-sample chunks, one
    # thread) before the blocked, multi-core one replaced it.  The middle
    # sample counts straddle one block of 4,096 samples; 20,011 and
    # 200,000 are split across the worker threads.
    COUNTS = (1000, 4095, 4096, 4097, 20_011, 200_000)
    PINNED = {
        (1, 1): (578, 2366, 2366, 2366, 11619, 115575),
        (2, 1): (621, 2461, 2462, 2462, 12015, 120065),
        (3, 2): (755, 3181, 3182, 3183, 15235, 152537),
        (4, 4): (900, 3592, 3593, 3593, 17634, 175854),
        (6, 3): (853, 3520, 3521, 3522, 17200, 172318),
    }

    def test_sample_counts_straddle_one_block(self):
        assert self.COUNTS[1:4] == (_kernels._BLOCK - 1, _kernels._BLOCK,
                                    _kernels._BLOCK + 1)

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_counts_unchanged(self, shape):
        got = tuple(_kernels.mc_outage_count(n_samples=count, backend="numpy",
                                             **kernel_args(*shape))
                    for count in self.COUNTS)
        assert got == self.PINNED[shape]


def range_count(args, start, stop):
    key = _kernels.seed_key(args["seed"])
    return _kernels._mc_outage_range(args["ps"], args["p"], args["sig2d"],
                                     args["sig2e"], args["mu"], args["nu"],
                                     key, start, stop)


class TestSplitInvariance:
    @given(shape=st.sampled_from([(1, 1), (2, 1), (3, 2)]),
           n_samples=st.integers(1, 3 * _kernels._BLOCK + 100),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_split_points_do_not_change_count(self, shape, n_samples, cuts,
                                              seed):
        args = kernel_args(*shape, seed=seed)
        whole = _kernels.mc_outage_count(n_samples=n_samples,
                                         backend="numpy", **args)
        bounds = [0, *sorted(int(c * n_samples) for c in cuts), n_samples]
        parts = sum(range_count(args, lo, hi)
                    for lo, hi in zip(bounds[:-1], bounds[1:]))
        assert parts == whole

    def test_one_worker_gives_the_same_count(self, monkeypatch):
        args = kernel_args(3, 2)
        default = _kernels.mc_outage_count(n_samples=50_000,
                                           backend="numpy", **args)
        monkeypatch.setattr(_kernels, "_WORKERS", 1)
        assert _kernels.mc_outage_count(n_samples=50_000, backend="numpy",
                                        **args) == default

    def test_pool_is_reused(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_WORKERS", 2)
        args = kernel_args(2, 1)
        first = _kernels.mc_outage_count(n_samples=50_000, backend="numpy",
                                         **args)
        pool = _kernels._POOL
        assert pool is not None
        second = _kernels.mc_outage_count(n_samples=50_000, backend="numpy",
                                          **args)
        assert _kernels._POOL is pool
        assert first == second

    def test_empty_range_counts_nothing(self):
        assert range_count(kernel_args(2, 1), 10, 10) == 0
