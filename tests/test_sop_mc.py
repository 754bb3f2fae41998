"""Monte Carlo outage estimation against the analytic routes."""

import numpy as np
import pytest

from coopjam import (InvalidInputError, Scenario, SopScenario, estimate_sop,
                     sop_integral)
from coopjam.sop_mc import backend_in_use
from tests.conftest import conditioned_sop_scenario


def make_sop(p, rate=0.5, ps=2.0):
    s = Scenario(n_jammers=len(p), n_eavesdroppers=2, p_source=ps,
                 p_max=np.asarray(p, float), sigma2_dest=0.1,
                 sigma2_eaves=np.array([0.1, 0.15]))
    return SopScenario(scenario=s, rate=rate)


class TestEstimator:
    def test_deterministic_per_seed(self):
        sc = make_sop([0.7, 1.9])
        a = estimate_sop(sc, n_samples=20_000, seed=3)
        b = estimate_sop(sc, n_samples=20_000, seed=3)
        c = estimate_sop(sc, n_samples=20_000, seed=4)
        assert a == b
        assert a.p_out != c.p_out

    def test_matches_quadrature_within_three_sigma(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            sc = conditioned_sop_scenario(rng, n=2, m=2)
            want = sop_integral(sc).p_out
            est = estimate_sop(sc, n_samples=400_000, seed=11)
            assert abs(est.p_out - want) <= 3 * max(est.std_error, 1e-6)

    def test_equal_powers_supported(self):
        # the analytic routes reject ties; sampling must not
        sc = make_sop([1.0, 1.0, 1.0])
        est = estimate_sop(sc, n_samples=50_000, seed=5)
        assert 0.0 < est.p_out < 1.0

    def test_std_error_formula(self):
        sc = make_sop([0.7, 1.9])
        est = estimate_sop(sc, n_samples=10_000, seed=6)
        want = np.sqrt(est.p_out * (1 - est.p_out) / 10_000)
        assert est.std_error == pytest.approx(want)

    def test_small_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_sop(make_sop([0.7, 1.9]), n_samples=999, seed=0)

    @pytest.mark.parametrize("n_samples", [1e4, 20_000.0, "20000", True,
                                           None])
    def test_non_integer_sample_count_rejected(self, n_samples):
        with pytest.raises(InvalidInputError, match="n_samples"):
            estimate_sop(make_sop([0.7, 1.9]), n_samples, 1)

    @pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, "1", False])
    def test_non_integer_seed_rejected(self, seed):
        # a float seed used to be truncated onto seed 1's stream
        with pytest.raises(InvalidInputError, match="seed"):
            estimate_sop(make_sop([0.7, 1.9]), 10_000, seed)

    def test_numpy_integers_accepted_as_plain_types(self):
        sc = make_sop([0.7, 1.9])
        est = estimate_sop(sc, np.int64(10_000), np.uint32(1))
        assert est == estimate_sop(sc, 10_000, 1)
        assert type(est.n_samples) is int and type(est.seed) is int
        assert type(est.p_out) is float and type(est.std_error) is float

    def test_backend_parameter(self):
        pytest.importorskip("numba")
        sc = make_sop([0.7, 1.9])
        a = estimate_sop(sc, n_samples=30_000, seed=7, backend="numpy")
        b = estimate_sop(sc, n_samples=30_000, seed=7, backend="numba")
        assert a.p_out == b.p_out
        assert backend_in_use() in ("numba", "numpy")

    def test_error_shrinks_with_samples(self):
        sc = make_sop([0.7, 1.9])
        small = estimate_sop(sc, n_samples=10_000, seed=8)
        large = estimate_sop(sc, n_samples=160_000, seed=8)
        assert large.std_error < small.std_error
        # quadrupling samples halves the error bar, roughly
        assert large.std_error == pytest.approx(small.std_error / 4, rel=0.2)
