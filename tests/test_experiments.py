"""Canned experiments and their CSV contract."""

import numpy as np
import pytest

from coopjam import InvalidInputError, ResourceLimitError, Scenario
from coopjam.experiments import (CSV_VERSION, ExperimentConfig, _sop_point,
                                 default_scenario, run_comparison,
                                 run_convergence, run_experiment,
                                 run_sop_sweeps, run_table_ab, write_rows)
from coopjam.sop_analytic import SopScenario


class TestCsv:
    def test_layout(self):
        text = write_rows(("a", "b"), [(1, 2.5), (3, 1 / 3)])
        lines = text.splitlines()
        assert lines[0] == f"# {CSV_VERSION} a,b"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2.5"
        assert lines[3] == "3,0.333333333333"  # 12 significant digits
        assert text.endswith("\n")

    def test_writes_file_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [(0, 0.1234567890123456), (1, 7)]
        write_rows(("i", "x"), rows, p1)
        write_rows(("i", "x"), rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(experiment="nope")


class TestDeterministicRuns:
    def test_convergence_rows(self):
        cfg = ExperimentConfig(experiment="convergence", seed=3,
                               n_channel_sets=2)
        header, rows = run_convergence(cfg)
        assert header == ("channel_set", "draw_index", "iteration",
                          "secrecy_rate")
        sets = {r[0] for r in rows}
        assert sets == {0, 1}
        for set_id in sets:
            rates = [r[3] for r in rows if r[0] == set_id]
            assert (np.diff(rates) >= -1e-12).all()

    def test_table_ab_rows_agree(self):
        cfg = ExperimentConfig(experiment="table_ab", seed=3,
                               n_channel_sets=2)
        header, rows = run_table_ab(cfg)
        assert header[-1] == "secrecy_rate"
        by_set = {}
        for r in rows:
            by_set.setdefault(r[0], {})[r[2]] = r[-1]
        for set_id, pair in by_set.items():
            assert set(pair) == {"ascent", "search"}
            assert pair["ascent"] == pytest.approx(pair["search"], abs=1e-2)

    def test_comparison_dominance(self):
        cfg = ExperimentConfig(experiment="comparison", seed=1,
                               n_channel_sets=2, sweep=[1.0, 4.0])
        header, rows = run_comparison(cfg)
        assert header == ("channel_set", "power_budget", "method",
                          "secrecy_rate")
        assert {r[1] for r in rows} <= {1.0, 4.0}
        grouped = {}
        for r in rows:
            grouped.setdefault((r[0], r[1]), {})[r[2]] = r[3]
        assert grouped, "sweep produced no feasible points"
        for pair in grouped.values():
            assert pair["joint"] >= pair["best_single"] - 1e-6


class TestOutageRuns:
    def test_sop_vs_rate_three_methods(self):
        cfg = ExperimentConfig(experiment="sop_vs_rate", seed=5,
                               sweep=[0.2, 1.0], mc_samples=50_000)
        header, rows = run_sop_sweeps(cfg)
        assert header == ("config", "sweep_value", "method", "p_out",
                          "err", "flag")
        methods = {}
        for r in rows:
            methods.setdefault(r[1], {})[r[2]] = r
        for target, per in methods.items():
            assert set(per) == {"closed", "integral", "mc"}
            closed, integral, mc = per["closed"], per["integral"], per["mc"]
            assert closed[3] == pytest.approx(integral[3], abs=1e-8)
            sigma = max(mc[4], 1e-6)
            assert abs(mc[3] - integral[3]) <= 4 * sigma
            assert closed[5] == "" and mc[5] == ""

    def test_sop_point_flags_degenerate_closed_form(self):
        # a jammer power equal to the source power collides two poles;
        # the closed row must drop out flagged, not crash the sweep
        s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                     p_max=np.array([2.0, 3.0]), sigma2_dest=0.1,
                     sigma2_eaves=np.array([0.1]))
        cfg = ExperimentConfig(experiment="sop_vs_rate", seed=0,
                               mc_samples=20_000)
        rows = _sop_point(SopScenario(scenario=s, rate=0.5), cfg, "x", 0.5)
        methods = {r[2]: r for r in rows}
        assert "closed" not in methods
        assert methods["integral"][5] == "closed_unavailable"
        assert methods["mc"][5] == "closed_unavailable"

    def test_sop_point_flags_oversized_closed_form(self, monkeypatch):
        # the closed form's own term limit decides; its ResourceLimitError
        # drops the closed row like a pole collision does
        def too_large(sc):
            raise ResourceLimitError("closed form needs too many terms")

        monkeypatch.setattr("coopjam.experiments.sop_closed_form", too_large)
        s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                     p_max=np.array([1.0, 3.0]), sigma2_dest=0.1,
                     sigma2_eaves=np.array([0.1]))
        cfg = ExperimentConfig(experiment="sop_vs_rate", seed=0,
                               mc_samples=20_000)
        rows = _sop_point(SopScenario(scenario=s, rate=0.5), cfg, "x", 0.5)
        assert [r[2] for r in rows] == ["integral", "mc"]
        assert all(r[5] == "closed_unavailable" for r in rows)

    def test_run_experiment_reproducible_files(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            cfg = ExperimentConfig(experiment="sop_vs_rate", seed=9,
                                   output=str(out), sweep=[0.5],
                                   mc_samples=20_000)
            run_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith(f"# {CSV_VERSION} ")
