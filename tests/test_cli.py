"""Command line behaviour: exit codes, JSON output, file round trips."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from coopjam.cli import EXIT_FAILURE, EXIT_INFEASIBLE, main
from coopjam.model import ChannelGains, Scenario, load_scenario, save_scenario


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def infeasible_file(tmp_path):
    # strong eavesdropper, jammer cannot reach it: never feasible
    s = Scenario(n_jammers=1, n_eavesdroppers=1, p_source=1.0, p_max=[1.0],
                 sigma2_dest=0.1, sigma2_eaves=[0.1])
    g = ChannelGains(h_d=0.5, h_e=[5.0], g_d=[1.0], g_e=[[0.0]])
    path = tmp_path / "infeasible.json"
    save_scenario(path, s, g)
    return str(path)


@pytest.fixture
def near_tied_file(tmp_path):
    s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                 p_max=[1.0, 1.0 + 1e-9], sigma2_dest=0.1, sigma2_eaves=[0.1])
    path = tmp_path / "near_tied.json"
    save_scenario(path, s)
    return str(path)


@pytest.fixture
def distinct_file(tmp_path):
    s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                 p_max=[0.8, 2.1], sigma2_dest=0.1, sigma2_eaves=[0.1])
    path = tmp_path / "distinct.json"
    save_scenario(path, s)
    return str(path)


class TestFeasibility:
    def test_default_scenario_feasible(self, runner):
        res = runner.invoke(main, ["feasibility", "--seed", "1", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["feasible"] is True and len(doc["witness"]) == 3

    def test_infeasible_exit_code(self, runner, infeasible_file):
        res = runner.invoke(main, ["feasibility", "--scenario",
                                   infeasible_file])
        assert res.exit_code == EXIT_INFEASIBLE
        assert "feasible: False" in res.output

    def test_nan_margin_is_failure(self, runner):
        res = runner.invoke(main, ["feasibility", "--seed", "1",
                                   "--margin", "nan"])
        assert res.exit_code == EXIT_FAILURE
        assert "strict_margin must be finite" in res.output


class TestOptimize:
    def test_method_a_json(self, runner):
        res = runner.invoke(main, ["optimize", "--seed", "1", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["converged"] is True
        assert len(doc["allocation"]) == 3
        assert doc["secrecy_rate"] > 0

    def test_methods_agree(self, runner):
        rates = {}
        for method in ("a", "b"):
            res = runner.invoke(main, ["optimize", "--seed", "1",
                                       "--method", method, "--json"])
            assert res.exit_code == 0
            rates[method] = json.loads(res.output)["secrecy_rate"]
        assert rates["a"] == pytest.approx(rates["b"], abs=1e-2)

    def test_infeasible_exit(self, runner, infeasible_file):
        res = runner.invoke(main, ["optimize", "--scenario",
                                   infeasible_file])
        assert res.exit_code == EXIT_INFEASIBLE

    def test_negative_index_is_failure(self, runner):
        res = runner.invoke(main, ["optimize", "--index", "-1"])
        assert res.exit_code == EXIT_FAILURE
        assert "index must be >= 0" in res.output

    def test_index_past_stream_end_is_failure(self, runner):
        # (index + 1) * draws per sample passes the 2**64 counters
        res = runner.invoke(main, ["optimize", "--index",
                                   "100000000000000000000"])
        assert res.exit_code == EXIT_FAILURE
        assert "Traceback" not in res.output
        assert "past the end" in res.output

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "result.json"
        res = runner.invoke(main, ["optimize", "--seed", "1",
                                   "--method", "best-jammer",
                                   "--out", str(out)])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert np.count_nonzero(doc["allocation"]) <= 1


class TestSop:
    @pytest.mark.parametrize("seed", ["-1", str(7 + 2 ** 64)])
    def test_seed_outside_stream_keys_is_failure(self, runner, seed):
        res = runner.invoke(main, ["sop", "--rate", "0.5", "--method", "mc",
                                   "--samples", "5000", "--seed", seed])
        assert res.exit_code == EXIT_FAILURE
        assert "Traceback" not in res.output
        assert "seed must be in [0, 2**64)" in res.output

    def test_near_tied_powers_fail(self, runner, near_tied_file):
        # the closed form rejects powers 1e-9 apart (an exact tie merges);
        # the message points to the routes that take them
        res = runner.invoke(main, ["sop", "--rate", "0.5",
                                   "--scenario", near_tied_file,
                                   "--method", "closed"])
        assert res.exit_code == EXIT_FAILURE
        assert "sop_integral" in res.output
        assert "Traceback" not in res.output
        res = runner.invoke(main, ["sop", "--rate", "0.5", "--method", "all",
                                   "--scenario", near_tied_file,
                                   "--samples", "200000", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["closed"] is None and "closed_err" not in doc
        assert "sop_integral" in doc["closed_unavailable"]
        assert doc["mc"] == pytest.approx(doc["integral"],
                                          abs=4 * doc["mc_std_error"])

    def test_integral_takes_tied_default_powers(self, runner):
        res = runner.invoke(main, ["sop", "--rate", "0.5",
                                   "--method", "integral", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["integral"] == pytest.approx(0.8642882498, abs=1e-9)

    def test_all_methods_on_tied_powers_keep_integral_and_mc(self, runner):
        # the default (1, 1, 3) W has an exact tie, which the closed form
        # takes by merging the tied poles
        res = runner.invoke(main, ["sop", "--rate", "1.0", "--method", "all",
                                   "--samples", "1000000", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert "closed_unavailable" not in doc
        assert abs(doc["closed"] - doc["integral"]) <= \
            doc["closed_err"] + doc["integral_err"]
        assert doc["closed"] == pytest.approx(doc["integral"], abs=1e-9)
        assert doc["mc"] == pytest.approx(doc["integral"],
                                          abs=4 * doc["mc_std_error"])

    def test_all_methods_consistent(self, runner, distinct_file):
        res = runner.invoke(main, ["sop", "--rate", "0.4", "--method", "all",
                                   "--scenario", distinct_file,
                                   "--samples", "200000", "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["closed"] == pytest.approx(doc["integral"], abs=1e-8)
        assert 0.0 <= doc["closed_err"] < 1e-8
        assert "closed_unavailable" not in doc
        assert doc["mc"] == pytest.approx(doc["integral"],
                                          abs=4 * doc["mc_std_error"] + 1e-6)

    def test_special_case_route(self, runner, distinct_file):
        res = runner.invoke(main, ["sop", "--rate", "0.4",
                                   "--method", "closed-n2m1",
                                   "--scenario", distinct_file, "--json"])
        assert res.exit_code == 0
        assert "closed_n2m1" in json.loads(res.output)

    def test_bad_rate_is_failure(self, runner):
        res = runner.invoke(main, ["sop", "--rate", "-1"])
        assert res.exit_code == EXIT_FAILURE

    def test_rate_past_float_range_is_failure(self, runner):
        # 2**2000 overflows a float; rejected up front, no traceback
        for method in ("closed", "integral", "mc"):
            res = runner.invoke(main, ["sop", "--rate", "2000",
                                       "--method", method])
            assert res.exit_code == EXIT_FAILURE
            assert "1024" in res.output
            assert "Traceback" not in res.output

    def test_overflowing_mc_is_failure(self, runner, tmp_path):
        s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=1e300,
                     p_max=[1e-300, 2e-300], sigma2_dest=1e-300,
                     sigma2_eaves=[1e-300])
        path = tmp_path / "huge.json"
        save_scenario(path, s)
        res = runner.invoke(main, ["sop", "--rate", "1", "--method", "mc",
                                   "--samples", "1000",
                                   "--scenario", str(path)])
        assert res.exit_code == EXIT_FAILURE
        assert "p_source" in res.output
        assert "Traceback" not in res.output

    def test_subnormal_noise_closed_form_reported_unavailable(self, runner,
                                                             tmp_path):
        # noise / p_source is subnormal at noise 1e-320, where the
        # closed form's cancelling terms used to give p_out 1.0 against
        # 0.8339; Monte Carlo refuses noise that small, so --method all
        # runs where the arguments a1 c are subnormal but sampling works
        def write(name, p_max, sigma2):
            s = Scenario(n_jammers=2, n_eavesdroppers=1, p_source=2.0,
                         p_max=p_max, sigma2_dest=sigma2,
                         sigma2_eaves=[sigma2])
            save_scenario(tmp_path / name, s)
            return str(tmp_path / name)

        res = runner.invoke(main, ["sop", "--rate", "1", "--method", "closed",
                                   "--scenario",
                                   write("quiet.json", [0.8, 2.1], 1e-320)])
        assert res.exit_code == EXIT_FAILURE
        assert "underflow" in res.output and "sop_integral" in res.output
        assert "Traceback" not in res.output
        res = runner.invoke(main, ["sop", "--rate", "1", "--method", "all",
                                   "--samples", "200000", "--seed", "1",
                                   "--scenario",
                                   write("loud.json", [80.0, 210.0], 1e-306),
                                   "--json"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["closed"] is None
        assert "underflow" in doc["closed_unavailable"]
        assert doc["mc"] == pytest.approx(doc["integral"],
                                          abs=4 * doc["mc_std_error"])

    def test_overflowing_closed_form_reported_unavailable(self, runner):
        # at rate 500 the closed form overflows; --method all reports it
        # like its other refusals, and the document stays strict JSON
        res = runner.invoke(main, ["sop", "--rate", "500", "--method", "all",
                                   "--samples", "1000", "--json"])
        assert res.exit_code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(res.output, parse_constant=reject)
        assert doc["closed"] is None and "closed_err" not in doc
        assert "sop_integral" in doc["closed_unavailable"]
        assert doc["integral"] == doc["mc"] == 1.0
        res = runner.invoke(main, ["sop", "--rate", "500", "--method", "closed"])
        assert res.exit_code == EXIT_FAILURE


class TestExperiment:
    def test_stdout_csv(self, runner):
        res = runner.invoke(main, ["experiment", "--name", "convergence",
                                   "--sets", "1"])
        assert res.exit_code == 0
        assert res.output.startswith("# coopjam csv v1 ")
        assert "channel_set" in res.output.splitlines()[1]

    def test_sweep_db_conversion(self, runner):
        res = runner.invoke(main, ["experiment", "--name", "comparison",
                                   "--sets", "1", "--sweep-db", "0,6"])
        assert res.exit_code == 0
        budgets = {row.split(",")[1] for row in res.output.splitlines()[2:]}
        assert budgets <= {"1", "3.98107170553"}

    def test_sweep_flags_exclusive(self, runner):
        res = runner.invoke(main, ["experiment", "--name", "comparison",
                                   "--sweep", "1", "--sweep-db", "0"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("option, values, bad", [
        ("--sweep", "1,abc", "'abc'"),
        ("--sweep", "2,inf", "'inf'"),
        ("--sweep-db", "0,4000", "'4000' dB"),
        ("--sweep-db", "x", "'x' dB"),
    ])
    def test_bad_sweep_value_is_failure(self, runner, option, values, bad):
        res = runner.invoke(main, ["experiment", "--name", "sop_vs_ps",
                                   option, values])
        assert res.exit_code == EXIT_FAILURE
        assert "Traceback" not in res.output
        assert res.output.startswith(f"error: {option} value {bad}")

    def test_output_file_deterministic(self, runner, tmp_path):
        files = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            res = runner.invoke(main, ["experiment", "--name", "sop_vs_rate",
                                       "--sweep", "0.5", "--samples", "20000",
                                       "--seed", "7", "--out", str(out)])
            assert res.exit_code == 0, res.output
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestMakeScenario:
    def test_round_trip(self, runner, tmp_path):
        path = tmp_path / "scen.json"
        res = runner.invoke(main, ["make-scenario", str(path)])
        assert res.exit_code == 0
        s, g = load_scenario(path)
        assert s.n_jammers == 3 and g is None

    def test_with_channels(self, runner, tmp_path):
        path = tmp_path / "scen.json"
        res = runner.invoke(main, ["make-scenario", str(path),
                                   "--with-channels", "--seed", "2"])
        assert res.exit_code == 0
        s, g = load_scenario(path)
        assert g is not None and g.g_e.shape == (2, 3)
