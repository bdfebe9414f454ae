"""Command-line interface: schemas, exit codes, determinism, config handling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvqkd_mon
from cvqkd_mon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


# ----------------------------------------------------------------- keyrate

class TestKeyrate:
    def test_secure_point_exits_zero(self, capsys):
        code, out, err = run(capsys, "keyrate", "--d", "2")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["scheme", "d_km", "eta", "chi", "i_ab", "s_eb",
                           "key_rate", "secure"]
        assert rows[1][0] == "passive_bs"
        assert rows[1][7] == "true"
        assert float(rows[1][6]) > 0.0
        assert "secure" in err  # summary goes to stderr when CSV is on stdout

    def test_insecure_point_exits_two(self, capsys):
        code, out, _ = run(capsys, "keyrate", "--d", "10")
        assert code == 2
        assert csv_rows(out)[1][7] == "false"

    def test_zero_reconciliation_is_insecure(self, capsys):
        code, out, _ = run(capsys, "keyrate", "--beta", "0", "--d", "2")
        assert code == 2
        assert float(csv_rows(out)[1][6]) < 0.0

    def test_scheme_aliases(self, capsys):
        code, out, _ = run(capsys, "keyrate", "--d", "2", "--scheme", "active")
        assert code in (0, 2)
        assert csv_rows(out)[1][0] == "active_switch"

    def test_invalid_parameter_exits_one(self, capsys):
        code, _, err = run(capsys, "keyrate", "--beta", "2.0")
        assert code == 1
        assert "beta" in err

    def test_opaque_channel_exits_one(self, capsys):
        code, _, err = run(capsys, "keyrate", "--d", "400")
        assert code == 1
        assert "channel opaque" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "keyrate", "--bogus", "1")
        assert code == 1
        assert "error" in err

    def test_multiple_schemes_rejected(self, capsys):
        code, _, err = run(capsys, "keyrate", "--scheme", "all")
        assert code == 1
        assert "one scheme" in err

    def test_eta_chi_columns(self, capsys):
        _, out, _ = run(capsys, "keyrate", "--d", "50", "--eps", "0.1")
        row = csv_rows(out)[1]
        assert math.isclose(float(row[2]), 0.1, rel_tol=1e-9)
        assert math.isclose(float(row[3]), 9.1, rel_tol=1e-9)


# ------------------------------------------------------------ sweep-distance

class TestSweepDistance:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, "sweep-distance")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["scheme", "d_km", "key_rate"]
        assert len(rows) == 1 + 3 * 81   # three schemes, d = 0..40 step 0.5

    def test_all_rows_finite(self, capsys):
        _, out, _ = run(capsys, "sweep-distance", "--d-stop", "20")
        for row in csv_rows(out)[1:]:
            assert math.isfinite(float(row[2]))

    def test_crossing_order_matches_scheme_ranking(self, capsys):
        _, out, _ = run(capsys, "sweep-distance")
        first_nonpositive = {}
        for scheme, d_km, key_rate in csv_rows(out)[1:]:
            if float(key_rate) <= 0.0 and scheme not in first_nonpositive:
                first_nonpositive[scheme] = float(d_km)
        assert (first_nonpositive["untrusted"]
                < first_nonpositive["active_switch"]
                < first_nonpositive["passive_bs"])

    def test_single_scheme_selection(self, capsys):
        _, out, _ = run(capsys, "sweep-distance", "--scheme", "untrusted",
                        "--d-stop", "5")
        schemes = {row[0] for row in csv_rows(out)[1:]}
        assert schemes == {"untrusted"}

    def test_comma_separated_selection(self, capsys):
        _, out, _ = run(capsys, "sweep-distance", "--scheme", "untrusted,passive",
                        "--d-stop", "2")
        schemes = [row[0] for row in csv_rows(out)[1:]]
        assert set(schemes) == {"untrusted", "passive_bs"}

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep-distance", "--d-start", "10",
                           "--d-stop", "5")
        assert code == 1
        assert "range" in err


# ----------------------------------------------------------------- grid-T

class TestGridT:
    def test_grid_and_footer_shape(self, capsys):
        code, out, _ = run(capsys, "grid-T", "--T-start", "0.2", "--T-stop", "0.3",
                           "--T-step", "0.05", "--d-stop", "10", "--d-step", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T,d_km,key_rate"
        footer_at = lines.index("T,secure_distance_km")
        grid_rows = lines[1:footer_at]
        footer_rows = lines[footer_at + 1:]
        assert len(grid_rows) == 3 * 6    # 3 taps x 6 distances
        assert len(footer_rows) == 3      # exactly one per tap value
        for row in footer_rows:
            tap, dist = row.split(",")
            assert 0.2 <= float(tap) <= 0.3
            assert dist == "" or float(dist) >= 0.0

    def test_out_of_range_tap_rejected(self, capsys):
        code, _, err = run(capsys, "grid-T", "--T-stop", "1.0")
        assert code == 1
        assert "0.99" in err

    def test_insecure_grid_has_empty_footer_entries(self, capsys):
        code, out, _ = run(capsys, "grid-T", "--beta", "0", "--T-start", "0.4",
                           "--T-stop", "0.5", "--T-step", "0.1",
                           "--d-stop", "4", "--d-step", "2")
        assert code == 0
        lines = out.strip().splitlines()
        footer = lines[lines.index("T,secure_distance_km") + 1:]
        assert all(row.endswith(",") for row in footer)


# --------------------------------------------------------------- finite-size

class TestFiniteSize:
    def test_analytic_mode(self, capsys):
        code, out, _ = run(capsys, "finite-size", "--sigma-hat2", "0.1",
                           "--m", "1e8", "--eps-sm", "1e-10")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["sigma_hat2", "m", "eps_sm", "z", "delta_chi_s",
                           "sigma_min2"]
        z = float(rows[1][3])
        delta = float(rows[1][4])
        assert math.isclose(z, 6.466951087241, abs_tol=1e-6)
        assert math.isclose(delta, 9.1456499348e-05, rel_tol=1e-6)

    def test_simulation_mode_schema(self, capsys):
        code, out, _ = run(capsys, "finite-size", "--m", "1000", "--seed", "7")
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["V", "chi_s", "m", "seed", "eps_sm", "sigma_hat2",
                           "z", "delta_chi_s", "sigma_min2"]
        assert rows[1][3] == "7"

    def test_simulation_with_coverage_footer(self, capsys):
        code, out, _ = run(capsys, "finite-size", "--m", "200", "--seed", "3",
                           "--trials", "120")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == ("trials,failure_rate,mean_sigma_hat2,std_sigma_hat2,"
                            "assumed_dispersion,moment_dispersion")
        fields = lines[3].split(",")
        assert fields[0] == "120"
        assert 0.0 <= float(fields[1]) <= 1.0

    def test_byte_identical_output_for_fixed_seed(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run(capsys, "finite-size", "--m", "1000", "--seed", "42",
                             "--trials", "100", "--out", str(path))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_tiny_sample_exits_one(self, capsys):
        code, _, err = run(capsys, "finite-size", "--m", "1")
        assert code == 1
        assert "2" in err

    def test_negative_estimate_is_flagged(self, capsys):
        # V=40 with chi_s=0 and few samples: the estimate is negative about
        # half the time; pick a seed where it is
        for seed in range(20):
            code, out, err = run(capsys, "finite-size", "--m", "16",
                                 "--chi-s", "0", "--seed", str(seed))
            assert code == 0
            if float(csv_rows(out)[1][5]) < 0.0:
                assert "negative" in err
                return
        pytest.fail("no negative estimate in 20 seeds at m=16")


# ------------------------------------------------------------- infrastructure

class TestOutputAndConfig:
    def test_out_file_and_summary_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, err = run(capsys, "keyrate", "--d", "2", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("scheme,")
        assert "secure" in out
        assert err == ""

    def test_sweep_bytes_are_stable_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(capsys, "sweep-distance", "--d-stop", "10", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nine_significant_digits(self, capsys):
        _, out, _ = run(capsys, "keyrate", "--d", "2")
        key_rate = csv_rows(out)[1][6]
        mantissa = key_rate.lstrip("-0.").replace(".", "").rstrip("0")
        assert len(mantissa) <= 9

    def test_config_file_sets_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comparison point\nbeta = 0.9\nd = 2\n")
        _, from_config, _ = run(capsys, "keyrate", "--config", str(cfg))
        _, direct, _ = run(capsys, "keyrate", "--beta", "0.9", "--d", "2")
        assert from_config == direct

    def test_cli_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=0.9\nd=2\n")
        _, overridden, _ = run(capsys, "keyrate", "--config", str(cfg),
                               "--beta", "0.7")
        _, direct, _ = run(capsys, "keyrate", "--beta", "0.7", "--d", "2")
        assert overridden == direct

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("betta = 0.9\n")
        code, _, err = run(capsys, "keyrate", "--config", str(cfg))
        assert code == 1
        assert "betta" in err

    def test_config_dashed_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chi-s = 0.2\nd = 2\n")
        _, from_config, _ = run(capsys, "keyrate", "--config", str(cfg))
        _, direct, _ = run(capsys, "keyrate", "--chi-s", "0.2", "--d", "2")
        assert from_config == direct

    def test_missing_config_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "keyrate", "--config",
                           str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "config" in err

    NON_FINITE = [
        (["keyrate", "--V", "nan"], "modulation variance"),
        (["keyrate", "--V", "inf"], "modulation variance"),
        (["keyrate", "--chi-s", "nan"], "source-noise variance"),
        (["keyrate", "--chi-s", "inf"], "source-noise variance"),
        (["keyrate", "--eps", "nan"], "excess noise"),
        (["keyrate", "--eps", "inf"], "excess noise"),
        (["keyrate", "--alpha", "nan"], "attenuation"),
        (["keyrate", "--alpha", "inf"], "attenuation"),
        (["keyrate", "--d", "nan"], "distance must be"),
        (["finite-size", "--V", "nan"], "modulation variance"),
        (["finite-size", "--V", "inf"], "modulation variance"),
        (["finite-size", "--chi-s", "nan"], "source-noise variance"),
        (["finite-size", "--chi-s", "inf"], "source-noise variance"),
        (["finite-size", "--V", "nan", "--m", "1000", "--trials", "100"], "modulation variance"),
        (["finite-size", "--sigma-hat2", "nan"], "must be finite"),
        (["finite-size", "--sigma-hat2", "inf"], "must be finite"),
        (["finite-size", "--sigma-hat2=-inf"], "must be finite"),
    ]

    @pytest.mark.parametrize("argv, message", NON_FINITE,
                             ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in NON_FINITE])
    def test_non_finite_input_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    def test_module_entry_point_runs_without_warning(self):
        src = str(Path(cvqkd_mon.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "cvqkd_mon.cli", "keyrate", "--d", "2"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.startswith("scheme,")
        assert "RuntimeWarning" not in proc.stderr

    def test_scientific_notation_integer_flags(self, capsys):
        code, out, _ = run(capsys, "finite-size", "--sigma-hat2", "0.1",
                           "--m", "1e6")
        assert code == 0
        assert csv_rows(out)[1][1] == "1000000"
