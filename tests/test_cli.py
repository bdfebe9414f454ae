"""Command-line interface: schemas, exit codes, determinism, @FILE flag files."""

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cvqkd_mon
from cvqkd_mon import cli
from cvqkd_mon.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert "exactly one scheme" in err

    def test_one_scheme_named_twice_is_one_scheme(self, capsys):
        assert run(capsys, "keyrate", "--d", "2", "--scheme", "active,active_switch") \
            == run(capsys, "keyrate", "--d", "2", "--scheme", "active")

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

    def test_repeated_schemes_evaluated_once_in_first_seen_order(self, capsys):
        code, out, err = run(capsys, "sweep-distance", "--scheme",
                             "passive,untrusted,passive_bs,untrusted", "--d-stop", "1")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1:]] == ["passive_bs"] * 3 + ["untrusted"] * 3
        assert "swept 2 scheme(s)" in err

    def test_all_inside_a_list_expands(self, capsys):
        assert run(capsys, "sweep-distance", "--scheme", "all,untrusted", "--d-stop", "1") \
            == run(capsys, "sweep-distance", "--scheme", "all", "--d-stop", "1")

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
        # just outside [0.01, 0.99] at either end
        for tap in ("0.995", "0.005"):
            code, out, err = run(capsys, "grid-T", "--T-start", tap, "--T-stop", tap)
            assert (code, out) == (1, ""), tap
            assert "0.99" in err

    @pytest.mark.parametrize("d_stop", ["0", "-1"])
    def test_nonpositive_search_cap_rejected_before_any_point(self, d_stop, capsys,
                                                              monkeypatch):
        import cvqkd_mon.schemes as schemes

        calls = []
        for namespace in (cli, schemes):
            monkeypatch.setattr(namespace, "keyrate_at_distance",
                                lambda *args: calls.append(args))
        code, out, err = run(capsys, "grid-T", "--d-stop", d_stop)
        assert (code, out, calls) == (1, "", [])
        assert "--d-stop caps the footer's secure-distance search" in err

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

    def test_trials_with_analytic_estimate_exits_one(self, capsys):
        # the coverage footer needs simulated data, so it is refused, not dropped
        code, out, err = run(capsys, "finite-size", "--sigma-hat2", "0.1", "--m", "1e8",
                             "--trials", "1000")
        assert (code, out) == (1, "")
        assert "--trials" in err and "--sigma-hat2" in err

    @pytest.mark.parametrize("argv", [
        ("--m", "1000", "--trials", "-5"), ("--sigma-hat2", "0.1", "--trials", "-5"),
        ("--m", "1000", "--seed", "-3"),
    ], ids=["simulated-trials", "analytic-trials", "simulated-seed"])
    def test_negative_count_exits_one(self, capsys, argv):
        code, out, err = run(capsys, "finite-size", *argv)
        assert (code, out) == (1, "")
        flag, value = argv[-2:]
        assert f"{flag} must be >= 0, got {value}" in err

    def test_too_few_trials_exit_one_before_the_batch_is_drawn(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "simulated_sigma2", lambda *args: calls.append(args))
        code, out, err = run(capsys, "finite-size", "--m", "1e7", "--trials", "50")
        assert (code, out, calls) == (1, "", [])
        assert "need at least 100 trials" in err

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
        cfg = tmp_path / "run.args"
        cfg.write_text("# comparison point\n\n--beta 0.9   # reconciliation\n--d=2\n")
        _, from_config, _ = run(capsys, "keyrate", f"@{cfg}")
        _, direct, _ = run(capsys, "keyrate", "--beta", "0.9", "--d", "2")
        assert from_config == direct

    def test_cli_flag_overrides_config(self, capsys, tmp_path):
        # later arguments win: a flag after @FILE overrides it, one before does not
        cfg = tmp_path / "run.args"
        cfg.write_text("--beta 0.9\n--d 2\n")
        _, after, _ = run(capsys, "keyrate", f"@{cfg}", "--beta", "0.7")
        _, before, _ = run(capsys, "keyrate", "--beta", "0.7", f"@{cfg}")
        _, direct_07, _ = run(capsys, "keyrate", "--beta", "0.7", "--d", "2")
        _, direct_09, _ = run(capsys, "keyrate", "--beta", "0.9", "--d", "2")
        assert after == direct_07
        assert before == direct_09 != direct_07

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--betta 0.9\n")
        code, out, err = run(capsys, "keyrate", f"@{cfg}")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --betta 0.9" in err

    def test_missing_config_file_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "keyrate", f"@{tmp_path / 'nope.args'}")
        assert code == 1
        assert out == ""
        assert "nope.args" in err

    def test_at_sign_always_names_a_flag_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "keyrate", "--d", "2", "--out", "@x.csv")
        assert code == 1
        assert out == ""
        assert "x.csv" in err
        assert list(tmp_path.iterdir()) == []

    def test_self_including_flag_file_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text(f"--d 2\n@{cfg}\n")
        code, out, err = run(capsys, "keyrate", f"@{cfg}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")

    @pytest.mark.parametrize("cmd", ["keyrate", "sweep-distance", "grid-T", "finite-size"])
    def test_config_flag_is_gone(self, capsys, cmd):
        code, out, err = run(capsys, cmd, "--config", "x")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --config x" in err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="eigen-solver noise at pure-state corners (ROADMAP item 3)")
    def test_pure_state_corner_is_evaluated(self, capsys):
        code, _, _ = run(capsys, "keyrate", "--scheme", "passive", "--d", "0", "--eps", "0",
                         "--V", "1e6")
        assert code in (0, 2)

    def test_readme_command_lines_parse(self, tmp_path, monkeypatch):
        text = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
        flag_file = next(body for _, body in blocks if body.startswith("# run.args"))
        (tmp_path / "run.args").write_text(flag_file)
        monkeypatch.chdir(tmp_path)
        lines = [line for lang, body in blocks if lang == "sh"
                 for line in body.splitlines() if line.startswith("cvqkd-mon ")]
        assert len(lines) == 6
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])

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

    def test_start_up_does_not_import_statistics(self):
        # statistics (with fractions and decimal) is loaded only when z is needed
        src = str(Path(cvqkd_mon.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, cvqkd_mon.cli as c; c.build_parser(); "
                "print('statistics' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_scientific_notation_integer_flags(self, capsys):
        code, out, _ = run(capsys, "finite-size", "--sigma-hat2", "0.1",
                           "--m", "1e6")
        assert code == 0
        assert csv_rows(out)[1][1] == "1000000"


# -------------------------------------------------------------- flag sets

# Help text of every flag, as the CLI has always printed it.
FLAG_HELP = {
    "--help": "show this help message and exit",
    "--V": "EPR-equivalent modulation variance (default 40)",
    "--chi-s": "source-noise variance (default 0.1)",
    "--eps": "channel excess noise (default 0.1)",
    "--beta": "reconciliation efficiency (default 0.8)",
    "--r": "active-scheme sampling ratio (default 0.5)",
    "--T": "passive-scheme tap transmittance (default 0.5)",
    "--alpha": "fiber attenuation, dB/km (default 0.2)",
    "--d": "span length, km (default 10)",
    "--scheme": "untrusted | active_switch | passive_bs (sweeps also accept 'all' "
                "or a comma-separated list)",
    "--out": "CSV output path (default: stdout)",
    "--seed": "PRNG seed (default 1)",
    "--m": "monitor sample count (default 1000000)",
    "--eps-sm": "monitor failure probability (default 1e-10)",
    "--trials": "coverage trials, 0 = skip (default 0)",
    "--d-start": "sweep start, km (default 0)",
    "--d-stop": "sweep stop, km (default 40)",
    "--d-step": "sweep step, km (default 0.5)",
    "--T-start": "tap grid start (default 0.01)",
    "--T-stop": "tap grid stop (default 0.99)",
    "--T-step": "tap grid step (default 0.01)",
    "--sigma-hat2": "analytic mode: use this estimate instead of simulating",
}

PARAMS = {"--V", "--chi-s", "--eps", "--beta", "--r", "--alpha"}
IO = {"--out"}
D_GRID = {"--d-start", "--d-stop", "--d-step"}
TAKES = {
    "keyrate": PARAMS | IO | {"--T", "--d", "--scheme"},
    "sweep-distance": PARAMS | IO | {"--T", "--scheme"} | D_GRID,
    "grid-T": PARAMS | IO | D_GRID | {"--T-start", "--T-stop", "--T-step"},
    "finite-size": IO | {"--V", "--chi-s", "--seed", "--m", "--eps-sm", "--trials",
                         "--sigma-hat2"},
}
DROPPED = [(cmd, flag) for cmd, takes in TAKES.items()
           for flag in FLAG_HELP if flag not in takes | {"--help", "--sigma-hat2"}]


def help_entries(text):
    """{flag: help text} from an argparse help screen, whitespace collapsed."""
    entries, flag = {}, None
    for line in text.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            invocation, _, rest = line.strip().partition("  ")
            flag = invocation.split(",")[-1].split()[0]
            entries[flag] = rest.strip()
        else:
            entries[flag] = f"{entries[flag]} {line.strip()}".strip()
    return entries


class TestFlagSets:
    @pytest.mark.parametrize("cmd, flag", DROPPED, ids=[f"{c}{f}" for c, f in DROPPED])
    def test_flag_not_read_is_rejected(self, capsys, cmd, flag):
        # finite-size --eps also shows that no flag is taken as an abbreviation of --eps-sm
        code, out, err = run(capsys, cmd, flag, "1")
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} 1" in err

    @pytest.mark.parametrize("cmd, key", [("keyrate", "seed"), ("sweep-distance", "T_step"),
                                          ("grid-T", "scheme"), ("finite-size", "d")])
    def test_config_key_of_another_subcommand_rejected(self, capsys, tmp_path, cmd, key):
        flag = cli._flag(key)
        cfg = tmp_path / "run.args"
        cfg.write_text(f"# shared file\n{flag} 1\n")
        code, out, err = run(capsys, cmd, f"@{cfg}")
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag} 1" in err

    @pytest.mark.parametrize("cmd", TAKES)
    def test_help_lists_exactly_its_flags(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        entries = help_entries(capsys.readouterr().out)
        assert set(entries) == TAKES[cmd] | {"--help"}
        assert entries == {flag: FLAG_HELP[flag] for flag in entries}

    BAD_INTEGERS = [
        ("--m", "1.5"), ("--m", "nan"), ("--m", "abc"), ("--trials", "inf"),
        ("--trials", "-inf"), ("--seed", "1e400"), ("--seed", "2.5e0"),
    ]

    @pytest.mark.parametrize("flag, value", BAD_INTEGERS,
                             ids=[f"{f}={v}" for f, v in BAD_INTEGERS])
    def test_bad_integer_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "finite-size", f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert err == f"error: argument {flag}: invalid integer value: {value!r}\n"

    @pytest.mark.parametrize("flag, value", BAD_INTEGERS,
                             ids=[f"{f}={v}" for f, v in BAD_INTEGERS])
    def test_bad_integer_config_value(self, capsys, tmp_path, flag, value):
        cfg = tmp_path / "run.args"
        cfg.write_text(f"{flag}={value}\n")  # "--trials -inf" would read -inf as a flag
        code, out, err = run(capsys, "finite-size", f"@{cfg}")
        assert code == 1
        assert out == ""
        assert err == f"error: argument {flag}: invalid integer value: {value!r}\n"


# ------------------------------------------------------------------ grids

class TestGridFlags:
    NON_FINITE = [
        ("sweep-distance", "--d-start", "nan"), ("sweep-distance", "--d-stop", "inf"),
        ("sweep-distance", "--d-step", "nan"), ("grid-T", "--d-stop", "inf"),
        ("grid-T", "--T-start", "-inf"), ("grid-T", "--T-stop", "nan"),
        ("grid-T", "--T-step", "nan"),
    ]

    @pytest.mark.parametrize("cmd, flag, value", NON_FINITE,
                             ids=[f"{c}{f}={v}" for c, f, v in NON_FINITE])
    def test_non_finite_grid_flag_named(self, capsys, cmd, flag, value):
        code, out, err = run(capsys, cmd, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert f"error: {flag} must be finite, got {value}" in err

    @pytest.fixture
    def no_range(self, monkeypatch):
        """Record each grid size _grid asks for, and build nothing."""
        sizes = []
        monkeypatch.setattr(cli, "range", lambda n: sizes.append(n) or [], raising=False)
        return sizes

    def test_cap_is_checked_from_the_count(self, no_range):
        cfg = {"d_start": 0.0, "d_step": 1.0}
        assert cli._grid({**cfg, "d_stop": 999_999.0}, "d") == []
        assert no_range == [1_000_000]
        with pytest.raises(ValueError, match="--d-step 1.0 gives more than 1000000 points"):
            cli._grid({**cfg, "d_stop": 1_000_000.0}, "d")
        assert no_range == [1_000_000]

    @pytest.mark.parametrize("argv", [
        ["sweep-distance", "--d-step", "1e-9"],
        ["sweep-distance", "--d-step", "1e-300", "--d-stop", "1e300"],
        ["grid-T", "--T-step", "1e-9"],
    ], ids=["tiny-d-step", "overflowing-d-count", "tiny-T-step"])
    def test_tiny_step_rejected_before_allocation(self, capsys, no_range, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"{argv[1]} {float(argv[2])!r} gives more than 1000000 points" in err
        assert no_range == []
