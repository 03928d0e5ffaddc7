import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from abxs import cli, metrics
from abxs.channel import ChannelParams, snr_pdf
from oracles import rayleigh_bpsk_aber

# mpmath references at 40 digits for the four preset CSVs.
FIGURES_REFERENCE = (pathlib.Path(__file__).resolve().parent.parent
                     / "perfbench" / "reference" / "figures.json")


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def exit_code(capsys, *argv):
    """cli.main's exit code, whether it returns it or raises SystemExit."""
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    capsys.readouterr()
    return rc


class TestSweepSpec:
    """The --sweep VAR=START:STEP:STOP specification."""

    def test_sweep_replaces_one_field_of_the_baseline(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "capacity", "--mx", "1.5",
                             "--my", "2", "--omega-y", "-3", "--snr-db", "10",
                             "--sweep", "alpha=1:0.5:2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,exact,asymptotic"
        for line, alpha in zip(lines[1:], (1.0, 1.5, 2.0), strict=True):
            pars = ChannelParams(1.5, 2.0, 1.0, cli.db_to_linear(-3.0), alpha, 10.0)
            cells = line.split(",")
            assert float(cells[0]) == alpha
            assert cells[1] == cli._fmt(metrics.capacity_mixture(pars).value)
            assert float(cells[1]) == pytest.approx(metrics.capacity_exact(pars).value,
                                                    rel=1e-6)

    def test_bad_sweep_variable_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--metric", "aber", "--mod", "bpsk",
                             "--sweep", "bogus=1:1:3", "--snr-db", "5")
        assert rc == 2
        assert "sweep variable" in err


class TestParsing:
    def test_db_conversion(self):
        assert cli.db_to_linear(2.0) == pytest.approx(1.5848931924611136, rel=1e-15)
        assert cli.db_to_linear(0.0) == 1.0
        assert cli.db_to_linear(-math.inf) == 0.0

    def test_parse_range(self):
        assert cli.parse_range("10") == [10.0]
        assert cli.parse_range("0:5:40") == [float(v) for v in range(0, 45, 5)]
        assert cli.parse_range("1:0.25:1.5") == [1.0, 1.25, 1.5]

    def test_parse_range_rejects(self):
        for bad in ("1:2", "5:0:10", "10:1:0", "nan", "inf", "nan:1:5", "0:nan:40",
                    "0:5:inf", "-inf:5:0"):
            with pytest.raises(ValueError):
                cli.parse_range(bad)

    def test_empty_sweep_is_single_row(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "aber", "--mod", "bpsk",
                             "--snr-db", "10:5:10")
        assert rc == 0
        assert len(out.strip().splitlines()) == 2  # header + one row


class TestEvalCommand:
    def test_rayleigh_bpsk_value(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "aber", "--alpha", "2",
                             "--mx", "1", "--my", "5", "--omega-y", "-inf",
                             "--mod", "bpsk", "--snr-db", "10", "--oracle")
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header == "gamma_bar_db,exact,asymptotic,oracle"
        cells = [float(c) for c in row.split(",")]
        want = rayleigh_bpsk_aber(10.0)
        assert cells[0] == 10.0
        assert cells[1] == pytest.approx(want, rel=1e-8)
        assert cells[3] == pytest.approx(want, rel=1e-10)

    def test_fig2_grid_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--fig", "2", "--snr-db", "0:5:40")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,gamma_bar_db,exact,asymptotic"
        assert len(lines) == 1 + 3 * 9  # three nonlinearity curves, nine SNR points
        # deterministic ordering: curve-major, SNR ascending
        first = [line.split(",")[:2] for line in lines[1:10]]
        assert [c[0] for c in first] == ["1"] * 9
        assert [float(c[1]) for c in first] == [float(v) for v in range(0, 45, 5)]

    def test_fig1_pdf_preset(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--fig", "1", "--gamma", "0.5:0.5:2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,gamma,exact,asymptotic"
        assert len(lines) == 1 + 3 * 4

    def test_eval_leaves_warning_state_alone(self, capsys, recwarn):
        # warnings.catch_warnings is process-global, so eval must neither enter
        # it nor let a warning or an "ignore" filter escape.
        before = list(warnings.filters)
        for _ in range(5):
            rc, _, err = run_cli(capsys, "eval", "--fig", "4", "--snr-db", "0:10:40")
            assert rc == 0 and err == ""
            assert warnings.filters == before
        assert len(recwarn) == 0

    def test_full_precision_cells(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "aber", "--mod", "bpsk",
                             "--snr-db", "7")
        row = out.strip().splitlines()[1].split(",")
        val = float(row[1])
        assert row[1] == format(val, ".17g")  # round-trips exactly

    def test_mc_columns(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "aber", "--mod", "qam16",
                             "--snr-db", "5", "--mc", "20000", "--seed", "9")
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header.endswith("mc,mc_se")
        cells = [float(c) for c in row.split(",")]
        assert abs(cells[-2] - cells[1]) < 4.0 * cells[-1]

    def test_mc_deterministic(self, capsys):
        args = ("eval", "--metric", "capacity", "--snr-db", "5",
                "--mc", "10000", "--seed", "4")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b

    def test_cdf_oracle_column(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--metric", "cdf", "--gamma", "1.5",
                             "--snr-db", "5", "--oracle")
        assert rc == 0
        row = [float(c) for c in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(row[3], abs=1e-8)


def preset_rows(capsys, *argv):
    """(header, rows of floats) of one in-process eval run."""
    rc, out, err = run_cli(capsys, "eval", *argv)
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


class TestPresets:
    """The preset CSVs against independent routes and the paper's closed form."""

    @pytest.mark.parametrize("fig, count", [("2", 27), ("4", 36)])
    def test_exact_matches_oracle(self, capsys, fig, count):
        # The exact column is an NB-weight trapezoid; the oracle is QUADPACK on
        # the closed-form 1F1 density. They share no code.
        header, rows = preset_rows(capsys, "--fig", fig, "--oracle")
        exact, oracle = header.index("exact"), header.index("oracle")
        assert len(rows) == count
        for row in rows:
            assert row[exact] == pytest.approx(row[oracle], rel=1e-10), row

    def test_fig3_exact_tracks_closed_form(self, capsys):
        header, rows = preset_rows(capsys, "--fig", "3")
        assert header == ["m_x", "m_y", "alpha", "exact", "asymptotic"]
        qam16 = cli.get_modulation("qam16")
        assert len(rows) == 4 * 13
        for m_x, m_y, alpha, exact, _ in rows:
            pars = ChannelParams(m_x, m_y, cli.db_to_linear(-3.0), cli.db_to_linear(3.0),
                                 alpha, cli.db_to_linear(20.0))
            closed_form = metrics.aber_exact_truncation_profile(pars, qam16, k_max=40)[-1]
            assert exact == pytest.approx(closed_form, rel=1e-6)

    def test_fig1_bytes_pinned(self, capsys):
        # Re-pinned when each curve's exact column became one snr_pdf call
        # over its 160 gamma values: 357 of the 480 exact cells moved, by at
        # most 8.9e-16 relative (a kernel block sums the union of its nodes'
        # windows); no asymptotic cell moved.
        rc, out, _ = run_cli(capsys, "eval", "--fig", "1")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee7ef9b4d055b81e3b16e8661adfd60fe1cf9042e00e11db9cece0d7af9c4919")

    @pytest.mark.parametrize("metric", ["pdf", "cdf"])
    def test_one_statistic_call_per_curve(self, capsys, monkeypatch, metric):
        name = f"snr_{metric}"
        real, shapes = getattr(cli, name), []

        def spy(params, gamma):
            shapes.append(np.shape(gamma))
            return real(params, gamma)

        monkeypatch.setattr(cli, name, spy)
        rc, out, _ = run_cli(capsys, "eval", "--fig", "1", "--metric", metric)
        assert rc == 0 and len(out.strip().splitlines()) == 1 + 480
        assert shapes == [(160,)] * 3

    def test_fig1_matches_mpmath(self, capsys):
        header, rows = preset_rows(capsys, "--fig", "1")
        ref = json.loads(FIGURES_REFERENCE.read_text())["1"]
        assert header == ref["header"] and len(rows) == len(ref["rows"]) == 480
        for row, want in zip(rows, ref["rows"]):
            assert row[:2] == [float(v) for v in want["inputs"]]
            assert row[2] == pytest.approx(want["value"], rel=3e-14, abs=0.0)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(capsys, "eval", "--nonsense")[0] == 2

    def test_bad_modulation_is_usage_error(self, capsys):
        assert run_cli(capsys, "eval", "--mod", "qam13", "--snr-db", "5")[0] == 2

    def test_oracle_with_pdf_is_usage_error(self, capsys):
        assert run_cli(capsys, "eval", "--metric", "pdf", "--oracle")[0] == 2

    def test_invalid_parameter_is_numerical_failure(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--metric", "aber", "--mx", "-1",
                             "--mod", "bpsk", "--snr-db", "5")
        assert rc == 3
        assert "m_x" in err

    def test_non_finite_range_is_usage_error(self, capsys):
        assert run_cli(capsys, "eval", "--snr-db", "0:5:inf")[0] == 2
        assert run_cli(capsys, "eval", "--metric", "pdf", "--gamma", "nan")[0] == 2

    def test_zero_mc_trials_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--metric", "aber", "--mod", "bpsk",
                               "--snr-db", "5", "--mc", "0")
        assert rc == 2
        assert out == ""
        assert "trials" in err

    def test_success_is_zero(self, capsys):
        assert run_cli(capsys, "eval", "--metric", "aber", "--mod", "bpsk",
                       "--snr-db", "5")[0] == 0


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("metric=aber\nmod=bpsk\nmx=1\nmy=5\nomega-y=-inf\nsnr-db=10\n")
        rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert rc == 0
        row = [float(c) for c in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(rayleigh_bpsk_aber(10.0), rel=1e-8)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("metric=aber\nmod=bpsk\nmx=1\nmy=5\nomega-y=-inf\nsnr-db=10\n")
        rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--snr-db", "20")
        row = [float(c) for c in out.strip().splitlines()[1].split(",")]
        assert row[0] == 20.0
        assert row[1] == pytest.approx(rayleigh_bpsk_aber(100.0), rel=1e-8)

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        path = str(tmp_path / "absent.conf")
        rc, _, err = run_cli(capsys, "eval", "--config", path)
        assert rc == 2
        assert path in err

    def test_config_values_are_checked_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("metric=bogus\nsnr-db=10\n")
        assert exit_code(capsys, "eval", "--config", str(cfg)) == 2
        cfg.write_text("no_such_flag=1\n")
        assert exit_code(capsys, "eval", "--config", str(cfg)) == 2

    def test_config_lines_name_flags(self, capsys, tmp_path):
        # underscores stand for dashes, and a bare key sets a switch
        cfg = tmp_path / "run.conf"
        cfg.write_text("mod=bpsk\nmx=1\nmy=5\nomega_y=-inf\nsnr_db=10\noracle\n")
        rc, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        header, row = out.strip().splitlines()
        assert rc == 0 and header == "gamma_bar_db,exact,asymptotic,oracle"
        cells = [float(c) for c in row.split(",")]
        assert cells[0] == 10.0
        assert cells[1] == pytest.approx(rayleigh_bpsk_aber(10.0), rel=1e-8)
        cfg.write_text("metric\n")  # a flag that takes a value
        assert exit_code(capsys, "eval", "--config", str(cfg)) == 2


class TestPrecedence:
    """Flag, then --fig preset, then --config file, then built-in default."""

    def test_abbreviated_flags_beat_the_preset(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--fig", "2", "--mo", "qam4", "--snr-db", "10")
        assert rc == 0
        row = out.strip().splitlines()[1].split(",")
        qam4 = cli.get_modulation("qam4")
        pars = ChannelParams(1.2, 1.2, cli.db_to_linear(1.0), cli.db_to_linear(1.0), 1.0, 10.0)
        assert row[:2] == ["1", "10"]
        assert row[2] == cli._fmt(metrics.aber_mixture(pars, qam4).value)
        assert float(row[2]) == pytest.approx(metrics.aber_exact(pars, qam4).value, rel=1e-6)
        rc, out, _ = run_cli(capsys, "eval", "--fig", "2", "--sn", "10")
        assert rc == 0
        assert len(out.strip().splitlines()) == 1 + 3  # one SNR point per curve

    def test_preset_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        # fig 2 sets the SNR grid and the modulation but no --sweep
        cfg.write_text("snr-db=10\nmod=bpsk\nsweep=gamma_bar_db=0:20:40\n")
        _, with_config, _ = run_cli(capsys, "eval", "--fig", "2", "--config", str(cfg))
        _, flags_only, _ = run_cli(capsys, "eval", "--fig", "2", "--snr-db", "0:20:40")
        assert with_config == flags_only
        assert len(with_config.strip().splitlines()) == 1 + 3 * 3

    def test_preset_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("fig=2\nsnr-db=20\n")
        _, from_config, _ = run_cli(capsys, "eval", "--config", str(cfg), "--snr-db", "15")
        _, from_flag, _ = run_cli(capsys, "eval", "--fig", "2", "--snr-db", "15")
        assert from_config == from_flag


class TestSimulateCommand:
    def test_histogram_and_summary(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--trials", "40000", "--bins", "20",
                             "--seed", "6", "--mx", "1.6", "--my", "1.5",
                             "--omega-x", "2", "--omega-y", "2", "--snr-db", "3")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,empirical_density,model_pdf"
        assert len([l for l in lines if not l.startswith("#")]) == 21
        summary = [l for l in lines if l.startswith("#")]
        assert any("ks_PASS_at_1pct" in l for l in summary)
        assert any("sample_mean" in l for l in summary)

    def test_model_pdf_is_the_pdf_at_the_bin_centres(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "--trials", "20000", "--bins", "30",
                             "--seed", "4", "--alpha", "2.5", "--snr-db", "5")
        assert rc == 0
        pars = ChannelParams(1.0, 1.0, 1.0, 1.0, 2.5, cli.db_to_linear(5.0))
        rows = [line.split(",") for line in out.strip().splitlines()[1:] if line[0] != "#"]
        assert len(rows) == 30
        for lo, hi, _, _, model in rows:
            centre = 0.5 * (float(lo) + float(hi))
            assert float(model) == pytest.approx(snr_pdf(pars, centre), rel=2e-15, abs=0.0)

    def test_zero_bins_is_usage_error(self, capsys):
        assert exit_code(capsys, "simulate", "--bins", "0") == 2

    def test_seeded_runs_identical(self, capsys):
        args = ("simulate", "--trials", "20000", "--seed", "8", "--snr-db", "5")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b


class TestRemovedCommands:
    def test_benchmark_is_unknown(self, capsys):
        assert exit_code(capsys, "benchmark") == 2

    def test_threads_is_unknown(self, capsys, monkeypatch):
        assert exit_code(capsys, "eval", "--snr-db", "5", "--threads", "2") == 2
        monkeypatch.setenv("ABXS_THREADS", "two")  # ignored, not a usage error
        assert exit_code(capsys, "eval", "--snr-db", "5") == 0
