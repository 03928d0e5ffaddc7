import math
import warnings

import pytest

from abxs import cli
from abxs.specfun import PrecisionWarning
from oracles import rayleigh_bpsk_aber


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSweepSpec:
    def test_invariants(self):
        from abxs.channel import ChannelParams
        base = ChannelParams(1.0, 1.0, 1.0, 0.5, 2.0, 10.0)
        spec = cli.SweepSpec("alpha", 1.0, 4.0, 0.5, base, "aber")
        assert spec.values() == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert spec.params_at(3.0).alpha == 3.0
        assert spec.params_at(3.0).m_x == base.m_x
        gb = cli.SweepSpec("gamma_bar_db", 0.0, 10.0, 5.0, base, "capacity")
        assert gb.params_at(10.0).gamma_bar == pytest.approx(10.0)
        for bad in (dict(variable="gamma"), dict(step=0.0), dict(start=9.0)):
            kw = dict(variable="m_x", start=1.0, stop=2.0, step=0.5)
            kw.update(bad)
            with pytest.raises(ValueError):
                cli.SweepSpec(fixed=base, metric="aber", **kw)

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
        for bad in ("1:2", "5:0:10", "10:1:0"):
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

    def test_threads_preserve_order(self, capsys):
        rc, serial, _ = run_cli(capsys, "eval", "--fig", "2", "--snr-db", "0:10:40")
        rc2, threaded, _ = run_cli(capsys, "eval", "--fig", "2", "--snr-db", "0:10:40",
                                   "--threads", "4")
        assert rc == rc2 == 0
        assert serial == threaded

    def test_threads_leave_warning_state_alone(self, capsys, recwarn):
        # warnings.catch_warnings is process-global: worker threads entering and
        # leaving it used to print PrecisionWarnings and leak an "ignore" filter.
        before = list(warnings.filters)
        for _ in range(5):
            rc, _, err = run_cli(capsys, "eval", "--fig", "4", "--snr-db", "0:10:40",
                                 "--threads", "2")
            assert rc == 0 and err == ""
            assert warnings.filters == before
        assert not [w for w in recwarn if issubclass(w.category, PrecisionWarning)]

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
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--config", str(tmp_path / "absent.conf")])
        assert exc.value.code == 2


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

    def test_seeded_runs_identical(self, capsys):
        args = ("simulate", "--trials", "20000", "--seed", "8", "--snr-db", "5")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b


class TestBenchmarkCommand:
    def test_report_structure(self, capsys):
        rc, out, _ = run_cli(capsys, "benchmark", "--repeats", "1", "--step-db", "20")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("regime,param_set,")
        body = [l.split(",") for l in lines[1:]]
        assert {row[0] for row in body} == {"-30..10dB", "10..50dB"}
        assert {row[1] for row in body} == {"integer", "non-integer"}
        for row in body:
            speedup = float(row[5])
            assert math.isfinite(speedup) and speedup > 0.0
            assert float(row[6]) < 0.01  # both routes agree to the 1% target
