import io
import json
import math
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quvar import OzawaConfig, _fanout, cli, run_protocol
from quvar.cli import main

SQRT3 = math.sqrt(3.0)

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "ozawa_reference.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestBounds:
    def test_free_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--system", "free", "--t-max", "1", "--steps", "2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "lower", "upper", "sql_line"]
        t, lower, upper, sql = (float(tok) for tok in rows[-1])
        assert t == 1.0
        assert lower == pytest.approx(2.0 - SQRT3, rel=1e-15)
        assert upper == pytest.approx(2.0 + SQRT3, rel=1e-15)
        assert sql == 1.0

    def test_t0_row_collapses_to_vxx0(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--vxx0", "0.7", "--steps", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == float(rows[0][2]) == 0.7

    def test_minimum_uncertainty_degenerate_everywhere(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--vxx0", "0.5", "--vpp0", "0.5", "--steps", "5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[1] == row[2]

    def test_oscillator_has_empty_sql_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--system", "osc-dimless", "--steps", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(row[3] == "" for row in rows)

    def test_seventeen_digit_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--steps", "7", "--t-max", "1.3")
        _, rows = parse_csv(out)
        for row in rows:
            for tok in row[:3]:
                assert f"{float(tok):.17g}" == tok

    def test_invalid_product_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--vxx0", "0.1", "--vpp0", "0.1")
        assert code == 2
        assert "uncertainty product" in err

    def test_infinite_t_max_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--t-max", "inf")
        assert code == 2
        assert out == ""
        assert "--t-max must be > 0 and finite" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "--steps", "11")
        _, out2, _ = run_cli(capsys, "bounds", "--steps", "11")
        assert out1 == out2

    @pytest.mark.skipif(
        not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
        reason="the CSV chunks fan out only where os.fork and os.sched_getaffinity exist",
    )
    @pytest.mark.parametrize("system", ["free", "osc"])
    def test_a_fanned_out_table_equals_the_serial_one(self, capsys, monkeypatch, system):
        argv = ["bounds", "--system", system, "--m", "1.3", "--omega", "0.7", "--hbar", "0.9",
                "--vxx0", "1.1", "--vpp0", "0.8", "--t-max", "3", "--steps", "100000"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fanned = []
        real = _fanout._fanned
        monkeypatch.setattr(_fanout, "_fanned", lambda *args: fanned.append(args) or real(*args))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and len(fanned) == 1
        monkeypatch.setattr(cli, "_FANOUT_ROWS", math.inf)
        assert run_cli(capsys, *argv) == (0, out, "")
        assert len(fanned) == 1 and out.count("\n") == 100002

    @pytest.mark.skipif(
        not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
        reason="the CSV chunks fan out only where os.fork and os.sched_getaffinity exist",
    )
    def test_a_closed_pipe_leaves_no_worker_behind(self, monkeypatch):
        class ClosedAfterTheHeader(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(sys, "stdout", ClosedAfterTheHeader())
        with pytest.raises(BrokenPipeError) as err:
            main(["bounds", "--steps", "100000"])
        assert sys.stdout.getvalue() == "t,lower,upper,sql_line\n"
        # The traceback keeps the CSV generator's frame alive; the workers are gone anyway.
        assert err.traceback
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_negative_dimensionless_omega_names_omega(self, capsys):
        # The model is built before the first row, so the error names omega
        # rather than the phase omega*t it would produce.
        code, out, err = run_cli(capsys, "bounds", "--system", "osc-dimless", "--omega", "-1")
        assert code == 2
        assert out == ""
        assert err == "omega must be >= 0, got -1.0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # (t/m)² overflows: the rows would read nan/inf.
            (["--t-max", "1e200", "--m", "1e-200", "--steps", "2"], "envelope is not finite at t"),
            # t itself overflows: 2 * 1e308 = inf.
            (["--t-max", "1e308", "--steps", "4"], "t must be >= 0 and finite, got inf"),
            # Only the sql line ħt/m overflows, in ħ·t.
            (["--t-max", "1e155", "--steps", "1", "--hbar", "1e154", "--m", "1e10",
              "--vxx0", "1e300", "--vpp0", "3e7"], "sql line is not finite at t = 1e+155"),
            # ħ² overflows: the product check must still reject vxx0·vpp0 = 1.
            (["--hbar", "1e200"], "uncertainty product below minimum"),
            # ωt overflows, where cos(ωt) raised a bare "math domain error".
            (["--system", "osc-dimless", "--omega", "1e300", "--t-max", "1e10"],
             "phase omega*t is not finite at t = 200000000.0"),
        ],
    )
    def test_non_finite_rows_exit_2_before_any_output(self, capsys, tmp_path, argv, message):
        path = tmp_path / "table.csv"
        for extra in ([], ["--output", str(path)]):
            code, out, err = run_cli(capsys, "bounds", *argv, *extra)
            assert code == 2
            assert out == ""
            assert message in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "m, omega", [("1e100", "1e100"), ("1e-300", "1e10"), ("1e300", "1e10")]
    )
    @pytest.mark.parametrize("command", ["bounds", "oracle"])
    def test_unusable_oscillator_scale_exits_2(self, capsys, command, m, omega):
        code, out, err = run_cli(capsys, command, "--system", "osc", "--m", m, "--omega", omega)
        assert code == 2
        assert out == ""
        assert err.startswith("m*omega must have a finite, nonzero square")

    @pytest.mark.parametrize("hbar", ["-1", "0", "nan"])
    @pytest.mark.parametrize("system", ["free", "osc"])
    def test_non_positive_hbar_exits_2(self, capsys, system, hbar):
        code, out, err = run_cli(capsys, "bounds", "--system", system, "--hbar", hbar)
        assert (code, out) == (2, "")
        assert err == f"hbar must be > 0, got {float(hbar)}\n"

    def test_dimensionless_oscillator_ignores_hbar(self, capsys):
        args = ("bounds", "--system", "osc-dimless", "--steps", "3")
        code, out, _ = run_cli(capsys, *args, "--hbar", "-1")
        assert code == 0
        assert out == run_cli(capsys, *args)[1]


class TestExtremal:
    def test_dimensionless_reference_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--system", "osc-dimless", "--vxx0", "1", "--vpp0", "1"
        )
        assert code == 0
        record = json.loads(out)
        assert record["width"]["re"] == pytest.approx(0.5)
        assert record["width"]["im"] == pytest.approx(0.8660254037844386)
        assert record["phase_contract"] == pytest.approx(math.pi / 2.0)
        assert record["state"]["vxp"] == pytest.approx(-SQRT3 / 2.0)

    def test_sign_flip_conjugates_width(self, capsys):
        _, out_plus, _ = run_cli(capsys, "extremal", "--sign", "+")
        _, out_minus, _ = run_cli(capsys, "extremal", "--sign", "-")
        plus = json.loads(out_plus)["width"]
        minus = json.loads(out_minus)["width"]
        assert plus["re"] == minus["re"]
        assert plus["im"] == -minus["im"]

    def test_minimal_product_zero_squeeze(self, capsys):
        _, out, _ = run_cli(capsys, "extremal", "--vxx0", "0.5", "--vpp0", "0.5")
        record = json.loads(out)
        assert record["squeeze"]["r"] == 0.0

    def test_free_system_reports_contraction_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--system", "free", "--vxx0", "1", "--vpp0", "1", "--m", "2"
        )
        assert code == 0
        record = json.loads(out)
        assert record["t_contract"] == pytest.approx(2.0 * SQRT3)

    def test_submininal_product_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--vxx0", "0.2", "--vpp0", "0.2")
        assert code == 2
        assert "uncertainty product" in err

    def test_json_roundtrip_values(self, capsys):
        _, out, _ = run_cli(capsys, "extremal", "--vxx0", "1.37", "--vpp0", "2.11")
        record = json.loads(out)
        again = json.loads(out)
        assert record == again
        assert isinstance(record["state"]["vxx"], float)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mean-x", "inf"], "state.mean_x = inf"),
            (["--mean-p", "nan"], "state.mean_p = nan"),
            # Finite inputs whose width, moments and squeeze labels overflow.
            (["--vxx0", "1e300", "--vpp0", "1e300"], "width.im = inf"),
            (["--system", "free", "--m", "inf"], "t_contract = inf"),
        ],
    )
    def test_non_finite_record_exits_2_before_any_output(self, capsys, tmp_path, argv, message):
        path = tmp_path / "record.json"
        for extra in ([], ["--output", str(path)]):
            code, out, err = run_cli(capsys, "extremal", *argv, *extra)
            assert (code, out) == (2, "")
            assert err == f"extremal record is not finite: {message}\n"
        assert not path.exists()

    def test_overflowing_intermediate_exits_2(self, capsys):
        # |w|² overflows in float ** although vpp = 1e300 itself is finite.
        code, out, err = run_cli(capsys, "extremal", "--vxx0", "1e-300", "--vpp0", "1e300")
        assert (code, out) == (2, "")
        assert err.startswith("extremal state overflows the double range")


class TestOracle:
    def test_default_desk_config_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle")
        assert code == 0
        assert "OK" in out
        max_dev = float(out.strip().splitlines()[-1].split()[3].rstrip(","))
        assert max_dev < 1e-8

    def test_coarse_grid_fails_with_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "64")
        assert code == 1
        assert "oracle failed" in err

    def test_coarse_grid_names_the_n_it_needs(self, capsys):
        argv = ["oracle", "--system", "free", "--m", "1.7", "--hbar", "0.8", "--vxx0", "0.240625",
                "--vpp0", "11.304", "--times", "3"]
        code, out, err = run_cli(capsys, *argv, "--n", "4096")
        assert (code, out) == (1, "")
        assert err.startswith("oracle failed: dx = 0.125 cannot represent")
        assert err.endswith("; n >= 8192 on this domain)\n")
        code, out, _ = run_cli(capsys, *argv, "--n", "8192")
        assert code == 0 and out.endswith(": OK\n")

    def test_t0_only_machine_precision(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--times", "0")
        assert code == 0
        _, rows = parse_csv("\n".join(out.strip().splitlines()[:-1]))
        assert float(rows[0][1]) < 1e-12

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--vxx0", "0.1", "--vpp0", "0.1")
        assert code == 2
        assert "uncertainty product" in err

    def test_empty_times_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--times", ",")
        assert code == 2
        assert "non-empty" in err

    def test_dump_psi(self, capsys, tmp_path):
        path = tmp_path / "psi.csv"
        code, _, _ = run_cli(
            capsys, "oracle", "--times", "0", "--dump-psi", str(path), "--n", "4096"
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,re,im,abs2"
        assert len(lines) == 1 + 4096

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--steps", "0"], "--steps must be >= 1"),
            (["--steps", "-3"], "--steps must be >= 1"),
            (["--t-max", "0"], "--t-max must be > 0 and finite"),
            (["--t-max", "nan"], "--t-max must be > 0 and finite"),
            (["--t-max", "inf"], "--t-max must be > 0 and finite"),
        ],
    )
    def test_bad_time_grid_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--tolerance=nan"], "tolerance must be >= 0 and finite, got nan"),
            (["--tolerance=-1"], "tolerance must be >= 0 and finite, got -1.0"),
            (["--domain-sigmas=0"], "domain_sigmas must be > 0 and finite, got 0.0"),
            (["--domain-sigmas=-1"], "domain_sigmas must be > 0 and finite, got -1.0"),
            (["--domain-sigmas=nan"], "domain_sigmas must be > 0 and finite, got nan"),
            # domain_sigmas·σ vanishes next to ⟨X⟩ = 1: the domain has zero width.
            (["--mean-x=1", "--domain-sigmas=5e-324"],
             "domain_sigmas = 5e-324 gives no domain: [1.0, 1.0]"),
            (["--mean-x=inf"], "mean_x must be finite, got inf"),
            # The t is named before any flow map runs: no RuntimeWarning first.
            (["--times=inf"], "t must be >= 0 and finite, got inf"),
            (["--system=osc-dimless", "--omega=1e300", "--times=1e10"],
             "phase omega*t is not finite at t = 10000000000.0"),
            # ⟨X⟩ + ⟨P⟩t/m overflows: it raised a RuntimeWarning from the flow map.
            (["--mean-p=1.7976931348623157e308", "--times=2.0"],
             "mean position is not finite at t = 2.0"),
        ],
    )
    def test_bad_numbers_exit_2_naming_them(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert (code, out, err) == (2, "", message + "\n")

    def test_overflowing_state_exits_2(self, capsys):
        # |w|² of the saturating state overflows in float ** (an OverflowError).
        code, out, err = run_cli(capsys, "oracle", "--vxx0=1e-300", "--vpp0=1e300", "--times=0.1")
        assert (code, out) == (2, "")
        assert err.startswith("oracle state overflows the double range: ")

    def test_split_step_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n-steps", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-steps" in capsys.readouterr().err


class TestOzawa:
    def test_reference_config_trace(self, capsys):
        code, out, err = run_cli(capsys, "ozawa", "--config", REFERENCE_CONFIG)
        assert code == 0
        assert err == ""
        header, rows = parse_csv(out)
        assert len(rows) == 3
        vxx_pre = [float(row[3]) for row in rows]
        meter_vyy0 = 1.0
        assert all(v <= meter_vyy0 + 1e-9 for v in vxx_pre[1:])

    def test_single_measurement(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["N"] = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["mode"] = "sample"
        raw["N"] = 5
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(raw))
        _, out1, _ = run_cli(capsys, "ozawa", "--config", str(path))
        _, out2, _ = run_cli(capsys, "ozawa", "--config", str(path))
        assert out1 == out2

    def test_schema_violation_names_field(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        del raw["tau"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert "tau" in err

    def test_strict_promotes_warnings(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["Omega"] = 1000.0  # Omega*tau = 1.0
        path = tmp_path / "warned.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 0
        assert "warning" in err
        code_strict, out_strict, _ = run_cli(
            capsys, "ozawa", "--config", str(path), "--strict"
        )
        assert code_strict == 1
        assert out_strict == out  # trace still emitted

    def test_dimensionless_oscillator_config(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["system"] = {"variant": "dimensionless_oscillator", "omega": 1.0}
        raw["meter_variances"] = {"vyy0": 1.0, "vpp_y0": 2.0}
        raw["initial_system"] = {
            "mean_x": 0.0,
            "mean_p": 0.0,
            "vxx": 1.0,
            "vxp": -0.5 * math.sqrt(4.0 * 2.0 - 1.0),
            "vpp": 2.0,
        }
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(row[3]) <= 1.0 + 1e-9 for row in rows)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "ozawa", "--config", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literal_exits_2(self, capsys, tmp_path, literal):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["tau"] = "placeholder"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw).replace('"placeholder"', literal))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("invalid config: ")
        assert literal in err

    @pytest.mark.parametrize(
        "field",
        ["k", "tau", "meter_variances.vyy0", "initial_system.mean_x", "system.m"],
    )
    def test_overflowing_number_exits_2(self, capsys, tmp_path, field):
        # 1e999 is valid JSON and parses to inf.
        raw = json.loads(open(REFERENCE_CONFIG).read())
        *parents, leaf = field.split(".")
        node = raw
        for key in parents:
            node = node[key]
        node[leaf] = "placeholder"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw).replace('"placeholder"', "1e999"))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == f"invalid config: {field}: must be finite, got inf\n"

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_integer_beyond_the_float_range_exits_2(self, capsys, tmp_path, digits):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["k"] = "placeholder"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw).replace('"placeholder"', "1" + "0" * (digits - 1)))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert out == ""
        if digits < 4300:  # beyond that json.load itself refuses the literal
            assert err.startswith("invalid config: k: must be finite, got 1000")
        else:
            assert err.startswith("config is not valid JSON: ")

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(mode="sample", N=40)
        config_path = tmp_path / "sampled.json"
        config_path.write_text(json.dumps(raw))
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "ozawa", "--config", str(config_path))
        assert code == 0
        code, out_with_file, _ = run_cli(
            capsys, "ozawa", "--config", str(config_path), "--output", str(trace_path)
        )
        assert code == 0
        assert out_with_file == ""
        want = run_protocol(OzawaConfig.from_dict(raw)).to_csv().encode()
        assert trace_path.read_bytes() == out.encode() == want

    def test_zero_horizon_auto_schedule_exits_2(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["meter_variances"] = {"vyy0": 0.5, "vpp_y0": 0.5}
        raw["initial_system"] = {
            "mean_x": 0.0, "mean_p": 0.0, "vxx": 0.5, "vxp": 0.0, "vpp": 0.5,
        }
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert "horizon" in err

    @pytest.mark.parametrize(
        "system",
        [{"variant": "free_mass", "m": 1e-300},
         {"variant": "dimensionless_oscillator", "omega": 1e300},
         # The flow is finite, but the meter covariance evolved with it overflows.
         {"variant": "free_mass", "m": 1e-150}],
    )
    def test_non_finite_flow_over_the_period_exits_2(self, capsys, tmp_path, system):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(system=system, T=1e10)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("invalid config: T: ")

    @pytest.mark.parametrize("n", [1, 2])
    def test_an_overflowing_posterior_covariance_names_its_round(self, capsys, tmp_path, n):
        # Off dose the posterior is not the meter's preparation, so T passes the
        # config's meter check while the free flow overflows the posterior's
        # covariance. Round 1 is named even when it is the last round.
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(T=5e153, k=raw["k"] * 0.1, N=n)
        raw["initial_system"]["vpp"] = 100.0
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # none may reach stderr
            code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.endswith(
            "protocol failed: round 1: posterior covariance overflows over T - tau = 5e+153\n"
        )
        assert "RuntimeWarning" not in err

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw["seed"] = -1
        path = tmp_path / "negative_seed.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "invalid config: seed: must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "mutate, err",
        [
            (lambda raw: raw["system"].update(m=0), "system.m: must be > 0, got 0"),
            (lambda raw: raw.update(Mode="sample"), "Mode: unknown field"),
            (lambda raw: raw.update(hbar=None), "hbar: expected a number, got None"),
            (lambda raw: raw["initial_system"].update(vxx="1.0"),
             "initial_system.vxx: expected a number, got '1.0'"),
        ],
    )
    def test_fields_the_schema_rejects_exit_2(self, capsys, tmp_path, mutate, err):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        mutate(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code, out, got = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out, got) == (2, "", f"invalid config: {err}\n")


def run_in_process(argv):
    """main(argv) with stdout and stderr captured; any exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Each float flag: a moderate positive value, or one of the values that broke
# the CLI before (huge, tiny, zero, negative, nan, inf), or any double.
FLAG_VALUES = st.one_of(
    st.floats(min_value=0.05, max_value=20.0),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, -1e300, 1.7976931348623157e308, 5e-324,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def float_flags(draw, names):
    """--name=value for a random subset of the flags ("=" keeps "-inf" a value)."""
    argv = []
    for name in names:
        value = draw(st.one_of(st.none(), FLAG_VALUES))
        if value is not None:
            argv.append(f"{name}={value!r}")
    return argv


def assert_finite_17g(token):
    value = float(token)
    assert math.isfinite(value) and f"{value:.17g}" == token, token


class TestNoInputEscapes:
    """Every bounds/extremal call prints parseable finite output with exit 0,
    or exits 2 with empty stdout; none raises or warns. Every oracle call
    exits 0 or 1 with a finite report (or, on a grid failure, empty stdout),
    or exits 2 with empty stdout."""

    # The defects this property was written against, kept as fixed cases.
    @example(system="free", steps=2, flags=["--hbar=-1.0"])
    @example(system="osc-dimless", steps=2, flags=["--omega=1e300", "--t-max=1e10"])
    @settings(max_examples=400)
    @given(
        system=st.sampled_from(["free", "osc", "osc-dimless"]),
        steps=st.integers(-1, 12),
        flags=float_flags(["--m", "--omega", "--hbar", "--vxx0", "--vpp0", "--t-max"]),
    )
    def test_bounds(self, system, steps, flags):
        code, out, err = run_in_process(["bounds", "--system", system, f"--steps={steps}", *flags])
        if code == 2:
            assert out == "" and err
            return
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "t,lower,upper,sql_line"
        assert len(lines) == steps + 2
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            for token in fields if system == "free" else fields[:3]:
                assert_finite_17g(token)
            # Variances, and the line ħt/m, are never negative.
            assert 0.0 <= float(fields[1]) <= float(fields[2]), line
            assert system != "free" or float(fields[3]) >= 0.0, line

    @example(system="osc-dimless", sign="+", flags=["--mean-x=inf"])
    @example(system="osc-dimless", sign="+", flags=["--vxx0=1e300", "--vpp0=1e300"])
    @example(system="osc-dimless", sign="+", flags=["--vxx0=1e-300", "--vpp0=1e300"])
    @settings(max_examples=400)
    @given(
        system=st.sampled_from(["free", "osc-dimless"]),
        sign=st.sampled_from(["+", "-"]),
        flags=float_flags(["--m", "--hbar", "--vxx0", "--vpp0", "--mean-x", "--mean-p"]),
    )
    def test_extremal(self, system, sign, flags):
        code, out, err = run_in_process(["extremal", "--system", system, f"--sign={sign}", *flags])
        if code == 2:
            assert out == "" and err
            return
        assert code == 0, err

        def reject(token):
            raise AssertionError(f"non-finite JSON token {token}")

        record = json.loads(out, parse_constant=reject)
        assert record["system"] == system

    # The defects this property was written against, kept as fixed cases.
    @example(system="osc-dimless", sign="+", n=256, flags=["--omega=1e300", "--times=1e10"])
    @example(system="free", sign="+", n=256, flags=["--vxx0=1e-300", "--vpp0=1e300", "--times=.1"])
    @example(system="free", sign="+", n=256, flags=["--tolerance=nan"])
    @example(system="free", sign="+", n=256, flags=["--tolerance=-1.0"])
    @example(system="free", sign="+", n=256, flags=["--domain-sigmas=0.0"])
    @example(system="free", sign="+", n=256, flags=["--mean-x=inf"])
    @example(system="free", sign="+", n=256, flags=["--times=inf"])
    @example(system="free", sign="+", n=2, flags=["--mean-p=1.7976931348623157e+308"])
    @example(system="free", sign="+", n=2, flags=["--mean-x=1.7976931348623157e308",
                                                  "--domain-sigmas=1e300"])
    # Random flags rarely leave a grid this small usable: pin both report outcomes.
    @example(system="free", sign="+", n=256, flags=["--times=0.5"])
    @example(system="free", sign="+", n=256, flags=["--times=0.5", "--tolerance=0.0"])
    @example(system="osc", sign="+", n=256, flags=["--times=0.5", "--domain-sigmas=12.0"])
    @example(system="osc-dimless", sign="-", n=256, flags=["--domain-sigmas=12.0"])
    @settings(max_examples=400)
    @given(
        system=st.sampled_from(["free", "osc", "osc-dimless"]),
        sign=st.sampled_from(["+", "-"]),
        # Never a large n: 2**30 points would ask numpy for 8 GiB.
        n=st.sampled_from([2, 3, 64, 256]),
        flags=float_flags(["--m", "--omega", "--hbar", "--vxx0", "--vpp0", "--mean-x",
                           "--mean-p", "--t-max", "--tolerance", "--domain-sigmas", "--times"]),
    )
    def test_oracle(self, system, sign, n, flags):
        argv = ["oracle", "--system", system, f"--sign={sign}", f"--n={n}", *flags]
        code, out, err = run_in_process(argv)
        if code == 2 or out == "":
            assert code in (1, 2) and out == "" and err, (code, err)
            return
        assert code in (0, 1), err
        lines = out.splitlines()
        assert lines[0] == "t,moment_dev,envelope_dev"
        for line in lines[1:-1]:
            fields = line.split(",")
            assert len(fields) == 3, line
            for token in fields:
                assert_finite_17g(token)
        assert lines[-1].endswith(": OK" if code == 0 else ": FAIL"), lines[-1]
