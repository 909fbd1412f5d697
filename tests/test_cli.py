import argparse
import ctypes
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quvar
from quvar import (
    ConfigError,
    ExtremalSpec,
    FreeMass,
    GridError,
    Oscillator,
    OzawaConfig,
    _fanout,
    cli,
    run_protocol,
    sample_extremal,
    verify_bounds_oracle,
)
from quvar.cli import main
from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN

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

    @pytest.mark.parametrize("t_max", [2.0, 1e-300, 1.797e308])
    def test_the_time_grid_holds_only_itself(self, t_max):
        # The grid is built in place: no int64 arange and no second float array
        # beside it (15.3 MiB traced for the 7.6 MiB grid when it had both).
        args = argparse.Namespace(t_max=t_max, steps=10**6)
        tracemalloc.start()
        try:
            t = cli._time_grid(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * t.nbytes, peak / t.nbytes
        with np.errstate(over="ignore"):
            assert np.array_equal(t, np.arange(10**6 + 1) * t_max / 10**6)

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
        # stdout is a pipe whose reader is gone: the first flush raises
        # BrokenPipeError inside the chunk loop, and main exits with 141.
        read_end, write_end = os.pipe()
        os.close(read_end)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["bounds", "--steps", "100000"]) == 141
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_a_closed_pipe_leaks_no_descriptor(self, monkeypatch):
        # main points stdout's descriptor at devnull and closes the one it opened.
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert main(["bounds", "--steps", "10"]) == 141
        assert len(os.listdir("/proc/self/fd")) == before

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
            # 4·vxx0·vpp0 overflows too: inf − inf, once reported as a non-finite row.
            (["--hbar", "1e200", "--vxx0", "1e200", "--vpp0", "1e200"],
             "4*vxx0*vpp0 and hbar^2 both overflow: vxx0 = 1e+200, vpp0 = 1e+200, hbar = 1e+200"),
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
        "argv, message",
        [
            # The sql line overflows from row 1 (block 0), the envelope from row
            # 24,479 (block 23): the envelope is named, as its check runs first.
            (["--t-max", "1e161", "--steps", "100000", "--hbar", "1e154", "--m", "1e10",
              "--vxx0", "1e300", "--vpp0", "3e7"],
             "envelope is not finite at t = 2.4479000000000002e+160"),
            # The first non-finite row is row 13,408, in block 13.
            (["--system", "free", "--m", "1", "--t-max", "1e155", "--steps", "100000"],
             "envelope is not finite at t = 1.3408e+154"),
            # Only the sql line overflows, first at row 1,798 (block 1).
            (["--t-max", "1e156", "--steps", "100000", "--hbar", "1e154", "--m", "1e10",
              "--vxx0", "1e300", "--vpp0", "3e7"],
             "sql line is not finite at t = 1.798e+154"),
            # Rows overflow from row 1; t itself only from row 1,798 (block 1).
            (["--t-max", "1e305", "--steps", "4000"], "t must be >= 0 and finite, got inf"),
            # Rows overflow from row 1; the phase ωt only from row 1,998 (block 1).
            (["--system", "osc", "--omega", "1e10", "--m", "1e-15", "--vpp0", "1e300",
              "--t-max", "3.6e298", "--steps", "4000"],
             "phase omega*t is not finite at t = 1.7982e+298"),
        ],
    )
    def test_the_check_that_fails_first_over_the_whole_grid_is_named(
        self, capsys, tmp_path, argv, message
    ):
        # The table is computed in 1024-row blocks; the error is the one a
        # single pass over every row names: t, then the phase, then the rows,
        # then the sql line, each at its first failing t.
        path = tmp_path / "table.csv"
        for extra in ([], ["--output", str(path)]):
            assert run_cli(capsys, "bounds", *argv, *extra) == (2, "", message + "\n")
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
            (["--mean-x", "inf"], "extremal record is not finite: state.mean_x = inf"),
            (["--mean-p", "nan"], "extremal record is not finite: state.mean_p = nan"),
            # Finite inputs whose width and contraction time overflow: the
            # library names them before the record is built.
            (
                ["--vxx0", "1e300", "--vpp0", "1e300"],
                "width (hbar + i*sign*sqrt(4*vxx0*vpp0 - hbar^2))/(2*vxx0) overflows: "
                "w = (5e-301+infj)",
            ),
            (
                ["--system", "free", "--m", "inf"],
                "t_M = (m/vpp0)*sqrt(4*vxx0*vpp0 - hbar^2) is inf * 1.7320508075688772 = inf, "
                "not finite",
            ),
        ],
    )
    def test_non_finite_record_exits_2_before_any_output(self, capsys, tmp_path, argv, message):
        path = tmp_path / "record.json"
        for extra in ([], ["--output", str(path)]):
            code, out, err = run_cli(capsys, "extremal", *argv, *extra)
            assert (code, out) == (2, "")
            assert err == f"{message}\n"
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

    def test_oscillator_phase_is_reduced_by_the_true_two_pi(self, capsys):
        # The double 2π is 2.449e-16 short of 2π. Reduced by it alone, ωt = 1e10
        # lands 3.9e-7 off and the moments deviate by 5.75e-7.
        argv = ["oracle", "--system", "osc", "--m", "1", "--omega", "1", "--times", "1e10"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.endswith(": OK\n")
        _, rows = parse_csv("\n".join(out.strip().splitlines()[:-1]))
        assert float(rows[0][1]) < 1e-14

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--vxx0", "0.1", "--vpp0", "0.1")
        assert code == 2
        assert "uncertainty product" in err

    def test_empty_times_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--times", ",")
        assert code == 2
        assert "non-empty" in err

    @pytest.mark.parametrize(
        "argv, model, times, means",
        [
            ([], FreeMass(1.0), None, (0.0, 0.0)),
            (
                ["--system", "osc", "--m", "1.3", "--omega", "0.7", "--mean-x", "0.4",
                 "--times", "0.5,1.5", "--n", "4096"],
                Oscillator(1.3, 0.7), [0.5, 1.5], (0.4, 0.0),
            ),
        ],
    )
    def test_dump_psi_is_psi0_on_the_oracles_grid(
        self, capsys, tmp_path, argv, model, times, means
    ):
        path = tmp_path / "psi.csv"
        code, out, _ = run_cli(capsys, "oracle", *argv, "--dump-psi", str(path))
        assert code == 0
        if times is None:  # the default grid: --steps 4 up to --t-max √3
            times = cli._time_grid(argparse.Namespace(t_max=math.sqrt(3.0), steps=4))
        spec = ExtremalSpec.from_variances(1.0, 1.0)
        n = 4096 if argv else 2**14
        report = verify_bounds_oracle(spec, model, times, *means, n=n)
        assert out == report.render() + "\n"
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        x = np.array([float(row[0]) for row in rows])
        assert x.tobytes() == report.grid.points().tobytes()
        psi = sample_extremal(spec, *means, report.grid)
        assert [complex(float(re), float(im)) for _, re, im, _ in rows] == psi.amps.tolist()

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
            # m = 1/ω overflows in the relabel: "oracle failed: ... (need nan)", exit 1.
            (["--system=osc-dimless", "--omega=5e-324", "--n=1024"],
             "m*omega is not finite at omega = 5e-324"),
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


def _no_libc(name):
    raise OSError("no C library")


class _NoMallopt:
    """A C library without the mallopt symbol."""


class TestKeepFreedHeap:
    """`quvar oracle`, and only it, asks glibc's malloc to keep its freed heap."""

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: _NoMallopt()])
    def test_the_oracle_bytes_hold_without_mallopt(self, capsys, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        argv, want_code = GOLDEN_CASES["oracle_free_n65536"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (want_code, (GOLDEN / "oracle_free_n65536.txt").read_text(), "")

    def test_only_the_oracle_command_calls_mallopt(self, capsys, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        verify_bounds_oracle(ExtremalSpec.from_variances(1.0, 1.0), FreeMass(1.0), [0.5], n=2**10)
        for argv in (["bounds"], ["extremal"], ["ozawa", "--config", REFERENCE_CONFIG]):
            assert run_cli(capsys, *argv)[0] == 0
        assert calls == []
        assert run_cli(capsys, "oracle", "--n", "1024", "--times", "0.5")[0] == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)


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

    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    def test_regime_warnings_are_computed_once(self, capsys, monkeypatch, strict):
        # The CLI prints the warnings and decides --strict itself, so the run
        # computes them once, and the output is the golden trace either way.
        config = Path(REFERENCE_CONFIG).with_name("ozawa_off_dose.json")
        golden = Path(__file__).resolve().parent / "golden" / "ozawa_off_dose.txt"
        real = quvar.ozawa.check_regime
        warnings = real(OzawaConfig.from_dict(json.loads(config.read_text())))
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(cli, "check_regime", counting)
        monkeypatch.setattr(quvar.ozawa, "check_regime", counting)
        argv = ["ozawa", "--config", str(config)] + (["--strict"] if strict else [])
        code, out, err = run_cli(capsys, *argv)
        assert len(calls) == 1
        assert warnings and err == "".join(f"warning: {w}\n" for w in warnings)
        assert (code, out) == (1 if strict else 0, golden.read_text())

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

    @pytest.mark.parametrize(
        "hbar, vyy0, vpp_y0, message",
        [
            (1e200, 1e200, 1e200, "4*vyy0*vpp_y0 and hbar^2 both overflow: "
                                  "vyy0 = 1e+200, vpp_y0 = 1e+200, hbar = 1e+200"),
            (1.0, 0.1, 0.1, "uncertainty product below minimum: "
                            "vyy0*vpp_y0 = 0.01 < hbar^2/4 = 0.25"),
        ],
    )
    def test_a_rejected_meter_product_names_the_meter_fields(
        self, capsys, tmp_path, hbar, vyy0, vpp_y0, message
    ):
        # The closed form's own names (vxx0, vpp0) are the system's, not the meter's.
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(hbar=hbar, meter_variances={"vyy0": vyy0, "vpp_y0": vpp_y0})
        path = tmp_path / "meter.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out, err) == (2, "", f"invalid config: meter_variances: {message}\n")

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

    def test_an_overflowing_auto_horizon_exits_2_naming_the_meter(self, capsys, tmp_path):
        # t_M = (m/vpp_y0)·√3 overflows; the run used to fail in round 1 with exit 1.
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(system={"variant": "free_mass", "m": 1e308},
                   meter_variances={"vyy0": 1e10, "vpp_y0": 1e-10}, T="auto")
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out, err) == (
            2, "", "invalid config: meter_variances: t_M = (m/vpp_y0)*sqrt(4*vyy0*vpp_y0 - hbar^2) "
                   "is inf * 1.7320508075688772 = inf, not finite\n",
        )

    def test_an_overflowing_coupling_dose_exits_2_before_any_warning(self, capsys, tmp_path):
        # √3·k·τ = inf used to reach math.sin: three warnings, then exit 1.
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(k=1e300, tau=1e10)
        path = tmp_path / "dose.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out, err) == (
            2, "", "invalid config: tau: coupling dose is not finite: sqrt(3)*k*tau = inf, "
                   "k = 1e+300, tau = 10000000000.0\n",
        )

    def test_auto_schedule_of_a_zero_frequency_exits_2(self, capsys, tmp_path):
        raw = json.loads(open(REFERENCE_CONFIG).read())
        raw.update(system={"variant": "dimensionless_oscillator", "omega": 0.0}, T="auto")
        path = tmp_path / "omega0.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "invalid config: system: auto schedule undefined for omega = 0\n"

    @pytest.mark.parametrize(
        "changes, message",
        [
            # phase/ω overflows: this printed a timing-jitter warning (δτ·k = 0.6),
            # then "protocol failed: phase omega*t is not finite at t = inf", exit 1.
            (dict(system={"variant": "dimensionless_oscillator", "omega": 5e-324},
                  delta_tau=1e-3),
             "T: phase omega*t is not finite at t = inf"),
            # vyy0·mω/ħ overflows in quadratures: the run failed in round 2 with
            # "invalid posterior state", exit 1.
            (dict(system={"variant": "oscillator", "m": 1e100, "omega": 1.0}, hbar=1e-210),
             "meter_variances: in quadrature units, "
             "sqrt(4*vxx0*vpp0 - 1) overflows: vxx0 = inf, vpp0 = 1e+110"),
        ],
    )
    def test_an_unschedulable_auto_horizon_exits_2_before_any_warning(
        self, capsys, tmp_path, changes, message
    ):
        raw = dict(json.loads(open(REFERENCE_CONFIG).read()), T="auto", **changes)
        path = tmp_path / "auto.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "ozawa", "--config", str(path))
        assert (code, out, err) == (2, "", f"invalid config: {message}\n")

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


def quvar_process(*argv, stdout=subprocess.PIPE):
    """`python -m quvar ARGV` with stderr, and by default stdout, on pipes."""
    src = str(Path(quvar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "quvar", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


class TestClosedPipe:
    """A reader that closes the pipe after one line (`quvar ... | head -1`)
    ends the run quietly with 141, as a process killed by SIGPIPE would."""

    @pytest.mark.parametrize("argv", [
        # Fanned out: 100,001 rows is past _FANOUT_ROWS.
        ["bounds", "--steps", "100000"],
        # 3,001 report rows, ~190 kB: more than a pipe buffers, so the write fails.
        ["oracle", "--steps", "3000", "--n", "1024"],
        ["ozawa", "--config", "{config}"],
    ], ids=lambda argv: argv[0])
    def test_exits_141_with_nothing_on_stderr(self, tmp_path, argv):
        config = tmp_path / "ozawa.json"
        config.write_text(json.dumps(dict(json.loads(Path(REFERENCE_CONFIG).read_text()), N=10_000)))
        with quvar_process(*(arg.format(config=config) for arg in argv)) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_stdout_without_a_descriptor_exits_141(self, monkeypatch):
        # In process, stdout may be a StringIO: there is no descriptor to
        # point at devnull, and main still returns 141.
        class ClosedStringIO(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedStringIO())
        assert main(["bounds", "--steps", "10"]) == 141


@pytest.mark.parametrize("argv", [
    ["bounds", "--output"],
    ["extremal", "--output"],
    ["ozawa", "--config", REFERENCE_CONFIG, "--output"],
    ["oracle", "--n", "4096", "--times", "0.5", "--dump-psi"],
], ids=lambda argv: argv[0])
def test_an_unwritable_output_path_exits_2_with_one_line(capsys, tmp_path, argv):
    # A usage error, where it was a FileNotFoundError traceback with exit 1.
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1, err
    assert not path.parent.exists()


class TestFailedWrite:
    """A write that fails after the open (/dev/full: ENOSPC) is a usage error
    with one stderr line, where it was an OSError traceback with exit 1."""

    pytestmark = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    ENOSPC = os.strerror(errno.ENOSPC)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--output"],
        # Fanned out: 100,001 rows is past _FANOUT_ROWS.
        ["bounds", "--steps", "100000", "--output"],
        ["extremal", "--output"],
        ["ozawa", "--config", REFERENCE_CONFIG, "--output"],
        ["oracle", "--n", "1024", "--times", "0.5", "--dump-psi"],
    ], ids=["bounds", "bounds-fanned-out", "extremal", "ozawa", "oracle"])
    def test_a_file_exits_2_with_one_line(self, capsys, argv):
        assert run_cli(capsys, *argv, "/dev/full") == (2, "", f"cannot write /dev/full: {self.ENOSPC}\n")
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv", [
        ["bounds"],
        ["bounds", "--steps", "100000"],
        ["extremal"],
        ["oracle", "--n", "1024", "--times", "0.5"],
        ["ozawa", "--config", REFERENCE_CONFIG],
    ], ids=["bounds", "bounds-fanned-out", "extremal", "oracle", "ozawa"])
    def test_stdout_exits_2_with_one_line(self, argv):
        # stdout then writes to devnull: the flush at exit adds no second line.
        with open("/dev/full", "w") as full, quvar_process(*argv, stdout=full) as proc:
            err = proc.stderr.read()
        assert (proc.returncode, err.decode()) == (2, f"cannot write stdout: {self.ENOSPC}\n")

    def test_stdout_in_process_reaps_the_workers(self, capsys, monkeypatch):
        class FullStringIO(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, TestFailedWrite.ENOSPC)

        monkeypatch.setattr(sys, "stdout", FullStringIO())
        assert main(["bounds", "--steps", "100000"]) == 2
        assert capsys.readouterr().err == f"cannot write stdout: {self.ENOSPC}\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc, code, prefix", [
    (GridError("boom"), 1, "oracle failed: "),
    (ConfigError("field", "boom"), 2, "invalid config: "),
    (ValueError("boom"), 2, ""),
    (OverflowError("boom"), 2, "{} state overflows the double range: "),
], ids=["GridError", "ConfigError", "ValueError", "OverflowError"])
@pytest.mark.parametrize("argv, owner, name", [
    (["bounds"], cli, "envelope"),
    (["extremal"], cli, "gaussian_from_extremal"),
    (["oracle"], cli, "verify_bounds_oracle"),
    (["ozawa", "--config", REFERENCE_CONFIG], cli.OzawaConfig, "from_dict"),
], ids=["bounds", "extremal", "oracle", "ozawa"])
def test_main_maps_each_error_to_one_line_and_its_code(
    capsys, monkeypatch, exc, code, prefix, argv, owner, name
):
    # The commands raise; main alone prints the one line and picks the code.
    # _cmd_ozawa names only json.load's errors itself: an error from building
    # the parsed config reaches main as it was raised.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(owner, name, fail)
    assert run_cli(capsys, *argv) == (code, "", f"{prefix.format(argv[0])}{exc}\n")


@pytest.mark.parametrize("mode, imported", [("mean", False), ("sample", True)])
def test_only_a_sample_mode_run_imports_numpy_random(tmp_path, mode, imported):
    # A mean-mode run draws nothing, so a fresh interpreter never loads the generator.
    config = tmp_path / "ozawa.json"
    config.write_text(json.dumps(dict(json.loads(Path(REFERENCE_CONFIG).read_text()), mode=mode)))
    script = ("import contextlib, io, sys\nfrom quvar.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n    code = main(sys.argv[1:])\n"
              "print(code, 'numpy.random' in sys.modules)")
    src = str(Path(quvar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, "ozawa", "--config", str(config)],
                          env=env, capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == (f"0 {imported}\n", "")


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
