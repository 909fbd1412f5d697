import json
import math
from pathlib import Path

import pytest

from quvar import OzawaConfig, run_protocol
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
