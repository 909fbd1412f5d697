"""Tests of the quvar benchmark itself, at reduced size.

    python3 -m pytest -q perfbench/test_perfbench.py

They run ``run.py --size small`` as a subprocess, the way the benchmark is
run, and check its contract: every metric is emitted, outputs pass their
checks on several seeds, the trace counters repeat exactly, and the output
checks reject wrong answers.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_METRICS = (
    "gridsim.split_steps",
    "gridsim.moments.calls",
    "gridsim.fft_calls_computed",
    "ozawa.interaction_map.calls",
    "gaussian.validate_state.calls",
)


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduced_run_passes_output_checks(workload, seed):
    res = result(workload, seed, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_trace_emits_every_layer_metric_and_counts_repeat(workload):
    first, second = result(workload, 7, trace=1), result(workload, 7, trace=1)
    for res in (first, second):
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == run.PER_LAYER
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_oracle_osc_trace_counts_the_adaptive_refinement():
    metrics = result("oracle_osc", 3, trace=1)["metrics"]
    # 4096 + 8192 split steps, two FFTs each, plus two per moments() call.
    assert metrics["gridsim.split_steps"]["value"] == 4096 + 8192
    assert metrics["gridsim.split_step_useful_ratio"]["value"] == pytest.approx(8192 / 12288)
    moments = metrics["gridsim.moments.calls"]["value"]
    assert metrics["gridsim.fft_calls_computed"]["value"] == 2 * 12288 + 2 * moments


def test_seed_changes_inputs_but_not_the_amount_of_work():
    size = wl.SIZES["small"]
    for workload in wl.WORKLOADS:
        a, b = wl.generate(workload, 1, size), wl.generate(workload, 2, size)
        assert [c.argv for c in a] == [c.argv for c in wl.generate(workload, 1, size)]
        assert [c.argv for c in a] != [c.argv for c in b] or [c.files for c in a] != [c.files for c in b]
    for seed in range(20):
        (table,) = [c for c in wl.generate("envelope_table", seed, size) if "--system=osc" in c.argv]
        assert f"--steps={size.steps}" in table.argv
        (osc,) = wl.generate("oracle_osc", seed, size)
        assert f"--n={size.osc_n}" in osc.argv
        for call in wl.generate("protocol", seed, size):
            (config,) = call.files.values()
            assert config["N"] == size.rounds
            assert math.isclose(config["k"] * config["tau"], wl.TRANSFER_KTAU, rel_tol=1e-15)


def _stdout(call, tmp_path):
    for rel, obj in call.files.items():
        (tmp_path / rel).write_text(json.dumps(obj))
    env = {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "quvar", *call.argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scale_cell(stdout: bytes, row: int, col: int, factor: float) -> bytes:
    lines = stdout.split(b"\n")
    cells = lines[row].split(b",")
    cells[col] = repr(float(cells[col]) * factor).encode()
    lines[row] = b",".join(cells)
    return b"\n".join(lines)


@pytest.mark.parametrize("workload, columns", [("envelope_table", (1, 2)), ("protocol", (3, 9))])
def test_checks_accept_the_program_and_reject_wrong_tables(workload, columns, tmp_path):
    for call in wl.generate(workload, 5, wl.SIZES["small"]):
        good = _stdout(call, tmp_path)
        assert call.check(good) == []
        if call.argv[0] == "extremal":
            continue  # a JSON record, covered below
        for col in columns:
            assert call.check(_scale_cell(good, 17, col, 1.0 + 1e-8)), (call.argv, col)
        assert call.check(good.rsplit(b"\n", 2)[0] + b"\n"), "a dropped row must fail"


def test_extremal_and_oracle_checks_reject_wrong_values(tmp_path):
    calls = wl.generate("envelope_table", 5, wl.SIZES["small"])
    (free,) = [c for c in calls if c.argv[:2] == ["extremal", "--system=free"]]
    rec = json.loads(_stdout(free, tmp_path))
    rec["state"]["vxp"] *= -1.0  # the other extremal branch
    assert free.check(json.dumps(rec).encode())
    (oracle,) = wl.generate("oracle_free", 5, wl.SIZES["small"])
    good = _stdout(oracle, tmp_path)
    assert oracle.check(good) == []
    assert oracle.check(good.replace(b": OK", b": FAIL"))
    lines = good.split(b"\n")
    lines[1] = lines[1].rsplit(b",", 1)[0] + b",2e-08"
    assert oracle.check(b"\n".join(lines))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("protocol", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
