"""Golden-bytes tests: CLI stdout compared with committed reference files.

Each case runs one `quvar` invocation in process and compares its stdout
with ``tests/golden/<name>.txt`` by exact string equality, and its exit code
with the one recorded below. The rerun tests in test_cli.py show that output
repeats; these show that it does not move from a fixed reference.

Regenerate the reference files (only in a change that means to alter the
output; see golden/README.md) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from quvar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "ozawa_reference.json")

_FREE = ["--m", "1.7", "--hbar", "0.8", "--vxx0", "1.3", "--vpp0", "0.9"]
_OSC = ["--m", "1.5", "--omega", "0.7", "--hbar", "0.8", "--vxx0", "1.3", "--vpp0", "0.9"]
_DIMLESS = ["--omega", "1.3", "--vxx0", "0.8", "--vpp0", "2.0"]
_OSC_TIMES = ["--times", "0.5,2.0,3.5,4.4"]  # ωt = 0.35 … 3.08
_DIMLESS_TIMES = ["--times", "0.3,1.0,1.5,2.2,3.0"]  # ωt = 0.39 … 3.9

# name -> (argv, exit code)
CASES = {
    "bounds_free_default": (["bounds"], 0),
    "bounds_free": (["bounds", "--system", "free", *_FREE, "--t-max", "5", "--steps", "200"], 0),
    # t_M = 2, so the row t = 1 sits on the analytic floor ħ²/(4·vpp0).
    "bounds_free_floor": (
        ["bounds", "--vxx0", "1.25", "--vpp0", "1", "--t-max", "4", "--steps", "200"],
        0,
    ),
    # ωt runs to 7 and 6.5: past π/2, π, 3π/2 and 2π.
    "bounds_osc": (["bounds", "--system", "osc", *_OSC, "--t-max", "10", "--steps", "200"], 0),
    "bounds_osc_dimless": (
        ["bounds", "--system", "osc-dimless", *_DIMLESS, "--t-max", "5", "--steps", "200"],
        0,
    ),
    "bounds_osc_dimless_min": (
        ["bounds", "--system", "osc-dimless", "--vxx0", "0.5", "--vpp0", "0.5", "--hbar", "7",
         "--t-max", "7", "--steps", "50"],
        0,
    ),
    "extremal_free_plus": (
        ["extremal", "--system", "free", "--sign", "+", *_FREE, "--mean-x", "0.4", "--mean-p", "-0.3"],
        0,
    ),
    "extremal_free_minus": (
        ["extremal", "--system", "free", "--sign", "-", *_FREE, "--mean-x", "0.4", "--mean-p", "-0.3"],
        0,
    ),
    "extremal_osc_dimless_plus": (
        ["extremal", "--system", "osc-dimless", "--sign", "+", "--vxx0", "0.8", "--vpp0", "2.0",
         "--mean-x", "1.1"],
        0,
    ),
    "extremal_osc_dimless_minus": (
        ["extremal", "--system", "osc-dimless", "--sign", "-", "--vxx0", "0.8", "--vpp0", "2.0",
         "--mean-x", "1.1"],
        0,
    ),
    "oracle_free_default": (["oracle", "--n", "1024"], 0),
    "oracle_free_minus": (
        ["oracle", "--system", "free", "--n", "1024", "--sign", "-", *_FREE,
         "--mean-x", "0.4", "--mean-p", "-0.3"],
        0,
    ),
    "oracle_osc_plus": (["oracle", "--system", "osc", "--n", "1024", *_OSC, *_OSC_TIMES], 0),
    "oracle_osc_minus": (
        ["oracle", "--system", "osc", "--n", "1024", "--sign", "-", *_OSC, *_OSC_TIMES],
        0,
    ),
    "oracle_osc_dimless_plus": (
        ["oracle", "--system", "osc-dimless", "--n", "1024", *_DIMLESS, *_DIMLESS_TIMES],
        0,
    ),
    "oracle_osc_dimless_minus": (
        ["oracle", "--system", "osc-dimless", "--n", "1024", "--sign", "-", *_DIMLESS,
         *_DIMLESS_TIMES],
        0,
    ),
    # The dimensionless oscillator ignores --hbar.
    "oracle_osc_dimless_hbar7": (
        ["oracle", "--system", "osc-dimless", "--n", "1024", "--hbar", "7", *_DIMLESS,
         "--times", "0.3,1.5"],
        0,
    ),
    "oracle_tolerance_fail": (["oracle", "--n", "1024", "--tolerance", "1e-17"], 1),
    "oracle_grid_too_coarse": (["oracle", "--n", "64"], 1),
    "ozawa_reference": (["ozawa", "--config", REFERENCE_CONFIG], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(capsys, name):
    argv, want_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def _regenerate() -> None:
    for name, (argv, want_code) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != want_code:
            sys.exit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN / f"{name}.txt").write_text(buf.getvalue())
        print(f"wrote {name}.txt ({len(buf.getvalue())} bytes)")


if __name__ == "__main__":
    _regenerate()
