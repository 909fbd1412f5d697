"""Command-line front end.

Subcommands::

    quvar bounds    variance envelope table as CSV (t, lower, upper, sql_line)
    quvar extremal  saturating-state record as JSON
    quvar oracle    grid-oracle comparison against the closed forms
    quvar ozawa     repeated-measurement protocol trace as CSV

Exit codes: 0 success, 1 verification/tolerance failure, 2 usage or config
error. Floats are printed with 17 significant digits so every emitted value
re-parses to the identical double. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator
from contextlib import closing

import numpy as np

from ._fanout import fanout
from .bounds import contraction_phase_osc, contraction_time_free, envelope, sql_reference
from .extremal import (
    ExtremalSpec,
    bogoliubov_eigenvalue,
    complex_width_from_variances,
    gaussian_from_extremal,
    squeeze_from_complex_width,
)
from .gaussian import DimensionlessOscillator, FreeMass, Oscillator, SystemModel
from .gridsim import GridError, sample_extremal, verify_bounds_oracle, wavefn_csv, Grid
from .ozawa import ConfigError, OzawaConfig, check_regime, run_protocol

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# Table rows from which `quvar bounds` formats its CSV chunks in worker
# processes (32 chunks). On a 2-vCPU VM, 32,769 rows ran 1.28-1.65x faster
# with the second vCPU free, and no slower with both processes on one.
_FANOUT_ROWS = 32 * 1024


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(k)}: {_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return _render_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {obj!r}")


def _non_finite(obj, name: str = "") -> Iterator[str]:
    """"field = value" for each non-finite float of a record, in order (nested fields dotted)."""
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, f"{name}.{key}" if name else key)
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield f"{name} = {obj}"


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in order to stdout, or to the file at path."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(chunks)


def _csv_chunks(header: str, row: str, table: np.ndarray, size: int = 1024) -> Iterator[str]:
    """The header, then the table's rows in %-formatted chunks of size rows.

    A table of at least _FANOUT_ROWS rows formats its chunks in forked
    workers (quvar._fanout, Linux): the same code on the same rows, so the
    same bytes, still written in order by this process, which holds its own
    chunk and about one from each worker.
    """

    def chunk(i: int) -> str:
        block = table[i : i + size]
        return (row * len(block)) % tuple(block.ravel().tolist())

    yield header
    yield from fanout(chunk, range(0, len(table), size), len(table) >= _FANOUT_ROWS)


def _sign_value(sign: str) -> int:
    return 1 if sign == "+" else -1


def _model(args) -> SystemModel:
    if args.system == "free":
        return FreeMass(m=args.m)
    if args.system == "osc":
        return Oscillator(m=args.m, omega=args.omega)
    return DimensionlessOscillator(omega=args.omega)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    """The arguments _model() and the envelope inputs read (bounds, oracle)."""
    parser.add_argument("--system", choices=["free", "osc", "osc-dimless"], default="free")
    for name in ("--m", "--omega", "--hbar", "--vxx0", "--vpp0"):
        parser.add_argument(name, type=float, default=1.0)


def _time_grid(args) -> np.ndarray:
    """The --steps + 1 times j * t_max / steps (the same doubles), checked."""
    if not 0 < args.t_max < math.inf:
        raise ValueError("--t-max must be > 0 and finite")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    with np.errstate(over="ignore"):  # an overflowing t is rejected by envelope()
        return np.arange(args.steps + 1) * args.t_max / args.steps


def _cmd_bounds(args) -> int:
    try:
        t = _time_grid(args)
        model = _model(args)
        # Every row is validated here, before the first byte is written.
        pair = envelope(model, args.vxx0, args.vpp0, t, args.hbar)
        columns = [t, pair.lower, pair.upper]
        if args.system == "free":
            columns.append(sql_reference(args.m, args.hbar, t))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    row = "%.17g,%.17g,%.17g," + ("%.17g\n" if args.system == "free" else "\n")
    table = np.column_stack(columns)
    # Closed on every exit, a broken pipe included: that reaps the chunks' workers.
    with closing(_csv_chunks("t,lower,upper,sql_line\n", row, table)) as chunks:
        _write_output(chunks, args.output)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    sign = _sign_value(args.sign)
    try:
        hbar = args.hbar if args.system == "free" else 1.0
        spec = ExtremalSpec.from_variances(args.vxx0, args.vpp0, hbar, sign)
        state = gaussian_from_extremal(spec, args.mean_x, args.mean_p, hbar)
        if args.system == "free":
            contraction = {"t_contract": contraction_time_free(args.vxx0, args.vpp0, args.m, hbar)}
        else:  # osc-dimless
            contraction = {"phase_contract": contraction_phase_osc(args.vxx0, args.vpp0)}
        # Squeeze labels live in dimensionless quadratures; scale by √ħ
        # (fictitious unit-frequency oscillator). For ħ = 1 the reported
        # width is unchanged.
        w_dimless = complex_width_from_variances(args.vxx0 / hbar, args.vpp0 / hbar, 1.0, sign)
        alpha = complex(args.mean_x, args.mean_p) / math.sqrt(2.0 * hbar)
        r, theta = squeeze_from_complex_width(w_dimless)
        beta = bogoliubov_eigenvalue(alpha, r, theta)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # float ** past the double range, e.g. |w|² at vxx0 = 1e-300
        print(f"extremal state overflows the double range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    record = {
        "system": args.system,
        "sign": args.sign,
        "hbar": hbar,
        "width": spec.width,
        "state": state.to_dict(),
        **contraction,
        "squeeze": {"r": r, "theta": theta, "alpha": alpha, "beta": beta},
    }
    bad = next(_non_finite(record), None)
    if bad is not None:  # JSON has no inf or nan
        print(f"extremal record is not finite: {bad}", file=sys.stderr)
        return EXIT_USAGE
    _write_output([_render_json(record) + "\n"], args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    sign = _sign_value(args.sign)
    try:
        model = _model(args)
        hbar = model._hbar(args.hbar)
        if args.times:
            times = [float(tok) for tok in args.times.split(",") if tok.strip()]
        else:
            times = _time_grid(args)
        spec = ExtremalSpec.from_variances(args.vxx0, args.vpp0, hbar, sign)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verify_bounds_oracle(
            spec,
            model,
            times,
            mean_x=args.mean_x,
            mean_p=args.mean_p,
            hbar=hbar,
            n=args.n,
            domain_sigmas=args.domain_sigmas,
            tolerance=args.tolerance,
        )
        if args.dump_psi:
            sigma = math.sqrt(args.vxx0)
            grid = Grid.centered(args.mean_x, args.domain_sigmas * sigma, args.n)
            psi = sample_extremal(spec, args.mean_x, args.mean_p, grid, hbar)
            _write_output([wavefn_csv(psi)], args.dump_psi)
    except GridError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # float ** past the double range, e.g. |w|² at vxx0 = 1e-300
        print(f"oracle state overflows the double range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _reject_constant(literal: str):
    # json.load accepts NaN, Infinity and -Infinity unless told otherwise.
    raise ConfigError(literal, "non-finite JSON literal is not allowed")


def _cmd_ozawa(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
        config = OzawaConfig.from_dict(raw)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a JSONDecodeError, or an integer with > 4300 digits
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    warnings = check_regime(config)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        trace = run_protocol(config)
    except ConfigError as exc:
        # e.g. auto schedule with a zero-horizon (minimal-uncertainty) meter
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"protocol failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _write_output(trace.csv_lines(), args.output)
    if args.strict and warnings:
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quvar",
        description="Variance envelopes, contractive states, and measurement protocol tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="envelope table as CSV")
    _add_model_args(pb)
    pb.add_argument("--t-max", type=float, default=2.0)
    pb.add_argument("--steps", type=int, default=100)
    pb.add_argument("--output", default=None)
    pb.set_defaults(func=_cmd_bounds)

    pe = sub.add_parser("extremal", help="saturating-state record as JSON")
    pe.add_argument("--system", choices=["free", "osc-dimless"], default="osc-dimless")
    pe.add_argument("--sign", choices=["+", "-"], default="+")
    pe.add_argument("--m", type=float, default=1.0)
    pe.add_argument("--hbar", type=float, default=1.0)
    pe.add_argument("--vxx0", type=float, default=1.0)
    pe.add_argument("--vpp0", type=float, default=1.0)
    pe.add_argument("--mean-x", type=float, default=0.0)
    pe.add_argument("--mean-p", type=float, default=0.0)
    pe.add_argument("--output", default=None)
    pe.set_defaults(func=_cmd_extremal)

    po = sub.add_parser("oracle", help="grid-oracle comparison run")
    _add_model_args(po)
    po.add_argument("--sign", choices=["+", "-"], default="+")
    po.add_argument("--mean-x", type=float, default=0.0)
    po.add_argument("--mean-p", type=float, default=0.0)
    po.add_argument("--t-max", type=float, default=math.sqrt(3.0))
    po.add_argument("--steps", type=int, default=4)
    po.add_argument("--times", default=None, help="comma-separated list overriding --t-max/--steps")
    po.add_argument("--n", type=int, default=2**14)
    po.add_argument("--domain-sigmas", type=float, default=40.0)
    po.add_argument("--tolerance", type=float, default=1e-8)
    po.add_argument("--dump-psi", default=None, help="write the initial |psi|^2 as CSV")
    po.set_defaults(func=_cmd_oracle)

    pz = sub.add_parser("ozawa", help="repeated-measurement protocol trace as CSV")
    pz.add_argument("--config", required=True, help="JSON config (see ozawa_config.schema.json)")
    pz.add_argument("--strict", action="store_true", help="promote regime warnings to exit 1")
    pz.add_argument("--output", default=None)
    pz.set_defaults(func=_cmd_ozawa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
