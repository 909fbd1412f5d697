"""Command-line front end.

Subcommands::

    quvar bounds    variance envelope table as CSV (t, lower, upper, sql_line)
    quvar extremal  saturating-state record as JSON
    quvar oracle    grid-oracle comparison against the closed forms
    quvar ozawa     repeated-measurement protocol trace as CSV

Exit codes: 0 success, 1 verification/tolerance failure, 2 usage or config
error, 141 (128 + SIGPIPE) with nothing on stderr when the reader closes
stdout early, as `quvar bounds | head` does. The commands raise; main alone
turns an exception into one stderr line and a code: GridError "oracle
failed: ..." 1, ConfigError "invalid config: ..." 2, any other ValueError
(an --output or --dump-psi file, or stdout, that cannot be written, at the
open or at a write, among them: "cannot write PATH: reason") its message 2,
OverflowError "COMMAND state overflows the double range: ..." 2.
Floats are printed with 17 significant digits so every emitted value
re-parses to the identical double. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
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
from .gridsim import GridError, sample_extremal, verify_bounds_oracle, wavefn_csv
from .ozawa import ConfigError, OzawaConfig, check_regime, run_protocol

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process the signal killed

# Table rows from which `quvar bounds` formats its CSV chunks in worker
# processes (32 chunks). On a 2-vCPU VM, 32,769 rows ran 1.28-1.65x faster
# with the second vCPU free, and no slower with both processes on one.
_FANOUT_ROWS = 32 * 1024


def _render_json(obj, indent: int = 0, name: str = "") -> str:
    """JSON text of a record of dicts, complexes, floats and strings, with
    floats at 17 significant digits (round-trip exact). JSON has no inf or
    nan: the first non-finite float raises ValueError "extremal record is not
    finite: field = value", its nested field dotted.
    """
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        pad = "  " * indent
        items = [
            f'{pad}  {json.dumps(k)}: {_render_json(v, indent + 1, f"{name}.{k}" if name else k)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"extremal record is not finite: {name} = {obj}")
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {obj!r}")


def _write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks in order to the file at path, or to stdout and flush
    it. An OSError from the open, a write, the flush or the close raises
    ValueError "cannot write PATH: reason" (PATH stdout, whose descriptor
    then points at devnull, so the flush at exit cannot fail again); a
    closed pipe stays a BrokenPipeError, for main."""
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(path, "w", newline="\n") as fh:
                fh.writelines(chunks)
    except BrokenPipeError:
        raise
    except OSError as exc:
        if path is None:
            _stdout_to_devnull()
        raise ValueError(f"cannot write {'stdout' if path is None else path}: {exc.strerror}") from exc


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at devnull; a stdout without one (a
    StringIO) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # io.UnsupportedOperation
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _csv_chunks(header: str, row: str, blocks: list, rows: int) -> Iterator[str]:
    """The header, then one %-formatted chunk per block of the table, a block
    being its rows' column arrays: np.column_stack makes one block at a time
    into rows, so the whole table is never stacked.

    A table of at least _FANOUT_ROWS rows formats its chunks in forked
    workers (quvar._fanout, Linux): the same code on the same blocks, so the
    same bytes, still written in order by this process, which holds its own
    chunk and about one from each worker.
    """

    def chunk(block) -> str:
        table = np.column_stack(block)
        return (row * len(table)) % tuple(table.ravel().tolist())

    yield header
    yield from fanout(chunk, blocks, rows >= _FANOUT_ROWS)


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
    """The --steps + 1 times j * t_max / steps (the same doubles), checked and
    built in place: the grid is the only full-length array made."""
    if not 0 < args.t_max < math.inf:
        raise ValueError("--t-max must be > 0 and finite")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    t = np.arange(args.steps + 1, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing t is rejected by envelope()
        t *= args.t_max
        t /= args.steps
    return t


def _cmd_bounds(args) -> int:
    t = _time_grid(args)
    model = _model(args)
    # One envelope() per 1024-row view of t, so no temporary spans the
    # table; each block becomes one CSV chunk. Every block is validated
    # here, before the first byte is written.
    blocks = []
    try:
        for i in range(0, len(t), 1024):
            pair = envelope(model, args.vxx0, args.vpp0, t[i : i + 1024], args.hbar)
            blocks.append([pair.t, pair.lower, pair.upper])
            if args.system == "free":
                blocks[-1].append(sql_reference(args.m, args.hbar, pair.t))
    except ValueError:
        # Name what one envelope() over all of t, then the sql line, would:
        # an envelope check that fails in any block (t, then the phase,
        # then the rows) comes before the first failing sql block.
        envelope(model, args.vxx0, args.vpp0, t, args.hbar)
        raise
    row = "%.17g,%.17g,%.17g," + ("%.17g\n" if args.system == "free" else "\n")
    # Closed on every exit, a broken pipe included: that reaps the chunks' workers.
    with closing(_csv_chunks("t,lower,upper,sql_line\n", row, blocks, len(t))) as chunks:
        _write_output(chunks, args.output)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    sign = _sign_value(args.sign)
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
    record = {
        "system": args.system,
        "sign": args.sign,
        "hbar": hbar,
        "width": spec.width,
        "state": state.to_dict(),
        **contraction,
        "squeeze": {"r": r, "theta": theta, "alpha": alpha, "beta": beta},
    }
    _write_output([_render_json(record) + "\n"], args.output)
    return EXIT_OK


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep the heap it frees: blocks below 32 MiB come
    from the heap, not from fresh mmap pages (M_MMAP_THRESHOLD), and up to
    64 MiB of free top stays mapped (M_TRIM_THRESHOLD). Every oracle time
    allocates and frees the same few grid-sized arrays, pocketfft's scratch
    among them, which otherwise return to the kernel and come back as pages
    to zero: about 2,800 minor faults per time at n = 2**16. Either setting
    alone still leaves 736-770 faults per 2**16-point FFT call. Without the
    library or the symbol (not glibc) this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _cmd_oracle(args) -> int:
    _keep_freed_heap()  # before ψ0 is sampled, so forked workers inherit it
    sign = _sign_value(args.sign)
    model = _model(args)
    hbar = model._hbar(args.hbar)
    if args.times:
        times = [float(tok) for tok in args.times.split(",") if tok.strip()]
    else:
        times = _time_grid(args)
    spec = ExtremalSpec.from_variances(args.vxx0, args.vpp0, hbar, sign)
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
    if args.dump_psi:  # ψ0 again, on the grid the oracle sampled it on
        psi = sample_extremal(spec, args.mean_x, args.mean_p, report.grid, hbar)
        _write_output([wavefn_csv(psi)], args.dump_psi)
    # Two writes, as print() made: one write longer than a pipe holds whose
    # reader closes midway returned no error, and the run exited 0, not 141.
    _write_output([report.render(), "\n"], None)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _reject_constant(literal: str):
    # json.load accepts NaN, Infinity and -Infinity unless told otherwise.
    raise ConfigError(literal, "non-finite JSON literal is not allowed")


def _cmd_ozawa(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except ConfigError:  # a non-finite literal
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer with > 4300 digits
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    config = OzawaConfig.from_dict(raw)
    warnings = check_regime(config)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        trace = run_protocol(config)
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
    po.add_argument("--dump-psi", default=None,
                    help="write the initial psi as CSV on the oracle's grid (spans every time)")
    po.set_defaults(func=_cmd_oracle)

    pz = sub.add_parser("ozawa", help="repeated-measurement protocol trace as CSV")
    pz.add_argument("--config", required=True, help="JSON config (see ozawa_config.schema.json)")
    pz.add_argument("--strict", action="store_true", help="promote regime warnings to exit 1")
    pz.add_argument("--output", default=None)
    pz.set_defaults(func=_cmd_ozawa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except BrokenPipeError:  # the reader is gone; _cmd_bounds' closing() reaped any workers
        _stdout_to_devnull()  # so the flush at exit cannot raise again
        return EXIT_PIPE
    # GridError and ConfigError are ValueErrors: they are caught first.
    except GridError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # float ** past the double range, e.g. |w|² at vxx0 = 1e-300
        print(f"{args.command} state overflows the double range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
