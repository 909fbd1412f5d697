"""Run one quvar CLI invocation exactly as ``python -m quvar ARGS`` does, timing main().

Usage: python3 child.py [--spans PATH] -- ARGS...

The CLI's stdout, stderr and exit code pass through untouched. One line
``perfbench.main_s=<seconds>`` is appended to stderr: the time spent inside
``quvar.cli.main(ARGS)``, without interpreter start-up and imports. With
``--spans PATH`` the public functions of the quvar modules are wrapped
before main() runs and the span summary is written to PATH (see tracer.py).
"""

import sys
import time

MARKER = "perfbench.main_s="


def main() -> None:
    args = sys.argv[1:]
    spans = None
    if args[:1] == ["--spans"]:
        spans, args = args[1], args[2:]
    if args[:1] == ["--"]:
        args = args[1:]
    from quvar import cli

    tracer = None
    if spans is not None:
        import tracer as tracing

        tracer = tracing.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(args)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(spans)
        sys.stdout.flush()
        sys.stderr.write(f"\n{MARKER}{elapsed!r}\n")
    sys.exit(rc)


if __name__ == "__main__":
    main()
