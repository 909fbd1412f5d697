#!/usr/bin/env python3
"""quvar benchmark: the `quvar` CLI end to end, or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One client in a closed loop: one CLI child at a time, nothing else
running. A run repeats the workload's batch of invocations (at least once,
then while the next one is expected to end within ``--seconds``). Children
are spawned by launcher.py.

``--trace 0`` reports the end-to-end metrics: wall time and in-``main`` time
of a batch, set-up time (``python -m quvar <cmd> --help`` probes, one before
each batch), each the median over the run after rescaling to the reference
machine speed with calibrate(), and the largest child RSS. ``--trace 1``
alternates a plain batch with a batch whose children wrap every public quvar
function in spans (tracer.py) and reports the per-layer metrics. Every
stdout is checked against the benchmark's own reference (workloads.py) and
must be identical across batches; an unexpected exit code or a failed check
counts as a failed invocation.

The last stdout line is the result JSON; the full record (seed, argv,
configs, stdout sha256 per invocation, environment) is written under
``.bench_work/records/``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no batch starts past this
# Typical time of calibrate() on the reference host (Intel Xeon VM, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6). Fixed for good: reported times are seconds at
# that speed.
CAL_REF_S = 0.05
CAL_SIGNAL = np.exp(1j * np.arange(2**16) / 7.0)

END_TO_END = {"wall_s": "s", "main_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.out_rows": "rows",
    "cli.out_bytes": "B",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "extremal.calls": "count",
    "extremal.self_s": "s",
    "gaussian.evolve.calls": "count",
    "gaussian.validate_state.calls": "count",
    "gaussian.self_s": "s",
    "gridsim.sample.s": "s",
    "gridsim.moments.calls": "count",
    "gridsim.moments.s": "s",
    "gridsim.propagate_free.self_s": "s",
    "gridsim.propagate_osc.self_s": "s",
    "gridsim.split_steps": "count",
    "gridsim.split_step_useful_ratio": "ratio",
    "gridsim.fft_calls_computed": "count",
    "gridsim.fft_bytes_computed": "B",
    "gridsim.max_moment_dev": "1",
    "ozawa.rounds": "count",
    "ozawa.run_protocol.self_s": "s",
    "ozawa.couple.self_s": "s",
    "ozawa.interaction_map.calls": "count",
    "ozawa.interaction_map.s": "s",
    "ozawa.read_meter.s": "s",
    "ozawa.config.s": "s",
    "ozawa.to_csv.s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    main_s: float
    rss_mib: float
    stdout: bytes
    stderr: str
    scale: float = 1.0  # factor to the reference machine speed, see measure()


class Launcher:
    """The small process that spawns every CLI child (see launcher.py)."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, cmd: list[str], cwd: Path) -> ChildResult:
        """Run one child to completion; its wall time is observed by the launcher."""
        out_path, err_path = cwd / "stdout.bin", cwd / "stderr.txt"
        request = {"cmd": cmd, "cwd": str(cwd), "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": max(self.deadline - time.monotonic(), 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = err_path.read_text(errors="replace")
        main_s, kept = 0.0, []
        for line in stderr.splitlines():
            if line.startswith(MARKER):
                main_s = float(line[len(MARKER):])
            else:
                kept.append(line)
        return ChildResult(
            rc=reply["rc"],
            wall_s=reply["wall_s"],
            main_s=main_s,
            rss_mib=reply["maxrss_kib"] / 1024.0,  # Linux reports KiB
            stdout=out_path.read_bytes(),
            stderr="\n".join(kept).strip(),
        )


class Ledger:
    """Per-invocation outcomes: exit codes, output checks, stdout identity."""

    def __init__(self, calls: list[wl.Invocation]) -> None:
        self.calls = calls
        self.entries = [
            {"argv": c.argv, "config": dict(c.files), "stdout_sha256": None, "stdout_bytes": None,
             "problems": [], "runs": []}
            for c in calls
        ]
        self.verdicts: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.probes = {"attempted": 0, "failed": 0}

    def add(self, index: int, res: ChildResult, traced: bool) -> None:
        entry = self.entries[index]
        sha = hashlib.sha256(res.stdout).hexdigest()
        problems = []
        if res.rc != 0:
            problems.append(f"exit code {res.rc}: {res.stderr[-500:]}")
        elif sha not in self.verdicts:
            self.verdicts[sha] = self.calls[index].check(res.stdout)
        if res.rc == 0:
            problems += self.verdicts[sha]
        if entry["stdout_sha256"] is None:
            entry["stdout_sha256"], entry["stdout_bytes"] = sha, len(res.stdout)
        elif sha != entry["stdout_sha256"]:
            problems.append(f"stdout differs from the first run (sha256 {sha})")
        self.attempted += 1
        if problems:
            self.failed += 1
            entry["problems"].extend(p for p in problems if p not in entry["problems"])
        entry["runs"].append(
            {"trace": int(traced), "rc": res.rc, "wall_s": res.wall_s, "main_s": res.main_s,
             "scale": res.scale, "rss_mib": res.rss_mib, "ok": not problems}
        )

    def add_probe(self, res: ChildResult) -> None:
        self.attempted += 1
        self.probes["attempted"] += 1
        if res.rc != 0 or not res.stdout.startswith(b"usage: quvar"):
            self.failed += 1
            self.probes["failed"] += 1


def calibrate() -> float:
    """Time a fixed mix of the kinds of work quvar does: the machine's speed now.

    %.17g formatting (the CSV writers), 4×4 numpy calls in a Python loop (the
    protocol rounds) and 2¹⁶-point FFTs (the oracles). It uses no quvar code,
    so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    ",".join(f"{i / 7:.17g}" for i in range(20_000))
    m = np.eye(4)
    for _ in range(2_000):
        m = m @ m.T * 0.25 + np.eye(4)
    a = CAL_SIGNAL
    for _ in range(10):
        a = np.fft.ifft(np.fft.fft(a))
    return time.perf_counter() - t0


def _sum(batch, key):
    return sum(getattr(r, key) for r in batch)


def layer_metrics(summaries: list[dict], batch: list[ChildResult], calls: list[wl.Invocation]) -> dict:
    """Per-layer metrics of one traced batch from its span summaries and outputs."""
    by_name, layers, counts = {}, {}, {}
    for summ in summaries:
        for name, st in summ["by_name"].items():
            acc = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, st in summ["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, v in summ["counts"].items():
            counts[name] = counts.get(name, 0) + v

    def fn(name: str) -> dict:
        return by_name.get(f"quvar.{name}", {"calls": 0, "s": 0.0, "self_s": 0.0})

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    steps = counts.get("split_steps", 0)
    oracle_devs = [wl.max_moment_dev(r.stdout) for r, c in zip(batch, calls) if c.argv[0] == "oracle"]
    return {
        "cli.self_s": layer("cli")["self_s"],
        "cli.out_rows": sum(r.stdout.count(b"\n") for r in batch),
        "cli.out_bytes": sum(len(r.stdout) for r in batch),
        "bounds.calls": layer("bounds")["calls"],
        "bounds.self_s": layer("bounds")["self_s"],
        "extremal.calls": layer("extremal")["calls"],
        "extremal.self_s": layer("extremal")["self_s"],
        "gaussian.evolve.calls": fn("gaussian.evolve")["calls"],
        "gaussian.validate_state.calls": fn("gaussian.validate_state")["calls"],
        "gaussian.self_s": layer("gaussian")["self_s"],
        "gridsim.sample.s": fn("gridsim.sample_gaussian")["s"],
        "gridsim.moments.calls": fn("gridsim.moments")["calls"],
        "gridsim.moments.s": fn("gridsim.moments")["s"],
        "gridsim.propagate_free.self_s": fn("gridsim.propagate_free")["self_s"],
        "gridsim.propagate_osc.self_s": fn("gridsim.propagate_osc")["self_s"],
        "gridsim.split_steps": steps,
        # Nothing computed means nothing wasted.
        "gridsim.split_step_useful_ratio": counts.get("split_steps_useful", 0) / steps if steps else 1.0,
        "gridsim.fft_calls_computed": counts.get("fft_calls", 0),
        "gridsim.fft_bytes_computed": counts.get("fft_bytes", 0),
        "gridsim.max_moment_dev": max(oracle_devs, default=0.0),
        "ozawa.rounds": counts.get("rounds", 0),
        "ozawa.run_protocol.self_s": fn("ozawa.run_protocol")["self_s"],
        "ozawa.couple.self_s": fn("ozawa.couple")["self_s"],
        "ozawa.interaction_map.calls": fn("ozawa.interaction_map")["calls"],
        "ozawa.interaction_map.s": fn("ozawa.interaction_map")["s"],
        "ozawa.read_meter.s": fn("ozawa.read_meter")["s"],
        "ozawa.config.s": fn("ozawa.OzawaConfig.from_dict")["s"],
        "ozawa.to_csv.s": fn("ozawa.ProtocolTrace.to_csv")["s"],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    """One run of one workload; returns its record (metrics included)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    size = wl.SIZES[size_name]
    calls = wl.generate(workload, seed, size)
    workdir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for call in calls:
        for rel, obj in call.files.items():
            (workdir / rel).write_text(json.dumps(obj, indent=2) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ledger = Ledger(calls)

    def batch(launch: Launcher, spans: bool) -> tuple[list[ChildResult], dict | None]:
        results, summaries = [], []
        for i, call in enumerate(calls):
            span_file = workdir / f"spans-{i}.json"
            opts = ["--spans", str(span_file)] if spans else []
            res = run_scaled(launch, [sys.executable, str(CHILD), *opts, "--", *call.argv])
            ledger.add(i, res, spans)
            results.append(res)
            if spans and span_file.exists():
                summaries.append(json.loads(span_file.read_text()))
        row = layer_metrics(summaries, results, calls) if spans else None
        for res in results:
            res.stdout = b""  # keep this process small between batches
        return results, row

    def run_scaled(launch: Launcher, cmd: list[str]) -> ChildResult:
        # The speed of a shared machine drifts by tens of percent, in bursts
        # and in phases that outlast a run. Each child's times are rescaled to
        # the reference speed by the calibrations on either side of it.
        res = launch.run(cmd, workdir)
        cal.append(calibrate())
        res.scale = 2.0 * CAL_REF_S / (cal[-2] + cal[-1])
        return res

    def probe(launch: Launcher) -> None:
        res = run_scaled(launch, [sys.executable, "-m", "quvar", calls[0].argv[0], "--help"])
        ledger.add_probe(res)
        setup.append(res)

    setup, plain, traced, layer_rows = [], [], [], []
    calibrate()  # warm-up: the first call pays for FFT plans and allocations
    cal = [calibrate()]
    with Launcher(env, deadline) as launch:
        t0 = time.monotonic()
        while True:
            b0 = time.monotonic()
            if not trace:
                probe(launch)  # spread over the run, so set-up sees the same machine
            plain.append(batch(launch, spans=False)[0])
            if trace:
                results, row = batch(launch, spans=True)
                traced.append(results)
                layer_rows.append(row)
            # Start another step only if it should end within the run length.
            now = time.monotonic()
            if now + (now - b0) - t0 > seconds or now + (now - b0) > deadline:
                break
        while not trace and len(setup) < size.probes:
            probe(launch)

    samples = {
        "wall_s": [_sum(b, "wall_s") for b in plain],
        "main_s": [_sum(b, "main_s") for b in plain],
        "setup_s": [r.wall_s for r in setup],
        "calibration_s": cal,
    }
    if trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        metrics["trace.overhead_s"] = statistics.median(_sum(b, "main_s") for b in traced) - statistics.median(
            _sum(b, "main_s") for b in plain
        )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(sum(r.wall_s * r.scale for r in b) for b in plain),
            "main_s": statistics.median(sum(r.main_s * r.scale for r in b) for b in plain),
            "setup_s": statistics.median(r.wall_s * r.scale for r in setup),
            "peak_rss_mib": statistics.median(max(r.rss_mib for r in b) for b in plain),
        }
        units = END_TO_END
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size_name,
        "batches": len(plain),
        "run_s": time.monotonic() - started,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted,
        "setup_probes": ledger.probes,
        "samples": samples,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "invocations": ledger.entries,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                        help="'small' shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quvar" / "__init__.py").is_file():
        print(f"quvar sources not found under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        rec = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        records[name] = rec
        out = WORK / "records" / f"{name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(rec, indent=1) + "\n")
        raw = ", ".join(f"{k} {statistics.median(v):.4g}" for k, v in rec["samples"].items() if v)
        print(f"{name}: seed {args.seed}, {rec['batches']} batches, record {out.relative_to(ROOT)}")
        print(f"  unscaled medians: {raw} (reference calibration {CAL_REF_S} s)")
        for metric, m in rec["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_frac':34s} {rec['fail_frac']:.6g} ratio ({rec['failed']} of {rec['attempted']} invocations)")

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, r in records.items() for k, v in r["metrics"].items()}
    else:
        metrics = records[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
