"""Spawn CLI children one at a time and report their wall time and ru_maxrss.

run.py talks to this process over its stdin and stdout, one JSON object per
line: a request ``{"cmd", "cwd", "stdout", "stderr", "timeout"}`` and a reply
``{"rc", "wall_s", "maxrss_kib"}``. It exists because on Linux a child's
ru_maxrss includes the peak RSS of the process image it replaced at exec, so
children spawned straight from run.py (which holds parsed outputs) would
report run.py's memory. This process stays small and never grows.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=out, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
