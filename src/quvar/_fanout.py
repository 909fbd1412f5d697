"""An ordered map whose items run in forked worker processes (Linux only).

fanout(fn, items) yields fn(item) for each item of a sequence, in order.
Item i runs in process i % k: process 0 is the caller, and k is the number
of usable CPUs, at most len(items). Each worker sends its results in order
through its own pipe with marshal, so fn must return builtin values (float,
str, tuples of them). A worker stops at its first exception. Where a
worker's stream ends, the caller computes that item and the worker's later
ones itself, so errors surface in item order with the serial type and
message, and a worker killed from outside costs time, not results. Every
exit (exhaustion, an exception, close()) kills and reaps every worker.

The serial path is plain map(): without os.fork or os.sched_getaffinity
(fork-unsafe platforms lack the latter), with one usable CPU or one item,
or when the caller passes parallel=False because the work is too small to
pay for the fork.
"""

import marshal
import os

SIGKILL = 9  # POSIX's number; the signal module would add an import of ~1 ms


def fanout(fn, items, parallel=True):
    if not (parallel and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return map(fn, items)
    k = min(len(os.sched_getaffinity(0)), len(items))
    return _fanned(fn, items, k) if k > 1 else map(fn, items)


def _spawn(fn, items, j, k):
    """Worker j's result stream, or None when no worker could be started."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the worker leaves only here: no stdio flush, no caller code
        try:
            os.close(r)
            with open(w, "wb") as out:
                for item in items[j::k]:
                    marshal.dump(fn(item), out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _fanned(fn, items, k):
    workers = []
    try:
        for j in range(1, k):
            workers.append(_spawn(fn, items, j, k))
        streams = [None] + [w and w[1] for w in workers]
        for i, item in enumerate(items):
            stream = streams[i % k]
            if stream is not None:
                try:
                    result = marshal.load(stream)
                except (EOFError, ValueError, TypeError):  # the worker stopped
                    streams[i % k] = None
                else:
                    yield result
                    continue
            yield fn(item)
    finally:
        for pid, stream in filter(None, workers):
            stream.close()
            try:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already: SIGCHLD ignored
                pass
