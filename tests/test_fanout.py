"""quvar._fanout: an ordered map over forked workers, equal to map().

Each test sets the number of usable CPUs, and so the number of processes,
with a monkeypatched os.sched_getaffinity of at most three CPUs.
"""

import os
import signal

import pytest

from quvar._fanout import fanout

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="fan-out forks workers only where os.fork and os.sched_getaffinity exist",
)

CALLER = os.getpid()
ITEMS = list(range(11))


class Boom(ArithmeticError):
    pass


def square(x):
    return x * x


def square_and_pid(x):
    return x * x, os.getpid()


def boom_at_5(x):
    if x == 5:
        raise Boom(f"item {x} failed")
    return x * x


def worker_dies_at_5(x):
    if x == 5 and os.getpid() != CALLER:
        os._exit(3)
    return x * x


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[2, 3])
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


def test_results_equal_map_in_order(cpus):
    got = list(fanout(square_and_pid, ITEMS))
    assert [value for value, _ in got] == list(map(square, ITEMS))
    # Item i ran in process i % k: the caller for 0, a worker of its own otherwise.
    pids = [pid for _, pid in got]
    for i, pid in enumerate(pids):
        assert (pid == CALLER) == (i % cpus == 0)
        assert pid == pids[i % cpus]
    assert len(set(pids)) == cpus
    assert_no_child_left()


def test_a_workers_exception_is_raised_at_its_index(cpus):
    # Item 5 runs in a worker for k = 2 and k = 3; the caller recomputes it.
    assert 5 % cpus != 0
    got = []
    with pytest.raises(Boom, match="^item 5 failed$"):
        for value in fanout(boom_at_5, ITEMS):
            got.append(value)
    assert got == [square(x) for x in range(5)]
    assert_no_child_left()


def test_a_worker_that_dies_still_yields_every_result(cpus):
    assert list(fanout(worker_dies_at_5, ITEMS)) == list(map(square, ITEMS))
    assert_no_child_left()


def test_no_child_is_left_after_close(cpus):
    results = fanout(square, list(range(1000)))
    assert [next(results) for _ in range(3)] == [0, 1, 4]
    results.close()
    assert_no_child_left()


def test_no_child_is_left_after_an_exception_in_the_caller(cpus):
    items = [0, 1, 2, 3, 4, 6, 5]  # index 6 is the caller's for k = 2 and k = 3
    with pytest.raises(Boom, match="^item 5 failed$"):
        list(fanout(boom_at_5, items))
    assert_no_child_left()


def test_one_cpu_gives_the_serial_path(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    results = fanout(square_and_pid, ITEMS)
    assert isinstance(results, map)
    assert list(results) == [(square(x), CALLER) for x in ITEMS]


def test_small_work_one_item_or_no_fork_give_the_serial_path(cpus, monkeypatch):
    assert isinstance(fanout(square, ITEMS, parallel=False), map)
    assert isinstance(fanout(square, [3]), map)
    monkeypatch.delattr(os, "fork")
    assert isinstance(fanout(square, ITEMS), map)


def test_a_failed_fork_leaves_its_items_to_the_caller(cpus, monkeypatch):
    real_fork = os.fork
    forks = []

    def fork_once():
        if forks:
            raise BlockingIOError("no more processes")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    got = list(fanout(square_and_pid, ITEMS))
    assert [value for value, _ in got] == list(map(square, ITEMS))
    assert {pid for i, (_, pid) in enumerate(got) if i % cpus == 1} != {CALLER}
    assert {pid for i, (_, pid) in enumerate(got) if i % cpus != 1} == {CALLER}
    assert_no_child_left()



def test_a_caller_that_ignores_sigchld_gets_every_result(cpus):
    # The kernel then reaps the workers itself, before the caller can.
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert list(fanout(square, ITEMS)) == list(map(square, ITEMS))
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert_no_child_left()
