import os
import signal
from contextlib import contextmanager

import pytest

from marcz.forked import forked_map


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs are claimed, so that two children are forked on any
    runner; the list records each fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@contextmanager
def _deadline(seconds=60):
    """Raise TimeoutError in the parent if the block has not ended in time,
    so a pipe deadlock fails the test rather than hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_in_item_order(forks):
    # each result is larger than a pipe's buffer, so a child blocks in its
    # write until the parent reads
    with _deadline():
        got = forked_map(lambda x: (x, os.getpid(), bytes(200_000)), range(8))
    assert len(forks) == 2
    assert [x for x, _, _ in got] == list(range(8))
    pids = [pid for _, pid, _ in got]
    # stride shares: the parent computes items 0, 3, 6
    assert [pids[i] == os.getpid() for i in range(8)] == [i % 3 == 0 for i in range(8)]
    assert len(set(pids)) == 3
    _assert_no_child_left()


def test_fewer_items_than_cpus(forks):
    assert forked_map(lambda x: x * x, [3, 4]) == [9, 16]
    assert len(forks) == 1
    assert forked_map(lambda x: x, []) == []
    assert len(forks) == 1


def test_child_failure_recovered_by_parent(forks):
    # a child fails on item 4 (share 1: items 1, 4, 7), and the parent
    # computes that share again once the child is reaped
    parent = os.getpid()

    def flaky(x):
        if os.getpid() != parent and x == 4:
            raise OSError("disk full")
        return x * x, os.getpid() == parent

    got = forked_map(flaky, range(9))
    assert len(forks) == 2
    assert [v for v, _ in got] == [x * x for x in range(9)]
    assert [in_parent for _, in_parent in got] == [x % 3 != 2 for x in range(9)]
    _assert_no_child_left()


def test_persistent_failure_raises_once(forks):
    parent, tries = os.getpid(), []

    def broken(x):
        if x == 4:
            if os.getpid() == parent:
                tries.append(x)
            raise ValueError("bad item")
        return x

    with pytest.raises(ValueError, match="bad item"):
        forked_map(broken, range(9))
    assert len(forks) == 2
    assert tries == [4]  # the child's failure, then one try in the parent
    _assert_no_child_left()


def test_parent_failure_reaps_blocked_children(forks):
    # the children are still writing results larger than a pipe's buffer
    # when the parent's own share fails: they must end, and be reaped
    def parent_fails(x):
        if x == 0:
            raise ValueError("parent share")
        return bytes(1 << 20)

    with _deadline(), pytest.raises(ValueError, match="parent share"):
        forked_map(parent_fails, range(6))
    assert len(forks) == 2
    _assert_no_child_left()


def test_without_fork_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert forked_map(lambda x: (x, os.getpid()), range(5)) == [(x, parent) for x in range(5)]
