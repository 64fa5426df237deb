"""The forked worker that simulate and score share: its start rule and pipe."""

import marshal
import os
import threading

import pytest

from conftest import assert_no_child_left
from volteqa import worker


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_arrive_in_order_then_none(two_cpus):
    started = worker.start_worker(lambda send: [send((n, "x" * n, [n])) for n in (0, 1, 70_000)])
    try:
        assert [started.receive() for _ in range(4)] == [(0, "", [0]), (1, "x", [1]), (70_000, "x" * 70_000, [70_000]), None]
    finally:
        started.close()
    assert_no_child_left()


def test_a_result_cut_short_is_not_delivered(two_cpus, monkeypatch):
    write = worker._write

    def write_then_cut(fd, result):
        write(fd, result)
        payload = marshal.dumps(result)
        os.write(fd, len(payload).to_bytes(8, "little") + payload[:-1])

    monkeypatch.setattr(worker, "_write", write_then_cut)
    started = worker.start_worker(lambda send: send(("block", [1, 2])))
    try:
        assert started.receive() == ("block", [1, 2])
        assert started.receive() is None
        assert started.receive() is None
    finally:
        started.close()
    assert_no_child_left()


def test_no_worker_on_one_cpu_beside_a_thread_or_when_fork_fails(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert worker.start_worker(lambda send: None) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert worker.start_worker(lambda send: None) is None
    finally:
        stop.set()
        thread.join()

    def fork_fails():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", fork_fails)
    fds = len(os.listdir("/proc/self/fd"))
    assert worker.start_worker(lambda send: None) is None
    assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed
    assert_no_child_left()
