"""The forked worker that simulate, score, fit and report share: its start
rule, its pipe and the job contract of ``shared``."""

import marshal
import os
import threading

import pytest

from conftest import assert_no_child_left, recorded_worker, within_a_minute
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
    assert not worker.can_fork()
    assert worker.start_worker(lambda send: None) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not worker.can_fork()
        assert worker.start_worker(lambda send: None) is None
    finally:
        stop.set()
        thread.join()

    def fork_fails():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", fork_fails)
    assert worker.can_fork()
    fds = len(os.listdir("/proc/self/fd"))
    assert worker.start_worker(lambda send: None) is None
    assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed
    assert_no_child_left()


def made_by(job):
    """A job's key and the process that makes it."""
    return job[0], os.getpid()


def keyed(n):
    return [(key, "data") for key in range(n)]


def test_shared_results_arrive_in_job_order_with_the_odd_jobs_the_workers(monkeypatch):
    delivered = recorded_worker(monkeypatch, 2)
    with within_a_minute("shared"):
        results = list(worker.shared(keyed(7), made_by, lambda: keyed(7)))
    parent = os.getpid()
    assert [key for key, _ in results] == list(range(7))
    assert [pid == parent for _, pid in results] == [True, False] * 3 + [True]
    assert delivered == [True] * 3
    assert_no_child_left()


def test_shared_makes_a_job_whose_key_the_worker_result_lacks(monkeypatch):
    delivered = recorded_worker(monkeypatch, 2)
    # The worker's job 3 has another key, so the command makes its own job 3.
    worker_jobs = [(key + 100 if key == 3 else key, "data") for key in range(6)]
    with within_a_minute("shared"):
        results = list(worker.shared(keyed(6), made_by, lambda: worker_jobs))
    parent = os.getpid()
    assert [key for key, _ in results] == list(range(6))
    assert [pid == parent for _, pid in results] == [True, False, True, True, True, False]
    assert delivered == [True] * 3
    assert_no_child_left()


@pytest.mark.parametrize("sent", [0, 1, 3])
def test_shared_makes_the_jobs_a_worker_leaves(monkeypatch, sent):
    delivered = recorded_worker(monkeypatch, 2)
    parent = os.getpid()

    def make(job):
        # Only in the worker, after ``sent`` results.
        if os.getpid() != parent and job[0] == 2 * sent + 1:
            os._exit(3)
        return made_by(job)

    with within_a_minute("shared"):
        results = list(worker.shared(keyed(8), make, lambda: keyed(8)))
    assert [key for key, _ in results] == list(range(8))
    assert [pid == parent for _, pid in results] == [True, False] * sent + [True] * (8 - 2 * sent)
    assert delivered == [True] * sent + [False] * (4 - sent)
    assert_no_child_left()


@pytest.mark.parametrize("end", ["break", "consumer_raises", "make_raises", "close"])
def test_shared_leaves_no_child(monkeypatch, end):
    recorded_worker(monkeypatch, 2)
    parent = os.getpid()

    def make(job):
        if end == "make_raises" and os.getpid() == parent and job[0] == 2:
            raise KeyboardInterrupt
        return made_by(job)

    with within_a_minute("shared"):
        if end == "break":
            for key, _ in worker.shared(keyed(6), make, lambda: keyed(6)):
                if key == 1:
                    break
        elif end == "close":
            results = worker.shared(keyed(6), make, lambda: keyed(6))
            assert next(results)[0] == 0
            results.close()
        else:
            with pytest.raises(KeyboardInterrupt):
                for key, _ in worker.shared(keyed(6), make, lambda: keyed(6)):
                    if end == "consumer_raises" and key == 1:
                        raise KeyboardInterrupt
    assert_no_child_left()


def test_shared_forks_nothing_when_asked_for_no_worker(two_cpus, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    parent = os.getpid()
    assert list(worker.shared(keyed(5), made_by, None)) == [(key, parent) for key in range(5)]
