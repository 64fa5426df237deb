"""One forked worker process that makes every other job of a command.

simulate, score, fit and report each hand ``shared`` their jobs, such as
blocks of flows or of rows, and the function that makes one.  A worker
forked beside the command makes the odd-numbered jobs and sends each
result back with its job's key; the command makes the others, and any
job whose result the worker does not deliver, because it ended early or
met an error or warning, or delivers under another key.  So no output
depends on the worker, and every error or warning comes from the
command, as a single process gives it.
"""

from __future__ import annotations

import marshal
import os
import threading
import warnings
from typing import Callable, Iterable, Iterator, TypeVar

# Bytes of the length prefix of each payload.
_PREFIX = 8

Send = Callable[[object], None]
Result = TypeVar("Result")


class Worker:
    """A forked process that runs ``job(send)`` and ends.  ``send`` writes
    one result, a value that ``marshal`` takes other than None, to the
    pipe as a length-prefixed payload; ``receive`` reads them in order."""

    def __init__(self, job: Callable[[Send], object]):
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # CPython 3.12 and later warn on fork() in a process of more
                # than one OS thread.  No Python thread runs beside this one,
                # so only native pools such as OpenBLAS's can be counted; the
                # child calls none of their routines and ends in os._exit.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            try:
                os.close(read_fd)
                # A warning ends the worker unprinted: the command makes the
                # block itself and warns as it would without a worker.
                warnings.simplefilter("error")
                job(lambda result: _write(write_fd, result))
            finally:
                # Never back into the caller's frames, nor flushing the
                # buffers of its files.
                os._exit(0)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def receive(self) -> object:
        """The worker's next result, or None once it has ended without one."""
        prefix = self.pipe.read(_PREFIX)
        if len(prefix) < _PREFIX:
            return None
        size = int.from_bytes(prefix, "little")
        payload = self.pipe.read(size)
        return marshal.loads(payload) if len(payload) == size else None

    def close(self) -> None:
        """Close the pipe, then end and reap the worker: nothing it makes
        is read any more, so it is killed, also in the middle of a block."""
        import signal  # here, not at the top: it loads on no command's path but this one

        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _write(fd: int, result: object) -> None:
    payload = marshal.dumps(result)
    data = memoryview(len(payload).to_bytes(_PREFIX, "little") + payload)
    while data:
        data = data[os.write(fd, data) :]


def start_worker(job: Callable[[Send], object]) -> Worker | None:
    """A worker that runs ``job``, or None: with fewer than two CPUs to run
    on, beside another Python thread, which a fork would leave out of the
    child whatever locks it holds, or when the fork fails."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or threading.active_count() > 1:
        return None
    try:
        return Worker(job)
    except OSError:
        return None


def shared(
    jobs: Iterable[tuple], make: Callable[[tuple], Result], worker_jobs: Callable[[], Iterable[tuple]] | None,
) -> Iterator[Result]:
    """Yield ``make(job)`` for each of ``jobs``, tuples whose first item is
    the job's key, in order.  Unless ``worker_jobs`` is None, the worker
    that ``start_worker`` may start makes the odd-numbered jobs of
    ``worker_jobs()``, its own list of the same jobs, and an odd-numbered
    job here takes its next result if the key is the job's.  The worker is
    ended and reaped when the iteration ends, raises or is closed."""

    def make_odd(send: Send) -> None:
        for index, job in enumerate(worker_jobs()):
            if index % 2:
                send((job[0], make(job)))

    worker = None if worker_jobs is None else start_worker(make_odd)
    try:
        for index, job in enumerate(jobs):
            received = worker.receive() if index % 2 and worker is not None else None
            yield received[1] if received is not None and received[0] == job[0] else make(job)
    finally:
        if worker is not None:
            worker.close()
