"""One forked worker process that sends a command its results through a pipe.

A command hands the worker a share of its blocks, such as every other
one, and reads each result back in block order; a block whose result
the pipe does not deliver, because the worker ended early or met an
error or warning, the command makes itself.  So no output depends on
the worker, and every error or warning comes from the command, as a
single process gives it.
"""

from __future__ import annotations

import marshal
import os
import threading
import warnings
from typing import Callable

# Bytes of the length prefix of each payload.
_PREFIX = 8

Send = Callable[[object], None]


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
    """A worker that runs ``job``, or None: without two CPUs to run on,
    beside another Python thread (which a fork would leave out of the
    child, whatever locks it holds), or when the fork fails."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or threading.active_count() > 1:
        return None
    try:
        return Worker(job)
    except OSError:
        return None
