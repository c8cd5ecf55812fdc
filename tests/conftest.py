"""Helpers shared by the tests of the two-process scan reader, the
session writer and :func:`rainlidar.io._made_blocks`, which both use."""

import os
import select
import signal
import time
from contextlib import contextmanager

import pytest

from rainlidar import io as rio


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, n):
    """Let the session writer see n CPUs, so it runs with 1 or 2 processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def wait_until(done) -> bool:
    """Whether ``done()`` is true, waiting up to 30 s for it."""
    deadline = time.monotonic() + 30
    while not done() and time.monotonic() < deadline:
        time.sleep(0.005)
    return done()


class Flag:
    """A flag that one process raises and another waits for: a pipe made
    before the fork, readable once raised."""

    def __init__(self):
        self.read_fd, self.write_fd = os.pipe()

    def raise_(self):
        os.write(self.write_fd, b"x")

    def wait(self) -> bool:
        """Whether the flag is raised, waiting up to 30 s for it."""
        return bool(select.select([self.read_fd], [], [], 30)[0])

    def close(self):
        os.close(self.read_fd)
        os.close(self.write_fd)


@pytest.fixture
def flags():
    """A function that makes a :class:`Flag`, closed after the test."""
    made = []
    yield lambda: made.append(Flag()) or made[-1]
    for flag in made:
        flag.close()


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this process once the block has run ``seconds``,
    so that a hang fails the test instead of stopping the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def exit_holding_the_token(monkeypatch, nth):
    """Make the worker exit, code 7, instead of putting back the token that
    it has taken for its ``nth`` claim."""
    put, parent, puts = rio._Token.put, os.getpid(), []

    def put_or_exit(self, *numbers):
        if os.getpid() != parent:
            puts.append(numbers)  # the worker's own list, after the fork
            if len(puts) == nth:
                os._exit(7)
        put(self, *numbers)

    monkeypatch.setattr(rio._Token, "put", put_or_exit)
