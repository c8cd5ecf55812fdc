"""Helpers shared by more than one test module: those of the two-process
scan reader, the session writer and :func:`rainlidar.io._made_blocks`,
which both use, and the whole-table windowing oracle.

pytest loads this file as the module ``conftest``; test modules import
its helpers from there, so they share the one copy."""

import os
import select
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rainlidar import io as rio
from rainlidar import pipeline
from rainlidar.errors import InvalidInputError
from rainlidar.features import ScanTable, reduce_window, scan_feature_rows
from rainlidar.pipeline import EDGE_TOLERANCE, target_for_window


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


def slide_windows_oracle(scans, box, duration, period, limit, series=None, end_anchored=False):
    """The whole-table windowing path that WindowStream replaced, verbatim
    but for its name and its vectors, which it returns as a list."""
    scans = ScanTable.from_scans(scans)
    times = scans.timestamps
    if np.any(np.diff(times) < 0):
        raise InvalidInputError("scans must be time-ordered")
    t0 = float(times[0])
    last = limit + 1e-9
    # One index past the last window that can fit; the mask below trims it.
    k = np.arange(max(int((last - t0 - duration) // period) + 2, 0))
    if end_anchored:
        ends = (t0 + duration) + k * period
        starts = ends - duration
    else:
        starts = t0 + k * period
        ends = starts + duration
    inside = ends <= last
    starts, ends = starts[inside], ends[inside]
    lo = np.searchsorted(times, starts - EDGE_TOLERANCE)
    hi = np.searchsorted(times, ends - EDGE_TOLERANCE)
    counts = pipeline.WindowingResult(samples=[], n_windows=len(starts))
    kept = []
    for start, end, i0, i1 in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        if i1 - i0 < 2:
            counts.n_skipped_few_scans += 1
            continue
        target = None if series is None else target_for_window(series, (start, end))
        if series is not None and target is None:
            counts.n_skipped_no_target += 1
            continue
        kept.append((start, end, target, i0, i1))

    def vectors():
        used = np.zeros(len(scans), dtype=bool)
        for _, _, _, i0, i1 in kept:
            used[i0:i1] = True
        rows = scan_feature_rows(scans, box, np.flatnonzero(used))
        for start, end, target, i0, i1 in kept:
            yield start, end, target, reduce_window(rows[i0:i1])

    return counts, list(vectors())
