"""In-memory span tracing by wrapping module-level functions at every binding.

A package's modules import each other's functions by name (``from .features
import scan_features``), so one function can be bound in several module
namespaces. Patching only the defining module would miss the calls made
through the other bindings; :class:`Tracer` therefore replaces every binding
of each wrapped function in every loaded module of the package, and restores
all of them on exit.

Each call of a wrapped function records one span ``(span_id, name, start_ns,
end_ns, parent_id, tag)``; the tracer's ``run_id`` names the run the spans
belong to. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

NO_PARENT = -1

# The percentile ladder used for tail latencies.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def package_modules(package: str) -> list:
    """Loaded modules of ``package`` (the package itself included), by name."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def public_functions(package: str) -> dict:
    """Public functions defined in the package, keyed by ``layer.function``.

    The layer is the last component of the defining module's name
    (``rainlidar.features`` -> ``features``).
    """
    found = {}
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
                and value.__name__ == attr
            ):
                layer = module.__name__.rsplit(".", 1)[-1]
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """Records spans for calls of wrapped functions in one thread."""

    def __init__(self, run_id: str, taggers: dict | None = None):
        self.run_id = run_id
        self.spans: list = []
        self._taggers = taggers or {}
        self._stack: list = []
        self._ids = itertools.count()
        self._patched: list = []

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        tagger = self._taggers.get(name)
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger is not None else None
            sid = next(ids)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tag))

        return traced

    def install(self, package: str) -> int:
        """Wrap every public function of ``package`` at every binding.

        Returns the number of bindings replaced. Call :meth:`uninstall` (or
        use the tracer as a context manager) to restore them.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = public_functions(package)
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in originals.items()}
        for module in package_modules(package):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> dict:
    """Self time in ns of each span: its duration minus what its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children are not counted twice.
    """
    children: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for any rung.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        # Compare n * (100 - p) / 100 >= 10 with a margin for 100 - 99.9.
        if n * (100.0 - p) >= 100.0 * MIN_SAMPLES_BEYOND - 1e-6:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values`` (``p`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)
