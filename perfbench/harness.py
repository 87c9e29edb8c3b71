"""Generic measurement helpers: medians, failure counting, spans, environment.

Nothing here knows about wavebench; `layers.py` maps its modules onto spans.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def median_with_count(values) -> tuple[float, int]:
    """Median of the samples and how many there were."""
    values = list(values)
    if not values:
        raise ValueError("no samples to summarize")
    return float(statistics.median(values)), len(values)


@dataclass
class OpTally:
    """Ops attempted and failed; an op fails if it raises or fails a check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        if self.attempted == 0:
            raise ValueError("no ops attempted")
        return self.failed / self.attempted


@dataclass
class Span:
    """One timed call: [start, end] in perf_counter seconds."""

    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, if any
    op: object                  # timed op index, or ("setup"|"check"|"probe", ...)
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.

    Spans nest by call order in one thread, so a span's children run one
    after another inside it and never overlap.
    """
    selfs = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            selfs[s.parent] -= s.seconds
    return selfs


class Tracer:
    """In-memory span recorder with reversible wrappers around callables.

    Spans nest by call order (single thread). `op` tags every span started
    while it is set, so spans of one op share an identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[tuple[str, object, dict]] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), math.nan, parent, self.op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def note(self, name: str, **counts) -> None:
        """Record counts observed at a layer boundary."""
        self.notes.append((name, self.op, counts))

    def timed(self, name: str, fn, attrs=None):
        """Wrap `fn` so each call is a span; `attrs(result, *args, **kw)`
        returns extra fields for the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(out, *args, **kwargs))
                return out
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` by `make(original)` until `restore()`.

        A classmethod is unwrapped for `make` and re-wrapped afterwards.
        """
        orig = vars(owner)[attr]
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _noop():
    return None


# enough wrapped calls that the calibration takes tens of milliseconds
CALIBRATION_CALLS = 20000


def span_cost() -> float:
    """Seconds one wrapped no-op call costs over a direct call."""
    fn = Tracer().timed("calibrate", _noop)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        _noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        fn()
    return max(time.perf_counter() - t0 - direct, 0.0) / CALIBRATION_CALLS


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not Linux
        return os.cpu_count() or 1


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(environ=os.environ) -> int:
    """Limit BLAS threads to the CPU count; call before numpy is imported."""
    n = cpu_count()
    for var in THREAD_VARS:
        cur = environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            environ[var] = str(n)
    return n


def _openblas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    """Interpreter, numeric stack, BLAS, CPUs and whether numba imports."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        import numba        # noqa: F401  (only whether it imports matters)
        has_numba = True
    except ImportError:
        has_numba = False
    threads = _openblas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads if threads is not None
        else int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu_count": cpu_count(),
        "numba": has_numba,
        "platform": sys.platform,
    }
