"""Fine-grid reference solutions and their binary cache format.

The reference is a Crank-Nicolson P1 run on a fine structured grid. Each
level holds one value per orbit of the nodal grid under the mesh
symmetries its start keeps (`fem._node_orbits`); `values` and `at_time`
expand them. A "WBEN" cache file (format version 4; see README) holds a
header, the levels and the root of a two-level SHA-256 tree over them. A
load hashes the levels in a thread pool and maps them only once the
checksum has passed. A build streams each level into a private temporary
file while a worker thread hashes it in memory and as read back, at most
_IN_FLIGHT levels held, and checks the file as a load does before it maps
it and renames it into the cache.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import os
import struct
import tempfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from .fem import (FemSystem, _at_time, _node_orbits, _symmetry_group,
                  cn_steps, interior_values)
from .mesh import build_structured_mesh
from .problem import WaveProblem

__all__ = [
    "ReferenceSolution",
    "CacheError",
    "generate_reference",
    "write_reference",
    "load_reference",
]

log = logging.getLogger("wavebench")

MAGIC = b"WBEN"
VERSION = 4
_HEADER = struct.Struct("<4s6I5d12s")   # 80 bytes: the values are aligned
_IN_FLIGHT = 8          # levels a writer holds until the worker checks them

try:                    # glibc only; other C libraries have no such call
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):    # pragma: no cover
    _malloc_trim = None


def _trailer(header: bytes, leaves) -> bytes:
    """The 8-byte checksum from the header and the levels' SHA-256 digests."""
    return hashlib.sha256(header + b"".join(leaves)).digest()[:8]


def _ic_digest(problem) -> bytes:
    """12 bytes of SHA-256 over the initial condition and its parameters."""
    ident = json.dumps([problem.ic, dict(problem.ic_params)], sort_keys=True)
    return hashlib.sha256(ident.encode()).digest()[:12]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class CacheError(RuntimeError):
    """Reference cache file is corrupt or does not match its checksum."""


@dataclass
class ReferenceSolution:
    """Levels (Nt_ref+1, K) of one value per orbit of the nodal grid under
    `group`; a (Nt_ref+1, ny+1, nx+1) array is kept under the trivial one."""

    problem: WaveProblem
    grid_nx: int
    grid_ny: int
    dt_ref: float
    Nt_ref: int
    levels: np.ndarray          # possibly a read-only memmap
    group: int = 0              # bits of fem._J, _S and _JS
    cache: str = "memory"       # "hit", "built", "regenerated" or "memory"
    # seconds to load and verify the file; for a build, from its last
    # level's write to the verified map
    load_s: float | None = None

    def __post_init__(self):
        if np.ndim(self.levels) == 3:       # every node its own orbit
            self.levels = np.reshape(self.levels, (len(self.levels), -1))

    @property
    def node_orbits(self) -> np.ndarray:
        """Orbit of each node, row-major, built on every read."""
        return _node_orbits(self.grid_nx, self.grid_ny, self.group)[0]

    @property
    def values(self) -> np.ndarray:
        """Nodal values (Nt_ref+1, ny+1, nx+1), expanded on every read."""
        return self._nodal(self.levels)

    def at_time(self, t: float) -> np.ndarray:
        """Nodal slice at time t by linear interpolation between levels."""
        return self._nodal(_at_time(self.levels, t, self.dt_ref,
                                    self.problem.T))

    def _nodal(self, levels) -> np.ndarray:
        levels = np.asarray(levels)[..., self.node_orbits]
        return levels.reshape(levels.shape[:-1] + (self.grid_ny + 1, -1))


def write_reference(ref: ReferenceSolution, path) -> None:
    """Write `ref` to `path` as a WBEN file, atomically (`_stream_write`)."""
    _stream_write(Path(path), ref.grid_nx, ref.grid_ny, ref.Nt_ref,
                  ref.problem, ref.dt_ref, iter(ref.levels), ref.group)


def _write(fd: int, path, buf) -> None:
    """os.write all of `buf` at the file offset; a short write is an error."""
    want = memoryview(buf).nbytes
    got = os.write(fd, buf)
    if got != want:
        raise OSError(f"{path}: short write, {got} of {want} bytes")


def _level_digest(fd: int, path, offset: int, size: int) -> bytes:
    """SHA-256 of the `size` bytes at `offset`, read with os.pread."""
    data = os.pread(fd, size, offset)
    if len(data) != size:
        raise CacheError(f"{path}: short read, {len(data)} of {size} bytes "
                         f"at byte {offset}")
    return hashlib.sha256(data).digest()


def _check_header(fd: int, path, problem: WaveProblem):
    """Read a WBEN header and check it against the file size and `problem`;
    returns the header bytes, the file size and K."""
    size = os.fstat(fd).st_size
    if size < _HEADER.size + 8:
        raise CacheError(f"{path}: truncated cache file")
    header = os.pread(fd, _HEADER.size, 0)
    magic, ver, _, _, Nt, _, K, L1, L2, c, T, _, ic = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CacheError(f"{path}: bad magic {magic!r}")
    if ver != VERSION:
        raise CacheError(f"{path}: unsupported format version {ver}")
    expect = _HEADER.size + 8 * K * (Nt + 1) + 8
    if size != expect:
        raise CacheError(f"{path}: size {size}, expected {expect}")
    for name, a, b in (("L1", L1, problem.L1), ("L2", L2, problem.L2),
                       ("c", c, problem.c), ("T", T, problem.T)):
        if a != b:
            raise CacheError(f"{path}: stored {name}={a} differs from "
                             f"requested {b}")
    if ic != _ic_digest(problem):
        raise CacheError(f"{path}: stored initial condition differs from "
                         f"requested {problem.ic} {dict(problem.ic_params)}")
    return header, size, K


def _map_verified(f, path, header: bytes, size: int, leaves,
                  problem) -> ReferenceSolution:
    """The reference in the open file `f`, its levels mapped once the
    trailer matches the tree root over `header` and the levels' digests."""
    if _trailer(header, leaves) != os.pread(f.fileno(), 8, size - 8):
        raise CacheError(f"{path}: checksum mismatch")
    _, _, nx, ny, Nt, group, K, _, _, _, _, dt, _ = _HEADER.unpack(header)
    levels = np.memmap(f, dtype="<f8", mode="r", offset=_HEADER.size,
                       shape=(Nt + 1, K))
    return ReferenceSolution(problem, nx, ny, dt, Nt, levels, group)


def _stream_write(path: Path, ref_nx, ref_ny, Nt_ref, problem, dt_ref, slices,
                  group=0):
    """Write `slices`, levels of orbit values under `group` not modified once
    yielded, to a temporary file, verify, map and rename it onto `path`."""
    header = _HEADER.pack(MAGIC, VERSION, ref_nx, ref_ny, Nt_ref, group,
                          _node_orbits(ref_nx, ref_ny, group)[1], problem.L1,
                          problem.L2, problem.c, problem.T, dt_ref,
                          _ic_digest(problem))
    # a private temp file per writer, so concurrent writers never share one
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")

    def check(data: np.ndarray, offset: int) -> bytes:
        leaf = _level_digest(fd, tmp, offset, data.nbytes)
        if leaf != hashlib.sha256(data).digest():
            raise CacheError(f"{tmp}: the level at byte {offset} reads back "
                             "changed")
        return leaf

    try:
        os.chmod(tmp, 0o644)        # mkstemp makes 0600; caches are shared
        # the pool exits first, so its last checks still read an open file
        with (os.fdopen(fd, "r+b", buffering=0) as f,
              ThreadPoolExecutor(1) as pool):
            _write(fd, tmp, header)
            offset, leaves, pending = len(header), [], deque()
            for sl in slices:
                data = np.ascontiguousarray(sl, dtype="<f8")
                _write(fd, tmp, data)
                pending.append(pool.submit(check, data, offset))
                offset += data.nbytes
                if len(pending) == _IN_FLIGHT:
                    leaves.append(pending.popleft().result())
            t0 = time.perf_counter()
            leaves += [p.result() for p in pending]
            _write(fd, tmp, _trailer(header, leaves))
            back, size, _ = _check_header(fd, tmp, problem)
            ref = _map_verified(f, tmp, back, size, leaves, problem)
        os.replace(tmp, path)
        ref.cache, ref.load_s = "built", time.perf_counter() - t0
        return ref
    except BaseException:
        os.unlink(tmp)
        raise


def load_reference(path, problem: WaveProblem) -> ReferenceSolution:
    """Verify a WBEN file by reading it, header first, then map its levels
    through the same open file, only if the checksum matches: a file renamed
    onto `path` meanwhile is never returned."""
    t0 = time.perf_counter()
    path = Path(path)
    with open(path, "rb") as f:
        fd = f.fileno()
        header, size, K = _check_header(fd, path, problem)
        with ThreadPoolExecutor(_usable_cpus()) as pool:
            leaves = list(pool.map(
                lambda off: _level_digest(fd, path, off, 8 * K),
                range(_HEADER.size, size - 8, 8 * K)))
        ref = _map_verified(f, path, header, size, leaves, problem)
    ref.cache, ref.load_s = "hit", time.perf_counter() - t0
    return ref


@functools.cache
def _solver_fingerprint() -> str:
    """Digest of the source that computes reference values, read once."""
    h = hashlib.blake2b(digest_size=8)
    for name in ("fem.py", "mesh.py", "problem.py", "reference.py"):
        h.update(Path(__file__).with_name(name).read_bytes())
    return h.hexdigest()


def cache_filename(problem: WaveProblem, ref_nx: int, ref_ny: int,
                   Nt_ref: int) -> str:
    """Deterministic cache name from the problem and solver fingerprints."""
    fp = json.dumps({"version": VERSION, "solver": _solver_fingerprint(),
                     "ic": problem.ic, "params": dict(problem.ic_params),
                     "L1": problem.L1, "L2": problem.L2, "c": problem.c,
                     "T": problem.T}, sort_keys=True)
    tag = hashlib.sha1(fp.encode()).hexdigest()[:10]
    return f"ref_{problem.ic}_{ref_nx}x{ref_ny}_nt{Nt_ref}_{tag}.wben"


def step_count(T: float, dt_ref: float) -> int:
    """Number of reference steps over [0, T]; dt_ref must divide T."""
    if not 0 < dt_ref < np.inf:
        raise ValueError(f"reference time step must be positive and finite, "
                         f"got {dt_ref}")
    Nt_ref = int(round(T / dt_ref))
    if abs(Nt_ref * dt_ref - T) > 1e-9 * T or Nt_ref < 1:
        raise ValueError(f"dt_ref={dt_ref} must divide the horizon T={T} "
                         "evenly")
    return Nt_ref


def generate_reference(problem: WaveProblem, ref_nx: int, ref_ny: int,
                       dt_ref: float, cache_dir=None) -> ReferenceSolution:
    """Run the fine-grid solver, caching the result on disk.

    With `cache_dir` set, a valid cache file is loaded; a missing one is
    built, and a corrupt one or one of another grid, step count or initial
    condition regenerated with a warning on the `wavebench` logger; the
    result's `cache` says which. A build logs its progress with an ETA at
    INFO about every tenth of its levels.
    """
    Nt_ref = step_count(problem.T, dt_ref)
    path = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / cache_filename(problem, ref_nx, ref_ny, Nt_ref)
        event = "built"
        if path.exists():
            try:
                ref = load_reference(path, problem)
                grid = (ref.grid_nx, ref.grid_ny, ref.Nt_ref)
                if grid == (ref_nx, ref_ny, Nt_ref):
                    return ref
                raise CacheError(f"{path}: stored grid {grid} differs from "
                                 f"requested {(ref_nx, ref_ny, Nt_ref)}")
            except FileNotFoundError:
                pass        # another process removed it since exists()
            except CacheError as exc:
                log.warning("%s; regenerating the reference", exc)
                path.unlink(missing_ok=True)
                event = "regenerated"

    mesh = build_structured_mesh(problem.L1, problem.L2, ref_nx, ref_ny)
    sys = FemSystem.build(mesh, problem.c)
    u0 = interior_values(problem.initial_condition(), mesh)
    group = _symmetry_group(mesh, u0)

    def slices():
        t0 = time.perf_counter()
        every = max(Nt_ref // 10, 1)
        steps = cn_steps(sys, u0, dt_ref, group=group)
        for k in range(Nt_ref + 1):
            yield next(steps)
            if k and (k % every == 0 or k == Nt_ref):
                elapsed = time.perf_counter() - t0
                log.info("reference %dx%d: level %d of %d, %.1f s, ETA %.1f s",
                         ref_nx, ref_ny, k, Nt_ref, elapsed,
                         elapsed * (Nt_ref - k) / k)
        steps.close()
        if _malloc_trim is not None:
            # SuperLU's work arrays, sized from nnz(A), come from a heap
            # glibc does not trim once its mmap threshold has risen, and
            # the next build's factor would keep both resident (+2.5 MB
            # peak over 100 x 100 polynomial and mollifier builds).
            _malloc_trim(0)

    if path is None:
        levels = np.empty((Nt_ref + 1, _node_orbits(ref_nx, ref_ny, group)[1]))
        for k, sl in enumerate(slices()):
            levels[k] = sl
        return ReferenceSolution(problem, ref_nx, ref_ny, dt_ref, Nt_ref,
                                 levels, group)

    ref = _stream_write(path, ref_nx, ref_ny, Nt_ref, problem, dt_ref,
                        slices(), group)
    ref.cache = event
    return ref
