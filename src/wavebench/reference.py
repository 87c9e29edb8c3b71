"""Fine-grid reference solutions and their binary cache format.

The reference is a Crank-Nicolson P1 run on a fine structured grid, stored
as full nodal slices (boundary rows exactly zero). Cache files use the
"WBEN" format: magic, u32 version, u32 {nx, ny, Nt}, f64 {L1, L2, c, T, dt},
the value array time-major then y-major then x, and an 8-byte trailer.
In format version 3 the trailer is a two-level SHA-256 tree,
sha256(header || sha256(level_0) || ... || sha256(level_Nt))[:8], which
covers every byte in order. The loader reads the levels with positioned
reads and hashes them in a thread pool (os.pread and hashlib release the
GIL), so a load keeps about one level per CPU resident; it maps the values
only after the checksum has passed, through the file it verified. Version
2 files are rejected.

Generation streams slice by slice into a private temporary file. The
stepping thread writes each level; one worker thread hashes it in memory
and again as read back from the file, while the next level is solved, so
at most _IN_FLIGHT levels are held. After the last level the writer checks
the header, size and trailer read back from the file, as a load does, and
maps the file only then; it renames the file onto the cache path last, so
a file is verified and mapped before it is published.
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
from .fem import FemSystem, _at_time, cn_steps, interior_values
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
VERSION = 3
_HEADER = struct.Struct("<4sIIII5d")       # magic, ver, nx, ny, Nt, 5 doubles
_IN_FLIGHT = 8          # levels a writer holds until the worker checks them

try:                    # glibc only; other C libraries have no such call
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):    # pragma: no cover
    _malloc_trim = None


def _trailer(header: bytes, leaves) -> bytes:
    """The 8-byte checksum from the header and the levels' SHA-256 digests."""
    return hashlib.sha256(header + b"".join(leaves)).digest()[:8]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class CacheError(RuntimeError):
    """Reference cache file is corrupt or does not match its checksum."""


@dataclass
class ReferenceSolution:
    """Nodal reference values (Nt_ref+1, ny+1, nx+1) with problem metadata."""

    problem: WaveProblem
    grid_nx: int
    grid_ny: int
    dt_ref: float
    Nt_ref: int
    values: np.ndarray          # possibly a read-only memmap
    cache: str = "memory"       # "hit", "built", "regenerated" or "memory"
    # seconds to load and verify the file; for a build, from its last
    # level's write to the verified map
    load_s: float | None = None

    def at_time(self, t: float) -> np.ndarray:
        """Nodal slice at time t by linear interpolation between levels."""
        return _at_time(self.values, t, self.dt_ref, self.problem.T)


def write_reference(ref: ReferenceSolution, path) -> None:
    """Write a complete reference in the WBEN format; the file is verified
    and mapped before it is renamed onto `path` (atomic)."""
    _stream_write(Path(path), ref.grid_nx, ref.grid_ny, ref.Nt_ref,
                  ref.problem, ref.dt_ref, iter(ref.values))


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
    returns the header bytes, the file size and (nx, ny, Nt, dt)."""
    size = os.fstat(fd).st_size
    if size < _HEADER.size + 8:
        raise CacheError(f"{path}: truncated cache file")
    header = os.pread(fd, _HEADER.size, 0)
    magic, ver, nx, ny, Nt, L1, L2, c, T, dt = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CacheError(f"{path}: bad magic {magic!r}")
    if ver != VERSION:
        raise CacheError(f"{path}: unsupported format version {ver}")
    n_vals = (Nt + 1) * (ny + 1) * (nx + 1)
    expect = _HEADER.size + 8 * n_vals + 8
    if size != expect:
        raise CacheError(f"{path}: size {size}, expected {expect}")
    for name, a, b in (("L1", L1, problem.L1), ("L2", L2, problem.L2),
                       ("c", c, problem.c), ("T", T, problem.T)):
        if a != b:
            raise CacheError(f"{path}: stored {name}={a} differs from "
                             f"requested {b}")
    return header, size, (nx, ny, Nt, dt)


def _map_verified(f, path, header: bytes, size: int, leaves) -> np.memmap:
    """Map the values of the open file `f` once its trailer matches the
    tree root over `header` and the levels' digests."""
    if _trailer(header, leaves) != os.pread(f.fileno(), 8, size - 8):
        raise CacheError(f"{path}: checksum mismatch")
    nx, ny, Nt = _HEADER.unpack(header)[2:5]
    return np.memmap(f, dtype="<f8", mode="r", offset=_HEADER.size,
                     shape=(Nt + 1, ny + 1, nx + 1))


def _stream_write(path: Path, ref_nx, ref_ny, Nt_ref, problem, dt_ref, slices):
    """Write `slices` (not modified once yielded) to a temporary file,
    verify and map it, and rename it onto `path` (see the module doc)."""
    header = _HEADER.pack(MAGIC, VERSION, ref_nx, ref_ny, Nt_ref, problem.L1,
                          problem.L2, problem.c, problem.T, dt_ref)
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
            back, size, (nx, ny, Nt, dt) = _check_header(fd, tmp, problem)
            values = _map_verified(f, tmp, back, size, leaves)
        os.replace(tmp, path)
        return ReferenceSolution(problem, nx, ny, dt, Nt, values, "built",
                                 time.perf_counter() - t0)
    except BaseException:
        os.unlink(tmp)
        raise


def load_reference(path, problem: WaveProblem) -> ReferenceSolution:
    """Verify a WBEN file by reading it, then memory-map its values.

    Magic, version, size and metadata are checked before any hashing.
    Only a file whose checksum matches is mapped, through the same open
    file, so a file renamed onto `path` meanwhile is never returned.
    """
    t0 = time.perf_counter()
    path = Path(path)
    with open(path, "rb") as f:
        fd = f.fileno()
        header, size, (nx, ny, Nt, dt) = _check_header(fd, path, problem)
        level = 8 * (ny + 1) * (nx + 1)
        with ThreadPoolExecutor(_usable_cpus()) as pool:
            leaves = list(pool.map(
                lambda off: _level_digest(fd, path, off, level),
                range(_HEADER.size, size - 8, level)))
        values = _map_verified(f, path, header, size, leaves)
    return ReferenceSolution(problem, nx, ny, dt, Nt, values, "hit",
                             time.perf_counter() - t0)


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

    With `cache_dir` set, an existing valid cache file is loaded instead of
    recomputing; a missing file is built, and a corrupt one, or one of
    another grid or step count, regenerated with a warning on the
    `wavebench` logger. The result's `cache` says
    which of these happened. The solve streams each time level to disk,
    and a build logs its progress with an ETA on the `wavebench` logger at
    INFO, about every tenth of its levels.
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

    def slices():
        t0 = time.perf_counter()
        every = max(Nt_ref // 10, 1)
        steps = cn_steps(sys, u0, dt_ref)
        for k in range(Nt_ref + 1):
            yield mesh.full_grid(next(steps))
            if k and (k % every == 0 or k == Nt_ref):
                elapsed = time.perf_counter() - t0
                log.info("reference %dx%d: level %d of %d, %.1f s, ETA %.1f s",
                         ref_nx, ref_ny, k, Nt_ref, elapsed,
                         elapsed * (Nt_ref - k) / k)
        steps.close()
        if _malloc_trim is not None:
            # SuperLU sizes its work arrays from nnz(A), and once glibc's
            # mmap threshold has risen they come from a heap it does not
            # trim. The next build's factor, sized by the orbits its start
            # steps on, would place its own elsewhere and keep both sets of
            # pages resident (+5 MB peak over 100 x 100 polynomial and
            # mollifier builds).
            _malloc_trim(0)

    if path is None:
        values = np.empty((Nt_ref + 1, ref_ny + 1, ref_nx + 1))
        for k, sl in enumerate(slices()):
            values[k] = sl
        return ReferenceSolution(problem, ref_nx, ref_ny, dt_ref, Nt_ref, values)

    ref = _stream_write(path, ref_nx, ref_ny, Nt_ref, problem, dt_ref, slices())
    ref.cache = event
    return ref
