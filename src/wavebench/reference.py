"""Fine-grid reference solutions and their binary cache format.

The reference is a Crank-Nicolson P1 run on a fine structured grid, stored
as full nodal slices (boundary rows exactly zero). Cache files use the
"WBEN" format: magic, u32 version, u32 {nx, ny, Nt}, f64 {L1, L2, c, T, dt},
the value array time-major then y-major then x, and an 8-byte trailer.
In format version 3 the trailer is a two-level SHA-256 tree,
sha256(header || sha256(level_0) || ... || sha256(level_Nt))[:8], which
covers every byte in order. The writer hashes each time level as it
writes it. The loader reads the levels with positioned reads and hashes
them in a thread pool (os.pread and hashlib release the GIL), so a load
keeps about one level per CPU resident; it maps the values only after the
checksum has passed, through the file it verified. Version 2 files are
rejected. Generation streams slice by slice, so the peak memory stays at
one spatial slice. A file is verified and mapped before it is published:
the writer renames its temporary file onto the cache path only then.
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
    load_s: float | None = None     # seconds to load and verify the file

    def at_time(self, t: float) -> np.ndarray:
        """Nodal slice at time t by linear interpolation between levels."""
        return _at_time(self.values, t, self.dt_ref, self.problem.T)


def write_reference(ref: ReferenceSolution, path) -> None:
    """Write a complete reference in the WBEN format; the file is verified
    and mapped before it is renamed onto `path` (atomic)."""
    _stream_write(Path(path), ref.grid_nx, ref.grid_ny, ref.Nt_ref,
                  ref.problem, ref.dt_ref, iter(ref.values))


def _stream_write(path: Path, ref_nx, ref_ny, Nt_ref, problem, dt_ref, slices):
    header = _HEADER.pack(MAGIC, VERSION, ref_nx, ref_ny, Nt_ref, problem.L1,
                          problem.L2, problem.c, problem.T, dt_ref)
    leaves = []
    # a private temp file per writer, so concurrent writers never share one
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        os.chmod(tmp, 0o644)        # mkstemp makes 0600; caches are shared
        with os.fdopen(fd, "wb") as f:
            f.write(header)
            for sl in slices:
                data = np.ascontiguousarray(sl, dtype="<f8")
                leaves.append(hashlib.sha256(data).digest())
                f.write(data)
            f.write(_trailer(header, leaves))
        ref = load_reference(tmp, problem)
        os.replace(tmp, path)
        return ref
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
        level = 8 * (ny + 1) * (nx + 1)
        with ThreadPoolExecutor(_usable_cpus()) as pool:
            leaves = pool.map(
                lambda off: hashlib.sha256(os.pread(fd, level, off)).digest(),
                range(_HEADER.size, size - 8, level))
            trailer = _trailer(header, leaves)
        if trailer != os.pread(fd, 8, size - 8):
            raise CacheError(f"{path}: checksum mismatch")
        values = np.memmap(f, dtype="<f8", mode="r", offset=_HEADER.size,
                           shape=(Nt + 1, ny + 1, nx + 1))
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
    recomputing; a missing file is built, and a corrupt one regenerated
    with a warning on the `wavebench` logger. The result's `cache` says
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
                return load_reference(path, problem)
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
