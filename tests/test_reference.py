"""Reference generation and the binary cache format."""

import gc
import hashlib
import json
import logging
import os
import re
import struct
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wavebench import reference
from wavebench.fem import (FemSystem, _at_time, _node_orbits, _symmetry_group,
                           cn_steps, interior_values)
from wavebench.mesh import build_structured_mesh
from wavebench.metrics import sample_reference
from wavebench.problem import WaveProblem
from wavebench.reference import (MAGIC, VERSION, CacheError, ReferenceSolution,
                                 generate_reference, write_reference,
                                 load_reference, cache_filename,
                                 _stream_write)


def _small_ref(ic="polynomial", nx=6, dt=1.0 / 12):
    prob = WaveProblem(ic=ic)
    return prob, generate_reference(prob, nx, nx, dt, cache_dir=None)


def test_generate_shapes_and_boundary():
    prob, ref = _small_ref()
    assert ref.values.shape == (13, 7, 7)
    assert ref.Nt_ref == 12
    assert np.all(ref.values[:, 0, :] == 0)
    assert np.all(ref.values[:, -1, :] == 0)
    assert np.all(ref.values[:, :, 0] == 0)
    assert np.all(ref.values[:, :, -1] == 0)
    # level 0 is the nodal interpolant of the initial condition
    xs = np.linspace(0, 1, 7)
    X, Y = np.meshgrid(xs, xs)
    np.testing.assert_allclose(ref.values[0], X * (1 - X) * Y * (1 - Y),
                               atol=1e-14)


def test_at_time_interpolates_linearly():
    _, ref = _small_ref()
    dt = ref.dt_ref
    np.testing.assert_allclose(ref.at_time(3 * dt), ref.values[3])
    blend = 0.25 * ref.values[3] + 0.75 * ref.values[4]
    np.testing.assert_allclose(ref.at_time(3.75 * dt), blend, atol=1e-14)
    with pytest.raises(ValueError):
        ref.at_time(1.5)


def _smallest_members(n):
    """Smallest row-major index in each orbit of an n x n nodal grid under
    J, S and JS, in increasing order."""
    return sorted({min(r * n + c, (n - 1 - r) * n + n - 1 - c, c * n + r,
                       (n - 1 - c) * n + n - 1 - r)
                   for r in range(n) for c in range(n)})


def test_header_layout(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    raw = path.read_bytes()
    magic, ver, nx, ny, Nt, group, K = struct.unpack_from("<4s6I", raw)
    assert magic == MAGIC == b"WBEN"
    assert ver == VERSION == 4
    assert (nx, ny, Nt) == (6, 6, 12)
    # the polynomial keeps J, S and JS, which fold the 49 nodes into 16 orbits
    first = _smallest_members(7)
    assert (group, K) == (7, 16) and len(first) == 16
    L1, L2, c, T, dt = struct.unpack_from("<5d", raw, 28)
    assert (L1, L2, c, T) == (1.0, 1.0, 1.0, 1.0)
    assert dt == pytest.approx(1.0 / 12)
    ident = json.dumps(["polynomial", {}]).encode()
    assert raw[68:80] == hashlib.sha256(ident).digest()[:12]
    assert len(raw) == 80 + 8 * 13 * 16 + 8
    # values are little-endian f64, time-major, one per orbit in the order
    # of the orbits' smallest nodes
    vals = np.frombuffer(raw, dtype="<f8", count=13 * 16, offset=80)
    np.testing.assert_array_equal(vals.reshape(13, 16),
                                  ref.values.reshape(13, 49)[:, first])
    # the trailer is sha256(header || sha256(level_0) || ... )[:8]
    level = 8 * 16
    leaves = b"".join(hashlib.sha256(raw[s:s + level]).digest()
                      for s in range(80, len(raw) - 8, level))
    assert len(leaves) == 13 * 32
    assert raw[-8:] == hashlib.sha256(raw[:80] + leaves).digest()[:8]


def test_roundtrip(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    back = load_reference(path, prob)
    np.testing.assert_array_equal(np.asarray(back.values), ref.values)
    assert back.dt_ref == ref.dt_ref
    assert back.grid_nx == 6


def test_corruption_detected(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    raw = bytearray(path.read_bytes())
    raw[200] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="checksum"):
        load_reference(path, prob)


def _written(tmp_path):
    """A 6x6 reference written to disk, and its raw bytes."""
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    return prob, path, bytearray(path.read_bytes())


def test_swapped_levels_detected(tmp_path):
    prob, path, raw = _written(tmp_path)
    level = 8 * 16
    a = slice(80 + level, 80 + 2 * level)
    b = slice(80 + 2 * level, 80 + 3 * level)
    assert raw[a] != raw[b]
    raw[a], raw[b] = raw[b], raw[a]
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="checksum"):
        load_reference(path, prob)


def test_stored_dt_change_detected(tmp_path):
    prob, path, raw = _written(tmp_path)
    raw[60] ^= 0x01             # lowest byte of dt, the header's last double
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="checksum"):
        load_reference(path, prob)


def test_last_level_change_detected(tmp_path):
    prob, path, raw = _written(tmp_path)
    raw[-8 - 8] ^= 0xFF         # the centre node of level Nt, the last orbit
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="checksum"):
        load_reference(path, prob)


def test_truncation_detected(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CacheError):
        load_reference(path, prob)


def test_empty_file_detected(tmp_path):
    prob = WaveProblem(ic="polynomial")
    path = tmp_path / "ref.wben"
    path.write_bytes(b"")
    with pytest.raises(CacheError, match="truncated"):
        load_reference(path, prob)


def test_empty_cache_file_regenerated(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / cache_filename(prob, 6, 6, 12)
    path.write_bytes(b"")
    again = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(again.values),
                                  np.asarray(ref.values))
    assert load_reference(path, prob).Nt_ref == 12


def test_bad_magic_detected(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="magic"):
        load_reference(path, prob)


def test_old_version_rejected_and_regenerated(tmp_path):
    prob = WaveProblem(ic="polynomial")
    ref = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.wben"))
    good = path.read_bytes()
    raw = bytearray(good)
    struct.pack_into("<I", raw, 4, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="version"):
        load_reference(path, prob)
    again = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(again.values),
                                  np.asarray(ref.values))
    assert path.read_bytes() == good
    assert struct.unpack_from("<I", good, 4) == (VERSION,)


def test_version_2_file_rejected_and_regenerated(tmp_path):
    prob = WaveProblem(ic="polynomial")
    ref = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.wben"))
    good = path.read_bytes()
    # the same values in a valid version 2 file: a BLAKE2b trailer over
    # every preceding byte
    body = bytearray(good[:-8])
    struct.pack_into("<I", body, 4, 2)
    path.write_bytes(bytes(body) + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(CacheError, match="unsupported format version 2"):
        load_reference(path, prob)
    again = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(again.values),
                                  np.asarray(ref.values))
    assert path.read_bytes() == good


def test_regeneration_is_logged(tmp_path, caplog):
    prob = WaveProblem(ic="polynomial")
    generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.wben"))
    raw = bytearray(path.read_bytes())
    raw[200] ^= 0xFF
    path.write_bytes(bytes(raw))
    with caplog.at_level(logging.WARNING, logger="wavebench"):
        generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    [record] = caplog.records
    assert record.name == "wavebench" and record.levelno == logging.WARNING
    assert path.name in record.getMessage()
    assert "checksum mismatch" in record.getMessage()
    # a cache hit logs nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wavebench"):
        generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    assert caplog.records == []



@pytest.mark.parametrize("cached", [True, False])
def test_build_logs_progress_with_eta(tmp_path, caplog, cached):
    prob = WaveProblem(ic="polynomial")
    with caplog.at_level(logging.INFO, logger="wavebench"):
        generate_reference(prob, 6, 6, 1.0 / 20,
                           cache_dir=tmp_path if cached else None)
    assert {(r.name, r.levelno) for r in caplog.records} == {
        ("wavebench", logging.INFO)}
    # a line every tenth of the 20 levels, the last with nothing left
    got = [re.fullmatch(r"reference 6x6: level (\d+) of 20, "
                        r"[0-9.]+ s, ETA ([0-9.]+) s", m).groups()
           for m in caplog.messages]
    assert [int(k) for k, _ in got] == list(range(2, 21, 2))
    assert got[-1][1] == "0.0"

def test_write_leaves_other_temp_files_alone(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    other = tmp_path / "ref.wben.tmp"
    other.write_bytes(b"another writer's bytes")
    write_reference(ref, path)
    assert other.read_bytes() == b"another writer's bytes"
    np.testing.assert_array_equal(np.asarray(load_reference(path, prob).values),
                                  ref.values)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.wben",
                                                          "ref.wben.tmp"]


def test_failed_write_removes_its_temp_file(tmp_path):
    # after 10 levels the writer holds as many checks in flight as it may
    prob, ref = _small_ref()
    threads = set(threading.enumerate())

    def slices(levels):
        yield from ref.values[:levels]
        raise RuntimeError("solver failed")

    for levels in (1, 10):
        with pytest.raises(RuntimeError, match="solver failed"):
            _stream_write(tmp_path / "ref.wben", 6, 6, 12, prob, ref.dt_ref,
                          slices(levels))
        assert list(tmp_path.iterdir()) == []
        assert set(threading.enumerate()) == threads


_LEVEL = 8 * 16         # bytes of one level of the 6 x 6 reference: 16 orbits


@pytest.mark.parametrize("offset, at, match", [
    (80 + 2 * _LEVEL, 0, "level at byte 336 reads back changed"),
    (0, 60, "checksum mismatch"),           # dt, the header's last double
    (80 + 13 * _LEVEL, 7, "checksum mismatch"),         # the trailer
], ids=["level", "dt", "trailer"])
def test_write_that_reads_back_changed_is_not_published(tmp_path, monkeypatch,
                                                         offset, at, match):
    # the writer checks the bytes it reads back from its temporary file,
    # and maps nothing before every check has passed
    prob, ref = _small_ref()
    pread = os.pread

    def flipped(fd, size, off):
        data = pread(fd, size, off)
        if off == offset:
            data = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
        return data

    def no_map(*args, **kwargs):
        raise AssertionError("mapped before the checks passed")
    monkeypatch.setattr(reference.os, "pread", flipped)
    monkeypatch.setattr(reference.np, "memmap", no_map)
    with pytest.raises(CacheError, match=match):
        write_reference(ref, tmp_path / "ref.wben")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("call, error, match", [
    ("write", OSError, "short write, 79 of 80 bytes"),       # the header
    ("pread", CacheError, "short read, 127 of 128 bytes at byte 80"),
], ids=["write", "pread"])
def test_short_write_or_read_is_an_error(tmp_path, monkeypatch, call, error,
                                         match):
    prob, ref = _small_ref()
    real = getattr(os, call)
    if call == "write":
        short = lambda fd, buf: real(fd, bytes(buf)[:-1])     # noqa: E731
    else:
        short = lambda fd, size, off: real(fd, size, off)[:-1]  # noqa: E731
    monkeypatch.setattr(reference.os, call, short)
    with pytest.raises(error, match=match):
        write_reference(ref, tmp_path / "ref.wben")
    assert list(tmp_path.iterdir()) == []


def test_writer_holds_at_most_its_bound_of_levels(tmp_path, monkeypatch):
    # the worker's reads wait until the writer has handed over
    # _IN_FLIGHT - 1 levels; the writer then waits on the oldest check
    prob, ref = _small_ref()
    bound = reference._IN_FLIGHT
    assert len(ref.values) > bound + 2
    gate = threading.Event()
    pread = os.pread

    def gated(fd, size, off):
        gate.wait(10)
        return pread(fd, size, off)
    monkeypatch.setattr(reference.os, "pread", gated)
    levels, live = [], []

    def slices():
        for k, level in enumerate(ref.values):
            live.append(sum(r() is not None for r in levels))
            if k == bound - 1:
                gate.set()
            level = level.copy()
            levels.append(weakref.ref(level))
            yield level

    built = _stream_write(tmp_path / "ref.wben", 6, 6, 12, prob, ref.dt_ref,
                          slices())
    assert gate.is_set()
    assert bound - 1 <= max(live) <= bound
    np.testing.assert_array_equal(np.asarray(built.values), ref.values)
    assert built.load_s > 0


# Verifying a 64 MiB file in a fresh process: the values are written from
# one broadcast level, so the writer stays small, and `load_reference` must
# not leave the file resident (reading it through a memory map would).
_RSS_SCRIPT = """
import resource, sys
import numpy as np
from wavebench.problem import WaveProblem
from wavebench.reference import ReferenceSolution, load_reference, write_reference

n, Nt = 255, 128
prob = WaveProblem()
level = np.arange((n + 1) ** 2, dtype=float).reshape(n + 1, n + 1)
values = np.broadcast_to(level, (Nt + 1, n + 1, n + 1))
write_reference(ReferenceSolution(prob, n, n, 1.0 / Nt, Nt, values), sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ref = load_reference(sys.argv[1], prob)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert ref.values.shape == values.shape and ref.values[Nt, 3, 4] == level[3, 4]
print(after - before)
"""


def test_verified_load_keeps_file_out_of_memory(tmp_path):
    path = tmp_path / "ref.wben"
    env = dict(os.environ,
               PYTHONPATH=str(Path(reference.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, str(path)],
                         env=env, capture_output=True, text=True, check=True)
    assert path.stat().st_size >= 64 << 20
    grown_kb = int(out.stdout)          # ru_maxrss is in KiB on Linux
    assert grown_kb < 16 << 10


def test_nothing_mapped_before_checksum(tmp_path, monkeypatch):
    prob, path, raw = _written(tmp_path)
    raw[200] ^= 0xFF
    path.write_bytes(bytes(raw))

    def no_map(*args, **kwargs):
        raise AssertionError("mapped before the checksum passed")
    monkeypatch.setattr(reference.np, "memmap", no_map)
    with pytest.raises(CacheError, match="checksum"):
        load_reference(path, prob)


def test_hash_pool_sized_by_usable_cpus(tmp_path, monkeypatch):
    prob, path, _ = _written(tmp_path)
    workers = []

    def pool(max_workers):
        workers.append(max_workers)
        return ThreadPoolExecutor(max_workers)
    monkeypatch.setattr(reference, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    load_reference(path, prob)
    assert workers == [1]


def test_values_come_from_the_verified_file(tmp_path, monkeypatch):
    prob, ref = _small_ref()
    path, other = tmp_path / "ref.wben", tmp_path / "other.wben"
    write_reference(ref, path)
    write_reference(ReferenceSolution(prob, 6, 6, ref.dt_ref, 12,
                                      2.0 * ref.values), other)
    other_bytes = other.read_bytes()
    trailer = reference._trailer

    def replaced_after_hashing(header, leaves):
        digest = trailer(header, leaves)
        os.replace(other, path)         # a concurrent writer's rename
        return digest
    monkeypatch.setattr(reference, "_trailer", replaced_after_hashing)
    back = load_reference(path, prob)
    assert path.read_bytes() == other_bytes
    np.testing.assert_array_equal(np.asarray(back.values), ref.values)


@pytest.mark.parametrize("corrupt", [False, True])
def test_cache_file_removed_during_load_is_rebuilt(tmp_path, monkeypatch,
                                                   corrupt):
    prob, ref = _small_ref()
    generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.wben"))
    good = path.read_bytes()
    if corrupt:
        raw = bytearray(good)
        raw[200] ^= 0xFF
        path.write_bytes(bytes(raw))
    load = reference.load_reference
    raced = []

    def racing_load(p, problem):
        # another process prunes the file: between the existence check and
        # the load, or between a failed verify and the unlink
        monkeypatch.setattr(reference, "load_reference", load)
        raced.append(p)
        if not corrupt:
            os.unlink(p)
        try:
            return load(p, problem)
        finally:
            if corrupt:
                os.unlink(p)
    monkeypatch.setattr(reference, "load_reference", racing_load)
    again = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    assert raced == [path]
    assert again.cache == ("regenerated" if corrupt else "built")
    np.testing.assert_array_equal(np.asarray(again.values), ref.values)
    assert path.read_bytes() == good


def test_file_pruned_right_after_publishing_keeps_the_build(tmp_path,
                                                              monkeypatch):
    # another process prunes the file as soon as the writer has renamed it
    # onto the cache path: the build returns the mapping it verified before
    expected = _small_ref(nx=8, dt=1.0 / 16)[1].values
    replace = os.replace

    def replace_then_prune(src, dst):
        replace(src, dst)
        os.unlink(dst)
    monkeypatch.setattr(reference.os, "replace", replace_then_prune)
    ref = generate_reference(WaveProblem(), 8, 8, 1.0 / 16, tmp_path)
    assert ref.cache == "built"
    assert ref.values.shape == (17, 9, 9)
    np.testing.assert_array_equal(np.asarray(ref.values), expected)
    assert list(tmp_path.iterdir()) == []


def test_cache_file_of_another_grid_is_regenerated(tmp_path, caplog):
    # a valid 6 x 6 file under the name of an 8 x 8 request
    prob, small = _small_ref()
    path = tmp_path / cache_filename(prob, 8, 8, 12)
    write_reference(small, path)
    with caplog.at_level(logging.WARNING, logger="wavebench"):
        ref = generate_reference(prob, 8, 8, 1.0 / 12, cache_dir=tmp_path)
    assert ref.cache == "regenerated"
    assert ref.values.shape == (13, 9, 9)
    np.testing.assert_array_equal(np.asarray(ref.values),
                                  _small_ref(nx=8)[1].values)
    [record] = caplog.records
    assert "stored grid (6, 6, 12) differs from requested (8, 8, 12)" in (
        record.getMessage())
    assert load_reference(path, prob).grid_nx == 8


@pytest.mark.parametrize("ic", ["polynomial", "mollifier"])
def test_build_leaves_no_cyclic_garbage(tmp_path, ic):
    # objects in a reference cycle wait for a full collection, which comes
    # rarely in a process that keeps many objects, so each build's cycles
    # would raise its peak memory
    gc.collect()
    gc.disable()
    try:
        generate_reference(WaveProblem(ic=ic), 8, 8, 1.0 / 16, tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cache_events(tmp_path):
    prob, ref = _small_ref()
    assert (ref.cache, ref.load_s) == ("memory", None)
    built = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    hit = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    assert (built.cache, hit.cache) == ("built", "hit")
    assert built.load_s > 0 and hit.load_s > 0


def test_metadata_mismatch_detected(tmp_path):
    prob, ref = _small_ref()
    path = tmp_path / "ref.wben"
    write_reference(ref, path)
    other = WaveProblem(ic="polynomial", c=2.0)
    with pytest.raises(CacheError, match="c="):
        load_reference(path, other)


def test_cache_hit_and_regeneration(tmp_path):
    prob = WaveProblem(ic="polynomial")
    a = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.wben"))
    assert len(files) == 1
    first_bytes = files[0].read_bytes()
    # second call must hit the cache and agree exactly
    b = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(a.values), np.asarray(b.values))
    assert files[0].read_bytes() == first_bytes
    # a corrupted file is regenerated (and a warning logged)
    raw = bytearray(first_bytes)
    raw[-1] ^= 0xFF
    files[0].write_bytes(bytes(raw))
    c = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(a.values), np.asarray(c.values))
    assert files[0].read_bytes() == first_bytes


def test_cache_filename_fingerprint():
    a = WaveProblem(ic="polynomial")
    b = WaveProblem(ic="polynomial", c=2.0)
    name_a = cache_filename(a, 100, 100, 200)
    name_b = cache_filename(b, 100, 100, 200)
    assert name_a != name_b
    assert name_a.startswith("ref_polynomial_100x100_nt200_")
    assert name_a == cache_filename(WaveProblem(ic="polynomial"), 100, 100, 200)


def test_cache_filename_tracks_format_version(monkeypatch):
    prob = WaveProblem(ic="polynomial")
    name = cache_filename(prob, 100, 100, 200)
    monkeypatch.setattr(reference, "VERSION", VERSION + 1)
    other = cache_filename(prob, 100, 100, 200)
    assert other != name
    assert other.startswith("ref_polynomial_100x100_nt200_")


def test_cache_filename_tracks_solver(monkeypatch):
    prob = WaveProblem(ic="polynomial")
    reference._solver_fingerprint()
    # the sources are read once per process, not once per name
    monkeypatch.setattr(reference.Path, "read_bytes", None)
    name = cache_filename(prob, 100, 100, 200)
    monkeypatch.setattr(reference, "_solver_fingerprint", lambda: "other")
    other = cache_filename(prob, 100, 100, 200)
    assert other != name
    assert other.startswith("ref_polynomial_100x100_nt200_")


def test_reference_from_other_solver_is_not_loaded(tmp_path, monkeypatch):
    prob, ref = _small_ref()
    fingerprint = reference._solver_fingerprint
    # a valid file under another solver's name, with that solver's values
    monkeypatch.setattr(reference, "_solver_fingerprint", lambda: "older")
    old_path = tmp_path / cache_filename(prob, 6, 6, 12)
    write_reference(ReferenceSolution(prob, 6, 6, ref.dt_ref, 12,
                                      2.0 * np.asarray(ref.values)), old_path)
    old_bytes, old_mtime = old_path.read_bytes(), old_path.stat().st_mtime_ns
    monkeypatch.setattr(reference, "_solver_fingerprint", fingerprint)
    again = generate_reference(prob, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    np.testing.assert_array_equal(np.asarray(again.values),
                                  np.asarray(ref.values))
    assert sorted(tmp_path.iterdir()) == sorted(
        [old_path, tmp_path / cache_filename(prob, 6, 6, 12)])
    assert old_path.read_bytes() == old_bytes
    assert old_path.stat().st_mtime_ns == old_mtime


def test_custom_ic_without_cache():
    # the in-memory route reads only L1, L2, c, T and initial_condition()
    fn = lambda x, y: x * (1 - x) * y * (1 - y)     # noqa: E731
    custom = SimpleNamespace(L1=1.0, L2=1.0, c=1.0, T=1.0,
                             initial_condition=lambda: fn)
    ref = generate_reference(custom, 6, 6, 1.0 / 12, cache_dir=None)
    _, poly = _small_ref()
    np.testing.assert_array_equal(ref.values, poly.values)


def test_non_finite_initial_values_fail_before_the_build(tmp_path):
    # a problem-like object may stand in for a WaveProblem; its NaN start is
    # rejected before the first level, and the writer leaves no file behind
    nan_ic = SimpleNamespace(ic="custom", ic_params={}, L1=1.0, L2=1.0,
                             c=1.0, T=1.0,
                             initial_condition=lambda: lambda x, y: np.nan * x)
    with pytest.raises(ValueError, match="non-finite initial values"):
        generate_reference(nan_ic, 6, 6, 1.0 / 12, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_generation_deterministic(tmp_path):
    prob = WaveProblem(ic="mollifier")
    a = generate_reference(prob, 8, 8, 1.0 / 16, cache_dir=tmp_path / "a")
    b = generate_reference(prob, 8, 8, 1.0 / 16, cache_dir=tmp_path / "b")
    fa = next((tmp_path / "a").glob("*.wben"))
    fb = next((tmp_path / "b").glob("*.wben"))
    assert fa.read_bytes() == fb.read_bytes()


def test_dt_validation():
    prob = WaveProblem(ic="polynomial")
    with pytest.raises(ValueError):
        generate_reference(prob, 6, 6, -0.1)
    with pytest.raises(ValueError):
        generate_reference(prob, 6, 6, 0.3)      # does not divide T = 1
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            generate_reference(prob, 6, 6, dt)


# ---------------------------------------------------------------------------
# one stored value per orbit of the nodal grid

def _stepped(problem, nx, ny, dt):
    """Nodal grids of `problem`'s u0 and of every later level `cn_steps`
    yields on the orbits of the group `_symmetry_group` finds for it."""
    mesh = build_structured_mesh(problem.L1, problem.L2, nx, ny)
    sys = FemSystem.build(mesh, problem.c)
    u0 = interior_values(problem.initial_condition(), mesh)
    group = _symmetry_group(mesh, u0)
    steps = cn_steps(sys, u0, dt, group=group)
    levels = np.array([next(steps) for _ in range(round(problem.T / dt) + 1)])
    steps.close()
    grids = levels[:, _node_orbits(nx, ny, group)[0]].reshape(-1, ny + 1,
                                                              nx + 1)
    grids[0] = 0.0
    grids[0, 1:-1, 1:-1] = u0.reshape(ny - 1, nx - 1)
    return grids


def _orbit_values_of(ref):
    """Each node's value at its orbit's smallest node, per level."""
    index = ref.node_orbits
    _, smallest = np.unique(index, return_index=True)
    full = ref.values.reshape(len(ref.values), -1)
    return full[:, smallest[index]].reshape(ref.values.shape)


# orbits of the nodal grid: J, S and JS fold (n+1)^2 nodes into
# ((n+1)^2 + [n even] + 2 (n+1)) / 4 orbits, JS alone into
# ((n+1)^2 + n + 1) / 2, and J alone on the 24 x 16 grid into (425 + 1) / 2
@pytest.mark.parametrize("ic, params, nx, ny, K", [
    ("polynomial", {}, 16, 16, 81), ("polynomial", {}, 100, 100, 2601),
    ("single_mode", {}, 16, 16, 81), ("single_mode", {}, 100, 100, 2601),
    ("mollifier", {}, 16, 16, 153), ("mollifier", {}, 100, 100, 5151),
    ("polynomial", {}, 24, 16, 213), ("single_mode", {}, 24, 16, 213),
    ("mollifier", {"x0": 0.3, "y0": 0.6}, 100, 100, 101 * 101),
])
def test_reference_stores_one_value_per_orbit(tmp_path, ic, params, nx, ny,
                                              K):
    problem = WaveProblem(ic=ic, ic_params=params)
    dt = 1.0 / 40
    expect = _stepped(problem, nx, ny, dt)
    eps = np.finfo(float).eps * np.max(np.abs(expect[0]))
    built = generate_reference(problem, nx, ny, dt, tmp_path)
    path = tmp_path / cache_filename(problem, nx, ny, 40)
    # header, K values per level and the trailer, nothing else
    assert path.stat().st_size == 80 + 8 * K * 41 + 8
    for ref in (generate_reference(problem, nx, ny, dt), built,
                load_reference(path, problem)):
        assert ref.levels.shape == (41, K)
        got = ref.values
        assert got.shape == expect.shape
        # every level after the start is copied from its orbits exactly
        np.testing.assert_array_equal(got[1:], expect[1:])
        # the start keeps u0's value at each orbit's smallest node, which
        # moves the other members by their round-off asymmetry only
        np.testing.assert_array_equal(got, _orbit_values_of(ref))
        np.testing.assert_allclose(got[0], expect[0], rtol=0, atol=16 * eps)
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(ref.at_time(t), _at_time(
                got, t, dt, 1.0))


def test_no_symmetry_kept_stores_every_node():
    problem = WaveProblem(ic="mollifier", ic_params={"x0": 0.3, "y0": 0.6})
    ref = generate_reference(problem, 16, 16, 1.0 / 16)
    assert ref.group == 0
    np.testing.assert_array_equal(ref.levels, _stepped(
        problem, 16, 16, 1.0 / 16).reshape(17, -1))


def test_non_zero_boundary_round_trips(tmp_path):
    # an array given to the constructor is stored under the trivial group,
    # boundary and all
    prob = WaveProblem()
    values = np.random.default_rng(0).random((5, 4, 7))
    ref = ReferenceSolution(prob, 6, 3, 0.25, 4, values)
    assert (ref.group, ref.levels.shape) == (0, (5, 28))
    write_reference(ref, tmp_path / "ref.wben")
    back = load_reference(tmp_path / "ref.wben", prob)
    assert (back.group, back.grid_nx, back.grid_ny) == (0, 6, 3)
    np.testing.assert_array_equal(back.values, values)
    np.testing.assert_array_equal(back.at_time(0.375),
                                  0.5 * (values[1] + values[2]))


def test_reference_holds_no_array_but_its_levels(tmp_path):
    # the node-to-orbit index is built when the values are read and not
    # kept, so a process holding many references holds no per-node arrays
    prob = WaveProblem(ic="mollifier")
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    built = generate_reference(prob, 8, 8, 1.0 / 16, tmp_path)
    loaded = generate_reference(prob, 8, 8, 1.0 / 16, tmp_path)
    memory = generate_reference(prob, 8, 8, 1.0 / 16)
    assert (built.cache, loaded.cache) == ("built", "hit")
    for ref in (built, loaded, memory):
        for read in (None, lambda r: r.values, lambda r: r.at_time(0.5),
                     lambda r: sample_reference(r, mesh, 4)):
            if read is not None:
                read(ref)
            arrays = [v for v in vars(ref).values()
                      if isinstance(v, np.ndarray)]
            assert len(arrays) == 1 and arrays[0] is ref.levels
            assert ref.levels.shape == (17, 45)     # 81 nodes, JS kept
    assert isinstance(built.levels, np.memmap)
    assert isinstance(loaded.levels, np.memmap)


@pytest.mark.parametrize("stored, requested", [
    ({"ic": "polynomial"}, {"ic": "mollifier"}),
    ({"ic": "mollifier"}, {"ic": "polynomial"}),
    ({"ic": "mollifier"}, {"ic": "mollifier", "ic_params": {"x0": 0.4}}),
])
def test_file_of_another_initial_condition_is_regenerated(tmp_path, caplog,
                                                          stored, requested):
    stored, requested = WaveProblem(**stored), WaveProblem(**requested)
    path = tmp_path / cache_filename(requested, 6, 6, 12)
    write_reference(generate_reference(stored, 6, 6, 1.0 / 12), path)
    with pytest.raises(CacheError, match="stored initial condition differs"):
        load_reference(path, requested)
    with caplog.at_level(logging.WARNING, logger="wavebench"):
        again = generate_reference(requested, 6, 6, 1.0 / 12, tmp_path)
    assert (again.cache, again.problem) == ("regenerated", requested)
    np.testing.assert_array_equal(again.values, generate_reference(
        requested, 6, 6, 1.0 / 12).values)
    [record] = caplog.records
    assert f"requested {requested.ic}" in record.getMessage()
    assert load_reference(path, requested).cache == "hit"
