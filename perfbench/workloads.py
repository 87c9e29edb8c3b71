"""The three workloads: fixtures, ops, output checks and layer probes.

Every workload drives wavebench through its public functions. One op is
what a user or researcher repeats; `check` decides after each op, outside
the timed region, whether its outputs are right, so a fast wrong answer
counts as a failed op.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from wavebench import cli, reference, runner
from wavebench.dof_matching import match_cn_to_dof
from wavebench.problem import WaveProblem
from wavebench.runner import ExperimentConfig

from oracle import reference_floor

ICS = ("polynomial", "mollifier")

# Values recorded on the seed commit, with the relative tolerance a check
# allows. Keyed by reference grid size. The 200x200 surrogate error depends
# on the LHS seed: over 30 seeds it ranged -2%..+5% (polynomial) and
# -3%..+5% (mollifier) around the medians below, and one mollifier seed
# gave +9%; 20% stays clear of that spread and still fails a fit that is
# wrong. The matched CN error does not move while n stays 12.
EXPECTED = {
    200: {"polynomial": {"ep": (7.98e-5, 0.2), "cn": (4.718074e-2, 1e-4)},
          "mollifier": {"ep": (5.61e-3, 0.2), "cn": (7.140880e-1, 1e-4)}},
    100: {"polynomial": {"ep": (2.410348e-4, 1e-4), "cn": (4.715158e-2, 1e-4)},
          "mollifier": {"ep": (1.542999e-2, 1e-4), "cn": (7.139521e-1, 1e-4)}},
}
# space-time relative error of the polynomial reference vs its exact series
EXPECTED_FLOOR = {200: (6.581692652e-5, 1e-4), 100: (2.409427629e-4, 1e-4)}


def _off(value: float, expected: tuple[float, float]) -> bool:
    center, rtol = expected
    return not abs(value / center - 1.0) <= rtol


def check_report(doc: dict, ic: str, nx: int) -> list[str]:
    """Problems with one benchmark report (`BenchmarkResult.to_dict()`)."""
    problems = []
    want = match_cn_to_dof(doc["edof"], doc["config"]["T"])
    got = (doc["match"]["n"], doc["match"]["dof_cn"])
    if got != (want.n, want.dof_cn):
        problems.append(f"match {got} != {(want.n, want.dof_cn)}")
    ep, cn = doc["bepgp"]["st_rel"], doc["cn_fem"]["st_rel"]
    if not (math.isfinite(ep) and math.isfinite(cn)):
        return problems + [f"non-finite errors ep={ep} cn={cn}"]
    if not ep < cn:
        problems.append(f"surrogate error {ep} not below CN error {cn}")
    for key, val in (("ep", ep), ("cn", cn)):
        if _off(val, EXPECTED[nx][ic][key]):
            problems.append(f"{ic} {key}_st_rel {val:.6e} outside "
                            f"{EXPECTED[nx][ic][key]}")
    return problems


def check_floor(floor: float, nx: int) -> list[str]:
    if _off(floor, EXPECTED_FLOOR[nx]):
        return [f"ref_floor_rel {floor:.9e} outside {EXPECTED_FLOOR[nx]}"]
    return []


class Workload:
    """Base: subclasses define fixture, op, check and probe."""

    name = ""
    FIXTURE_REPEATS = 3         # set-up is timed this often; median reported

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work / self.name
        self.accuracy = {}          # e2e accuracy samples, name -> [values]

    def prepare(self) -> float:
        """One-off work a fresh checkout needs; not part of set-up time."""
        return 0.0

    def fixture(self) -> None:
        """Inputs built before the first timed op (timed as set-up)."""

    def before_op(self, i: int) -> None:
        """Untimed preparation of op i."""

    def op(self, i: int):
        """The timed work of op i; returns what `check` needs."""
        raise NotImplementedError

    def collect(self, i: int, out):
        """Untimed, right after op i: gather outputs that later ops replace."""
        return out

    def check(self, i: int, out) -> list[str]:
        """Problems with op i's outputs; runs after the last op."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks after the last op; fills `accuracy`."""
        return []

    def probe(self) -> None:
        """Traced runs only: calls into layers the ops do not reach."""

    def cleanup(self) -> None:
        pass

    def _add(self, key: str, value: float) -> None:
        self.accuracy.setdefault(key, []).append(value)

    def _add_report(self, doc: dict, ic: str) -> None:
        self._add(f"ep_st_rel.{ic}", doc["bepgp"]["st_rel"])
        self._add(f"cn_st_rel.{ic}", doc["cn_fem"]["st_rel"])


class ReportWarm(Workload):
    """`wavebench benchmark --ic polynomial` at the desk config, warm cache."""

    name = "report-warm"
    NX = 200

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = ExperimentConfig(ic="polynomial", seed=seed,
                                       output_dir=str(self.work))
        self.ref = None

    def _cache_path(self) -> Path:
        c = self.config
        return (self.work / "cache" / reference.cache_filename(
            c.problem(), c.ref_nx, c.ref_ny, int(round(c.T / c.dt_ref))))

    def prepare(self):
        if self._cache_path().exists():
            return 0.0
        t0 = time.perf_counter()
        runner.get_reference(self.config)
        return time.perf_counter() - t0

    def fixture(self):
        if not self._cache_path().is_file():
            raise FileNotFoundError(self._cache_path())

    def before_op(self, i):
        for ext in ("csv", "json"):
            (self.work / f"report_polynomial.{ext}").unlink(missing_ok=True)
        # Read the cache file once, untimed, so the op finds it in the page
        # cache: how fast a shared disk reads is not the program's speed.
        with open(self._cache_path(), "rb") as f:
            while f.read(1 << 24):
                pass

    def op(self, i):
        # keep the reference the command loaded, to score it afterwards
        get = runner.get_reference

        def capture(config, cache=True):
            self.ref = get(config, cache)
            return self.ref
        runner.get_reference = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = cli.main(["benchmark", "--ic", "polynomial",
                               "--seed", str(self.seed),
                               "--output", str(self.work)])
        finally:
            runner.get_reference = get
        return rc, out.getvalue()

    def collect(self, i, out):
        files = [(self.work / f"report_polynomial.{ext}").read_text()
                 for ext in ("csv", "json")]
        return (*out, *files)

    def check(self, i, out):
        rc, stdout, csv_text, json_text = out
        if rc != 0:
            return [f"exit code {rc}"]
        lines = stdout.splitlines()
        if len(lines) != 3 or csv_text.splitlines() != lines:
            return ["CSV on stdout differs from report_polynomial.csv"]
        doc = json.loads(json_text)
        self._add_report(doc, "polynomial")
        return check_report(doc, "polynomial", self.NX)

    def finish(self):
        floor = reference_floor(self.ref)
        self._add("ref_floor_rel", floor)
        return check_floor(floor, self.NX)

    def probe(self):
        c = self.config
        ref = reference.generate_reference(c.problem(), c.ref_nx, c.ref_ny,
                                           c.dt_ref, None)
        path = self.work / "probe.wben"
        reference.write_reference(ref, path)
        path.unlink()


class FitSweep(Workload):
    """Seed sweep of the full pipeline on in-memory references; no cache."""

    name = "fit-sweep"
    NX = 200
    FIXTURE_REPEATS = 1         # two 200x200 solves; repeats would dominate

    def fixture(self):
        self.refs = {ic: reference.generate_reference(
            WaveProblem(ic=ic), self.NX, self.NX, 1.0 / (2 * self.NX), None)
            for ic in ICS}

    def op(self, i):
        seed = int(np.random.default_rng([self.seed, i]).integers(2**31))
        config = ExperimentConfig(ic=ICS[i % 2], seed=seed,
                                  output_dir=str(self.work))
        return runner.run_benchmark(config, ref=self.refs[config.ic],
                                    write_outputs=False)

    def check(self, i, out):
        ic = ICS[i % 2]
        doc = out.to_dict()
        self._add_report(doc, ic)
        return check_report(doc, ic, self.NX)

    def finish(self):
        floor = reference_floor(self.refs["polynomial"])
        self._add("ref_floor_rel", floor)
        return check_floor(floor, self.NX)

    def probe(self):
        path = self.work / "probe.wben"
        self.work.mkdir(parents=True, exist_ok=True)
        reference.write_reference(self.refs["polynomial"], path)
        reference.load_reference(path, self.refs["polynomial"].problem)
        path.unlink()


class ReferenceCold(Workload):
    """Both ICs' references built into an empty cache (seed ignored)."""

    name = "reference-cold"
    NX = 100
    DT = 1.0 / 200

    def fixture(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.verified = {}      # ic -> (path, loaded reference) that passed

    def before_op(self, i):
        (self.work / f"op{i}").mkdir()

    def op(self, i):
        return {ic: reference.generate_reference(
            WaveProblem(ic=ic), self.NX, self.NX, self.DT, self.work / f"op{i}")
            for ic in ICS}

    def check(self, i, refs):
        problems = []
        Nt = int(round(1.0 / self.DT))
        for ic, ref in refs.items():
            problem = WaveProblem(ic=ic)
            path = self.work / f"op{i}" / reference.cache_filename(
                problem, self.NX, self.NX, Nt)
            if ic in self.verified:
                # The build is deterministic. A file byte-identical to one
                # that passed every check below passes them too, without
                # the 3 s pure-Python checksum of a second reload.
                good_path, good = self.verified[ic]
                if not filecmp.cmp(path, good_path, shallow=False):
                    problems.append(f"{ic}: file differs from {good_path}")
                elif not np.array_equal(ref.values, good.values):
                    problems.append(f"{ic}: returned values differ from file")
                continue
            try:
                loaded = reference.load_reference(path, problem)
            except (OSError, reference.CacheError) as exc:
                problems.append(f"{ic}: {exc}")
                continue
            v = loaded.values
            if v.shape != (Nt + 1, self.NX + 1, self.NX + 1):
                problems.append(f"{ic}: shape {v.shape}")
            elif any(np.any(edge != 0.0) for edge in
                     (v[:, 0, :], v[:, -1, :], v[:, :, 0], v[:, :, -1])):
                problems.append(f"{ic}: non-zero boundary values")
            elif not np.array_equal(v, ref.values):
                problems.append(f"{ic}: reloaded values differ")
            else:
                self.verified[ic] = (path, loaded)
        floor = reference_floor(refs["polynomial"])
        self._add("ref_floor_rel", floor)
        return problems + check_floor(floor, self.NX)

    def finish(self):
        """The matched pipeline (seed 0) on a fresh polynomial reference
        that passed its checks; once per run, as every op's reference is
        the same."""
        if "polynomial" not in self.verified:
            return ["no polynomial reference passed its checks"]
        config = ExperimentConfig(ic="polynomial", ref_nx=self.NX,
                                  ref_ny=self.NX, dt_ref=self.DT,
                                  output_dir=str(self.work))
        doc = runner.run_benchmark(config, ref=self.verified["polynomial"][1],
                                   write_outputs=False).to_dict()
        self._add_report(doc, "polynomial")
        return check_report(doc, "polynomial", self.NX)

    def probe(self):
        reference.generate_reference(WaveProblem(ic="polynomial"), self.NX,
                                     self.NX, self.DT, None)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ReportWarm, FitSweep, ReferenceCold)}
