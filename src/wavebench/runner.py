"""Benchmark orchestration: configs, the DoF-matched pipeline, reports.

A benchmark run fits the spectral surrogate, matches the FEM resolution to
its effective DoF, runs the matched Crank-Nicolson solve, and measures both
against a fine-grid reference. Results go to a CSV (one row per solver)
and a JSON document; snapshot grids can be exported for plotting.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, asdict, fields as dc_fields
from pathlib import Path

import numpy as np
import scipy

from . import fem, metrics, reference, spectral
from .dof_matching import MatchResult, match_cn_to_dof
from .mesh import build_structured_mesh
from .problem import WaveProblem, is_real_number

__all__ = ["ExperimentConfig", "BenchmarkResult", "run_benchmark",
           "emit_snapshots", "CSV_HEADER"]

CSV_HEADER = ["ic", "solver", "st_l2", "st_rel", "linf_l2", "linf_rel",
              "improvement", "edof_or_dof", "runtime_s"]


@dataclass
class ExperimentConfig:
    """Validated benchmark configuration; serializes to/from strict JSON."""

    L1: float = 1.0
    L2: float = 1.0
    c: float = 1.0
    T: float = 1.0
    ic: str = "polynomial"
    ic_params: dict = field(default_factory=dict)
    N: int = 40
    m: int = 5000
    seed: int = 0
    ref_nx: int = 200
    ref_ny: int = 200
    dt_ref: float | None = None          # default 1 / (2 ref_nx)
    Nt_eval: int = 200
    paper_update: bool = False
    snapshot_times: list = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    output_dir: str = "wavebench_out"

    def __post_init__(self):
        self.problem()                       # validates domain, c, T and ic
        for name in ("N", "m", "seed", "ref_nx", "ref_ny", "Nt_eval"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.paper_update, bool):
            raise ValueError(f"paper_update must be true or false, got "
                             f"{self.paper_update!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # a grid of one cell has no interior node: its reference is zero
        if self.ref_nx < 2 or self.ref_ny < 2:
            raise ValueError("ref_nx and ref_ny must be at least 2")
        if self.dt_ref is None:
            self.dt_ref = 1.0 / (2 * self.ref_nx)
        if not is_real_number(self.dt_ref):
            raise ValueError(f"dt_ref must be a number or null, got "
                             f"{self.dt_ref!r}")
        if self.dt_ref >= min(self.L1 / self.ref_nx, self.L2 / self.ref_ny):
            raise ValueError("dt_ref must be smaller than the reference grid "
                             "spacing")
        reference.step_count(self.T, self.dt_ref)
        times = self.snapshot_times
        if not (isinstance(times, list)
                and all(is_real_number(t) for t in times)):
            raise ValueError(f"snapshot_times must be a list of numbers, got {times!r}")
        bad = [t for t in times if not 0.0 <= t <= self.T]
        if bad:
            raise ValueError(f"snapshot_times {bad} outside [0, T={self.T}]")
        labels = [_time_label(t) for t in times]
        clash = [t for t, label in zip(times, labels) if labels.count(label) > 1]
        if clash:
            raise ValueError(f"snapshot_times {clash} share snapshot file names")
        if self.Nt_eval < 2 or self.Nt_eval % 2:
            raise ValueError("Nt_eval must be even and >= 2")
        if self.N < 2:
            raise ValueError("N must be at least 2: one mode's effective "
                             "DoF is below 1, which no CN mesh matches")
        if self.m < 1:
            raise ValueError("m must be positive")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, not {type(doc).__name__}")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def problem(self) -> WaveProblem:
        return WaveProblem(self.L1, self.L2, self.c, self.T, self.ic,
                           self.ic_params)

    def paper_scale(self) -> "ExperimentConfig":
        """Copy of this config at the full 400 x 400 reference resolution."""
        doc = asdict(self)
        doc.update(ref_nx=400, ref_ny=400, dt_ref=None)
        return ExperimentConfig(**doc)


@dataclass
class BenchmarkResult:
    """Everything a benchmark run produces, before serialization."""

    config: ExperimentConfig
    model: spectral.SpectralModel
    match: MatchResult
    trajectory: fem.FemTrajectory
    ep_report: metrics.ErrorReport
    cn_report: metrics.ErrorReport
    improvement_st: float
    improvement_linf: float
    fit_seconds: float
    solve_seconds: float
    reference: dict             # grid, Nt, cache event and load seconds
    timings: dict               # seconds of the stages besides fit and solve

    def csv_text(self) -> str:
        """One CSV row per solver, in the layout of the accuracy tables."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for name, rep, dof, seconds in (
                ("bepgp", self.ep_report, self.model.edof, self.fit_seconds),
                ("cn_fem", self.cn_report, self.match.dof_cn,
                 self.solve_seconds)):
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in (
                self.config.ic, name, rep.st_l2, rep.st_rel, rep.linf_l2,
                rep.linf_rel, self.improvement_st, dof, seconds)])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "lambda": self.model.lam,
            "edof": self.model.edof,
            "fit": {k: self.model.diagnostics[k] for k in
                    ("factor", "ev_ratio", "lambda_at_grid_edge",
                     "design_s", "factor_s", "gcv_s")},
            "match": asdict(self.match),
            "cn_stats": dict(self.trajectory.stats),
            "bepgp": self.ep_report.to_dict(),
            "cn_fem": self.cn_report.to_dict(),
            "improvement_st": self.improvement_st,
            "improvement_linf": self.improvement_linf,
            "fit_seconds": self.fit_seconds,
            "solve_seconds": self.solve_seconds,
            "reference": self.reference,
            "timings": self.timings,
            "environment": environment(),
        }


@functools.cache
def environment() -> dict:
    """Versions, numpy's and scipy's BLAS, CPUs and OPENBLAS_NUM_THREADS."""
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__, "cpu_count": reference._usable_cpus(),
           "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    for lib in (np, scipy):
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[f"{lib.__name__}_blas"] = {k: info.get(k) for k in ("name", "version")}
    return env


def _time_label(t) -> str:
    return f"t{t:.2f}"


def get_reference(config: ExperimentConfig, cache=True):
    """Build or load the fine-grid reference for this config."""
    cache_dir = Path(config.output_dir) / "cache" if cache else None
    return reference.generate_reference(config.problem(), config.ref_nx,
                                        config.ref_ny, config.dt_ref,
                                        cache_dir)


def fit_surrogate(config: ExperimentConfig) -> tuple[spectral.SpectralModel, float]:
    """Fit the spectral model (including the GCV search), timed."""
    t0 = time.perf_counter()
    model = spectral.fit_spectral_model(config.problem(), config.N, config.m,
                                        seed=config.seed)
    return model, time.perf_counter() - t0


def fit_and_solve(config: ExperimentConfig):
    """Fit, match the CN resolution to the fit's DoF and run that solve:
    (model, match, trajectory, fit_seconds, solve_seconds)."""
    model, fit_s = fit_surrogate(config)
    match = match_cn_to_dof(model.edof, config.T)
    problem = config.problem()
    mesh = build_structured_mesh(problem.L1, problem.L2, match.n, match.n)
    t0 = time.perf_counter()
    system = fem.FemSystem.build(mesh, problem.c)
    u0 = fem.interior_values(problem.initial_condition(), mesh)
    traj = fem.cn_solve(system, u0, match.dt, match.Nt, config.paper_update)
    return model, match, traj, fit_s, time.perf_counter() - t0


def run_benchmark(config: ExperimentConfig, ref=None,
                  write_outputs: bool = True) -> BenchmarkResult:
    """Full DoF-matched benchmark for one initial condition.

    Both solvers are scored from one read of the reference at the matched
    mesh's quadrature points. `timings` holds the seconds of the reference
    build or load (about zero when `ref` is given), that read, each error
    report and the whole run up to writing its outputs; with `fit_seconds`
    and `solve_seconds` the stages account for the total.
    """
    t0 = time.perf_counter()
    if ref is None:
        ref = get_reference(config)
    elif ref.problem != config.problem():
        raise ValueError(f"reference is for {ref.problem}, not {config.problem()}")
    t_ref = time.perf_counter()

    model, match, traj, fit_s, solve_s = fit_and_solve(config)
    t_solved = time.perf_counter()
    samples = metrics.sample_reference(ref, traj.mesh, config.Nt_eval)
    t_read = time.perf_counter()
    ep_field = lambda x, y, t: spectral.predict(model, x, y, t)
    ep_report = metrics.compute_error_report(ep_field, ref, traj.mesh,
                                             config.Nt_eval, samples)
    t_ep = time.perf_counter()
    cn_report = metrics.compute_error_report(traj.field(), ref, traj.mesh,
                                             config.Nt_eval, samples)
    t_cn = time.perf_counter()

    result = BenchmarkResult(
        config=config, model=model, match=match, trajectory=traj,
        ep_report=ep_report, cn_report=cn_report,
        improvement_st=cn_report.st_l2 / ep_report.st_l2,
        improvement_linf=cn_report.linf_l2 / ep_report.linf_l2,
        fit_seconds=fit_s, solve_seconds=solve_s,
        reference={"nx": ref.grid_nx, "ny": ref.grid_ny, "Nt": ref.Nt_ref,
                   "cache": ref.cache, "load_s": ref.load_s,
                   "solver": reference._solver_fingerprint()},
        timings={"reference_s": t_ref - t0,
                 "reference_read_s": t_read - t_solved,
                 "bepgp_report_s": t_ep - t_read,
                 "cn_fem_report_s": t_cn - t_ep,
                 "total_s": t_cn - t0})

    if write_outputs:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"report_{config.ic}.csv").write_text(result.csv_text())
        (out / f"report_{config.ic}.json").write_text(
            json.dumps(result.to_dict(), indent=2))
    return result


def emit_snapshots(config: ExperimentConfig, model, traj, ref) -> list:
    """Write plot-ready snapshot grids for each method and snapshot time.

    Per time: the reference on its native grid, the FEM solution
    interpolated to the reference grid, and the surrogate on a 50 x 50
    grid. Each snapshot is written as CSV (x, y, value). Boundary rows and
    columns are exact zeros.
    """
    out = Path(config.output_dir) / "snapshots"
    out.mkdir(parents=True, exist_ok=True)
    ref_X, ref_Y = np.meshgrid(*build_structured_mesh(
        config.L1, config.L2, ref.grid_nx, ref.grid_ny).axes())
    ep_X, ep_Y = np.meshgrid(*build_structured_mesh(
        config.L1, config.L2, 50, 50).axes())
    cn_field = traj.field()
    written = []
    for t in config.snapshot_times:
        for name, X, Y, values in (
                ("reference", ref_X, ref_Y, ref.at_time(t)),
                ("cn_fem", ref_X, ref_Y,
                 cn_field(ref_X.ravel(), ref_Y.ravel(), t)),
                ("bepgp", ep_X, ep_Y,
                 spectral.predict(model, ep_X.ravel(), ep_Y.ravel(), t))):
            grid = np.array(values, dtype=float).reshape(X.shape)
            grid[0, :] = 0.0
            grid[-1, :] = 0.0
            grid[:, 0] = 0.0
            grid[:, -1] = 0.0
            path = out / f"{config.ic}_{name}_{_time_label(t)}.csv"
            rows = np.column_stack([X.ravel(), Y.ravel(), grid.ravel()])
            np.savetxt(path, rows, fmt="%.12g", delimiter=",",
                       header="x,y,value", comments="")
            written.append(path)
    return written
