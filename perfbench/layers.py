"""Spans around wavebench's module boundaries, and the per-layer metrics.

Layers are the modules of `src/wavebench`: reference, fem, spectral,
dof_matching, metrics and runner/cli (mesh and problem cost milliseconds
and fall inside fem.assemble). Every span is recorded from outside by
wrapping the module attribute the program looks up at call time; the
program's source is not changed.
"""

from __future__ import annotations

import os
from pathlib import Path

from harness import Tracer, median_with_count, self_times, span_cost

# spans whose own time is orchestration rather than work of a layer;
# the coverage ratio is the share of an op spent outside them
ORCHESTRATORS = ("op", "cli.main", "runner.run_benchmark",
                 "reference.generate_reference")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "runner" if head in ("op", "cli") else head


def _cache_state(problem, ref_nx, ref_ny, dt_ref, cache_dir):
    """File identity of the cache entry generate_reference would use."""
    from wavebench import reference
    if cache_dir is None:
        return None
    Nt = int(round(problem.T / dt_ref))
    path = Path(cache_dir) / reference.cache_filename(problem, ref_nx, ref_ny, Nt)
    try:
        st = path.stat()
    except FileNotFoundError:
        return "absent"
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def instrument(tracer: Tracer) -> None:
    """Wrap the calls the workloads make into each layer."""
    from wavebench import cli, fem, metrics, reference, runner, spectral

    t = tracer
    t.patch(cli, "main", lambda f: t.timed("cli.main", f))
    t.patch(runner, "run_benchmark",
            lambda f: t.timed("runner.run_benchmark", f))
    t.patch(runner, "match_cn_to_dof", lambda f: t.timed(
        "dof_matching.match_cn_to_dof", f,
        lambda m, *a, **k: {"n": m.n, "dof_cn": m.dof_cn}))

    def generate(f):
        def wrapper(problem, ref_nx, ref_ny, dt_ref, cache_dir=None):
            before = _cache_state(problem, ref_nx, ref_ny, dt_ref, cache_dir)
            with t.span("reference.generate_reference") as s:
                out = f(problem, ref_nx, ref_ny, dt_ref, cache_dir)
            after = _cache_state(problem, ref_nx, ref_ny, dt_ref, cache_dir)
            s.attrs["cache"] = ("none" if before is None else
                                "hit" if before == after else "miss")
            return out
        return wrapper
    t.patch(reference, "generate_reference", generate)
    t.patch(reference, "load_reference", lambda f: t.timed(
        "reference.load_reference", f,
        lambda r, path, *a, **k: {"bytes": os.path.getsize(path)}))
    # the writer streams solver steps through its checksum, so its self
    # time (steps excluded) is the cost of writing the file
    t.patch(reference, "_stream_write", lambda f: t.timed("reference.write", f))

    def steps(f):
        def wrapper(sys_, u0, dt, stats=None, *args, **kwargs):
            stats = {} if stats is None else stats
            inner = f(sys_, u0, dt, stats, *args, **kwargs)
            k = 0
            try:
                while True:
                    with t.span("fem.step", index=k):
                        value = next(inner)
                    yield value
                    k += 1
            finally:
                inner.close()
                t.note("fem.cn_steps", unknowns=int(len(u0)), **stats)
        return wrapper
    t.patch(reference, "cn_steps", steps)
    t.patch(fem.FemSystem, "build", lambda f: t.timed(
        "fem.assemble", f, lambda s, *a, **k: {"unknowns": s.M.shape[0]}))
    t.patch(fem, "cn_solve", lambda f: t.timed("fem.cn_solve", f))
    t.patch(fem, "p1_interpolate", lambda f: t.timed(
        "fem.interpolate", f, lambda r, *a, **k: {"points": int(r.size)}))

    t.patch(spectral, "fit_spectral_model", lambda f: t.timed(
        "spectral.fit", f, lambda m, *a, **k: {"lambda": m.lam, "edof": m.edof}))
    t.patch(spectral, "lhs_sample", lambda f: t.timed("spectral.lhs_sample", f))
    t.patch(spectral, "build_design_matrix", lambda f: t.timed(
        "spectral.design_matrix", f,
        lambda d, *a, **k: {"rows": d.values.shape[0], "cols": d.values.shape[1]}))
    t.patch(spectral, "ridge_fit_svd", lambda f: t.timed("spectral.factor", f))
    t.patch(spectral, "select_lambda_gcv", lambda f: t.timed("spectral.gcv", f))
    t.patch(spectral, "predict", lambda f: t.timed(
        "spectral.predict", f, lambda r, *a, **k: {"points": int(r.size)}))
    t.patch(metrics, "compute_error_report",
            lambda f: t.timed("metrics.report", f))


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((src / "wavebench").glob("*.py")))


def _med(values) -> float:
    return median_with_count(values)[0]


def layer_metrics(tracer: Tracer, src: Path) -> dict:
    """Per-layer metrics from a traced run, as {name: (value, unit)}.

    A metric comes from the spans of timed ops where the ops reach that
    layer, and otherwise from the workload's set-up, check or probe calls
    (README.md lists which, per workload). Counts are per call or per op,
    so they repeat exactly between runs.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    timed_ops = sorted({s.op for s in spans if isinstance(s.op, int)})

    def pick(name, where=None):
        found = [i for i, s in enumerate(spans) if s.name == name
                 and (where is None or where(s))]
        if not found:
            raise LookupError(f"no {name} span recorded")
        return [i for i in found if isinstance(spans[i].op, int)] or found

    def dur(name, where=None):
        return [spans[i].seconds for i in pick(name, where)]

    def first(name, key):
        return spans[pick(name)[0]].attrs[key]

    def children(i):
        return [j for j, s in enumerate(spans) if s.parent == i]

    def layer_self(layer, keep):
        """Self time of `layer` per op, median over ops (or over the other
        groups if no op reaches the layer)."""
        groups = {}
        for i, s in enumerate(spans):
            if layer_of(s.name) == layer and keep(i):
                groups.setdefault(repr(s.op), []).append(selfs[i])
        timed = set(map(repr, timed_ops))
        keys = [g for g in groups if g in timed] or list(groups)
        if not keys:
            raise LookupError(f"no spans of layer {layer}")
        return _med(sum(groups[k]) for k in keys)

    m = {}
    loads = pick("reference.load_reference")
    mb = [spans[i].attrs["bytes"] / 1e6 for i in loads]
    m["reference.load_s"] = (_med(spans[i].seconds for i in loads), "s")
    m["reference.file_mb"] = (_med(mb), "MB")
    m["reference.verify_MBps"] = (
        _med(b / spans[i].seconds for b, i in zip(mb, loads)), "MB/s")
    m["reference.write_s"] = (_med(selfs[i] for i in pick("reference.write")), "s")
    m["reference.generate_s"] = (_med(dur(
        "reference.generate_reference", lambda s: s.attrs["cache"] == "none")), "s")
    for state, key in (("hit", "reference.cache_hits"),
                       ("miss", "reference.cache_misses")):
        m[key] = (_med(sum(1 for s in spans if s.op == op
                           and s.name == "reference.generate_reference"
                           and s.attrs["cache"] == state)
                       for op in timed_ops), "count")

    ref_builds = lambda s: (s.parent is not None and spans[s.parent].name
                            == "reference.generate_reference")
    m["fem.assemble_s"] = (_med(dur("fem.assemble", ref_builds)), "s")
    m["fem.first_step_s"] = (_med(dur("fem.step", lambda s: s.attrs["index"] == 1)), "s")
    m["fem.step_ms"] = (1e3 * _med(dur("fem.step", lambda s: s.attrs["index"] >= 2)), "ms")
    notes = [c for name, _, c in tracer.notes if name == "fem.cn_steps"]
    if not notes:
        raise LookupError("no fem.cn_steps counts recorded")
    for key in ("factorizations", "solves", "spmv", "unknowns"):
        m[f"fem.{key}"] = (notes[0][key], "count")
    m["fem.matched_solve_s"] = (_med(dur("fem.cn_solve")), "s")

    m["spectral.fit_s"] = (_med(dur("spectral.fit")), "s")
    m["spectral.design_s"] = (_med(dur("spectral.lhs_sample"))
                              + _med(dur("spectral.design_matrix")), "s")
    m["spectral.factor_s"] = (_med(dur("spectral.factor")), "s")
    m["spectral.gcv_s"] = (_med(dur("spectral.gcv")), "s")
    m["spectral.design_mb"] = (first("spectral.design_matrix", "rows")
                               * first("spectral.design_matrix", "cols") * 8 / 1e6, "MB")
    m["spectral.edof"] = (first("spectral.fit", "edof"), "dof")
    m["spectral.lambda"] = (first("spectral.fit", "lambda"), "1")

    # a report scores the surrogate if it calls predict, the matched CN
    # solution if it calls p1_interpolate; others (the oracle) are left out
    reports = pick("metrics.report")
    kids = {i: children(i) for i in reports}

    def scoring(callee):
        return [i for i in reports if kids[i]
                and all(spans[j].name == callee for j in kids[i])]
    ep, cn = scoring("spectral.predict"), scoring("fem.interpolate")
    m["spectral.predict_s"] = (_med(sum(spans[j].seconds for j in kids[i]) for i in ep), "s")
    m["spectral.predict_calls"] = (len(kids[ep[0]]), "count")
    m["metrics.report_s.bepgp"] = (_med(spans[i].seconds for i in ep), "s")
    m["metrics.report_s.cn_fem"] = (_med(spans[i].seconds for i in cn), "s")
    m["metrics.quad_points"] = (spans[kids[ep[0]][0]].attrs["points"], "count")
    m["metrics.eval_times"] = (len(kids[cn[0]]), "count")

    m["dof_matching.n"] = (first("dof_matching.match_cn_to_dof", "n"), "count")
    m["dof_matching.dof_cn"] = (first("dof_matching.match_cn_to_dof", "dof_cn"), "count")
    m["runner.report_s"] = (_med(dur("runner.run_benchmark")), "s")

    solver_reports = set(ep + cn)
    for layer in ("reference", "fem", "spectral", "metrics", "dof_matching", "runner"):
        keep = ((lambda i: i in solver_reports) if layer == "metrics"
                else (lambda i: True))
        m[f"{layer}.self_s"] = (layer_self(layer, keep), "s")

    roots = [i for i, s in enumerate(spans) if s.name == "op"]
    cost = span_cost()
    cover, overhead, count = [], [], []
    for r in roots:
        op = spans[r].op
        mine = [i for i, s in enumerate(spans) if s.op == op]
        glue = sum(selfs[i] for i in mine if spans[i].name in ORCHESTRATORS)
        cover.append(1.0 - glue / spans[r].seconds)
        overhead.append(len(mine) * cost / spans[r].seconds)
        count.append(len(mine))
    m["trace.coverage"] = (_med(cover), "frac")
    m["trace.overhead_frac"] = (_med(overhead), "frac")
    m["trace.spans_per_op"] = (_med(count), "count")
    m["trace.op_s_p50"] = (_med(spans[r].seconds for r in roots), "s")
    m["src_lines"] = (src_lines(src), "count")
    return m
