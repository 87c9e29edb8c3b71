import contextlib
import csv
import gc
import io
import json
import logging
import os
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from wavebench import cli, metrics, reference, runner, spectral
from wavebench.mesh import build_structured_mesh
from wavebench.problem import WaveProblem
from wavebench.runner import (ExperimentConfig, run_benchmark, emit_snapshots,
                              get_reference, CSV_HEADER)


def _small_config(out_dir, **overrides):
    doc = dict(ic="polynomial", N=6, m=300, ref_nx=48, ref_ny=48,
               Nt_eval=20, output_dir=str(out_dir))
    doc.update(overrides)
    return ExperimentConfig(**doc)


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    config = _small_config(out)
    return config, run_benchmark(config)


@pytest.fixture(autouse=True)
def _restore_wavebench_logger():
    # cli.main sets the logger to INFO and gives it a stderr handler; undo
    # that, so that other modules' tests see the logger as they left it
    log = logging.getLogger("wavebench")
    level, handlers = log.level, log.handlers[:]
    yield
    log.setLevel(level)
    log.handlers[:] = handlers


# ---------------------------------------------------------------- config

def test_config_json_round_trip():
    config = ExperimentConfig(ic="mollifier", N=8, seed=3,
                              snapshot_times=[0.0, 0.5])
    again = ExperimentConfig.from_json(config.to_json())
    assert again == config


def test_config_rejects_unknown_keys():
    # paper_simpson and sample_mode are gone: one Simpson rule, one LHS rule
    for key in ("bogus", "paper_simpson", "sample_mode"):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(json.dumps({"ic": "polynomial", key: 1}))


def test_config_validation():
    with pytest.raises(ValueError, match="dt_ref"):
        ExperimentConfig(ref_nx=100, ref_ny=100, dt_ref=0.5)
    with pytest.raises(ValueError, match="Nt_eval"):
        ExperimentConfig(Nt_eval=7)
    with pytest.raises(ValueError):
        ExperimentConfig(N=0)


@pytest.mark.parametrize("overrides, message", [
    ({"N": 4.0}, "N must be an integer"),
    ({"m": 120.5}, "m must be an integer"),
    ({"Nt_eval": 10.0}, "Nt_eval must be an integer"),
    ({"ref_nx": 32.0, "ref_ny": 32}, "ref_nx must be an integer"),
    ({"ref_nx": 32, "ref_ny": 32.0}, "ref_ny must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be non-negative"),
], ids=["N", "m", "Nt_eval", "ref_nx", "ref_ny", "seed_float", "seed_negative"])
def test_config_rejects_non_integer_counts(overrides, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"L1": -1.0}, "L1 must be strictly positive"),
    ({"c": 0.0}, "c must be strictly positive"),
    ({"ic": "polinomial"}, "unknown initial condition"),
    ({"ref_nx": 0}, "ref_nx and ref_ny must be at least 2"),
    ({"ref_ny": 0}, "ref_nx and ref_ny must be at least 2"),
    ({"ref_nx": 1}, "ref_nx and ref_ny must be at least 2"),
    ({"ref_ny": 1}, "ref_nx and ref_ny must be at least 2"),
    # a one-mode fit has effective DoF below 1, which no CN mesh matches
    ({"N": 1}, "N must be at least 2"),
    # so has a one-sample fit, s^2 / (s^2 + lambda) < 1
    ({"m": 1}, "m must be at least 2"),
], ids=["L1", "c", "ic", "ref_nx", "ref_ny", "ref_nx_1", "ref_ny_1", "N_1",
        "m_1"])
def test_config_rejects_bad_problem_and_grid(overrides, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**overrides)


def test_config_rejects_snapshot_times_outside_horizon():
    with pytest.raises(ValueError, match="snapshot_times"):
        ExperimentConfig(snapshot_times=[0.0, 1.5])
    with pytest.raises(ValueError, match="snapshot_times"):
        ExperimentConfig(T=0.5)              # default times run to 1.0
    ExperimentConfig(T=0.5, snapshot_times=[0.0, 0.5])
    # both times would write the files labelled t0.00
    with pytest.raises(ValueError, match=r"snapshot_times \[0.001, 0.004\]"):
        ExperimentConfig(snapshot_times=[0.001, 0.004])


def test_config_rejects_dt_ref_not_dividing_horizon():
    with pytest.raises(ValueError, match="dt_ref.*divide"):
        ExperimentConfig(ref_nx=100, ref_ny=100, dt_ref=0.003)
    with pytest.raises(ValueError, match="dt_ref.*divide"):
        ExperimentConfig(T=0.9, ref_nx=100, ref_ny=100, dt_ref=0.007,
                         snapshot_times=[0.0, 0.9])


def test_config_default_dt_ref_and_paper_scale():
    # the desk default: a 200 x 200 reference over 400 steps
    desk = ExperimentConfig()
    assert (desk.ref_nx, desk.ref_ny) == (200, 200)
    assert reference.step_count(desk.T, desk.dt_ref) == 400
    config = ExperimentConfig(ref_nx=100, ref_ny=100)
    assert config.dt_ref == pytest.approx(1.0 / 200)
    big = config.paper_scale()
    assert (big.ref_nx, big.ref_ny) == (400, 400)
    assert big.dt_ref == pytest.approx(1.0 / 800)
    assert big.ic == config.ic


def test_default_lambda_grid_has_113_points():
    # the fit searches one fixed grid, bit-identical to the one the former
    # lambda_min / lambda_max / lambda_per_decade defaults built; config
    # files that still set those keys are rejected
    grid = spectral.default_lambda_grid()
    assert grid.size == 113
    np.testing.assert_array_equal(
        grid, np.logspace(np.log10(1e-12), np.log10(1e2), 113))
    for key in ("lambda_min", "lambda_max", "lambda_per_decade"):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(json.dumps({key: 1}))


# ------------------------------------------------------------- benchmark

def test_benchmark_reports_are_written(small_result):
    config, result = small_result
    out = Path(config.output_dir)
    assert (out / "report_polynomial.csv").read_text() == result.csv_text()
    doc = json.loads((out / "report_polynomial.json").read_text())
    assert doc["match"]["n"] == result.match.n
    assert doc["bepgp"]["st_rel"] == result.ep_report.st_rel


def test_report_records_its_environment(small_result):
    config, _ = small_result
    doc = json.loads((Path(config.output_dir) / "report_polynomial.json")
                     .read_text())
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "scipy", "numpy_blas", "scipy_blas",
                        "cpu_count", "openblas_num_threads"}
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    for lib in ("numpy_blas", "scipy_blas"):
        assert set(env[lib]) == {"name", "version"} and env[lib]["name"]
    assert env["cpu_count"] >= 1
    assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert runner.environment() is runner.environment()     # read once
    assert doc["reference"]["solver"] == reference._solver_fingerprint()


def test_benchmark_csv_layout(small_result):
    _, result = small_result
    rows = list(csv.reader(io.StringIO(result.csv_text())))
    assert rows[0] == CSV_HEADER
    assert [r[1] for r in rows[1:]] == ["bepgp", "cn_fem"]
    ep, cn = rows[1], rows[2]
    assert float(ep[3]) == pytest.approx(result.ep_report.st_rel)
    assert float(cn[3]) == pytest.approx(result.cn_report.st_rel)
    assert float(ep[6]) == pytest.approx(result.improvement_st)


def test_benchmark_pipeline_is_consistent(small_result):
    _, result = small_result
    assert result.match.n >= 2
    assert result.trajectory.Nt == result.match.Nt
    assert result.ep_report.per_snapshot.shape == (21,)
    assert result.improvement_st == pytest.approx(
        result.cn_report.st_l2 / result.ep_report.st_l2)
    # the surrogate should beat the matched FEM solve handily even here
    assert result.ep_report.st_rel < result.cn_report.st_rel


def test_benchmark_is_deterministic(tmp_path):
    config_a = _small_config(tmp_path / "a", N=4, m=120, ref_nx=32,
                             ref_ny=32, Nt_eval=10)
    config_b = _small_config(tmp_path / "b", N=4, m=120, ref_nx=32,
                             ref_ny=32, Nt_eval=10)
    res_a = run_benchmark(config_a)
    res_b = run_benchmark(config_b)
    rows_a = list(csv.reader(io.StringIO(res_a.csv_text())))
    rows_b = list(csv.reader(io.StringIO(res_b.csv_text())))
    for row_a, row_b in zip(rows_a, rows_b):
        assert row_a[:-1] == row_b[:-1]  # all but the runtime column
    cache_a = sorted((tmp_path / "a" / "cache").iterdir())
    cache_b = sorted((tmp_path / "b" / "cache").iterdir())
    assert [p.name for p in cache_a] == [p.name for p in cache_b]
    for pa, pb in zip(cache_a, cache_b):
        assert pa.read_bytes() == pb.read_bytes()


# Reports of the determinism config (N=4, m=120, 32x32 reference,
# Nt_eval=10, seed 0), recorded before the error, interpolation and
# DoF-matching code was consolidated; a refactor must not move them.
RECORDED = {
    "polynomial": dict(
        lam=7.419479135001937e-04, edof=15.999543171830013, n=3, dof_cn=16,
        bepgp=(2.115800743312265e-04, 8.750133070089353e-03,
               4.8345868312130256e-04, 5.4354064358131116e-02),
        cn_fem=(1.0217864351773475e-02, 4.2257132696802713e-01,
                1.7021599395656034e-02, 8.091196309979405e-01)),
    "mollifier": dict(
        lam=9.030870063004298e-01, edof=15.4654587563899, n=3, dof_cn=16,
        bepgp=(1.9420522308832018e-02, 3.4234523922782395e-01,
               3.1010234954008533e-02, 7.237205609385841e-01),
        cn_fem=(1.7576612891765678e-01, 3.09840778201411,
                2.847922735267451e-01, 4.731806637706555)),
}


@pytest.mark.parametrize("ic", sorted(RECORDED))
def test_report_matches_recorded_values(tmp_path, ic):
    want = RECORDED[ic]
    result = run_benchmark(_small_config(tmp_path, ic=ic, N=4, m=120,
                                         ref_nx=32, ref_ny=32, Nt_eval=10))
    assert (result.match.n, result.match.dof_cn) == (want["n"], want["dof_cn"])
    assert result.model.lam == pytest.approx(want["lam"], rel=1e-8)
    assert result.model.edof == pytest.approx(want["edof"], rel=1e-8)
    for name, rep in (("bepgp", result.ep_report), ("cn_fem", result.cn_report)):
        got = (rep.st_l2, rep.st_rel, rep.linf_l2, rep.linf_rel)
        assert got == pytest.approx(want[name], rel=1e-8), name


def test_both_reports_share_one_reference_read(tmp_path, monkeypatch):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=32, ref_ny=32,
                           Nt_eval=10)
    ref = reference.generate_reference(config.problem(), 32, 32,
                                       config.dt_ref, None)
    times = []
    at_time = metrics._at_time

    def counted(levels, t, dt, T):
        assert levels is ref.levels
        times.append(t)
        return at_time(levels, t, dt, T)
    # the reports read the orbit values only, never a nodal slice
    monkeypatch.setattr(metrics, "_at_time", counted)
    monkeypatch.setattr(reference.ReferenceSolution, "at_time", None)
    monkeypatch.setattr(reference.ReferenceSolution, "values", None)
    run_benchmark(config, ref=ref, write_outputs=False)
    assert times == list(np.linspace(0.0, config.T, config.Nt_eval + 1))


def test_report_times_its_stages(tmp_path):
    config = _small_config(tmp_path, N=10, m=400, ref_nx=32, ref_ny=32,
                           Nt_eval=100)
    ref = reference.generate_reference(config.problem(), 32, 32,
                                       config.dt_ref, None)
    run_benchmark(config, ref=ref)
    doc = json.loads((tmp_path / "report_polynomial.json").read_text())
    timings = doc["timings"]
    assert set(timings) == {"reference_s", "reference_read_s",
                            "bepgp_report_s", "cn_fem_report_s", "total_s"}
    assert all(v >= 0 for v in timings.values())
    stages = (sum(v for k, v in timings.items() if k != "total_s")
              + doc["fit_seconds"] + doc["solve_seconds"])
    assert stages == pytest.approx(timings["total_s"], rel=0.05)
    assert stages <= timings["total_s"]


@pytest.mark.parametrize("problem", [WaveProblem(ic="mollifier"),
                                     WaveProblem(c=2.0)], ids=["ic", "c"])
def test_reference_of_another_problem_rejected(tmp_path, monkeypatch, problem):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=16, ref_ny=16,
                           Nt_eval=10)
    ref = reference.generate_reference(problem, 16, 16, config.dt_ref, None)

    def no_fit(config):
        raise AssertionError("fitted against a reference of another problem")
    monkeypatch.setattr(runner, "fit_and_solve", no_fit)
    with pytest.raises(ValueError) as err:
        run_benchmark(config, ref=ref)
    assert repr(problem) in str(err.value)
    assert repr(config.problem()) in str(err.value)


def test_reference_cache_is_reused(tmp_path):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=32, ref_ny=32,
                           Nt_eval=10)
    get_reference(config)
    cache = sorted((tmp_path / "cache").iterdir())
    assert len(cache) == 1
    mtime = cache[0].stat().st_mtime_ns
    get_reference(config)
    assert cache[0].stat().st_mtime_ns == mtime


def test_report_records_cache_events(tmp_path):
    # built, then a hit, then regenerated after one flip; the desk grid's
    # defaults are checked in test_config_default_dt_ref_and_paper_scale
    config = _small_config(tmp_path)
    blocks = []
    for flip in (False, False, True):
        if flip:
            [path] = (tmp_path / "cache").iterdir()
            raw = bytearray(path.read_bytes())
            raw[1000] ^= 0x01
            path.write_bytes(bytes(raw))
        run_benchmark(config)
        doc = json.loads((tmp_path / "report_polynomial.json").read_text())
        blocks.append(doc["reference"])
    assert [b["cache"] for b in blocks] == ["built", "hit", "regenerated"]
    for b in blocks:
        assert (b["nx"], b["ny"], b["Nt"]) == (48, 48, 96)
        assert 0 < b["load_s"] < 60


# ------------------------------------------------------------- snapshots

def test_emit_snapshots(small_result, tmp_path):
    config, result = small_result
    ref = get_reference(config)
    files = emit_snapshots(replace(config, output_dir=str(tmp_path)),
                           result.model, result.trajectory, ref)
    # 5 times x 3 methods, CSV only
    assert len(files) == 15
    for path in files:
        assert path.exists() and path.suffix == ".csv"
    assert not list((tmp_path / "snapshots").glob("*.wben"))
    # every method's every snapshot is zero on the boundary
    for path in files:
        grid = {}
        with open(path) as f:
            for row in csv.DictReader(f):
                grid[(float(row["x"]), float(row["y"]))] = float(row["value"])
        xs = sorted({k[0] for k in grid})
        ys = sorted({k[1] for k in grid})
        for x in xs:
            assert grid[(x, ys[0])] == 0.0, path.name
            assert grid[(x, ys[-1])] == 0.0, path.name
        for y in ys:
            assert grid[(xs[0], y)] == 0.0, path.name
            assert grid[(xs[-1], y)] == 0.0, path.name


def test_snapshot_file_layout(tmp_path):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=16, ref_ny=16,
                           Nt_eval=10, snapshot_times=[0.0, 0.35])
    ref = get_reference(config)
    result = run_benchmark(config, ref=ref, write_outputs=False)
    files = emit_snapshots(config, result.model, result.trajectory, ref)
    assert [p.name for p in files] == [
        f"polynomial_{name}_t{t}.csv" for t in ("0.00", "0.35")
        for name in ("reference", "cn_fem", "bepgp")]
    xs, ys = build_structured_mesh(1.0, 1.0, 16, 16).axes()
    for t, path in ((0.0, files[0]), (0.35, files[3])):
        # the reference file is a csv rendering of its nodal slice, y outer
        expected = io.StringIO()
        w = csv.writer(expected, lineterminator="\n")
        w.writerow(["x", "y", "value"])
        grid = ref.at_time(t)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                w.writerow([f"{v:.12g}" for v in (x, y, grid[iy, ix])])
        assert path.read_text() == expected.getvalue()
    ep_axes = build_structured_mesh(1.0, 1.0, 50, 50).axes()
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        n, (gx, gy) = (51, ep_axes) if "bepgp" in path.name else (17, (xs, ys))
        assert len(lines) == 1 + n * n
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{x:.12g},{y:.12g}" for y in gy for x in gx]
        values = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert values == [f"{float(v):.12g}" for v in values]


# ------------------------------------------------------------------- cli

def test_cli_match_prints_json(capsys):
    assert cli.main(["match", "1600"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 12, "dt": pytest.approx(1 / 12), "Nt": 12,
                   "dof_cn": 1573, "mismatch": doc["mismatch"]}


def test_cli_fit_writes_model(tmp_path, capsys):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=32, ref_ny=32,
                           Nt_eval=10)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert cli.main(["fit", "--config", str(path)]) == 0
    assert (tmp_path / "model_polynomial.json").exists()
    assert "lambda=" in capsys.readouterr().out


def test_cli_benchmark_prints_csv(tmp_path, capsys):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=32, ref_ny=32,
                           Nt_eval=10)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert cli.main(["benchmark", "--config", str(path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3
    assert (tmp_path / "report_polynomial.csv").exists()


def test_cli_ic_and_seed_overrides(tmp_path, capsys):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=32, ref_ny=32,
                           Nt_eval=10)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert cli.main(["fit", "--config", str(path), "--ic", "mollifier",
                     "--seed", "7"]) == 0
    assert (tmp_path / "model_mollifier.json").exists()


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize("argv, config, message", [
    (["match", "0"], "", "effective DoF must be finite and at least 1"),
    (["fit", "--seed", "-1", "--output", "{tmp}"], "", "seed must be non-negative"),
    (["fit", "--config", "{tmp}/config.json"], '{"N": 4.0}', "N must be an integer"),
    (["solve"], "", "invalid choice: 'solve'"),
    (["fit", "--config", "{tmp}/config.json"], "5", "config must be a JSON object"),
    (["fit", "--config", "{tmp}/config.json"], '{"snapshot_times": 0.5}',
     "snapshot_times must be a list of numbers"),
    (["fit", "--config", "{tmp}/config.json"], '{"paper_update": "no"}',
     "paper_update must be true or false"),
    (["fit", "--config", "{tmp}/config.json"], '{"ic_params": 5}',
     "ic_params must be a dict"),
    (["fit", "--config", "{tmp}/config.json"], '{"T": "1"}',
     "T must be a number"),
    (["fit", "--config", "{tmp}/config.json"], '{"N": true}',
     "N must be an integer"),
    (["fit", "--config", "{tmp}/config.json"], '{"dt_ref": "0.01"}',
     "dt_ref must be a number or null"),
    (["match", "1600", "--T", "nan"], "", "final time must be positive and finite"),
    (["match", "1600", "--T", "inf"], "", "final time must be positive and finite"),
    (["fit", "--config", "{tmp}/config.json"], '{"dt_ref": NaN}',
     "reference time step must be positive and finite"),
    (["fit", "--config", "{tmp}/config.json"], '{"ic": "custom"}',
     "unknown initial condition 'custom'"),
    (["fit", "--config", "{tmp}/config.json"], '{"output_dir": 5}',
     "output_dir must be a string, got 5"),
    (["fit", "--config", "{tmp}/config.json"], '{"output_dir": null}',
     "output_dir must be a string, got None"),
    (["benchmark", "--config", "{tmp}/config.json"],
     '{"N": 4, "m": 120, "ref_nx": 1, "ref_ny": 1, "Nt_eval": 10}',
     "ref_nx and ref_ny must be at least 2"),
    (["fit", "--config", "{tmp}/config.json"], '{"N": 1}',
     "N must be at least 2"),
    (["benchmark", "--config", "{tmp}/config.json"],
     '{"N": 1, "m": 50, "ref_nx": 16, "ref_ny": 16, "Nt_eval": 10}',
     "N must be at least 2"),
    (["benchmark", "--config", "{tmp}/config.json"],
     '{"N": 4, "m": 1, "ref_nx": 16, "ref_ny": 16, "Nt_eval": 10}',
     "m must be at least 2"),
    (["fit", "--config", "{tmp}/config.json"],
     '{"ic": "mollifier", "ic_params": {"x0": 0.002, "y0": 0.505, "R": 0.004}}',
     "support disk"),
    (["benchmark", "--config", "{tmp}/config.json"],
     '{"ic": "mollifier", "ic_params": {"x0": NaN}, "ref_nx": 16, '
     '"ref_ny": 16, "Nt_eval": 10}',
     "support disk"),
    (["fit", "--config", "{tmp}/config.json"],
     '{"ic": "mollifier", "ic_params": {"x0": Infinity}}', "support disk"),
    (["fit", "--config", "{tmp}/config.json"],
     '{"ic": "mollifier", "ic_params": {"x0": 5.0}}', "support disk"),
], ids=["match_0", "negative_seed", "float_N_config", "no_solve",
        "config_not_object", "snapshot_times_not_list", "string_paper_update",
        "int_ic_params", "string_T", "bool_N", "string_dt_ref", "match_T_nan",
        "match_T_inf", "nan_dt_ref", "custom_ic", "int_output_dir",
        "null_output_dir", "one_cell_reference", "one_mode_fit",
        "one_mode_benchmark", "one_sample_benchmark", "mollifier_crossing_edge",
        "mollifier_nan_centre", "mollifier_inf_centre",
        "mollifier_centre_outside"])
def test_cli_bad_input_is_a_usage_error(argv, config, message, tmp_path, capsys):
    (tmp_path / "config.json").write_text(config)
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("usage: ") and err.count("error:") == 1


def test_cli_reference_shows_build_progress_on_stderr(tmp_path, capsys):
    (tmp_path / "small.json").write_text(
        '{"N": 4, "m": 120, "ref_nx": 16, "ref_ny": 16, "Nt_eval": 10}')
    argv = ["reference", "--config", str(tmp_path / "small.json"), "--output"]
    assert cli.main(argv + [str(tmp_path / "a")]) == 0
    assert "level 32 of 32" in capsys.readouterr().err
    # a later call logs to the stderr current then, through the same handler
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(argv + [str(tmp_path / "b")]) == 0
    assert "level 32 of 32" in err.getvalue()
    assert len(logging.getLogger("wavebench").handlers) == 1


def test_result_keeps_no_table_of_the_quadrature_points(small_result):
    # evaluation tables belong to the shared point-set slots, not to the
    # model or trajectory a kept result holds
    _, result = small_result
    points = len(metrics.mesh_quadrature(result.trajectory.mesh)[1])
    seen, stack, arrays = set(), [result], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        stack.extend(gc.get_referents(obj))
    assert any(a is result.model.weights for a in arrays)
    assert any(a is result.trajectory.levels for a in arrays)
    assert [a.shape for a in arrays if points in a.shape] == []


def test_report_records_the_matched_solve_counters(small_result):
    config, result = small_result
    doc = json.loads((Path(config.output_dir) / "report_polynomial.json")
                     .read_text())
    assert set(doc["cn_stats"]) == {"factorizations", "solves", "spmv",
                                    "cg_iters"}
    assert doc["cn_stats"]["factorizations"] == 1
    assert doc["cn_stats"]["solves"] == result.match.Nt


def test_report_records_the_fit_route(tmp_path):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=16, ref_ny=16,
                           Nt_eval=10)
    run_benchmark(config)
    doc = json.loads((tmp_path / "report_polynomial.json").read_text())
    assert doc["fit"]["factor"] == "tridiagonal"
    assert doc["fit"]["ev_ratio"] > 1.0
    assert doc["fit"]["lambda_at_grid_edge"] is False


def test_report_records_the_fit_stages(tmp_path):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=16, ref_ny=16,
                           Nt_eval=10)
    result = run_benchmark(config)
    doc = json.loads((tmp_path / "report_polynomial.json").read_text())
    stages = [doc["fit"][k] for k in ("design_s", "factor_s", "gcv_s")]
    assert all(v >= 0 for v in stages)
    assert sum(stages) <= doc["fit_seconds"]
    assert "design_s" not in json.loads(result.model.to_json())


def test_cli_snapshots_skip_the_error_reports(tmp_path, monkeypatch):
    config = _small_config(tmp_path, N=4, m=120, ref_nx=16, ref_ny=16,
                           Nt_eval=10, snapshot_times=[0.0, 0.5])
    path = tmp_path / "config.json"
    path.write_text(config.to_json())

    def no_report(*args, **kwargs):
        raise AssertionError("snapshots computed an error report")
    monkeypatch.setattr(metrics, "compute_error_report", no_report)
    assert cli.main(["snapshots", "--config", str(path)]) == 0
    assert len(list((tmp_path / "snapshots").glob("*.csv"))) == 6
