"""Every name a module of the package exports exists."""

import importlib
import pkgutil

import wavebench


def test_all_names_exist():
    modules = [m.name for m in pkgutil.iter_modules(wavebench.__path__)]
    assert "metrics" in modules
    for name in modules:
        mod = importlib.import_module(f"wavebench.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"wavebench.{name}.__all__ names missing: {missing}"


# every attribute `perfbench/layers.py::instrument` wraps, which it looks up
# in the module's own namespace and fails on if it is gone, and
# `write_reference`, which the benchmark's workloads call
TRACED = {
    "cli": ["main"],
    "runner": ["run_benchmark", "match_cn_to_dof"],
    "reference": ["generate_reference", "load_reference", "_stream_write",
                  "write_reference", "cn_steps"],
    "fem": ["cn_solve", "p1_interpolate"],
    "spectral": ["fit_spectral_model", "lhs_sample", "build_design_matrix",
                 "ridge_fit_svd", "select_lambda_gcv", "predict"],
    "metrics": ["compute_error_report"],
}


def test_traced_names_exist():
    for module, names in TRACED.items():
        mod = importlib.import_module(f"wavebench.{module}")
        missing = [n for n in names if not callable(vars(mod).get(n))]
        assert not missing, f"wavebench.{module} lacks {missing}"
    # a classmethod, which the tracer unwraps and rewraps, whose result's
    # `.M` it reads
    from wavebench.fem import FemSystem
    from wavebench.mesh import build_structured_mesh
    assert isinstance(vars(FemSystem)["build"], classmethod)
    mesh = build_structured_mesh(1.0, 1.0, 3, 3)
    assert FemSystem.build(mesh, 1.0).M.shape == (4, 4)


def test_reference_steps_through_the_module_attribute(monkeypatch):
    # the tracer times each step by replacing `reference.cn_steps`, so a
    # build must look the name up there at call time
    from wavebench import reference
    from wavebench.problem import WaveProblem
    calls, inner = [], reference.cn_steps

    def counting(sys_, u0, dt, stats=None, *a, **k):
        calls.append(len(u0))
        yield from inner(sys_, u0, dt, stats, *a, **k)

    monkeypatch.setattr(reference, "cn_steps", counting)
    ref = reference.generate_reference(WaveProblem(), 6, 6, 1.0 / 12)
    assert calls == [25]
    assert ref.levels.shape == (13, 16)
