"""Problem definition and initial-condition functions."""

import numpy as np
import pytest

from wavebench import problem, reference
from wavebench.problem import (WaveProblem, ic_polynomial, ic_mollifier,
                               ic_single_mode, single_mode_solution)


def test_polynomial_values():
    assert ic_polynomial(0.5, 0.5) == pytest.approx(1.0 / 16.0)
    assert ic_polynomial(0.0, 0.3) == 0.0
    assert ic_polynomial(0.3, 1.0) == 0.0


def test_mollifier_spot_value():
    # r = 0.12 from the default center (0.3, 0.7) with R = 0.24:
    # exp(-R^2 / (R^2 - r^2)) = exp(-4/3)
    assert ic_mollifier(0.42, 0.7) == pytest.approx(np.exp(-4.0 / 3.0))
    # center value is e^{-1}
    assert ic_mollifier(0.3, 0.7) == pytest.approx(np.exp(-1.0))


def test_mollifier_compact_support():
    assert ic_mollifier(0.3 + 0.24, 0.7) == 0.0
    assert ic_mollifier(0.9, 0.1) == 0.0
    x = np.linspace(0, 1, 101)
    X, Y = np.meshgrid(x, x)
    vals = ic_mollifier(X, Y)
    r = np.hypot(X - 0.3, Y - 0.7)
    assert np.all(vals[r >= 0.24] == 0.0)
    assert np.all(vals[r <= 0.24] >= 0.0)
    # strict positivity away from the rim, where exp(-large) underflows
    assert np.all(vals[r < 0.2] > 0.0)
    assert np.all(np.isfinite(vals))


def test_mollifier_custom_params():
    assert ic_mollifier(0.5, 0.5, x0=0.5, y0=0.5, R=0.1) == pytest.approx(
        np.exp(-1.0))
    with pytest.raises(ValueError):
        ic_mollifier(0.5, 0.5, R=0.0)
    with pytest.raises(ValueError, match="support radius must be positive"):
        ic_mollifier(0.5, 0.5, R=float("nan"))


def test_single_mode_and_solution():
    assert ic_single_mode(0.5, 0.5) == pytest.approx(1.0)
    omega = np.pi * np.sqrt(2.0)
    assert single_mode_solution(0.5, 0.5, 0.3) == pytest.approx(
        np.cos(omega * 0.3))
    # solves the wave equation: check the dispersion relation directly
    assert single_mode_solution(0.25, 0.75, 0.0) == pytest.approx(
        ic_single_mode(0.25, 0.75))


def test_problem_selects_ic():
    assert WaveProblem(ic="polynomial").initial_condition() is ic_polynomial
    f = WaveProblem(ic="mollifier").initial_condition()
    assert f(0.42, 0.7) == pytest.approx(np.exp(-4.0 / 3.0))
    g = WaveProblem(ic="mollifier",
                    ic_params={"x0": 0.5, "y0": 0.5, "R": 0.2}).initial_condition()
    assert g(0.5, 0.5) == pytest.approx(np.exp(-1.0))
    h = WaveProblem(L1=2.0, L2=2.0, ic="single_mode").initial_condition()
    assert h(1.0, 1.0) == pytest.approx(1.0)


def test_problem_custom_ic():
    # initial data is a built-in name; a callable goes to the library
    # functions directly (see test_reference.test_custom_ic_without_cache)
    fn = lambda x, y: x + y                         # noqa: E731
    for params in ({"fn": fn}, {}):
        with pytest.raises(ValueError, match="unknown initial condition"):
            WaveProblem(ic="custom", ic_params=params)


def test_problem_validation():
    with pytest.raises(ValueError):
        WaveProblem(L1=-1.0)
    with pytest.raises(ValueError):
        WaveProblem(T=0.0)
    with pytest.raises(ValueError):
        WaveProblem(ic="gaussian")


@pytest.mark.parametrize("kwargs, message", [
    (dict(L1=2.0, ic="polynomial"), "unless L1 = L2 = 1"),
    # the rule is exact: no tolerance lets a near-unit square through
    (dict(L1=1.0 + 1e-13, ic="polynomial"), "not zero on the boundary"),
    (dict(L2=0.5, ic="polynomial"), "not zero on the boundary"),
    (dict(L1=0.5, ic="mollifier"), "not zero on the boundary"),
    (dict(ic="mollifier", ic_params={"x0": 0.1}), "not zero on the boundary"),
    (dict(ic="mollifier", ic_params={"R": -1}), "support radius"),
    (dict(ic="mollifier", ic_params={"R": float("nan")}), "support radius"),
    (dict(ic="mollifier", ic_params={"radius": 0.2}), "radius"),
    (dict(ic="polynomial", ic_params={"R": 0.1}), "takes no ic_params"),
    (dict(ic="single_mode", ic_params={"R": 0.1}), "takes no ic_params"),
    (dict(ic="single_mode", ic_params={"L1": 2.0}), "takes no ic_params"),
    # the disk crosses x = 0, where u0(0, 0.505) = 0.264
    (dict(ic="mollifier", ic_params={"x0": 0.002, "y0": 0.505, "R": 0.004}),
     "support disk"),
    # each of these gives an identically zero u0
    (dict(ic="mollifier", ic_params={"x0": float("nan")}), "support disk"),
    (dict(ic="mollifier", ic_params={"x0": float("inf")}), "support disk"),
    (dict(ic="mollifier", ic_params={"x0": 5.0}), "support disk"),
], ids=["polynomial_L1", "polynomial_L1_near_1", "polynomial_L2",
        "mollifier_L1", "mollifier_x0", "mollifier_R", "mollifier_nan_R",
        "mollifier_unknown_param", "polynomial_params",
        "single_mode_unknown_param", "single_mode_L1_param",
        "mollifier_crossing_edge", "mollifier_nan_x0", "mollifier_inf_x0",
        "mollifier_x0_outside"])
def test_problem_rejects_unusable_initial_condition(kwargs, message):
    with pytest.raises(ValueError, match=message):
        WaveProblem(**kwargs)


def test_problem_accepts_boundary_zero_initial_conditions():
    # sin(pi x / L1) at x = L1 is about 1.2e-16, inside the 1e-12 tolerance
    WaveProblem(L1=3.0, L2=0.7, ic="single_mode")
    WaveProblem(L1=2.0, ic="mollifier")
    WaveProblem(ic="mollifier", ic_params={"x0": 0.5, "y0": 0.5, "R": 0.5})


def test_problem_checks_boundary_rules_without_evaluating_u0(monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("an initial condition was evaluated")
    for name in ("ic_polynomial", "ic_mollifier", "ic_single_mode"):
        monkeypatch.setattr(problem, name, evaluated)
    WaveProblem(ic="polynomial")
    WaveProblem(ic="mollifier", ic_params={"x0": 0.5, "y0": 0.5, "R": 0.5})
    WaveProblem(L1=3.0, L2=0.7, ic="single_mode")


def test_ic_params_numbers_are_kept_as_floats():
    p = WaveProblem(ic="mollifier", ic_params={"R": np.float32(0.2)})
    assert type(p.ic_params["R"]) is float
    assert p.ic_params["R"] == float(np.float32(0.2))
    # the cache name is a JSON digest of the parameters
    assert reference.cache_filename(p, 8, 8, 16).endswith(".wben")
    with pytest.raises(ValueError, match="must be numbers"):
        WaveProblem(ic="mollifier", ic_params={"R": "0.2"})


def test_ic_params_are_a_read_only_copy():
    params = {"R": 0.2}
    p = WaveProblem(ic="mollifier", ic_params=params)
    params["R"] = -1.0                 # the caller's dict is not the problem's
    assert p.ic_params["R"] == 0.2
    with pytest.raises(TypeError):
        p.ic_params["R"] = -1.0        # nor can the problem's own change
    assert p.initial_condition()(0.3, 0.7) == pytest.approx(np.exp(-1.0))
