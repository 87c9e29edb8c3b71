"""DoF accounting and the cubic matching rule."""

import numpy as np
import pytest

from wavebench.dof_matching import MatchResult, dof_cn, match_cn_to_dof


def test_dof_cn_values():
    assert dof_cn(12, 13) == 1573
    assert dof_cn(2, 3) == 3
    assert dof_cn(16, 17) == 225 * 17


def test_dof_cn_validation():
    with pytest.raises(ValueError):
        dof_cn(1, 2)
    with pytest.raises(ValueError):
        dof_cn(4, 0)


def test_match_agrees_with_brute_force():
    # exact cubes, midpoints between neighbours (ties), one ulp below each
    # cube and random targets, against the nearest dof_cn over n = 2..400
    # with ties to the smaller n
    ns = np.arange(2, 401)
    table = (ns - 1) ** 2 * (ns + 1)
    cubes = table[:299].astype(float)                  # n = 2..300
    targets = np.concatenate([
        [1.0, 2.0],
        cubes,
        (cubes + table[1:300]) / 2.0,
        np.nextafter(cubes, 0.0),
        np.random.default_rng(8).uniform(1.0, cubes[-1], 2000),
    ])
    for dof in targets:
        want = ns[np.argmin(np.abs(table - dof))]      # first minimum
        r = match_cn_to_dof(float(dof), 1.0)
        assert (r.n, r.dof_cn) == (want, dof_cn(want, want + 1)), dof


def test_match_1600():
    r = match_cn_to_dof(1600.0, 1.0)
    assert r.n == 12
    assert r.dt == pytest.approx(1.0 / 12.0)
    assert r.Nt == 12
    assert r.dof_cn == 1573
    assert r.mismatch == pytest.approx(27.0)


def test_match_small_dof_clamps_to_two():
    r = match_cn_to_dof(1.0, 1.0)
    assert r.n == 2
    assert r.dof_cn == 3
    assert r.mismatch == pytest.approx(2.0)


def test_match_tie_prefers_smaller_n():
    # dof_cn(2,3) = 3 and dof_cn(3,4) = 16; the midpoint 9.5 is equidistant
    r = match_cn_to_dof(9.5, 1.0)
    assert r.n == 2


def test_match_scales_dt_with_horizon():
    r = match_cn_to_dof(1600.0, 2.0)
    assert r.n == 12
    assert r.dt == pytest.approx(2.0 / 12.0)


def test_match_validation():
    with pytest.raises(ValueError):
        match_cn_to_dof(0.5, 1.0)
    with pytest.raises(ValueError):
        match_cn_to_dof(float("inf"), 1.0)
    with pytest.raises(ValueError):
        match_cn_to_dof(float("nan"), 1.0)
    with pytest.raises(ValueError):
        match_cn_to_dof(100.0, 0.0)
    for T in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            match_cn_to_dof(100.0, T)


def test_match_result_is_frozen():
    r = match_cn_to_dof(1600.0, 1.0)
    assert isinstance(r, MatchResult)
    with pytest.raises(AttributeError):
        r.n = 13
