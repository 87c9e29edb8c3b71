"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

from harness import (OpTally, Span, Tracer, cap_blas_threads, cpu_count,
                     median_with_count, self_times)
from oracle import SUM_B, SUM_B2, PolynomialSeries, coefficients


def test_self_times_subtract_children():
    spans = [Span("op", 0.0, 10.0, None, 0),
             Span("a", 1.0, 3.0, 0, 0),
             Span("b", 3.0, 5.0, 0, 0),
             Span("c", 8.0, 10.0, 0, 0),
             Span("d", 8.5, 9.0, 3, 0)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.5, 0.5])


def test_tracer_nests_spans_and_tags_ops():
    t = Tracer()
    t.op = 7
    with t.span("outer"):
        with t.span("inner", k=1):
            pass
    with t.span("next"):
        pass
    assert [(s.name, s.parent, s.op) for s in t.spans] == [
        ("outer", None, 7), ("inner", 0, 7), ("next", None, 7)]
    assert t.spans[1].attrs == {"k": 1}
    assert all(s.end >= s.start for s in t.spans)


class _Owner:
    @classmethod
    def build(cls, x):
        return (cls.__name__, x)


def test_patch_wraps_and_restores_classmethods():
    t = Tracer()
    orig = vars(_Owner)["build"]
    t.patch(_Owner, "build", lambda f: t.timed(
        "owner.build", f, lambda out, *a: {"x": out[1]}))
    assert _Owner.build(3) == ("_Owner", 3)
    assert [(s.name, s.attrs) for s in t.spans] == [("owner.build", {"x": 3})]
    t.restore()
    assert vars(_Owner)["build"] is orig


def test_median_and_sample_count():
    assert median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        median_with_count([])


def test_failed_ops_fraction():
    tally = OpTally()
    for problems in ([], [], ["wrong edof"], []):
        tally.record(problems)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_frac == 0.25
    assert tally.problems == ["wrong edof"]
    with pytest.raises(ValueError):
        OpTally().failed_frac


def test_blas_threads_capped_to_cpus():
    env = {"OPENBLAS_NUM_THREADS": "512", "OMP_NUM_THREADS": "1"}
    n = cap_blas_threads(env)
    assert n == cpu_count()
    assert env == {"OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": str(n)}


def test_series_constants_match_partial_sums():
    _, b = coefficients(200001)
    assert math.isclose(np.sum(b**2), SUM_B2, rel_tol=1e-12)
    assert math.isclose(np.sum(b), SUM_B, rel_tol=1e-9)


@pytest.mark.parametrize("J", [15, 63])
def test_series_at_t0_reproduces_polynomial_ic(J):
    from wavebench.mesh import build_structured_mesh
    from wavebench.metrics import mesh_quadrature
    from wavebench.problem import ic_polynomial

    pts, _ = mesh_quadrature(build_structured_mesh(1.0, 1.0, 12, 12))
    x, y = pts[:, 0], pts[:, 1]
    series = PolynomialSeries(J)
    err = np.max(np.abs(series(x, y, 0.0) - ic_polynomial(x, y)))
    assert err <= series.max_tail()
    assert series.max_tail() < 5e-4 * (J / 15.0) ** -2


def test_series_tail_bound_shrinks_with_J():
    tails = [PolynomialSeries(J).l2_tail(1.0) for J in (15, 31, 63, 127)]
    assert all(a > b > 0 for a, b in zip(tails, tails[1:]))


def test_reference_floor_is_second_order():
    from oracle import reference_floor
    from wavebench.problem import WaveProblem
    from wavebench.reference import generate_reference

    floors = [reference_floor(generate_reference(WaveProblem(), n, n, 1 / (2 * n)),
                              Nt_eval=20)
              for n in (16, 32)]
    assert 3.0 < floors[0] / floors[1] < 5.0
