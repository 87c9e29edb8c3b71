"""Quadrature, interpolation and error-norm machinery."""

import numpy as np
import pytest

from wavebench.mesh import build_structured_mesh
from wavebench.metrics import (_QUAD_BARY, _QUAD_W, mesh_quadrature,
                               simpson_weights, sample_reference,
                               compute_error_report)
from wavebench.problem import WaveProblem
from wavebench.reference import ReferenceSolution


def _exact_triangle_integral(tri, a, b):
    """Integral of x^a y^b over an arbitrary triangle.

    Independent oracle: map to the reference triangle and integrate with a
    5-point Gauss-Legendre tensor rule on the collapsed square, which is
    exact for the (low-degree) polynomial integrand.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    u = 0.5 * (gl_x + 1.0)       # nodes on [0, 1]
    wu = 0.5 * gl_w
    (x1, y1), (x2, y2), (x3, y3) = tri
    total = 0.0
    for ui, wi in zip(u, wu):
        for vj, wj in zip(u, wu):
            # collapsed coordinates: (xi, eta) = (ui, (1 - ui) vj)
            xi, eta = ui, (1.0 - ui) * vj
            x = x1 + (x2 - x1) * xi + (x3 - x1) * eta
            y = y1 + (y2 - y1) * xi + (y3 - y1) * eta
            total += wi * wj * (1.0 - ui) * x**a * y**b
    area2 = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    return area2 * total


def test_rule_weights_sum_to_one():
    assert _QUAD_W.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(_QUAD_BARY.sum(axis=1), 1.0)


def test_degree3_exact_on_random_triangles():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tri = rng.random((3, 2)) * 2.0 - 0.5
        v1, v2 = tri[1] - tri[0], tri[2] - tri[0]
        area = 0.5 * abs(v1[0] * v2[1] - v1[1] * v2[0])
        if area < 1e-3:
            continue
        pts = _QUAD_BARY @ tri
        for a in range(4):
            for b in range(4 - a):
                approx = area * np.sum(_QUAD_W * pts[:, 0]**a * pts[:, 1]**b)
                exact = _exact_triangle_integral(tri, a, b)
                assert abs(approx - exact) <= 1e-14 * max(1.0, abs(exact))


def test_mesh_quadrature_integrates_polynomials():
    mesh = build_structured_mesh(1.0, 1.0, 4, 3)
    pts, w = mesh_quadrature(mesh)
    x, y = pts[:, 0], pts[:, 1]
    # int x^2 y over the unit square = 1/6 (total degree 3, still exact)
    assert w @ (x**2 * y) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_mesh_quadrature_shapes():
    mesh = build_structured_mesh(2.0, 1.0, 3, 3)
    pts, w = mesh_quadrature(mesh)
    assert pts.shape == (4 * 2 * 3 * 3, 2)
    assert w.shape == (4 * 2 * 3 * 3,)
    assert w.sum() == pytest.approx(2.0)


@pytest.mark.parametrize("dims", [(1.0, 1.0, 12, 12), (1.3, 0.7, 5, 3)])
def test_mesh_quadrature_bit_identical_to_node_table(dims):
    # the quadrature built from an explicit node table and element
    # connectivity, as a general unstructured mesh would store them
    L1, L2, nx, ny = dims
    X, Y = np.meshgrid(np.linspace(0.0, L1, nx + 1), np.linspace(0.0, L2, ny + 1))
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    I, J = np.meshgrid(np.arange(nx), np.arange(ny))
    n00 = (J * (nx + 1) + I).ravel()
    n10, n01 = n00 + 1, n00 + nx + 1
    n11 = n01 + 1
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = np.column_stack([n00, n10, n11])
    elements[1::2] = np.column_stack([n00, n11, n01])
    tri = nodes[elements]
    x, y = tri[:, :, 0], tri[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    pts = np.einsum("qb,ebd->eqd", _QUAD_BARY, tri).reshape(-1, 2)
    w = (area[:, None] * _QUAD_W[None, :]).ravel()
    got_pts, got_w = mesh_quadrature(build_structured_mesh(*dims))
    assert np.array_equal(got_pts, pts) and np.array_equal(got_w, w)


def test_simpson_exact_on_cubics():
    for Nt, T in ((2, 1.0), (10, 2.0), (200, 1.0)):
        dt = T / Nt
        t = np.linspace(0.0, T, Nt + 1)
        w = simpson_weights(Nt, dt)
        for p, exact in ((0, T), (1, T**2 / 2), (2, T**3 / 3), (3, T**4 / 4)):
            assert abs(w @ t**p - exact) <= 1e-13 * max(1.0, exact)


def test_simpson_weight_layout():
    w = simpson_weights(4, 0.3)
    np.testing.assert_allclose(w, 0.1 * np.array([1.0, 4.0, 2.0, 4.0, 1.0]))


def test_simpson_validation():
    with pytest.raises(ValueError):
        simpson_weights(3, 0.1)
    with pytest.raises(ValueError):
        simpson_weights(0, 0.1)


def _toy_reference(fn, nx=32, Nt=64):
    """Reference built from an analytic space-time field."""
    prob = WaveProblem(ic="polynomial")
    xs = np.linspace(0, 1, nx + 1)
    ts = np.linspace(0, 1, Nt + 1)
    X, Y = np.meshgrid(xs, xs)
    values = np.stack([fn(X, Y, t) for t in ts])
    return ReferenceSolution(prob, nx, nx, 1.0 / Nt, Nt, values)


@pytest.mark.parametrize("Nt_eval", [3, 0])
def test_uneven_interval_count_rejected_before_any_evaluation(Nt_eval):
    ref = _toy_reference(lambda x, y, t: 1.0 + 0.0 * x, nx=4, Nt=8)
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)

    def solution(x, y, t):
        raise AssertionError("solution evaluated before the Simpson check")
    with pytest.raises(ValueError, match="even interval count"):
        compute_error_report(solution, ref, mesh, Nt_eval=Nt_eval)


def test_space_time_error_of_identical_field_is_zero():
    fn = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y) * (1 - t / 2)
    ref = _toy_reference(fn)
    mesh = build_structured_mesh(1.0, 1.0, 32, 32)
    rep = compute_error_report(fn, ref, mesh, Nt_eval=64)
    # the only deviation left is bilinear readback of a non-bilinear field
    assert rep.st_l2 < 2e-3
    assert rep.per_snapshot.shape == (65,)


def test_spatial_l2_error_zero_and_known():
    # the per-snapshot entries are spatial L2 norms: a constant offset c
    # has norm c over the unit square, an identical field has norm 0
    ref = _toy_reference(lambda x, y, t: 0.0 * x, nx=16, Nt=8)
    mesh = build_structured_mesh(1.0, 1.0, 8, 8)
    with pytest.raises(ValueError, match="reference norm"):
        compute_error_report(lambda x, y, t: np.full_like(x, 0.25), ref,
                             mesh, Nt_eval=8)
    base = lambda x, y, t: 1.0 + 0.0 * x
    ref = _toy_reference(base, nx=16, Nt=8)
    rep = compute_error_report(lambda x, y, t: base(x, y, t) + 0.25, ref,
                               mesh, Nt_eval=8)
    np.testing.assert_allclose(rep.per_snapshot, 0.25, atol=1e-14)
    rep = compute_error_report(base, ref, mesh, Nt_eval=8)
    np.testing.assert_allclose(rep.per_snapshot, 0.0, atol=1e-14)


def test_linf_and_relative():
    # error 0.1 t against a reference of norm 1 + t: the space-time norm
    # is sqrt(int_0^1 (0.1 t)^2 dt) = 0.1/sqrt(3), the peak is 0.1 at t = 1
    # where the reference norm is 2
    base = lambda x, y, t: (1.0 + t) + 0.0 * x
    ref = _toy_reference(base, nx=4, Nt=8)
    mesh = build_structured_mesh(1.0, 1.0, 4, 4)
    rep = compute_error_report(lambda x, y, t: base(x, y, t) + 0.1 * t, ref,
                               mesh, Nt_eval=8)
    assert rep.linf_l2 == rep.per_snapshot.max()
    assert rep.linf_l2 == pytest.approx(0.1, rel=1e-12)
    assert rep.linf_rel == pytest.approx(0.05, rel=1e-12)
    assert rep.st_l2 == pytest.approx(0.1 / np.sqrt(3.0), rel=1e-12)
    assert rep.ref_st_norm == pytest.approx(np.sqrt(7.0 / 3.0), rel=1e-12)
    assert rep.st_rel == rep.st_l2 / rep.ref_st_norm


def test_compute_error_report_known_offset():
    # solution = reference + 0.1: every spatial error is 0.1, the reference
    # norm is ||sin sin|| = 1/2, so both relative errors are 0.2
    base = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
    ref = _toy_reference(base)
    mesh = build_structured_mesh(1.0, 1.0, 32, 32)
    sol = lambda x, y, t: base(x, y, t) + 0.1
    rep = compute_error_report(sol, ref, mesh, Nt_eval=10)
    # tolerances absorb the bilinear readback error of sin.sin on a 32-grid
    assert rep.st_l2 == pytest.approx(0.1, rel=1e-2)
    assert rep.linf_l2 == pytest.approx(0.1, rel=1e-2)
    assert rep.st_rel == pytest.approx(0.2, rel=1e-2)
    assert rep.linf_rel == pytest.approx(0.2, rel=1e-2)
    assert rep.per_snapshot.shape == (11,)
    d = rep.to_dict()
    assert d["st_rel"] == rep.st_rel


def test_linf_rel_normalizes_at_the_peak_error_snapshot():
    # reference grows like (1 + t), the error shrinks like (1 - t): the
    # worst snapshot is t = 0 where E = 0.1 and the reference norm is
    # ||sin sin|| = 1/2, giving 0.2 (a max/max ratio would give 0.05)
    base = lambda x, y, t: (1 + t) * np.sin(np.pi * x) * np.sin(np.pi * y)
    ref = _toy_reference(base)
    mesh = build_structured_mesh(1.0, 1.0, 32, 32)
    sol = lambda x, y, t: base(x, y, t) + 0.1 * (1 - t)
    rep = compute_error_report(sol, ref, mesh, Nt_eval=10)
    assert rep.linf_l2 == pytest.approx(0.1, rel=1e-2)
    assert rep.linf_rel == pytest.approx(0.2, rel=1e-2)


def test_shared_reference_samples_give_the_same_report():
    base = lambda x, y, t: (1 + t) * np.sin(np.pi * x) * np.sin(np.pi * y)
    ref = _toy_reference(base)
    mesh = build_structured_mesh(1.0, 1.0, 8, 8)
    sol = lambda x, y, t: base(x, y, t) + 0.1 * x * y
    samples = sample_reference(ref, mesh, Nt_eval=10)
    assert samples[0] == mesh
    assert samples[1].shape == (11, 4 * 2 * 8 * 8)
    shared = compute_error_report(sol, ref, mesh, 10, samples)
    own = compute_error_report(sol, ref, mesh, 10)
    assert shared.to_dict() == own.to_dict()
    with pytest.raises(ValueError, match="reference samples of shape"):
        compute_error_report(sol, ref, mesh, 8, samples)


def test_sample_reference_exact_for_bilinear_in_space_linear_in_time():
    # bilinear in space times (1 + t): bilinear readback on a 5 x 3 cell
    # grid and linear interpolation between levels reproduce it exactly
    fn = lambda x, y, t: (1.0 + 2.0 * x - y + 3.0 * x * y) * (1.0 + t)
    X, Y = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 4))
    values = np.stack([fn(X, Y, t) for t in np.linspace(0, 1, 9)])
    ref = ReferenceSolution(WaveProblem(ic="polynomial"), 5, 3, 1 / 8, 8,
                            values)
    mesh = build_structured_mesh(1.0, 1.0, 7, 7)
    pts, w = mesh_quadrature(mesh)
    samples = sample_reference(ref, mesh, Nt_eval=10)
    got = samples[1]
    # a zero field's error is the reference norm, since (0 - v)^2 == v^2
    zero = compute_error_report(lambda x, y, t: 0.0 * x, ref, mesh, 10,
                                samples)
    for n, t in enumerate(np.linspace(0, 1, 11)):
        np.testing.assert_allclose(got[n], fn(pts[:, 0], pts[:, 1], t),
                                   rtol=0, atol=1e-14)
        assert zero.per_snapshot[n] == np.sqrt(w @ got[n] ** 2)


def test_report_mesh_outside_the_reference_rectangle_is_rejected():
    # the reference is read on its own rectangle, so a (0, 2) x (0, 1)
    # mesh has quadrature points where a unit-square reference has no value
    ref = _toy_reference(lambda x, y, t: (1 + t) * np.sin(np.pi * x)
                         * np.sin(np.pi * y), nx=16, Nt=16)
    wide = build_structured_mesh(2.0, 1.0, 6, 6)
    sol = lambda x, y, t: 0.0 * x
    with pytest.raises(ValueError, match="outside the domain"):
        compute_error_report(sol, ref, wide, 10)
    with pytest.raises(ValueError, match="outside the domain"):
        compute_error_report(sol, ref, wide, 10,
                             sample_reference(ref, wide, 10))
    # a smaller mesh inside the reference's rectangle stays legal
    inner = build_structured_mesh(0.5, 0.5, 6, 6)
    rep = compute_error_report(sol, ref, inner, 10)
    assert rep.st_rel == pytest.approx(1.0)


def test_reference_samples_scored_on_another_mesh_are_rejected():
    # both meshes have n = 6, so the samples' shape matches the wide mesh;
    # only the mesh the samples carry tells them apart
    ref = _toy_reference(lambda x, y, t: (1 + t) * np.sin(np.pi * x)
                         * np.sin(np.pi * y), nx=16, Nt=16)
    unit = build_structured_mesh(1.0, 1.0, 6, 6)
    wide = build_structured_mesh(2.0, 1.0, 6, 6)
    sol = lambda x, y, t: 0.0 * x
    with pytest.raises(ValueError, match="reference samples of shape"):
        compute_error_report(sol, ref, wide, 10,
                             sample_reference(ref, unit, 10))
