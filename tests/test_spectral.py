"""Sampling, design matrix, ridge/GCV machinery, surrogate prediction."""

import json
import logging
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal, lapack

from wavebench import spectral
from wavebench.mesh import build_structured_mesh
from wavebench.metrics import mesh_quadrature
from wavebench.problem import WaveProblem, single_mode_solution
from wavebench.spectral import (SpectralBasis, SpectralModel, lhs_sample,
                                DesignMatrix, build_design_matrix,
                                ridge_fit_svd, select_lambda_gcv,
                                default_lambda_grid, fit_spectral_model,
                                predict, _sine_table)


def _singular_values(fit):
    """The design's singular values above round-off, descending, from the
    fit's tridiagonal T = (d, e)."""
    return np.sqrt(eigvalsh_tridiagonal(fit.d, fit.e[:fit.d.size - 1]))[::-1]


# ---------------------------------------------------------------------------
# Latin hypercube sampling

def test_lhs_stratum_occupancy():
    m = 64
    pts = lhs_sample(m, 1.0, 1.0, seed=5)
    for dim in (0, 1):
        strata = np.floor(pts[:, dim] * m).astype(int)
        np.testing.assert_array_equal(np.sort(strata), np.arange(m))


def test_lhs_deterministic():
    a = lhs_sample(100, 1.0, 2.0, seed=7)
    b = lhs_sample(100, 1.0, 2.0, seed=7)
    np.testing.assert_array_equal(a, b)
    c = lhs_sample(100, 1.0, 2.0, seed=8)
    assert not np.array_equal(a, c)


def test_lhs_scales_with_domain():
    pts = lhs_sample(50, 2.0, 3.0, seed=1)
    assert pts[:, 0].max() <= 2.0 and pts[:, 1].max() <= 3.0
    assert pts[:, 0].max() > 1.0 and pts[:, 1].max() > 1.5


def test_lhs_validation():
    with pytest.raises(ValueError):
        lhs_sample(0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# basis and design matrix

def test_sine_table_exact_boundary_zeros():
    t = _sine_table(np.array([0.0, 0.5, 1.0]), 6, 1.0)
    assert np.all(t[0] == 0.0)
    assert np.all(t[2] == 0.0)
    # interior integer multiples snap too: sin(2 pi * 0.5) etc.
    assert t[1, 1] == 0.0 and t[1, 3] == 0.0
    assert t[1, 0] == pytest.approx(1.0)


def test_omegas():
    b = SpectralBasis(3, L1=1.0, L2=2.0, c=3.0)
    w = b.omegas
    assert w.shape == (3, 3)
    assert w[0, 0] == pytest.approx(3 * np.pi * np.sqrt(1 + 0.25))
    assert w[2, 1] == pytest.approx(3 * np.pi * np.sqrt(9 + 1))


def test_omegas_formed_once_and_read_only():
    b = SpectralBasis(3, L1=1.0, L2=2.0, c=3.0)
    w = b.omegas
    assert b.omegas is w and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 0.0
    # the cached table is not a field: equality, hashing and asdict ignore it
    assert b == SpectralBasis(3, L1=1.0, L2=2.0, c=3.0)
    assert hash(b) == hash(SpectralBasis(3, L1=1.0, L2=2.0, c=3.0))
    assert asdict(b) == {"N": 3, "L1": 1.0, "L2": 2.0, "c": 3.0}


@pytest.mark.parametrize("kwargs, message", [
    (dict(N=True), "N must be an integer"),
    (dict(N=2.0), "N must be an integer"),
    (dict(N=0), "N must be an integer"),
    (dict(N=3, L1=np.nan), "finite and positive"),
    (dict(N=3, L2=-1.0), "finite and positive"),
    (dict(N=3, c=np.inf), "finite and positive"),
], ids=["N_bool", "N_float", "N_zero", "L1_nan", "L2_negative", "c_inf"])
def test_basis_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SpectralBasis(**kwargs)


def test_design_matrix_column_order():
    # column (j-1)*N + (k-1) holds sin(j pi x) sin(k pi y)
    pts = lhs_sample(40, 1.0, 1.0, seed=2)
    basis = SpectralBasis(4)
    Phi = build_design_matrix(pts, basis)
    assert Phi.values.shape == (40, 16)
    x, y = pts[:, 0], pts[:, 1]
    for j, k in ((1, 1), (2, 3), (4, 2)):
        col = (j - 1) * 4 + (k - 1)
        np.testing.assert_allclose(
            Phi.values[:, col],
            np.sin(j * np.pi * x) * np.sin(k * np.pi * y), atol=1e-14)


def test_design_matrix_rejects_outside_points():
    basis = SpectralBasis(2)
    # NaN compares false both ways, so it must fail the check, not slip past
    for point in ([0.5, 1.5], [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5],
                  [0.5, -np.inf]):
        with pytest.raises(ValueError, match="outside the closed rectangle"):
            build_design_matrix(np.array([[0.2, 0.3], point]), basis)


def _design_points(kind, L1, L2):
    if kind == "jittered":
        return lhs_sample(200, L1, L2, seed=3)
    if kind == "midpoint":
        # stratum centres (i + 1/2) L / 4 are exact zeros of mode 8
        centres = (np.arange(4) + 0.5) / 4
        return np.column_stack([centres * L1, centres[::-1] * L2])
    # closed edges and corners, plus interior points
    rng = np.random.default_rng(6)
    pts = rng.random((40, 2)) * [L1, L2]
    pts[:10, 0] = 0.0
    pts[10:20, 0] = L1
    pts[20:25, 1] = 0.0
    pts[25:30, 1] = L2
    return pts


@pytest.mark.parametrize("kind", ["jittered", "midpoint", "edges"])
@pytest.mark.parametrize("N", [1, 3, 8])
def test_design_gram_and_rmatvec_match_dense(N, kind):
    L1, L2 = 1.3, 0.7
    pts = _design_points(kind, L1, L2)
    Phi = build_design_matrix(pts, SpectralBasis(N, L1, L2))
    A = Phi.values
    assert Phi.shape == A.shape == (pts.shape[0], N * N)
    if kind == "midpoint" and N == 8:
        assert np.any(Phi.sx[:, 7] == 0.0) and np.any(Phi.sy[:, 7] == 0.0)
    # the upper triangle, which is what dsytrd reads
    G_ref = np.triu(A.T @ A)
    G = np.triu(Phi._gram_upper())
    assert np.max(np.abs(G - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))
    u = np.random.default_rng(N).standard_normal(pts.shape[0])
    b_ref = A.T @ u
    b = Phi.rmatvec(u)
    assert np.max(np.abs(b - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))


@pytest.mark.parametrize("L1,L2", [(1.0, 1.0), (1.3, 0.7)])
def test_design_moments_match_the_cosine_product(L1, L2):
    N = 8
    pts = lhs_sample(500, L1, L2, seed=12)
    d = np.pi * np.arange(2 * N + 1)
    M_ref = (np.cos(np.multiply.outer(pts[:, 0] / L1, d)).T
             @ np.cos(np.multiply.outer(pts[:, 1] / L2, d)))
    M = build_design_matrix(pts, SpectralBasis(N, L1, L2)).moments
    assert M.shape == (2 * N + 1, 2 * N + 1)
    assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))


def test_ridge_design_matrix_matches_array():
    pts = lhs_sample(300, 1.0, 1.0, seed=4)
    Phi = build_design_matrix(pts, SpectralBasis(8))
    u = WaveProblem(ic="polynomial").initial_condition()(pts[:, 0], pts[:, 1])
    fit_tab = ridge_fit_svd(Phi, u)
    fit_arr = ridge_fit_svd(Phi.values, u)
    np.testing.assert_allclose(_singular_values(fit_tab),
                               _singular_values(fit_arr), rtol=1e-10)
    w_tab, w_arr = fit_tab.coefficients(1e-3), fit_arr.coefficients(1e-3)
    assert np.linalg.norm(w_tab - w_arr) <= 1e-10 * np.linalg.norm(w_arr)
    for lam in default_lambda_grid():
        assert fit_tab.edof(lam) == pytest.approx(fit_arr.edof(lam), rel=1e-10)
        assert fit_tab.gcv(lam) == pytest.approx(fit_arr.gcv(lam), rel=1e-10)


def test_fit_projects_the_samples_once(monkeypatch):
    calls = []
    rmatvec = DesignMatrix.rmatvec
    monkeypatch.setattr(DesignMatrix, "rmatvec",
                        lambda self, u: calls.append(1) or rmatvec(self, u))
    fit_spectral_model(WaveProblem(ic="polynomial"), 6, 300, seed=1)
    assert calls == [1]


def test_fit_is_bound_to_its_samples():
    pts = lhs_sample(150, 1.0, 1.0, seed=8)
    Phi = build_design_matrix(pts, SpectralBasis(5))
    rng = np.random.default_rng(9)
    u = rng.standard_normal(150)
    fit = ridge_fit_svd(Phi, u)
    before = [fit.gcv(lam) for lam in (1e-6, 1e-3, 1.0)]
    u[:] = rng.standard_normal(150)   # changed in place after the fit
    assert [fit.gcv(lam) for lam in (1e-6, 1e-3, 1.0)] == before
    assert ridge_fit_svd(Phi, u).gcv(1e-3) != before[1]


# ---------------------------------------------------------------------------
# ridge via SVD, against the dense normal-equations oracle

@pytest.mark.parametrize("shape,lam", [((50, 20), 0.1), ((200, 100), 1e-3),
                                       ((30, 30), 1.0)])
def test_ridge_matches_normal_equations(shape, lam):
    rng = np.random.default_rng(11)
    A = rng.standard_normal(shape)
    u = rng.standard_normal(shape[0])
    w = ridge_fit_svd(A, u).coefficients(lam)
    w_ref = np.linalg.solve(A.T @ A + lam * np.eye(shape[1]), A.T @ u)
    assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)


def test_ridge_zero_lambda_full_rank():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((20, 5))
    u = rng.standard_normal(20)
    w = ridge_fit_svd(A, u).coefficients(0.0)
    w_ref, *_ = np.linalg.lstsq(A, u, rcond=None)
    np.testing.assert_allclose(w, w_ref, atol=1e-10)


def test_ridge_zero_lambda_rank_deficient_raises():
    A = np.ones((10, 3))
    u = np.ones(10)
    fit = ridge_fit_svd(A, u)
    with pytest.raises(np.linalg.LinAlgError):
        fit.coefficients(0.0)


@pytest.mark.parametrize("kind", ["rank_one", "zero", "wide"])
def test_svd_route_edof_matches_dense_hat_matrix(kind):
    # the SVD route keeps only the directions above round-off, so the pivot
    # trace counts each kept direction and nothing else (none for a zero
    # design, whose weights are zero)
    A = {"rank_one": np.ones((10, 3)), "zero": np.zeros((10, 3)),
         "wide": build_design_matrix(lhs_sample(20, 1.0, 1.0, seed=0),
                                     SpectralBasis(6)).values}[kind]
    fit = ridge_fit_svd(A, np.random.default_rng(3).standard_normal(len(A)))
    assert fit.factor == "svd"
    n = A.shape[1]
    for lam in default_lambda_grid():
        H = A @ np.linalg.solve(A.T @ A + lam * np.eye(n), A.T)
        assert fit.edof(lam) == pytest.approx(np.trace(H), rel=1e-10)
    if kind != "wide":
        with pytest.raises(np.linalg.LinAlgError):
            fit.coefficients(0.0)
    if kind == "zero":
        assert np.all(fit.coefficients(1e-3) == 0.0)


def test_ridge_validation():
    A = np.ones((4, 2))
    fit = ridge_fit_svd(A, np.ones(4))
    with pytest.raises(ValueError):
        fit.coefficients(-1.0)
    with pytest.raises(ValueError):
        fit.edof(-1.0)
    with pytest.raises(ValueError):
        ridge_fit_svd(A, np.ones(3))
    A_bad = A.copy()
    A_bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ridge_fit_svd(A_bad, np.ones(4))



@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_ridge_rejects_empty_design(shape, monkeypatch):
    # rejected before any BLAS call: with no BLAS module a call would fail
    # with AttributeError instead
    monkeypatch.setattr(spectral, "blas", None)
    with pytest.raises(ValueError, match=f"empty {shape[0]}x{shape[1]} design"):
        ridge_fit_svd(np.zeros(shape), np.zeros(shape[0]))

def _svd_oracle(A, u, lam):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return s, Vt.T @ (s / (s**2 + lam) * (U.T @ u))


def test_ridge_gram_route_matches_direct_svd(monkeypatch):
    # the LHS sine design is well conditioned, so the fit takes the Gram
    # route and never calls the direct SVD
    pts = lhs_sample(300, 1.0, 1.0, seed=4)
    A = build_design_matrix(pts, SpectralBasis(8)).values
    u = WaveProblem(ic="polynomial").initial_condition()(pts[:, 0], pts[:, 1])
    s_ref = np.linalg.svd(A, compute_uv=False)
    oracles = {lam: _svd_oracle(A, u, lam)[1]
               for lam in (1e-8, 1e-4, 1e-2, 1.0)}

    def no_svd(*args, **kwargs):
        raise AssertionError("well-conditioned design took the SVD route")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    fit = ridge_fit_svd(A, u)
    np.testing.assert_allclose(_singular_values(fit), s_ref, rtol=1e-10)
    for lam, w_ref in oracles.items():
        w = fit.coefficients(lam)
        assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)
        edof_ref = np.sum(s_ref**2 / (s_ref**2 + lam))
        assert fit.edof(lam) == pytest.approx(edof_ref, rel=1e-10)
        resid = u - A @ w_ref
        gcv_ref = (resid @ resid) / (300 - edof_ref) ** 2
        assert fit.gcv(lam) == pytest.approx(gcv_ref, rel=1e-10)


@pytest.mark.parametrize("kind", ["ill_conditioned", "wide"])
def test_ridge_svd_fallback_matches_oracle(kind, monkeypatch):
    rng = np.random.default_rng(21)
    if kind == "ill_conditioned":
        pts = lhs_sample(300, 1.0, 1.0, seed=4)
        A = build_design_matrix(pts, SpectralBasis(8)).values
        A = A * np.logspace(0.0, -6.0, A.shape[1])    # cond(A) about 1e6
    else:
        A = rng.standard_normal((30, 100))
    u = rng.standard_normal(A.shape[0])
    lam = 1e-8 if kind == "ill_conditioned" else 1e-2
    s_ref, w_ref = _svd_oracle(A, u, lam)
    if kind == "ill_conditioned":
        assert s_ref[0] / s_ref[-1] > 1e5

    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    fit = ridge_fit_svd(A, u)
    w = fit.coefficients(lam)
    assert calls == [1]
    np.testing.assert_allclose(_singular_values(fit), s_ref, rtol=1e-12)
    assert np.linalg.norm(w - w_ref) <= 1e-10 * np.linalg.norm(w_ref)


# ---------------------------------------------------------------------------
# GCV

def test_gcv_matches_dense_hat_matrix():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((60, 25))
    u = rng.standard_normal(60)
    fit = ridge_fit_svd(A, u)
    for lam in (1e-6, 1e-2, 1.0, 50.0):
        H = A @ np.linalg.solve(A.T @ A + lam * np.eye(25), A.T)
        resid = u - H @ u
        gcv_ref = (resid @ resid) / (60 - np.trace(H)) ** 2
        assert fit.gcv(lam) == pytest.approx(gcv_ref, rel=1e-10)
        assert fit.edof(lam) == pytest.approx(np.trace(H), rel=1e-10)


def test_gcv_closed_form():
    # diagonal design Phi = diag(1, 2), u = (1, 1), lam = 1:
    # rss = 1/4 + 1/25, edof = 1/2 + 4/5, gcv = rss / (2 - 1.3)^2
    A = np.diag([1.0, 2.0])
    u = np.array([1.0, 1.0])
    fit = ridge_fit_svd(A, u)
    assert fit.edof(1.0) == pytest.approx(1.3)
    assert fit.gcv(1.0) == pytest.approx((0.25 + 0.04) / 0.49)


def test_gcv_rank_deficient_design():
    # U^T u is Vt (A^T u) / s, so directions with s at round-off level
    # must be dropped rather than divided by s
    A = np.column_stack([np.ones(10), np.ones(10), np.arange(10.0)])
    A = np.column_stack([A, A[:, 0] + A[:, 2]])      # rank 2 of 4
    u = np.random.default_rng(0).standard_normal(10)
    fit = ridge_fit_svd(A, u)
    for lam in (1e-6, 1e-2, 1.0):
        w = fit.coefficients(lam)
        H = A @ np.linalg.solve(A.T @ A + lam * np.eye(4), A.T)
        resid = u - H @ u
        gcv_ref = (resid @ resid) / (10 - np.trace(H)) ** 2
        assert fit.gcv(lam) == pytest.approx(gcv_ref, rel=1e-10)
        w_ref = np.linalg.solve(A.T @ A + lam * np.eye(4), A.T @ u)
        assert np.linalg.norm(w - w_ref) <= 1e-7 * np.linalg.norm(w_ref)


def test_gcv_requires_positive_lambda():
    fit = ridge_fit_svd(np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        fit.gcv(0.0)


def test_default_lambda_grid():
    grid = default_lambda_grid()
    assert grid.size == 113
    assert grid[0] == pytest.approx(1e-12)
    assert grid[-1] == pytest.approx(1e2)
    # 8 points per decade
    assert grid[8] / grid[0] == pytest.approx(10.0)


def test_gcv_constant_for_orthonormal_design():
    # with an orthonormal design and u in its column space the GCV score
    # is constant in lambda: shrinkage and the denominator cancel exactly
    u = np.array([1.0, 2.0])
    fit = ridge_fit_svd(np.eye(2), u)
    for lam in (1e-3, 1.0, 1e3):
        assert fit.gcv(lam) == pytest.approx(5.0 / 4.0)
    _, _, score, _ = select_lambda_gcv(fit, np.logspace(-3, 3, 13))
    assert score == pytest.approx(5.0 / 4.0)


def test_select_lambda_tie_breaks_large():
    # exact score ties must resolve to the largest (most regularizing)
    # grid value; u = 0 has zero residual, so every GCV score is exactly 0
    fit = ridge_fit_svd(np.eye(2), np.zeros(2))
    grid = np.logspace(-3, 3, 13)
    assert all(fit.gcv(lam) == 0.0 for lam in grid)
    lam, _, score, _ = select_lambda_gcv(fit, grid)
    assert lam == grid[-1]
    assert score == 0.0


def test_select_lambda_finds_interior_minimum():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((80, 30))
    w_true = np.zeros(30)
    w_true[:3] = [1.0, -2.0, 0.5]
    u = A @ w_true + 0.1 * rng.standard_normal(80)
    fit = ridge_fit_svd(A, u)
    lam, edof, score, _ = select_lambda_gcv(fit)
    grid = default_lambda_grid()
    grid_scores = [fit.gcv(g) for g in grid]
    assert score <= min(grid_scores) * (1 + 1e-12)
    assert 0 < edof <= 30


def test_select_lambda_validation():
    fit = ridge_fit_svd(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        select_lambda_gcv(fit, np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# full surrogate

def test_single_mode_recovery():
    prob = WaveProblem(ic="single_mode")
    model = fit_spectral_model(prob, N=6, m=400, seed=3)
    w = model.weights.reshape(6, 6)
    assert w[0, 0] == pytest.approx(1.0, abs=1e-5)
    others = w.copy()
    others[0, 0] = 0.0
    assert np.max(np.abs(others)) < 1e-5
    # prediction matches the closed-form solution
    rng = np.random.default_rng(4)
    x, y = rng.random(30), rng.random(30)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(predict(model, x, y, t),
                                   single_mode_solution(x, y, t), atol=1e-4)


def test_predict_grid_matches_pointwise():
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=5, m=200, seed=0)
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(0, 1, 9)
    X, Y = np.meshgrid(xs, ys)
    G = predict(model, X.ravel(), Y.ravel(), 0.4).reshape(X.shape)
    # separable oracle: sum_jk w_jk cos(w_jk t) sin_j(x) sin_k(y)
    Wt = model.weights.reshape(5, 5) * np.cos(model.basis.omegas * 0.4)
    oracle = _sine_table(ys, 5, 1.0) @ Wt.T @ _sine_table(xs, 5, 1.0).T
    np.testing.assert_allclose(G, oracle, atol=1e-13)
    pointwise = [[predict(model, x, y, 0.4) for x in xs] for y in ys]
    np.testing.assert_allclose(G, pointwise, atol=1e-13)


def test_predict_shares_one_table_slot_per_point_set():
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=5, m=200, seed=0)
    twin = fit_spectral_model(prob, N=5, m=200, seed=1)     # the same basis
    rng = np.random.default_rng(12)
    x, y = rng.random(50), rng.random(50)
    misses = lambda: spectral._point_tables.cache_info().misses
    slot = lambda: spectral._point_tables(5, 1.0, 1.0, x.tobytes(), y.tobytes())

    def oracle(model, t):
        Wt = model.weights.reshape(5, 5) * np.cos(model.basis.omegas * t)
        return np.einsum("pj,jk,pk->p", _sine_table(x, 5, 1.0), Wt,
                         _sine_table(y, 5, 1.0))

    first = predict(model, x, y, 0.3)
    built = misses()
    sx, inv, sy = slot()
    assert misses() == built                # predict filled the slot
    np.testing.assert_array_equal(sx[inv], _sine_table(x, 5, 1.0))
    np.testing.assert_array_equal(sy, _sine_table(y, 5, 1.0))
    assert not any(a.flags.writeable for a in (sx, inv, sy))
    with pytest.raises(ValueError, match="read-only"):
        sy[0, 0] = 1.0
    # equal values, and another model of the same basis, reuse the tables
    np.testing.assert_array_equal(predict(model, x.copy(), y.copy(), 0.3), first)
    np.testing.assert_allclose(predict(twin, x, y, 0.8), oracle(twin, 0.8),
                               atol=1e-15)
    assert misses() == built and slot()[0] is sx
    predict(model, rng.random(7), rng.random(7), 0.3)    # scattered points
    np.testing.assert_allclose(predict(model, x, y, 0.8), oracle(model, 0.8),
                               atol=1e-15)
    assert misses() == built + 2 and slot()[0] is not sx
    for N, L1, L2 in ((6, 1.0, 1.0), (5, 2.0, 1.0), (5, 1.0, 2.0)):
        other = SpectralModel(SpectralBasis(N, L1, L2), np.ones(N * N), 0.0, 0.0)
        predict(other, x, y, 0.8)
    assert misses() == built + 5            # another N, L1 or L2 misses
    x[:] = rng.random(50)             # the same arrays, changed in place
    y[::2] = 0.5
    np.testing.assert_allclose(predict(model, x, y, 0.8), oracle(model, 0.8),
                               atol=1e-15)
    assert misses() == built + 6
    hits = spectral._point_tables.cache_info().hits
    with pytest.raises(ValueError, match="outside the closed rectangle"):
        predict(model, np.r_[x[:3], np.nan], y[:4], 0.8)
    slot()                  # a rejected point set leaves the slot as it was
    assert spectral._point_tables.cache_info().hits == hits + 1


def test_predict_matches_the_per_point_product_bit_for_bit():
    # the distinct-x table gathers the same rows that a table over every
    # point holds, so each point sums the same products in the same order
    prob = WaveProblem(ic="mollifier")
    model = fit_spectral_model(prob, N=12, m=600, seed=4)
    rng = np.random.default_rng(8)
    quad = mesh_quadrature(build_structured_mesh(1.0, 1.0, 12, 12))[0]
    x, y = quad[:, 0].copy(), quad[:, 1].copy()
    assert np.unique(x).size == 79
    scattered = rng.random(50), rng.random(50)

    def oracle(x, y, t):
        Wt = model.weights.reshape(12, 12) * np.cos(model.basis.omegas * t)
        sx, sy = _sine_table(x, 12, 1.0), _sine_table(y, 12, 1.0)
        per_point = np.einsum("pk,pk->p", sx @ Wt, sy)
        # the three-operand contraction sums in another order
        np.testing.assert_allclose(per_point,
                                   np.einsum("pj,jk,pk->p", sx, Wt, sy),
                                   rtol=0, atol=1e-14)
        return per_point

    def check(px, py):
        for t in (0.0, 0.35, 1.0):
            np.testing.assert_array_equal(predict(model, px, py, t),
                                          oracle(px, py, t))
    check(x, y)
    check(*scattered)
    check(x, y)
    x[::3] = rng.random(x[::3].size)         # the same arrays, changed in place
    y[1::2] = 0.5
    check(x, y)


def test_predict_keeps_the_broadcast_shape():
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=5, m=200, seed=0)
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0.1, 0.9, 4))
    G = predict(model, X, Y, 0.6)
    assert G.shape == (4, 5)
    pointwise = [[predict(model, a, b, 0.6) for a, b in zip(xr, yr)]
                 for xr, yr in zip(X, Y)]
    np.testing.assert_allclose(G, pointwise, rtol=0, atol=1e-15)
    assert isinstance(predict(model, 0.3, 0.4, 0.6), float)
    row = predict(model, X[0], 0.1, 0.6)        # a scalar y broadcasts
    assert row.shape == (5,)
    np.testing.assert_array_equal(row, G[0])


@pytest.mark.parametrize("x, y, t", [(np.nan, 0.5, 0.1), (0.5, np.nan, 0.1),
                                     (np.inf, 0.5, 0.1), (0.5, 0.5, np.nan),
                                     (0.5, 0.5, np.inf)])
def test_predict_rejects_non_finite_points_and_times(x, y, t):
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=3, m=50, seed=0)
    message = "time must be" if np.isfinite(x) and np.isfinite(y) \
        else "outside the closed rectangle"
    with pytest.raises(ValueError, match=message):
        predict(model, np.array([0.2, x]), np.array([0.2, y]), t)


def test_predict_boundary_exactly_zero():
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=4, m=100, seed=1)
    rng = np.random.default_rng(5)
    s = rng.random(20)
    for t in (0.0, 0.7):
        assert np.all(predict(model, np.zeros(20), s, t) == 0.0)
        assert np.all(predict(model, np.ones(20), s, t) == 0.0)
        assert np.all(predict(model, s, np.zeros(20), t) == 0.0)
        assert np.all(predict(model, s, np.ones(20), t) == 0.0)


def test_predict_validation():
    prob = WaveProblem(ic="polynomial")
    model = fit_spectral_model(prob, N=3, m=50, seed=0)
    with pytest.raises(ValueError):
        predict(model, 0.5, 0.5, -0.1)
    with pytest.raises(ValueError):
        predict(model, 1.5, 0.5, 0.1)


def test_model_json_roundtrip():
    prob = WaveProblem(ic="mollifier")
    model = fit_spectral_model(prob, N=4, m=120, seed=9)
    back = SpectralModel.from_json(model.to_json())
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.lam == model.lam
    assert back.edof == model.edof
    assert back.basis == model.basis
    assert back.diagnostics["seed"] == 9


@pytest.mark.parametrize("key, value, message", [
    ("weights", float("nan"), "weights, lambda and edof must be finite"),
    ("weights", float("inf"), "weights, lambda and edof must be finite"),
    ("lambda", float("nan"), "weights, lambda and edof must be finite"),
    ("lambda", float("inf"), "weights, lambda and edof must be finite"),
    ("lambda", -1e-3, "weights, lambda and edof must be finite"),
    ("edof", float("nan"), "weights, lambda and edof must be finite"),
    ("L1", float("nan"), "finite and positive"),
    ("c", float("inf"), "finite and positive"),
    ("N", True, "N must be an integer"),
])
def test_model_json_rejects_non_finite_values(key, value, message):
    # Python's json reads NaN and Infinity, so a model file can carry them
    model = fit_spectral_model(WaveProblem(ic="polynomial"), N=1, m=30, seed=0)
    doc = json.loads(model.to_json())
    if key == "weights":
        doc["weights"][0] = value
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=message):
        SpectralModel.from_json(json.dumps(doc))


def test_fit_deterministic():
    prob = WaveProblem(ic="polynomial")
    a = fit_spectral_model(prob, N=4, m=150, seed=2)
    b = fit_spectral_model(prob, N=4, m=150, seed=2)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.lam == b.lam


# ---------------------------------------------------------------------------
# tridiagonal route and fit diagnostics

def test_tridiagonal_route_matches_dense_svd_and_normal_equations():
    pts = lhs_sample(600, 1.0, 1.0, seed=5)
    Phi = build_design_matrix(pts, SpectralBasis(12))
    A = Phi.values
    u = np.random.default_rng(31).standard_normal(600)
    s_ref = np.linalg.svd(A, compute_uv=False)
    fit = ridge_fit_svd(Phi, u)
    assert fit.factor == "tridiagonal"
    np.testing.assert_allclose(_singular_values(fit), s_ref, rtol=1e-12)
    G, b = A.T @ A, A.T @ u
    for lam in default_lambda_grid():
        w_ref = np.linalg.solve(G + lam * np.eye(144), b)
        w = fit.coefficients(lam)
        assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
        resid = u - A @ w_ref
        edof_ref = np.sum(s_ref**2 / (s_ref**2 + lam))
        assert fit.rss(lam) == pytest.approx(resid @ resid, rel=1e-10)
        assert fit.edof(lam) == pytest.approx(edof_ref, rel=1e-10)
        assert fit.gcv(lam) == pytest.approx(
            (resid @ resid) / (600 - edof_ref) ** 2, rel=1e-10)


def test_desk_fit_forms_no_eigenvectors(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Gram route called a dense eigen/SVD solver "
                             "or formed the whole spectrum")
    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(lapack, "dsterf", forbidden)
    fits = []
    monkeypatch.setattr(spectral, "ridge_fit_svd",
                        lambda *a: fits.append(ridge_fit_svd(*a)) or fits[-1])
    model = fit_spectral_model(WaveProblem(ic="polynomial"), 40, 5000, seed=0)
    d = model.diagnostics
    assert sorted(d) == sorted(["seed", "factor", "ev_ratio",
                                "lambda_at_grid_edge", "design_s", "factor_s",
                                "gcv_s"])
    assert d["factor"] == "tridiagonal"
    assert 1.0 < d["ev_ratio"] < 1e6
    assert d["lambda_at_grid_edge"] is False
    assert float(predict(model, 0.5, 0.5, 0.0)) == pytest.approx(1 / 16, rel=1e-4)
    # the pivot trace against the spectrum, formed here from the fit's T
    monkeypatch.undo()
    s2 = _singular_values(fits[0]) ** 2
    assert s2.size == 1600
    for lam in default_lambda_grid():
        assert fits[0].edof(lam) == pytest.approx(np.sum(s2 / (s2 + lam)),
                                                  rel=1e-12)


def test_desk_fit_runs_its_products_on_scipys_blas(monkeypatch):
    # numpy and scipy each load their own OpenBLAS with its own thread pool,
    # whose worker spins for about 0.1 s after a threaded call; a numpy
    # product next to scipy's dsytrd stalls on the other pool's worker, so
    # the fit's two products go through scipy's dgemm
    shapes = []
    dgemm = spectral.blas.dgemm

    def recorded(alpha, a, b, *args, **kwargs):
        assert a.flags.f_contiguous and b.flags.f_contiguous   # not copied
        out = dgemm(alpha, a, b, *args, **kwargs)
        shapes.append((a.shape, b.shape, out.shape))
        return out
    monkeypatch.setattr(spectral.blas, "dgemm", recorded)
    fit_spectral_model(WaveProblem(ic="polynomial"), 40, 5000, seed=0)
    assert sorted(shapes) == [((40, 5000), (40, 5000), (40, 40)),
                              ((81, 5000), (81, 5000), (81, 81))]


def test_wide_design_reports_svd(caplog):
    with caplog.at_level(logging.WARNING, logger="wavebench"):
        model = fit_spectral_model(WaveProblem(ic="polynomial"), 6, 20, seed=0)
    assert model.diagnostics["factor"] == "svd"
    assert model.diagnostics["ev_ratio"] is None        # Phi^T Phi is singular
    assert caplog.messages == ["ridge fit of a 20x36 design takes the SVD "
                               "route: wide design"]


@pytest.mark.parametrize("ratio,factor", [(0.99e6, "tridiagonal"),
                                          (1.01e6, "svd")])
def test_svd_fallback_past_the_eigenvalue_ratio(ratio, factor, caplog):
    rng = np.random.default_rng(41)
    U, _ = np.linalg.qr(rng.standard_normal((40, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.geomspace(1.0, ratio ** -0.5, 6)
    A = U * s @ V.T
    u = rng.standard_normal(40)
    with caplog.at_level(logging.WARNING, logger="wavebench"):
        fit = ridge_fit_svd(A, u)
    assert fit.factor == factor
    assert caplog.messages == ([] if factor == "tridiagonal" else [
        "ridge fit of a 40x6 design takes the SVD route: eigenvalue ratio "
        "above 1e+06"])
    lam = 1e-9
    w_ref = V @ (s / (s**2 + lam) * (U.T @ u))
    assert np.linalg.norm(fit.coefficients(lam) - w_ref) <= 1e-6 * np.linalg.norm(w_ref)


def test_single_mode_per_direction_fit():
    pts = lhs_sample(30, 1.0, 1.0, seed=2)
    Phi = build_design_matrix(pts, SpectralBasis(1))
    u = WaveProblem(ic="polynomial").initial_condition()(pts[:, 0], pts[:, 1])
    fit = ridge_fit_svd(Phi, u)
    assert fit.factor == "tridiagonal"
    A = Phi.values
    np.testing.assert_allclose(_singular_values(fit), [np.linalg.norm(A)],
                               rtol=1e-14)
    w_ref = (A[:, 0] @ u) / (A[:, 0] @ A[:, 0] + 1e-3)
    np.testing.assert_allclose(fit.coefficients(1e-3), [w_ref], rtol=1e-14)
    model = fit_spectral_model(WaveProblem(ic="polynomial"), 1, 30, seed=2)
    assert model.weights.shape == (1,)
    assert model.diagnostics["ev_ratio"] == 1.0


def _end_interval_rule(problem, N, m, seed, lam):
    """The grid-edge verdict from GCV at the grid's two ends: lambda in an
    end interval, with the end point's score below its neighbour's (not
    above it at the large end, where ties go)."""
    basis = SpectralBasis(N, problem.L1, problem.L2, problem.c)
    pts = lhs_sample(m, problem.L1, problem.L2, seed=seed)
    u = problem.initial_condition()(pts[:, 0], pts[:, 1])
    fit = ridge_fit_svd(build_design_matrix(pts, basis), u)
    g = default_lambda_grid()
    return bool((lam < g[1] and fit.gcv(g[0]) < fit.gcv(g[1]))
                or (lam > g[-2] and fit.gcv(g[-1]) <= fit.gcv(g[-2])))


@pytest.mark.parametrize("ic", ["polynomial", "mollifier"])
@pytest.mark.parametrize("N, m", [(8, 64), (12, 120)])
def test_grid_edge_flag_matches_the_end_interval_rule(ic, N, m):
    problem = WaveProblem(ic=ic)
    at_edge = []
    for seed in range(10):
        model = fit_spectral_model(problem, N, m, seed)
        edge = model.diagnostics["lambda_at_grid_edge"]
        assert edge is _end_interval_rule(problem, N, m, seed, model.lam)
        if edge:
            at_edge.append(seed)
            assert model.lam < default_lambda_grid()[1]
    # the low-edge fits among these 40
    assert at_edge == {("polynomial", 8): [3], ("mollifier", 12): [9]}.get(
        (ic, N), [])


def test_in_range_data_select_the_smallest_grid_lambda():
    # u = A w lies in col(A), so the residual is lam^2-small and GCV grows
    # with lam; this design keeps the fit exact (nothing outside the range)
    A = np.vstack([np.diag([1.0, 2.0, 4.0]), np.zeros((3, 3))])
    fit = ridge_fit_svd(A, A @ np.array([1.0, -1.0, 2.0]))
    assert fit.out_of_range == 0.0
    lam, _, _, at_edge = select_lambda_gcv(fit)
    assert lam == default_lambda_grid()[0] == 1e-12
    assert at_edge is True


def test_zero_samples_report_grid_edge_lambda():
    zero = SimpleNamespace(L1=1.0, L2=1.0, c=1.0, T=1.0,
                           initial_condition=lambda: lambda x, y: 0.0 * x)
    model = fit_spectral_model(zero, 4, 100, seed=0)
    assert model.diagnostics["lambda_at_grid_edge"] is True
    assert model.lam == default_lambda_grid()[-1]
    assert np.all(model.weights == 0.0)
