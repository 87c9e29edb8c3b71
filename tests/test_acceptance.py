"""Acceptance gate: the ten release criteria, one verdict line each.

The first three criteria reproduce the published accuracy tables at full
scale (400 x 400 reference, N = 40, m = 5000). On a cold cache the whole
Tier-1 run took 20-23 s on a 2-vCPU VM, 10-15 s of it in the
`paper_references` fixture, which builds both 400 x 400 references side by
side in two processes (alone, the polynomial's build, on a quarter of the
unknowns, takes 5.9 s and the mollifier's, on half, 12.5 s). They are cached
under /tmp/wbench, 0.26 and 0.52 GB, and reused afterwards, when Tier-1
took 8.5-13 s. The matched FEM solve uses the one-sided stiffness average
(`paper_update`) that those tables were produced with; the conserving
scheme is exercised separately by criteria 6 and 7.
"""

import csv
import io
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wavebench import fem, metrics, reference, spectral
from wavebench.dof_matching import match_cn_to_dof
from wavebench.mesh import build_structured_mesh
from wavebench.metrics import mesh_quadrature, simpson_weights
from wavebench.problem import WaveProblem, single_mode_solution
from wavebench.runner import ExperimentConfig, get_reference, run_benchmark

PAPER_DIR = "/tmp/wbench"
GRID_STEP = 10 ** (1.0 / 8)      # one step of the 8-per-decade lambda grid
PAPER_ICS = ("polynomial", "mollifier")


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _paper_config(ic: str) -> ExperimentConfig:
    return ExperimentConfig(ic=ic, paper_update=True,
                            output_dir=PAPER_DIR).paper_scale()


def _cache_path(ic: str) -> Path:
    config = _paper_config(ic)
    return Path(PAPER_DIR) / "cache" / reference.cache_filename(
        config.problem(), config.ref_nx, config.ref_ny,
        reference.step_count(config.T, config.dt_ref))


@pytest.fixture(scope="session", autouse=True)
def prune_stale_references():
    """Delete the 400 x 400 references that older code left in the cache.

    The cache name carries a digest of the solver source, so each change to
    that source leaves two stale files of about 1 GB behind. Only the two
    names the current code gives are kept.
    """
    keep = {_cache_path(ic).name for ic in PAPER_ICS}
    for path in (Path(PAPER_DIR) / "cache").glob("ref_*_400x400_nt800_*.wben"):
        if path.name not in keep:
            path.unlink(missing_ok=True)


def _build_reference(ic: str) -> None:
    """Build one paper-scale reference into the cache (a pool worker)."""
    get_reference(_paper_config(ic))


@pytest.fixture(scope="session")
def paper_references(prune_stale_references):
    """Build the missing 400 x 400 references side by side, one process
    each, so that a cold cache costs the longer build, not both."""
    missing = [ic for ic in PAPER_ICS if not _cache_path(ic).exists()]
    if missing:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(len(missing), mp_context=spawn) as pool:
            for build in [pool.submit(_build_reference, ic) for ic in missing]:
                build.result(timeout=900)


@pytest.fixture(scope="session")
def poly_result(paper_references):
    return run_benchmark(_paper_config("polynomial"))


@pytest.fixture(scope="session")
def moll_result(paper_references):
    return run_benchmark(_paper_config("mollifier"))


def test_criterion_1_table1_polynomial(poly_result):
    ep, cn = poly_result.ep_report, poly_result.cn_report
    ok = (ep.st_rel <= 0.005
          and 0.25 <= cn.st_rel <= 0.40
          and poly_result.improvement_st >= 50)
    assert _verdict(1, ok,
                    f"polynomial st_rel: bepgp {ep.st_rel:.3e} (<= 5e-3), "
                    f"cn {cn.st_rel:.4f} (in [0.25, 0.40]), "
                    f"improvement {poly_result.improvement_st:.0f}x (>= 50)")


def test_criterion_2_table1_mollifier(moll_result):
    ep, cn = moll_result.ep_report, moll_result.cn_report
    ok = (ep.st_rel <= 0.03
          and 0.60 <= cn.st_rel <= 0.90
          and moll_result.improvement_st >= 20)
    assert _verdict(2, ok,
                    f"mollifier st_rel: bepgp {ep.st_rel:.3e} (<= 3e-2), "
                    f"cn {cn.st_rel:.4f} (in [0.60, 0.90]), "
                    f"improvement {moll_result.improvement_st:.0f}x (>= 20)")


def test_criterion_3_table2_max_in_time(poly_result, moll_result):
    pe, pc = poly_result.ep_report, poly_result.cn_report
    me, mc = moll_result.ep_report, moll_result.cn_report
    ok = (pe.linf_rel <= 0.005 and 0.28 <= pc.linf_rel <= 0.45
          and me.linf_rel <= 0.04 and 0.65 <= mc.linf_rel <= 0.95)
    assert _verdict(3, ok,
                    f"linf_rel: poly bepgp {pe.linf_rel:.3e} (<= 5e-3), "
                    f"poly cn {pc.linf_rel:.4f} (in [0.28, 0.45]); "
                    f"moll bepgp {me.linf_rel:.3e} (<= 4e-2), "
                    f"moll cn {mc.linf_rel:.4f} (in [0.65, 0.95])")


def test_criterion_4_dof_matching(poly_result):
    t0 = time.perf_counter()
    match = match_cn_to_dof(1600, 1.0)
    seconds = time.perf_counter() - t0
    edof = poly_result.model.edof
    ok = (abs(edof - 1600) <= 5
          and match.n == 12 and match.dt == pytest.approx(1 / 12)
          and match.dof_cn == 1573 and seconds < 1.0)
    assert _verdict(4, ok,
                    f"edof {edof:.2f} (1600 +- 5); match(1600, 1) -> "
                    f"n={match.n}, dt={match.dt:.6f}, dof_cn={match.dof_cn} "
                    f"in {seconds * 1e3:.1f} ms")


def _lambda_check(config: ExperimentConfig, selected: float,
                  paper_lam: float):
    """Primary: within one grid step; fallback: GCV score within 1%."""
    ratio = max(selected / paper_lam, paper_lam / selected)
    if ratio <= GRID_STEP * 1.05:
        return True, f"lambda {selected:.3e} within one grid step of {paper_lam:.1e}"
    problem = config.problem()
    basis = spectral.SpectralBasis(config.N, problem.L1, problem.L2, problem.c)
    pts = spectral.lhs_sample(config.m, problem.L1, problem.L2,
                              seed=config.seed)
    Phi = spectral.build_design_matrix(pts, basis)
    u = problem.initial_condition()(pts[:, 0], pts[:, 1])
    fit = spectral.ridge_fit_svd(Phi, u)
    score = fit.gcv(selected)
    score_paper = fit.gcv(paper_lam)
    ok = score <= 1.01 * score_paper
    return ok, (f"lambda {selected:.3e} vs {paper_lam:.1e}: gcv "
                f"{score:.6e} vs {score_paper:.6e} (fallback, within 1%)")


def test_criterion_5_lambda_recovery(poly_result, moll_result):
    ok_p, msg_p = _lambda_check(poly_result.config, poly_result.model.lam,
                                1.0e-6)
    ok_m, msg_m = _lambda_check(moll_result.config, moll_result.model.lam,
                                1.30e-3)
    assert _verdict(5, ok_p and ok_m, f"polynomial: {msg_p}; mollifier: {msg_m}")


def test_criterion_6_single_mode_oracle():
    t0 = time.perf_counter()
    problem = WaveProblem(ic="single_mode")
    exact = lambda x, y, t: single_mode_solution(x, y, t)

    model = spectral.fit_spectral_model(problem, N=4, m=400)
    mesh = build_structured_mesh(1.0, 1.0, 32, 32)
    pts, wq = mesh_quadrature(mesh)
    times = np.linspace(0.0, 1.0, 21)
    E = np.array([np.sqrt(max(wq @ (spectral.predict(model, pts[:, 0],
                                                     pts[:, 1], t)
                                    - exact(pts[:, 0], pts[:, 1], t)) ** 2,
                              0.0))
                  for t in times])
    ws = simpson_weights(20, times[1] - times[0])
    ep_err = float(np.sqrt(ws @ E**2))

    errs = []
    for n in (16, 32, 64):
        m = build_structured_mesh(1.0, 1.0, n, n)
        sys = fem.FemSystem.build(m, 1.0)
        u0 = fem.interior_values(problem.initial_condition(), m)
        traj = fem.cn_solve(sys, u0, 1.0 / n, n)
        cn_field = traj.field()
        p, w = mesh_quadrature(m)
        En = [np.sqrt(max(w @ (cn_field(p[:, 0], p[:, 1], t)
                               - exact(p[:, 0], p[:, 1], t)) ** 2, 0.0))
              for t in times]
        errs.append(float(np.sqrt(ws @ np.asarray(En) ** 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    seconds = time.perf_counter() - t0

    ok = (ep_err <= 1e-6 and all(1.7 <= o <= 2.3 for o in orders)
          and seconds < 30)
    assert _verdict(6, ok,
                    f"bepgp st error {ep_err:.2e} (<= 1e-6); cn orders "
                    f"{orders[0]:.2f}, {orders[1]:.2f} (in [1.7, 2.3]) "
                    f"in {seconds:.1f} s")


def test_criterion_7_energy_conservation():
    mesh = build_structured_mesh(1.0, 1.0, 16, 16)
    sys = fem.FemSystem.build(mesh, 1.0)
    u0 = fem.interior_values(WaveProblem().initial_condition(), mesh)
    dt = 1.0 / 16
    gen = (level.reshape(17, -1)[1:-1, 1:-1].ravel()     # U^n of each level
           for level in fem.cn_steps(sys, u0, dt))
    prev = next(gen)
    curr = next(gen)
    e0 = fem.discrete_energy(sys, prev, curr, dt)
    drift = 0.0
    for _ in range(1000):
        prev, curr = curr, next(gen)
        drift = max(drift, abs(fem.discrete_energy(sys, prev, curr, dt) - e0))
    gen.close()
    ok = drift <= 1e-10 * e0
    assert _verdict(7, ok,
                    f"relative energy drift {drift / e0:.2e} over 1000 "
                    f"steps (<= 1e-10)")


def test_criterion_8_kernel_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    # degree-3 triangle quadrature against analytic monomial integrals,
    # computed by 5-point Gauss-Legendre on the collapsed unit square
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    gu, gv = np.meshgrid((gl_x + 1) / 2, (gl_x + 1) / 2)
    gw = np.outer(gl_w, gl_w).ravel() / 4
    quad_ok = True
    for _ in range(20):
        tri = rng.random((3, 2)) * 1.5 - 0.25
        v1, v2 = tri[1] - tri[0], tri[2] - tri[0]
        jac = abs(v1[0] * v2[1] - v1[1] * v2[0])
        if jac < 1e-2:
            continue
        uu, vv = gu.ravel(), (1 - gu.ravel()) * gv.ravel()
        px = tri[0, 0] + v1[0] * uu + v2[0] * vv
        py = tri[0, 1] + v1[1] * uu + v2[1] * vv
        ww = gw * (1 - gu.ravel()) * jac
        for a in range(4):
            for b in range(4 - a):
                exact = float(ww @ (px**a * py**b))
                qp = metrics._QUAD_BARY @ tri
                approx = float((jac / 2) * (metrics._QUAD_W
                                            @ (qp[:, 0]**a * qp[:, 1]**b)))
                if abs(approx - exact) > 1e-14 * max(1.0, abs(exact)):
                    quad_ok = False

    # Simpson on cubics
    w = simpson_weights(10, 0.1)
    t = np.linspace(0, 1, 11)
    simpson_ok = abs(w @ t**3 - 0.25) <= 1e-13

    # ridge SVD vs dense normal equations
    ridge_ok = True
    for m, p, lam in ((50, 20, 0.1), (200, 100, 1e-3)):
        A = rng.normal(size=(m, p))
        b = rng.normal(size=m)
        fit = spectral.ridge_fit_svd(A, b)
        w_svd = fit.coefficients(lam)
        w_ne = np.linalg.solve(A.T @ A + lam * np.eye(p), A.T @ b)
        if np.linalg.norm(w_svd - w_ne) > 1e-10 * np.linalg.norm(w_ne):
            ridge_ok = False
        # GCV spectral evaluation vs the dense hat matrix
        H = A @ np.linalg.solve(A.T @ A + lam * np.eye(p), A.T)
        rss = float(((b - H @ b) ** 2).sum())
        dense = rss / (m - np.trace(H)) ** 2
        if abs(fit.gcv(lam) - dense) > 1e-10 * dense:
            ridge_ok = False

    seconds = time.perf_counter() - t0
    ok = quad_ok and simpson_ok and ridge_ok and seconds < 10
    assert _verdict(8, ok,
                    f"quadrature {'ok' if quad_ok else 'FAIL'}, simpson "
                    f"{'ok' if simpson_ok else 'FAIL'}, ridge/gcv "
                    f"{'ok' if ridge_ok else 'FAIL'} in {seconds:.2f} s")


def test_criterion_9_determinism(tmp_path):
    texts, caches = [], []
    for sub in ("a", "b"):
        config = ExperimentConfig(ic="polynomial", N=4, m=120, ref_nx=32,
                                  ref_ny=32, Nt_eval=10,
                                  output_dir=str(tmp_path / sub))
        result = run_benchmark(config)
        rows = list(csv.reader(io.StringIO(result.csv_text())))
        texts.append([row[:-1] for row in rows])    # drop the timing column
        caches.append({p.name: p.read_bytes()
                       for p in (tmp_path / sub / "cache").iterdir()})
    ok = texts[0] == texts[1] and caches[0] == caches[1]
    assert _verdict(9, ok,
                    "repeated runs give byte-identical CSV (timings "
                    "excluded) and cache files" if ok
                    else "repeated runs differ")


def test_criterion_10_basis_correctness(poly_result):
    model = poly_result.model
    rng = np.random.default_rng(10)
    # small enough that FD truncation at the basis' top frequency
    # (N pi sqrt(2) ~ 178 rad) stays well under the bound, large enough
    # to keep the second-difference roundoff near 1e-8
    h = 2.5e-4

    x = rng.uniform(2 * h, 1 - 2 * h, 100)
    y = rng.uniform(2 * h, 1 - 2 * h, 100)
    t = rng.uniform(2 * h, 1 - 2 * h, 100)
    scale = 1.0
    worst = 0.0
    for xi, yi, ti in zip(x, y, t):
        u = lambda a, b, s: float(spectral.predict(model, a, b, s))
        u0 = u(xi, yi, ti)
        scale = max(scale, 1.0 + abs(u0))
        utt = (u(xi, yi, ti + h) - 2 * u0 + u(xi, yi, ti - h)) / h**2
        uxx = (u(xi + h, yi, ti) - 2 * u0 + u(xi - h, yi, ti)) / h**2
        uyy = (u(xi, yi + h, ti) - 2 * u0 + u(xi, yi - h, ti)) / h**2
        worst = max(worst, abs(utt - uxx - uyy))
    residual_ok = worst <= 1e-5 * scale

    # boundary points: a random edge, a random position along it
    edges = rng.integers(0, 4, 100)
    pos = rng.uniform(0, 1, 100)
    tb = rng.uniform(0, 1, 100)
    bx = np.where(edges < 2, edges.astype(float), pos)
    by = np.where(edges < 2, pos, (edges - 2).astype(float))
    bvals = np.array([spectral.predict(model, xi, yi, ti)
                      for xi, yi, ti in zip(bx, by, tb)], dtype=float)
    boundary_ok = np.all(np.abs(bvals) <= 1e-13)

    ok = residual_ok and bool(boundary_ok)
    assert _verdict(10, ok,
                    f"max pde residual {worst:.2e} (<= {1e-5 * scale:.1e}); "
                    f"max boundary value {np.abs(bvals).max():.1e} (<= 1e-13)")
