"""Assembly oracles and the three-level implicit time stepper."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from wavebench.mesh import build_structured_mesh
from wavebench.fem import (FemSystem, assemble_mass, assemble_stiffness,
                           restrict_to_interior, interior_values, cn_steps,
                           cn_solve, discrete_energy, p1_interpolate,
                           _mass_solve)
from wavebench.problem import WaveProblem, single_mode_solution


# ---------------------------------------------------------------------------
# assembly oracles (hand-computed)

def test_mass_unit_square_one_cell():
    # two triangles of area 1/2; the assembled 4x4 mass matrix is known
    # in closed form (nodes: (0,0), (1,0), (0,1), (1,1))
    m = build_structured_mesh(1.0, 1.0, 1, 1)
    M = assemble_mass(m).toarray()
    expect = np.array([
        [1 / 6, 1 / 24, 1 / 24, 1 / 12],
        [1 / 24, 1 / 12, 0.0, 1 / 24],
        [1 / 24, 0.0, 1 / 12, 1 / 24],
        [1 / 12, 1 / 24, 1 / 24, 1 / 6],
    ])
    np.testing.assert_allclose(M, expect, atol=1e-15)
    # total mass equals the domain area
    assert M.sum() == pytest.approx(1.0)


def test_stiffness_unit_square_one_cell():
    m = build_structured_mesh(1.0, 1.0, 1, 1)
    K = assemble_stiffness(m).toarray()
    np.testing.assert_allclose(K, K.T, atol=1e-15)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)
    # both triangles are right isoceles with legs 1; their element matrices
    # assemble to diag 1 at the two diagonal nodes shared by both
    expect = np.array([
        [1.0, -0.5, -0.5, 0.0],
        [-0.5, 1.0, 0.0, -0.5],
        [-0.5, 0.0, 1.0, -0.5],
        [0.0, -0.5, -0.5, 1.0],
    ])
    np.testing.assert_allclose(K, expect, atol=1e-15)


def test_interior_stencil_five_point():
    # on a uniform single-diagonal mesh of the unit square, the interior
    # stiffness stencil is the classical 5-point one: 4 on the diagonal,
    # -1 for axis neighbours, 0 for diagonal neighbours (h-independent)
    n = 4
    m = build_structured_mesh(1.0, 1.0, n, n)
    K = restrict_to_interior(assemble_stiffness(m), m).toarray()
    nin = n - 1
    center = (nin // 2) * nin + nin // 2
    assert K[center, center] == pytest.approx(4.0)
    assert K[center, center - 1] == pytest.approx(-1.0)
    assert K[center, center + 1] == pytest.approx(-1.0)
    assert K[center, center - nin] == pytest.approx(-1.0)
    assert K[center, center + nin] == pytest.approx(-1.0)
    assert K[center, center - nin - 1] == pytest.approx(0.0, abs=1e-15)
    assert K[center, center + nin + 1] == pytest.approx(0.0, abs=1e-15)
    # interior lumped row mass is h^2, consistent diagonal is h^2 / 2
    M = restrict_to_interior(assemble_mass(m), m).toarray()
    h2 = (1.0 / n) ** 2
    assert M[center, center] == pytest.approx(h2 / 2)
    assert M[center].sum() == pytest.approx(h2)


def test_mass_positive_definite():
    m = build_structured_mesh(1.0, 1.5, 5, 4)
    M = restrict_to_interior(assemble_mass(m), m).toarray()
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_stiffness_positive_definite_on_interior():
    m = build_structured_mesh(1.5, 1.0, 4, 5)
    K = restrict_to_interior(assemble_stiffness(m), m).toarray()
    assert np.all(np.linalg.eigvalsh(K) > 0)


def test_stiffness_rayleigh_quotient_lowest_mode():
    # the discrete lowest Dirichlet eigenvalue converges to 2 pi^2 from above
    m = build_structured_mesh(1.0, 1.0, 16, 16)
    K = restrict_to_interior(assemble_stiffness(m), m)
    M = restrict_to_interior(assemble_mass(m), m)
    v = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), m)
    lam = (v @ (K @ v)) / (v @ (M @ v))
    assert 2 * np.pi**2 < lam < 2 * np.pi**2 * 1.02


# ---------------------------------------------------------------------------
# P1 interpolation

def test_p1_interpolate_linear_exact():
    grid_fn = lambda x, y: 0.3 + 1.7 * x - 0.4 * y
    xs = np.linspace(0, 1, 5)
    X, Y = np.meshgrid(xs, xs)
    grid = grid_fn(X, Y)
    rng = np.random.default_rng(3)
    px, py = rng.random(50), rng.random(50)
    np.testing.assert_allclose(p1_interpolate(grid, 1.0, 1.0, px, py),
                               grid_fn(px, py), atol=1e-14)


def test_p1_interpolate_respects_triangles():
    # value at a cell center differs between bilinear and P1: on the
    # diagonal both triangles agree, elsewhere only the triangle's plane
    grid = np.array([[0.0, 0.0], [0.0, 1.0]])     # single cell, v11 = 1
    # point in the lower triangle (r < s): plane through v00, v10, v11
    assert p1_interpolate(grid, 1.0, 1.0, 0.75, 0.25) == pytest.approx(0.25)
    # upper triangle (r > s)
    assert p1_interpolate(grid, 1.0, 1.0, 0.25, 0.75) == pytest.approx(0.25)
    # diagonal
    assert p1_interpolate(grid, 1.0, 1.0, 0.5, 0.5) == pytest.approx(0.5)


def test_p1_interpolate_domain_check():
    grid = np.zeros((3, 3))
    with pytest.raises(ValueError):
        p1_interpolate(grid, 1.0, 1.0, 1.2, 0.5)


# ---------------------------------------------------------------------------
# time stepping

def _system(n, L=1.0, c=1.0):
    m = build_structured_mesh(L, L, n, n)
    return m, FemSystem.build(m, c)


def test_energy_conserved_default_scheme():
    mesh, sys = _system(16)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    dt = 1.0 / 16
    gen = cn_steps(sys, u0, dt)
    prev = next(gen)
    curr = next(gen)
    E0 = discrete_energy(sys, prev, curr, dt)
    for _ in range(1000):
        prev, curr = curr, next(gen)
        E = discrete_energy(sys, prev, curr, dt)
        assert abs(E - E0) <= 1e-10 * abs(E0)
    gen.close()


def test_dissipative_scheme_decays_energy():
    mesh, sys = _system(12)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    dt = 1.0 / 12
    gen = cn_steps(sys, u0, dt, paper_update=True)
    prev = next(gen)
    curr = next(gen)
    energies = [discrete_energy(sys, prev, curr, dt)]
    for _ in range(60):
        prev, curr = curr, next(gen)
        energies.append(discrete_energy(sys, prev, curr, dt))
    gen.close()
    diffs = np.diff(energies)
    # decay dominates; tiny upticks from mode mixing are tolerated
    assert np.all(diffs <= 1e-3 * energies[0])
    assert energies[-1] < 0.9 * energies[0]


def test_unconditional_stability():
    # the implicit scheme stays bounded even for dt far above the mesh size
    mesh, sys = _system(8)
    u0 = interior_values(lambda x, y: x * (1 - x) * y * (1 - y), mesh)
    for dt in (0.25, 0.5, 1.0):
        # the paper update's hold start avoids the large Taylor kick that
        # dt >> h would inject
        traj = cn_solve(sys, u0, dt, 200, paper_update=True)
        assert np.all(np.isfinite(traj.snapshots))
        assert np.max(np.abs(traj.snapshots)) < 10 * np.max(np.abs(u0))


def test_factorize_once():
    mesh, sys = _system(8)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    traj = cn_solve(sys, u0, 0.05, 40)
    assert traj.stats["factorizations"] == 1      # the stepping matrix only
    assert traj.stats["solves"] == 40             # one solve per computed level
    assert traj.stats["cg_iters"] > 0             # the Taylor start's M solve
    paper = cn_solve(sys, u0, 0.05, 40, paper_update=True)
    assert paper.stats["factorizations"] == 1
    assert paper.stats["solves"] == 39            # the hold start needs no M solve
    assert paper.stats["cg_iters"] == 0


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("ic", ["polynomial", "mollifier"])
def test_taylor_start_cg_matches_direct_solve(n, ic):
    mesh, sys = _system(n)
    b = sys.K @ interior_values(WaveProblem(ic=ic).initial_condition(), mesh)
    stats = {"cg_iters": 0}
    x = _mass_solve(sys.M, b, stats)
    direct = spsolve(sys.M.tocsc(), b)
    np.testing.assert_allclose(x, direct, rtol=0,
                               atol=1e-12 * np.max(np.abs(direct)))
    assert 0 < stats["cg_iters"] <= 40


@pytest.mark.parametrize("paper_update", [False, True])
def test_cn_solve_matches_spsolve_oracle(paper_update):
    # each level from scratch with a direct solve: a wrong permutation or
    # a stale factor in the stepping path would show at the first step
    mesh, sys = _system(24)
    u0 = interior_values(WaveProblem(ic="mollifier").initial_condition(), mesh)
    dt, Nt = 1.0 / 48, 48
    traj = cn_solve(sys, u0, dt, Nt, paper_update)
    a = dt**2 / 2.0
    A = (sys.M + a * sys.K).tocsc()
    if paper_update:
        B, C = 2.0 * sys.M - a * sys.K, sys.M
        levels = [u0, u0]
    else:
        B, C = 2.0 * sys.M, A
        levels = [u0, u0 - a * spsolve(sys.M.tocsc(), sys.K @ u0)]
    for _ in range(Nt - 1):
        levels.append(spsolve(A, B @ levels[-1] - C @ levels[-2]))
    expect = np.array(levels)
    np.testing.assert_allclose(traj.snapshots, expect, rtol=0,
                               atol=1e-12 * np.max(np.abs(expect)))


def test_second_order_convergence_single_mode():
    prob = WaveProblem(ic="single_mode")
    errs = []
    for n in (8, 16, 32):
        mesh, sys = _system(n)
        u0 = interior_values(prob.initial_condition(), mesh)
        traj = cn_solve(sys, u0, prob.T / n, n)
        pts = mesh.nodes[mesh.interior_ids]
        exact = single_mode_solution(pts[:, 0], pts[:, 1], prob.T)
        errs.append(np.sqrt(np.mean((traj.snapshots[-1] - exact) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.7) and np.all(orders < 2.3)


def test_trajectory_field_matches_snapshots():
    mesh, sys = _system(6)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    traj = cn_solve(sys, u0, 0.1, 10)
    f = traj.field()
    pts = mesh.nodes[mesh.interior_ids]
    np.testing.assert_allclose(f(pts[:, 0], pts[:, 1], 0.5),
                               traj.snapshots[5], atol=1e-13)
    # halfway between stored levels: linear blend
    mid = 0.5 * (traj.snapshots[5] + traj.snapshots[6])
    np.testing.assert_allclose(f(pts[:, 0], pts[:, 1], 0.55), mid, atol=1e-13)


def test_full_grids_boundary_zero():
    mesh, sys = _system(5)
    u0 = interior_values(lambda x, y: x * (1 - x) * y * (1 - y), mesh)
    traj = cn_solve(sys, u0, 0.1, 5)
    grids = traj.full_grids()
    assert np.all(grids[:, 0, :] == 0)
    assert np.all(grids[:, -1, :] == 0)
    assert np.all(grids[:, :, 0] == 0)
    assert np.all(grids[:, :, -1] == 0)


def test_cn_solve_input_validation():
    mesh, sys = _system(4)
    u0 = np.zeros(sys.M.shape[0])
    with pytest.raises(ValueError):
        cn_solve(sys, u0, -0.1, 10)
    with pytest.raises(ValueError):
        cn_solve(sys, u0, 0.1, 0)
    with pytest.raises(ValueError):
        cn_solve(sys, np.zeros(3), 0.1, 10)


def test_discrete_energy_value():
    # single interior unknown (n = 2): M = h^2/2 = 1/8, K = 4
    mesh, sys = _system(2)
    assert sys.M.shape == (1, 1)
    Un = np.array([1.0])
    Un1 = np.array([2.0])
    dt = 0.5
    kinetic = 0.125 * 1.0 / (2 * dt**2)
    potential = 0.25 * 4.0 * (4.0 + 1.0)
    assert discrete_energy(sys, Un, Un1, dt) == pytest.approx(kinetic + potential)
