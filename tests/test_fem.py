"""Assembly oracles and the three-level implicit time stepper."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from wavebench import fem
from wavebench.mesh import build_structured_mesh
from wavebench.fem import (FemSystem, interior_values, cn_steps, cn_solve,
                           discrete_energy, p1_interpolate, _mass_solve,
                           _nested_dissection)
from wavebench.problem import WaveProblem, single_mode_solution


# ---------------------------------------------------------------------------
# assembly oracles: textbook P1 element matrices, and hand-computed values

def _element_assembly(mesh):
    """Dense full-node M and K summed from P1 element matrices.

    Mass A/12 [[2,1,1],[1,2,1],[1,1,2]] and stiffness
    (b_i b_j + c_i c_j) / (4A) per triangle of `mesh.triangles()`; nodes
    are numbered row-major, y outer.
    """
    n_nodes = (mesh.nx + 1) * (mesh.ny + 1)
    M = np.zeros((n_nodes, n_nodes))
    K = np.zeros((n_nodes, n_nodes))
    mass_block = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for tri in mesh.triangles():
        x, y = tri[:, 0], tri[:, 1]
        ids = (np.rint(y / mesh.L2 * mesh.ny) * (mesh.nx + 1)
               + np.rint(x / mesh.L1 * mesh.nx)).astype(int)
        b = np.roll(y, -1) - np.roll(y, 1)
        c = np.roll(x, 1) - np.roll(x, -1)
        area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0])
                      - (x[2] - x[0]) * (y[1] - y[0]))
        M[np.ix_(ids, ids)] += area * mass_block
        K[np.ix_(ids, ids)] += (np.outer(b, b) + np.outer(c, c)) / (4 * area)
    return M, K


def _interior_oracle(mesh):
    """Element-assembled M and K restricted to the interior unknowns."""
    M, K = _element_assembly(mesh)
    ids = np.arange(M.shape[0]).reshape(mesh.ny + 1, mesh.nx + 1)
    ids = ids[1:-1, 1:-1].ravel()
    return M[np.ix_(ids, ids)], K[np.ix_(ids, ids)]


@pytest.mark.parametrize("dims", [(1.0, 1.0, 12, 12), (1.3, 0.7, 17, 9),
                                  (1.0, 1.0, 2, 2), (2.0, 3.0, 4, 5)])
def test_stencils_match_element_assembly(dims):
    mesh = build_structured_mesh(*dims)
    sys = FemSystem.build(mesh, 1.0)
    for got, want in zip((sys.M, sys.K), _interior_oracle(mesh)):
        assert got.shape == want.shape == (mesh.n_interior,) * 2
        err = np.max(np.abs(got.toarray() - want))
        assert err <= 1e-14 * np.max(np.abs(want))


def test_mass_unit_square_one_cell():
    # two triangles of area 1/2; the assembled 4x4 mass matrix is known
    # in closed form (nodes: (0,0), (1,0), (0,1), (1,1))
    m = build_structured_mesh(1.0, 1.0, 1, 1)
    M = _element_assembly(m)[0]
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
    K = _element_assembly(m)[1]
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
    sys = FemSystem.build(m, 1.0)
    K = sys.K.toarray()
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
    M = sys.M.toarray()
    h2 = (1.0 / n) ** 2
    assert M[center, center] == pytest.approx(h2 / 2)
    assert M[center].sum() == pytest.approx(h2)


def test_mass_positive_definite():
    m = build_structured_mesh(1.0, 1.5, 5, 4)
    M = FemSystem.build(m, 1.0).M.toarray()
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_stiffness_positive_definite_on_interior():
    m = build_structured_mesh(1.5, 1.0, 4, 5)
    K = FemSystem.build(m, 1.0).K.toarray()
    assert np.all(np.linalg.eigvalsh(K) > 0)


def test_stiffness_rayleigh_quotient_lowest_mode():
    # the discrete lowest Dirichlet eigenvalue converges to 2 pi^2 from above
    m = build_structured_mesh(1.0, 1.0, 16, 16)
    sys = FemSystem.build(m, 1.0)
    K, M = sys.K, sys.M
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


@pytest.mark.parametrize("x, y", [(np.nan, 0.5), (0.5, np.nan),
                                  (-np.inf, 0.5), (0.5, np.inf)])
def test_p1_interpolate_rejects_non_finite_points(x, y):
    with pytest.raises(ValueError, match="outside the domain"):
        p1_interpolate(np.zeros((3, 3)), 1.0, 1.0, np.array([0.2, x]),
                       np.array([0.2, y]))


# ---------------------------------------------------------------------------
# time stepping

def _system(n, L=1.0, c=1.0):
    m = build_structured_mesh(L, L, n, n)
    return m, FemSystem.build(m, c)


def _unknowns(mesh, level):
    """U^n: the interior block of a nodal level `cn_steps` yields."""
    return level.reshape(mesh.ny + 1, -1)[1:-1, 1:-1].ravel()


def test_energy_conserved_default_scheme():
    mesh, sys = _system(16)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    dt = 1.0 / 16
    gen = cn_steps(sys, u0, dt)
    prev = _unknowns(mesh, next(gen))
    curr = _unknowns(mesh, next(gen))
    E0 = discrete_energy(sys, prev, curr, dt)
    for _ in range(1000):
        prev, curr = curr, _unknowns(mesh, next(gen))
        E = discrete_energy(sys, prev, curr, dt)
        assert abs(E - E0) <= 1e-10 * abs(E0)
    gen.close()


def test_dissipative_scheme_decays_energy():
    mesh, sys = _system(12)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    dt = 1.0 / 12
    gen = cn_steps(sys, u0, dt, paper_update=True)
    prev = _unknowns(mesh, next(gen))
    curr = _unknowns(mesh, next(gen))
    energies = [discrete_energy(sys, prev, curr, dt)]
    for _ in range(60):
        prev, curr = curr, _unknowns(mesh, next(gen))
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
    for stats in (traj.stats, paper.stats):       # one product with M per step
        assert stats["spmv"] == stats["solves"]


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


# (nx, ny, c) by id suffix: square, non-square, a thin strip, a fast wave
_ORACLE_MESHES = {"": (24, 24, 1.0), "-24x17": (24, 17, 1.0),
                  "-40x3": (40, 3, 1.0), "-c10": (24, 24, 10.0)}


# initial data by id suffix: the default mollifier, centred at (0.3, 0.7),
# keeps JS; centred at (0.3, 0.3) it keeps S, at (0.5, 0.5) and as the
# polynomial J, S and JS (on the non-square meshes J only, or nothing)
_ORACLE_STARTS = {"": ("mollifier", {}), "-polynomial": ("polynomial", {}),
                  "-mollifier-0.3-0.3": ("mollifier", {"x0": 0.3, "y0": 0.3}),
                  "-mollifier-0.5-0.5": ("mollifier", {"x0": 0.5, "y0": 0.5})}


@pytest.mark.parametrize("paper_update, nx, ny, c, ic, ic_params", [
    pytest.param(update, *mesh, *start, id=f"{update}{tag}{suffix}")
    for suffix, start in _ORACLE_STARTS.items()
    for tag, mesh in _ORACLE_MESHES.items() for update in (False, True)])
def test_cn_solve_matches_spsolve_oracle(paper_update, nx, ny, c, ic,
                                         ic_params):
    # each level from scratch with a direct solve in natural order and the
    # two-product right-hand side: a wrong permutation or a stale factor in
    # the stepping path would show at the first step. `cn_solve` steps every
    # unknown whatever the start keeps; the test below holds the orbit
    # stepping of a reference build to it.
    mesh = build_structured_mesh(1.0, 1.0, nx, ny)
    sys = FemSystem.build(mesh, c)
    u0 = interior_values(
        WaveProblem(ic=ic, ic_params=ic_params).initial_condition(), mesh)
    dt, Nt = 1.0 / 48, 48
    traj = cn_solve(sys, u0, dt, Nt, paper_update)
    a = c**2 * dt**2 / 2.0
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


@pytest.mark.parametrize("paper_update, nx, ny, c, ic, ic_params", [
    pytest.param(update, *mesh, *start, id=f"{update}{tag}{suffix}")
    for suffix, start in _ORACLE_STARTS.items()
    for tag, mesh in _ORACLE_MESHES.items() for update in (False, True)])
def test_orbit_levels_match_cn_solve(paper_update, nx, ny, c, ic, ic_params):
    # the levels a reference build steps on the orbits of the group that
    # `_symmetry_group` finds are those of the matched solve, which steps
    # every unknown, to round-off
    mesh = build_structured_mesh(1.0, 1.0, nx, ny)
    sys = FemSystem.build(mesh, c)
    u0 = interior_values(
        WaveProblem(ic=ic, ic_params=ic_params).initial_condition(), mesh)
    traj = cn_solve(sys, u0, 1.0 / 48, 48, paper_update)
    _, levels = _orbit_levels(sys, u0, paper_update, 1.0 / 48, 48)
    np.testing.assert_allclose(levels, traj.snapshots, rtol=0,
                               atol=1e-12 * np.max(np.abs(traj.snapshots)))


# ---------------------------------------------------------------------------
# stepping on the orbits of the mesh symmetries that the start keeps

@pytest.fixture
def factored(monkeypatch):
    """(unknowns, factor nonzeros) of every factorization `cn_steps` makes."""
    calls, splu = [], fem.spla.splu

    def record(A, **kwargs):
        lu = splu(A, **kwargs)
        calls.append((A.shape[0], lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(fem.spla, "splu", record)
    return calls


def _node_map(mesh, f):
    """Permutation of the unknowns that carries node (x, y) to node f(x, y)."""
    hx, hy = mesh.L1 / mesh.nx, mesh.L2 / mesh.ny
    x, y = f(*mesh.interior_nodes())
    i, j = np.rint(x / hx).astype(int), np.rint(y / hy).astype(int)
    return (j - 1) * (mesh.nx - 1) + (i - 1)


def _orbit_count(m):
    """Orbits of an m x m unknown grid under J, S and JS (Burnside: J fixes
    the centre of an odd grid, S and JS a diagonal each)."""
    return (m * m + m % 2 + 2 * m) // 4


@pytest.mark.parametrize("nx, ny, L1, L2", [(4, 4, 1.0, 1.0), (5, 5, 1.0, 1.0),
                                            (5, 4, 1.3, 0.7), (4, 7, 1.0, 1.0),
                                            (4, 4, 1.0, 2.0), (6, 3, 2.0, 1.0),
                                            (3, 3, 0.7, 0.7), (2, 2, 1.0, 1.0),
                                            (2, 2, 1.0, 2.0)])
def test_reflection_commutes_with_mass_and_stiffness(nx, ny, L1, L2):
    # J, (x, y) -> (L1 - x, L2 - y), maps every mesh; on a square one the
    # transpose S, (x, y) -> (y, x), and the anti-transpose JS,
    # (x, y) -> (L - y, L - x), keep the diagonals too
    mesh = build_structured_mesh(L1, L2, nx, ny)
    sys = FemSystem.build(mesh, 1.0)
    n = sys.M.shape[0]
    maps = [lambda x, y: (L1 - x, L2 - y)]
    if (nx, L1) == (ny, L2):
        maps += [lambda x, y: (y, x), lambda x, y: (L1 - y, L1 - x)]
    for f in maps:
        g = _node_map(mesh, f)
        assert sorted(g) == list(range(n))
        for B in (sys.M, sys.K):
            np.testing.assert_array_equal(B.toarray()[g][:, g], B.toarray())
    # a constant start keeps every map that M and K commute with, and only
    # those: on the 1 x 2 rectangle S and JS scale K's x and y couplings.
    # The mesh rule reads no matrix; the sparse comparison is its oracle.
    # With one unknown every group has one orbit, so there the two may
    # differ in their bits alone.
    group = fem._symmetry_group(mesh, np.ones(n))
    commuting = sum(bit for bit, g in fem._maps(ny - 1, nx - 1)
                    if not any((B[g][:, g] != B).nnz for B in (sys.M, sys.K)))
    assert group == commuting or n == 1
    for a, b in zip(fem._orbits(nx, ny, group),
                    fem._orbits(nx, ny, commuting)):
        np.testing.assert_array_equal(a, b)
    orbit, first = fem._orbits(nx, ny, group)
    assert len(first) == (_orbit_count(nx - 1) if len(maps) == 3
                          else (n + 1) // 2)
    np.testing.assert_array_equal(orbit[first], np.arange(len(first)))
    for f in maps:
        g = _node_map(mesh, f)
        np.testing.assert_array_equal(orbit[g], orbit)
        assert np.all(first[orbit] <= np.minimum(np.arange(n), g))


def _run(sys, u0, paper_update=False):
    traj = cn_solve(sys, u0, 0.05, 4, paper_update)
    assert traj.stats["factorizations"] == 1
    return traj


def _orbit_levels(sys, u0, paper_update=False, dt=0.05, Nt=4):
    """(group, U^0 .. U^Nt): the levels `cn_steps` yields on the orbits of
    the group `_symmetry_group` finds for u0, as a reference build steps
    them, expanded to every unknown."""
    mesh = sys.mesh
    group, stats = fem._symmetry_group(mesh, u0), {}
    steps = cn_steps(sys, u0, dt, stats, paper_update, group)
    levels = np.array([next(steps) for _ in range(Nt + 1)])
    steps.close()
    assert stats["factorizations"] == 1
    index = fem._node_orbits(mesh.nx, mesh.ny, group)[0]
    return group, np.array([_unknowns(mesh, v[index]) for v in levels])


# orbits at n = 8 and 9 (49 and 64 unknowns): the polynomial and the single
# mode keep J, S and JS, the default mollifier at (0.3, 0.7) keeps JS only
_ORBITS = {"polynomial": (16, 20), "single_mode": (16, 20),
           "mollifier": (28, 36)}


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("ic", ["polynomial", "single_mode", "mollifier"])
def test_even_starts_factor_half_the_unknowns(n, ic, factored):
    mesh, sys = _system(n)
    u0 = interior_values(WaveProblem(ic=ic).initial_condition(), mesh)
    for paper_update in (False, True):
        group, levels = _orbit_levels(sys, u0, paper_update)
        # level 0 is u0 at each orbit's smallest member
        orbit, first = fem._orbits(n, n, group)
        np.testing.assert_array_equal(levels[0], u0[first[orbit]])
        # every later level is copied from its orbits, so exactly symmetric
        grids = levels[1:].reshape(-1, n - 1, n - 1)
        flip = grids[:, ::-1, ::-1].transpose(0, 2, 1)
        np.testing.assert_array_equal(grids, flip)          # JS
        if ic != "mollifier":
            np.testing.assert_array_equal(grids, grids.transpose(0, 2, 1))
    size = _ORBITS[ic][n - 8]
    assert [k for k, _ in factored] == [size, size]


def test_asymmetric_system_steps_on_every_unknown(factored):
    # unknowns 0 and 1 are the nodes (h, h) and (2h, h); scaling their
    # coupling breaks J, S and JS alike, each of which moves the pair.
    # `cn_solve` reads no symmetry, so it factors every unknown anyway.
    mesh, sys = _system(8)
    M = sys.M.tolil()
    M[0, 1] *= 1.01
    M[1, 0] *= 1.01
    skew = FemSystem(M.tocsr(), sys.K, mesh, sys.c)
    _run(skew, interior_values(WaveProblem().initial_condition(), mesh))
    assert [k for k, _ in factored] == [sys.M.shape[0]]


@pytest.mark.parametrize("scale, quarter", [(0.75, True), (1.25, False)])
def test_odd_part_past_round_off_takes_the_full_path(scale, quarter, factored):
    # a start even under J, S and JS to the last bit, then one unknown
    # that each of them moves raised by `scale` times the round-off allowance
    mesh, sys = _system(8)
    v = interior_values(WaveProblem().initial_condition(), mesh).reshape(7, 7)
    v = v + v[::-1, ::-1]
    u0 = (v + v.T).ravel()
    u0[1] += scale * fem._EVEN_ROUNDOFF * np.finfo(float).eps * np.max(u0)
    _orbit_levels(sys, u0)
    assert [k for k, _ in factored] == [16 if quarter else u0.size]


def _kept_orbits(sys, u0):
    """Smallest member of each unknown's orbit under the group of the node
    maps (J, and S and JS on a square) that M, K and u0 keep, each of the
    three tested on its own."""
    mesh = sys.mesh
    L1, L2 = mesh.L1, mesh.L2
    maps = [lambda x, y: (L1 - x, L2 - y)]
    if (mesh.nx, L1) == (mesh.ny, L2):
        maps += [lambda x, y: (y, x), lambda x, y: (L1 - y, L1 - x)]
    tol = fem._EVEN_ROUNDOFF * np.finfo(float).eps * np.max(np.abs(u0))
    dense = [B.toarray() for B in (sys.M, sys.K)]
    kept = [g for g in (_node_map(mesh, f) for f in maps)
            if np.max(np.abs(u0 - u0[g])) <= tol
            and all(np.array_equal(B[g][:, g], B) for B in dense)]
    group = [np.arange(len(u0))] + kept + [g[h] for g in kept for h in kept]
    return np.min(group, axis=0)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("start", ["polynomial", "single_mode", "mollifier",
                                   "skew", "odd 0.75", "odd 1.25",
                                   "transpose"])
def test_orbits_match_every_kept_symmetry(n, start, factored):
    # `_orbits` skips JS once J and S are kept; the orbits must be those of
    # every map checked alone. "odd" is the start of the test above;
    # "transpose" keeps S and breaks J and JS. "skew" is the system of
    # `test_asymmetric_system_steps_on_every_unknown`, which no map keeps:
    # `cn_solve`, which reads no symmetry, factors all (n-1)^2 unknowns for
    # it and for the three problem starts
    mesh, sys = _system(n)
    ic = start if start in ("single_mode", "mollifier") else "polynomial"
    u0 = interior_values(WaveProblem(ic=ic).initial_condition(), mesh)
    if start == "skew":
        M = sys.M.tolil()
        M[0, 1] *= 1.01
        M[1, 0] *= 1.01
        skew = FemSystem(M.tocsr(), sys.K, mesh, sys.c)
        for system, name in ((sys, "polynomial"), (sys, "single_mode"),
                             (sys, "mollifier"), (skew, "polynomial")):
            _run(system, interior_values(
                WaveProblem(ic=name).initial_condition(), mesh))
        assert [k for k, _ in factored] == [(n - 1) ** 2] * 4
        return
    if start.startswith("odd"):
        v = u0.reshape(n - 1, n - 1)
        v = v + v[::-1, ::-1]
        u0 = (v + v.T).ravel()
        u0[1] += (float(start.split()[1]) * fem._EVEN_ROUNDOFF
                  * np.finfo(float).eps * np.max(u0))
    elif start == "transpose":
        v = np.random.default_rng(n).random((n - 1, n - 1))
        u0 = (v + v.T).ravel()
    orbit, first = fem._orbits(n, n, fem._symmetry_group(mesh, u0))
    np.testing.assert_array_equal(first[orbit], _kept_orbits(sys, u0))


@pytest.mark.parametrize("n", [48, 49])       # odd and even interior rows
def test_half_factor_holds_at_most_55_percent_of_the_fill(n, factored):
    # J, S and JS quarter the unknowns, JS alone halves them; the factor
    # shrinks at least as much
    mesh, sys = _system(n)
    for ic in ("polynomial", "mollifier"):
        _orbit_levels(sys, interior_values(
            WaveProblem(ic=ic).initial_condition(), mesh))
    _orbit_levels(sys, np.random.default_rng(0).random(mesh.n_interior))
    (quarter, quarter_nnz), (half, half_nnz), (full, full_nnz) = factored
    m = n - 1
    assert (quarter, half, full) == (_orbit_count(m), (m * m + m) // 2,
                                     m * m)
    assert quarter_nnz <= 0.25 * full_nnz
    assert half_nnz <= 0.5 * full_nnz


@pytest.mark.parametrize("nx, ny, nnz", [(49, 31, 28962), (48, 30, 26070)])
def test_reflection_alone_cuts_the_middle_row_first(nx, ny, nnz, factored):
    # on a non-square grid only J is kept; its middle grid row, which J
    # folds onto itself, is eliminated last. `nnz` is the factor fill that
    # order was first measured at (30 and 29 unknown rows); restricting
    # the whole grid's order instead gives 29,190 and 28,446
    mesh = build_structured_mesh(1.0, 1.0, nx, ny)
    sys = FemSystem.build(mesh, 1.0)
    _orbit_levels(sys, interior_values(WaveProblem().initial_condition(), mesh))
    [(h, got)] = factored
    assert h == (mesh.n_interior + 1) // 2
    assert got <= nnz


@pytest.mark.parametrize("nx, ny, axis", [(23, 16, 1), (39, 2, 1),
                                           (16, 23, 0)])
def test_nested_dissection_orders_every_unknown_cut_last(nx, ny, axis):
    # the top-level cut is the middle grid line across the longer side,
    # a column (axis 1) when x is longer
    order = _nested_dissection(nx, ny)
    assert sorted(order) == list(range(nx * ny))
    grid = np.arange(nx * ny).reshape(ny, nx)
    cut = np.take(grid, grid.shape[axis] // 2, axis=axis)
    np.testing.assert_array_equal(order[-cut.size:], cut)


def test_second_order_convergence_single_mode():
    prob = WaveProblem(ic="single_mode")
    errs = []
    for n in (8, 16, 32):
        mesh, sys = _system(n)
        u0 = interior_values(prob.initial_condition(), mesh)
        traj = cn_solve(sys, u0, prob.T / n, n)
        exact = single_mode_solution(*mesh.interior_nodes(), prob.T)
        errs.append(np.sqrt(np.mean((traj.snapshots[-1] - exact) ** 2)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.7) and np.all(orders < 2.3)


def test_trajectory_field_matches_snapshots():
    mesh, sys = _system(6)
    u0 = interior_values(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         mesh)
    traj = cn_solve(sys, u0, 0.1, 10)
    f = traj.field()
    x, y = mesh.interior_nodes()
    np.testing.assert_allclose(f(x, y, 0.5), traj.snapshots[5], atol=1e-13)
    # halfway between stored levels: linear blend
    mid = 0.5 * (traj.snapshots[5] + traj.snapshots[6])
    np.testing.assert_allclose(f(x, y, 0.55), mid, atol=1e-13)
    for t in (np.nan, np.inf, 1.5):
        with pytest.raises(ValueError, match="outside"):
            f(x, y, t)


def test_full_grids_boundary_zero():
    mesh, sys = _system(5)
    u0 = interior_values(lambda x, y: x * (1 - x) * y * (1 - y), mesh)
    traj = cn_solve(sys, u0, 0.1, 5)
    grids = traj.full_grids()
    assert np.all(grids[:, 0, :] == 0)
    assert np.all(grids[:, -1, :] == 0)
    assert np.all(grids[:, :, 0] == 0)
    assert np.all(grids[:, :, -1] == 0)


@pytest.mark.parametrize("nx, ny, n", [(1, 1, 0), (2, 1, 0), (2, 2, 1)])
def test_tiny_grids_step(nx, ny, n):
    # no interior unknowns at all, or a single one, still step
    mesh = build_structured_mesh(1.0, 1.0, nx, ny)
    sys = FemSystem.build(mesh, 1.0)
    assert sys.M.shape == sys.K.shape == (n, n)
    u0 = np.ones(n)
    for paper_update in (False, True):
        traj = cn_solve(sys, u0, 0.1, 4, paper_update)
        assert traj.snapshots.shape == (5, n)
        assert traj.stats["factorizations"] == 1
        assert traj.full_grids().shape == (5, ny + 1, nx + 1)
        if n:
            assert traj.snapshots[-1, 0] < 0.5   # the single mode swings


def test_cn_solve_input_validation():
    mesh, sys = _system(4)
    u0 = np.zeros(sys.M.shape[0])
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="time step"):
            cn_solve(sys, u0, dt, 10)
    with pytest.raises(ValueError):
        cn_solve(sys, u0, 0.1, 0)
    with pytest.raises(ValueError):
        cn_solve(sys, np.zeros(3), 0.1, 10)


@pytest.mark.parametrize("paper_update", [False, True])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_start_fails_before_any_step(paper_update, bad, monkeypatch):
    # no factorization, Taylor-start CG or step runs on such a start
    mesh, sys = _system(8)
    u0 = np.zeros(sys.M.shape[0])
    u0[5] = bad
    monkeypatch.setattr(fem, "_orbits", None)
    monkeypatch.setattr(fem, "_symmetry_group", None)
    monkeypatch.setattr(fem, "_mass_solve", None)
    with pytest.raises(ValueError, match="non-finite initial values"):
        cn_solve(sys, u0, 0.1, 10, paper_update)


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
