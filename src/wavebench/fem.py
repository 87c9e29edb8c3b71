"""P1 finite element assembly and three-level Crank-Nicolson time stepping.

Element matrices: mass A_e/12 * [[2,1,1],[1,2,1],[1,1,2]] and stiffness
(b_i b_j + c_i c_j) / (4 A_e). The semi-discrete system
M U'' + c^2 K U = 0 over interior unknowns is advanced with the implicit
update (M + a K) U^{n+1} = 2 M U^n - (M + a K) U^{n-1}, a = c^2 dt^2 / 2,
whose left-hand matrix is the only one factorized: one sparse LU with a
symmetric minimum-degree ordering, reused every step. The Taylor start
solves with M by conjugate gradients. See `cn_steps` for the update behind
the published tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, _locate_cells, geometry_arrays

__all__ = [
    "FemSystem",
    "FemTrajectory",
    "assemble_mass",
    "assemble_stiffness",
    "restrict_to_interior",
    "cn_steps",
    "cn_solve",
    "discrete_energy",
    "interior_values",
    "p1_interpolate",
]

_CG_MAXITER = 200
_MASS_BLOCK = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Global mass matrix over all nodes."""
    area, _, _ = geometry_arrays(mesh)
    n_el = mesh.n_elements
    local = area[:, None, None] * _MASS_BLOCK[None, :, :]
    return _scatter(mesh, local, n_el)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Global stiffness matrix over all nodes."""
    area, b, c = geometry_arrays(mesh)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    local /= (4.0 * area)[:, None, None]
    return _scatter(mesh, local, mesh.n_elements)


def _scatter(mesh: Mesh, local: np.ndarray, n_el: int) -> sp.csr_matrix:
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_nodes, mesh.n_nodes))
    return A.tocsr()


def restrict_to_interior(A: sp.spmatrix, mesh: Mesh) -> sp.csr_matrix:
    """Drop rows and columns of boundary nodes (homogeneous Dirichlet)."""
    ids = mesh.interior_ids
    return sp.csr_matrix(A.tocsr()[ids][:, ids])


def interior_values(fn, mesh: Mesh) -> np.ndarray:
    """Sample a function at interior nodes, in interior-unknown order."""
    pts = mesh.nodes[mesh.interior_ids]
    return np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)


@dataclass(frozen=True)
class FemSystem:
    """Mass and stiffness matrices restricted to interior unknowns."""

    M: sp.csr_matrix
    K: sp.csr_matrix
    mesh: Mesh
    c: float

    @classmethod
    def build(cls, mesh: Mesh, c: float) -> "FemSystem":
        M = restrict_to_interior(assemble_mass(mesh), mesh)
        K = restrict_to_interior(assemble_stiffness(mesh), mesh)
        return cls(M, K, mesh, c)


@dataclass
class FemTrajectory:
    """Interior-unknown snapshots U^0 .. U^Nt on a uniform time grid."""

    snapshots: np.ndarray        # (Nt + 1, n_interior)
    dt: float
    Nt: int
    mesh: Mesh
    stats: dict = field(default_factory=dict)
    _grids: np.ndarray | None = field(default=None, repr=False)

    def full_grids(self) -> np.ndarray:
        """Nodal values on the full (Nt+1, ny+1, nx+1) grid, boundary zeros."""
        if self._grids is None:
            m = self.mesh
            grids = np.zeros((self.Nt + 1, m.ny + 1, m.nx + 1))
            flat = grids.reshape(self.Nt + 1, -1)
            flat[:, m.interior_ids] = self.snapshots
            self._grids = grids
        return self._grids

    def field(self):
        """Space-time evaluator (x, y, t) -> values.

        P1 interpolation in space on the trajectory's own mesh, linear
        interpolation in time between stored snapshots.
        """
        grids = self.full_grids()
        m = self.mesh

        def evaluate(x, y, t):
            k, theta = _time_level(t, self.dt, self.Nt, self.dt * self.Nt)
            slice_ = (1.0 - theta) * grids[k] + theta * grids[k + 1]
            return p1_interpolate(slice_, m.L1, m.L2, x, y)

        return evaluate


def _time_level(t: float, dt: float, Nt: int, T: float):
    """Level k < Nt and weight theta in [0, 1] with t = (k + theta) dt.

    Times within round-off of [0, T] are clamped to the stored levels.
    """
    if t < -1e-12 or t > T * (1 + 1e-12):
        raise ValueError(f"time {t} outside [0, {T}]")
    s = min(max(t / dt, 0.0), float(Nt))
    k = min(int(s), Nt - 1)
    return k, s - k


def p1_interpolate(grid: np.ndarray, L1: float, L2: float, x, y) -> np.ndarray:
    """Evaluate a nodal field on the single-diagonal triangulation.

    `grid` holds nodal values with shape (ny+1, nx+1). Within each cell the
    interpolant is linear on each of the two triangles formed by the
    lower-left to upper-right diagonal.
    """
    ix, iy, s, r = _locate_cells(grid.shape, L1, L2, x, y)
    v00 = grid[iy, ix]
    v10 = grid[iy, ix + 1]
    v01 = grid[iy + 1, ix]
    v11 = grid[iy + 1, ix + 1]
    lower = v00 * (1.0 - s) + v10 * (s - r) + v11 * r
    upper = v00 * (1.0 - r) + v01 * (r - s) + v11 * s
    return np.where(r <= s, lower, upper)


def cn_steps(sys: FemSystem, u0: np.ndarray, dt: float,
             stats: dict | None = None, paper_update: bool = False):
    """Generator of snapshots U^0, U^1, ... of the implicit wave update.

    By default the stiffness term is averaged over the outer levels,
    M (U^{n+1} - 2 U^n + U^{n-1}) / dt^2 + c^2 K (U^{n+1} + U^{n-1}) / 2 = 0,
    i.e. (M + a K) U^{n+1} = 2 M U^n - (M + a K) U^{n-1}, launched with the
    zero-velocity Taylor step U^1 = U^0 + (dt^2/2) M^{-1} (-c^2 K U^0). This
    conserves the discrete energy exactly and is second-order accurate.

    paper_update=True is the update behind the published tables:
    (M + a K) U^{n+1} = (2M - a K) U^n - M U^{n-1}, which averages the
    stiffness term over (U^n, U^{n+1}) and so damps every mode by
    1/sqrt(1 + a w_h^2) per step, launched with U^1 = U^0 (a first-order
    start).

    The left-hand matrix is factorized once, before the first step, by
    SuperLU with the MMD_AT_PLUS_A ordering: on this symmetric positive
    definite stencil it makes far less fill than the default COLAMD, and
    every step's solve pays for that fill. The Taylor start applies M^{-1}
    by conjugate gradients instead of a second factorization: the element
    mass matrix has eigenvalues A_e/12 * {4, 1, 1}, so cond(M) <= 4 on
    every mesh `build_structured_mesh` makes. `stats["cg_iters"]` counts
    its iterations (0 with paper_update).
    """
    if stats is None:
        stats = {}
    stats.update({"factorizations": 0, "solves": 0, "spmv": 0, "cg_iters": 0})
    yield u0

    alpha = sys.c**2 * dt**2 / 2.0
    A = (sys.M + alpha * sys.K).tocsc()
    try:
        solve_A = spla.splu(A, permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as exc:     # pragma: no cover - valid meshes never hit this
        raise ArithmeticError(
            f"factorization failed (n={sys.M.shape[0]}, dt={dt}): {exc}") from exc
    stats["factorizations"] = 1

    prev = u0
    if paper_update:
        B, C = (2.0 * sys.M - alpha * sys.K).tocsr(), sys.M
        curr = u0.copy()
    else:
        B, C = (2.0 * sys.M).tocsr(), A.tocsr()
        curr = u0 - (dt**2 / 2.0) * sys.c**2 * _mass_solve(sys.M, sys.K @ u0,
                                                           stats)
        stats["solves"] += 1
        stats["spmv"] += 1
    while True:
        yield curr
        rhs = B @ curr - C @ prev
        prev, curr = curr, solve_A(rhs)
        stats["solves"] += 1
        stats["spmv"] += 2


def _mass_solve(M: sp.csr_matrix, b: np.ndarray, stats: dict) -> np.ndarray:
    """M^{-1} b by conjugate gradients to round-off (cond(M) <= 4)."""
    def count(_):
        stats["cg_iters"] += 1
    x, info = spla.cg(M, b, rtol=1e-14, atol=0.0, maxiter=_CG_MAXITER,
                      callback=count)
    if info != 0:
        raise ArithmeticError(f"CG on the mass matrix did not converge in "
                              f"{_CG_MAXITER} iterations (n={M.shape[0]})")
    return x


def cn_solve(sys: FemSystem, u0_nodal: np.ndarray, dt: float, Nt: int,
             paper_update: bool = False) -> FemTrajectory:
    """Advance the semi-discrete wave system; see `cn_steps` for the update."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    if Nt < 1:
        raise ValueError("need at least one time step")
    u0 = np.asarray(u0_nodal, dtype=float)
    n = sys.M.shape[0]
    if u0.shape != (n,):
        raise ValueError(f"initial vector has shape {u0.shape}, expected ({n},)")

    stats = {"factorizations": 0, "solves": 0, "spmv": 0, "cg_iters": 0}
    snaps = np.empty((Nt + 1, n))
    if n == 0:
        snaps[:] = 0.0
        return FemTrajectory(snaps, dt, Nt, sys.mesh, stats)

    steps = cn_steps(sys, u0, dt, stats, paper_update)
    for k in range(Nt + 1):
        snaps[k] = next(steps)
    steps.close()

    if not np.all(np.isfinite(snaps)):
        raise ArithmeticError("non-finite values in trajectory")
    return FemTrajectory(snaps, dt, Nt, sys.mesh, stats)


def discrete_energy(sys: FemSystem, Un: np.ndarray, Un1: np.ndarray, dt: float) -> float:
    """Conserved discrete energy of two consecutive snapshots.

    E = (1/(2 dt^2)) (U^{n+1}-U^n)^T M (U^{n+1}-U^n)
        + (c^2/4) ((U^{n+1})^T K U^{n+1} + (U^n)^T K U^n).
    """
    Un = np.asarray(Un, dtype=float)
    Un1 = np.asarray(Un1, dtype=float)
    n = sys.M.shape[0]
    if Un.shape != (n,) or Un1.shape != (n,):
        raise ValueError("snapshot dimension mismatch")
    d = Un1 - Un
    kinetic = d @ (sys.M @ d) / (2.0 * dt**2)
    potential = (sys.c**2 / 4.0) * (Un1 @ (sys.K @ Un1) + Un @ (sys.K @ Un))
    return float(kinetic + potential)
