"""P1 finite elements on the structured grid and three-level Crank-Nicolson.

On the uniform single-diagonal triangulation every interior node has the
same six right triangles around it, so P1 assembly gives one stencil per
node, which `FemSystem.build` writes straight into sparse bands. K is the
five-point Laplacian: an edge couples by -(cot a + cot b)/2 over its two
opposite angles, and a diagonal edge faces two right angles (cot = 0). M is
hx hy/12 times 6 at the node and 1 at its four axis and two diagonal
neighbours. M U'' + c^2 K U = 0 is advanced by
(M + a K) U^{n+1} = 2 M U^n - (M + a K) U^{n-1}, a = c^2 dt^2 / 2,
factorizing only the left-hand matrix: one sparse LU in nested-dissection
order, reused every step, so a step is one product with M and one solve;
the Taylor start solves with M by conjugate gradients. See `cn_steps` for
the update behind the published tables.
Only a reference build steps on symmetry orbits (`cn_steps`); the matched
solve, `cn_solve`, steps every interior unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, _locate_cells

__all__ = [
    "FemSystem",
    "FemTrajectory",
    "cn_steps",
    "cn_solve",
    "discrete_energy",
    "interior_values",
    "p1_interpolate",
]

_CG_MAXITER = 200
# A symmetry g that a start keeps moves it by evaluation round-off only:
# max|u0 - g u0| on 4 x 4 to 400 x 400 grids is at most 3 eps of max|u0|
# for the polynomial and 4 eps for the single mode (under J also with
# L1 != L2), under J, S and JS, and 12.7 eps for the default mollifier
# under JS, whose odd part under J and S is 0.5 max|u0|.
_EVEN_ROUNDOFF = 16
_J, _S, _JS = 1, 2, 4   # a group: the sum of its non-identity elements' bits


def interior_values(fn, mesh: Mesh) -> np.ndarray:
    """Sample a function at interior nodes, in interior-unknown order."""
    return np.asarray(fn(*mesh.interior_nodes()), dtype=float)


@dataclass(frozen=True)
class FemSystem:
    """Mass and stiffness matrices restricted to interior unknowns."""

    M: sp.csr_matrix
    K: sp.csr_matrix
    mesh: Mesh
    c: float

    @classmethod
    def build(cls, mesh: Mesh, c: float) -> "FemSystem":
        hx, hy = mesh.L1 / mesh.nx, mesh.L2 / mesh.ny
        a = hx * hy / 12.0
        M = _stencil(mesh, 6.0 * a, a, a, a)
        K = _stencil(mesh, 2.0 * (hy / hx + hx / hy), -hy / hx, -hx / hy, 0.0)
        return cls(M, K, mesh, c)


def _stencil(mesh: Mesh, centre, x_nb, y_nb, diag_nb) -> sp.csr_matrix:
    """Interior matrix of a symmetric stencil on the unknown grid.

    Unknown (i, j) couples to itself, (i +- 1, j), (i, j +- 1) and its
    diagonal neighbours (i + 1, j + 1), (i - 1, j - 1); the x and diagonal
    bands are cut where they would wrap from a row end to the next row.
    """
    nx, n = mesh.nx - 1, mesh.n_interior
    row_end = np.arange(n) % nx == nx - 1
    bands, offsets = [np.full(n, centre)], [0]
    for off, value, cut in ((1, x_nb, True), (nx, y_nb, False),
                            (nx + 1, diag_nb, True)):
        # with one unknown per row every x or diagonal coupling wraps
        if off >= n or (cut and nx == 1):
            continue
        band = np.full(n - off, value)
        if cut:
            band[row_end[:n - off]] = 0.0
        bands += [band, band]
        offsets += [off, -off]
    # the conversion drops zero entries, such as K's diagonal band
    return sp.diags(bands, offsets, shape=(n, n), format="csr")


@dataclass
class FemTrajectory:
    """Interior-unknown snapshots U^0 .. U^Nt on a uniform time grid."""

    snapshots: np.ndarray        # (Nt + 1, n_interior)
    dt: float
    Nt: int
    mesh: Mesh
    stats: dict = field(default_factory=dict)

    def full_grids(self) -> np.ndarray:
        """Nodal values on the full (Nt+1, ny+1, nx+1) grid, boundary zeros."""
        return self.mesh.full_grid(self.snapshots)

    def field(self):
        """Space-time evaluator (x, y, t) -> values.

        P1 interpolation in space on the trajectory's own mesh, linear
        interpolation in time between stored snapshots.
        """
        grids = self.full_grids()
        m = self.mesh

        def evaluate(x, y, t):
            slice_ = _at_time(grids, t, self.dt, self.dt * self.Nt)
            return p1_interpolate(slice_, m.L1, m.L2, x, y)

        return evaluate


def _at_time(levels, t: float, dt: float, T: float) -> np.ndarray:
    """Slice at time t of levels spaced dt apart, linear between levels.

    Times within round-off of [0, T] are clamped to the stored levels.
    """
    if not -1e-12 <= t <= T * (1 + 1e-12):          # NaN fails it too
        raise ValueError(f"time {t} outside [0, {T}]")
    levels = np.asarray(levels)             # a memmap's rows as plain views
    Nt = len(levels) - 1
    s = min(max(t / dt, 0.0), float(Nt))
    k = min(int(s), Nt - 1)
    theta = s - k
    if theta == 0.0:
        return levels[k]
    return (1.0 - theta) * levels[k] + theta * levels[k + 1]


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
             stats: dict | None = None, paper_update: bool = False,
             group: int = 0):
    """Generator of levels U^0, U^1, ... of the implicit wave update.

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

    A = M + a K is factorized once, in the order of `_nested_dissection`
    with diagonal pivots (A is SPD): at 400 x 400 that halves the factoring
    and cuts a solve by a fifth to a third against minimum degree. A step
    is one product with M and one solve: U^{n+1} = A^{-1} M 2U^n - U^{n-1},
    or with paper_update A^{-1} M (3U^n - U^{n-1}) - U^n. The Taylor start
    applies M^{-1} by conjugate gradients instead of a second factorization:
    the element mass matrix has eigenvalues A_e/12 * {4, 1, 1}, so
    cond(M) <= 4 on every mesh `build_structured_mesh` makes.
    `stats["cg_iters"]` counts its iterations (0 with paper_update).

    Each level holds one value per orbit of the nodal grid under `group`
    (`_node_orbits`), boundary zeros included: under the default 0, the
    row-major (ny+1) x (nx+1) grid. Only a reference build passes another,
    the one `_symmetry_group` finds for its u0 and `FemSystem.build`, and
    steps on the unknowns' orbits (`_orbits`): U = P V, V one value per
    orbit and P the n x h embedding that copies it to the members. After
    the full-space Taylor start both updates run on A_e = A[first] P and
    M_e = M[first] P, A_e a diagonal scaling of the SPD P^T A P, so diagonal
    pivots serve; the factor holds about a fifth of A's nonzeros under J, S
    and JS and about half under one. Level 0 is u0 at the smallest members
    `first`. A non-finite u0 raises ValueError before the first level.
    """
    if not np.all(np.isfinite(u0)):
        raise ValueError("non-finite initial values")
    if stats is None:
        stats = {}
    stats.update({"factorizations": 0, "solves": 0, "spmv": 0, "cg_iters": 0})
    n, mesh = len(u0), sys.mesh
    orbit, first = _orbits(mesh.nx, mesh.ny, group)
    h = len(first)
    index, size = _node_orbits(mesh.nx, mesh.ny, group)
    # each orbit's node orbit: distinct, so bincount scatters into zeros
    slots = index.reshape(mesh.ny + 1, -1)[1:-1, 1:-1].ravel()[first]
    yield np.bincount(slots, u0[first], size)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), orbit)), shape=(n, h))
    M, K = sys.M[first] @ P, sys.K[first] @ P
    A = (M + sys.c**2 * dt**2 / 2.0 * K).tocsc()
    try:
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:     # pragma: no cover - valid meshes never hit this
        raise ArithmeticError(
            f"factorization failed (n={h}, dt={dt}): {exc}") from exc
    stats["factorizations"] = 1

    prev = u0
    if paper_update:
        curr = u0.copy()
    else:
        curr = u0 - (dt**2 / 2.0) * sys.c**2 * _mass_solve(sys.M, sys.K @ u0,
                                                           stats)
        stats["solves"] += 1
        stats["spmv"] += 1
    prev, curr = prev[first], curr[first]
    while True:
        yield np.bincount(slots, curr, size)
        if paper_update:        # 2M - aK = 3M - A
            rhs, lag = M @ (3.0 * curr - prev), curr
        else:
            rhs, lag = M @ (2.0 * curr), prev
        prev, curr = curr, lu.solve(rhs) - lag
        stats["solves"] += 1
        stats["spmv"] += 1


def _symmetry_group(mesh: Mesh, u0: np.ndarray) -> int:
    """The mesh symmetries that u0 and `FemSystem.build`'s M and K keep:
    J, (x, y) -> (L1 - x, L2 - y), keeps every stencil, so on every mesh; on
    a square grid the transpose S and anti-transpose JS swap K's x and y
    couplings, -hy/hx and -hx/hy, so only where L1 / nx == L2 / ny. Each is
    kept if it moves u0 by <= _EVEN_ROUNDOFF eps max|u0| (NaN fails)."""
    tol = _EVEN_ROUNDOFF * np.finfo(float).eps * np.max(np.abs(u0), initial=0)
    square = mesh.L1 / mesh.nx == mesh.L2 / mesh.ny
    group = 0
    for bit, g in _maps(mesh.ny - 1, mesh.nx - 1):
        if ((bit == _J or square)
                and np.max(np.abs(u0 - u0[g]), initial=0) <= tol):
            if group:
                return _J | _S | _JS        # any two generate all four
            group = bit
    return group


def _maps(rows: int, cols: int) -> list:
    """(bit, map) of J, and of S and JS on a square, on a row-major grid."""
    grid = np.arange(rows * cols).reshape(rows, cols)
    J = grid[::-1, ::-1]
    maps = [(_J, J), (_S, grid.T), (_JS, J.T)] if rows == cols else [(_J, J)]
    return [(bit, g.ravel()) for bit, g in maps]


def _smallest_members(rows: int, cols: int, group: int) -> np.ndarray:
    """Smallest index in each point's orbit under `group` (abelian, each
    element its own inverse) on a row-major grid."""
    rep = np.arange(rows * cols)
    for bit, g in _maps(rows, cols):
        rep = np.minimum(rep, rep[g]) if group & bit else rep
    return rep


def _orbits(nx: int, ny: int, group: int):
    """(orbit, first) of the unknowns of the nx x ny mesh under `group`:
    orbit[p] numbers p's orbit, first[k] is orbit k's smallest member, in
    `_nested_dissection`'s order restricted to them, with the middle row,
    which J folds onto itself, cut first (else 18% more fill at 200 x 120)."""
    nx, ny = nx - 1, ny - 1
    n = nx * ny
    rep = _smallest_members(ny, nx, group)
    if n and group & _J:
        mid = (ny - 1) // 2     # the rows above it hold no smallest member
        order = np.r_[_nested_dissection(nx, mid), mid * nx + np.arange(nx)]
    else:
        order = _nested_dissection(nx, ny)
    first = order[rep[order] == order]
    number = np.empty(n, dtype=np.intp)
    number[first] = np.arange(len(first))
    return number[rep], first


def _node_orbits(nx: int, ny: int, group: int):
    """(index, K): the orbit of each node of the (ny+1) x (nx+1) grid under
    `group`, numbered by smallest row-major node, and the orbit count."""
    rep = _smallest_members(ny + 1, nx + 1, group)
    number = np.cumsum(rep == np.arange(rep.size)) - 1
    return number[rep], int(number[-1]) + 1


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Row-major ny x nx grid indices in nested-dissection order (A. George,
    SIAM J. Numer. Anal. 10, 1973): cut the longer side at its middle grid
    line, order both halves alike and the cut last; stop at <= 16 unknowns
    or < 3 a side. The stencil couples adjacent grid lines only.
    """
    order = []
    _dissect(np.arange(nx * ny).reshape(ny, nx), order)
    return np.concatenate(order)


def _dissect(block: np.ndarray, order: list) -> None:
    """Append `block`'s indices to `order` in nested-dissection order (a
    closure calling itself would be a reference cycle, which keeps the
    index arrays alive until the cyclic collector runs)."""
    if block.shape[0] > block.shape[1]:
        block = block.T             # cut across the longer side
    mid = block.shape[1] // 2
    if block.size > 16 and block.shape[1] >= 3:
        _dissect(block[:, :mid], order)
        _dissect(block[:, mid + 1:], order)
        block = block[:, mid]
    order.append(block.ravel())


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
    """Advance the semi-discrete wave system on all (nx-1)(ny-1) unknowns,
    which its `stats` count; see `cn_steps` for the update."""
    if not 0 < dt < np.inf:                         # NaN fails it too
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if Nt < 1:
        raise ValueError("need at least one time step")
    u0 = np.asarray(u0_nodal, dtype=float)
    n = sys.M.shape[0]
    if u0.shape != (n,):
        raise ValueError(f"initial vector has shape {u0.shape}, expected ({n},)")

    stats = {}
    snaps = np.empty((Nt + 1, n))
    steps = cn_steps(sys, u0, dt, stats, paper_update)
    for k in range(Nt + 1):
        level = next(steps).reshape(sys.mesh.ny + 1, -1)
        snaps[k] = level[1:-1, 1:-1].ravel()
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
