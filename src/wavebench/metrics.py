"""Quadrature-based error measurement.

Space: the 4-point degree-3 triangle rule (barycentric centroid with weight
-27/48 plus the three permutations of (3/5, 1/5, 1/5) with weight 25/48).
Time: composite Simpson's 1/3 rule over a uniform evaluation grid. The
reference solution is read back by bilinear interpolation in space and
linear interpolation in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, _locate_cells

__all__ = [
    "ErrorReport",
    "mesh_quadrature",
    "bilinear_interp",
    "simpson_weights",
    "compute_error_report",
]

# degree-3 rule in barycentric coordinates
_QUAD_BARY = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [3.0 / 5.0, 1.0 / 5.0, 1.0 / 5.0],
    [1.0 / 5.0, 3.0 / 5.0, 1.0 / 5.0],
    [1.0 / 5.0, 1.0 / 5.0, 3.0 / 5.0],
])
_QUAD_W = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0


def mesh_quadrature(mesh: Mesh):
    """Quadrature points and weights covering the whole mesh.

    Returns (points, weights) with shapes (4 n_el, 2) and (4 n_el,); the
    weights already include the element areas, so sum(w * f(p)) integrates
    f over the rectangle.
    """
    tri = mesh.triangles()                                # (n_el, 3, 2)
    x, y = tri[:, :, 0], tri[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    pts = np.einsum("qb,ebd->eqd", _QUAD_BARY, tri)       # (n_el, 4, 2)
    w = area[:, None] * _QUAD_W[None, :]
    return pts.reshape(-1, 2), w.ravel()


def bilinear_interp(ref_slice: np.ndarray, L1: float, L2: float, x, y):
    """Tensor-product bilinear interpolation on a uniform nodal grid.

    `ref_slice` has shape (ny+1, nx+1) over [0, L1] x [0, L2]; exact at
    grid nodes and for any bilinear function.
    """
    return _bilinear(ref_slice, _locate_cells(ref_slice.shape, L1, L2, x, y))


def _bilinear(grid: np.ndarray, cells):
    """Bilinear interpolation of `grid` at points already located in it."""
    ix, iy, s, r = cells
    return ((1 - s) * (1 - r) * grid[iy, ix]
            + s * (1 - r) * grid[iy, ix + 1]
            + (1 - s) * r * grid[iy + 1, ix]
            + s * r * grid[iy + 1, ix + 1])


def simpson_weights(Nt: int, dt: float) -> np.ndarray:
    """Composite Simpson 1/3 weights on Nt intervals (Nt even).

    The weights integrate cubics exactly.
    """
    if Nt < 2 or Nt % 2:
        raise ValueError("Simpson's rule needs an even interval count >= 2")
    w = np.ones(Nt + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dt / 3.0


@dataclass
class ErrorReport:
    """Error summary for one (solver, initial condition) pair."""

    st_l2: float
    st_rel: float
    linf_l2: float
    linf_rel: float
    ref_st_norm: float
    per_snapshot: np.ndarray

    def to_dict(self) -> dict:
        return {**vars(self), "per_snapshot": self.per_snapshot.tolist()}


def compute_error_report(solution, ref, mesh: Mesh,
                         Nt_eval: int = 200) -> ErrorReport:
    """Full error report of a space-time field against the reference.

    `solution` is a callable (x, y, t) -> values and `ref` a
    ReferenceSolution. At each of the Nt_eval + 1 evaluation times the
    spatial L2 error E_n and reference norm R_n are integrated over the
    mesh; Simpson's rule in time then gives the space-time norms.
    """
    times, dt = np.linspace(0.0, ref.problem.T, Nt_eval + 1, retstep=True)
    wt = simpson_weights(Nt_eval, dt)
    pts, w = mesh_quadrature(mesh)
    x, y = pts[:, 0], pts[:, 1]
    E = np.empty(Nt_eval + 1)
    R = np.empty(Nt_eval + 1)
    # every slice shares one grid, so the points are located once
    cells = _locate_cells(ref.at_time(0.0).shape, mesh.L1, mesh.L2, x, y)
    for n, t in enumerate(times):
        ref_vals = _bilinear(ref.at_time(t), cells)
        sol_vals = np.asarray(solution(x, y, t), dtype=float)
        # the negative centroid weight can push a tiny squared integral
        # below zero
        E[n] = np.sqrt(max(w @ (sol_vals - ref_vals) ** 2, 0.0))
        R[n] = np.sqrt(max(w @ ref_vals**2, 0.0))
    st = float(np.sqrt(wt @ E**2))
    ref_norm = float(np.sqrt(wt @ R**2))
    # The max-in-time error is normalized by the reference norm at the
    # snapshot where the error peaks, so linf_rel is the relative error
    # of that worst snapshot rather than a ratio of two unrelated maxima.
    n_peak = int(np.argmax(E))
    linf, ref_peak = float(E[n_peak]), float(R[n_peak])
    if ref_norm <= 0 or ref_peak <= 0:
        raise ValueError("reference norm must be positive")
    return ErrorReport(
        st_l2=st,
        st_rel=st / ref_norm,
        linf_l2=linf,
        linf_rel=linf / ref_peak,
        ref_st_norm=ref_norm,
        per_snapshot=E,
    )
