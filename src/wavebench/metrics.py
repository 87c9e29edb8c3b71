"""Quadrature-based error measurement.

Space: the 4-point degree-3 triangle rule (barycentric centroid with weight
-27/48 plus the three permutations of (3/5, 1/5, 1/5) with weight 25/48).
Time: composite Simpson's 1/3 rule over a uniform evaluation grid. Only
`sample_reference` reads the reference: bilinear on its own grid and
rectangle (a mesh leaving it is an error), linear in time, and tagged with
the mesh it was read on, the one mesh its samples may be scored on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import _at_time
from .mesh import Mesh, _locate_cells

__all__ = [
    "ErrorReport",
    "mesh_quadrature",
    "simpson_weights",
    "sample_reference",
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


def sample_reference(ref, mesh: Mesh, Nt_eval: int = 200):
    """The reference at every quadrature point of `mesh` and evaluation time.

    Returns (mesh, values): values[n] holds the reference at the points of
    `mesh_quadrature(mesh)` at the n-th of the Nt_eval + 1 evaluation
    times, read from `ref.levels` through the orbits of the corner nodes.
    """
    times = np.linspace(0.0, ref.problem.T, Nt_eval + 1)
    pts, _ = mesh_quadrature(mesh)
    # located once for all times; raises off the reference's rectangle
    W = ref.grid_nx + 1
    ix, iy, s, r = _locate_cells((ref.grid_ny + 1, W), ref.problem.L1,
                                 ref.problem.L2, pts[:, 0], pts[:, 1])
    corners = ref.node_orbits[iy * W + ix + np.array([[0], [1], [W], [W + 1]])]
    weights = np.array([(1 - s) * (1 - r), s * (1 - r), (1 - s) * r, s * r])
    values = np.empty((Nt_eval + 1, len(pts)))
    for n, t in enumerate(times):
        level = _at_time(ref.levels, t, ref.dt_ref, ref.problem.T)
        np.einsum("kp,kp->p", level[corners], weights, out=values[n])
    return mesh, values


def compute_error_report(solution, ref, mesh: Mesh, Nt_eval: int = 200,
                         ref_samples=None) -> ErrorReport:
    """Full error report of a space-time field against the reference.

    `solution` (x, y, t) -> values is called once per evaluation time
    with the same quadrature point arrays, for which `predict` and
    `p1_interpolate` build their tables once; `ref` is a
    ReferenceSolution. `ref_samples` is `sample_reference(ref, mesh,
    Nt_eval)`, read here when not given; pass it to score several solvers
    on `mesh` from one read. At each of the Nt_eval + 1 evaluation times
    the spatial L2 error E_n and reference norm R_n are integrated over the
    mesh; Simpson's rule in time then gives the space-time norms.
    """
    times, dt = np.linspace(0.0, ref.problem.T, Nt_eval + 1, retstep=True)
    wt = simpson_weights(Nt_eval, dt)
    pts, w = mesh_quadrature(mesh)
    x, y = pts[:, 0], pts[:, 1]
    ref_mesh, ref_vals = (sample_reference(ref, mesh, Nt_eval)
                          if ref_samples is None else ref_samples)
    if ref_mesh != mesh or ref_vals.shape != (Nt_eval + 1, len(w)):
        raise ValueError(f"reference samples of shape {ref_vals.shape} on "
                         f"{ref_mesh}, not {(Nt_eval + 1, len(w))} (times, "
                         f"quadrature points) on {mesh}")
    E, R = np.empty(Nt_eval + 1), np.empty(Nt_eval + 1)
    for n, t in enumerate(times):
        sol_vals = np.asarray(solution(x, y, t), dtype=float)
        # the negative centroid weight can push a tiny squared integral
        # below zero
        E[n] = np.sqrt(max(w @ (sol_vals - ref_vals[n]) ** 2, 0.0))
        R[n] = np.sqrt(max(w @ ref_vals[n] ** 2, 0.0))
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
