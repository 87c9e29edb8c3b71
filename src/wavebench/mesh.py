"""Structured conforming triangulation of a rectangle.

The rectangle (0, L1) x (0, L2) is divided into nx * ny uniform cells, each
split into two triangles along the lower-left to upper-right diagonal.
Nodal values live on a (ny+1, nx+1) grid, y outer, x inner; the Dirichlet
unknowns are its interior block `grid[1:-1, 1:-1]`, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "build_structured_mesh"]


@dataclass(frozen=True)
class Mesh:
    """The uniform nx x ny single-diagonal triangulation of (0, L1) x (0, L2).

    Unknown p = (j-1)(nx-1) + (i-1) is node (i, j) at (i L1/nx, j L2/ny),
    0 < i < nx, 0 < j < ny: the row-major `[1:-1, 1:-1]` nodal block.
    """

    L1: float
    L2: float
    nx: int
    ny: int

    @property
    def n_interior(self) -> int:
        return int((self.nx - 1) * (self.ny - 1))

    def axes(self):
        """Node coordinates along x (nx+1 values) and along y (ny+1)."""
        return (np.linspace(0.0, self.L1, self.nx + 1),
                np.linspace(0.0, self.L2, self.ny + 1))

    def interior_nodes(self):
        """Coordinates (x, y) of the interior nodes, in unknown order."""
        xs, ys = self.axes()
        X, Y = np.meshgrid(xs[1:-1], ys[1:-1])
        return X.ravel(), Y.ravel()

    def triangles(self) -> np.ndarray:
        """Vertex coordinates (2 nx ny, 3, 2) of every triangle, CCW.

        Cells run row-major, y outer; each cell gives its lower triangle
        (n00, n10, n11) and then its upper one (n00, n11, n01).
        """
        nodes = np.stack(np.meshgrid(*self.axes()), axis=-1)   # (ny+1, nx+1, 2)
        n00, n10 = nodes[:-1, :-1], nodes[:-1, 1:]
        n01, n11 = nodes[1:, :-1], nodes[1:, 1:]
        tri = np.stack([np.stack([n00, n10, n11], axis=2),
                        np.stack([n00, n11, n01], axis=2)], axis=2)
        return tri.reshape(-1, 3, 2)


def build_structured_mesh(L1: float, L2: float, nx: int, ny: int) -> Mesh:
    """Build the uniform single-diagonal triangulation of (0, L1) x (0, L2).

    Every cell is split along its lower-left to upper-right diagonal.
    """
    if L1 <= 0 or L2 <= 0:
        raise ValueError("domain lengths must be positive")
    if nx < 1 or ny < 1:
        raise ValueError("interval counts must be at least 1")
    return Mesh(L1, L2, nx, ny)


def _locate_cells(shape, L1: float, L2: float, x, y):
    """Cell of each point (x, y) on a uniform nodal grid, and where in it.

    `shape` is the (ny+1, nx+1) shape of nodal values over [0, L1] x [0, L2].
    Returns (ix, iy, s, r): the lower-left node of the cell holding each
    point and the point's local coordinates in that cell, both in [0, 1].
    Points on the far edges fall in the last cell.
    """
    ny = shape[0] - 1
    nx = shape[1] - 1
    # written so that NaN fails the check too
    if not (np.all((x >= -1e-12) & (x <= L1 * (1 + 1e-12)))
            and np.all((y >= -1e-12) & (y <= L2 * (1 + 1e-12)))):
        raise ValueError("evaluation point outside the domain")
    gx = np.clip(x / L1 * nx, 0.0, nx)
    gy = np.clip(y / L2 * ny, 0.0, ny)
    ix = np.minimum(gx.astype(np.int64), nx - 1)
    iy = np.minimum(gy.astype(np.int64), ny - 1)
    return ix, iy, gx - ix, gy - iy
