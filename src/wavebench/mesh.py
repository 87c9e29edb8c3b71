"""Structured conforming triangulation of a rectangle.

The rectangle (0, L1) x (0, L2) is divided into nx * ny uniform cells, each
split into two triangles along the lower-left to upper-right diagonal.
Nodes are ordered row-major, y outer, x inner. Triangles are oriented
counter-clockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "build_structured_mesh", "geometry_arrays"]


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with an interior-unknown index map.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array of coordinates.
    elements : (n_elements, 3) int array of CCW node triples.
    interior : (n_nodes,) int array mapping each node to its interior-unknown
        index, or -1 for boundary nodes.
    h : mesh size, max(L1/nx, L2/ny).
    """

    L1: float
    L2: float
    nx: int
    ny: int
    nodes: np.ndarray
    elements: np.ndarray
    interior: np.ndarray
    h: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_interior(self) -> int:
        return int((self.nx - 1) * (self.ny - 1))

    @property
    def interior_ids(self) -> np.ndarray:
        """Global node ids of interior nodes, in interior-unknown order."""
        return np.flatnonzero(self.interior >= 0)


def build_structured_mesh(L1: float, L2: float, nx: int, ny: int) -> Mesh:
    """Build the uniform single-diagonal triangulation of (0, L1) x (0, L2).

    Every cell is split along its lower-left to upper-right diagonal.
    """
    if L1 <= 0 or L2 <= 0:
        raise ValueError("domain lengths must be positive")
    if nx < 1 or ny < 1:
        raise ValueError("interval counts must be at least 1")

    xs = np.linspace(0.0, L1, nx + 1)
    ys = np.linspace(0.0, L2, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has corners n00, n10, n01, n11; split along n00 -> n11
    i = np.arange(nx)
    j = np.arange(ny)
    I, J = np.meshgrid(i, j)
    n00 = (J * (nx + 1) + I).ravel()
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    interior = np.full(nodes.shape[0], -1, dtype=np.int64)
    ix = np.arange(nx + 1)
    iy = np.arange(ny + 1)
    IX, IY = np.meshgrid(ix, iy)
    mask = (IX > 0) & (IX < nx) & (IY > 0) & (IY < ny)
    interior[mask.ravel()] = np.arange(mask.sum())

    h = max(L1 / nx, L2 / ny)
    nodes.setflags(write=False)
    elements.setflags(write=False)
    interior.setflags(write=False)
    return Mesh(L1, L2, nx, ny, nodes, elements, interior, h)


def geometry_arrays(mesh: Mesh):
    """Vectorized (areas, b, c) for every element; used by assembly."""
    tri = mesh.nodes[mesh.elements]          # (n_el, 3, 2)
    x = tri[:, :, 0]
    y = tri[:, :, 1]
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    b = y[:, nxt] - y[:, prv]
    c = x[:, prv] - x[:, nxt]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    return area, b, c


def _locate_cells(shape, L1: float, L2: float, x, y):
    """Cell of each point (x, y) on a uniform nodal grid, and where in it.

    `shape` is the (ny+1, nx+1) shape of nodal values over [0, L1] x [0, L2].
    Returns (ix, iy, s, r): the lower-left node of the cell holding each
    point and the point's local coordinates in that cell, both in [0, 1].
    Points on the far edges fall in the last cell.
    """
    ny = shape[0] - 1
    nx = shape[1] - 1
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < -1e-12) or np.any(x > L1 * (1 + 1e-12)) \
            or np.any(y < -1e-12) or np.any(y > L2 * (1 + 1e-12)):
        raise ValueError("evaluation point outside the domain")
    gx = np.clip(x / L1 * nx, 0.0, nx)
    gy = np.clip(y / L2 * ny, 0.0, ny)
    ix = np.minimum(gx.astype(np.int64), nx - 1)
    iy = np.minimum(gy.astype(np.int64), ny - 1)
    return ix, iy, gx - ix, gy - iy
