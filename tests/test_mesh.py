"""Structured mesh: counts, node order, triangles and the unknown grid."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from wavebench.mesh import Mesh, build_structured_mesh


def test_counts_12x12():
    m = build_structured_mesh(1.0, 1.0, 12, 12)
    assert (m.L1, m.L2, m.nx, m.ny) == (1.0, 1.0, 12, 12)
    assert [f.name for f in dataclasses.fields(Mesh)] == ["L1", "L2", "nx", "ny"]
    assert m.n_interior == 121
    assert m.triangles().shape == (288, 3, 2)


def test_counts_general():
    m = build_structured_mesh(2.0, 3.0, 4, 5)
    xs, ys = m.axes()
    assert xs.shape == (5,) and ys.shape == (6,)
    assert m.triangles().shape == (2 * 4 * 5, 3, 2)
    assert m.n_interior == 3 * 4
    assert m.interior_nodes()[0].shape == (3 * 4,)
    assert m.full_grid(np.ones(12)).shape == (6, 5)


def test_node_ordering_row_major_y_outer():
    m = build_structured_mesh(1.0, 2.0, 2, 3)
    xs, ys = m.axes()
    np.testing.assert_array_equal(xs, np.linspace(0.0, 1.0, 3))
    np.testing.assert_array_equal(ys, np.linspace(0.0, 2.0, 4))
    # unknowns: the interior block of the nodal grid, x inner
    x, y = m.interior_nodes()
    expect = np.array([[xv, yv] for yv in ys[1:-1] for xv in xs[1:-1]])
    np.testing.assert_array_equal(np.column_stack([x, y]), expect)
    # full_grid puts unknown p back at its node, boundary zero
    grid = m.full_grid(np.arange(1.0, m.n_interior + 1))
    np.testing.assert_array_equal(grid[1:-1, 1:-1].ravel(),
                                  np.arange(1.0, m.n_interior + 1))
    assert grid.sum() == np.arange(1.0, m.n_interior + 1).sum()


def test_areas_positive_and_sum_to_domain():
    m = build_structured_mesh(1.7, 0.9, 7, 5)
    tri = m.triangles()
    v1, v2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    assert np.all(area > 0)          # CCW orientation
    assert area.sum() == pytest.approx(1.7 * 0.9)


def test_element_geometry_identities():
    # every triangle is right-angled with axis legs hx, hy and the
    # lower-left to upper-right diagonal as hypotenuse
    m = build_structured_mesh(1.3, 2.1, 3, 4)
    hx, hy = 1.3 / 3, 2.1 / 4
    tri = m.triangles()
    lower, upper = tri[0::2], tri[1::2]
    np.testing.assert_allclose(lower[:, 1] - lower[:, 0],
                               np.tile([hx, 0.0], (12, 1)), atol=1e-15)
    np.testing.assert_allclose(lower[:, 2] - lower[:, 1],
                               np.tile([0.0, hy], (12, 1)), atol=1e-15)
    np.testing.assert_allclose(upper[:, 2] - upper[:, 1],
                               np.tile([-hx, 0.0], (12, 1)), atol=1e-15)
    np.testing.assert_array_equal(lower[:, [0, 2]], upper[:, [0, 1]])


def test_diagonal_split_lower_then_upper():
    # one cell: lower triangle (n00, n10, n11), then upper (n00, n11, n01)
    m = build_structured_mesh(1.0, 1.0, 1, 1)
    np.testing.assert_array_equal(m.triangles(), [
        [[0, 0], [1, 0], [1, 1]],
        [[0, 0], [1, 1], [0, 1]],
    ])
    # cells run row-major, y outer
    tri = build_structured_mesh(2.0, 2.0, 2, 2).triangles()
    np.testing.assert_array_equal(tri[::2, 0], [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_interior_map():
    m = build_structured_mesh(1.0, 1.0, 3, 3)
    x, y = m.interior_nodes()
    assert x.size == m.n_interior == 4
    assert np.all((0 < x) & (x < 1) & (0 < y) & (y < 1))
    grid = m.full_grid(np.ones(m.n_interior))
    assert np.all(grid[[0, -1], :] == 0) and np.all(grid[:, [0, -1]] == 0)
    # a stack of vectors maps to a stack of grids
    assert m.full_grid(np.ones((5, 4))).shape == (5, 4, 4)
    # no interior nodes on a single row of cells
    assert build_structured_mesh(1.0, 1.0, 2, 1).full_grid(
        np.zeros((3, 0))).shape == (3, 2, 3)


def test_conforming_edges():
    # every interior edge is shared by exactly two triangles
    m = build_structured_mesh(1.0, 1.0, 3, 2)
    edges = Counter()
    for tri in m.triangles():
        verts = [tuple(v) for v in tri]
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((verts[a], verts[b]))] += 1
    counts = np.array(sorted(edges.values()))
    assert set(counts) <= {1, 2}
    n_boundary_edges = 2 * (m.nx + m.ny)
    assert (counts == 1).sum() == n_boundary_edges
    assert len(edges) == 3 * m.nx * m.ny + m.nx + m.ny


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_structured_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        build_structured_mesh(1.0, 1.0, 0, 2)


def test_mesh_is_immutable():
    m = build_structured_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.nx = 5
