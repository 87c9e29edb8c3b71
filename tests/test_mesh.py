"""Structured mesh construction and element geometry."""

import numpy as np
import pytest

from wavebench.mesh import Mesh, build_structured_mesh, geometry_arrays


def test_counts_12x12():
    m = build_structured_mesh(1.0, 1.0, 12, 12)
    assert m.n_nodes == 169
    assert m.n_elements == 288
    assert m.n_interior == 121


def test_counts_general():
    m = build_structured_mesh(2.0, 3.0, 4, 5)
    assert m.n_nodes == 5 * 6
    assert m.n_elements == 2 * 4 * 5
    assert m.n_interior == 3 * 4
    assert m.h == pytest.approx(max(2.0 / 4, 3.0 / 5))


def test_node_ordering_row_major_y_outer():
    m = build_structured_mesh(1.0, 1.0, 2, 2)
    xs = np.array([0.0, 0.5, 1.0])
    expect = np.array([[x, y] for y in xs for x in xs])
    np.testing.assert_allclose(m.nodes, expect)


def test_areas_positive_and_sum_to_domain():
    m = build_structured_mesh(1.7, 0.9, 7, 5)
    area, _, _ = geometry_arrays(m)
    assert np.all(area > 0)          # CCW orientation
    assert area.sum() == pytest.approx(1.7 * 0.9)


def test_element_geometry_identities():
    # b_i sums and c_i sums vanish; gradients of the P1 hats are
    # (b_i, c_i) / (2A), which reproduce a linear function exactly.
    m = build_structured_mesh(1.3, 2.1, 3, 4)
    areas, bs, cs = geometry_arrays(m)
    for e in (0, 1, 7, m.n_elements - 1):
        area, b, c = areas[e], bs[e], cs[e]
        assert b.sum() == pytest.approx(0.0, abs=1e-14)
        assert c.sum() == pytest.approx(0.0, abs=1e-14)
        tri = m.nodes[m.elements[e]]
        # signed area from the cross product must match
        v1 = tri[1] - tri[0]
        v2 = tri[2] - tri[0]
        assert area == pytest.approx(0.5 * (v1[0] * v2[1] - v1[1] * v2[0]))


def test_diagonal_split_lower_then_upper():
    # cell 0 of a 1x1 mesh: lower triangle (0, 1, 3), upper (0, 3, 2)
    m = build_structured_mesh(1.0, 1.0, 1, 1)
    np.testing.assert_array_equal(m.elements[0], [0, 1, 3])
    np.testing.assert_array_equal(m.elements[1], [0, 3, 2])


def test_interior_map():
    m = build_structured_mesh(1.0, 1.0, 3, 3)
    on_boundary = ((m.nodes[:, 0] == 0) | (m.nodes[:, 0] == 1)
                   | (m.nodes[:, 1] == 0) | (m.nodes[:, 1] == 1))
    assert np.all(m.interior[on_boundary] == -1)
    inner = m.interior[~on_boundary]
    np.testing.assert_array_equal(np.sort(inner), np.arange(4))
    assert m.interior_ids.size == m.n_interior


def test_conforming_edges():
    # every interior edge is shared by exactly two triangles
    m = build_structured_mesh(1.0, 1.0, 3, 2)
    from collections import Counter
    edges = Counter()
    for tri in m.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((tri[a], tri[b]))] += 1
    counts = np.array(sorted(edges.values()))
    assert set(counts) <= {1, 2}
    n_boundary_edges = 2 * (m.nx + m.ny)
    assert (counts == 1).sum() == n_boundary_edges


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_structured_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        build_structured_mesh(1.0, 1.0, 0, 2)


def test_mesh_is_immutable():
    m = build_structured_mesh(1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 5.0
