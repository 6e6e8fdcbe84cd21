import math
import re

import numpy as np
import pytest

from persets import graphs, metric, spaces
from persets.errors import InvalidDescriptor, InvalidPoint
from persets.graphs import GraphPoint


def test_same_edge_distance_in_tree():
    g = graphs.build_graph(2, [(0, 1, 5.0)])
    assert graphs.point_distance(g, GraphPoint(0, 1.0), GraphPoint(0, 4.0)) == 3.0


def test_wedge_distance_adds_arc_lengths():
    g = graphs.wedge_of_circles([4.0, 6.0])
    # arc distances to the hub: min(offset, c - offset)
    p = GraphPoint(0, 1.5)  # 1.5 from hub on circle 1
    q = GraphPoint(1, 4.5)  # min(4.5, 1.5) = 1.5 from hub on circle 2
    assert graphs.point_distance(g, p, q) == pytest.approx(3.0, abs=1e-12)


def test_unit_cycle_antipodal_vertices():
    # cycle of total length 8 as 8 unit edges
    edges = [(i, (i + 1) % 8, 1.0) for i in range(8)]
    g = graphs.build_graph(8, edges)
    assert graphs.point_distance(g, GraphPoint(0, 0.0), GraphPoint(4, 0.0)) == 4.0


def test_long_edge_bypassed_through_cycle():
    # triangle with one long edge: the in-edge route is not shortest
    g = graphs.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)])
    p, q = GraphPoint(2, 0.5), GraphPoint(2, 9.5)
    assert graphs.point_distance(g, p, q) == pytest.approx(3.0)


def test_invalid_points_rejected():
    g = graphs.build_graph(2, [(0, 1, 2.0)])
    with pytest.raises(InvalidPoint):
        graphs.point_distance(g, GraphPoint(1, 0.0), GraphPoint(0, 1.0))
    with pytest.raises(InvalidPoint):
        graphs.point_distance(g, GraphPoint(0, 3.0), GraphPoint(0, 1.0))


def test_disconnected_graph_rejected():
    with pytest.raises(InvalidDescriptor):
        graphs.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_sample_single_edge_uniform():
    g = graphs.build_graph(2, [(0, 1, 4.0)])
    rng = np.random.default_rng(1)
    pts = graphs.sample_graph(g, rng, 1_000_000)
    assert pts[:, 1].mean() == pytest.approx(2.0, rel=0.01)


def test_sample_length_proportional_edges():
    g = graphs.build_graph(2, [(0, 1, 1.0), (0, 1, 3.0)])
    rng = np.random.default_rng(2)
    pts = graphs.sample_graph(g, rng, 1_000_000)
    freq = (pts[:, 0] == 1).mean()
    assert freq == pytest.approx(0.75, abs=0.01)


def test_sample_count_zero():
    g = graphs.build_graph(2, [(0, 1, 1.0)])
    assert len(graphs.sample_graph(g, np.random.default_rng(0), 0)) == 0


def test_wedge_family_shape():
    g = graphs.wedge_of_circles([3.5, 4.5])
    assert g.total_length == pytest.approx(8.0)
    # first Betti number = edges - vertices + 1
    assert len(g.edges) - g.vertex_count + 1 == 2


def test_glued_family_shape_and_warning():
    g = graphs.glued_cycles([3.5, 4.5], alpha=0.5)
    assert g.total_length == pytest.approx(0.5 + 3.0 + 4.0)
    assert len(g.edges) - g.vertex_count + 1 == 2
    with pytest.warns(UserWarning):
        graphs.glued_cycles([3.0, 4.0], alpha=1.5)  # alpha >= min(l)/3


def test_flares_family_shape():
    g = graphs.cycle_with_flares(2 * math.pi, 4, 1.0)
    assert g.vertex_count == 8
    assert g.total_length == pytest.approx(2 * math.pi + 4.0)
    assert len(g.edges) - g.vertex_count + 1 == 1


def test_tree_of_cycles_shape():
    g = graphs.tree_of_cycles([6.0, 8.0, 10.0], 0.5)
    assert len(g.edges) - g.vertex_count + 1 == 3
    assert g.total_length == pytest.approx(25.0)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: graphs.wedge_of_circles([3.2, 4.0]),
        lambda: graphs.glued_cycles([3.5, 4.5], 0.5),
        lambda: graphs.cycle_with_flares(2 * math.pi, 4, 1.0),
        lambda: graphs.tree_of_cycles([6.0, 8.0, 10.0], 0.5),
    ],
)
def test_triangle_inequality_on_graphs(maker):
    g = maker()
    rng = np.random.default_rng(5)
    pts = graphs.sample_graph(g, rng, 300_000).reshape(100_000, 3, 2)
    e = pts[..., 0].astype(int)
    o = pts[..., 1]
    dab = graphs.point_distance_batch(g, e[:, 0], o[:, 0], e[:, 1], o[:, 1])
    dbc = graphs.point_distance_batch(g, e[:, 1], o[:, 1], e[:, 2], o[:, 2])
    dac = graphs.point_distance_batch(g, e[:, 0], o[:, 0], e[:, 2], o[:, 2])
    assert (dac <= dab + dbc + 1e-9).all()
    assert (dab >= 0).all()


def test_wedge_circle_restriction_is_isometric():
    # one circle of the wedge carries exactly the scaled circle metric
    c1, c2 = 3.2, 4.0
    g = graphs.wedge_of_circles([c1, c2])
    circle = spaces.CircleGeodesic(diameter=c1 / 2.0)
    rng = np.random.default_rng(9)
    theta = rng.uniform(0, 2 * math.pi, size=(5000, 2))
    offs = theta * (c1 / (2 * math.pi))
    d_graph = graphs.point_distance_batch(
        g, np.zeros(5000, int), offs[:, 0], np.zeros(5000, int), offs[:, 1]
    )
    d_circle = circle.pair_distance(theta[:, :1], theta[:, 1:])
    np.testing.assert_allclose(d_graph, d_circle, atol=1e-12)


def test_single_cycle_distance_bounded_by_half_length():
    g = graphs.wedge_of_circles([7.0])
    rng = np.random.default_rng(10)
    pts = graphs.sample_graph(g, rng, 100_000)
    d = graphs.point_distance_batch(
        g, pts[0::2, 0].astype(int), pts[0::2, 1], pts[1::2, 0].astype(int), pts[1::2, 1]
    )
    assert d.max() <= 3.5 + 1e-12


def test_graph_json_roundtrip(tmp_path):
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    path = tmp_path / "g.json"
    graphs.write_graph_json(g, path)
    back = graphs.read_graph_json(path)
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges


def test_parse_family():
    assert graphs.parse_family("wedge:3.5,4.5").total_length == pytest.approx(8.0)
    assert graphs.parse_family("flares:c=6.2832,k=4,L=1").vertex_count == 8
    g = graphs.parse_family("glued:3.5,4.5:alpha=0.5")
    assert g.vertex_count == 2
    assert graphs.parse_family("treecycles:6,8,10:edge=0.5").vertex_count == 3
    assert graphs.parse_family("flares-fig").total_length == pytest.approx(2 * math.pi + 4)
    with pytest.raises(InvalidDescriptor):
        graphs.parse_family("moebius:1")


@pytest.mark.parametrize("text", ["glued:3.5,x:alpha=0.5", "glued:3.5,4.5", "glued:3.5,4.5:beta=1",
                                  "flares", "flares:c=abc", "treecycles", "wedge:", "flares-fig:2"])
def test_parse_family_malformed_is_invalid_descriptor(text):
    with pytest.raises(InvalidDescriptor, match=re.escape(repr(text))):
        graphs.parse_family(text)


@pytest.mark.parametrize("family", ["flares-fig", "treecycles:6,8,10"])
def test_point_matrices_are_exactly_symmetric(family):
    # endpoint routes add offsets and vertex distances in a different order
    # per orientation; the matrix mirrors the i < j values, so it validates
    g = graphs.parse_family(family)
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = graphs.distance_matrix_of_points(g, graphs.sample_graph(g, rng, 6))
        metric.validate(d)
        assert np.array_equal(d, d.T)


def test_edge_arrays_are_built_once():
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    assert g.edge_len is g.edge_len
    np.testing.assert_array_equal(g.edge_len, [0.5, 3.0, 4.0])
    np.testing.assert_array_equal(g.edge_u, [0, 0, 0])
    np.testing.assert_array_equal(g.edge_v, [1, 1, 1])
