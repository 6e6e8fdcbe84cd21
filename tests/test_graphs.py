import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persets import engine, graphs, spaces
from persets.errors import InvalidDescriptor, InvalidPoint, TooLarge

from conftest import draw
from reference import random_tree, sample_graph, total_length, write_graph_json


def test_same_edge_distance_in_tree():
    g = graphs.build_graph(2, [(0, 1, 5.0)])
    assert spaces.distance(g, [0, 1.0], [0, 4.0]) == 3.0


def test_wedge_distance_adds_arc_lengths():
    g = graphs.wedge_of_circles([4.0, 6.0])
    # arc distances to the hub: min(offset, c - offset)
    p = [0, 1.5]  # 1.5 from hub on circle 1
    q = [1, 4.5]  # min(4.5, 1.5) = 1.5 from hub on circle 2
    assert spaces.distance(g, p, q) == pytest.approx(3.0, abs=1e-12)


def test_unit_cycle_antipodal_vertices():
    # cycle of total length 8 as 8 unit edges
    edges = [(i, (i + 1) % 8, 1.0) for i in range(8)]
    g = graphs.build_graph(8, edges)
    assert spaces.distance(g, [0, 0.0], [4, 0.0]) == 4.0


def test_long_edge_bypassed_through_cycle():
    # triangle with one long edge: the in-edge route is not shortest
    g = graphs.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)])
    assert spaces.distance(g, [2, 0.5], [2, 9.5]) == pytest.approx(3.0)


def test_invalid_points_rejected():
    g = graphs.build_graph(2, [(0, 1, 2.0)])
    with pytest.raises(InvalidPoint):
        spaces.distance(g, [1, 0.0], [0, 1.0])
    with pytest.raises(InvalidPoint):
        spaces.distance(g, [0, 3.0], [0, 1.0])


@pytest.mark.parametrize("point, message", [
    ([1.5, 1.0], "edge index 1.5"),  # not a whole edge index
    ([-1, 1.0], "edge index -1"),
    ([2, 1.0], "edge index 2 is not one of the 2 edges"),
    ([math.nan, 1.0], "edge index nan"),
    ([0, -0.5], "offset -0.5 outside edge 0"),
    ([1, 3.5], "offset 3.5 outside edge 1"),  # past its edge, though inside the longer edge 0
    ([0, math.nan], "offset nan outside edge 0"),
], ids=["fractional-edge", "negative-edge", "edge-past-end", "nan-edge", "negative-offset", "offset-past-edge",
        "nan-offset"])
def test_graph_points_from_outside_raise_invalid_point(point, message):
    g = graphs.build_graph(2, [(0, 1, 4.0), (0, 1, 3.0)])
    with pytest.raises(InvalidPoint, match=message):
        spaces.distance(g, point, [0, 1.0])
    with pytest.raises(InvalidPoint, match=message):
        spaces.distance(g, [[0, 1.0], [1, 2.0]], [[0, 1.0], point])
    with pytest.raises(InvalidPoint, match=message):
        spaces.distance_matrix(g, [[0, 1.0], [1, 2.0], point])


@pytest.mark.parametrize("rows", [[0, 1.0, 0.0], [[0], [1]], 0.0], ids=["three-wide", "one-wide", "scalar"])
def test_graph_points_are_two_wide_rows(rows):
    g = graphs.wedge_of_circles([4.0, 6.0])
    with pytest.raises(InvalidPoint, match=r"\(edge, offset\) rows"):
        spaces.distance(g, rows, rows)
    with pytest.raises(InvalidPoint, match=r"\(edge, offset\) rows"):
        spaces.distance_matrix(g, rows)


def test_disconnected_graph_rejected():
    with pytest.raises(InvalidDescriptor):
        graphs.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])


@pytest.mark.parametrize("vertices, edges, message", [
    (2, [(0, 1, math.inf)], "length inf"),
    (2, [(0, 1, math.nan)], "length nan"),
    (2, [(0, 1, 1e308), (0, 1, 1e308)], "overflows"),
    (1, [], "no edges"),
])
def test_unsamplable_graph_rejected(vertices, edges, message):
    with pytest.raises(InvalidDescriptor, match=message):
        graphs.build_graph(vertices, edges)


def test_sample_single_edge_uniform():
    g = graphs.build_graph(2, [(0, 1, 4.0)])
    rng = np.random.default_rng(1)
    pts = draw(g, rng, 1_000_000)
    assert pts[:, 1].mean() == pytest.approx(2.0, rel=0.01)


def test_sample_length_proportional_edges():
    g = graphs.build_graph(2, [(0, 1, 1.0), (0, 1, 3.0)])
    rng = np.random.default_rng(2)
    pts = draw(g, rng, 1_000_000)
    freq = (pts[:, 0] == 1).mean()
    assert freq == pytest.approx(0.75, abs=0.01)


def test_sample_count_zero():
    g = graphs.build_graph(2, [(0, 1, 1.0)])
    assert list(graphs.sample_graph(g, np.random.default_rng(0), 0)) == []


@pytest.mark.parametrize("graph", ["wedge:3.5,4.5", "glued:3.5,4.5:alpha=0.5", "flares:c=6.2832,k=4,L=1",
                                   "flares-fig", "treecycles:8,10,12.8:edge=0.35", 0, 1, 2])
def test_sample_graph_draws_what_rng_choice_draws(graph, monkeypatch):
    # the same draws and edges, row block by row block, and the generator ends in the same state
    g = random_tree(np.random.default_rng(graph), 40) if isinstance(graph, int) else graphs.parse_family(graph)
    monkeypatch.setattr(spaces, "_ROWS", 1000)
    for seed in range(5):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        e = theirs.choice(len(g.edge_len), size=2500, p=g.edge_len / g.edge_len.sum())
        o = theirs.uniform(0.0, 1.0, size=2500) * g.edge_len[e]
        assert draw(g, ours, 2500).tobytes() == np.column_stack([e, o]).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


class Uniforms:
    """A generator stand-in whose ``random`` returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


def test_sample_graph_picks_the_edge_rng_choice_picks_at_every_step():
    # a uniform at a step of rng.choice's cdf, or one ulp below it, draws the edge rng.choice draws;
    # these lengths' probabilities sum to 1 - 2**-52, so any other rounding of the cdf moves a step
    g = graphs.build_graph(2, [(0, 1, w) for w in (0.3, 1.7, 2.9, 0.123)])
    p = g.edge_len / g.edge_len.sum()
    steps = (p.cumsum() / p.cumsum()[-1])[:-1]  # numpy's Generator.choice: cdf = p.cumsum(); cdf /= cdf[-1]
    u = np.column_stack([np.nextafter(steps, 0.0), steps]).ravel()
    rows = np.concatenate(list(graphs.sample_graph(g, Uniforms([*u, *[0.5] * len(u)]), len(u))))
    assert rows[:, 0].tolist() == [e for i in range(len(steps)) for e in (i, i + 1)]
    assert rows[:, 1].tolist() == (0.5 * g.edge_len[rows[:, 0].astype(int)]).tolist()


def loop_graph():
    """A random tree with three self-loops and a parallel edge."""
    rng = np.random.default_rng(3)
    edges = list(random_tree(rng, 6).edges)
    edges += [(int(u), int(u), float(w)) for u, w in zip(rng.integers(0, 6, size=3), rng.uniform(0.1, 3.0, size=3))]
    return graphs.build_graph(6, edges + [edges[0][:2] + (0.25,)])


@pytest.mark.parametrize("rows", [1000, 4096, spaces._ROWS])
@pytest.mark.parametrize("graph", ["wedge:3.5,4.5", "glued:3.5,4.5:alpha=0.5", "flares:c=6.2832,k=4,L=1",
                                   "flares-fig", "treecycles:8,10,12.8:edge=0.35", "loops", "most-edges"])
def test_sample_graph_streams_the_two_pass_draw(graph, rows, monkeypatch):
    # the stream's blocks, rows at a time, concatenate to the whole two-pass draw bit for bit, and leave the
    # generator in its state; "most-edges" has graphs.MAX_EDGES parallel edges, so its indices need 13 bits
    if graph == "most-edges":
        g = graphs.build_graph(2, [(0, 1, 1.0 + e / graphs.MAX_EDGES) for e in range(graphs.MAX_EDGES)])
    else:
        g = loop_graph() if graph == "loops" else graphs.parse_family(graph)
    monkeypatch.setattr(spaces, "_ROWS", rows)
    for count in (0, 1, rows - 1, rows + 1, 2500):
        ours, theirs = np.random.default_rng(count), np.random.default_rng(count)
        blocks = list(graphs.sample_graph(g, ours, count))
        assert [len(b) for b in blocks] == [min(rows, count - r) for r in range(0, count, rows)]
        whole = sample_graph(g, theirs, count)
        assert np.concatenate([np.empty((0, 2)), *blocks]).tobytes() == whole.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert whole[:, 0].max() >= (graphs.MAX_EDGES - 30 if graph == "most-edges" else len(g.edges) - 1)


def test_wedge_family_shape():
    g = graphs.wedge_of_circles([3.5, 4.5])
    assert total_length(g) == pytest.approx(8.0)
    # first Betti number = edges - vertices + 1
    assert len(g.edges) - g.vertex_count + 1 == 2


def test_glued_family_shape_and_warning():
    g = graphs.glued_cycles([3.5, 4.5], alpha=0.5)
    assert total_length(g) == pytest.approx(0.5 + 3.0 + 4.0)
    assert len(g.edges) - g.vertex_count + 1 == 2
    with pytest.warns(UserWarning):
        graphs.glued_cycles([3.0, 4.0], alpha=1.5)  # alpha >= min(l)/3


def test_flares_family_shape():
    g = graphs.cycle_with_flares(2 * math.pi, 4, 1.0)
    assert g.vertex_count == 8
    assert total_length(g) == pytest.approx(2 * math.pi + 4.0)
    assert len(g.edges) - g.vertex_count + 1 == 1


def test_tree_of_cycles_shape():
    g = graphs.tree_of_cycles([6.0, 8.0, 10.0], 0.5)
    assert len(g.edges) - g.vertex_count + 1 == 3
    assert total_length(g) == pytest.approx(25.0)


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
    pts = draw(g, rng, 300_000).reshape(100_000, 3, 2)
    dab = spaces.distance(g, pts[:, 0], pts[:, 1])
    dbc = spaces.distance(g, pts[:, 1], pts[:, 2])
    dac = spaces.distance(g, pts[:, 0], pts[:, 2])
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
    on_edge_0 = np.stack([np.zeros((5000, 2)), offs], axis=-1)  # (5000, 2, 2) (edge, offset) rows
    d_graph = spaces.distance(g, on_edge_0[:, 0], on_edge_0[:, 1])
    d_circle = circle.pair_distance(theta[:, :1], theta[:, 1:])
    np.testing.assert_allclose(d_graph, d_circle, atol=1e-12)


def test_single_cycle_distance_bounded_by_half_length():
    g = graphs.wedge_of_circles([7.0])
    rng = np.random.default_rng(10)
    pts = draw(g, rng, 100_000)
    d = spaces.distance(g, pts[0::2], pts[1::2])
    assert d.max() <= 3.5 + 1e-12


def test_graph_json_roundtrip(tmp_path):
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    path = tmp_path / "g.json"
    write_graph_json(g, path)
    back = graphs.read_graph_json(path)
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges


def test_a_graph_json_past_the_edge_cap_is_refused_before_any_shortest_path(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    edges = [[i, i + 1, 1.0] for i in range(graphs.MAX_VERTICES - 1)]
    edges += [[0, i % graphs.MAX_VERTICES, 0.5] for i in range(graphs.MAX_EDGES + 1 - len(edges))]
    path.write_text(json.dumps({"vertices": graphs.MAX_VERTICES, "edges": edges}))
    monkeypatch.setattr(graphs, "heapq", None)  # a Dijkstra run would raise AttributeError
    with pytest.raises(TooLarge, match=re.escape(f"{path}: graph has {graphs.MAX_EDGES + 1} edges, "
                                                 f"more than {graphs.MAX_EDGES}")):
        graphs.read_graph_json(path)


def test_parse_family():
    assert total_length(graphs.parse_family("wedge:3.5,4.5")) == pytest.approx(8.0)
    assert graphs.parse_family("flares:c=6.2832,k=4,L=1").vertex_count == 8
    g = graphs.parse_family("glued:3.5,4.5:alpha=0.5")
    assert g.vertex_count == 2
    assert graphs.parse_family("treecycles:6,8,10:edge=0.5").vertex_count == 3
    assert total_length(graphs.parse_family("flares-fig")) == pytest.approx(2 * math.pi + 4)
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
        d = spaces.distance_matrix(g, draw(g, rng, 6)).entries
        assert np.array_equal(d, d.T)


def test_edge_arrays_are_built_once():
    g = graphs.glued_cycles([3.5, 4.5], 0.5)
    assert g.edge_len is g.edge_len
    np.testing.assert_array_equal(g.edge_len, [0.5, 3.0, 4.0])
    np.testing.assert_array_equal(g.edge_u, [0, 0, 0])
    np.testing.assert_array_equal(g.edge_v, [1, 1, 1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vertices=st.integers(1, 7), extra=st.integers(1, 6),
       count=st.integers(2, 12))
def test_random_graph_point_distances_are_a_metric(seed, vertices, extra, count):
    # a random tree plus random extra edges, where u == v makes a self-loop
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, vertices, size=(extra, 2))
    lengths = rng.uniform(0.1, 3.0, size=extra)
    edges = list(random_tree(rng, vertices).edges) if vertices > 1 else []  # an edgeless graph is refused
    edges += [(int(u), int(v), float(w)) for (u, v), w in zip(ends, lengths)]
    g = graphs.build_graph(vertices, edges)
    pts = draw(g, rng, count)
    pts[0, 1] = 0.0  # a vertex, and the far end of an edge
    pts[-1, 1] = g.edge_len[int(pts[-1, 0])]
    d = spaces.distance_matrix(g, pts).entries  # validated
    assert np.array_equal(d, d.T) and not np.diagonal(d).any()
    assert not spaces.distance(g, pts, pts).any()


def _endpoint_routes(g, p, q):
    """The route of one pair of (edge, offset) points, one float at a time."""
    table = g.vertex_distances
    (e1, o1), (e2, o2) = (int(p[0]), p[1]), (int(q[0]), q[1])
    (u1, v1, len1), (u2, v2, len2) = g.edges[e1], g.edges[e2]
    best = o1 + table[u1, u2] + o2
    best = min(best, o1 + table[u1, v2] + (len2 - o2))
    best = min(best, (len1 - o1) + table[v1, u2] + o2)
    best = min(best, (len1 - o1) + table[v1, v2] + (len2 - o2))
    return min(best, abs(o1 - o2)) if e1 == e2 else best


@pytest.mark.parametrize("seed", range(8))
def test_engine_pairs_are_point_distances_bit_for_bit(seed, monkeypatch):
    # self-loops, parallel edges, pairs on one edge and offsets at both ends of an
    # edge, over several blocks and a partial one
    rng = np.random.default_rng(seed)
    vertices = int(rng.integers(1, 6))
    edges = list(random_tree(rng, vertices).edges) if vertices > 1 else []
    edges += [(u, u, float(rng.uniform(0.5, 4.0))) for u in rng.integers(0, vertices, size=2)]
    edges += [edges[0][:2] + (float(rng.uniform(0.1, 2.0)),)]
    g = graphs.build_graph(vertices, edges)
    n, count = 4, 150
    whole = sample_graph(g, rng, count * n)  # the two-pass draw, which the stream's blocks concatenate to
    shared = whole[0::3, 0][:len(whole[1::3])]  # a third of the points move to the previous point's edge
    whole[1::3, 0] = shared
    whole[1::3, 1] = rng.uniform(size=len(shared)) * g.edge_len[shared.astype(int)]
    whole[::5, 1] = 0.0
    whole[1::7, 1] = g.edge_len[whole[1::7, 0].astype(int)]
    monkeypatch.setattr(graphs, "sample_graph", lambda graph, rng, count: iter([whole]))
    monkeypatch.setattr(engine, "BLOCK", 64)
    scratch = spaces.Scratch()  # one point and one pair buffer for every block
    blocks = [(t.copy(), p.copy()) for t, p in engine.pair_blocks(g, rng, count, n, scratch)]
    tuples = np.concatenate([t for t, _ in blocks])
    pairs = np.concatenate([p for _, p in blocks], axis=1)
    assert tuples.tobytes() == whole.tobytes()
    ij = list(zip(*np.triu_indices(n, 1)))
    points = [[spaces.distance(g, t[i], t[j]) for t in tuples] for i, j in ij]
    routes = [[_endpoint_routes(g, t[i], t[j]) for t in tuples] for i, j in ij]
    assert pairs.tobytes() == np.array(points).tobytes() == np.array(routes).tobytes()
