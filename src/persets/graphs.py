"""Metric graphs: points live on weighted edges, shortest-path distance.

The distance between two edge points is the minimum over the four
endpoint routes (plus the in-edge segment when both points share an
edge); a long edge inside a small cycle can be bypassed, so the in-edge
route is never assumed shortest.  Vertex-to-vertex distances are computed
once by repeated Dijkstra and cached; graphs here are small.

Self-loops (u == u) are allowed and model whole circles attached at a
single vertex: trying both orientations of each endpoint route recovers
the correct arc distance.
"""
from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDescriptor, InvalidPoint
from .metric import read_json, squareform, whole, write_json
from .spaces import parse_number, parse_options

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GraphPoint:
    edge: int
    offset: float


@dataclass(frozen=True)
class MetricGraph:
    """A sampling space of (edge, offset) points; made by ``build_graph``."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]
    vertex_distances: np.ndarray = field(compare=False)
    edge_u: np.ndarray = field(compare=False)
    edge_v: np.ndarray = field(compare=False)
    edge_len: np.ndarray = field(compare=False)

    @property
    def total_length(self) -> float:
        return float(sum(e[2] for e in self.edges))

    @property
    def descriptor(self) -> str:
        return f"graph:{self.vertex_count}v:{len(self.edges)}e"

    def sample_points(self, rng, count):
        return sample_graph(self, rng, count)

    def pair_distance(self, p, q):
        return point_distance_batch(self, p[..., 0], p[..., 1], q[..., 0], q[..., 1])


def build_graph(vertex_count: int, edges) -> MetricGraph:
    """Validate connectivity and positive lengths, precompute vertex table."""
    edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
    if vertex_count < 1:
        raise InvalidDescriptor("graph needs at least one vertex")
    for u, v, w in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidDescriptor(f"edge ({u},{v}) references a missing vertex")
        if not (w > 0):
            raise InvalidDescriptor(f"edge ({u},{v}) has nonpositive length {w}")

    adj: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
    for u, v, w in edges:
        if u != v:
            adj[u].append((v, w))
            adj[v].append((u, w))

    dist = np.full((vertex_count, vertex_count), math.inf)
    for src in range(vertex_count):
        d = dist[src]
        d[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            for v, w in adj[u]:
                alt = du + w
                if alt < d[v]:
                    d[v] = alt
                    heapq.heappush(heap, (alt, v))
    if not np.isfinite(dist).all():
        raise InvalidDescriptor("graph is not connected")
    dist.flags.writeable = False
    eu = np.asarray([e[0] for e in edges], dtype=int)
    ev = np.asarray([e[1] for e in edges], dtype=int)
    elen = np.asarray([e[2] for e in edges], dtype=float)
    return MetricGraph(vertex_count, edges, dist, eu, ev, elen)


def _endpoint_route(graph: MetricGraph, e1, o1, e2, o2):
    """min over the four endpoint routes, vectorized over aligned arrays."""
    eu, ev, elen = graph.edge_u, graph.edge_v, graph.edge_len
    D = graph.vertex_distances
    u1, v1, u2, v2 = eu[e1], ev[e1], eu[e2], ev[e2]
    wu1, wv1 = o1, elen[e1] - o1
    wu2, wv2 = o2, elen[e2] - o2
    best = wu1 + D[u1, u2] + wu2
    best = np.minimum(best, wu1 + D[u1, v2] + wv2)
    best = np.minimum(best, wv1 + D[v1, u2] + wu2)
    best = np.minimum(best, wv1 + D[v1, v2] + wv2)
    return best


def point_distance_batch(graph: MetricGraph, e1, o1, e2, o2):
    e1 = np.asarray(e1, dtype=int)
    e2 = np.asarray(e2, dtype=int)
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    d = _endpoint_route(graph, e1, o1, e2, o2)
    same = e1 == e2
    if np.any(same):
        direct = np.abs(o1 - o2)
        d = np.where(same, np.minimum(d, direct), d)
    return d


def point_distance(graph: MetricGraph, p: GraphPoint, q: GraphPoint) -> float:
    """Exact shortest-path length between two edge points."""
    for pt in (p, q):
        if not (0 <= pt.edge < len(graph.edges)):
            raise InvalidPoint(f"edge index {pt.edge} out of range")
        if not (0.0 <= pt.offset <= graph.edges[pt.edge][2]):
            raise InvalidPoint(f"offset {pt.offset} outside edge {pt.edge}")
    return float(
        point_distance_batch(
            graph,
            np.asarray([p.edge]),
            np.asarray([p.offset]),
            np.asarray([q.edge]),
            np.asarray([q.offset]),
        )[0]
    )


def sample_graph(graph: MetricGraph, rng: np.random.Generator, count: int):
    """Uniform draws w.r.t. length: edge ~ length, offset ~ uniform.

    Returns a (count, 2) array of (edge index, offset) rows.
    """
    if count < 0:
        raise InvalidDescriptor("count must be >= 0")
    lens = graph.edge_len
    probs = lens / lens.sum()
    e = rng.choice(len(lens), size=count, p=probs)
    o = rng.uniform(0.0, 1.0, size=count) * lens[e]
    out = np.empty((count, 2))
    out[:, 0] = e
    out[:, 1] = o
    return out


def distance_matrix_of_points(graph: MetricGraph, points) -> np.ndarray:
    """Pairwise matrix of GraphPoints or (edge, offset) rows: i < j values, mirrored."""
    arr = np.asarray(
        [(p.edge, p.offset) if isinstance(p, GraphPoint) else tuple(p) for p in points],
        dtype=float,
    )
    i, j = np.triu_indices(len(arr), 1)
    return squareform(graph.pair_distance(arr[i], arr[j]), len(arr))


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def wedge_of_circles(circumferences) -> MetricGraph:
    """Circles of the given circumferences joined at one common point.

    A circle of circumference c has diameter c/2, so the expected
    persistence corner of each circle sits at (c/4, c/2).
    """
    circ = [float(c) for c in circumferences]
    if not circ or any(c <= 0 for c in circ):
        raise InvalidDescriptor("need positive circumferences")
    return build_graph(1, [(0, 0, c) for c in circ])


def cycle_with_flares(circumference: float, flares, flare_length: float) -> MetricGraph:
    """A circle with dead-end edges attached.

    ``flares`` is either a count (evenly spaced attachment points) or an
    explicit list of attachment angles in [0, 2 pi).
    """
    c = float(circumference)
    if c <= 0 or flare_length <= 0:
        raise InvalidDescriptor("need positive circumference and flare length")
    if isinstance(flares, int):
        angles = [TWO_PI * i / flares for i in range(flares)]
    else:
        angles = sorted(float(a) % TWO_PI for a in flares)
    k = len(angles)
    if k == 0:
        raise InvalidDescriptor("need at least one flare")
    pos = [c * a / TWO_PI for a in angles]
    edges = []
    for i in range(k):
        arc = (pos[(i + 1) % k] - pos[i]) % c
        if arc == 0.0:
            arc = c  # single attachment point: the whole circle is a loop
        edges.append((i, (i + 1) % k, arc))
    for i in range(k):
        edges.append((i, k + i, float(flare_length)))
    return build_graph(2 * k, edges)


# Attachment angles of the four flares in the reference picture this
# fixture reproduces.  The picture fixes circumference 2 pi and L = 1 but
# not the attachment points; evenly spaced flares give a noticeably higher
# nontrivial rate (~8.9%), so the spacing below is a best-effort
# reconstruction calibrated to the reported ~7.6% and labeled approximate.
FLARES_FIGURE_ANGLES = (0.0, 1.0, 2.2, 4.4)


def circle_with_flares_figure() -> MetricGraph:
    """The unit circle with four unit flares, as in the reference picture."""
    return cycle_with_flares(TWO_PI, list(FLARES_FIGURE_ANGLES), 1.0)


def glued_cycles(lengths, alpha: float) -> MetricGraph:
    """Cycles of the given lengths all pasted over one shared path.

    Recovering cycles from persistence corners needs the shared path
    short: alpha < min(lengths)/3 guarantees square configurations never
    straddle the gluing.  Weaker gluings are built anyway but flagged.
    """
    lens = [float(l) for l in lengths]
    alpha = float(alpha)
    if len(lens) < 2 or alpha <= 0 or any(l <= alpha for l in lens):
        raise InvalidDescriptor("need >= 2 cycle lengths, each above alpha > 0")
    if alpha >= min(lens) / 3.0:
        warnings.warn(
            f"alpha = {alpha} is not < min(length)/3 = {min(lens) / 3.0:g}; "
            "corner counting is not guaranteed for this gluing",
            stacklevel=2,
        )
    edges = [(0, 1, alpha)]
    edges += [(0, 1, l - alpha) for l in lens]
    return build_graph(2, edges)


def tree_of_cycles(cycle_lengths, tree_edge: float = 0.5) -> MetricGraph:
    """A chain of cycles joined by tree edges (each cycle wedged at a vertex).

    cycle k is a self-loop of length cycle_lengths[k] at its own hub, and
    consecutive hubs are joined by an edge of length ``tree_edge``.
    """
    lens = [float(l) for l in cycle_lengths]
    if not lens or any(l <= 0 for l in lens):
        raise InvalidDescriptor("need positive cycle lengths")
    edges = [(i, i, l) for i, l in enumerate(lens)]
    edges += [(i, i + 1, float(tree_edge)) for i in range(len(lens) - 1)]
    return build_graph(len(lens), edges)


def non_isometric_cycle_figure() -> MetricGraph:
    """Best-effort reconstruction of the reference picture of a graph whose
    8-cycle is not isometric to a circle.

    Unit edges along the closed walk 1,2,6,5,8,7,3,4 plus the chord [1,5],
    which shortcuts the walk (d(1,5) = 1, not 3).  The walk is therefore
    never isometric to a circle and contributes no corner at (2, 4); the
    chord splits the graph into a 4-cycle and a 6-cycle glued over [1,5].
    The picture fixes the edge set only up to reading accuracy, so this
    fixture is labeled approximate.
    """
    walk = [1, 2, 6, 5, 8, 7, 3, 4]
    edges = [(walk[i] - 1, walk[(i + 1) % 8] - 1, 1.0) for i in range(8)]
    edges.append((0, 4, 1.0))  # the chord [1, 5]
    return build_graph(8, edges)


def random_tree(rng: np.random.Generator, vertices: int) -> MetricGraph:
    """Random weighted tree: each vertex hangs off an earlier one."""
    if vertices < 1:
        raise InvalidDescriptor("need at least one vertex")
    edges = []
    for v in range(1, vertices):
        parent = int(rng.integers(0, v))
        edges.append((parent, v, float(rng.uniform(0.2, 2.0))))
    return build_graph(vertices, edges)


# ---------------------------------------------------------------------------
# Files and descriptors
# ---------------------------------------------------------------------------

def read_graph_json(path) -> MetricGraph:
    doc = read_json(path, {
        "vertices": whole,
        "edges": lambda edges: [(whole(u), whole(v), float(w)) for u, v, w in edges],
    })
    return build_graph(doc["vertices"], doc["edges"])


def write_graph_json(graph: MetricGraph, path) -> None:
    write_json(path, {"vertices": graph.vertex_count, "edges": [list(e) for e in graph.edges]})


FAMILIES = ("wedge", "flares", "flares-fig", "glued", "treecycles")


def parse_family(text: str) -> MetricGraph:
    """Family descriptors: "wedge:3.5,4.5", "flares:c=6.2832,k=4,L=1",
    "glued:3.5,4.5:alpha=0.5", "treecycles:6,8,10:edge=0.5"."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    try:
        if name == "wedge" and len(parts) == 2:
            return wedge_of_circles(_numbers(parts[1], text))
        if name == "flares":
            kv = _parse_kv(parts[1:], text)
            return cycle_with_flares(kv["c"], kv.get("k", 4), kv.get("l", 1.0))
        if name == "flares-fig" and len(parts) == 1:
            return circle_with_flares_figure()
        if name == "glued" and len(parts) == 3:
            return glued_cycles(_numbers(parts[1], text), _parse_kv(parts[2:], text)["alpha"])
        if name == "treecycles" and len(parts) in (2, 3):
            kv = _parse_kv(parts[2:], text)
            return tree_of_cycles(_numbers(parts[1], text), kv.get("edge", 0.5))
    except KeyError as exc:
        raise InvalidDescriptor(f"missing option {exc} in {text!r}") from None
    if name in FAMILIES:
        raise InvalidDescriptor(f"malformed {name} descriptor {text!r}; see parse_family")
    raise InvalidDescriptor(f"unknown graph family {name!r} in {text!r}")


def _numbers(part: str, text: str) -> list:
    return [parse_number(x, text) for x in part.split(",")]


def _parse_kv(parts, text: str) -> dict:
    return parse_options([item for part in parts for item in part.split(",")], text)
