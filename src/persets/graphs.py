"""Metric graphs: points live on weighted edges, shortest-path distance.

The distance between two edge points is the minimum over the four
endpoint routes (plus the in-edge segment when both points share an
edge); a long edge inside a small cycle can be bypassed, so the in-edge
route is never assumed shortest.  Vertex-to-vertex distances are computed
once by repeated Dijkstra and cached; graphs here are small.

Self-loops (u == u) are allowed and model whole circles attached at a
single vertex: trying both orientations of each endpoint route recovers
the correct arc distance.

A point is an (edge index, offset) row.  ``sample_graph`` streams them:
its first pass keeps each point's edge index (2 B a point), its second
draws the offsets a block at a time.  ``MetricGraph.prepare`` turns
(n, B, 2) rows into each point's edge ends and the lengths to them
(``GraphEnds``, views of the campaign's scratch), once per point, and
``pair_distance`` takes only those: a pair then costs four look-ups in
the vertex table.  Raw rows reach a
distance through ``spaces.distance`` and ``spaces.distance_matrix``,
which check them with ``MetricGraph.validate_point`` first and then run
the engine's route, so both give the same bits.
"""
from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidDescriptor, InvalidPoint, TooLarge
from .metric import number, read_json, whole
from .spaces import check_indices, no_unused_options, parse_number, parse_options, points_of, row_blocks

TWO_PI = 2.0 * math.pi
# vertices of a graph: its vertex table is then 8 MB, and a cycle of 1,000 vertices
# with one flare each builds in about 1.2 s (a Dijkstra run from every vertex)
MAX_VERTICES = 1000
# edges of a graph: 1,000 vertices and 5,000 edges build in 3.3-4.1 s on one core; an edge index fits a uint16
MAX_EDGES = 5000


class GraphEnds(NamedTuple):
    """Graph points ready for the route; ``MetricGraph.prepare`` makes them once per point.

    Each field has the shape of the points' leading axes.  ``row_u`` and
    ``row_v`` index the row of an end in the flat vertex table (u * V),
    ``u`` and ``v`` its column.
    """

    edge: np.ndarray  # edge index, int
    w_u: np.ndarray  # length from the point to the edge's u end: the offset
    w_v: np.ndarray  # length to the v end: edge length - offset
    row_u: np.ndarray
    row_v: np.ndarray
    u: np.ndarray
    v: np.ndarray


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
    def descriptor(self) -> str:
        return f"graph:{self.vertex_count}v:{len(self.edges)}e"

    def sample_points(self, rng, count):
        """The ``sample_graph`` stream."""
        return sample_graph(self, rng, count)

    def prepare(self, points, scratch):
        """The n positions of (n, B, 2) (edge, offset) rows as GraphEnds of C-contiguous (B,) views of ``scratch``."""
        edge, row_u, row_v, u, v = scratch.array("graph ends", (5, *points.shape[:2]), np.intp)
        w_u, w_v = scratch.array("graph lengths", (2, *points.shape[:2]))
        np.copyto(edge, points[..., 0], casting="unsafe")
        np.copyto(w_u, points[..., 1])
        np.subtract(self.edge_len.take(edge, mode="wrap", out=w_v), w_u, out=w_v)  # "wrap": no buffered copy
        np.multiply(self.edge_u.take(edge, mode="wrap", out=u), self.vertex_count, out=row_u)
        np.multiply(self.edge_v.take(edge, mode="wrap", out=v), self.vertex_count, out=row_v)
        return [GraphEnds(*cols) for cols in zip(edge, w_u, w_v, row_u, row_v, u, v)]

    def pair_distance(self, p, q):
        """Distances of two prepared positions."""
        return point_distance_batch(self, p, q)

    def validate_point(self, p):
        """InvalidPoint unless every (..., 2) row is an edge index and an offset on that edge."""
        p = points_of(p, 2, "graph points are (edge, offset) rows")
        edge, offset = p[..., 0], p[..., 1]
        check_indices(edge, len(self.edges), "edge")
        bad = ~((offset >= 0) & (offset <= self.edge_len[edge.astype(np.intp)]))
        if bad.any():
            raise InvalidPoint(f"offset {offset[bad][0]:g} outside edge {int(edge[bad][0])}")


def build_graph(vertex_count: int, edges) -> MetricGraph:
    """Validate edges, finite positive lengths and connectivity, precompute vertex table."""
    edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
    if vertex_count < 1:
        raise InvalidDescriptor("graph needs at least one vertex")
    if vertex_count > MAX_VERTICES:
        raise TooLarge(f"graph has {vertex_count} vertices, more than {MAX_VERTICES}")
    if len(edges) > MAX_EDGES:
        raise TooLarge(f"graph has {len(edges)} edges, more than {MAX_EDGES}")
    if not edges:
        raise InvalidDescriptor("graph has no edges, so no points to sample")
    for u, v, w in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidDescriptor(f"edge ({u},{v}) references a missing vertex")
        if not (0 < w < math.inf):
            raise InvalidDescriptor(f"edge ({u},{v}) has length {w}, not a finite positive number")
    elen = np.asarray([e[2] for e in edges], dtype=float)
    with np.errstate(over="ignore"):
        total = elen.sum()  # sample_graph draws an edge with probability length / total
    if total == math.inf:
        raise InvalidDescriptor("the total edge length overflows a double")

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
    return MetricGraph(vertex_count, edges, dist, eu, ev, elen)


def point_distance_batch(graph: MetricGraph, p: GraphEnds, q: GraphEnds):
    """Shortest-path lengths of aligned prepared points: the minimum of the
    four endpoint routes, then the in-edge segment where p and q share an edge."""
    table = graph.vertex_distances
    # row + column indices lie in the table by construction; "wrap" skips the bounds check
    best = p.w_u + table.take(p.row_u + q.u, mode="wrap") + q.w_u
    np.minimum(best, p.w_u + table.take(p.row_u + q.v, mode="wrap") + q.w_v, out=best)
    np.minimum(best, p.w_v + table.take(p.row_v + q.u, mode="wrap") + q.w_u, out=best)
    np.minimum(best, p.w_v + table.take(p.row_v + q.v, mode="wrap") + q.w_v, out=best)
    same = p.edge == q.edge
    if same.any():
        best = np.where(same, np.minimum(best, np.abs(p.w_u - q.w_u)), best)
    return best


def sample_graph(graph: MetricGraph, rng: np.random.Generator, count: int):
    """Uniform draws w.r.t. length: edge ~ length, offset ~ uniform.

    A generator of (rows, 2) blocks of (edge index, offset) rows, ``count`` rows in all.  The
    first pass keeps every edge index as a uint16 (2 B a point); the second draws the offsets and
    yields a fresh block per ``spaces.row_blocks`` block.
    """
    if count < 0:
        raise InvalidDescriptor("count must be >= 0")
    lens = graph.edge_len
    cdf = (lens / lens.sum()).cumsum()
    cdf /= cdf[-1]
    edges = np.empty(count, np.uint16)
    for (block,) in row_blocks(edges):  # rng.choice(len(lens), size=count, p=lens / lens.sum())
        block[:] = cdf.searchsorted(rng.random(len(block)), side="right")
    for (block,) in row_blocks(edges):  # the bits of rng.uniform(0.0, 1.0, size=count) * lens[edges]
        yield np.column_stack([block, rng.random(len(block)) * lens[block]])


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
    if not all(map(math.isfinite, pos)):  # c * a overflowed; finite positions give finite arcs
        raise InvalidDescriptor(f"circumference c={c!r} puts a flare past the largest double")
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

    Recovering cycles from persistence corners wants the shared path
    short, so alpha >= min(lengths)/3 is built but flagged.  Below that
    bound square configurations still straddle the gluing: on
    glued:3.5,4.5:alpha=0.5, 11.4% of the nontrivial points of 2^20-tuple
    (4, 1) campaigns (seeds 1, 2, 5) lie outside both cycles' triangles
    ``regions.CircleOddK(1, length / 2)`` (tol 1e-9).
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


# ---------------------------------------------------------------------------
# Files and descriptors
# ---------------------------------------------------------------------------

def read_graph_json(path) -> MetricGraph:
    doc = read_json(path, {
        "vertices": whole,
        "edges": lambda edges: [(whole(u), whole(v), number(w)) for u, v, w in edges],
    })
    try:
        return build_graph(doc["vertices"], doc["edges"])
    except (InvalidDescriptor, TooLarge) as exc:
        raise type(exc)(f"{path}: {exc}") from None


FAMILIES = ("wedge", "flares", "flares-fig", "glued", "treecycles")


def is_family(text: str) -> bool:
    """Whether a descriptor's first field names a graph family."""
    return text.strip().split(":")[0].lower() in FAMILIES


def parse_family(text: str) -> MetricGraph:
    """Family descriptors: "wedge:3.5,4.5", "flares:c=6.2832,k=4,L=1",
    "glued:3.5,4.5:alpha=0.5", "treecycles:6,8,10:edge=0.5"."""
    parts = text.strip().split(":")
    name = parts[0].lower()
    kv = {}
    try:
        if name == "wedge" and len(parts) == 2:
            graph = wedge_of_circles(_numbers(parts[1], text))
        elif name == "flares":
            kv = _parse_kv(parts[1:], text)
            graph = cycle_with_flares(kv.pop("c"), kv.pop("k", 4), kv.pop("l", 1.0))
        elif name == "flares-fig" and len(parts) == 1:
            graph = circle_with_flares_figure()
        elif name == "glued" and len(parts) == 3:
            lengths, kv = _numbers(parts[1], text), _parse_kv(parts[2:], text)
            graph = glued_cycles(lengths, kv.pop("alpha"))
        elif name == "treecycles" and len(parts) in (2, 3):
            lengths, kv = _numbers(parts[1], text), _parse_kv(parts[2:], text)
            graph = tree_of_cycles(lengths, kv.pop("edge", 0.5))
        elif name in FAMILIES:
            raise InvalidDescriptor(f"malformed {name} descriptor {text!r}; see parse_family")
        else:
            raise InvalidDescriptor(f"unknown graph family {name!r} in {text!r}")
    except KeyError as exc:
        raise InvalidDescriptor(f"missing option {exc} in {text!r}") from None
    except InvalidDescriptor as exc:  # a constructor's message: name the descriptor too
        if repr(text) in str(exc):
            raise
        raise InvalidDescriptor(f"{exc} in {text!r}") from None
    no_unused_options(kv, text)
    return graph


def _numbers(part: str, text: str) -> list:
    return [parse_number(x, text) for x in part.split(",")]


def _parse_kv(parts, text: str) -> dict:
    return parse_options([item for part in parts for item in part.split(",")], text)
