"""Simple undirected graphs with exact component and connectivity queries.

Vertices are dense integer ids 0..n-1.  Graph values are immutable after
construction and safe to share across workers; every operation here is a pure
function of its inputs.  Edge and vertex connectivity each build one
unit-capacity flow network per call and share one min-cut loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

#: Distinguished value returned by :func:`sigma2` on complete graphs, where the
#: minimum runs over an empty set of vertex pairs.  Any finite threshold
#: comparison against it trivially passes.
INFINITY = math.inf

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no loops, no parallel edges.

    ``edges`` holds canonical pairs (u, v) with u < v.  Use
    :func:`build_graph` instead of the raw constructor to get input
    validation.
    """

    n: int
    edges: frozenset[Edge]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adjacency)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks; the workhorse for subset sweeps."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, deduplicating repeated pairs.

    Raises ValueError naming the position of the first out-of-range or
    self-loop entry.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edges: set[Edge] = set()
    add = edges.add
    for i, (u, v) in enumerate(edge_list):
        if 0 <= u < v < n:
            add((u, v))
        elif 0 <= v < u < n:
            add((v, u))
        elif not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge {i}: ({u},{v}) out of range for n={n}")
        else:
            raise ValueError(f"edge {i}: self-loop ({u},{v}) not allowed")
    return Graph(n, frozenset(edges))


def _as_vertex_set(g: Graph, verts: Iterable[int], name: str) -> frozenset[int]:
    s = frozenset(verts)
    bad = [v for v in s if not (0 <= v < g.n)]
    if bad:
        raise ValueError(f"{name} contains out-of-range vertices {sorted(bad)}")
    return s


def degree_profile(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """Per-vertex degrees plus the minimum and maximum degree."""
    if g.n == 0:
        raise ValueError("degree profile undefined for the empty graph")
    degs = g.degrees
    return degs, min(degs), max(degs)


def sigma2(g: Graph) -> float | int:
    """Minimum of d(u)+d(v) over non-adjacent pairs; INFINITY if none exist."""
    degs = g.degrees
    best: float | int = INFINITY
    for u in range(g.n):
        adj = g.adjacency[u]
        for v in range(u + 1, g.n):
            if v not in adj:
                s = degs[u] + degs[v]
                if s < best:
                    best = s
    return best


def components_after_deletion(g: Graph, deleted: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of G - X as sorted vertex tuples.

    The returned sets partition V minus X; the list is empty when X = V.
    Components are ordered by their smallest vertex.
    """
    x = _as_vertex_set(g, deleted, "deleted set")
    return [tuple(sorted(comp)) for comp in _components(g, x)]


def _components(g: Graph, deleted: frozenset[int]) -> list[list[int]]:
    """Components of G - X for a validated X, each as a list of its vertices,
    ordered by their smallest vertex."""
    seen = set(deleted)
    comps: list[list[int]] = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components_after_deletion(g, ())) == 1


class _Dinic:
    """Max-flow on a small directed network (unit-ish integer capacities)."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int | None = None) -> int:
        """Maximum s-t flow; with ``limit``, stop after the phase in which the
        flow reaches it and return that value (>= ``limit``).

        The level search stops once it labels t: no shortest path uses a
        vertex at t's level or beyond.
        """
        flow = 0
        while limit is None or flow < limit:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue and level[t] < 0:
                v = queue.popleft()
                for eid in self.head[v]:
                    if self.cap[eid] > 0 and level[self.to[eid]] < 0:
                        level[self.to[eid]] = level[v] + 1
                        queue.append(self.to[eid])
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along one s-t path of the level graph; 0 if none is left.

        Depth-first with an explicit stack of edge ids, so path length is not
        bounded by the recursion limit.  ``it[v]`` is the next edge of v to
        try; it moves past an edge only when that edge leads to a dead end.
        """
        path: list[int] = []
        v = s
        while v != t:
            head = self.head[v]
            while it[v] < len(head):
                eid = head[it[v]]
                if self.cap[eid] > 0 and level[self.to[eid]] == level[v] + 1:
                    path.append(eid)
                    v = self.to[eid]
                    break
                it[v] += 1
            else:
                if not path:
                    return 0
                v = self.to[path.pop() ^ 1]
                it[v] += 1
        pushed = min(self.cap[eid] for eid in path)
        for eid in path:
            self.cap[eid] -= pushed
            self.cap[eid ^ 1] += pushed
        return pushed


def _edge_flow_network(g: Graph) -> _Dinic:
    """Unit-capacity network with both directions of every edge of g."""
    net = _Dinic(g.n)
    for u, v in g.edges:
        net.add_edge(u, v, 1)
        net.add_edge(v, u, 1)
    return net


def _min_cut(g: Graph, net: _Dinic,
             sources: Iterable[tuple[int, Iterable[int]]]) -> int:
    """Smallest max-flow on ``net``, a unit-capacity network of ``g``, from
    each source node to each of its targets; 0 if g is disconnected.

    ``best`` starts at the minimum degree, which bounds both connectivities.
    Each flow starts from the unit capacities and stops at ``best``.  Source
    i (0-based) runs only while i < ``best`` (Even's scheme); on a connected
    graph a cut of 1 is final.
    """
    if not is_connected(g):
        return 0
    best = min(g.degrees)
    unit = list(net.cap)
    for i, (s, targets) in enumerate(sources):
        if i >= best:
            break
        for t in targets:
            net.cap[:] = unit
            best = min(best, net.max_flow(s, t, best))
            if best == 1:
                return best
    return best


def edge_connectivity(g: Graph) -> int:
    """Global minimum edge cut: the smallest max-flow from vertex 0 to any
    other vertex, all on one network."""
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    return _min_cut(g, _edge_flow_network(g), [(0, range(1, g.n))])


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex cut; n-1 for complete graphs by convention.

    The split network has v_in = 2v and v_out = 2v+1 joined by a unit edge,
    and unit edges u_out -> v_in and v_out -> u_in for each edge uv; a flow
    runs from s_out to t_in.  Source i runs against every later non-adjacent
    vertex (Even, SIAM J. Comput. 4, 1975): the first vertex outside a
    minimum cut C has index at most kappa, and another component of G - C
    lies at later indices.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    net = _Dinic(2 * g.n)
    for v in range(g.n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        net.add_edge(2 * u + 1, 2 * v, 1)
        net.add_edge(2 * v + 1, 2 * u, 1)
    adj = g.adjacency
    sources = ((2 * i + 1, (2 * j for j in range(i + 1, g.n) if j not in adj[i]))
               for i in range(g.n))
    return _min_cut(g, net, sources)
