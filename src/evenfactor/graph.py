"""Simple undirected graphs with exact component and connectivity queries.

Vertices are dense integer ids 0..n-1.  Graph values are immutable after
construction and safe to share across workers; every operation here is a pure
function of its inputs.  Edge and vertex connectivity each build one flat
unit-capacity network per call and share one min-cut loop and one flow
function, which augments a unit at a time along breadth-first residual paths
(Menger's theorem makes each flow value a local connectivity).
"""

from __future__ import annotations

import math
import operator
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

    Each endpoint goes through ``operator.index``, so numpy integers and
    bools are stored as ints.  Raises ValueError for a non-integer n, and
    naming the position of the first non-integer, out-of-range or self-loop
    entry.
    """
    n = _require_int("vertex count", n)
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edges: set[Edge] = set()
    add = edges.add
    index = operator.index
    for i, (u, v) in enumerate(edge_list):
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise ValueError(
                f"edge {i}: ({u!r},{v!r}) has a non-integer endpoint") from None
        if 0 <= u < v < n:
            add((u, v))
        elif 0 <= v < u < n:
            add((v, u))
        elif not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge {i}: ({u},{v}) out of range for n={n}")
        else:
            raise ValueError(f"edge {i}: self-loop ({u},{v}) not allowed")
    return Graph(n, frozenset(edges))


def _require_int(name: str, value) -> int:
    """``value`` through ``operator.index``; ValueError naming it if it is not
    an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_ints(**values) -> None:
    """Refuse any value that is not an integer, naming it (see
    ``_require_int``)."""
    for name, value in values.items():
        _require_int(name, value)


def _require_even_pair(a: int, b: int) -> None:
    """Refuse bounds that are not integers, not both even, or not 2 <= a <= b,
    naming them."""
    _require_ints(a=a, b=b)
    problems = []
    if a % 2 or b % 2:
        problems.append(f"a and b must both be even, got a={a}, b={b}")
    if not 2 <= a <= b:
        problems.append(f"need 2 <= a <= b, got a={a}, b={b}")
    if problems:
        raise ValueError("; ".join(problems))


def _as_vertex_set(g: Graph, verts: Iterable[int], name: str) -> frozenset[int]:
    """The vertex ids ``verts`` as a set of ints in range(g.n).  Each id goes
    through ``operator.index``, so numpy integers become ints; any other id,
    or one out of range, raises ValueError naming the set and the bad ids."""
    verts = tuple(verts)
    try:
        ids = frozenset(map(operator.index, verts))
    except TypeError:
        bad = sorted((v for v in verts if not hasattr(type(v), "__index__")), key=repr)
        raise ValueError(f"{name} contains non-integer vertex ids {bad}") from None
    n = g.n
    for v in ids:
        if not 0 <= v < n:
            bad = sorted(v for v in ids if not 0 <= v < n)
            raise ValueError(f"{name} contains out-of-range vertices {bad}")
    return ids


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
    seen = set(_as_vertex_set(g, deleted, "deleted set"))
    comps: list[tuple[int, ...]] = []
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
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components_after_deletion(g, ())) == 1


def _network(size: int, arcs: Iterable[tuple[int, int, int]]
             ) -> tuple[list[list[int]], list[int], list[int]]:
    """Flat unit network ``(head, to, cap)`` on nodes 0..size-1.

    The k-th arc pair (u, v, back) of ``arcs`` becomes arc 2k, u -> v with
    capacity 1, and its reverse 2k+1, v -> u with capacity ``back``; so the
    reverse of arc e is e ^ 1, and an undirected edge is one pair with
    ``back`` = 1.  ``head[v]`` lists the arcs leaving v.
    """
    head: list[list[int]] = [[] for _ in range(size)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, back in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        cap += (1, back)
    return head, to, cap


def _flow(head: list[list[int]], to: list[int], cap: list[int],
          s: int, t: int, limit: int) -> int:
    """Push units of flow from s to t, one breadth-first residual path at a
    time, until ``limit`` units or no path is left; return the units pushed.

    Each node records the arc it was reached by, and the path is walked back
    through those arcs, so no step recurses.
    """
    flow = 0
    while flow < limit:
        via: list[int | None] = [None] * len(head)
        via[s] = -1
        queue = [s]
        for v in queue:
            for e in head[v]:
                w = to[e]
                if cap[e] and via[w] is None:
                    via[w] = e
                    queue.append(w)
            if via[t] is not None:
                break
        else:
            return flow
        v = t
        while v != s:
            e = via[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = to[e ^ 1]
        flow += 1
    return flow


def _min_cut(g: Graph, net: tuple[list[list[int]], list[int], list[int]],
             sources: Iterable[tuple[int, Iterable[tuple[int, list[int]]]]]) -> int:
    """Smallest max-flow on ``net``, a unit network of ``g`` from
    :func:`_network`, from each source node to each of its targets; 0 if g
    is disconnected.

    A target is a node t and a list of arcs that every cut between the
    source and t must hold: those arcs are closed and counted, and the flow
    runs only for the rest.  ``best`` starts at the minimum degree, which
    bounds both connectivities.  Each flow starts from the unit capacities
    and stops once the cut reaches ``best``.  Source i (0-based) runs only while i < ``best``
    (Even's scheme); on a connected graph a cut of 1 is final.
    """
    if not is_connected(g):
        return 0
    best = min(g.degrees)
    head, to, cap = net
    unit = cap[:]
    for i, (s, targets) in enumerate(sources):
        if i >= best:
            break
        for t, closed in targets:
            if len(closed) >= best:
                continue
            cap[:] = unit
            for e in closed:
                cap[e] = 0
            best = len(closed) + _flow(head, to, cap, s, t, best - len(closed))
            if best == 1:
                return best
    return best


def edge_connectivity(g: Graph) -> int:
    """Global minimum edge cut: the smallest max-flow from vertex 0 to any
    other vertex, all on one network with one arc pair per edge."""
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    net = _network(g.n, ((u, v, 1) for u, v in g.edges))
    return _min_cut(g, net, [(0, ((t, []) for t in range(1, g.n)))])


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex cut; n-1 for complete graphs by convention.

    The split network has v_in = 2v and v_out = 2v+1 joined by arc 2v, and
    arcs u_out -> v_in and v_out -> u_in for each edge uv; a flow runs from
    s_out to t_in.  Source i runs against every later non-adjacent vertex
    (Even, SIAM J. Comput. 4, 1975): the first vertex outside a minimum cut
    C has index at most kappa, and another component of G - C lies at later
    indices.  Each common neighbour w of non-adjacent s and t is a path
    s-w-t of its own, so every vertex set separating s from t holds all of
    W = N(s) & N(t), and kappa(s, t) = |W| + kappa_{G-W}(s, t).  The split
    arcs of W are closed and counted, and the flow runs only for the rest
    of the cut; once |W| reaches the best cut, the pair needs no flow.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    arcs = [(2 * v, 2 * v + 1, 0) for v in range(g.n)]
    for u, v in g.edges:
        arcs += ((2 * u + 1, 2 * v, 0), (2 * v + 1, 2 * u, 0))
    adj = g.adjacency
    sources = ((2 * i + 1, ((2 * j, [2 * w for w in adj[i] & adj[j]])
                            for j in range(i + 1, g.n) if j not in adj[i]))
               for i in range(g.n))
    return _min_cut(g, _network(2 * g.n, arcs), sources)
