"""Exact construction of even [a,b]-factors and of parity-free [a,b]-factors.

Both questions are decided on the graph itself by matching on a port/core
gadget (Tutte 1952, "The factors of graphs"; Lovász 1970; Anstee 1985).
Each vertex gets one port per real edge endpoint and hard cores that cap
its real degree at b.  For an even [a,b]-factor, every vertex gets the same
k = (b-a)/2 loops, carried as the one count of the pair (G, k), and each
loop a vertex may leave unused becomes a soft pair of nodes on its ports, so
loops get no ports of their own and loops that every b-factor uses get no
nodes at all.  For an [a,b]-factor of any parity, each vertex instead gets
min(b, d) - a soft singles on its ports, which may stay exposed.  A factor
exists iff a matching covers every node but the soft singles.
The matching starts from a greedy factor of the graph, its parity repaired
where soft pairs take ports two at a time, with every hard core, soft
single and soft pair then placed on the ports left free; on dense gadgets
this leaves only a handful of nodes exposed.  It roots its
searches only at nodes that must be covered, and each search then works
only on the vertices it labels, so its cost follows the search tree rather
than the size of the gadget.
A brute-force edge-subset search provides the independent ground truth at
small scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ScaleError
from .graph import Edge, Graph
from .criteria import _require_even_pair

#: Edge-count cap for the brute-force oracle (2^m worst case).
EXHAUSTIVE_EDGE_CAP = 24


@dataclass(frozen=True)
class Factor:
    """A chosen edge subset of a host graph plus its induced degree vector."""

    host: Graph
    edges: frozenset[Edge]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, host: Graph, edges: Iterable[Edge]) -> "Factor":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        degs = [0] * host.n
        for u, v in canon:
            degs[u] += 1
            degs[v] += 1
        return cls(host, canon, tuple(degs))

    def to_json(self) -> dict:
        return {"edges": [list(e) for e in sorted(self.edges)],
                "degrees": list(self.degrees)}


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Gadget graph whose matchings covering every node but the soft singles
    encode the b-factors of a looped graph, or the [a,b]-factors of a graph.

    ``ports[v]`` lists the gadget nodes standing for real edge endpoints at v,
    ``cores[v]`` the hard cores completely joined to them and ``singles[v]``
    the soft singles joined to them, which may stay exposed (empty in an
    even gadget).  ``decode`` maps the gadget edge of each real edge to
    ``("edge", (u, v))`` and the inner edge of each soft pair at v to
    ``("unused_loop", v)``: matched, it leaves one of v's loops out of the
    b-factor.  Gadget edges absent from it join cores or soft nodes to ports.
    """

    n_nodes: int
    edges: tuple[Edge, ...]
    decode: dict[Edge, tuple]
    ports: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]
    singles: tuple[tuple[int, ...], ...]


def verify_factor(g: Graph, factor: Factor, a: int, b: int,
                  require_even: bool) -> bool:
    """True iff every vertex degree of the factor lies in [a, b] (and is even
    when requested).  Edges outside the host graph raise ValueError."""
    foreign = factor.edges - g.edges
    if foreign:
        raise ValueError(f"factor contains non-host edges {sorted(foreign)}")
    degs = [0] * g.n
    for u, v in factor.edges:
        degs[u] += 1
        degs[v] += 1
    for d in degs:
        if not (a <= d <= b):
            return False
        if require_even and d % 2:
            return False
    return True


def _degree_interval_search(g: Graph, a: int, b: int,
                            require_even: bool) -> Factor | None:
    """Backtracking edge-subset search with degree-feasibility pruning.

    Exhaustive: explores exactly the subsets not excluded by the bounds
    a <= d <= b and the parity constraint.  It recurses once per edge, so it
    serves only as the small-scale oracle behind :func:`brute_force_even_factor`
    and the tests.
    """
    degs = g.degrees
    if any(d < a for d in degs):
        return None
    # Column-major order closes each vertex as early as possible, so the
    # degree and parity constraints start pruning high in the tree.
    edges = sorted(g.edges, key=lambda e: (e[1], e[0]))
    m = len(edges)
    remaining = list(degs)
    chosen_deg = [0] * g.n
    chosen: list[Edge] = []

    def feasible(v: int) -> bool:
        lo = max(a, chosen_deg[v])
        hi = min(b, chosen_deg[v] + remaining[v])
        if lo > hi:
            return False
        if require_even and lo == hi and lo % 2:
            return False
        return True

    def dfs(i: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        chosen_deg[u] += 1
        chosen_deg[v] += 1
        if feasible(u) and feasible(v):
            chosen.append((u, v))
            if dfs(i + 1):
                return True
            chosen.pop()
        chosen_deg[u] -= 1
        chosen_deg[v] -= 1
        if feasible(u) and feasible(v):
            if dfs(i + 1):
                return True
        remaining[u] += 1
        remaining[v] += 1
        return False

    if dfs(0):
        return Factor.from_edges(g, chosen)
    return None


def brute_force_even_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Ground-truth oracle: exhaustive search for an even [a,b]-factor."""
    _require_even_pair(a, b)
    if g.m > EXHAUSTIVE_EDGE_CAP:
        raise ScaleError(
            f"brute force supports at most {EXHAUSTIVE_EDGE_CAP} edges, got {g.m}")
    return _degree_interval_search(g, a, b, require_even=True)


def loop_augment(g: Graph, a: int, b: int) -> tuple[Graph, int]:
    """The looped graph ``(g, k)``: g with k = (b-a)/2 loops at every vertex,
    which lift every degree by b-a, so that an even [a,b]-factor of g is a
    b-factor of it."""
    _require_even_pair(a, b)
    return g, (b - a) // 2


def tutte_gadget(looped: tuple[Graph, int], b: int,
                 a: int | None = None) -> MatchingInstance:
    """Expand a looped graph ``(g, k)`` into the port/core gadget for degrees
    up to b.

    Let v have d real edge endpoints and k loops.  A b-factor that uses j of
    the loops gives v real degree b - 2j, so v's real degree may be any value
    of b's parity from b - 2k up to ``top``, the largest one <= min(b, d).
    v gets d ports, one per real edge endpoint; d - top hard cores joined to
    every port; and k - (b - top)/2 soft pairs, two nodes joined to each
    other and to every port.  Every real edge gets one gadget edge between
    its own ports.  In a perfect matching the hard cores take d - top ports
    and each soft pair takes two ports or itself, which leaves top, top-2,
    ..., b-2k ports to real edges: perfect matchings correspond exactly to
    b-factors (Tutte 1952; Lovász 1970; Anstee 1985).  The (b - top)/2 loops
    that every b-factor must use, which occur only where d < b, get no
    nodes, and k = 0 gives the plain gadget with d - b hard cores.  Vertices
    with d + 2k < b cannot reach degree b: fail fast, naming one.

    Given a lower bound ``a``, the gadget is the parity-free one, which
    needs k = 0: top = min(b, d), d - top hard cores, and top - a
    soft singles, each joined to every port of v.  A matching that covers
    every port and hard core leaves between a and top ports to real edges,
    so such matchings correspond exactly to [a,b]-factors (Lovász 1970).
    Vertices with d < a fail fast, naming one.
    """
    g, k = looped
    if a is not None and k:
        raise ValueError("the parity-free gadget takes a loop-free graph, k = 0")
    low = b if a is None else a
    for v, d in enumerate(g.degrees):
        if d + 2 * k < low:
            raise ValueError(
                f"vertex {v} has augmented degree {d + 2 * k} < {low}; no factor exists")
    ports: list[list[int]] = [[] for _ in range(g.n)]
    cores: list[list[int]] = [[] for _ in range(g.n)]
    singles: list[list[int]] = [[] for _ in range(g.n)]
    gadget_edges: list[Edge] = []
    decode: dict[Edge, tuple] = {}
    counter = 0
    for (u, v) in g.sorted_edges():
        ports[u].append(counter)
        ports[v].append(counter + 1)
        gadget_edges.append((counter, counter + 1))
        decode[(counter, counter + 1)] = ("edge", (u, v))
        counter += 2
    for v in range(g.n):
        d = len(ports[v])
        top = min(b, d)
        if a is None:
            top -= (b - top) % 2
        for _ in range(d - top):
            cores[v].append(counter)
            gadget_edges.extend((p, counter) for p in ports[v])
            counter += 1
        for _ in range(0 if a is None else top - a):
            singles[v].append(counter)
            gadget_edges.extend((p, counter) for p in ports[v])
            counter += 1
        for _ in range(k - (b - top) // 2):
            pair = (counter, counter + 1)
            gadget_edges.append(pair)
            decode[pair] = ("unused_loop", v)
            gadget_edges.extend((p, s) for s in pair for p in ports[v])
            counter += 2

    return MatchingInstance(
        n_nodes=counter,
        edges=tuple(gadget_edges),
        decode=decode,
        ports=tuple(tuple(p) for p in ports),
        cores=tuple(tuple(c) for c in cores),
        singles=tuple(tuple(s) for s in singles),
    )


def maximum_cardinality_matching(n: int, adj: Sequence[Sequence[int]],
                                 init: Sequence[int] | None = None,
                                 optional: Iterable[int] = ()) -> list[int]:
    """Matching in a general graph that covers as many required nodes as any
    matching can, by alternating-tree searches with blossom contraction.
    Returns the mate array (mate[v] = -1 for exposed v).

    Nodes in ``optional`` may stay exposed; every other node is required.
    With no optional nodes the result is a maximum matching.  ``init`` is an
    optional starting matching as a mate array; it must be symmetric and use
    only edges of ``adj`` (ValueError otherwise).  A vertex-order greedy
    extends it, then one search runs from every required node still exposed;
    optional nodes are never roots.  A search ends at an exposed node
    (augment) or at a matched optional node that becomes even (outer);
    flipping the even alternating path to it covers the root and exposes
    that node.  Either way every covered required node stays covered, so the
    covered required nodes grow as in the greedy algorithm on the matching
    matroid, and a root no search can cover stays uncoverable.  Each search
    records the vertices it labels and does its work on that list only:
    blossom relabelling walks it, and afterwards only those vertices have
    ``parent``, ``base`` and ``in_queue`` reset.  The lowest-common-ancestor
    and blossom marks are integer stamps in arrays allocated once per call,
    so a search costs time in proportion to its tree, not to n (Gabow 1976).
    """
    if init is None:
        mate = [-1] * n
    else:
        mate = list(init)
        if len(mate) != n:
            raise ValueError(f"init has {len(mate)} entries, expected {n}")
        for v, u in enumerate(mate):
            if u >= 0 and (u >= n or mate[u] != v or u not in adj[v]):
                raise ValueError(f"init pairs {v} with {u}, not a matching edge")
    is_optional = [False] * n
    for v in optional:
        is_optional[v] = True
    for v in range(n):
        if mate[v] < 0 and not is_optional[v]:
            for u in adj[v]:
                if mate[u] < 0:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    lca_mark = [0] * n
    blossom_mark = [0] * n
    stamp = 0

    def find_lca(x: int, y: int) -> int:
        while True:
            x = base[x]
            lca_mark[x] = stamp
            if mate[x] < 0:
                break
            x = parent[mate[x]]
        while True:
            y = base[y]
            if lca_mark[y] == stamp:
                return y
            y = parent[mate[y]]

    def mark_blossom(v: int, lca_base: int, child: int) -> None:
        while base[v] != lca_base:
            blossom_mark[base[v]] = stamp
            blossom_mark[base[mate[v]]] = stamp
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def flip(u: int) -> None:
        """Flip matched/unmatched along the path from the exposed or
        just-unmatched u through its parent back to the root."""
        while u >= 0:
            pv = parent[u]
            ppv = mate[pv]
            mate[u] = pv
            mate[pv] = u
            u = ppv

    def flip_to_even(x: int) -> None:
        """Expose the even node x and cover the root instead."""
        u = mate[x]
        mate[x] = -1
        flip(u)

    def try_augment(root: int, touched: list[int]) -> bool:
        nonlocal stamp
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                    # Even vertex reached: contract the blossom.  Only
                    # labelled vertices can have a base inside it.
                    stamp += 1
                    lca_base = find_lca(v, to)
                    mark_blossom(v, lca_base, to)
                    mark_blossom(to, lca_base, v)
                    for i in touched:
                        if blossom_mark[base[i]] == stamp:
                            base[i] = lca_base
                            if not in_queue[i]:
                                if is_optional[i]:
                                    flip_to_even(i)
                                    return True
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] < 0:
                    parent[to] = v
                    touched.append(to)
                    if mate[to] < 0:
                        flip(to)
                        return True
                    if is_optional[mate[to]]:
                        flip_to_even(mate[to])
                        return True
                    touched.append(mate[to])
                    in_queue[mate[to]] = True
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] < 0 and not is_optional[v]:
            touched = [v]
            try_augment(v, touched)
            for i in touched:
                parent[i] = -1
                base[i] = i
                in_queue[i] = False
    return mate


def max_matching(instance: MatchingInstance) -> set[Edge]:
    """Matching of a gadget instance, as an edge set, that covers as many
    nodes other than soft singles as any matching can; on an even gadget,
    a maximum-cardinality matching.

    The search starts from a matching built per host vertex v, whose real
    degree may reach ``top`` = (ports of v) - (hard cores of v):

    1. Greedy factor: the real edges are walked twice in gadget order, an
       edge matched port to port while both of its ends have room.  The
       first walk leaves each vertex the ``slack`` its soft pairs (two
       ports each) and soft singles can absorb, so it stops every vertex at
       the least real degree the gadget allows, a; the second fills up to
       ``top``.  Without the first walk, early vertices take edges that
       later ones need to reach that least degree.
    2. Parity repair: soft pairs take ports two at a time, so a vertex with
       a soft pair and an odd number of ports left below ``top`` can never
       be finished by them.  In gadget order, each real edge joining two
       such vertices is toggled, unmatched if chosen and matched if not
       (both ends then have a port left below ``top``), which makes both
       counts even.  Vertices without soft pairs, and so every vertex of a
       parity-free gadget, are left alone.
    3. Each hard core takes a free port of v.  At most ``top`` ports went
       to real edges, so one is always left.
    4. Each soft single takes a free port while one is left.  Each soft
       pair takes two free ports while two are left, and otherwise is
       matched to its own inner edge.

    On dense gadgets this leaves only a few nodes exposed for the greedy
    and the alternating-tree searches of
    :func:`maximum_cardinality_matching` to finish.  Soft singles are its
    optional nodes.
    """
    n = instance.n_nodes
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in instance.edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = [-1] * n
    room = [len(p) - len(c) for p, c in zip(instance.ports, instance.cores)]
    pairs: list[list[Edge]] = [[] for _ in room]
    real: list[tuple[int, int, int, int]] = []
    for (p, q), (kind, x) in instance.decode.items():
        if kind == "edge":
            real.append((p, q, *x))
        else:
            pairs[x].append((p, q))
    slack = [2 * len(ps) + len(s) for ps, s in zip(pairs, instance.singles)]
    for floor in (slack, [0] * len(room)):
        for p, q, u, v in real:
            if mate[p] < 0 and room[u] > floor[u] and room[v] > floor[v]:
                mate[p], mate[q] = q, p
                room[u] -= 1
                room[v] -= 1
    if any(pairs):
        for p, q, u, v in real:
            if pairs[u] and pairs[v] and room[u] % 2 and room[v] % 2:
                if mate[p] == q:
                    mate[p] = mate[q] = -1
                    step = 1
                else:
                    mate[p], mate[q] = q, p
                    step = -1
                room[u] += step
                room[v] += step
    for v, ports in enumerate(instance.ports):
        free = [p for p in ports if mate[p] < 0]
        for x in instance.cores[v] + instance.singles[v]:
            if free:
                p = free.pop()
                mate[p], mate[x] = x, p
        for x, y in pairs[v]:
            if len(free) >= 2:
                p, q = free.pop(), free.pop()
                mate[p], mate[x], mate[q], mate[y] = x, p, y, q
            else:
                mate[x], mate[y] = y, x
    optional = [s for singles in instance.singles for s in singles]
    mate = maximum_cardinality_matching(n, adj, mate, optional)
    return {(v, mate[v]) for v in range(n) if 0 <= v < mate[v]}


def is_perfect(instance: MatchingInstance, matching: set[Edge]) -> bool:
    """True iff the matching covers every gadget node but the soft singles:
    a perfect matching of an even gadget."""
    singles = {s for per_vertex in instance.singles for s in per_vertex}
    covered = sum(1 for e in matching for x in e if x not in singles)
    return covered == instance.n_nodes - len(singles)


def _factor_from_gadget(looped: tuple[Graph, int], a: int, b: int,
                        require_even: bool) -> Factor | None:
    """Decide a factor by matching on the gadget of the looped graph
    ``(g, k)``: the even gadget for degree b when ``require_even``, else the
    parity-free one for [a, b].

    The gadget names g's edges as they are, so the decoded edges form the
    returned factor, which is re-verified against [a, b] (and parity when
    requested).
    """
    g, _ = looped
    instance = tutte_gadget(looped, b, None if require_even else a)
    matching = max_matching(instance)
    if not is_perfect(instance, matching):
        return None
    chosen = [info[1] for e in matching
              for info in (instance.decode.get(e),)
              if info is not None and info[0] == "edge"]
    factor = Factor.from_edges(g, chosen)
    if not verify_factor(g, factor, a, b, require_even):
        raise RuntimeError("internal error: decoded factor failed verification")
    return factor


def find_even_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Decide and construct an even [a,b]-factor; absence is exact.

    Pipeline: loop augmentation, gadget expansion, maximum matching, decode.
    Any returned factor is re-verified.  Vertices of degree below a make the
    answer absent immediately.
    """
    _require_even_pair(a, b)
    if any(d < a for d in g.degrees):
        return None
    return _factor_from_gadget(loop_augment(g, a, b), a, b, require_even=True)


def find_ab_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Decide and construct an [a,b]-factor of any parity; absence is exact.

    Pipeline: the parity-free gadget of G itself, with min(b, d) - a soft
    singles per vertex that may stay exposed, then a matching covering as
    many other nodes as possible, then decode.  G has an [a,b]-factor iff
    that matching covers every port and hard core (Lovász 1970, "Subgraphs
    with prescribed valencies"; Anstee 1985).  Any returned factor is
    re-verified.  Vertices of degree below a make the answer absent at once.
    """
    if not (0 <= a <= b):
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if any(d < a for d in g.degrees):
        return None
    return _factor_from_gadget((g, 0), a, b, require_even=False)
