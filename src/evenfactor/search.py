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
The gadget is kept as per-vertex blocks in O(nodes + m) space: every node
of a block has the same neighbours, so the matching reads them from one
shared list per vertex, and no join is written out as an edge on the way
to an answer (``MatchingInstance.edges`` and ``decode`` are views, expanded
only when read).
The matching starts from a greedy factor of the graph, its parity repaired
where soft pairs take ports two at a time, with every hard core, soft
single and soft pair then placed on the ports left free; on dense gadgets
this leaves only a handful of nodes exposed, and no second greedy pass
runs before the searches.  It roots its searches only at nodes that must be
covered, and each search then works only on the vertices it labels, so its
cost follows the search tree rather than the size of the gadget.  Blossom
bases are kept in a union-find, so a blossom contraction costs the
blossom's path, not the search tree.  A search that fails leaves its tree
dead, labels kept, and later searches skip it, so an absent answer pays
once for each region no matching can cover, not once per uncovered node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .graph import Edge, Graph, _require_even_pair, _require_int, _require_ints


@dataclass(frozen=True)
class Factor:
    """A chosen edge subset of a host graph plus its induced degree vector."""

    edges: frozenset[Edge]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, host: Graph, edges: Iterable[Edge]) -> "Factor":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        degs = [0] * host.n
        for u, v in canon:
            degs[u] += 1
            degs[v] += 1
        return cls(canon, tuple(degs))


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Gadget graph whose matchings covering every node but the soft singles
    encode the b-factors of a looped graph, or the [a,b]-factors of a graph.

    The gadget is stored as blocks, in O(nodes + m) space.  ``real`` lists
    the host's edges in sorted order, and real edge i is the gadget edge
    between the ports 2i and 2i+1.  ``ports[v]`` lists the gadget nodes
    standing for real edge endpoints at v, ``cores[v]`` the hard cores
    completely joined to them, ``singles[v]`` the soft singles joined to
    them, which may stay exposed (empty in an even gadget), and ``pairs[v]``
    the soft pairs, each pair's two nodes joined to each other and to every
    port of v (empty in a parity-free gadget).  Matched, a soft pair's inner
    edge leaves one of v's loops out of the b-factor.  The nodes in none of
    these lists are the deficit nodes of the vertices below their least
    degree, which have no neighbours (see :func:`tutte_gadget`).

    ``edges`` and ``decode`` are views of the blocks, expanded on first read
    and then cached; the matching never reads them.  ``edges`` lists every
    gadget edge, the real edges first.  ``decode`` maps the gadget edge of
    each real edge to ``("edge", (u, v))`` and the inner edge of each soft
    pair at v to ``("unused_loop", v)``.
    """

    n_nodes: int
    real: tuple[Edge, ...]
    ports: tuple[tuple[int, ...], ...]
    cores: tuple[tuple[int, ...], ...]
    singles: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[Edge, ...], ...]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = [(2 * i, 2 * i + 1) for i in range(len(self.real))]
        for v, ports in enumerate(self.ports):
            for x in self.cores[v] + self.singles[v]:
                out.extend((p, x) for p in ports)
            for pair in self.pairs[v]:
                out.append(pair)
                out.extend((p, x) for x in pair for p in ports)
        return tuple(out)

    @cached_property
    def decode(self) -> dict[Edge, tuple]:
        out = {(2 * i, 2 * i + 1): ("edge", e) for i, e in enumerate(self.real)}
        for v, pairs in enumerate(self.pairs):
            for pair in pairs:
                out[pair] = ("unused_loop", v)
        return out


def verify_factor(g: Graph, factor: Factor, a: int, b: int,
                  require_even: bool) -> bool:
    """True iff every vertex degree of the factor lies in [a, b] (and is even
    when requested).  Edges outside the host graph, and bounds that are not
    integers, raise ValueError."""
    _require_ints(a=a, b=b)
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
    nodes, and k = 0 gives the plain gadget with d - b hard cores.

    Given a lower bound ``a``, the gadget is the parity-free one, which
    needs k = 0: top = min(b, d), d - top hard cores, and top - a
    soft singles, each joined to every port of v.  A matching that covers
    every port and hard core leaves between a and top ports to real edges,
    so such matchings correspond exactly to [a,b]-factors (Lovász 1970).

    A vertex below its least degree, d < b - 2k (even gadget) or d < a
    (parity-free), gets top = d, no hard cores, soft singles or soft pairs,
    and as many deficit nodes as it lacks degree: nodes with no neighbours,
    listed in no block, which every matching leaves exposed.  So no perfect
    matching exists, as no factor does, and the exposed count of a maximum
    matching still equals the maximum deficiency.  Bounds outside 0 <= b,
    or 0 <= a <= b when a is given, raise ValueError.
    """
    g, k = looped
    _require_int("b", b)
    if a is not None:
        _require_int("a", a)
    _require_int("loop count k of looped = (g, k)", k)
    if a is None and b < 0:
        raise ValueError(f"need 0 <= b, got b={b}")
    if a is not None and not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if k < 0:
        raise ValueError(f"loop count k of looped = (g, k) must be >= 0, got {k}")
    if a is not None and k:
        raise ValueError("the parity-free gadget takes a loop-free graph, k = 0")
    least = b - 2 * k if a is None else a
    real = g.sorted_edges()
    ports: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(real):
        ports[u].append(2 * i)
        ports[v].append(2 * i + 1)
    cores, singles, pairs = [], [], []
    counter = 2 * len(real)
    for v_ports in ports:
        d = len(v_ports)
        top = min(b, d)
        if a is None:
            top -= (b - top) % 2
        if d < least:  # every port is left to a real edge
            top = d
        n_cores = d - top
        n_singles = 0 if a is None else max(0, top - a)
        n_pairs = max(0, k - (b - top) // 2)
        cores.append(tuple(range(counter, counter + n_cores)))
        counter += n_cores
        singles.append(tuple(range(counter, counter + n_singles)))
        counter += n_singles
        pairs.append(tuple((x, x + 1) for x in range(counter, counter + 2 * n_pairs, 2)))
        counter += 2 * n_pairs + max(0, least - d)  # and the deficit nodes

    return MatchingInstance(
        n_nodes=counter,
        real=tuple(real),
        ports=tuple(tuple(p) for p in ports),
        cores=tuple(cores),
        singles=tuple(singles),
        pairs=tuple(pairs),
    )


def _blossom_matching(n: int, own: Sequence[Sequence[int]],
                      shared: Sequence[Sequence[int]],
                      home: Sequence[Sequence[int] | None],
                      init: Sequence[int] | None,
                      optional: Iterable[int]
                      ) -> tuple[list[int], list[bool], list[bool]]:
    """Matching in a general graph that covers as many required nodes as any
    matching can, by alternating-tree searches with blossom contraction.
    Returns the mate array (mate[v] = -1 for exposed v) and the labels
    ``dead`` and ``even``: dead[v] when v lies in a search tree that failed,
    and then even[v] when v is even in it.  Every other label is reset, so
    even[v] implies dead[v].

    The graph is given as two neighbour lists per node: v's neighbours are
    ``own[v]`` followed by ``shared[v]``.  A shared list is one object read
    by many nodes, and ``home[u]`` is the shared list that holds u (None if
    none does); a plain adjacency list is ``own`` with ``shared = [()] * n``
    and ``home = [None] * n``.

    Nodes in ``optional`` may stay exposed; every other node is required.
    With no optional nodes the result is a maximum matching.  ``init`` is an
    optional starting matching as a mate array; it must be symmetric and use
    only edges of the graph (ValueError otherwise).  The check decides "u is
    a neighbour of v" by ``u in own[v]`` or ``home[u] is shared[v]``: O(1)
    per node when the own lists are short.  One search runs from every
    required node left exposed, with no greedy pass first: a search's first
    step already matches its root to an exposed neighbour.  Optional nodes
    are never roots.  A search ends at an exposed node (augment) or at a
    matched optional node that becomes even (outer); flipping the even
    alternating path to it covers the root and exposes that node.  Either
    way every covered required node stays covered, so the covered required
    nodes grow as in the greedy algorithm on the matching matroid.  Blossom
    bases are a union-find with path halving (Gabow 1976; Tarjan 1983,
    ch. 9): a contraction walks each side of the blossom up to the lowest
    common ancestor and points each set root it meets there, so it costs the
    blossom's path, not the tree.  After a search that covers its root, only
    the nodes it labelled are reset, so a search costs time in proportion to
    its tree, not to n.

    A search that fails leaves its whole tree dead instead: its nodes keep
    their labels, no later search enters them, and its root, with every
    node of the tree, stays as it is for good (the Hungarian forest of
    Edmonds 1965, "Paths, trees, and flowers"; Lovász and Plummer, *Matching
    Theory*).  The classical lemma covers searches that only augment; here a
    search may also end at a matched optional node, so the proof is given
    in full.  Let D be the union of the dead trees so far; assume, by
    induction over the searches, that each of them still has the matching
    it had when it failed.

    1. A failed tree holds no even optional node and no exposed node other
       than its root: the search returns as soon as it labels an exposed
       node odd, or makes an optional node even.  Each of its nodes but the
       root is matched to another node of it.
    2. Every neighbour of an even node of the tree lies in the tree or in D:
       the search scanned each even node's neighbours and skipped only
       those in D, each unlabelled one became odd, and any two adjacent
       even nodes ended in one blossom.  The tree therefore reaches the
       rest of the graph only through its odd nodes, by unmatched edges.
    3. So an alternating path from a live root that enters D enters at an
       odd node u, by an unmatched edge, and takes u's matched edge to the
       base of the blossom below u.  From an even node it can go only to
       nodes of D.  It leaves a blossom only by an unmatched edge to an odd
       node of the same tree or, by step 2 for that tree, of an earlier
       dead tree, and then takes that node's matched edge again.  So it
       enters blossoms only at their bases, by matched edges, and never
       enters a root's blossom, whose base has no mate.  It can never leave
       D.  It can never end in D either: an augmenting path needs an
       exposed end, and D's only exposed nodes are roots; a path that
       turns an optional node even reaches it by its matched edge, which
       in D makes it an even node, and D has no even optional node.

    Every path that covers a later root, by augmenting or by turning a
    matched optional node even, thus avoids D, so skipping D loses none of
    them, the flip along it changes no mate in D, and the induction holds.
    No live node's ``base`` or ``mate`` ever points into D.
    """
    if init is None:
        mate = [-1] * n
    else:
        mate = list(init)
        if len(mate) != n:
            raise ValueError(f"init has {len(mate)} entries, expected {n}")
        for v, u in enumerate(mate):
            if u >= 0 and (u >= n or mate[u] != v
                           or (u not in own[v] and home[u] is not shared[v])):
                raise ValueError(f"init pairs {v} with {u}, not a matching edge")
    is_optional = [False] * n
    for v in optional:
        is_optional[v] = True

    parent = [-1] * n
    base = list(range(n))
    even = [False] * n
    dead = [False] * n

    def find(x: int) -> int:
        while base[x] != x:
            base[x] = base[base[x]]
            x = base[x]
        return x

    def find_lca(x: int, y: int) -> int:
        """Base of the lowest blossom above x and y, sought from both in turn."""
        seen = set()
        x, y = find(x), find(y)
        while True:
            if x >= 0:
                if x in seen:
                    return x
                seen.add(x)
                x = find(parent[mate[x]]) if mate[x] >= 0 else -1
            x, y = y, x

    def walk(v: int, lca: int, child: int, odd: list[int]) -> None:
        """Point the path from v up to lca's blossom back through child,
        join each set root it reaches to lca, collect odd nodes turned even.
        A nested blossom is joined only when the walk reaches its base:
        joining it on entry would end the walk before that base."""
        while find(v) != lca:
            parent[v] = child
            child = mate[v]
            if base[v] == v:
                base[v] = lca
            if not even[child]:
                base[child] = lca
                odd.append(child)
            v = parent[child]

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
        even[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in chain(own[v], shared[v]):
                if mate[v] == to or dead[to]:
                    continue
                if even[to]:
                    if find(v) == find(to):
                        continue
                    lca = find_lca(v, to)
                    odd: list[int] = []
                    walk(v, lca, to, odd)
                    walk(to, lca, v, odd)
                    for x in odd:
                        if is_optional[x]:
                            flip_to_even(x)
                            return True
                        even[x] = True
                    queue.extend(odd)
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
                    even[mate[to]] = True
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] < 0 and not is_optional[v]:
            touched = [v]
            if try_augment(v, touched):
                for i in touched:
                    parent[i] = -1
                    base[i] = i
                    even[i] = False
            else:
                for i in touched:
                    dead[i] = True
    return mate, dead, even


def max_matching(instance: MatchingInstance) -> set[Edge]:
    """Matching of a gadget instance, as an edge set, that covers as many
    nodes other than soft singles as any matching can; on an even gadget,
    a maximum-cardinality matching.  See :func:`_gadget_matching`."""
    mate = _gadget_matching(instance)[0]
    return {(v, u) for v, u in enumerate(mate) if v < u}


def _gadget_matching(instance: MatchingInstance
                     ) -> tuple[list[int], list[bool], list[bool]]:
    """The mate array of :func:`max_matching`'s matching, with the
    ``dead`` and ``even`` labels that :func:`_blossom_matching` leaves.

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

    On dense gadgets this leaves only a few nodes exposed for the
    alternating-tree searches of :func:`_blossom_matching` to
    finish.  Soft singles are its optional nodes.  The searches read the
    gadget's blocks through shared per-vertex lists (:func:`_gadget_lists`),
    in O(nodes + m) space; the ``edges`` and ``decode`` views are never
    expanded here.  A search that fails freezes its tree: the dead nodes
    keep their labels and their mates, later searches skip them, and no
    live node's ``base`` or ``mate`` ever points into a dead tree, so the
    result still covers as many required nodes as any matching can.
    """
    n = instance.n_nodes
    real, pairs = instance.real, instance.pairs
    mate = [-1] * n
    room = [len(p) - len(c) for p, c in zip(instance.ports, instance.cores)]
    slack = [2 * len(ps) + len(s) for ps, s in zip(pairs, instance.singles)]
    for floor in (slack, [0] * len(room)):
        for p, (u, v) in zip(range(0, 2 * len(real), 2), real):
            if mate[p] < 0 and room[u] > floor[u] and room[v] > floor[v]:
                mate[p], mate[p + 1] = p + 1, p
                room[u] -= 1
                room[v] -= 1
    if any(pairs):
        for p, (u, v) in zip(range(0, 2 * len(real), 2), real):
            if pairs[u] and pairs[v] and room[u] % 2 and room[v] % 2:
                if mate[p] == p + 1:
                    mate[p] = mate[p + 1] = -1
                    step = 1
                else:
                    mate[p], mate[p + 1] = p + 1, p
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
    return _blossom_matching(n, *_gadget_lists(instance), mate, optional)


def _gadget_lists(instance: MatchingInstance):
    """The gadget's neighbour lists for :func:`_blossom_matching`, in O(nodes)
    space: ``(own, shared, home)``.

    A port's own neighbour is its real edge's other port, and its shared
    list is its vertex's block: the hard cores, soft singles and soft-pair
    nodes of that vertex.  A block node's shared list is its vertex's
    ports, and a soft-pair node's own neighbour is its twin.  Each vertex's
    block and port list are one object each, read by every node that
    neighbours them, and ``home`` maps each node to the one that holds it.
    """
    n = instance.n_nodes
    n_ports = 2 * len(instance.real)
    own: list[tuple[int, ...]] = [()] * n
    own[:n_ports] = [(p ^ 1,) for p in range(n_ports)]
    shared: list[tuple[int, ...]] = [()] * n
    home: list[tuple[int, ...] | None] = [None] * n
    for v, ports in enumerate(instance.ports):
        nodes = (*instance.cores[v], *instance.singles[v],
                 *chain.from_iterable(instance.pairs[v]))
        for x in nodes:
            shared[x] = ports
            home[x] = nodes
        for x, y in instance.pairs[v]:
            own[x], own[y] = (y,), (x,)
        for p in ports:
            shared[p] = nodes
            home[p] = ports
    return own, shared, home


def is_perfect(instance: MatchingInstance, matching: set[Edge]) -> bool:
    """True iff the matching covers every gadget node but the soft singles:
    a perfect matching of an even gadget."""
    singles = set(chain.from_iterable(instance.singles))
    covered = set(chain.from_iterable(matching)) - singles
    return len(covered) == instance.n_nodes - len(singles)


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
    # Only a real edge joins two ports, and real edge i is (2i, 2i+1).
    ports_end = 2 * len(instance.real)
    factor = Factor.from_edges(
        g, [instance.real[p >> 1] for p, q in matching if q < ports_end])
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
    _require_ints(a=a, b=b)
    if not (0 <= a <= b):
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if any(d < a for d in g.degrees):
        return None
    return _factor_from_gadget((g, 0), a, b, require_even=False)
