"""Exact construction of even [a,b]-factors and of parity-free [a,b]-factors.

Both questions are decided on the graph itself by matching on a port/core
gadget (Tutte 1952, "The factors of graphs"; Lovász 1970; Anstee 1985).
Each vertex gets one port per real edge endpoint and hard cores that cap
its real degree at b.  For an even [a,b]-factor, every vertex gets the same
k = (b-a)/2 loops, carried as the one count of the pair (G, k), and each
loop a vertex may leave unused becomes a soft pair of nodes on its ports, so
loops get no ports of their own and loops that every b-factor uses get no
nodes at all.  For an [a,b]-factor of any parity, each vertex instead gets
min(b, d) - a soft singles on its ports, which may stay exposed.  One
matching routine, :func:`_gadget_matching`, serves every question: after a
greedy warm start it grows one Hungarian forest, rooted at every node left
exposed, with blossom contraction.  One count, :func:`_uncovered`, reads
the answer: a factor exists iff the matching leaves no node but soft
singles exposed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .graph import Edge, Graph, _degrees, _require_even_pair, _require_int, \
    _require_ints


@dataclass(frozen=True)
class Factor:
    """A chosen edge subset of a host graph plus its induced degree vector."""

    edges: frozenset[Edge]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, host: Graph, edges: Iterable[Edge]) -> "Factor":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(canon, _degrees(host.n, canon))


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
    for d in _degrees(g.n, factor.edges):
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


def _blossom_matching(n: int, own: Sequence[tuple[int, ...]],
                      shared: Sequence[tuple[int, ...]],
                      home: Sequence[tuple[int, ...] | None],
                      init: Sequence[int] | None,
                      optional: Iterable[int]
                      ) -> tuple[list[int], list[bool], list[bool]]:
    """Matching in a general graph that covers as many required nodes as any
    matching can, by one Hungarian forest with blossom contraction.
    Returns the mate array (mate[v] = -1 for exposed v) and the labels
    ``dead`` and ``even``: dead[v] when v lies in a tree of the forest that
    never covered its root, and then even[v] when v is even in it.  Every
    other label is reset, so even[v] implies dead[v].

    The graph is given as two neighbour tuples per node: v's neighbours are
    ``own[v] + shared[v]``.  A shared tuple is one object read by many
    nodes, and ``home[u]`` is the shared tuple that holds u (None if none
    does); a plain adjacency list is ``own`` with ``shared = [()] * n`` and
    ``home = [None] * n``.

    Nodes in ``optional`` may stay exposed; every other node is required.
    With no optional nodes the result is a maximum matching.  ``init`` is an
    optional starting matching as a mate array; it must be symmetric and use
    only edges of the graph (ValueError otherwise).  The check decides "u is
    a neighbour of v" by ``u in own[v]`` or ``home[u] is shared[v]``: O(1)
    per node when the own tuples are short.

    Every required node left exposed roots one tree, and all roots start in
    one first-in first-out queue, so the trees grow breadth-first side by
    side (the Hungarian forest of Edmonds 1965, "Paths, trees, and flowers";
    growing every root at once follows Hopcroft and Karp 1973).  Optional
    nodes are never roots.  ``tree[v]`` is the list of the nodes of v's tree,
    its root first, or None while v is unlabelled.  Scanning an even node v
    of tree t meets each neighbour x in one of four ways:

    - x is unlabelled: x becomes odd under v, and its mate even.  If x is
      exposed, the path from x back to the root is flipped (augment); if
      x's mate is optional, that mate is exposed and the root covered
      instead (``flip_to_even``).
    - x is even in t: the blossom is contracted.  Blossom bases are a
      union-find with path halving (Gabow 1976; Tarjan 1983, ch. 9): a
      contraction walks each side up to the lowest common ancestor and
      points each set root it meets there, so it costs the blossom's path,
      not the tree.  An optional node turned even covers the root through
      ``flip_to_even``.  The lowest common ancestor is only ever sought
      inside one tree.
    - x is even in another tree: the edge vx joins the two roots by an
      augmenting path.  vx is matched and each half is flipped from its end's
      old mate back to its root.
    - x is odd in another tree: v is recorded on x's list ``seen_by[x]``.

    A tree that covers its root is released: its nodes are unlabelled, and
    each one that another tree met is handed back to the live even nodes on
    its list, which scan that one node again.  Those are the only even nodes
    of other trees whose scan saw it labelled, so a release regrows nothing
    else: a tree that met no released tree is never scanned again.  Every
    covered required node stays covered, since only an optional node is
    ever exposed.

    When the queue runs dry, every tree still in the forest dies with its
    labels.  Let D be their union.  The lemma below shows that no matching
    covers the covered required nodes and a root of D as well; since the
    sets of required nodes that matchings can cover are the independent sets
    of a matroid (the matching matroid), the covered ones then form a
    largest such set.  A tree may also end at a matched optional node, which
    the classical lemma does not cover, so the proof is given in full.

    1. A tree of D holds no even optional node and no exposed node other
       than its root: reaching an exposed node odd, or making an optional
       node even, releases the tree at once.  Each of its nodes but the
       root is matched to another node of it.
    2. Every neighbour x of an even node v of D lies in D, in v's tree or
       odd in another tree of D, and two adjacent even nodes of one tree
       share a blossom.  v was queued when it became even and scanned
       after that.  Each x was then joined to v's tree, found in it, or
       found odd in a tree u and v recorded on x's list; an even x of
       another tree would have released v's tree.  If u was released
       later, x was handed back to v and scanned again, and so on.  When
       the queue is dry, no scan is pending.  An odd x that turned even
       later was queued and scanned, and met v; so no two trees of D have
       adjacent even nodes.  The forest therefore reaches the rest of the
       graph only through odd nodes of D, by unmatched edges.
    3. So an alternating path from a root of D never leaves D.  From an
       even node it can go only to nodes of D.  It leaves a blossom only by
       an unmatched edge to an odd node, of the same tree or another tree
       of D, and then takes that node's matched edge, which stays in its
       tree, to the base of the blossom below it.  So it enters blossoms
       only at their bases, by matched edges, and never enters another
       root's blossom, whose base has no mate.  Nor can it end well: an
       augmenting path needs a second exposed end, and D's only exposed
       nodes are roots; a path that turns an optional node even reaches it
       by its matched edge, which in D makes it an even node, and D has no
       even optional node.

    A matching that covered the covered required nodes and a root r of D
    as well would, against this one, yield just such a path from r (Berge
    1957).  Each scan costs the node's neighbours, each blossom its path,
    and each release its tree plus the hand-backs it queues.
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
    tree: list[list[int] | None] = [None] * n
    seen_by: list[list[int] | None] = [None] * n
    handed: list[list[int] | None] = [None] * n

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

    def release(*trees: list[int]) -> None:
        """Unlabel the nodes of ``trees``, which have just covered their
        roots, and hand each node that other trees met back to the even
        nodes that met it: the queue entry ~w scans only ``handed[w]``."""
        for nodes in trees:
            for i in nodes:
                base[i] = i
                even[i] = False
                tree[i] = None
                met = seen_by[i]
                if met is not None:
                    seen_by[i] = None
                    for w in met:
                        if even[w]:
                            xs = handed[w]
                            if xs is None:
                                handed[w] = [i]
                                queue.append(~w)
                            else:
                                xs.append(i)

    roots = [v for v in range(n) if mate[v] < 0 and not is_optional[v]]
    for r in roots:
        even[r] = True
        tree[r] = [r]
    queue = deque(roots)  # v: scan v's neighbours; ~w: scan handed[w]
    while queue:
        v = queue.popleft()
        if v >= 0:
            if not even[v]:
                continue
            targets = own[v] + shared[v]
        else:
            v = ~v
            targets, handed[v] = handed[v], None
            if not even[v]:
                continue
        t = tree[v]
        v_base = -1
        for to in targets:
            u = tree[to]
            if u is not t:
                if u is None:
                    parent[to] = v
                    tree[to] = t
                    t.append(to)
                    m = mate[to]
                    if m < 0:
                        flip(to)
                        release(t)
                        break
                    if is_optional[m]:
                        flip_to_even(m)
                        release(t)
                        break
                    even[m] = True
                    tree[m] = t
                    t.append(m)
                    queue.append(m)
                elif even[to]:
                    mv, mt = mate[v], mate[to]
                    mate[v], mate[to] = to, v
                    flip(mv)
                    flip(mt)
                    release(t, u)
                    break
                else:
                    met = seen_by[to]
                    if met is None:
                        seen_by[to] = [v]
                    else:
                        met.append(v)
            elif even[to]:
                if v_base < 0:
                    v_base = find(v)
                if find(to) != v_base:
                    lca = v_base = find_lca(v, to)
                    odd: list[int] = []
                    walk(v, lca, to, odd)
                    walk(to, lca, v, odd)
                    for x in odd:
                        if is_optional[x]:
                            flip_to_even(x)
                            release(t)
                            break
                        even[x] = True
                    else:
                        queue.extend(odd)
                        continue
                    break
    dead = [False] * n
    for r in roots:
        if mate[r] < 0:
            for i in tree[r]:
                dead[i] = True
    return mate, dead, even


def max_matching(instance: MatchingInstance) -> set[Edge]:
    """The matching of :func:`_gadget_matching` as an edge set: on an even
    gadget, a maximum-cardinality matching."""
    mate = _gadget_matching(instance)[0]
    return {(v, u) for v, u in enumerate(mate) if v < u}


def _gadget_matching(instance: MatchingInstance
                     ) -> tuple[list[int], list[bool], list[bool]]:
    """Matching of a gadget instance, as a mate array, that covers as many
    nodes other than soft singles as any matching can, with the ``dead`` and
    ``even`` labels that :func:`_blossom_matching` leaves.

    The search starts from a matching built per host vertex v, which may
    take ``want[v]`` = (ports) - (hard cores) - (soft singles) - 2 (soft
    pairs) real edges: min(a, d) on both gadgets, a being the least real
    degree the gadget allows.

    1. Greedy factor: real edge i = j s mod m is visited for j = 0, ...,
       m-1, where s is the least odd integer >= floor(0.618 m) coprime to
       m, and matched port to port while both of its ends have ``want``
       left.  The stride scatters each vertex's edges over the walk, so
       that early vertices do not take the edges later ones need.
    2. Every block node of v, each hard core, soft single and soft-pair
       node, takes a free port of v.  A vertex with d >= a kept at least
       d - a free ports and has exactly d - a block nodes; a vertex below
       a has none.

    What stays exposed, the ports a vertex could not fill up to min(a, d)
    and the deficit nodes, roots the forest of :func:`_blossom_matching`.
    The forest finishes the matching from any set of exposed roots in one
    pass, so a second walk or a repair here would only move work to it.
    Soft singles are its optional nodes.  The forest reads the gadget's
    blocks through shared per-vertex tuples (:func:`_gadget_lists`), in
    O(nodes + m) space; the ``edges`` and ``decode`` views are never
    expanded here.
    """
    n = instance.n_nodes
    real, m = instance.real, len(instance.real)
    cores, singles, pairs = instance.cores, instance.singles, instance.pairs
    want = [len(ports) - len(cores[v]) - len(singles[v]) - 2 * len(pairs[v])
            for v, ports in enumerate(instance.ports)]
    mate = [-1] * n
    step = int(0.618 * m) | 1
    while gcd(step, m) > 1:
        step += 2
    for j in range(m):
        i = j * step % m
        u, v = real[i]
        if want[u] > 0 and want[v] > 0:
            mate[2 * i], mate[2 * i + 1] = 2 * i + 1, 2 * i
            want[u] -= 1
            want[v] -= 1
    for v, ports in enumerate(instance.ports):
        free = (p for p in ports if mate[p] < 0)
        for x, p in zip(chain(cores[v], singles[v], *pairs[v]), free):
            mate[p], mate[x] = x, p
    optional = list(chain.from_iterable(singles))
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


def _uncovered(instance: MatchingInstance, mate: list[int]) -> int:
    """The nodes other than soft singles that the mate array leaves exposed.
    Every gadget answer is yes iff this is 0."""
    return mate.count(-1) - sum(
        mate[x] < 0 for x in chain.from_iterable(instance.singles))


def is_perfect(instance: MatchingInstance, matching: set[Edge]) -> bool:
    """True iff the matching covers every gadget node but the soft singles:
    a perfect matching of an even gadget."""
    mate = [-1] * instance.n_nodes
    for u, v in matching:
        mate[u], mate[v] = v, u
    return not _uncovered(instance, mate)


def _factor_from_gadget(g: Graph, a: int, b: int,
                        require_even: bool) -> Factor | None:
    """Decide a factor of g by matching on a gadget: the even gadget of
    ``loop_augment(g, a, b)``, which validates a and b, for degree b when
    ``require_even``, else the parity-free one of g for [a, b].  Then a
    vertex of degree below a makes the answer absent before any gadget.

    The only port-port pairs are real edges, and real edge i is matched
    when its ports 2i and 2i+1 are, so those edges of g, already canonical
    in ``instance.real``, form the returned factor in one pass.  It is
    re-verified against [a, b] (and parity when requested).
    """
    looped = loop_augment(g, a, b) if require_even else (g, 0)
    if any(d < a for d in g.degrees):
        return None
    instance = tutte_gadget(looped, b, None if require_even else a)
    mate = _gadget_matching(instance)[0]
    if _uncovered(instance, mate):
        return None
    chosen = [e for i, e in enumerate(instance.real) if mate[2 * i] == 2 * i + 1]
    factor = Factor(frozenset(chosen), _degrees(g.n, chosen))
    if not verify_factor(g, factor, a, b, require_even):
        raise RuntimeError("internal error: decoded factor failed verification")
    return factor


def find_even_factor(g: Graph, a: int, b: int) -> Factor | None:
    """Decide and construct an even [a,b]-factor; absence is exact.

    Pipeline: loop augmentation, gadget expansion, maximum matching, decode.
    Any returned factor is re-verified.  Vertices of degree below a make the
    answer absent immediately.
    """
    return _factor_from_gadget(g, a, b, require_even=True)


def _even_barrier(g: Graph, a: int, b: int
                  ) -> tuple[int, list[int], list[int]]:
    """``(exposed, S, T)`` on the even gadget ``tutte_gadget(loop_augment(g,
    a, b), b)``: the nodes its matching leaves exposed and, if there are
    any, a maximiser (S, T) of the even-factor deficiency (else S = T = []).

    By Tutte's f-factor theorem in deficiency form (Tutte 1952, Can. J.
    Math. 4; Anstee 1985, J. Algorithms 6), the maximum deficiency equals
    the exposed count.  (S, T) is read off the dead trees of the forest,
    whose labels the matching keeps: with A the nodes that are dead and not
    even,

    - S is every vertex v with d(v) >= b whose ports all lie in A;
    - T is every other vertex v with d(v) < a, or with a port outside A
      while every hard core and soft-pair node of v lies in A.

    This is the f-factor barrier normalised to the port/core gadget.
    """
    instance = tutte_gadget(loop_augment(g, a, b), b)
    mate, dead, even = _gadget_matching(instance)
    exposed = _uncovered(instance, mate)
    if not exposed:
        return 0, [], []
    in_a = [x and not y for x, y in zip(dead, even)]
    s, t = [], []
    for v, d in enumerate(g.degrees):
        ports_in_a = all(in_a[p] for p in instance.ports[v])
        if d >= b and ports_in_a:
            s.append(v)
        elif d < a or not ports_in_a and all(
                in_a[x] for x in chain(instance.cores[v], *instance.pairs[v])):
            t.append(v)
    return exposed, s, t


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
    return _factor_from_gadget(g, a, b, require_even=False)
