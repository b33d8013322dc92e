"""Deficiency expressions and hypothesis checkers for even-factor existence.

The central quantity is the even-factor deficiency of a disjoint vertex pair
(S, T):

    q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v)

where q(S,T) counts components Q of G-(S+T) whose edge cut into T is odd.
By Tutte's f-factor theorem, nonpositivity over all disjoint (S, T) is
necessary and sufficient for an even [a,b]-factor; :func:`criterion_decide`
decides it on the matching gadget and returns a maximiser when it fails.
All threshold comparisons run in exact rational arithmetic so that sharp
boundary instances are classified correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import ScaleError
from .graph import Graph, INFINITY, sigma2, \
    vertex_connectivity, edge_connectivity, degree_profile, _as_vertex_set, \
    _require_even_pair, _require_ints
from .search import _gadget_matching, loop_augment, tutte_gadget

#: Cap for one (S, T) evaluation on adjacency bitmasks, which hold about n^2/2
#: bits on a sparse graph: a path at the cap adds 6 MB (100 MB at n = 40000).
DEFICIENCY_VERTEX_CAP = 10000


@dataclass(frozen=True)
class CriterionWitness:
    """A disjoint pair (S, T) together with its deficiency value."""

    S: tuple[int, ...]
    T: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class Condition:
    """The condition lhs >= rhs; both sides are exact, a Fraction or
    INFINITY."""

    name: str
    holds: bool
    lhs: Fraction | float
    rhs: Fraction | float


def _at_least(name: str, lhs, rhs) -> Condition:
    """The condition lhs >= rhs, each side kept if INFINITY, else made a
    Fraction."""
    return Condition(name, lhs >= rhs,
                     *(x if x == INFINITY else Fraction(x) for x in (lhs, rhs)))


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[Condition, ...]

    @property
    def overall(self) -> bool:
        return all(c.holds for c in self.conditions)

    def __getitem__(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _split_masks(g: Graph, s: Iterable[int], t: Iterable[int]
                 ) -> tuple[Sequence[int], int, int]:
    """Adjacency masks of g and masks of a validated disjoint (S, T); a
    ScaleError above ``DEFICIENCY_VERTEX_CAP``, before any mask is built."""
    if g.n > DEFICIENCY_VERTEX_CAP:
        raise ScaleError(
            f"deficiency evaluation supports n <= {DEFICIENCY_VERTEX_CAP}, got n={g.n}")
    ss = _as_vertex_set(g, s, "S")
    tt = _as_vertex_set(g, t, "T")
    if ss & tt:
        raise ValueError(f"S and T overlap on {sorted(ss & tt)}")
    return g.adjacency_masks, _set_mask(ss), _set_mask(tt)


def odd_cut_q(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """Count components Q of G-(S+T) whose cut into T has odd size."""
    return _deficiency_terms(g.n, *_split_masks(g, s, t))[0]


def _set_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _deficiency_terms(n: int, adj: Sequence[int], s_mask: int, t_mask: int
                      ) -> tuple[int, int]:
    """The (a,b)-free terms (q(S,T), sum_{v in T} d_{G-S}(v)) of the
    deficiency, for disjoint vertex masks S, T over adjacency masks ``adj``.

    Bit v of ``odd``, the XOR of N(t) over t in T, is the parity of v's
    neighbours in T, so a component C of G-(S+T) has an odd cut into T
    exactly when ``odd & C`` has odd popcount.  Each component is flooded
    from its lowest vertex.
    """
    keep = ~s_mask
    odd = e = 0
    rest = t_mask
    while rest:
        low = rest & -rest
        nb = adj[low.bit_length() - 1]
        odd ^= nb
        e += (nb & keep).bit_count()
        rest ^= low
    q = 0
    free = ((1 << n) - 1) & ~(s_mask | t_mask)
    while free:
        comp = frontier = free & -free
        while frontier:
            low = frontier & -frontier
            new = adj[low.bit_length() - 1] & free & ~comp
            comp |= new
            frontier = (frontier ^ low) | new
        q += (odd & comp).bit_count() & 1
        free ^= comp
    return q, e


def even_factor_deficiency(g: Graph, a: int, b: int,
                           s: Iterable[int], t: Iterable[int]) -> int:
    """Exact value of q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v)."""
    _require_even_pair(a, b)
    adj, s_mask, t_mask = _split_masks(g, s, t)
    q, e = _deficiency_terms(g.n, adj, s_mask, t_mask)
    return q - b * s_mask.bit_count() + a * t_mask.bit_count() - e


def parity_check(g: Graph, a: int, b: int,
                 s: Iterable[int], t: Iterable[int]) -> bool:
    """True iff the deficiency value has the same parity as a (and b)."""
    if a % 2 != b % 2:
        raise ValueError(f"a and b must have the same parity, got a={a}, b={b}")
    return even_factor_deficiency(g, a, b, s, t) % 2 == a % 2


def criterion_decide(g: Graph, a: int, b: int
                     ) -> tuple[bool, CriterionWitness | None]:
    """Decide whether the deficiency is nonpositive for every disjoint (S, T).

    Returns (True, None) when the criterion holds, else (False, witness)
    with a maximiser (S, T) and its value.  No tie-break is promised: the
    witness is a maximiser, not a particular one.

    By Tutte's f-factor theorem in deficiency form (Tutte 1952, Can. J.
    Math. 4; Anstee 1985, J. Algorithms 6), the maximum deficiency equals
    the number of nodes that a maximum matching of the even gadget
    ``tutte_gadget(loop_augment(g, a, b), b)`` leaves exposed, so the
    criterion holds iff that matching is perfect.  Otherwise the witness is
    read off the search trees that failed, whose labels the matching keeps:
    with A the nodes that are dead and not even,

    - S is every vertex v with d(v) >= b whose ports all lie in A;
    - T is every other vertex v with d(v) < a, or with a port outside A
      while every hard core and soft-pair node of v lies in A.

    This is the f-factor barrier normalised to the port/core gadget.  The
    witness is re-evaluated by :func:`even_factor_deficiency`, which shares
    no code with the matching, and a value other than the exposed count
    raises RuntimeError.  Graphs with more than ``DEFICIENCY_VERTEX_CAP``
    vertices raise :class:`ScaleError` before any gadget is built.
    """
    _require_even_pair(a, b)
    if g.n > DEFICIENCY_VERTEX_CAP:
        raise ScaleError(
            f"criterion supports n <= {DEFICIENCY_VERTEX_CAP}, got n={g.n}")
    instance = tutte_gadget(loop_augment(g, a, b), b)
    mate, dead, even = _gadget_matching(instance)
    exposed = mate.count(-1)
    if not exposed:
        return True, None
    in_a = [x and not y for x, y in zip(dead, even)]
    s, t = [], []
    for v, d in enumerate(g.degrees):
        ports_in_a = all(in_a[p] for p in instance.ports[v])
        if d >= b and ports_in_a:
            s.append(v)
        elif d < a or not ports_in_a and all(
                in_a[x] for x in chain(instance.cores[v], *instance.pairs[v])):
            t.append(v)
    value = even_factor_deficiency(g, a, b, s, t)
    if value != exposed:
        raise RuntimeError(f"internal error: witness value {value} differs "
                           f"from the {exposed} exposed gadget nodes")
    return False, CriterionWitness(tuple(s), tuple(t), value)


def order_threshold(a: int, b: int) -> Fraction:
    """The vertex-count threshold 2a + b + (a^2 - 3a)/b - 2."""
    _require_ints(a=a, b=b)
    return 2 * a + b + Fraction(a * a - 3 * a, b) - 2


def main_theorem_conditions(g: Graph, a: int, b: int) -> ConditionReport:
    """Check the three sufficient conditions for an even [a,b]-factor.

    (i) vertex connectivity at least a, (ii) enough vertices (for a = 2 the
    order threshold is replaced by b + 3), (iii) minimum degree at least
    a*n/(a+b).  Comparisons are exact.
    """
    _require_even_pair(a, b)
    n = g.n
    kappa = vertex_connectivity(g) if n >= 2 else n - 1
    _, delta, _ = degree_profile(g)
    n_bound: Fraction | int = b + 3 if a == 2 else order_threshold(a, b)
    degree_bound = Fraction(a * n, a + b)
    return ConditionReport((
        _at_least("vertex-connectivity", kappa, a),
        _at_least("order", n, n_bound),
        _at_least("min-degree", delta, degree_bound),
    ))


def conjecture_conditions(g: Graph, a: int, b: int) -> ConditionReport:
    """Check the four degree-sum conditions of the original conjecture."""
    _require_even_pair(a, b)
    n = g.n
    kappa_e = edge_connectivity(g) if n >= 2 else 0
    _, delta, _ = degree_profile(g)
    s2 = sigma2(g)
    n_bound = order_threshold(a, b)
    s2_bound = Fraction(2 * a * n, a + b)
    return ConditionReport((
        _at_least("edge-connectivity", kappa_e, 2),
        _at_least("order", n, n_bound),
        _at_least("min-degree", delta, a),
        _at_least("degree-sum", s2, s2_bound),
    ))


def prop_f_eval(a: int, b: int, n: int, p: int, x) -> Fraction:
    """Exact value of n + (a - 1 - an/(a+b))x + (x - 1 - b)(ax - p)/b.

    With x = xn/xd, the value is one fraction over b(a+b)xd^2.
    """
    x = Fraction(x)
    xn, xd = x.numerator, x.denominator
    num = (b * (a + b) * n * xd * xd
           + b * ((a - 1) * (a + b) - a * n) * xn * xd
           + (a + b) * (xn - (1 + b) * xd) * (a * xn - p * xd))
    return Fraction(num, b * (a + b) * xd * xd)
