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
from typing import Iterable, Sequence

from .errors import ScaleError
from .graph import Graph, INFINITY, sigma2, degree_profile, _as_vertex_set, \
    _edge_connectivity, _require_even_pair, _require_ints, _vertex_connectivity
from .search import _even_barrier

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
    """Exact value of q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v); a
    ScaleError above ``DEFICIENCY_VERTEX_CAP``, before any mask is built."""
    _require_even_pair(a, b)
    if g.n > DEFICIENCY_VERTEX_CAP:
        raise ScaleError(
            f"deficiency evaluation supports n <= {DEFICIENCY_VERTEX_CAP}, got n={g.n}")
    ss = _as_vertex_set(g, s, "S")
    tt = _as_vertex_set(g, t, "T")
    if ss & tt:
        raise ValueError(f"S and T overlap on {sorted(ss & tt)}")
    q, e = _deficiency_terms(g.n, g.adjacency_masks,
                             sum(1 << v for v in ss), sum(1 << v for v in tt))
    return q - b * len(ss) + a * len(tt) - e


def criterion_decide(g: Graph, a: int, b: int
                     ) -> tuple[bool, CriterionWitness | None]:
    """Decide whether the deficiency is nonpositive for every disjoint (S, T).

    Returns (True, None) when the criterion holds, else (False, witness)
    with a maximiser (S, T) and its value.  No tie-break is promised: the
    witness is a maximiser, not a particular one.

    It holds iff the even gadget's matching is perfect; else the witness is
    the one :func:`search._even_barrier` reads off the dead trees of the
    matching's forest.
    :func:`even_factor_deficiency`, which shares no code with the matching,
    re-evaluates it, and a value other than the exposed count raises
    RuntimeError.  Above ``DEFICIENCY_VERTEX_CAP`` vertices a
    :class:`ScaleError` is raised before any gadget is built.
    """
    _require_even_pair(a, b)
    if g.n > DEFICIENCY_VERTEX_CAP:
        raise ScaleError(
            f"criterion supports n <= {DEFICIENCY_VERTEX_CAP}, got n={g.n}")
    exposed, s, t = _even_barrier(g, a, b)
    if not exposed:
        return True, None
    value = even_factor_deficiency(g, a, b, s, t)
    if value != exposed:
        raise RuntimeError(f"internal error: witness value {value} differs "
                           f"from the {exposed} exposed gadget nodes")
    return False, CriterionWitness(tuple(s), tuple(t), value)


def order_threshold(a: int, b: int) -> Fraction:
    """The vertex-count threshold 2a + b + (a^2 - 3a)/b - 2, for b != 0."""
    _require_ints(a=a, b=b)
    if b == 0:
        raise ValueError(f"need b != 0, got a={a}, b={b}")
    return 2 * a + b + Fraction(a * a - 3 * a, b) - 2


def main_theorem_conditions(g: Graph, a: int, b: int) -> ConditionReport:
    """Check the three sufficient conditions for an even [a,b]-factor.

    (i) vertex connectivity at least a, (ii) enough vertices (for a = 2 the
    order threshold is replaced by b + 3), (iii) minimum degree at least
    a*n/(a+b).  Comparisons are exact.  The connectivity's lhs is min(κ, a),
    which is κ whenever (i) fails; its flows stop at a.
    """
    _require_even_pair(a, b)
    n = g.n
    kappa = _vertex_connectivity(g, a) if n >= 2 else n - 1
    _, delta, _ = degree_profile(g)
    n_bound: Fraction | int = b + 3 if a == 2 else order_threshold(a, b)
    degree_bound = Fraction(a * n, a + b)
    return ConditionReport((
        _at_least("vertex-connectivity", kappa, a),
        _at_least("order", n, n_bound),
        _at_least("min-degree", delta, degree_bound),
    ))


def conjecture_conditions(g: Graph, a: int, b: int) -> ConditionReport:
    """Check the four degree-sum conditions of the original conjecture.

    The edge connectivity's lhs is min(κ′, 2), which is κ′ whenever that
    condition fails; its flows stop at 2.
    """
    _require_even_pair(a, b)
    n = g.n
    kappa_e = _edge_connectivity(g, 2) if n >= 2 else 0
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

    With x = xn/xd, the value is one fraction over b(a+b)xd^2.  A non-integer
    a, b, n or p, and b = 0 or a + b = 0, raise ValueError.
    """
    _require_ints(a=a, b=b, n=n, p=p)
    if b == 0 or a + b == 0:
        raise ValueError(f"need b != 0 and a + b != 0, got a={a}, b={b}")
    x = Fraction(x)
    xn, xd = x.numerator, x.denominator
    num = (b * (a + b) * n * xd * xd
           + b * ((a - 1) * (a + b) - a * n) * xn * xd
           + (a + b) * (xn - (1 + b) * xd) * (a * xn - p * xd))
    return Fraction(num, b * (a + b) * xd * xd)
