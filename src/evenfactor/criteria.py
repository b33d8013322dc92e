"""Deficiency expressions and hypothesis checkers for even-factor existence.

The central quantity is the even-factor deficiency of a disjoint vertex pair
(S, T):

    q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v)

where q(S,T) counts components Q of G-(S+T) whose edge cut into T is odd.
Nonpositivity over all disjoint (S, T) is a sufficient condition for an even
[a,b]-factor.  All threshold comparisons run in exact rational arithmetic so
that sharp boundary instances are classified correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .errors import ScaleError
from .graph import Graph, INFINITY, components_after_deletion, edge_cut, sigma2, \
    vertex_connectivity, edge_connectivity, degree_profile, _as_vertex_set

#: Hard cap for the exhaustive (S, T) enumeration; 3^n assignments beyond this
#: must fail loudly instead of silently sampling.
EXHAUSTIVE_VERTEX_CAP = 18


def rational_json(x) -> object:
    """Serialize an exact numeric value as {num, den}; INFINITY as a string."""
    if x == INFINITY:
        return "INFINITY"
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


@dataclass(frozen=True)
class CriterionWitness:
    """A disjoint pair (S, T) together with its deficiency value."""

    S: tuple[int, ...]
    T: tuple[int, ...]
    value: int

    def to_json(self) -> dict:
        return {"S": list(self.S), "T": list(self.T), "value": self.value}


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool
    lhs: object
    rhs: object

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "lhs": rational_json(self.lhs),
            "rhs": rational_json(self.rhs),
        }


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

    def to_json(self) -> dict:
        return {
            "conditions": [c.to_json() for c in self.conditions],
            "overall": self.overall,
        }


def _require_even_pair(a: int, b: int) -> None:
    problems = []
    if a % 2 or b % 2:
        problems.append(f"a and b must both be even, got a={a}, b={b}")
    if not 2 <= a <= b:
        problems.append(f"need 2 <= a <= b, got a={a}, b={b}")
    if problems:
        raise ValueError("; ".join(problems))


def _disjoint_sets(g: Graph, s: Iterable[int], t: Iterable[int]):
    ss = _as_vertex_set(g, s, "S")
    tt = _as_vertex_set(g, t, "T")
    if ss & tt:
        raise ValueError(f"S and T overlap on {sorted(ss & tt)}")
    return ss, tt


def odd_cut_q(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """Count components Q of G-(S+T) whose cut into T has odd size."""
    ss, tt = _disjoint_sets(g, s, t)
    comps = components_after_deletion(g, ss | tt)
    return sum(1 for q in comps if edge_cut(g, q, tt) % 2 == 1)


def even_factor_deficiency(g: Graph, a: int, b: int,
                           s: Iterable[int], t: Iterable[int]) -> int:
    """Exact value of q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v)."""
    _require_even_pair(a, b)
    ss, tt = _disjoint_sets(g, s, t)
    q = odd_cut_q(g, ss, tt)
    deg_in_g_minus_s = sum(len(g.adjacency[v] - ss) for v in tt)
    return q - b * len(ss) + a * len(tt) - deg_in_g_minus_s


def lovasz_deficiency(g: Graph, lower: Sequence[int], upper: Sequence[int],
                      s: Iterable[int], t: Iterable[int]) -> int:
    """General degree-interval deficiency for per-vertex bounds lower <= upper.

    Evaluates

        sum_{v in T} (d(v) - lower(v)) + sum_{u in S} upper(u) - |[S,T]| - q(S,T)

    where q(S,T) counts components Q of G-(S+T) with lower = upper on all of Q
    and |[Q,T]| + sum_{v in Q} upper(v) odd.  Nonnegativity over all disjoint
    (S, T) characterizes the existence of a spanning subgraph with
    lower(v) <= d_H(v) <= upper(v) everywhere.
    """
    if len(lower) != g.n or len(upper) != g.n:
        raise ValueError(f"bound vectors must have length n={g.n}")
    bad = [v for v in range(g.n)
           if not (0 <= lower[v] <= upper[v] <= g.degree(v))]
    if bad:
        detail = ", ".join(
            f"v={v}: lower={lower[v]}, upper={upper[v]}, degree={g.degree(v)}"
            for v in bad)
        raise ValueError(f"need 0 <= lower <= upper <= degree per vertex; violated at {detail}")
    ss, tt = _disjoint_sets(g, s, t)
    q = 0
    for comp in components_after_deletion(g, ss | tt):
        if all(lower[v] == upper[v] for v in comp):
            if (edge_cut(g, comp, tt) + sum(upper[v] for v in comp)) % 2 == 1:
                q += 1
    return (sum(g.degree(v) - lower[v] for v in tt)
            + sum(upper[u] for u in ss)
            - edge_cut(g, ss, tt)
            - q)


def parity_check(g: Graph, a: int, b: int,
                 s: Iterable[int], t: Iterable[int]) -> bool:
    """True iff the deficiency value has the same parity as a (and b)."""
    if a % 2 != b % 2:
        raise ValueError(f"a and b must have the same parity, got a={a}, b={b}")
    return even_factor_deficiency(g, a, b, s, t) % 2 == a % 2


def criterion_decide(g: Graph, a: int, b: int
                     ) -> tuple[bool, CriterionWitness | None]:
    """Decide whether the deficiency is nonpositive for every disjoint (S, T).

    Returns (True, None) when the criterion holds, else (False, witness) with
    a maximizing witness; ties are broken by lexicographically smallest
    (|S|, |T|, S, T).

    Enumerates W = S+T as bitmasks.  For each W, the components of G-W are
    found once, and an admissible upper bound on the deficiency of every
    split of W skips W when it cannot reach a positive value or the best one
    so far.  Since a and b are even, every deficiency is even (q(S,T) has the
    parity of the number of edges between T and G-S-T), so a positive value
    is at least 2 and W is skipped when its bound is below max(2, best).

    The splits of a surviving W are walked in Gray-code order, starting from
    S = W, T = {}: each step moves one member v of W between S and T and
    updates the value in O(1) word operations instead of re-summing W.
    Moving v from S to T adds c_v + |N(v) & S| - |N(v) & T| to the linear
    part, with c_v = a + b - deg v (the reverse move subtracts it), and flips
    v's component parities in the odd-cut vector whose popcount is q(S,T).
    Ties with the best value compare witness keys explicitly, so the witness
    does not depend on the order in which splits are visited.

    Graphs with more than ``EXHAUSTIVE_VERTEX_CAP`` vertices raise
    :class:`ScaleError` before any enumeration.
    """
    _require_even_pair(a, b)
    n = g.n
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise ScaleError(
            f"criterion enumeration supports n <= {EXHAUSTIVE_VERTEX_CAP}, got n={n}")
    adj = g.adjacency_masks
    deg = g.degrees
    full = (1 << n) - 1
    bit_count = int.bit_count
    # ruler[i - 1] = index of the lowest set bit of i: the member that the
    # i-th Gray-code step flips.
    ruler: list[int] = []
    for j in range(n):
        ruler += [j] + ruler

    best_value = 0
    best_key = None
    best_witness: CriterionWitness | None = None

    for w in range(1 << n):
        # Components of G - W, as masks (frontier-based growth).
        comps: list[int] = []
        rem = full & ~w
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                nxt = 0
                sub = frontier
                while sub:
                    v = sub & -sub
                    nxt |= adj[v.bit_length() - 1]
                    sub ^= v
                frontier = nxt & rem & ~comp
                comp |= frontier
            comps.append(comp)
            rem &= ~comp
        k = len(comps)

        members = []
        ub = k
        mm = w
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            out_v = bit_count(adj[v] & ~w)
            ub += max(a - out_v, -b)
            members.append(v)
        floor = max(2, best_value)
        if ub < floor:
            continue

        # Per member v: its bit, its parity mask (bit j = parity of
        # |N(v) & comps[j]|), N(v), and c_v + |N(v) & W|.  With S = W - T and
        # v in neither, |N(v) & S| - |N(v) & T| = |N(v) & W| - 2|N(v) & T|.
        data = []
        for v in members:
            p = 0
            for j, comp in enumerate(comps):
                if bit_count(adj[v] & comp) & 1:
                    p |= 1 << j
            av = adj[v]
            data.append((1 << v, p, av, a + b - deg[v] + bit_count(av & w)))

        # The start split S = W, T = {} has value -b|W| <= 0 and is skipped.
        t_mask = 0
        lin = -b * len(members)
        pvec = 0
        for j in islice(ruler, (1 << len(members)) - 1):
            bit, pm, av, cw = data[j]
            if t_mask & bit:
                t_mask ^= bit
                lin -= cw - 2 * bit_count(av & t_mask)
            else:
                lin += cw - 2 * bit_count(av & t_mask)
                t_mask |= bit
            pvec ^= pm
            val = lin + bit_count(pvec)
            if val >= floor:
                s_mask = w ^ t_mask
                key = _witness_key(s_mask, t_mask)
                if val == best_value and key >= best_key:
                    continue
                best_value = floor = val
                best_key = key
                best_witness = CriterionWitness(
                    _mask_to_tuple(s_mask), _mask_to_tuple(t_mask), val)

    if best_witness is None:
        return True, None
    return False, best_witness


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = mask & -mask
        out.append(v.bit_length() - 1)
        mask ^= v
    return tuple(out)


def _witness_key(s_mask: int, t_mask: int):
    s = _mask_to_tuple(s_mask)
    t = _mask_to_tuple(t_mask)
    return (len(s), len(t), s, t)


def order_threshold(a: int, b: int) -> Fraction:
    """The vertex-count threshold 2a + b + (a^2 - 3a)/b - 2."""
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
        Condition("vertex-connectivity", kappa >= a, kappa, a),
        Condition("order", n >= n_bound, n, n_bound),
        Condition("min-degree", delta >= degree_bound, delta, degree_bound),
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
        Condition("edge-connectivity", kappa_e >= 2, kappa_e, 2),
        Condition("order", n >= n_bound, n, n_bound),
        Condition("min-degree", delta >= a, delta, a),
        Condition("degree-sum", s2 >= s2_bound, s2, s2_bound),
    ))


def prop_f_eval(a: int, b: int, n: int, p: int, x) -> Fraction:
    """Exact value of n + (a - 1 - an/(a+b))x + (x - 1 - b)(ax - p)/b."""
    x = Fraction(x)
    return (n
            + (a - 1 - Fraction(a * n, a + b)) * x
            + (x - 1 - b) * Fraction(a * x - p, b))
