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
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ScaleError
from .graph import Graph, INFINITY, components_after_deletion, edge_cut, sigma2, \
    vertex_connectivity, edge_connectivity, degree_profile, _as_vertex_set, _components

if TYPE_CHECKING:
    import numpy as np

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
    return _odd_cut_q(g, ss, tt)


def _odd_cut_q(g: Graph, ss: frozenset[int], tt: frozenset[int]) -> int:
    """q(S,T) for validated disjoint S, T: each component's cut into T is
    counted from the adjacency sets of its vertices."""
    adj = g.adjacency
    return sum(sum(len(adj[v] & tt) for v in comp) & 1
               for comp in _components(g, ss | tt))


def even_factor_deficiency(g: Graph, a: int, b: int,
                           s: Iterable[int], t: Iterable[int]) -> int:
    """Exact value of q(S,T) - b|S| + a|T| - sum_{v in T} d_{G-S}(v)."""
    _require_even_pair(a, b)
    ss, tt = _disjoint_sets(g, s, t)
    deg_in_g_minus_s = sum(len(g.adjacency[v] - ss) for v in tt)
    return _odd_cut_q(g, ss, tt) - b * len(ss) + a * len(tt) - deg_in_g_minus_s


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

    Every W = S+T is a bitmask.  Per chunk of W (taken in order of size),
    numpy finds the components of G-W, each member's parity mask (bit c set
    when the member has an odd number of neighbours in the component with
    lowest vertex c) and an admissible bound
    ``ub = #components + sum_{v in W} max(a - |N(v) - W|, -b)``.  Since a and
    b are even, every deficiency is even (q(S,T) has the parity of the
    number of edges between T and G-S-T), so a positive value is at least 2
    and W is dropped when ub < max(2, best).

    The splits of the surviving W are evaluated in blocks of at most
    ``_BLOCK`` (W, T) pairs, rows of one block padded to the widest W in it.
    T and its odd-cut vector P are built per row by doubling over the
    members of W, and

        value = popcount(P) - b|S| + D[T] + E[W] - E[S] - E[T]

    with per-subset int32 tables E[X] (edges inside X) and
    D[X] = sum_{v in X} (a - deg v).  Among a block's maxima the witness is
    the argmin of the int64 key from :func:`_split_keys`, which orders like
    (|S|, |T|, S, T); ties across blocks compare keys, so the witness does
    not depend on the order of evaluation.  Memory is bounded by the block
    size and by the O(2^n n) tables; no array of all 3^n splits is built.

    Values fit int32 for any (a, b).  When b > (a+1)(n-1), every split with
    S nonempty is negative and the others do not depend on b; when
    a > 2m + n, the split (S, T) = ({}, V) beats all others.  So the walk
    runs with a and b lowered to the least even numbers past those
    thresholds, which changes no maximizer, and the witness value is taken
    back to (a, b).

    Graphs with more than ``EXHAUSTIVE_VERTEX_CAP`` vertices raise
    :class:`ScaleError` before any enumeration.
    """
    # numpy is imported on first use: imported with this module, ahead of
    # search, constructions and spectral, it made a fresh `import evenfactor`
    # about 7% slower and its peak RSS up to 1 MB higher.
    import numpy as np

    _require_even_pair(a, b)
    n = g.n
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise ScaleError(
            f"criterion enumeration supports n <= {EXHAUSTIVE_VERTEX_CAP}, got n={n}")
    a_run = min(a, (2 * g.m + n + 2) // 2 * 2)
    b_run = min(b, max(a_run, ((a_run + 1) * (n - 1) + 2) // 2 * 2))
    subsets = _subset_tables(n)
    bit = subsets.bit
    vertices = np.arange(n + 1, dtype=np.int32)
    # Per-vertex arrays carry one more column, n, whose vertex is in no set.
    adj = np.zeros(n + 1, dtype=np.int32)
    adj[:n] = g.adjacency_masks
    full = (1 << n) - 1

    # E[X], F[X] = sum_{v in X} (a + b - deg v) - E[X] and the neighbourhood
    # NB[X] of X, doubled over the vertices.  With |S| = |W| - |T|,
    # value = popcount(P) + F[T] - E[S] + E[W] - b|W|.
    e_tab = np.zeros(1 << n, dtype=np.int32)
    f_tab = np.zeros(1 << n, dtype=np.int32)
    nb_tab = np.zeros(1 << n, dtype=np.int32)
    for v in range(n):
        h = 1 << v
        inside = np.bitwise_count(subsets.masks[:h] & adj[v])
        np.add(e_tab[:h], inside, out=e_tab[h:2 * h])
        np.subtract(f_tab[:h], inside, out=f_tab[h:2 * h])
        f_tab[h:2 * h] += a_run + b_run - g.degrees[v]
        np.bitwise_or(nb_tab[:h], adj[v], out=nb_tab[h:2 * h])
    # nbr[:, j]: the j-th neighbour of each vertex, n where there is none.
    nbr = np.full((n + 1, max(g.degrees, default=0)), n, dtype=np.intp)
    for v, nb in enumerate(g.adjacency):
        nbr[v, :len(nb)] = sorted(nb)

    best_value = 0
    best_key = -1
    best_split = None
    # A chunk of W holds about _BLOCK (W, vertex) entries per array.
    chunk = _BLOCK // max(n, 1)
    for c0 in range(0, 1 << n, chunk):
        w = subsets.by_size[c0:c0 + chunk]
        sizes = subsets.sizes[c0:c0 + chunk]
        outside = (full ^ w)[:, None]
        # reach[i, u]: the component of u in G - W (0 for u in W), grown
        # one step at a time; a sum that stops growing means a fixed point.
        reach = bit & outside
        total = reach.sum(dtype=np.int64)
        while True:
            nxt = np.take(nb_tab, reach)
            nxt |= reach
            nxt &= outside
            reach = nxt
            grown = reach.sum(dtype=np.int64)
            if grown == total:
                break
            total = grown
        root = reach ^ (reach & (reach - 1))
        # max(a - |N(v) - W|, -b) = a - min(|N(v) - W|, a + b)
        in_w = (w[:, None] >> vertices) & 1
        out_deg = np.minimum(np.bitwise_count(adj & outside), min(a_run + b_run, n))
        ub = (np.bitwise_count(np.bitwise_or.reduce(root, axis=1)) + a_run * sizes
              - (out_deg * in_w).sum(axis=1, dtype=np.int32))
        rows = np.flatnonzero(ub >= max(2, best_value))
        if not len(rows):
            continue
        w, sizes, root = w[rows], sizes[rows], root[rows]
        members = subsets.members[c0 + rows]
        # parity[i, v]: bit c set when v has an odd number of neighbours in
        # the component of G - W whose lowest vertex is c.
        parity = np.zeros_like(root)
        for j in range(nbr.shape[1]):
            parity ^= root[:, nbr[:, j]]
        row_const = np.take(e_tab, w) - b_run * sizes

        for r0, r1 in _row_blocks(sizes.tolist()):
            k = int(sizes[r1 - 1])
            low = min(k, _BLOCK_BITS)
            # t[x, i], p[x, i]: the x-th subset T of row i's members and its
            # odd-cut vector, doubled over the first `low` members (members
            # past the row's own size are the empty column n).
            pos = members[r0:r1, :k].astype(np.intp)
            step_t = bit[pos]
            step_p = parity[np.arange(r0, r1)[:, None], pos]
            t = np.empty((1 << low, r1 - r0), dtype=np.int32)
            p = np.empty_like(t)
            t[0] = p[0] = 0
            for j in range(low):
                h = 1 << j
                np.bitwise_xor(t[:h], step_t[:, j], out=t[h:2 * h])
                np.bitwise_xor(p[:h], step_p[:, j], out=p[h:2 * h])
            wr = w[r0:r1]
            const = row_const[r0:r1]
            # Members past the low ones (only in a block of one row) are
            # walked in Gray-code order, one block per subset of them.
            tb, pb = t, p
            for i in range(1 << (k - low)):
                if i:
                    j = low + (i & -i).bit_length() - 1
                    tb = tb ^ step_t[0, j]
                    pb = pb ^ step_p[0, j]
                sb = wr ^ tb
                score = np.take(f_tab, tb)
                score += np.bitwise_count(pb)
                score -= np.take(e_tab, sb)
                score += const
                top = int(score.max())
                if top < max(2, best_value):
                    continue
                hits = np.flatnonzero(score == top)
                s_hit = sb.ravel()[hits]
                t_hit = tb.ravel()[hits]
                keys = _split_keys(n, s_hit, t_hit)
                i_min = int(keys.argmin())
                key = int(keys[i_min])
                if top == best_value and key >= best_key:
                    continue
                best_value, best_key = top, key
                best_split = int(s_hit[i_min]), int(t_hit[i_min])

    if best_split is None:
        return True, None
    s_tuple, t_tuple = (_mask_to_tuple(x) for x in best_split)
    value = best_value + (a - a_run) * len(t_tuple) - (b - b_run) * len(s_tuple)
    return False, CriterionWitness(s_tuple, t_tuple, value)


#: log2 of the most (W, T) splits one numpy block holds.
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS


class _SubsetTables(NamedTuple):
    """Arrays over the 2^n subsets of range(n) that depend only on n."""

    masks: np.ndarray      # int32, masks[x] = x
    by_size: np.ndarray    # int32, every mask, by size and then by value
    sizes: np.ndarray      # int32, popcount of by_size
    members: np.ndarray    # int8 (2^n, n): member positions of by_size, padded with n
    rev: np.ndarray        # int32, bit reversal of masks over n bits
    bit: np.ndarray        # int32 (n + 1,): 1 << v, and 0 for the pad n


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> _SubsetTables:
    import numpy as np

    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks).astype(np.int32)
    by_size = np.concatenate(
        [np.flatnonzero(sizes == k) for k in range(n + 1)]).astype(np.int32)
    members = np.full((1 << n, n), n, dtype=np.int8)
    filled = np.zeros(1 << n, dtype=np.intp)
    rev = np.zeros(1 << n, dtype=np.int32)
    for v in range(n):
        rows = np.flatnonzero(by_size & (1 << v))
        members[rows, filled[rows]] = v
        filled[rows] += 1
        rev |= ((masks >> v) & 1) << (n - 1 - v)
    bit = np.zeros(n + 1, dtype=np.int32)
    bit[:n] = 1 << np.arange(n, dtype=np.int32)
    return _SubsetTables(masks, by_size, sizes[by_size], members, rev, bit)


def _split_keys(n: int, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int64 keys of disjoint masks (S, T) that order like (|S|, |T|, S, T).

    For two sets of equal size, sorted-tuple order is the reverse of the
    order of their bit reversals, so ``full - rev(X)`` ascends with X.
    """
    import numpy as np

    full = (1 << n) - 1
    rev = _subset_tables(n).rev
    sizes = (np.bitwise_count(s).astype(np.int64) * (n + 1)
             + np.bitwise_count(t))
    return ((sizes << (2 * n))
            | ((full - np.take(rev, s)).astype(np.int64) << n)
            | (full - np.take(rev, t)))


def _row_blocks(sizes: list[int]) -> list[tuple[int, int]]:
    """Cut rows with nondecreasing sizes k into spans [r0, r1) whose rows,
    each widened to 2^min(k_max, _BLOCK_BITS) splits, hold at most _BLOCK."""
    spans = []
    start = 0
    for r, k in enumerate(sizes):
        if (r + 1 - start) << min(k, _BLOCK_BITS) > _BLOCK:
            spans.append((start, r))
            start = r
    if start < len(sizes):
        spans.append((start, len(sizes)))
    return spans


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = mask & -mask
        out.append(v.bit_length() - 1)
        mask ^= v
    return tuple(out)


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
