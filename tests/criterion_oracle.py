"""Reference oracle for the deficiency criterion: the exhaustive 3^n walk.

:func:`enumerate_criterion` maximises the even-factor deficiency over every
disjoint (S, T) by enumeration in numpy blocks, with the tie-break of
lexicographically smallest (|S|, |T|, S, T).  It shares no code with the
matching gadget that ``evenfactor.criterion_decide`` answers through, so the
tests check the library against it.  It uses only public ``evenfactor``
names.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

import evenfactor as ef

#: Hard cap for the exhaustive (S, T) enumeration; 3^n assignments beyond this
#: must fail loudly instead of silently sampling.
EXHAUSTIVE_VERTEX_CAP = 18


def enumerate_criterion(g: ef.Graph, a: int, b: int
                        ) -> tuple[bool, ef.CriterionWitness | None]:
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

    With gain(v) = a + b - |N(v) - W|, a split (S, T) of W has

        value = popcount(P) + sum_{v in T} gain(v) - 2 E[T] - b|W|

    where P, the XOR of the parity masks of T, is its odd-cut vector and
    E[T] counts the edges inside T.  The splits of the surviving W are
    evaluated in blocks of at most ``_BLOCK`` (W, T) pairs, rows of one
    block padded to the widest W in it with at most ``_PAD`` padding splits
    in all; a W with more than ``_BLOCK_BITS`` members is a block of its
    own.  Before a block is built, its rows are pruned again against the
    best value so far.  Per row, T | P << 32 (one int64) and the gain sum
    are built by doubling over the members of W; 2 E[T] comes from an int32
    table over all subsets, and the value is scored in place.  Among a
    block's maxima the witness is the argmin of the int64 key from
    :func:`_split_keys`, which orders like (|S|, |T|, S, T); ties across
    blocks compare keys, so the witness does not depend on where the blocks
    are cut.  A block holds 16 bytes per split, at most 2^n splits (4 MB at
    the vertex cap); with the O(2^n n) tables this bounds the memory, and no
    array of all 3^n splits is built.

    Values fit int32 for any (a, b).  When b > (a+1)(n-1), every split with
    S nonempty is negative and the others do not depend on b; when
    a > 2m + n, the split (S, T) = ({}, V) beats all others.  So the walk
    runs with a and b lowered to the least even numbers past those
    thresholds, which changes no maximizer, and the witness value is taken
    back to (a, b).

    Graphs with more than ``EXHAUSTIVE_VERTEX_CAP`` vertices raise
    :class:`ScaleError` before any enumeration.
    """
    if a % 2 or b % 2 or not 2 <= a <= b:
        raise ValueError(f"need even 2 <= a <= b, got a={a}, b={b}")
    n = g.n
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise ef.ScaleError(
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

    # E2[X] = 2 * (edges inside X) and the neighbourhood NB[X] of X,
    # doubled over the vertices.
    e2_tab = np.zeros(1 << n, dtype=np.int32)
    nb_tab = np.zeros(1 << n, dtype=np.int32)
    for v in range(n):
        h = 1 << v
        inside = np.bitwise_count(subsets.masks[:h] & adj[v])
        np.add(e2_tab[:h], inside << 1, out=e2_tab[h:2 * h])
        np.bitwise_or(nb_tab[:h], adj[v], out=nb_tab[h:2 * h])
    # nbr[:, j]: the j-th neighbour of each vertex, n where there is none.
    nbr = np.full((n + 1, max(g.degrees, default=0)), n, dtype=np.intp)
    for v, nb in enumerate(g.adjacency):
        nbr[v, :len(nb)] = sorted(nb)

    best = (0, -1, None)
    # A chunk of W holds about _BLOCK (W, vertex) entries per array.  Each
    # array is freed once used, so that the next stage's arrays replace it.
    chunk = _BLOCK // max(n, 1)
    for c0 in range(0, 1 << n, chunk):
        w = subsets.by_size[c0:c0 + chunk]
        sizes = subsets.sizes[c0:c0 + chunk]
        outside = (full ^ w)[:, None]
        # reach[i, u]: the component of u in G - W (0 for u in W), grown
        # one step at a time; a sum that stops growing means a fixed point.
        reach = bit & outside
        nxt = np.empty_like(reach)
        total = reach.sum(dtype=np.int64)
        while True:
            np.take(nb_tab, reach, out=nxt, mode="clip")
            nxt |= reach
            nxt &= outside
            reach, nxt = nxt, reach
            grown = reach.sum(dtype=np.int64)
            if grown == total:
                break
            total = grown
        # root[i, u]: the lowest vertex of u's component, as a bit.
        root = np.negative(reach, out=nxt)
        root &= reach
        del reach, nxt
        # gain[i, v] = a + b - |N(v) - W|.  Since
        # max(a - |N(v) - W|, -b) = max(gain, 0) - b,
        # ub = #components + sum_{v in W} max(gain, 0) - b|W|.
        gain = np.int32(a_run + b_run) - np.bitwise_count(adj & outside)
        in_w = (w[:, None] >> vertices) & 1
        in_w *= np.maximum(gain, 0)
        ub = (np.bitwise_count(np.bitwise_or.reduce(root, axis=1))
              + in_w.sum(axis=1, dtype=np.int32) - b_run * sizes)
        del in_w
        rows = np.flatnonzero(ub >= max(2, best[0]))
        if not len(rows):
            continue
        w, sizes, root, ub, gain = w[rows], sizes[rows], root[rows], ub[rows], gain[rows]
        # parity[i, v]: bit c set when v has an odd number of neighbours in
        # the component of G - W whose lowest vertex is c.
        parity = np.zeros_like(root)
        for j in range(nbr.shape[1]):
            parity ^= root[:, nbr[:, j]]
        del root
        # step_tp[i, j], step_lin[i, j]: what the j-th member v of row i adds
        # to T | P << 32 and to the linear part of the value: bit v with
        # v's parity mask, and gain - 1, the 1 being v's own bit in the
        # popcount.  Members past the row's size are the column n, which
        # adds nothing.
        members = subsets.members[c0 + rows]
        cols = np.arange(len(rows))[:, None]
        step_tp = np.left_shift(parity[cols, members], 32, dtype=np.int64)
        del parity
        step_tp |= bit[members]
        gain -= 1
        gain[:, n] = 0
        step_lin = gain[cols, members]
        del gain, members
        best = _best_in_blocks(w, sizes, ub, step_tp, step_lin, e2_tab, b_run, best)

    best_value, _, best_split = best
    if best_split is None:
        return True, None
    s_tuple, t_tuple = (_mask_to_tuple(x) for x in best_split)
    value = best_value + (a - a_run) * len(t_tuple) - (b - b_run) * len(s_tuple)
    return False, ef.CriterionWitness(s_tuple, t_tuple, value)


def _best_in_blocks(w: np.ndarray, sizes: np.ndarray, ub: np.ndarray,
                    step_tp: np.ndarray, step_lin: np.ndarray, e2_tab: np.ndarray,
                    b: int, best: tuple[int, int, tuple[int, int] | None]
                    ) -> tuple[int, int, tuple[int, int] | None]:
    """Evaluate the splits of rows W, sizes nondecreasing, block by block
    (see :func:`enumerate_criterion`) and return the updated best (value, key,
    (S, T) masks).  The block buffers are freed on return, before the next
    chunk's arrays are built."""
    n = len(e2_tab).bit_length() - 1
    best_value, best_key, best_split = best
    bar = max(2, best_value)
    spans = _row_blocks(sizes.tolist())
    # The blocks share three buffers sized for the largest one.
    size = max((r1 - r0) << int(sizes[r1 - 1]) for r0, r1 in spans)
    tp_buf = np.empty(size, dtype=np.int64)
    lin_buf = np.empty(size, dtype=np.int32)
    score_buf = np.empty(size, dtype=np.int32)
    lin0 = sizes * -b
    for r0, r1 in spans:
        # Rows whose bound fell below a best value found since the rows
        # were pruned are dropped before their block is built.
        rows = slice(r0, r1)
        if bar < max(2, best_value):
            rows = r0 + np.flatnonzero(ub[rows] >= max(2, best_value))
            if not len(rows):
                continue
        w_rows = w[rows]
        k = int(sizes[rows][-1])
        # tp[x, i], lin[x, i]: for the x-th subset T of row i's members,
        # T | P << 32 with P its odd-cut vector, and the sum of its members'
        # steps less b|W|, doubled over the members.
        shape = (1 << k, len(w_rows))
        tp = tp_buf[:shape[0] * shape[1]].reshape(shape)
        lin = lin_buf[:tp.size].reshape(shape)
        tp[0] = 0
        lin[0] = lin0[rows]
        step_tp_k = step_tp[rows, :k]
        step_lin_k = step_lin[rows, :k]
        for j in range(k):
            h = 1 << j
            np.bitwise_xor(tp[:h], step_tp_k[:, j], out=tp[h:2 * h])
            np.add(lin[:h], step_lin_k[:, j], out=lin[h:2 * h])
        # value = popcount(T | P << 32) + lin - E2[T]; tp keeps only T after.
        score = np.bitwise_count(tp, out=score_buf[:tp.size].reshape(shape))
        score += lin
        tp &= (1 << n) - 1
        score -= np.take(e2_tab, tp, out=lin, mode="clip")
        top = int(score.max())
        if top < max(2, best_value):
            continue
        hits = np.flatnonzero(score == top)
        t_hit = tp.ravel()[hits]
        s_hit = w_rows[hits % len(w_rows)] ^ t_hit
        keys = _split_keys(n, s_hit, t_hit)
        i_min = int(keys.argmin())
        key = int(keys[i_min])
        if top == best_value and key >= best_key:
            continue
        best_value, best_key = top, key
        best_split = int(s_hit[i_min]), int(t_hit[i_min])
    return best_value, best_key, best_split


#: log2 of the most (W, T) splits one numpy block holds.
_BLOCK_BITS = 14
_BLOCK = 1 << _BLOCK_BITS
#: The most padding splits one block may add over its rows' own splits.
_PAD = 1 << 12


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
    full = (1 << n) - 1
    rev = _subset_tables(n).rev
    sizes = (np.bitwise_count(s).astype(np.int64) * (n + 1)
             + np.bitwise_count(t))
    return ((sizes << (2 * n))
            | ((full - np.take(rev, s)).astype(np.int64) << n)
            | (full - np.take(rev, t)))


def _row_blocks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Cut rows with nondecreasing sizes k into spans [r0, r1) whose rows,
    each widened to 2^k_max splits, hold at most _BLOCK splits, of which at
    most _PAD are padding; a row with more than _BLOCK_BITS members is a
    span of its own.

    Rows join the open span greedily.  Only the first row of a run of
    equal k can add padding, so each run is cut with arithmetic."""
    spans = []
    start = real = r = 0
    while r < len(sizes):
        k = sizes[r]
        end = bisect_right(sizes, k, r)
        count = r - start
        if count and ((count + 1) << k > _BLOCK or (count << k) - real > _PAD):
            spans.append((start, r))
            start, real = r, 0
        per = max(1, _BLOCK >> k)
        while end - start > per:
            spans.append((start, start + per))
            start += per
            real = 0
        real += (end - max(start, r)) << k
        r = end
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
