"""Largest adjacency eigenvalue, bipartite factor thresholds, and sweeps.

The eigenvalue comes from symmetric eigensolves (``numpy.linalg.eigh``) of
each connected component's adjacency matrix; disconnected graphs take the
maximum over components, so a graph of many small components never builds
one large dense matrix.  ``lambda1_all`` solves a stream of graphs in
batches, with one stacked ``eigh`` per component size per batch, and
``lambda1`` is that engine on one graph.  numpy is imported inside the
engine, the library's only user of it, so ``import evenfactor`` loads none
of it and the first eigensolve pays for the import.
Threshold comparisons carry a guard band: values within it are reported as
boundary cases instead of being silently classified, because the bipartite
threshold claim is sharp at equality.
The conjecture sweep eigensolves only graphs that can reach rho: its
exhaustive source walks the degree-sorted edge masks in an orderly way, row by
row, within Stanley's edge-count bound, and a graph whose Collatz-Wielandt
degree bound falls below rho (less twice the guard) is never built.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ScaleError
from .graph import Edge, Graph, build_graph, components_after_deletion, \
    _require_ints
from .search import find_ab_factor

#: Half-width of the guard band used when comparing against sharp thresholds.
THRESHOLD_GUARD = 1e-9

#: Exhaustive sweeps walk every degree-sorted edge mask with enough edges to
#: reach rho.  At this n every valid a takes at most about 26 s of CPU: a = 2
#: and a = 4 walk 919346 masks, eigensolve 57959 of them and peak near 77 MB.
#: One vertex later a = 4 walks 9.1M masks, 87 s for the walk alone, and the
#: walk at a = 1 did not end within 200 s.
SWEEP_EXHAUSTIVE_CAP = 11

#: Random sweeps build all n(n-1)/2 vertex pairs before the first sample:
#: about 0.12 s and 35 MB at this n, growing as n^2.
SWEEP_RANDOM_CAP = 1000

DEFAULT_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralResult:
    """λ1 of one graph and the residual ||Av - λ1 v||_inf of the eigenvector
    that ``numpy.linalg.eigh`` returns for it, on the first component (in
    order of least vertex) that attains λ1.  The component's matrix is
    solved in a stack of its size's matrices, one stacked ``eigh`` per
    component size per batch, and gives the same bits as a call of its own.
    ``iterations`` is always 0: the eigensolve is direct.  The field stays
    for callers that read it."""

    lambda1: float
    iterations: int
    residual: float


#: Float64 cells a batch of ``lambda1_all`` may stack before it is solved:
#: 128 KB of matrices, about 450 six-vertex or 250 eight-vertex graphs, and a
#: stacked ``eigh`` costs about as much per matrix at 250 as at 16000.  The
#: batch's graphs are held until it is solved: at 2^16 cells the exhaustive
#: sweep at n = 8 peaked at 39 MB against 29 MB unbatched, at this budget at
#: 32 MB.  A graph whose matrices alone pass it is solved in a batch of its
#: own.
_BATCH_CELLS = 1 << 14


def lambda1(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue of ``g``: ``lambda1_all`` on one graph."""
    return next(lambda1_all([g]))


def lambda1_all(graphs: Iterable[Graph]) -> Iterator[SpectralResult]:
    """One ``SpectralResult`` per graph of ``graphs``, in input order.

    Each graph is split by ``components_after_deletion(g, ())``, and each
    component of two or more vertices becomes its adjacency matrix with rows
    in sorted vertex order.  Graphs are taken lazily into a batch until its
    matrices would pass ``_BATCH_CELLS`` cells; the batch then stacks its
    matrices by size into ``(k, s, s)`` arrays and makes one ``eigh`` and one
    residual matmul per size.  Each graph keeps the first component whose
    λ1 is strictly larger than every earlier one (0 for no edges).  A graph
    with no vertices raises ValueError once every graph before it is
    yielded.
    """
    import numpy as np

    pending: list[list[tuple[int, int]]] = []  # per graph: (size, slot)
    stacks: dict[int, tuple[list[int], int]] = {}  # size -> (cells of 1s, matrices)
    cells = 0

    def solve():
        solved = {}
        for s, (positions, k) in stacks.items():
            flat = np.zeros(k * s * s)
            flat[positions] = 1.0
            mats = flat.reshape(k, s, s)
            values, vectors = np.linalg.eigh(mats)
            lam, vec = values[:, -1], vectors[:, :, -1]
            residual = np.abs((mats @ vec[:, :, None])[:, :, 0] - lam[:, None] * vec)
            solved[s] = (lam.tolist(), residual.max(axis=1).tolist())
        for slots in pending:
            best, best_residual = 0.0, 0.0
            for s, k in slots:
                lams, residuals = solved[s]
                if lams[k] > best:
                    best, best_residual = lams[k], residuals[k]
            yield SpectralResult(best, 0, best_residual)
        pending.clear()
        stacks.clear()

    for g in graphs:
        if g.n < 1:
            yield from solve()
            raise ValueError("eigenvalue undefined for the empty graph")
        comps = [c for c in components_after_deletion(g, ()) if len(c) > 1]
        need = sum(len(c) ** 2 for c in comps)
        if pending and cells + need > _BATCH_CELLS:
            yield from solve()
            cells = 0
        slots = []
        adj = g.adjacency
        for comp in comps:
            s = len(comp)
            positions, k = stacks.get(s, ([], 0))
            index = {v: i for i, v in enumerate(comp)}
            base = k * s * s
            positions += [base + index[v] * s + index[w] for v in comp for w in adj[v]]
            stacks[s] = (positions, k + 1)
            slots.append((s, k))
        pending.append(slots)
        cells += need
    yield from solve()


def bipartite_threshold(a: int, b: int, n: int) -> float:
    """Eigenvalue threshold for an [a,b]-factor in a complete bipartite graph:
    sqrt(a(n-a)) when n < a+b, else sqrt(ab)/(a+b) * n."""
    _require_ints(a=a, b=b, n=n)
    if not (0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if n >= a + b:
        return math.sqrt(a * b) / (a + b) * n
    radicand = a * (n - a)
    if radicand < 0:
        raise ValueError(
            f"threshold formula leaves the reals for n={n} < a={a} "
            f"(radicand a(n-a) = {radicand})")
    return math.sqrt(radicand)


def observation_decide(x: int, y: int, a: int, b: int) -> bool:
    """Closed-form decision: K_{x,y} (x <= y) has an [a,b]-factor iff
    x >= a and x >= a(x+y)/(a+b).  Exact arithmetic throughout."""
    _require_ints(x=x, y=y, a=a, b=b)
    if x > y:
        raise ValueError(f"expected x <= y, got x={x}, y={y}")
    if not (0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    n = x + y
    return x >= a and Fraction(x) >= Fraction(a * n, a + b)


def classify_threshold(value: float, threshold: float) -> str:
    """Three-way comparison: 'above', 'below', or 'boundary' within
    ``THRESHOLD_GUARD``."""
    if abs(value - threshold) <= THRESHOLD_GUARD:
        return "boundary"
    return "above" if value > threshold else "below"


def _cubic(n: int, a: int, x: float) -> float:
    return ((x - (n - 3)) * x - (a + n - 3)) * x - a * a + (a - 1) * n + 1


def rho(n: int, a: int) -> float:
    """Largest real root of x^3 - (n-3)x^2 - (a+n-3)x - a^2 + (a-1)n + 1.

    All three roots are real: for a >= 2 they are eigenvalues of
    ``h_na(n, a)`` (its quotient over vertex 0, the neighbours of 0 and the
    rest), and for a = 1 the cubic is x(x+1)(x-n+2).  So the cubic is not
    positive at its larger critical point c, nor at n-3, where it equals
    -n^2 + 5n - 8 + 3a - a^2.  It increases right of c and equals
    n(n-1) - a(a-1) > 0 at n-1, so bisection on [max(n-3, c), n-1] finds the
    largest root to a bracket width of ``DEFAULT_ROOT_TOL``, or to adjacent
    floats once rho >= 8192.  A left end where the cubic vanishes is that
    root: at n=2, a=1 the cubic is x^2(x+1), and its largest root is the
    double root 0 = c.
    """
    _require_ints(n=n, a=a)
    if n < a + 1:
        raise ValueError(f"need n >= a+1, got n={n}, a={a}")
    if (a * n) % 2:
        raise ValueError(f"need a*n even, got a={a}, n={n}")
    c = ((n - 3) + math.sqrt((n - 3) ** 2 + 3 * (a + n - 3))) / 3
    lo, hi = max(float(n - 3), c), float(n - 1)
    if _cubic(n, a, lo) >= 0:
        return lo
    mid = (lo + hi) / 2
    while hi - lo > DEFAULT_ROOT_TOL and lo < mid < hi:
        if _cubic(n, a, mid) >= 0:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) / 2
    return mid


@dataclass(frozen=True)
class SweepRecord:
    """One graph examined by a conjecture sweep, with its factor verdict."""

    n: int
    a: int
    b: int
    mask: int
    edges: tuple[Edge, ...]
    lambda1: float
    rho: float
    classification: str  # "candidate" | "boundary"
    verdict: str | None  # "present" | "absent" | None


def _mask_edges(mask: int, pairs: list[Edge]) -> list[Edge]:
    """The pairs whose bits are set in ``mask``, bit i standing for pairs[i]."""
    return [e for e, bit in zip(pairs, bin(mask)[:1:-1]) if bit == "1"]


def graph_from_mask(n: int, mask: int, pairs: list[Edge]) -> Graph:
    return build_graph(n, _mask_edges(mask, pairs))


def _min_edges(rho_value: float) -> int:
    """Fewest edges a graph needs to be classified other than 'below' rho.

    By Stanley's bound (Linear Algebra Appl. 87, 1987) a graph with m edges
    has lambda1 <= (-1 + sqrt(1 + 8m)) / 2.  For fewer edges than returned,
    that bound is below ``rho_value - 2 * THRESHOLD_GUARD``: twice the guard,
    so that rounding in the eigensolve cannot lift lambda1 into the boundary
    band.  With r that target, and r >= -1/2 since rho is never negative,
    the bound reaches r exactly when 1 + 8m >= (2r + 1)^2, that is when
    m >= r(r + 1) / 2.
    """
    r = rho_value - 2 * THRESHOLD_GUARD
    return max(0, math.ceil(r * (r + 1) / 2))


def _degree_bound(n: int, absent: list[Edge]) -> float:
    """Collatz-Wielandt bound on lambda1 of the graph on n vertices that has
    every pair but those in ``absent``, with its degree vector as test vector.

    For a nonnegative matrix A and a positive vector x, lambda1(A) <=
    max_v (Ax)_v / x_v.  Isolated vertices are 1x1 zero blocks of the
    adjacency matrix, and on the rest x = d is positive, so lambda1 <=
    max_v s_v / d_v over the vertices with d_v > 0, where s_v is the degree
    sum of v's neighbours; an isolated vertex counts as 0 / 1, so a graph
    without edges gets 0.  The non-neighbours of v are v itself and its
    absent pairs, so s_v is the degree sum of all vertices less d_v and less
    the degrees across v's absent pairs.  A graph that can reach rho lacks
    few pairs, so the bound costs O(n) plus one step per absent pair.
    """
    degrees = [n - 1] * n
    for u, v in absent:
        degrees[u] -= 1
        degrees[v] -= 1
    total = sum(degrees)
    sums = [total - d for d in degrees]
    for u, v in absent:
        sums[u] -= degrees[v]
        sums[v] -= degrees[u]
    return max(map(operator.truediv, sums, [d or 1 for d in degrees]))


def _degree_sorted_masks(n: int, missing: int) -> list[int]:
    """Every edge mask on n >= 2 vertices with at most ``missing`` pairs
    absent and degrees that never increase with the vertex, in increasing
    order.  Bit i of a mask is the i-th pair of ``combinations(range(n), 2)``.

    The walk picks the absent pairs, a complement graph H, row by row: at
    row u it chooses t of the pairs (u, w), w > u, which fixes u's
    complement degree c_u.  Only choices with c_u >= c_(u-1) are taken, and
    each later vertex w must still climb to c_u: a choice is dropped when
    the pairs left in the budget cannot cover the shortfall sum of
    max(0, c_u - c_w), as each pair adds 1 to two later vertices.  A choice
    of t pairs lowers the shortfall by at most t.  Each step of t lowers
    that shortfall less t by at most 1 and the budget left by 2 pairs'
    worth, so the row stops at the first t whose every choice falls short.
    The last row, the one pair (n-2, n-1), is decided in place.
    """
    size = n * (n - 1) // 2
    full = (1 << size) - 1
    last_bit = 1 << (size - 1)
    last_row = n - 2
    c = [0] * n  # complement degrees so far
    choices: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = {}
    masks = []

    def walk(u: int, prev: int, left: int, removed: int) -> None:
        base = c[u]
        if u == last_row:
            if c[u + 1] >= base:
                if base >= prev:
                    masks.append(full ^ removed)
                if left and base + 1 >= prev:
                    masks.append(full ^ removed ^ last_bit)
            return
        later = c[u + 1:]
        for t in range(max(0, prev - base), min(left, n - 1 - u) + 1):
            cu = base + t
            spare = 2 * (left - t)
            short = sum(cu - d for d in later if d < cu)
            if short - t > spare:
                break
            row = choices.get((u, t))
            if row is None:
                start = u * (2 * n - u - 3) // 2 - 1  # pair (u, w) is bit start + w
                row = choices[u, t] = [
                    (ws, sum(1 << (start + w) for w in ws))
                    for ws in itertools.combinations(range(u + 1, n), t)]
            for ws, bits in row:
                if short > spare and short - sum(c[w] < cu for w in ws) > spare:
                    continue
                for w in ws:
                    c[w] += 1
                walk(u + 1, cu, left - t, removed | bits)
                for w in ws:
                    c[w] -= 1

    walk(0, 0, missing, 0)
    masks.sort()
    return masks


def conjecture_sweep(n: int, a: int, b: int, source: str = "exhaustive",
                     seed: int | None = None, count: int | None = None,
                     jobs: int = 1) -> list[SweepRecord]:
    """Scan graphs whose largest eigenvalue strictly exceeds rho(n, a).

    Every such candidate gets an [a,b]-factor verdict; an 'absent' record is a
    counterexample candidate to the eigenvalue conjecture and is kept in full.
    Graphs within the guard band of rho are recorded as boundary, never
    classified.

    Graphs are upper-triangular edge bitmasks over the vertex pairs, and the
    source picks them:

    - ``"exhaustive"`` (n <= ``SWEEP_EXHAUSTIVE_CAP``, no seed or count)
      yields, in increasing order, every mask with at most
      C(n,2) - ``_min_edges(rho)`` missing pairs whose degrees never
      increase with the vertex (``_degree_sorted_masks``).  By Stanley's
      bound, a graph with m edges has lambda1 <= (-1 + sqrt(1 + 8m)) / 2, so
      a graph with fewer than ``_min_edges(rho)`` edges would be classified
      'below'; and every isomorphism class keeps its representatives with
      non-increasing degrees.  So the records equal those of building every
      degree-sorted graph.
    - ``"random"`` (n <= ``SWEEP_RANDOM_CAP``, explicit seed and
      nonnegative count) draws ``count`` uniform masks from
      ``random.Random(seed).getrandbits``, one at a time, in draw order.

    One loop then examines both sources' masks.  A mask with fewer than
    ``_min_edges(rho)`` edges is skipped, and so is one whose Collatz-Wielandt
    bound (``_degree_bound``, from its degrees and absent pairs) is below
    rho - 2 * ``THRESHOLD_GUARD``: twice the guard, as in ``_min_edges``, so
    that its computed lambda1 could only be classified 'below'.  Neither is
    built as a graph or eigensolved.  The edgeless graph's bound is 0, so at
    rho = 0 it is kept, as a boundary record.  Every other mask is built and
    fed, as the source yields it, through ``lambda1_all``, which solves the
    built graphs in batches; above rho each gets a verdict, in mask order.
    Only a batch's graphs are held at a time.  Every parameter, and the
    source's cap, is checked before rho is computed or any graph is built;
    only ``jobs=1`` is accepted, since sweeps run in one process.
    """
    _require_ints(n=n, a=a, b=b)
    if not (1 <= a <= b):
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    # The keyword stays because the benchmark's sweep workload passes jobs=1.
    if jobs != 1:
        raise ValueError(f"sweeps run serially; jobs must be 1, got {jobs}")
    if source == "exhaustive":
        given = {name: value for name, value in (("seed", seed), ("count", count))
                 if value is not None}
        if given:
            raise ValueError(
                f"exhaustive sweep takes no {' or '.join(given)}; got "
                + ", ".join(f"{name}={value}" for name, value in given.items()))
        cap = SWEEP_EXHAUSTIVE_CAP
    elif source == "random":
        if seed is None or count is None:
            raise ValueError("random sweep requires explicit seed and count")
        _require_ints(seed=seed, count=count)
        if count < 0:
            raise ValueError(f"random sweep count must be nonnegative, got {count}")
        cap = SWEEP_RANDOM_CAP
    else:
        raise ValueError(f"unknown sweep source {source!r}")
    if n > cap:
        raise ScaleError(f"{source} sweep supports n <= {cap}, got n={n}")

    rho_value = rho(n, a)
    pairs = list(itertools.combinations(range(n), 2))
    min_edges = _min_edges(rho_value)
    if source == "exhaustive":
        masks = _degree_sorted_masks(n, len(pairs) - min_edges)
    else:
        rng = random.Random(seed)
        masks = (rng.getrandbits(len(pairs)) for _ in range(count))

    reach = rho_value - 2 * THRESHOLD_GUARD
    full = (1 << len(pairs)) - 1
    admitted = ((mask, graph_from_mask(n, mask, pairs)) for mask in masks
                if mask.bit_count() >= min_edges
                and _degree_bound(n, _mask_edges(full ^ mask, pairs)) >= reach)
    admitted, fed = itertools.tee(admitted)
    spectra = lambda1_all(g for _, g in fed)
    records = []
    for (mask, g), spec in zip(admitted, spectra):
        lam = spec.lambda1
        cls = classify_threshold(lam, rho_value)
        if cls == "below":
            continue
        verdict = None
        if cls == "above":
            verdict = "present" if find_ab_factor(g, a, b) is not None else "absent"
        records.append(SweepRecord(
            n, a, b, mask, tuple(g.sorted_edges()), lam, rho_value,
            "candidate" if cls == "above" else "boundary", verdict))
    return records


def sweep_summary(records: list[SweepRecord]) -> dict:
    verdicts = [r.verdict for r in records]
    return {
        "records": len(records),
        "candidates": sum(1 for r in records if r.classification == "candidate"),
        "boundary": sum(1 for r in records if r.classification == "boundary"),
        "present": verdicts.count("present"),
        "absent": verdicts.count("absent"),
        # Every verdict is exact, so this is always 0.  The key stays because
        # the benchmark's sweep check reads it.
        "budget_exhausted": 0,
    }
