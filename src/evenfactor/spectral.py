"""Largest adjacency eigenvalue, bipartite factor thresholds, and sweeps.

The eigenvalue comes from one symmetric eigensolve per connected component
(``numpy.linalg.eigh``); disconnected graphs take the maximum over
components, so a graph of many small components never builds one large
dense matrix.  numpy is imported inside ``lambda1``, the library's only
user of it, so ``import evenfactor`` loads none of it and the first
eigensolve pays for the import.
Threshold comparisons carry a guard band: values within it are reported as
boundary cases instead of being silently classified, because the bipartite
threshold claim is sharp at equality.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScaleError
from .graph import Edge, Graph, build_graph, components_after_deletion, \
    _require_ints
from .search import find_ab_factor

#: Half-width of the guard band used when comparing against sharp thresholds.
THRESHOLD_GUARD = 1e-9

#: Exhaustive sweeps walk every edge mask with enough edges to reach rho:
#: 10.7M masks and about 11 s of CPU at this n and a = 2, and about 25 times
#: as many one vertex later.
SWEEP_EXHAUSTIVE_CAP = 9

#: Random sweeps build all n(n-1)/2 vertex pairs before the first sample:
#: about 0.12 s and 35 MB at this n, growing as n^2.
SWEEP_RANDOM_CAP = 1000

DEFAULT_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralResult:
    """``iterations`` is always 0: the eigensolve is direct.  The field stays
    for callers that read it."""

    lambda1: float
    iterations: int
    residual: float


def lambda1(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue, with the residual ||Av - lambda*v||_inf of
    the eigenvector that ``numpy.linalg.eigh`` returns for it."""
    import numpy as np

    if g.n < 1:
        raise ValueError("eigenvalue undefined for the empty graph")
    best, best_residual = 0.0, 0.0
    for comp in components_after_deletion(g, ()):
        if len(comp) == 1:
            continue
        index = {v: i for i, v in enumerate(comp)}
        mat = np.zeros((len(comp), len(comp)))
        for v in comp:
            for w in g.adjacency[v]:
                mat[index[v], index[w]] = 1.0
        values, vectors = np.linalg.eigh(mat)
        lam, vec = float(values[-1]), vectors[:, -1]
        if lam > best:
            best = lam
            best_residual = float(np.max(np.abs(mat @ vec - lam * vec)))
    return SpectralResult(best, 0, best_residual)


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


def graph_from_mask(n: int, mask: int, pairs: list[Edge]) -> Graph:
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return build_graph(n, edges)


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


def _degrees_non_increasing(mask: int, inc: list[int]) -> bool:
    """Whether vertex v's degree, ``(mask & inc[v]).bit_count()`` with
    ``inc[v]`` the bits of the pairs at v, never increases with v."""
    prev = len(inc)
    for bits in inc:
        deg = (mask & bits).bit_count()
        if deg > prev:
            return False
        prev = deg
    return True


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
      walks the masks that can reach rho, in increasing order.  By Stanley's
      bound, a graph with m edges has lambda1 <= (-1 + sqrt(1 + 8m)) / 2, so
      a graph with fewer than ``_min_edges(rho)`` edges would be classified
      'below'; only masks with at most C(n,2) - ``_min_edges(rho)`` missing
      pairs are chosen, at n = 8 and a = 2 499178 of the 2^28 masks.  Of
      those, a mask whose degrees (popcounts of the mask and the bits of the
      pairs at each vertex) increase somewhere is skipped: every isomorphism
      class keeps its representatives with non-increasing degrees.  So the
      records equal those of building every degree-sorted graph.
    - ``"random"`` (n <= ``SWEEP_RANDOM_CAP``, explicit seed and
      nonnegative count) draws ``count`` uniform masks from
      ``random.Random(seed).getrandbits``, one at a time, in draw order.

    Every mask with at least ``_min_edges(rho)`` edges is built, eigensolved
    and, above rho, given a verdict.  Every parameter, and the source's cap,
    is checked before rho is computed or any graph is built; only ``jobs=1``
    is accepted, since sweeps run in one process.
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
        inc = [sum(1 << i for i, e in enumerate(pairs) if v in e) for v in range(n)]
        bits = [1 << i for i in range(len(pairs))]
        full = (1 << len(pairs)) - 1
        masks = []
        for missing in range(len(pairs) - min_edges + 1):
            for removed in itertools.combinations(bits, missing):
                mask = full ^ sum(removed)
                if _degrees_non_increasing(mask, inc):
                    masks.append(mask)
        masks.sort()
    else:
        rng = random.Random(seed)
        masks = (rng.getrandbits(len(pairs)) for _ in range(count))

    records = []
    for mask in masks:
        if mask.bit_count() < min_edges:
            continue
        g = graph_from_mask(n, mask, pairs)
        lam = lambda1(g).lambda1
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
