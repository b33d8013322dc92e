import math
import random
import signal
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import evenfactor as ef
from evenfactor import spectral
from helpers import lambda1_per_component, random_graph


# ---------------------------------------------------------------- lambda1

def test_lambda1_regular_graphs():
    for n in range(2, 8):
        assert ef.lambda1(ef.complete_graph(n)).lambda1 == pytest.approx(n - 1, abs=1e-9)
    assert ef.lambda1(ef.cycle_graph(6)).lambda1 == pytest.approx(2, abs=1e-9)


def test_lambda1_complete_bipartite_is_geometric_mean():
    assert ef.lambda1(ef.complete_bipartite(3, 3)).lambda1 == pytest.approx(3, abs=1e-9)
    assert ef.lambda1(ef.complete_bipartite(2, 6)).lambda1 == pytest.approx(
        math.sqrt(12), abs=1e-9)


def test_lambda1_disconnected_takes_max_over_components():
    g = ef.build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    assert ef.lambda1(g).lambda1 == pytest.approx(2, abs=1e-9)  # C4 beats K3


def test_lambda1_residual_meets_tolerance():
    res = ef.lambda1(ef.path_graph(9))
    assert res.residual <= 1e-12
    assert res.iterations == 0


def test_lambda1_validates_input():
    with pytest.raises(ValueError):
        ef.lambda1(ef.build_graph(0, []))


def test_lambda1_is_the_largest_root_of_the_characteristic_polynomial():
    rng = random.Random(43)
    x = sympy.Symbol("x")
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        adj = sympy.Matrix(g.n, g.n, lambda i, j: int(j in g.adjacency[i]))
        roots = sympy.Poly(adj.charpoly(x).as_expr(), x).real_roots()
        assert ef.lambda1(g).lambda1 == pytest.approx(float(max(roots)), abs=1e-9)


def test_lambda1_rayleigh_bounds():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        lam = ef.lambda1(g).lambda1
        if g.n == 0:
            continue
        _, lo, hi = ef.degree_profile(g)
        assert lo - 1e-8 <= lam <= hi + 1e-8
    for g in (ef.example1(4, 12, 9), ef.example2(4, 24, 6), ef.h_na(8, 4)):
        lam = ef.lambda1(g).lambda1
        _, lo, hi = ef.degree_profile(g)
        assert lo - 1e-8 <= lam <= hi + 1e-8


def test_lambda1_strictly_increases_when_adding_an_edge():
    rng = random.Random(42)
    done = 0
    while done < 25:
        g = random_graph(rng, rng.randint(3, 9), 0.5)
        if not ef.is_connected(g) or g.m == g.n * (g.n - 1) // 2:
            continue
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if (u, v) not in g.edges]
        extra = rng.choice(non_edges)
        bigger = ef.build_graph(g.n, list(g.edges) + [extra])
        assert ef.lambda1(bigger).lambda1 > ef.lambda1(g).lambda1 + 1e-9
        done += 1


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return ef.build_graph(offset, edges)


def _exactness_corpus():
    """Graphs whose components share sizes, with isolated vertices, equal-λ1
    components and one graph whose matrix alone passes the cell budget."""
    rng = random.Random(47)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.6, 0.9]))
              for _ in range(120)]
    two_k3 = ef.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    k3_c4 = ef.build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    c4_k3 = ef.build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)])
    k3_points = ef.build_graph(6, [(1, 3), (3, 5), (1, 5)])
    # λ1 = 2 and 3 in each component; eigh returns most of them as the same
    # float with different residuals, so the first one must be kept
    ties = [_disjoint_union(ef.complete_graph(3), ef.complete_bipartite(1, 4), ef.cycle_graph(5)),
            _disjoint_union(ef.complete_bipartite(1, 4), ef.complete_graph(3)),
            _disjoint_union(ef.complete_graph(4), ef.complete_bipartite(3, 3),
                            ef.complete_bipartite(1, 9))]
    three_p3 = ef.build_graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
    big = ef.cycle_graph(300)
    assert big.n ** 2 > spectral._BATCH_CELLS
    specials = [two_k3, k3_c4, c4_k3, *ties, ef.build_graph(1, []), ef.build_graph(5, []),
                k3_points, three_p3, ef.h_na(9, 4), big, ef.complete_bipartite(3, 5)]
    return graphs[:60] + specials + graphs[60:]


@pytest.mark.parametrize("budget", [None, 64, 1], ids=["default", "64", "1"])
def test_lambda1_all_equals_one_eigh_per_component(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(spectral, "_BATCH_CELLS", budget)
    corpus = _exactness_corpus()
    expected = [lambda1_per_component(g) for g in corpus]
    got = [(r.lambda1, r.residual, r.iterations) for r in ef.lambda1_all(corpus)]
    assert got == [(lam, res, 0) for lam, res in expected]
    assert [(r.lambda1, r.residual) for r in map(ef.lambda1, corpus)] == expected
    # an empty graph mid-stream raises once every graph before it is yielded
    stream = ef.lambda1_all(corpus[:70] + [ef.build_graph(0, [])] + corpus[70:])
    before = []
    with pytest.raises(ValueError, match="empty graph"):
        for r in stream:
            before.append((r.lambda1, r.residual))
    assert before == expected[:70]


def _spy_on_eigh(monkeypatch):
    """The shape of every array passed to ``numpy.linalg.eigh`` from now on."""
    calls = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_sweep_solves_one_stack_per_component_size(monkeypatch):
    # One batch holds every graph conjecture_sweep(6, 2, 4) admits: 74 graphs,
    # one eigh each before batching, and now one eigh per component size.
    calls = _spy_on_eigh(monkeypatch)
    records = ef.conjecture_sweep(6, 2, 4)
    sizes = [shape[-1] for shape in calls]
    assert len(sizes) == len(set(sizes)) and sizes
    assert all(len(shape) == 3 and shape[1] == shape[2] for shape in calls)
    assert sum(shape[0] for shape in calls) == 74
    assert len(records) == 17


def test_random_sweep_across_many_batches_equals_the_naive_funnel(monkeypatch):
    # A budget of four six-vertex matrices flushes about every four admitted
    # graphs, so the stream crosses dozens of batches.
    monkeypatch.setattr(spectral, "_BATCH_CELLS", 4 * 36)
    calls = _spy_on_eigh(monkeypatch)
    seed, count = 5, 3000
    records = ef.conjecture_sweep(6, 2, 4, source="random", seed=seed, count=count)
    stacked = [shape[0] for shape in calls]
    assert len(stacked) >= 20 and max(stacked) <= 4
    rng = random.Random(seed)
    masks = [rng.getrandbits(15) for _ in range(count)]
    assert records == _naive_funnel(6, 2, 4, masks)
    assert sum(stacked) >= len(records) >= 20


def test_random_sweep_memory_does_not_grow_with_the_count(monkeypatch):
    # The draws stream through the engine, which holds one batch of graphs
    # at a time: with a budget of about 28 six-vertex graphs both counts span
    # several batches, and ten times the draws (and records) stays within a
    # small factor of the peak.
    monkeypatch.setattr(spectral, "_BATCH_CELLS", 1 << 10)
    ef.lambda1(ef.complete_graph(3))
    peaks = []
    for count in (2000, 20000):
        tracemalloc.start()
        try:
            ef.conjecture_sweep(6, 2, 4, source="random", seed=3, count=count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 3 * peaks[0]


# ------------------------------------------------------ bipartite threshold

def test_bipartite_threshold_branches():
    assert ef.bipartite_threshold(2, 4, 6) == pytest.approx(math.sqrt(8), abs=1e-12)
    assert ef.bipartite_threshold(2, 4, 5) == pytest.approx(math.sqrt(6), abs=1e-12)


def test_bipartite_threshold_seam_agrees_for_equal_bounds():
    for a in (2, 4, 6):
        assert ef.bipartite_threshold(a, a, 2 * a) == pytest.approx(a, abs=1e-12)
        assert math.sqrt(a * (2 * a - a)) == pytest.approx(a, abs=1e-12)


def test_bipartite_threshold_leaves_reals_below_its_domain():
    with pytest.raises(ValueError, match="radicand"):
        ef.bipartite_threshold(3, 5, 2)


def test_observation_decide_examples():
    assert ef.observation_decide(3, 3, 2, 4)
    assert not ef.observation_decide(2, 6, 2, 2)
    assert not ef.observation_decide(1, 3, 2, 2)
    with pytest.raises(ValueError, match="x <= y"):
        ef.observation_decide(4, 2, 2, 2)


def test_spectral_bounds_refuse_non_integers_by_name(monkeypatch):
    # Each refusal comes before any work: no sweep builds a graph.
    def no_graph(*args):
        raise AssertionError("sweep built a graph")

    monkeypatch.setattr(spectral, "graph_from_mask", no_graph)
    cases = [
        (lambda: ef.rho(5, 2.0), "a must be an integer, got 2.0"),
        (lambda: ef.rho(5.5, 2), "n must be an integer, got 5.5"),
        (lambda: ef.bipartite_threshold(1.5, 2, 4), "a must be an integer, got 1.5"),
        (lambda: ef.bipartite_threshold(2, 4, 6.0), "n must be an integer, got 6.0"),
        (lambda: ef.observation_decide(1.5, 2, 1, 2), "x must be an integer, got 1.5"),
        (lambda: ef.observation_decide(2, 3, 1, 2.5), "b must be an integer, got 2.5"),
        (lambda: ef.conjecture_sweep(5, 2.0, 2), "a must be an integer, got 2.0"),
        (lambda: ef.conjecture_sweep(5, 2, "4", source="random", seed=1, count=5),
         "b must be an integer, got '4'"),
        (lambda: ef.conjecture_sweep(5, 2, 4, source="random", seed=1, count=2.5),
         "count must be an integer, got 2.5"),
        (lambda: ef.conjecture_sweep(4, 2, 2, source="random", seed=[1], count=2),
         "seed must be an integer, got [1]"),
        (lambda: ef.conjecture_sweep(4, 2, 2, source="random", seed=1.5, count=2),
         "seed must be an integer, got 1.5"),
        (lambda: ef.conjecture_sweep(4, 2, 2, source="random", seed="x", count=2),
         "seed must be an integer, got 'x'"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_observation_equivalence_on_effective_domain():
    # all three decision routes agree wherever n >= 2a (below that no split
    # can reach minimum degree a, and the closed form says so)
    for n in range(2, 15):
        for x in range(1, n // 2 + 1):
            y = n - x
            g = ef.complete_bipartite(x, y)
            lam = ef.lambda1(g).lambda1
            for a, b in [(2, 2), (2, 4), (3, 5), (4, 4)]:
                if n < 2 * a:
                    continue
                closed = ef.observation_decide(x, y, a, b)
                searched = ef.find_ab_factor(g, a, b) is not None
                cls = ef.classify_threshold(lam, ef.bipartite_threshold(a, b, n))
                assert closed == searched
                if cls != "boundary":
                    assert (cls == "above") == closed


# ---------------------------------------------------------------------- rho

def test_rho_reference_value():
    # largest root of x^3 - 2x^2 - 4x + 2, cross-checked against numpy.roots
    assert ef.rho(5, 2) == pytest.approx(3.0861301976514945, abs=1e-9)
    assert 3 < ef.rho(5, 2) < 3.2


def test_rho_isolated_vertex_case_is_exact():
    # a=1 leaves the low vertex isolated: the cubic factors with root n-2
    assert ef.rho(6, 1) == pytest.approx(4, abs=1e-10)


def test_rho_near_complete_case():
    # a = n-1 gives a clique missing one edge
    assert ef.rho(5, 4) == pytest.approx(1 + math.sqrt(7), abs=1e-9)


def test_rho_below_clique_eigenvalue():
    for n in range(5, 16):
        for a in range(1, n - 1):
            if (a * n) % 2:
                continue
            assert ef.rho(n, a) < n - 1
    assert ef.rho(6, 4) < 5


def test_rho_validates_input():
    with pytest.raises(ValueError, match="a\\*n even"):
        ef.rho(5, 3)
    with pytest.raises(ValueError, match="n >= a\\+1"):
        ef.rho(4, 4)


def test_rho_tangent_case_is_the_double_root():
    # the cubic is x^2(x+1): no sign change at its largest root 0
    assert ef.rho(2, 1) == 0


def test_rho_is_the_largest_real_root_of_the_cubic():
    x = sympy.Symbol("x")
    for n in range(2, 21):
        for a in range(1, n):
            if (a * n) % 2:
                continue
            cubic = x**3 - (n - 3) * x**2 - (a + n - 3) * x - a * a + (a - 1) * n + 1
            root = max(sympy.Poly(cubic, x).real_roots())
            assert ef.rho(n, a) == pytest.approx(float(root), abs=1e-9), (n, a)


def test_rho_ends_where_floats_are_coarser_than_its_tolerance():
    # From rho = 8192 on, adjacent floats lie more than DEFAULT_ROOT_TOL
    # apart, so the bisection must end when its midpoint rounds to an end;
    # a CPU timer turns a bisection that never ends into a failure.
    def out_of_time(*args):
        raise TimeoutError("rho took more than 2 s of CPU")

    previous = signal.signal(signal.SIGVTALRM, out_of_time)
    signal.setitimer(signal.ITIMER_VIRTUAL, 2.0)
    try:
        got = {(n, a): ef.rho(n, a)
               for n, a in [(8194, 2), (8194, 4), (9000, 2), (10**6, 2)]}
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)
    x = sympy.Symbol("x")
    for (n, a), value in got.items():
        cubic = x**3 - (n - 3) * x**2 - (a + n - 3) * x - a * a + (a - 1) * n + 1
        root = float(max(sympy.Poly(cubic, x).real_roots()))
        assert abs(value - root) <= math.ulp(root), (n, a)


def test_rho_matches_lambda1_spot_checks():
    for n, a in [(6, 2), (8, 4), (10, 5), (12, 7)]:
        assert abs(ef.lambda1(ef.h_na(n, a)).lambda1 - ef.rho(n, a)) <= 1e-8


# ------------------------------------------------------------------- sweeps

@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return ef.build_graph(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_lambda1_obeys_the_edge_count_bound(g):
    # Stanley's bound, which lets the sweep skip masks with too few edges
    assert ef.lambda1(g).lambda1 <= (-1 + math.sqrt(1 + 8 * g.m)) / 2 + 1e-12


def _naive_funnel(n, a, b, masks):
    """Every mask built as a Graph and examined with public calls only."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rho = ef.rho(n, a)
    records = []
    for mask in masks:
        g = ef.build_graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
        lam = ef.lambda1(g).lambda1
        cls = ef.classify_threshold(lam, rho)
        if cls == "below":
            continue
        verdict = None
        if cls == "above":
            verdict = "present" if ef.find_ab_factor(g, a, b) is not None else "absent"
        records.append(ef.SweepRecord(
            n, a, b, mask, tuple(g.sorted_edges()), lam, rho,
            "candidate" if cls == "above" else "boundary", verdict))
    return records


def _naive_sweep(n, a, b):
    """Every mask in increasing order, kept when its degrees are sorted."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def degrees_sorted(mask):
        degs = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                degs[u] += 1
                degs[v] += 1
        return all(degs[i] >= degs[i + 1] for i in range(n - 1))

    return _naive_funnel(n, a, b, filter(degrees_sorted, range(1 << len(pairs))))


def test_sweep_equals_the_naive_funnel():
    for n in range(2, 7):
        for a in range(1, n):
            if (a * n) % 2:
                continue
            for b in range(a, n):
                assert ef.conjecture_sweep(n, a, b) == _naive_sweep(n, a, b), (n, a, b)


@pytest.mark.parametrize("n, a, b, seed, count", [
    (5, 2, 2, 9, 600), (6, 2, 4, 5, 1000), (6, 1, 3, 11, 1000), (7, 2, 4, 7, 4000)])
def test_random_sweep_equals_the_naive_funnel_on_its_draws(n, a, b, seed, count):
    # The same Mersenne-Twister draws, every one built: the edge-count skip
    # drops only masks whose records would be 'below'.
    rng = random.Random(seed)
    masks = [rng.getrandbits(n * (n - 1) // 2) for _ in range(count)]
    records = ef.conjecture_sweep(n, a, b, source="random", seed=seed, count=count)
    assert records == _naive_funnel(n, a, b, masks)
    assert len(records) >= 5


# Pinned at the commit whose sweep walked every mask in increasing order:
# (n, a, b): (records, candidates, boundary), sum of the record masks, and the
# boundary record's mask.
SWEEP_PINS = {
    (7, 2, 4): ((34, 33, 1), 42763422, 375807),
    (8, 2, 4): ((121, 120, 1), 18861007495, 48099327),
    (8, 4, 4): ((32, 31, 1), 5408841696, 48234495),
}


@pytest.mark.parametrize("nab", sorted(SWEEP_PINS), ids="n{0[0]}-a{0[1]}-b{0[2]}".format)
def test_sweep_above_the_naive_funnel_matches_its_pins(nab):
    counts, mask_sum, boundary_mask = SWEEP_PINS[nab]
    records = ef.conjecture_sweep(*nab)
    summary = ef.sweep_summary(records)
    assert (summary["records"], summary["candidates"], summary["boundary"]) == counts
    assert summary["present"] == summary["candidates"] and summary["absent"] == 0
    masks = [r.mask for r in records]
    assert all(x < y for x, y in zip(masks, masks[1:]))
    assert sum(masks) == mask_sum
    boundary = [r.mask for r in records if r.classification == "boundary"]
    assert boundary == [boundary_mask]


def _min_edges_by_steps(rho_value):
    """The least m whose Stanley bound reaches rho - 2 * guard, one m at a time."""
    m = 0
    while (math.sqrt(1 + 8 * m) - 1) / 2 < rho_value - 2 * spectral.THRESHOLD_GUARD:
        m += 1
    return m


def test_min_edges_matches_the_stepping_loop():
    cases = [(n, a) for n in range(2, 60) for a in range(1, n) if a * n % 2 == 0]
    cases += [(n, a) for n in (100, 250, 1000) for a in (1, 2, 4, 10, n // 2, n - 2)
              if a * n % 2 == 0]
    assert len(cases) > 800
    for n, a in cases:
        r = ef.rho(n, a)
        assert spectral._min_edges(r) == _min_edges_by_steps(r), (n, a)


def test_sweep_exhaustive_small_clean():
    records = ef.conjecture_sweep(4, 2, 2, source="exhaustive")
    summary = ef.sweep_summary(records)
    assert summary["absent"] == 0
    assert summary["present"] == summary["candidates"]
    for rec in records:
        if rec.classification == "candidate":
            assert rec.lambda1 > rec.rho + 1e-9


def test_sweep_extremal_graph_sits_on_the_boundary():
    lam = ef.lambda1(ef.h_na(5, 2)).lambda1
    assert ef.classify_threshold(lam, ef.rho(5, 2)) == "boundary"


def test_sweep_includes_clique_as_present():
    records = ef.conjecture_sweep(5, 2, 2, source="exhaustive")
    clique_mask = (1 << 10) - 1
    by_mask = {r.mask: r for r in records}
    assert by_mask[clique_mask].verdict == "present"


def test_sweep_random_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        ef.conjecture_sweep(5, 2, 2, source="random")
    with pytest.raises(ValueError, match="count must be nonnegative"):
        ef.conjecture_sweep(5, 2, 2, source="random", seed=9, count=-1)
    assert ef.conjecture_sweep(5, 2, 2, source="random", seed=9, count=0) == []
    records = ef.conjecture_sweep(5, 2, 2, source="random", seed=9, count=64)
    assert ef.sweep_summary(records)["absent"] == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 5, "count": 3}, "takes no seed or count; got seed=5, count=3"),
    ({"seed": 0}, "takes no seed; got seed=0"),
    ({"count": 0}, "takes no count; got count=0"),
])
def test_sweep_exhaustive_rejects_seed_and_count(kwargs, message):
    # both flags used to be dropped without a word
    with pytest.raises(ValueError) as err:
        ef.conjecture_sweep(5, 2, 2, source="exhaustive", **kwargs)
    assert str(err.value) == f"exhaustive sweep {message}"


def test_sweep_random_rejects_jobs():
    with pytest.raises(ValueError, match="jobs must be 1"):
        ef.conjecture_sweep(5, 2, 2, source="random", seed=9, count=8, jobs=2)


@pytest.mark.parametrize("jobs", [2, 0, -1])
def test_sweep_exhaustive_rejects_jobs_other_than_one(jobs):
    with pytest.raises(ValueError, match="jobs must be 1"):
        ef.conjecture_sweep(4, 2, 2, source="exhaustive", jobs=jobs)


def test_sweep_random_is_reproducible():
    one = ef.conjecture_sweep(6, 2, 2, source="random", seed=13, count=40)
    two = ef.conjecture_sweep(6, 2, 2, source="random", seed=13, count=40)
    assert one == two


def test_sweep_exhaustive_memory_stays_small():
    # The masks are generated one at a time from combinations of missing
    # pairs: a list of all 2^15 masks at n = 6 alone would peak above 1 MB
    # (and the 10.7M masks walked at n = 9 about 430 MB).
    tracemalloc.start()
    try:
        ef.conjecture_sweep(6, 2, 4, source="exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sweep_exhaustive_cap():
    assert spectral.SWEEP_EXHAUSTIVE_CAP == 9
    with pytest.raises(ef.ScaleError):
        ef.conjecture_sweep(10, 2, 2, source="exhaustive")


def test_sweep_random_cap_refuses_before_building_anything():
    # one more vertex than the cap: the pair list alone would hold about
    # 500k tuples, so a refusal that allocates almost nothing came first
    n = spectral.SWEEP_RANDOM_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(ef.ScaleError, match=f"n <= {spectral.SWEEP_RANDOM_CAP}"):
            ef.conjecture_sweep(n, 2, 4, source="random", seed=1, count=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_sweep_record_serialization():
    records = ef.conjecture_sweep(4, 2, 2, source="exhaustive")
    payload = ef.to_json(records[0])
    assert set(payload) == {"n", "a", "b", "mask", "edges", "lambda1", "rho",
                            "classification", "verdict"}
