"""The four benchmark workloads.

Each workload builds its instances from the seed (set-up), runs one operation
per instance through the library's public API (timed), checks every answer
against an oracle of its own (untimed), and can rebuild the operation from
public calls under tracer spans, so that the traced result can be compared
with the untraced one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from evenfactor import claims, constructions, criteria, formats, search, spectral
from evenfactor.graph import build_graph

from spans import Patched, Tracer


def factor_problem(g, factor, a: int, b: int, even: bool) -> str | None:
    """Naive factor check, independent of ``search.verify_factor``: every
    edge is a host edge, every degree lies in [a, b] (and is even)."""
    degs = [0] * g.n
    for u, v in factor.edges:
        if (min(u, v), max(u, v)) not in g.edges:
            return f"edge {(u, v)} is not a host edge"
        degs[u] += 1
        degs[v] += 1
    if tuple(degs) != tuple(factor.degrees):
        return "factor degree vector does not match its edges"
    for v, d in enumerate(degs):
        if not a <= d <= b or (even and d % 2):
            return f"vertex {v} has factor degree {d} outside [{a},{b}]"
    return None


def _gnp(rng: random.Random, n: int, p: float):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


@dataclass(frozen=True)
class FactorInstance:
    label: str
    text: str
    a: int
    b: int
    present: bool  # expected answer
    frozen: bool   # same instance for every seed


class FactorWorkload:
    """Parse edge-list text, then decide an even [a,b]-factor."""

    # The sharp families have no even [a,b]-factor (the paper's examples).
    FAMILIES = (("example1", (4, 12, 9), 4, 12), ("example1", (6, 18, 14), 6, 18),
                ("example2", (4, 24, 6), 4, 24), ("example2", (4, 24, 8), 4, 24))
    COMPLETE = ((24, 2, 22), (30, 2, 2), (30, 2, 28))
    DIRAC_ORDERS = range(20, 31)
    DIRAC_P = 0.75
    MAX_DRAWS = 1000

    def instances(self, seed: int) -> list[FactorInstance]:
        out = []
        for family, params, a, b in self.FAMILIES:
            g = getattr(constructions, family)(*params)
            label = f"{family}_{'_'.join(map(str, params))}"
            out.append(FactorInstance(label, formats.to_edge_list_text(g), a, b,
                                      False, True))
        for n, a, b in self.COMPLETE:
            g = constructions.complete_graph(n)
            out.append(FactorInstance(f"K{n}_{a}_{b}", formats.to_edge_list_text(g),
                                      a, b, True, True))
        # Minimum degree >= n/2 gives a Hamiltonian cycle (Dirac), hence an
        # even [2,b]-factor for every even b >= 2.  b takes low, middle and
        # high values of [2, n/2], which lies inside [2, delta]; taking b from
        # n rather than from the drawn graph's delta halves the spread of the
        # pass cost over seeds.
        rng = random.Random(seed)
        for i, n in enumerate(self.DIRAC_ORDERS):
            for _ in range(self.MAX_DRAWS):
                g = _gnp(rng, n, self.DIRAC_P)
                if 2 * min(g.degrees) >= n:
                    break
            else:
                raise RuntimeError(f"no G({n},{self.DIRAC_P}) with min degree >= n/2")
            top = n // 4 - 1
            b = 2 + 2 * ((i % 3) * top // 2)
            out.append(FactorInstance(f"dirac{n}_2_{b}", formats.to_edge_list_text(g),
                                      2, b, True, False))
        return out

    def run(self, inst: FactorInstance):
        g = formats.from_edge_list_text(inst.text)
        return g, search.find_even_factor(g, inst.a, inst.b)

    def check(self, inst: FactorInstance, result) -> str | None:
        g, factor = result
        if factor is None:
            return "expected an even factor, got none" if inst.present else None
        if not inst.present:
            return "expected no even factor, got one"
        return factor_problem(g, factor, inst.a, inst.b, even=True)

    def traced(self, inst: FactorInstance, tr: Tracer):
        """``find_even_factor`` rebuilt stage by stage."""
        a, b = inst.a, inst.b
        g = tr.call("formats.from_edge_list_text", formats.from_edge_list_text, inst.text)
        tr.counts["search.factors"] += 1
        if min(g.degrees) < a:
            return g, None
        mg = tr.call("search.loop_augment", search.loop_augment, g, a, b)
        gadget = tr.call("search.tutte_gadget", search.tutte_gadget, mg, b)
        matching = tr.call("search.max_matching", search.max_matching, gadget)
        if inst.frozen:
            tr.counts["search.gadget_nodes"] += gadget.n_nodes
            tr.counts["search.gadget_edges"] += len(gadget.edges)
            tr.counts["search.matched_pairs"] += len(matching)
            if inst.label in ("example1_4_12_9", "example2_4_24_6"):
                tr.counts[f"search.{inst.label}.gadget_nodes"] += gadget.n_nodes
                tr.counts[f"search.{inst.label}.gadget_edges"] += len(gadget.edges)
        tr.begin("search.decode")
        factor = None
        if search.is_perfect(gadget, matching):
            chosen = [info[1] for e in matching
                      for info in (gadget.decode.get(e),)
                      if info is not None and info[0] == "edge"]
            factor = search.Factor.from_edges(g, chosen)
        tr.end()
        if factor is not None:
            tr.counts["search.present"] += 1
            if not tr.call("search.verify_factor", search.verify_factor,
                           g, factor, a, b, True):
                raise RuntimeError("decoded factor failed verification")
        return g, factor


@dataclass(frozen=True)
class CriterionInstance:
    label: str
    graph: object
    a: int
    b: int


class CriterionWorkload:
    """Exhaustive deficiency criterion over all disjoint (S, T)."""

    ORDERS = (10, 11, 12)
    DENSITIES = (0.25, 0.5, 0.8)
    PAIRS = ((2, 2), (2, 4), (4, 6))

    def instances(self, seed: int) -> list[CriterionInstance]:
        rng = random.Random(seed)
        out = []
        # Latin square: every order and every density meets every (a, b).
        for i, n in enumerate(self.ORDERS):
            for j, p in enumerate(self.DENSITIES):
                a, b = self.PAIRS[(i + j) % 3]
                out.append(CriterionInstance(f"G({n},{p})_{a}_{b}", _gnp(rng, n, p), a, b))
        out.append(CriterionInstance("C12_2_2", constructions.cycle_graph(12), 2, 2))
        return out

    def run(self, inst: CriterionInstance):
        return criteria.criterion_decide(inst.graph, inst.a, inst.b)

    def check(self, inst: CriterionInstance, result) -> str | None:
        g, a, b = inst.graph, inst.a, inst.b
        holds, witness = result
        if holds:
            # Sufficiency: the criterion holding means a factor exists.
            factor = search.find_even_factor(g, a, b)
            if factor is None:
                return "criterion holds but find_even_factor found no factor"
            return factor_problem(g, factor, a, b, even=True)
        if witness is None or witness.value <= 0:
            return "criterion fails without a positive witness"
        if set(witness.S) & set(witness.T):
            return "witness S and T overlap"
        value = criteria.even_factor_deficiency(g, a, b, witness.S, witness.T)
        if value != witness.value:
            return f"witness value {witness.value} but deficiency {value}"
        return None

    def traced(self, inst: CriterionInstance, tr: Tracer):
        result = tr.call("criteria.criterion_decide", criteria.criterion_decide,
                         inst.graph, inst.a, inst.b)
        tr.counts["criteria.calls"] += 1
        tr.counts["criteria.holds"] += result[0]
        tr.counts["criteria.splits_bound"] += 3 ** inst.graph.n
        return result


class SweepWorkload:
    """Exhaustive eigenvalue-conjecture sweep at n = 6."""

    N = 6
    PAIRS = ((2, 4), (4, 4))

    def instances(self, seed: int) -> list[tuple[int, int, int]]:
        return [(self.N, a, b) for a, b in self.PAIRS]

    def run(self, inst):
        n, a, b = inst
        return spectral.conjecture_sweep(n, a, b, source="exhaustive", jobs=1)

    def check(self, inst, records) -> str | None:
        n, a, b = inst
        summary = spectral.sweep_summary(records)
        if summary["absent"] or summary["budget_exhausted"]:
            return f"sweep verdicts {summary}"
        for rec in records:
            if rec.verdict == "present":
                g = build_graph(n, rec.edges)
                factor = search.find_ab_factor(g, a, b)
                if factor is None:
                    return f"mask {rec.mask}: 'present' but no factor found"
                problem = factor_problem(g, factor, a, b, even=False)
                if problem:
                    return f"mask {rec.mask}: {problem}"
        return None

    def traced(self, inst, tr: Tracer):
        """``conjecture_sweep`` rebuilt as its funnel: build, degree-sorted
        filter, eigenvalue, threshold, factor verdict."""
        n, a, b = inst
        rho_value = spectral.rho(n, a)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        records = []
        counts = tr.counts
        for mask in range(1 << len(pairs)):
            g = tr.call("spectral.graph_from_mask", spectral.graph_from_mask, n, mask, pairs)
            tr.begin("graph.degrees")
            degs = g.degrees
            degree_sorted = all(degs[i] >= degs[i + 1] for i in range(n - 1))
            tr.end()
            counts["spectral.masks"] += 1
            if not degree_sorted:
                continue
            counts["spectral.degree_sorted"] += 1
            spec = tr.call("spectral.lambda1", spectral.lambda1, g)
            counts["spectral.power_iterations"] += spec.iterations
            cls = tr.call("spectral.classify_threshold", spectral.classify_threshold,
                          spec.lambda1, rho_value)
            if cls == "below":
                continue
            verdict = None
            if cls == "above":
                counts["search.verdicts"] += 1
                factor = tr.call("search.find_ab_factor", search.find_ab_factor, g, a, b)
                verdict = "present" if factor is not None else "absent"
            records.append(spectral.SweepRecord(
                n, a, b, mask, tuple(g.sorted_edges()), spec.lambda1, rho_value,
                "candidate" if cls == "above" else "boundary", verdict))
        counts["spectral.records"] += len(records)
        return records


def _count_verdict(tr: Tracer, factor) -> None:
    tr.counts["search.verdicts"] += 1


def _count_iterations(tr: Tracer, spec) -> None:
    tr.counts["spectral.power_iterations"] += spec.iterations


class ReproWorkload:
    """Every registered claim, one claim per operation."""

    GRID = "bipartite-threshold-grid"
    # The full grid includes n < 2a, where the threshold formula and the
    # closed form disagree on exactly these many tuples (documented failure).
    GRID_MISMATCHES = 11

    # Spans around the public functions the claims call, bound in the modules
    # that look them up.  find_even_factor's self time is its decode, as its
    # other stages carry spans of their own.
    SPANNED = (
        (claims, "find_even_factor", "search.decode", None),
        (search, "loop_augment", "search.loop_augment", None),
        (search, "tutte_gadget", "search.tutte_gadget", None),
        (search, "max_matching", "search.max_matching", None),
        (search, "verify_factor", "search.verify_factor", None),
        (claims, "find_ab_factor", "search.find_ab_factor", _count_verdict),
        (spectral, "find_ab_factor", "search.find_ab_factor", _count_verdict),
        (claims, "lambda1", "spectral.lambda1", _count_iterations),
        (spectral, "lambda1", "spectral.lambda1", _count_iterations),
        (spectral, "graph_from_mask", "spectral.graph_from_mask", None),
        (claims, "even_factor_deficiency", "criteria.even_factor_deficiency", None),
        (claims, "edge_connectivity", "graph.edge_connectivity", None),
        (criteria, "edge_connectivity", "graph.edge_connectivity", None),
        (claims, "vertex_connectivity", "graph.vertex_connectivity", None),
    )

    def instances(self, seed: int) -> list[str]:
        return list(claims.CLAIMS)

    def run(self, claim_id: str):
        return claims.repro_report([claim_id])[0]

    def check(self, claim_id: str, row) -> str | None:
        if claim_id == self.GRID:
            count = row.observed["mismatch_count"]
            if row.passed or count != self.GRID_MISMATCHES:
                return f"{claim_id}: expected {self.GRID_MISMATCHES} mismatches, got {count}"
            return None
        return None if row.passed else f"{claim_id} failed: {row.observed}"

    def traced(self, claim_id: str, tr: Tracer):
        with Patched(tr, self.SPANNED):
            row = tr.call(f"claims.{claim_id}", claims.repro_report, [claim_id])[0]
        tr.counts["claims.passed"] += row.passed
        if claim_id == self.GRID:
            tr.counts["claims.grid_mismatches"] += row.observed["mismatch_count"]
        return row


WORKLOADS = {"factor": FactorWorkload, "criterion": CriterionWorkload,
             "sweep": SweepWorkload, "repro": ReproWorkload}

#: Per-layer metrics that are not span self times: counts per traced pass,
#: and the ratios run.py derives from them.
COUNTERS = frozenset((
    "search.gadget_nodes", "search.gadget_edges", "search.matched_pairs",
    "search.example1_4_12_9.gadget_nodes", "search.example1_4_12_9.gadget_edges",
    "search.example2_4_24_6.gadget_nodes", "search.example2_4_24_6.gadget_edges",
    "search.present_ratio", "search.verdicts",
    "criteria.splits_bound", "criteria.splits_per_s", "criteria.holds_ratio",
    "spectral.masks", "spectral.degree_sorted", "spectral.records",
    "spectral.record_ratio", "spectral.power_iterations",
    "claims.passed", "claims.grid_mismatches",
    "trace.coverage", "trace.overhead_ratio",
))
