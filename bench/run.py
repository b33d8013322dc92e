"""Benchmark entry point for the evenfactor library.

    python3 bench/run.py --workload factor --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  One process, one closed-loop caller, no extra threads.  The
run builds the workload's instances from the seed, repeats passes over them
for about ``--seconds`` (a started pass always completes), checks
every answer outside the timed region, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are CPU seconds over those of a fixed reference kernel run around
them (``reference_s``), which takes out the drift of a shared host's speed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced passes with passes rebuilt from public calls under spans,
reports the per-layer metrics (per traced pass) and writes the spans to
``.bench_trace/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REFERENCE_LOOPS = 20_000
#: Seconds one reference kernel run is taken to last when setup_s, which must
#: be in seconds, converts from reference units (about its time on the 2-CPU
#: box the benchmark was written on).
REFERENCE_NOMINAL_S = 0.010
MAX_PROBLEMS_SHOWN = 5
DEFAULT_SEED = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("factor", "criterion", "sweep", "repro"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library() -> None:
    """Import evenfactor from this checkout's src/, or exit without a result."""
    if not (SRC / "evenfactor" / "__init__.py").is_file():
        sys.exit(f"bench: no evenfactor package under {SRC}")
    sys.path.insert(0, str(SRC))
    import evenfactor
    if Path(evenfactor.__file__).resolve().parent != SRC / "evenfactor":
        sys.exit(f"bench: imported evenfactor from {evenfactor.__file__}, not {SRC}")


def fresh_import_ref() -> float:
    """Reference units a fresh interpreter takes to import evenfactor, as a
    user of the CLI pays it; one child process, waited for."""
    probe = ("import time; from run import reference_s; r = reference_s(); "
             "t = time.process_time(); import evenfactor; "
             "t = time.process_time() - t; print(2 * t / (r + reference_s()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are at most ten samples."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def attempt(fn, *args):
    """(fn(*args), None), or (None, error text) when it raises: a failed
    operation or check is counted, not fatal."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def ratio(num, den):
    return num / den if den else 0.0


def reference_s(loops: int = REFERENCE_LOOPS) -> float:
    """CPU seconds of a fixed pure-Python kernel (integer, bit, dict and list
    work, like the library's own loops) that uses nothing from the library.

    A shared host's speed drifts by a third within seconds.  Timing this
    kernel just before and just after a piece of work gives the speed the
    work ran at; the work's CPU time over the kernel's is in reference units
    (ref), which the drift leaves nearly unchanged."""
    start = process_time()
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    acc = 0
    for i in range(loops):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x << (i & 7)
        table[x & 1023] = acc
        items.append((x, acc & 255))
        if len(items) > 64:
            items.clear()
    return process_time() - start


def in_reference_units(fn, *args):
    """(fn(*args), its CPU time in reference units)."""
    before = reference_s()
    start = process_time()
    result = fn(*args)
    cpu = process_time() - start
    return result, 2.0 * cpu / (before + reference_s())


class Run:
    """One benchmark run: passes over the instances until the deadline."""

    def __init__(self, workload, instances, tracer=None):
        self.workload = workload
        self.instances = instances
        self.tracer = tracer
        self.op_s: list[list[float]] = [[] for _ in instances]
        self.op_ref: list[list[float]] = [[] for _ in instances]
        self.traced_s: list[list[float]] = [[] for _ in instances]
        self.reference_s: list[float] = []
        self.passes = 0
        self.attempted = 0
        self.problems: list[str] = []

    def one_pass(self) -> None:
        """Each operation's wall time, and its CPU time over the mean of the
        reference kernel's CPU time just before and just after it."""
        wl = self.workload
        untraced = []
        before = reference_s()
        self.reference_s.append(before)
        for inst, times, rel in zip(self.instances, self.op_s, self.op_ref):
            self.attempted += 1
            start, start_cpu = perf_counter(), process_time()
            result, problem = attempt(wl.run, inst)
            cpu = process_time() - start_cpu
            times.append(perf_counter() - start)
            after = reference_s()
            self.reference_s.append(after)
            rel.append(2.0 * cpu / (before + after))
            before = after
            if problem is None:
                problem, error = attempt(wl.check, inst, result)
                problem = problem or error
            untraced.append((result, problem))
        self.passes += 1
        for inst, (expected, problem), times in zip(self.instances, untraced,
                                                     self.traced_s):
            if self.tracer is not None:
                out, error = attempt(self.tracer.op, wl.traced, inst, self.tracer)
                if error is not None:
                    problem = problem or f"traced: {error}"
                else:
                    result, seconds = out
                    times.append(seconds)
                    if problem is None and result != expected:
                        problem = "traced rebuild differs from the untraced result"
            if problem is not None:
                self.problems.append(f"{getattr(inst, 'label', inst)}: {problem}")

    def until(self, deadline: float) -> None:
        """Run passes until the deadline; start one more only while at least
        half of the last pass's time remains, so a run ends near it."""
        while True:
            start = perf_counter()
            self.one_pass()
            now = perf_counter()
            if now + (now - start) / 2 >= deadline:
                return


def best_pass_s(per_instance: list[list[float]]) -> float:
    """A pass's time from each instance's fastest operation in the run."""
    return sum(min(times) for times in per_instance if times)


def end_to_end(run: Run, setup_s: float) -> dict:
    op_ref = [statistics.median(rel) for rel in run.op_ref]
    return {
        "setup_s": setup_s,
        "pass_ref": sum(op_ref),
        "op_gmean_ref": statistics.geometric_mean(op_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    values = {f"{name}.self_s": s / run.passes for name, s in tr.self_s.items()}
    values.update({name: c / run.passes for name, c in tr.counts.items()})
    c = tr.counts
    values["search.present_ratio"] = ratio(c["search.present"], c["search.factors"])
    values["criteria.holds_ratio"] = ratio(c["criteria.holds"], c["criteria.calls"])
    values["criteria.splits_per_s"] = ratio(
        c["criteria.splits_bound"], tr.self_s["criteria.criterion_decide"])
    values["spectral.record_ratio"] = ratio(
        c["spectral.records"], c["spectral.degree_sorted"])
    values["trace.coverage"] = tr.coverage()
    values["trace.overhead_ratio"] = ratio(best_pass_s(run.traced_s),
                                           best_pass_s(run.op_s))
    return values


def describe(name, run: Run, import_reps, build_reps) -> None:
    """Detail lines: medians with quartiles and sample counts of the set-up
    steps, the wall-clock passes and operations with the raw latency tail, the
    reference kernel and the normalised passes, and the failure ratio."""
    def q(values):
        q1, q2, q3 = quartiles(values)
        return f"median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"

    raw_ms = [s * 1000.0 for times in run.op_s for s in times]
    pass_s = [sum(p) for p in zip(*run.op_s)]
    tail_ms, pct = tail(raw_ms)
    failed = len(run.problems)
    print(f"# {name}: import_ref {q(import_reps)}; build_ref {q(build_reps)}")
    print(f"# untraced pass_s {q(pass_s)}; best-of-run pass {best_pass_s(run.op_s):.6g}")
    print(f"# op_ms {q(raw_ms)}; tail p{pct:.1f} = {tail_ms:.6g}")
    ref_pass = [sum(p) for p in zip(*run.op_ref)]
    print(f"# reference_ms {q([s * 1000.0 for s in run.reference_s])}")
    print(f"# pass_ref {q(ref_pass)}")
    if run.tracer is not None:
        traced = [sum(p) for p in zip(*run.traced_s)]
        print(f"# traced pass_s {q(traced)}; best-of-run pass {best_pass_s(run.traced_s):.6g}")
    print(f"# fail_ratio {failed}/{run.attempted} = {failed / run.attempted:.6g}")
    for problem in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_library()
    import workloads
    from spans import Tracer

    unknown = [m["name"] for m in spec["per_layer"]
               if not m["name"].endswith(".self_s") and m["name"] not in workloads.COUNTERS]
    if unknown:
        sys.exit(f"bench: BENCHMARK.json names unknown per-layer metrics {unknown}")

    workload = workloads.WORKLOADS[args.workload]()
    import_reps = [fresh_import_ref() for _ in range(SETUP_REPEATS)]
    build_reps = []
    for _ in range(SETUP_REPEATS):
        instances, units = in_reference_units(workload.instances, args.seed)
        build_reps.append(units)
    setup_s = REFERENCE_NOMINAL_S * (statistics.median(import_reps)
                                     + statistics.median(build_reps))

    tracer = Tracer() if args.trace else None
    run = Run(workload, instances, tracer)
    run.until(perf_counter() + args.seconds)

    describe(args.workload, run, import_reps, build_reps)
    if tracer is None:
        values, wanted = end_to_end(run, setup_s), spec["end_to_end"]
    else:
        values, wanted = per_layer(run), spec["per_layer"]
        tracer.write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": len(run.problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
