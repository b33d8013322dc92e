"""The benchmark's traced rebuild keeps working against the library.

``bench/run.py --trace 1`` rebuilds operations from library calls
(``loop_augment``, ``tutte_gadget``, ``max_matching``, ``graph_from_mask``)
and counts what they build.  One pass of each workload below must check
correct and reproduce the pinned counters.  The run writes its spans only
into the git-ignored ``.bench_trace/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "factor": {
        "search.gadget_nodes": 5744,
        "search.gadget_edges": 65083,
        "search.matched_pairs": 2868,
        "search.example1_4_12_9.gadget_nodes": 236,
        "search.example1_4_12_9.gadget_edges": 769,
        "search.example2_4_24_6.gadget_nodes": 228,
        "search.example2_4_24_6.gadget_edges": 375,
    },
    "sweep": {"spectral.records": 20},
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traced_bench_pass_matches_its_pins(workload):
    # --seconds 0 runs exactly one pass, untraced then traced
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: values[name] for name in PINNED[workload]} == PINNED[workload]
