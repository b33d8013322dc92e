"""Property test of the CLI contract: any edge-list file, factor file and flag
values give an exit code in 0..4 and never an exception.

Sizes stay small so that no example can allocate or run for long: graphs
have at most 12 vertices, integer flags are at most 20, exhaustive sweeps
stop at n = 6, and ``repro`` runs a single claim.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from evenfactor.claims import CLAIMS
from evenfactor.cli import FAMILIES, main

# small values are drawn as often as the whole range, so that flags are valid
# often enough to reach the commands behind them
INTS = st.integers(0, 6) | st.integers(-3, 20)
PAIRS = st.sampled_from([(2, 2), (2, 4), (4, 4), (4, 6), (1, 3)]) \
    | st.tuples(INTS, INTS)
PRESENT = st.sampled_from([True] * 15 + [False])
# no 'h', so no token can spell or abbreviate --help
GARBAGE = st.text(alphabet="-0123456789abxyz=.", max_size=6)


MOSTLY = st.sampled_from([False, False, False, True])

JSON_LEAVES = st.none() | st.booleans() | st.integers(-2, 13) | \
    st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["edges", "x"]), kids, max_size=2),
    max_leaves=10)


@st.composite
def files(draw) -> tuple[bytes, bytes]:
    """An edge-list file and a factor file, the latter often a subset of the
    former's edges."""
    edges: list[tuple[int, int]] = []
    kind = draw(st.sampled_from(["edges"] * 4 + ["tokens", "bytes"]))
    if kind == "edges":
        n = draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
        if draw(MOSTLY):
            # a self-loop or an out-of-range id
            bad = st.integers(-1, n)
            edges.append(draw(st.tuples(bad, bad).filter(
                lambda e: e[0] == e[1] or not all(0 <= v < n for v in e))))
        m = len(edges) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        graph = (f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)).encode()
    elif kind == "tokens":
        # every integer token is at most 12, and separators keep them apart
        tokens = st.sampled_from(["0", "1", "2", "3", "12", "-1", "1.5", "x",
                                  "#", "", "\x00", "é"])
        seps = st.sampled_from([" ", "\n", "\t", "\r\n"])
        parts = draw(st.lists(st.tuples(tokens, seps), max_size=12))
        graph = "".join(t + s for t, s in parts).encode()
    else:
        graph = draw(st.sampled_from([b"", b"\xff\xfe", b"2 1\n0 \x80\n"]))

    kind = draw(st.sampled_from(["edges"] * 4 + ["json", "text"]))
    if kind == "edges":
        chosen = [list(e) for e in edges if draw(st.booleans())]
        if draw(MOSTLY):
            chosen.append(draw(st.lists(st.integers(-1, 12), min_size=2, max_size=2)))
        factor = json.dumps({"edges": chosen}).encode()
    elif kind == "json":
        factor = json.dumps(draw(JSON_VALUES)).encode()
    else:
        factor = draw(st.text(max_size=10)).encode("utf-8", "surrogatepass")
    return graph, factor


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from([
        "construct", "check-conditions", "criterion", "find-factor", "verify",
        "spectral", "sweep", "repro"]))
    argv = [command]

    def flag(name, values=INTS, present=PRESENT):
        if draw(present):
            argv.extend([f"--{name}", str(draw(values))])

    def pair():
        a, b = draw(PAIRS)
        for name, value in (("a", a), ("b", b)):
            if draw(PRESENT):
                argv.extend([f"--{name}", str(value)])

    if command == "construct":
        family = draw(st.sampled_from(sorted(FAMILIES) + ["petersen"]))
        argv.append(family)
        needed = FAMILIES[family][0] if family in FAMILIES else ()
        for name in ("a", "b", "t", "n", "x", "y"):
            if draw(PRESENT if name in needed else st.booleans()):
                argv.extend([f"--{name}", str(draw(INTS))])
        if draw(st.booleans()):
            argv.extend(["--out", "out.edges"])
        if draw(st.booleans()):
            argv.extend(["--dot", "out.dot"])
    elif command == "repro":
        argv.extend(["--claim", draw(st.sampled_from(sorted(CLAIMS) + ["nope"]))])
    elif command == "sweep":
        exhaustive = draw(st.booleans())
        top = 6 if exhaustive else 12
        flag("n", st.integers(2, top) | st.integers(-3, top))
        pair()
        argv.append("--exhaustive" if exhaustive else "--random")
        flag("count")
        flag("seed")
        flag("jobs", st.sampled_from([1, 2]) | INTS)
    else:
        argv.extend(["--graph", "g.edges"])
        if command == "verify":
            argv.extend(["--factor", "factor.json"])
        if command != "spectral":
            pair()
        if command == "criterion":
            flag("max-n", present=st.booleans())
        if command == "check-conditions":
            argv.extend(draw(st.sampled_from(
                [["--theorem"], ["--conjecture"], [], ["--theorem", "--conjecture"]])))
        if command in ("find-factor", "verify") and draw(st.booleans()):
            argv.append("--even")
    if draw(st.sampled_from([False, False, False, True])):
        argv.append(draw(GARBAGE))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(files=files(), argv=argvs())
def test_main_returns_an_exit_code_and_never_raises(files, argv):
    graph, factor = files
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("g.edges", "wb") as fh:
                fh.write(graph)
            with open("factor.json", "wb") as fh:
                fh.write(factor)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert type(code) is int and code in {0, 1, 2, 3, 4}
    if code >= 2:
        assert set(json.loads(out.getvalue())) == {"error", "kind"}
