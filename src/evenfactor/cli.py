"""Command-line surface: construct, check, decide, search, sweep, repro.

Exit codes: 0 = decided/constructed affirmatively; 1 = the decision is
"absent"/"fails" (a successful run, distinguished for scripting); 2 = usage
error, malformed or unknown options included; 3 = scale cap hit; 4 = internal
error: any other exception, such as a found factor failing its
re-verification or a bug.  Output is JSON on stdout with a full parameter
echo, and every failure is a JSON object with ``error`` and ``kind``, never a
traceback; reruns are byte-identical except for the timestamp field.  Only
``--help`` prints plain text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import ScaleError
from .formats import from_edge_list_text, to_dot, to_edge_list_text, to_json
from .graph import Graph, degree_profile, sigma2, edge_connectivity, \
    vertex_connectivity
from .criteria import criterion_decide, main_theorem_conditions, \
    conjecture_conditions
from .constructions import complete_bipartite, example1, example2, h_na
from .search import Factor, find_ab_factor, find_even_factor, verify_factor
from .spectral import conjecture_sweep, lambda1, sweep_summary
from .claims import repro_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_edge_list_text(fh.read())


def _envelope(command: str, params: dict, result: dict) -> dict:
    return {
        "tool": "evenfactor",
        "version": __version__,
        "command": command,
        "params": params,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "result": result,
    }


def _emit(payload: dict, compact: bool = False) -> None:
    if compact:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


FAMILIES = {
    "example1": (("a", "b", "t"), lambda ns: example1(ns.a, ns.b, ns.t)),
    "example2": (("a", "b", "t"), lambda ns: example2(ns.a, ns.b, ns.t)),
    "hna": (("n", "a"), lambda ns: h_na(ns.n, ns.a)),
    "kxy": (("x", "y"), lambda ns: complete_bipartite(ns.x, ns.y)),
}
FAMILY_FLAGS = ("a", "b", "t", "n", "x", "y")


def _cmd_construct(ns) -> int:
    spec = FAMILIES[ns.family]
    missing = [f"--{name}" for name in spec[0] if getattr(ns, name) is None]
    if missing:
        raise ValueError(f"family {ns.family} requires {' '.join(missing)}")
    extra = [f"--{name}" for name in FAMILY_FLAGS
             if name not in spec[0] and getattr(ns, name) is not None]
    if extra:
        raise ValueError(f"family {ns.family} takes no {' '.join(extra)}")
    g = spec[1](ns)
    params = {"family": ns.family}
    params.update({name: getattr(ns, name) for name in spec[0]})
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(to_edge_list_text(g))
    if ns.dot:
        header = json.dumps(params, sort_keys=True)
        with open(ns.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, header=header))
    result = {"n": g.n, "m": g.m, "out": ns.out, "dot": ns.dot}
    if not ns.out and not ns.dot:
        result["edges"] = to_json(g.edges)
    _emit(_envelope("construct", params | {"out": ns.out, "dot": ns.dot}, result))
    return EXIT_OK


def _cmd_check_conditions(ns) -> int:
    g = _load_graph(ns.graph)
    report = (main_theorem_conditions(g, ns.a, ns.b) if ns.theorem
              else conjecture_conditions(g, ns.a, ns.b))
    which = "theorem" if ns.theorem else "conjecture"
    _emit(_envelope("check-conditions",
                    {"graph": ns.graph, "a": ns.a, "b": ns.b, "which": which},
                    to_json(report) | {"overall": report.overall}))
    return EXIT_OK if report.overall else EXIT_NEGATIVE


def _cmd_criterion(ns) -> int:
    g = _load_graph(ns.graph)
    holds, witness = criterion_decide(g, ns.a, ns.b)
    result = {"holds": holds, "witness": to_json(witness)}
    _emit(_envelope("criterion",
                    {"graph": ns.graph, "a": ns.a, "b": ns.b},
                    result))
    return EXIT_OK if holds else EXIT_NEGATIVE


def _cmd_find_factor(ns) -> int:
    g = _load_graph(ns.graph)
    find = find_even_factor if ns.even else find_ab_factor
    factor = find(g, ns.a, ns.b)
    result = {"present": factor is not None, "factor": to_json(factor)}
    if factor is None and g.n and min(g.degrees) < ns.a:
        result["reason"] = "min degree below a"
    _emit(_envelope("find-factor",
                    {"graph": ns.graph, "a": ns.a, "b": ns.b,
                     "even": ns.even},
                    result))
    return EXIT_OK if factor is not None else EXIT_NEGATIVE


def _factor_edges(data, n: int, path: str) -> list[tuple[int, int]]:
    """The edge list of a parsed factor file: pairs of vertex ids in
    range(n).  Anything else raises ValueError naming the file."""
    if not isinstance(data, dict) or "edges" not in data:
        raise ValueError(f"factor file {path} lacks an 'edges' field")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"factor file {path}: 'edges' must be a list of pairs")
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2
                and all(type(v) is int and 0 <= v < n for v in e)):
            raise ValueError(f"factor file {path}: edge {i} {e!r} is not a "
                             f"pair of vertex ids in 0..{n - 1}")
    return [tuple(e) for e in edges]


def _cmd_verify(ns) -> int:
    g = _load_graph(ns.graph)
    with open(ns.factor, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    factor = Factor.from_edges(g, _factor_edges(data, g.n, ns.factor))
    ok = verify_factor(g, factor, ns.a, ns.b, require_even=ns.even)
    _emit(_envelope("verify",
                    {"graph": ns.graph, "factor": ns.factor, "a": ns.a,
                     "b": ns.b, "even": ns.even},
                    {"valid": ok, "degrees": list(factor.degrees)}))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_spectral(ns) -> int:
    g = _load_graph(ns.graph)
    res = lambda1(g)
    _, delta, big = degree_profile(g) if g.n else ((), None, None)
    result = to_json(res) | {
        "min_degree": delta, "max_degree": big, "sigma2": to_json(sigma2(g)),
        "edge_connectivity": edge_connectivity(g) if g.n >= 2 else None,
        "vertex_connectivity": vertex_connectivity(g) if g.n >= 2 else None,
    }
    _emit(_envelope("spectral", {"graph": ns.graph}, result))
    return EXIT_OK


def _cmd_sweep(ns) -> int:
    mode = "random" if ns.random else "exhaustive"
    records = conjecture_sweep(ns.n, ns.a, ns.b, source=mode, seed=ns.seed,
                               count=ns.count)
    params = {"n": ns.n, "a": ns.a, "b": ns.b, "mode": mode}
    if ns.random:
        params |= {"seed": ns.seed, "count": ns.count}
    for rec in records:
        _emit(to_json(rec), compact=True)
    summary = sweep_summary(records)
    _emit(_envelope("sweep", params, {"summary": summary}), compact=True)
    return EXIT_NEGATIVE if summary["absent"] else EXIT_OK


def _cmd_repro(ns) -> int:
    rows = repro_report(None if ns.claim is None else [ns.claim])
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"[{status}] {row.claim}: {row.description}", file=sys.stderr)
    _emit(_envelope("repro", {"claim": ns.claim},
                    {"rows": to_json(rows),
                     "all_passed": all(r.passed for r in rows)}))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors raise ValueError instead of exiting, so
    they reach the ``usage`` JSON.  Subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evenfactor",
        description="exact decisions and constructions for even [a,b]-factors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a named graph family")
    p.add_argument("family", choices=sorted(FAMILIES))
    for flag in FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--out", help="write edge-list format to this path")
    p.add_argument("--dot", help="write DOT format to this path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check-conditions", help="evaluate hypothesis sets")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--theorem", action="store_true")
    grp.add_argument("--conjecture", action="store_true")
    p.set_defaults(func=_cmd_check_conditions)

    p = sub.add_parser("criterion", help="exhaustive deficiency criterion")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("find-factor", help="search for an [a,b]-factor")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--even", action="store_true")
    p.set_defaults(func=_cmd_find_factor)

    p = sub.add_parser("verify", help="verify a factor file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--even", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectral", help="largest adjacency eigenvalue")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("sweep", help="eigenvalue-threshold conjecture sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--exhaustive", action="store_true")
    grp.add_argument("--random", action="store_true")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("repro", help="run the reproducible claim checks")
    p.add_argument("--claim", help="run a single claim by id (default: all)")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except ScaleError as exc:
        _emit({"error": str(exc), "kind": "scale"})
        return EXIT_SCALE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc), "kind": "usage"})
        return EXIT_USAGE
    except Exception as exc:
        _emit({"error": str(exc), "kind": "internal"})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
