import json
import random

import pytest

import evenfactor as ef
from evenfactor import spectral
from evenfactor.cli import main
from helpers import random_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out)


def test_construct_writes_edge_list_and_dot(tmp_path, capsys):
    edges = tmp_path / "h.edges"
    dot = tmp_path / "h.dot"
    code, out = run(capsys, "construct", "example1", "--a", "4", "--b", "12",
                    "--t", "9", "--out", str(edges), "--dot", str(dot))
    assert code == 0
    payload = last_json(out)
    assert payload["result"]["n"] == 20 and payload["result"]["m"] == 79
    g = ef.from_edge_list_text(edges.read_text())
    assert (g.n, g.m) == (20, 79)
    assert ef.from_dot(dot.read_text()) == g
    assert dot.read_text().startswith('// {"a": 4')


def test_construct_inline_edges_when_no_output_path(capsys):
    code, out = run(capsys, "construct", "kxy", "--x", "2", "--y", "3")
    assert code == 0
    assert len(last_json(out)["result"]["edges"]) == 6


def test_construct_missing_parameter_is_usage_error(capsys):
    code, out = run(capsys, "construct", "example1", "--a", "4", "--b", "12")
    assert code == 2
    assert "--t" in last_json(out)["error"]


def test_construct_invalid_parameters_is_usage_error(capsys):
    code, out = run(capsys, "construct", "example1", "--a", "4", "--b", "10",
                    "--t", "12")
    assert code == 2
    assert "b >= 3a" in last_json(out)["error"]


def test_find_factor_absent_is_exit_one(tmp_path, capsys):
    path = tmp_path / "h.edges"
    run(capsys, "construct", "example1", "--a", "4", "--b", "12", "--t", "9",
        "--out", str(path))
    code, out = run(capsys, "find-factor", "--graph", str(path),
                    "--a", "4", "--b", "12", "--even")
    assert code == 1
    assert last_json(out)["result"]["present"] is False


def test_find_factor_present_and_verify_round_trip(tmp_path, capsys):
    gpath = tmp_path / "k5.edges"
    gpath.write_text(ef.to_edge_list_text(ef.complete_graph(5)))
    code, out = run(capsys, "find-factor", "--graph", str(gpath),
                    "--a", "4", "--b", "4", "--even")
    assert code == 0
    factor = last_json(out)["result"]["factor"]
    fpath = tmp_path / "factor.json"
    fpath.write_text(json.dumps(factor))
    code, out = run(capsys, "verify", "--graph", str(gpath), "--factor",
                    str(fpath), "--a", "4", "--b", "4", "--even")
    assert code == 0
    assert last_json(out)["result"]["valid"] is True
    code, out = run(capsys, "verify", "--graph", str(gpath), "--factor",
                    str(fpath), "--a", "6", "--b", "6", "--even")
    assert code == 1


def test_find_factor_parity_free_on_a_dense_graph(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    gpath.write_text(ef.to_edge_list_text(random_graph(random.Random(1), 60, 0.6)))
    code, out = run(capsys, "find-factor", "--graph", str(gpath),
                    "--a", "2", "--b", "3")
    assert code == 0
    result = last_json(out)["result"]
    assert result["present"] is True
    assert all(2 <= d <= 3 for d in result["factor"]["degrees"])


@pytest.mark.parametrize("even", [[], ["--even"]])
def test_find_factor_reports_min_degree_below_a(tmp_path, capsys, even):
    gpath = tmp_path / "star.edges"
    gpath.write_text(ef.to_edge_list_text(ef.complete_bipartite(1, 3)))
    code, out = run(capsys, "find-factor", "--graph", str(gpath),
                    "--a", "2", "--b", "2", *even)
    assert code == 1
    result = last_json(out)["result"]
    assert result["present"] is False
    assert result["reason"] == "min degree below a"


@pytest.mark.parametrize("content", ['{"edges": 5}', '{"edges": [[0, "x"]]}',
                                     '{"edges": [[0, 7]]}'])
def test_verify_malformed_factor_file_is_usage_error(tmp_path, capsys, content):
    gpath = tmp_path / "k3.edges"
    gpath.write_text(ef.to_edge_list_text(ef.complete_graph(3)))
    fpath = tmp_path / "factor.json"
    fpath.write_text(content)
    code, out = run(capsys, "verify", "--graph", str(gpath), "--factor",
                    str(fpath), "--a", "2", "--b", "2")
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage" and "factor file" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["find-factor", "--graph", "g.edges", "--a", "2", "--b", "3", "--budget", "5"],
    ["sweep", "--n", "5", "--a", "2", "--b", "2", "--exhaustive", "--budget", "5"],
    ["spectral", "--graph", "g.edges", "--tol", "1e-9"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage"
    assert "unrecognized arguments" in payload["error"]


@pytest.mark.parametrize("argv, message", [
    ([], "required: command"),
    (["find-factor", "--graph", "g.edges", "--a", "two", "--b", "4"], "invalid int"),
    (["find-factor", "--a", "2", "--b", "4"], "required: --graph"),
    (["sweep", "--n", "5", "--a", "2", "--b", "2"], "one of the arguments"),
    (["construct", "petersen"], "invalid choice"),
])
def test_malformed_arguments_are_usage_errors(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage" and message in payload["error"]


def test_help_still_prints_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["find-factor", "--help"])
    assert exc.value.code == 0
    assert "--even" in capsys.readouterr().out


def test_internal_error_is_reported_as_json(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k5.edges"
    path.write_text(ef.to_edge_list_text(ef.complete_graph(5)))

    def broken(g, a, b):
        raise RuntimeError("internal error: decoded factor failed verification")

    monkeypatch.setattr("evenfactor.cli.find_even_factor", broken)
    code, out = run(capsys, "find-factor", "--graph", str(path), "--a", "2",
                    "--b", "4", "--even")
    assert code == 4
    payload = last_json(out)
    assert payload == {"error": "internal error: decoded factor failed verification",
                       "kind": "internal"}


def test_unexpected_exception_is_internal_json_not_a_traceback(capsys, monkeypatch):
    def buggy(ns):
        raise TypeError("unsupported operand type(s) for +: 'int' and 'str'")

    monkeypatch.setattr("evenfactor.cli._cmd_repro", buggy)
    code, out = run(capsys, "repro", "--claim", "sweep-smoke")
    assert code == 4
    assert last_json(out) == {
        "error": "unsupported operand type(s) for +: 'int' and 'str'",
        "kind": "internal"}


def test_check_conditions_exit_codes(tmp_path, capsys):
    path = tmp_path / "h.edges"
    run(capsys, "construct", "example1", "--a", "4", "--b", "12", "--t", "9",
        "--out", str(path))
    code, out = run(capsys, "check-conditions", "--graph", str(path),
                    "--a", "4", "--b", "12", "--conjecture")
    assert code == 0 and last_json(out)["result"]["overall"] is True
    code, out = run(capsys, "check-conditions", "--graph", str(path),
                    "--a", "4", "--b", "12", "--theorem")
    assert code == 1 and last_json(out)["result"]["overall"] is False
    # exact sides: sigma2 of a complete graph is INFINITY, the order bound
    # 2a + b + (a^2 - 3a)/b - 2 = 3 at [2,2] is {num, den}
    path = tmp_path / "k6.edges"
    path.write_text(ef.to_edge_list_text(ef.complete_graph(6)))
    code, out = run(capsys, "check-conditions", "--graph", str(path),
                    "--a", "2", "--b", "2", "--conjecture")
    result = last_json(out)["result"]
    by_name = {c["name"]: c for c in result["conditions"]}
    assert code == 0 and result["overall"] is True
    assert by_name["degree-sum"]["lhs"] == "INFINITY"
    assert by_name["order"]["rhs"] == {"num": 3, "den": 1}


def test_criterion_command(tmp_path, capsys):
    path = tmp_path / "star.edges"
    path.write_text(ef.to_edge_list_text(ef.complete_bipartite(1, 3)))
    code, out = run(capsys, "criterion", "--graph", str(path), "--a", "2",
                    "--b", "2")
    assert code == 1
    assert last_json(out)["result"]["witness"]["value"] == 4


def test_criterion_scale_error_exit(tmp_path, capsys):
    # example1(4, 12, 9) has 20 vertices and fails the criterion with value
    # 2; a graph above the 10000-vertex cap is refused with exit 3
    path = tmp_path / "h.edges"
    run(capsys, "construct", "example1", "--a", "4", "--b", "12", "--t", "9",
        "--out", str(path))
    code, out = run(capsys, "criterion", "--graph", str(path), "--a", "4",
                    "--b", "12")
    assert code == 1
    witness = last_json(out)["result"]["witness"]
    assert witness["value"] == 2
    g = ef.from_edge_list_text(path.read_text())
    assert ef.even_factor_deficiency(g, 4, 12, witness["S"], witness["T"]) == 2
    big = tmp_path / "big.edges"
    big.write_text(ef.to_edge_list_text(ef.build_graph(10001, [])))
    code, out = run(capsys, "criterion", "--graph", str(big), "--a", "2",
                    "--b", "2")
    assert code == 3
    assert last_json(out)["kind"] == "scale"


def test_criterion_max_n_above_the_cap_is_usage_error(tmp_path, capsys):
    # --max-n is gone: any value, above the cap or not, is an unknown option
    path = tmp_path / "c6.edges"
    path.write_text(ef.to_edge_list_text(ef.cycle_graph(6)))
    for value in ("40", "6"):
        code, out = run(capsys, "criterion", "--graph", str(path), "--a", "2",
                        "--b", "2", "--max-n", value)
        assert code == 2
        payload = last_json(out)
        assert payload["kind"] == "usage"
        assert "unrecognized arguments: --max-n" in payload["error"]


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("not a graph\n")
    code, out = run(capsys, "spectral", "--graph", str(path))
    assert code == 2


def test_spectral_command(tmp_path, capsys):
    path = tmp_path / "k33.edges"
    path.write_text(ef.to_edge_list_text(ef.complete_bipartite(3, 3)))
    code, out = run(capsys, "spectral", "--graph", str(path))
    assert code == 0
    assert last_json(out)["result"]["lambda1"] == pytest.approx(3, abs=1e-9)


def test_sweep_streams_records_then_summary(capsys):
    code, out = run(capsys, "sweep", "--n", "5", "--a", "2", "--b", "2",
                    "--exhaustive")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["params"] == {"n": 5, "a": 2, "b": 2, "mode": "exhaustive"}
    summary = lines[-1]["result"]["summary"]
    assert summary["absent"] == 0
    assert summary["candidates"] == len(
        [ln for ln in lines[:-1] if ln["classification"] == "candidate"])


def test_sweep_of_the_empty_graph_at_its_tangent_rho_is_boundary(capsys):
    # rho(2, 1) = 0 = lambda1 of the edgeless graph on two vertices
    code, out = run(capsys, "sweep", "--n", "2", "--a", "1", "--b", "1",
                    "--exhaustive")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [(ln["mask"], ln["classification"], ln["verdict"]) for ln in lines[:-1]] == [
        (0, "boundary", None), (1, "candidate", "present")]
    assert lines[-1]["result"]["summary"] == {
        "records": 2, "candidates": 1, "boundary": 1, "present": 1, "absent": 0,
        "budget_exhausted": 0}


def test_sweep_random_without_seed_is_usage_error(capsys):
    code, out = run(capsys, "sweep", "--n", "5", "--a", "2", "--b", "2",
                    "--random", "--count", "5")
    assert code == 2
    assert last_json(out) == {"error": "random sweep requires explicit seed and count",
                              "kind": "usage"}


def test_sweep_random_with_jobs_is_usage_error(capsys):
    code, out = run(capsys, "sweep", "--n", "5", "--a", "2", "--b", "2",
                    "--random", "--count", "5", "--seed", "1", "--jobs", "2")
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage"
    assert "unrecognized arguments: --jobs 2" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "5", "--a", "2", "--b", "2", "--exhaustive", "--jobs", "2"],
    ["sweep", "--n", "5", "--a", "2", "--b", "2", "--exhaustive", "--jobs", "1"],
    ["repro", "--all"],
], ids=["sweep-jobs-2", "sweep-jobs-1", "repro-all"])
def test_deleted_flags_are_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage"
    assert "unrecognized arguments" in payload["error"]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--n", "6", "--a", "2", "--b", "4", "--exhaustive",
      "--seed", "5", "--count", "3"],
     "exhaustive sweep takes no seed or count; got seed=5, count=3"),
    (["sweep", "--n", "6", "--a", "2", "--b", "4", "--exhaustive", "--count", "3"],
     "exhaustive sweep takes no count; got count=3"),
    (["sweep", "--n", "6", "--a", "2", "--b", "4", "--random",
      "--seed", "1", "--count", "-3"], "count must be nonnegative"),
    (["construct", "example1", "--a", "4", "--b", "12", "--t", "9", "--n", "5"],
     "family example1 takes no --n"),
    (["construct", "kxy", "--x", "2", "--y", "3", "--a", "2", "--t", "1"],
     "family kxy takes no --a --t"),
], ids=["sweep-exhaustive-seed-count", "sweep-exhaustive-count",
        "sweep-random-negative-count", "construct-example1-n", "construct-kxy-a-t"])
def test_ignored_flags_are_usage_errors(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = last_json(out)
    assert payload["kind"] == "usage"
    assert message in payload["error"]


def test_sweep_random_above_its_cap_is_a_scale_error(capsys):
    code, out = run(capsys, "sweep", "--n", str(spectral.SWEEP_RANDOM_CAP + 1),
                    "--a", "2", "--b", "4", "--random", "--count", "1",
                    "--seed", "1")
    assert code == 3
    assert last_json(out)["kind"] == "scale"


def test_repro_single_claim(capsys):
    code, out = run(capsys, "repro", "--claim", "sweep-smoke")
    assert code == 0
    payload = last_json(out)
    assert payload["result"]["all_passed"] is True
    assert payload["result"]["rows"][0]["claim"] == "sweep-smoke"


def test_repro_unknown_claim_is_usage_error(capsys):
    code, out = run(capsys, "repro", "--claim", "nope")
    assert code == 2


def test_output_reproducible_modulo_timestamp(tmp_path, capsys):
    path = tmp_path / "c6.edges"
    path.write_text(ef.to_edge_list_text(ef.cycle_graph(6)))
    argv = ["find-factor", "--graph", str(path), "--a", "2", "--b", "2",
            "--even"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    strip = lambda text: [ln for ln in text.splitlines() if "timestamp" not in ln]
    assert strip(first) == strip(second)
