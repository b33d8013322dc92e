"""Fresh interpreters: numpy stays unloaded until the first eigensolve, and
the first such call answers as a warm one does.

The pytest process cannot check this itself, since pytest and the other test
modules import numpy before any library code runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evenfactor as ef
from evenfactor.cli import main

ROOT = Path(__file__).resolve().parents[1]

CLI = "import sys; from evenfactor.cli import main; sys.exit(main(sys.argv[1:]))"


def fresh(code, *argv):
    """Run ``python -c code argv...`` in a new interpreter on src/."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text(ef.to_edge_list_text(ef.cycle_graph(5)))
    return path


def test_import_and_combinatorial_commands_never_load_numpy(tmp_path, c5_path,
                                                           capsys):
    k5 = tmp_path / "k5.edges"
    k5.write_text(ef.to_edge_list_text(ef.complete_graph(5)))
    factor = tmp_path / "factor.json"
    factor.write_text(json.dumps({"edges": sorted(ef.complete_graph(5).edges)}))
    commands = [
        ["construct", "example1", "--a", "4", "--b", "12", "--t", "9",
         "--out", str(tmp_path / "h.edges")],
        ["find-factor", "--graph", str(k5), "--a", "4", "--b", "4", "--even"],
        ["find-factor", "--graph", str(c5_path), "--a", "1", "--b", "2"],
        ["check-conditions", "--graph", str(k5), "--a", "2", "--b", "4",
         "--conjecture"],
        ["check-conditions", "--graph", str(k5), "--a", "2", "--b", "4",
         "--theorem"],
        ["verify", "--graph", str(k5), "--factor", str(factor), "--a", "4",
         "--b", "4", "--even"],
        ["criterion", "--graph", str(k5), "--a", "2", "--b", "4"],
        ["criterion", "--graph", str(c5_path), "--a", "4", "--b", "4"],
    ]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "import evenfactor",
        "loaded = ['numpy' in sys.modules]",
        "from evenfactor.cli import main",
        "codes = []",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        codes.append(main(argv))",
        "    loaded.append('numpy' in sys.modules)",
        "print(json.dumps({'codes': codes, 'loaded': loaded}))",
    ])
    proc = fresh(code, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [main(argv) for argv in commands]
    assert report["codes"][:3] == [0, 0, 0]
    assert report["loaded"] == [False] * (len(commands) + 1)


def test_first_eigensolve_and_criterion_in_a_fresh_process():
    code = "\n".join([
        "import json, sys",
        "import evenfactor as ef",
        "res = ef.lambda1(ef.complete_graph(4))",
        "verdict = ef.criterion_decide(ef.cycle_graph(5), 2, 2)",
        "print(json.dumps({'lambda1': res.lambda1, 'verdict': list(verdict),",
        "                  'numpy': 'numpy' in sys.modules}))",
    ])
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["lambda1"] == pytest.approx(3.0)
    assert report["lambda1"] == ef.lambda1(ef.complete_graph(4)).lambda1
    assert report["verdict"] == [True, None]
    assert report["numpy"] is True


@pytest.mark.parametrize("argv", [
    ["spectral"],
    ["criterion", "--a", "2", "--b", "2"],
], ids=lambda argv: argv[0])
def test_first_use_cli_commands_match_in_process(argv, c5_path, capsys):
    argv = [argv[0], "--graph", str(c5_path), *argv[1:]]
    proc = fresh(CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    # Reruns match except for the timestamp, which ticks between the two runs
    # whenever a second boundary falls between them.
    first, warm = json.loads(proc.stdout), json.loads(capsys.readouterr().out)
    assert first.pop("timestamp") and warm.pop("timestamp")
    assert first == warm
