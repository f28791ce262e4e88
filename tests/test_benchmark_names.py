"""The names perfbench/child.py looks up must keep resolving, and the
command lines perfbench/run.py runs must keep passing its checks.

child.py skips a name that has gone and reports its metrics as absent,
so a rename would silently blind the benchmark.  This list mirrors the
names it wraps in ``nerfcert.cli`` (CLI_NAMES) and the ones its probes
call in the layer modules, and is checked against child.py's source.
A dropped flag or a changed file format would instead fail every
benchmark run; the contract test fails first.
The traced pass, spans and probes, must write strict JSON records with
the counts run.py checks, and run.py must end it on its result line.
"""

import ast
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from nerfcert import NetConfig, pruned_cardinality
from nerfcert.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

NAMES = [
    ("nerfcert.cli", "read_frame"),
    ("nerfcert.cli", "NetConfig.create"),
    ("nerfcert.cli", "sweep_all_K"),
    ("nerfcert.cli", "certify"),
    ("nerfcert.cli", "write_bounds_csv"),
    ("nerfcert.cli", "exact_bounds_all_K"),
    ("nerfcert.cli", "read_bounds_csv"),
    ("nerfcert.frames", "verify_group_invariance"),
    ("nerfcert.frames", "verify_untf"),
    ("nerfcert.epsnet", "pruned_cardinality"),
    ("nerfcert.bounds", "sweep_all_K"),
]


@pytest.mark.parametrize("module, name", NAMES)
def test_benchmark_name_resolves(module, name):
    obj = importlib.import_module(module)
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_names_mirror_child():
    """NAMES is a hand copy: child.py's CLI_NAMES keys, and the module and
    name of each probe(metric, module, name, ...) call.  Read from its
    source, so a rename on either side fails here."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    [cli_names] = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_NAMES"]
    ]
    probes = {
        ("nerfcert." + node.args[1].id, node.args[2].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "probe"
    }
    names = set(NAMES)
    cli = {(m, n) for m, n in names if m == "nerfcert.cli"}
    assert {("nerfcert.cli", k.value) for k in cli_names.keys} == cli
    assert probes == names - cli


def test_benchmark_cli_contract(tmp_path, monkeypatch, capsys):
    """run.py's estimate and oracle argv on the 5x40 frame at eps^2 1/4,
    judged by perfbench/checks.py as the benchmark judges them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    frame = str(tmp_path / "frame.txt")
    assert main(["gen-frame", "-M", "5", "-k", "3", "-o", frame]) == EXIT_OK
    texts = []
    for threads in (1, 2):
        path = tmp_path / f"bounds_{threads}t.csv"
        argv = ["estimate", "-f", frame, "--eps-sq", repr(0.25), "--threads",
                str(threads), "--cap-mode", "untf", "-o", str(path)]
        assert main(argv) == EXIT_OK
        texts.append(path.read_text())
    assert checks.check_identical(*texts) == []
    _, cols = checks.parse_bounds_csv(texts[0])
    assert checks.check_tight_identities(cols, 5, 40) == []

    # K = N-1 and N enumerate complements of one column and of none.
    for k_min, expected in ((36, 102_091), (39, 41)):
        out = tmp_path / f"oracle_{k_min}.csv"
        capsys.readouterr()
        argv = ["oracle", "-f", frame, "--k-min", str(k_min), "--check",
                str(tmp_path / "bounds_1t.csv"), "-o", str(out)]
        assert main(argv) == EXIT_OK
        assert "sandwich verified" in capsys.readouterr().out
        ks, alpha, beta, subsets = checks.parse_oracle_csv(out.read_text())
        assert list(ks) == list(range(k_min, 41))
        assert subsets == expected
        assert checks.check_sandwich(cols, ks, alpha, beta) == []


def child_record(tmp_path, *args):
    """Run perfbench/child.py as run.py does and return its record, which
    must be strict JSON."""
    record = tmp_path / f"{args[0]}.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(record), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(record.read_text())
    json.dumps(data, allow_nan=False)
    return data


def test_benchmark_traced_path(tmp_path):
    """The traced pass: a CLI estimate with spans, and the probes, which
    also sweep a one-column frame to time the net."""
    frame = str(tmp_path / "frame.txt")
    assert main(["gen-frame", "-M", "5", "-k", "3", "-o", frame]) == EXIT_OK
    points = pruned_cardinality(NetConfig.create(5, 0.25))

    probes = child_record(tmp_path, "probes", frame, repr(0.25), "2")
    assert probes["enumerated"] == probes["pruned_cardinality"] == points
    peak = probes["sweep_peak_bytes"]
    assert type(peak) is int and peak > 0

    cli = child_record(
        tmp_path, "cli", "1", "estimate", "-f", frame, "--eps-sq", repr(0.25),
        "--threads", "2", "-o", str(tmp_path / "bounds.csv"),
    )
    assert cli["rc"] == EXIT_OK
    [sweep] = [s for s in cli["spans"] if s["name"] == "sweep_all_K"]
    assert sweep["counts"]["points"] == points


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_benchmark_traced_result_line(tmp_path):
    """run.py --trace 1, run as the benchmark runs it from a checkout of
    its own, ends on its result: a strict-JSON line, correct, with every
    per-layer metric BENCHMARK.json declares."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_m10_wide",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=refuse_constant)
    assert result["correct"] is True, proc.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []


def test_benchmark_checker_tests_pass():
    """perfbench/test_checks.py, in a process of its own: run.py edits
    the environment when it is imported."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "test_checks.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
