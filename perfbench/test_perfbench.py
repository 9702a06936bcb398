"""Tests of the benchmark itself: its correctness gate, its trace and its contract.

    PYTHONPATH=src python3 -m pytest -q perfbench

The trace test runs every workload twice and takes about a minute.
"""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import phaseclone.cli  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, check_mub, check_output, check_table  # noqa: E402


def cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = phaseclone.cli.main([*args, "--format", "json"])
    return code, out.getvalue()


def test_clean_verify_passes_and_corrupt_verify_is_flagged():
    code, text = cli("verify", "--d-max", "3", "--trials", "2")
    assert check_output("verify-small-d", code, text) == []
    code, text = cli("verify", "--d-max", "3", "--trials", "2", "--corrupt")
    problems = check_output("verify-small-d", code, text)
    assert "exit code 1" in problems
    assert any("isometry_unitarity" in p for p in problems)


def test_tampered_table_value_is_flagged():
    code, text = cli("table", "--d-min", "2", "--d-max", "8")
    doc = json.loads(text)
    assert code == 0 and check_table(doc, 2, 8) == []
    doc["rows"][3]["eta"] += 2e-12
    problems = check_table(doc, 2, 8)
    assert len(problems) == 1 and problems[0].startswith("table: d=5 eta")


def test_tampered_mub_rows_are_flagged():
    code, text = cli("mub", "--d", "3")
    doc = json.loads(text)
    assert code == 0 and check_mub(doc, 3) == []
    fidelity = next(row for row in doc["rows"] if row["kind"] == "fidelity")
    fidelity["value"] += 2e-12
    assert len(check_mub(doc, 3)) == 1
    doc["rows"].pop()
    assert len(check_mub(doc, 3)) == 2


def traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(time.monotonic_ns()),
                           "trace", workload, str(seed)],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    return {k: v for k, v in result["trace"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload, clone_calls", [
    ("verify-small-d", 9675), ("table-full-range", 63), ("mub-prime", 841),
])
def test_trace_counts_repeat_exactly_across_runs_and_seeds(workload, clone_calls):
    first = traced_counts(workload, 0)
    assert first["cloner.clone_state.calls"] == clone_calls
    assert first["cli.main.calls"] == 1
    assert traced_counts(workload, 7) == first


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == metric_names()


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mub-prime", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
