"""Benchmark of the phaseclone command line, end to end and per layer.

    python3 perfbench/run.py --workload verify-small-d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it measures the sources under ``src/``.
Each workload execution runs ``phaseclone.cli.main`` in a fresh child
interpreter (``child.py``), one child at a time, so no execution inherits
another's heap, caches or peak RSS. Executions repeat until ``--seconds``
is used up, with at least ``MIN_EXECUTIONS``; every output is checked
(``workloads.py``) and a wrong one counts as a failed operation.

``--trace 0`` reports the end-to-end metrics as medians over executions:
``wall_s`` and ``peak_rss_mb`` from the workload executions, ``setup_s``
from those plus ``SETUP_PROBES`` children per execution that only import
the CLI.
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics of ``tracer.py``, with ``trace.overhead_s`` the
difference of their median wall times.

Earlier lines of standard output carry the provenance and every sample;
the last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from provenance import describe  # noqa: E402
from tracer import unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_EXECUTIONS = 3  # untraced executions per run, however long each takes
SETUP_PROBES = 4  # import-only children before each execution; set-up time drifts, so spread them out
HARD_LIMIT_S = 170.0  # a run must end within 180 s; start nothing that could pass this
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Run:
    """Children of one benchmark run, started one at a time against one clock."""

    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, *args: str) -> dict:
        """Start one child, wait for it, and return its JSON line (or an ``error``)."""
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        start_ns = time.monotonic_ns()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(start_ns), *args],
                                  capture_output=True, text=True, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child {args} timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"error": f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def another(self, done: int, minimum: int, last_s: float) -> bool:
        """Whether to start one more round of ``last_s`` seconds after ``done`` rounds."""
        if self.elapsed() + last_s > HARD_LIMIT_S:
            return False
        return done < minimum or self.elapsed() + last_s <= self.seconds


def measured(results: list[dict]) -> list[dict]:
    return [r for r in results if "error" not in r]


def problems_of(result: dict) -> list[str]:
    return [result["error"]] if "error" in result else result.get("problems", [])


def end_to_end(run: Run, workload: str, seed: int) -> tuple[list[dict], list[str], dict, dict]:
    run.child("setup")  # untimed warm-up: byte-compiles the sources and fills the page cache
    probes, executions = [], []
    last = 0.0
    while run.another(len(executions), MIN_EXECUTIONS, last):
        began = run.elapsed()
        probes += [run.child("setup") for _ in range(SETUP_PROBES)]
        executions.append(run.child("run", workload, str(seed)))
        last = run.elapsed() - began
    done = measured(executions)
    samples = {
        "wall_s": [r["wall_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        "setup_s": [r["setup_s"] for r in measured(probes) + done],
    }
    metrics = {name: {"value": statistics.median(samples[name]), "unit": u}
               for name, u in END_TO_END.items() if samples[name]}
    env = done[0].get("env", {}) if done else {}
    probe_errors = [p["error"] for p in probes if "error" in p]
    return executions, probe_errors, metrics, {"samples": samples, "numpy": env}


def per_layer(run: Run, workload: str, seed: int) -> tuple[list[dict], list[str], dict, dict]:
    run.child("setup")
    plain, traced = [], []
    last = 0.0
    while run.another(len(traced), 1, last):
        began = run.elapsed()
        plain.append(run.child("run", workload, str(seed)))
        traced.append(run.child("trace", workload, str(seed)))
        last = run.elapsed() - began
    snapshots = [r["trace"] for r in measured(traced)]
    metrics = {}
    problems = []
    if snapshots and measured(plain):
        for name in snapshots[0]:
            values = [s[name] for s in snapshots]
            if unit(name) == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced executions: {values}")
            metrics[name] = {"value": value, "unit": unit(name)}
        overhead = (statistics.median(r["wall_s"] for r in measured(traced))
                    - statistics.median(r["wall_s"] for r in measured(plain)))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    samples = {"untraced_wall_s": [r["wall_s"] for r in measured(plain)],
               "traced_wall_s": [r["wall_s"] for r in measured(traced)]}
    env = measured(plain)[0].get("env", {}) if measured(plain) else {}
    return plain + traced, problems, metrics, {"samples": samples, "numpy": env}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if not (ROOT / "src" / "phaseclone" / "cli.py").is_file():
        print(f"no phaseclone sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    run = Run(args.seconds)
    measure = per_layer if args.trace else end_to_end
    executions, problems, metrics, detail = measure(run, args.workload, args.seed)
    provenance = describe(ROOT, args.seed)
    provenance["numpy"] = detail.pop("numpy")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"workload": args.workload, "elapsed_s": run.elapsed(), **detail}))
    failed = [r for r in executions if problems_of(r)]
    problems += [p for r in failed for p in problems_of(r)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if not metrics:
        print("no execution produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not problems, "attempted": len(executions), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
