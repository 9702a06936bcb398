"""The benchmark's workloads: CLI arguments and the check of each one's output.

Every workload runs one ``phaseclone`` command with ``--format json`` and is
judged on its exit code and its rows. The expected values come from the
paper's formulas, evaluated here; this module never imports
``phaseclone.cloner``, so a bug there cannot hide behind its own output.
"""

from __future__ import annotations

import json
import math

EQ_TOL = 1e-12  # table values and MUB fidelities
RESIDUAL_TOL = 1e-10  # MUB orthonormality and unbiasedness residuals

TABLE_D = (2, 64)
VERIFY_D_MAX = 12
VERIFY_TRIALS = 20
MUB_D = 29


def argv(workload: str, seed: int) -> list[str]:
    """CLI arguments of one execution; the seed goes to ``--seed`` where the command takes one."""
    if workload == "verify-small-d":
        return ["verify", "--d-max", str(VERIFY_D_MAX), "--trials", str(VERIFY_TRIALS),
                "--seed", str(seed), "--format", "json"]
    if workload == "table-full-range":
        return ["table", "--d-min", str(TABLE_D[0]), "--d-max", str(TABLE_D[1]),
                "--seed", str(seed), "--format", "json"]
    if workload == "mub-prime":
        return ["mub", "--d", str(MUB_D), "--format", "json"]
    raise KeyError(f"unknown workload {workload!r}")


def paper_row(d: int) -> dict:
    """Optimal alpha, beta, F_opt, the universal baseline and eta from the closed forms."""
    root = math.sqrt(d * d + 4.0 * d - 4.0)
    shift = (d - 2) / (2.0 * root)
    alpha, beta = math.sqrt(0.5 - shift), math.sqrt(0.5 + shift)
    return {
        "alpha": alpha,
        "beta": beta,
        "f_optimal": 1.0 / d + (d - 2 + root) / (4.0 * d),
        "f_uqcm": (d + 3.0) / (2.0 * (d + 1.0)),
        "eta": alpha * beta * math.sqrt(2.0 / (d - 1)) + beta * beta * (d - 2) / (2.0 * (d - 1)),
    }


def check_verify(doc: dict) -> list[str]:
    problems = []
    if doc.get("overall") is not True:
        problems.append(f"verify: overall is {doc.get('overall')!r}")
    rows = doc.get("rows") or []
    if not rows:
        problems.append("verify: no rows")
    for row in rows:
        if row.get("passed") is not True or not row["residual"] < row["tolerance"]:
            problems.append(f"verify: check {row.get('check')!r} failed, residual {row.get('residual')!r}")
    return problems


def check_table(doc: dict, d_min: int = TABLE_D[0], d_max: int = TABLE_D[1]) -> list[str]:
    rows = doc.get("rows") or []
    dims = [row.get("d") for row in rows]
    if dims != list(range(d_min, d_max + 1)):
        return [f"table: rows cover d = {dims}, expected {d_min}..{d_max}"]
    problems = []
    for row in rows:
        for key, want in paper_row(row["d"]).items():
            if not abs(row[key] - want) < EQ_TOL:
                problems.append(f"table: d={row['d']} {key} = {row[key]!r}, paper gives {want!r}")
    return problems


def check_mub(doc: dict, d: int = MUB_D) -> list[str]:
    rows = doc.get("rows") or []
    counts = {"orthonormality": 0, "unbiasedness": 0, "fidelity": 0}
    target = paper_row(d)["f_optimal"]
    problems = []
    for row in rows:
        kind = row.get("kind")
        if kind not in counts:
            problems.append(f"mub: unknown row kind {kind!r}")
            continue
        counts[kind] += 1
        if kind == "fidelity":
            if not abs(row["value"] - target) < EQ_TOL:
                problems.append(f"mub: fidelity of basis {row['i']} state {row['j']} = {row['value']!r}")
        elif not row["value"] < RESIDUAL_TOL:
            problems.append(f"mub: {kind} residual {row['i']}/{row['j']} = {row['value']!r}")
    want = {"orthonormality": d + 1, "unbiasedness": (d + 1) * d // 2, "fidelity": d * d}
    if counts != want:
        problems.append(f"mub: row counts {counts}, expected {want}")
    return problems


CHECKS = {"verify-small-d": check_verify, "table-full-range": check_table, "mub-prime": check_mub}
WORKLOADS = tuple(CHECKS)


def check_output(workload: str, exit_code: int, text: str) -> list[str]:
    """Every way the execution's output departs from the expected result; empty when correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"]
    command = argv(workload, 0)[0]
    if doc.get("command") != command:
        return problems + [f"output is for command {doc.get('command')!r}, expected {command!r}"]
    return problems + CHECKS[workload](doc)
