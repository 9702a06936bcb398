"""Command-line front end: fidelity tables, alpha sweeps, MUB checks, audits.

    phaseclone table  [--d-min 2] [--d-max 8] [--seed 0]
    phaseclone sweep  --d 3 [--points 101]
    phaseclone verify [--d-max 8] [--trials 20] [--seed 0]
    phaseclone mub    --d 5

Every command writes CSV (default) or JSON (``--format json``) to stdout,
or to ``--output PATH`` when given; nothing else touches the filesystem.
Exit codes: 0 success, 1 verification failure, 2 usage error. Floats are
printed with 17 significant digits so CSV and JSON round-trip to identical
doubles. Output is UTF-8 with LF line endings, and runs with the same seed
are byte-identical.

Each argument's domain is declared once, on its ``add_argument``. Each
``cmd_*`` takes its command's arguments and returns ``(exit_code, doc)``:
``doc["rows"]`` is the table (its keys are the CSV columns), and any other
keys of ``doc`` go into the JSON document ahead of the rows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .audit import CHECKS, mub_rows, mub_worst, run_audit
from .cloner import VerificationError, _fidelity_row, build_machine, optimal_params
from .optimize import sweep_alpha
from .states import _random_phase_vectors, is_prime

SCHEMA_VERSION = 1
MAX_D = 64
MAX_TRIALS, MAX_POINTS = 100, 100_000  # at these bounds verify --d-max 64 and sweep run in minutes and under 500 MB


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(text: str, output: str | None) -> None:
    """Write to stdout or ``output``; an unwritable path exits 2 with a one-line message."""
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"phaseclone: error: cannot write --output {output}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2) from None


def _render(fmt: str, command: str, params: dict, doc: dict) -> str:
    if fmt == "csv":
        rows = doc["rows"]
        lines = [",".join(rows[0])] + [",".join(_fmt(value) for value in row.values()) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps({"schema_version": SCHEMA_VERSION, "command": command, "params": params, **doc}) + "\n"


def cmd_table(d_min: int, d_max: int, seed: int = 0) -> tuple[int, dict]:
    """One row per dimension at the optimal parameters.

    Each row is cross-checked by simulating one seeded phase state through
    the machine before it is emitted (FidelityReport refuses rows where the
    closed form and the simulation disagree); such a row raises
    VerificationError naming its d, and the CLI exits 1 without output.
    Row d simulates the first d phases of one draw of d_max phases, which
    are ``random_phase_vector(d, seed)``, so each row is the one
    ``fidelity_report(d, phase_seed=seed)`` gives. Bad arguments raise
    ValueError, as they do in the library.
    """
    phases = _random_phase_vectors(d_max, [seed])[0]
    rows = []
    for d in range(d_min, d_max + 1):
        try:
            rep = _fidelity_row(build_machine(d, *optimal_params(d)), phases[:d], seed)
        except VerificationError as exc:
            raise VerificationError(f"verification failed at d={d}: {exc}") from None
        rows.append({"d": d, "alpha": rep.alpha, "beta": rep.beta, "f_optimal": rep.f_closed,
                     "f_uqcm": rep.f_uqcm, "eta": rep.eta})
    return 0, {"rows": rows}


def cmd_sweep(d: int, points: int) -> tuple[int, dict]:
    """Objective curve: fidelity along a uniform alpha grid."""
    return 0, {"rows": [{"alpha": a, "beta": b, "f": f} for a, b, f in sweep_alpha(d, points).rows]}


def cmd_verify(d_max: int, trials: int, seed: int, corrupt: bool = False) -> tuple[int, dict]:
    """Run the audit suite; exit 0 only if every check passes."""
    report = run_audit(d_max, trials, seed, corrupt=corrupt)
    return 0 if report.overall else 1, {"seed": report.seed, "overall": report.overall, "rows": report.to_rows()}


def cmd_mub(d: int) -> tuple[int, dict]:
    """Unbiasedness residuals for the d+1 bases and the cloning fidelity of every MUB state."""
    rows = mub_rows(d)
    worst_basis, worst_uniform = mub_worst(d, rows)
    passed = worst_basis < CHECKS["mub_unbiasedness"] and worst_uniform < CHECKS["mub_cloning_uniformity"]
    return 0 if passed else 1, {"rows": rows}


def _int_in(lo: int, hi: float = math.inf):
    """An argparse ``type``: an integer in ``lo..hi``."""
    want = f"an integer >= {lo}" if hi == math.inf else f"an integer in {lo}..{hi}"

    def parse(text: str) -> int:
        try:
            if lo <= (value := int(text)) <= hi:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseclone",
        description="Fidelity tables, sweeps and verification for the 1-to-2 "
        "phase-covariant qudit cloner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dim, seed = _int_in(2, MAX_D), _int_in(0)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of stdout")

    p = sub.add_parser("table", help="optimal fidelity per dimension, against the universal baseline")
    p.set_defaults(run=cmd_table)
    p.add_argument("--d-min", type=dim, default=2)
    p.add_argument("--d-max", type=dim, default=8)
    p.add_argument("--seed", type=seed, default=0, help="seed of the per-row verification state")
    common(p)

    p = sub.add_parser("sweep", help="fidelity along a uniform alpha grid")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--d", type=dim, required=True)
    p.add_argument("--points", type=_int_in(3, MAX_POINTS), default=101)
    common(p)

    p = sub.add_parser("verify", help="run the full audit suite")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--d-max", type=dim, default=8)
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=20)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("mub", help="unbiasedness and cloning uniformity of the d+1 bases")
    p.set_defaults(run=cmd_mub)
    p.add_argument("--d", type=int, required=True,
                   choices=[d for d in range(3, MAX_D + 1, 2) if is_prime(d)],
                   help="the MUB construction needs an odd prime")
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    params = vars(parser.parse_args(argv))
    # what is left after these four are the command's own arguments, in declaration order
    command, fmt, output, run = (params.pop(key) for key in ("command", "format", "output", "run"))
    if "d_min" in params and params["d_min"] > params["d_max"]:
        parser.error(f"need --d-min <= --d-max, got {params['d_min']}..{params['d_max']}")
    try:
        code, doc = run(**params)
    except VerificationError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    _emit(_render(fmt, command, params, doc), output)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
