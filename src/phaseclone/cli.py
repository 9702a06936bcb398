"""Command-line front end: fidelity tables, alpha sweeps, MUB checks, audits.

    phaseclone table  --d-min 2 --d-max 8 [--seed 0]
    phaseclone sweep  --d 3 [--points 101]
    phaseclone verify [--d-max 8] [--trials 20] [--seed 0]
    phaseclone mub    --d 5

Every command writes CSV (default) or JSON (``--format json``) to stdout,
or to ``--output PATH`` when given; nothing else touches the filesystem.
Exit codes: 0 success, 1 verification failure, 2 usage error. Floats are
printed with 17 significant digits so CSV and JSON round-trip to identical
doubles. Output is UTF-8 with LF line endings, and runs with the same seed
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import CHECKS, mub_rows, mub_worst, run_audit
from .cloner import VerificationError, fidelity_report
from .optimize import sweep_alpha
from .states import is_prime

SCHEMA_VERSION = 1
MAX_D = 64


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


def _render(fmt: str, command: str, params: dict, header: list[str], rows: list[dict],
            extra: dict | None = None) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[col]) for col in header) for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "params": params}
    if extra:
        doc.update(extra)
    doc["rows"] = rows
    return json.dumps(doc) + "\n"


def cmd_table(d_min: int, d_max: int, fmt: str, output: str | None = None, seed: int = 0) -> int:
    """One row per dimension at the optimal parameters.

    Each row is cross-checked by simulating one seeded phase state through
    the machine before it is emitted (FidelityReport refuses rows where the
    closed form and the simulation disagree); such a row exits 1. Bad
    arguments raise ValueError, as they do in the library.
    """
    rows = []
    for d in range(d_min, d_max + 1):
        try:
            rep = fidelity_report(d, phase_seed=seed)
        except VerificationError as exc:
            print(f"table: verification failed at d={d}: {exc}", file=sys.stderr)
            return 1
        rows.append(
            {
                "d": d,
                "alpha": rep.alpha,
                "beta": rep.beta,
                "f_optimal": rep.f_closed,
                "f_uqcm": rep.f_uqcm,
                "eta": rep.eta,
            }
        )
    params = {"d_min": d_min, "d_max": d_max, "seed": seed}
    header = ["d", "alpha", "beta", "f_optimal", "f_uqcm", "eta"]
    _emit(_render(fmt, "table", params, header, rows), output)
    return 0


def cmd_sweep(d: int, points: int, fmt: str, output: str | None = None) -> int:
    """Objective curve: fidelity along a uniform alpha grid."""
    table = sweep_alpha(d, points)
    rows = [{"alpha": a, "beta": b, "f": f} for a, b, f in table.rows]
    params = {"d": d, "points": points}
    _emit(_render(fmt, "sweep", params, ["alpha", "beta", "f"], rows), output)
    return 0


def cmd_verify(d_max: int, trials: int, seed: int, fmt: str, output: str | None = None,
               corrupt: bool = False) -> int:
    """Run the audit suite; exit 0 only if every check passes."""
    report = run_audit(d_max, trials, seed, corrupt=corrupt)
    params = {"d_max": d_max, "trials": trials, "seed": seed, "corrupt": corrupt}
    header = ["check", "d_range", "passed", "residual", "tolerance"]
    extra = {"seed": report.seed, "overall": report.overall}
    _emit(_render(fmt, "verify", params, header, report.to_rows(), extra), output)
    return 0 if report.overall else 1


def cmd_mub(d: int, fmt: str, output: str | None = None) -> int:
    """Unbiasedness residuals for the d+1 bases and the cloning fidelity of every MUB state."""
    rows = mub_rows(d)
    worst_basis, worst_uniform = mub_worst(d, rows)
    _emit(_render(fmt, "mub", {"d": d}, ["kind", "i", "j", "value"], rows), output)
    return 0 if worst_basis < CHECKS["mub_unbiasedness"] and worst_uniform < CHECKS["mub_cloning_uniformity"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseclone",
        description="Fidelity tables, sweeps and verification for the 1-to-2 "
        "phase-covariant qudit cloner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of stdout")

    p = sub.add_parser("table", help="optimal fidelity per dimension, against the universal baseline")
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="seed of the per-row verification state")
    common(p)

    p = sub.add_parser("sweep", help="fidelity along a uniform alpha grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points", type=int, default=101)
    common(p)

    p = sub.add_parser("verify", help="run the full audit suite")
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("mub", help="unbiasedness and cloning uniformity of the d+1 bases")
    p.add_argument("--d", type=int, required=True)
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "seed", 0) < 0:
        parser.error(f"need --seed >= 0, got {args.seed}")
    if args.command == "table":
        if not 2 <= args.d_min <= args.d_max <= MAX_D:
            parser.error(f"need 2 <= d-min <= d-max <= {MAX_D}, got {args.d_min}..{args.d_max}")
        return cmd_table(args.d_min, args.d_max, args.format, args.output, args.seed)
    if args.command == "sweep":
        if not 2 <= args.d <= MAX_D:
            parser.error(f"need 2 <= d <= {MAX_D}, got {args.d}")
        if args.points < 3:
            parser.error(f"need at least 3 points, got {args.points}")
        return cmd_sweep(args.d, args.points, args.format, args.output)
    if args.command == "verify":
        if not 2 <= args.d_max <= MAX_D:
            parser.error(f"need 2 <= d-max <= {MAX_D}, got {args.d_max}")
        if args.trials < 1:
            parser.error(f"need at least 1 trial, got {args.trials}")
        return cmd_verify(args.d_max, args.trials, args.seed, args.format, args.output, args.corrupt)
    if args.command == "mub":
        if not (is_prime(args.d) and args.d % 2 == 1 and args.d <= MAX_D):
            parser.error(
                f"--d must be an odd prime <= {MAX_D} (the MUB construction "
                f"is undefined otherwise), got {args.d}"
            )
        return cmd_mub(args.d, args.format, args.output)
    raise AssertionError(f"unhandled command {args.command!r}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
