"""Re-record the golden outputs that ``test_golden.py`` checks, after a change that moves printed digits on purpose.

Run from the repository root::

    PYTHONPATH=src python tests/record_golden.py

It rewrites ``golden_verify.json`` and ``golden_table_mub.json`` from :func:`test_golden.parsed_run` of each
of their commands, reports every number that moved (old -> new, in units in the last place), and prints the
``GOLDEN`` sha256 pins to paste into ``test_golden.py``. Pins are only meaningful on the numpy version that
``test_golden.NUMPY_VERSION`` names, so the script refuses to run on any other.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import test_golden
from phaseclone.cli import main

SHOWN = 10  # moved numbers listed one by one per command; beyond that only their count and largest move


def captured(run, command: str):
    """Call ``run(command, capsys)`` with stdout captured, ``capsys`` standing in for pytest's fixture."""
    buffer = io.StringIO()
    capsys = SimpleNamespace(readouterr=lambda: SimpleNamespace(out=buffer.getvalue()))
    with contextlib.redirect_stdout(buffer):
        return run(command, capsys)


def report_moves(command: str, old: dict, new: dict) -> None:
    """Print each number of ``command``'s rows that differs between the old and the new recording."""
    numbers = test_golden.NUMBERS[command.split()[0]]
    moves = [
        (row, key, ref[key], now[key])
        for row, (ref, now) in enumerate(zip(old["rows"], new["rows"], strict=True))
        for key in numbers
        if ref[key] != now[key]
    ]
    if not moves:
        print(f"{command}: unchanged")
        return
    worst = max(test_golden.ulps_apart(float(a), float(b)) for *_, a, b in moves)
    print(f"{command}: {len(moves)} numbers moved, by at most {worst:g} ulps")
    for row, key, a, b in moves[:SHOWN]:
        label = new["rows"][row].get("check", f"row {row}")
        shift = abs(float(a) - float(b)) / np.finfo(float).eps
        print(f"  {label} {key}: {a} -> {b} ({shift:.2g} eps, {test_golden.ulps_apart(float(a), float(b)):g} ulps)")


def record(name: str, commands) -> None:
    path = Path(test_golden.__file__).with_name(name)
    old = json.loads(path.read_text(encoding="utf-8"))
    new = {command: captured(test_golden.parsed_run, command) for command in commands}
    for command in commands:
        if command in old:
            report_moves(command, old[command], new[command])
    path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")


def sha256_pin(command: str, capsys) -> tuple[int, str]:
    code = main(command.split())
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    if np.__version__ != test_golden.NUMPY_VERSION:
        sys.exit(f"numpy {np.__version__} is not {test_golden.NUMPY_VERSION}, the version the pins hold on")
    record("golden_verify.json", test_golden.VALUES)
    record("golden_table_mub.json", test_golden.TABLE_MUB_VALUES)
    print("GOLDEN = {")
    for command, pin in test_golden.GOLDEN.items():
        now = captured(sha256_pin, command)
        print(f"    {command!r}: {now!r},{'' if now == pin else '  # was ' + pin[1][:12]}")
    print("}")
