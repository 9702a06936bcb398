"""Golden output: fixed-seed CLI runs must print the same bytes and exit with the same code, release after release.

Each entry of ``GOLDEN`` pins the sha256 of a command's stdout and its exit code, as version 0.16.2 printed
them, so a change that moves any printed digit fails here. Rounding can differ between numpy releases, so the
pins hold only on the numpy version they were recorded with.

``golden_verify.json`` holds the parsed output of the three ``verify`` commands, as version 0.16.3 printed
it, and ``golden_table_mub.json`` that of the ``table`` and two ``mub`` commands, as version 0.16.4 printed
it: the exit code, every text field, and every number as the ``repr`` of its double. They are compared on any
numpy version, text exactly and each number within ``ULPS`` units in the last place, so the values stay
checked where the sha256 pins skip.
"""

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phaseclone.cli import main

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "verify --d-max 12 --trials 20 --seed 3": (0, "a459a1c9f42da3e4a66aaafd987f786d1a13365d6b68a602ddc25c08881f98b6"),
    "verify --d-max 6 --trials 4 --seed 1 --corrupt": (1, "0d5563abeb1f8c0538a45798a2ca477a7013a2f5b24549cf0428da237d156c02"),
    "verify --d-max 20 --trials 3 --seed 7 --format json": (
        0, "b4c73cf9ea56f5d8bd5be47d683083666cb71089daf43ad0dcc04a2f7d754210"
    ),
    "table --d-min 2 --d-max 64 --seed 1": (0, "3df95a3ef2d67d88cef93e7db6abb89a1601be4c0a6e7ace97daf2f58a7c003f"),
    "mub --d 29": (0, "0d60443ddb236468b36c72f51d7ea118194cedbb66e1c2563d7ab907b09c9aa7"),
    "mub --d 29 --format json": (0, "2f53bc6e0aca6b70f8cb5788a23683a59e62a5464b1461edbe0ea2b5a4b18203"),
}

VALUES = json.loads(Path(__file__).with_name("golden_verify.json").read_text(encoding="utf-8"))
TABLE_MUB_VALUES = json.loads(Path(__file__).with_name("golden_table_mub.json").read_text(encoding="utf-8"))
# each command's numeric columns; every other field is text
NUMBERS = {
    "verify": ("residual", "tolerance"),
    "table": ("alpha", "beta", "f_optimal", "f_uqcm", "eta"),
    "mub": ("value",),
}
ULPS = 4  # a last-digit drift, as a different summation order may give; a real change moves a residual further


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"golden hashes were recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("command", GOLDEN)
def test_stdout_and_exit_code_match_the_recorded_run(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[command]


def parsed_run(command: str, capsys) -> dict:
    """Run a command: its exit code, its JSON document without the rows (empty for CSV), and its rows.

    Every number in a row is kept as the ``repr`` of its double, every other field as printed.
    """
    numbers = NUMBERS[command.split()[0]]
    code = main(command.split())
    out = capsys.readouterr().out
    if "--format json" in command:
        header = json.loads(out)
        rows = header.pop("rows")
    else:
        header, rows = {}, list(csv.DictReader(io.StringIO(out)))
    rows = [{key: repr(float(value)) if key in numbers else value for key, value in row.items()} for row in rows]
    return {"exit": code, "header": header, "rows": rows}


def ulps_apart(a: float, b: float) -> float:
    """``|a - b|`` in units in the last place of the larger of the two."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def assert_matches_the_recorded_run(command: str, capsys, want: dict) -> None:
    """Text of ``command``'s parsed run exactly as in ``want``, and each number within ``ULPS``."""
    got, numbers = parsed_run(command, capsys), NUMBERS[command.split()[0]]

    def text(doc):
        return {**doc, "rows": [{k: v for k, v in row.items() if k not in numbers} for row in doc["rows"]]}

    assert text(got) == text(want)
    for row, ref in zip(got["rows"], want["rows"], strict=True):
        for key in numbers:
            assert ulps_apart(float(row[key]), float(ref[key])) <= ULPS, (row, key, row[key], ref[key])


@pytest.mark.parametrize("command", VALUES)
def test_verify_rows_match_the_recorded_values(capsys, command):
    assert_matches_the_recorded_run(command, capsys, VALUES[command])


@pytest.mark.parametrize("command", TABLE_MUB_VALUES)
def test_table_and_mub_rows_match_the_recorded_values(capsys, command):
    assert_matches_the_recorded_run(command, capsys, TABLE_MUB_VALUES[command])
