import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import phaseclone.cli
import phaseclone.cloner
from phaseclone.cli import build_parser, cmd_table, main
from phaseclone.cloner import fidelity_report, optimal_fidelity, optimal_params

INV_SQRT2 = 0.7071067811865476
OPT4 = 0.7057189138830738
OPT5 = 0.6701562118716424


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestTable:
    def test_known_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "4")
        assert code == 0
        rows = parse_csv(out)
        assert out.splitlines()[0] == "d,alpha,beta,f_optimal,f_uqcm,eta"
        assert [r["d"] for r in rows] == ["2", "3", "4"]
        assert float(rows[0]["f_optimal"]) == pytest.approx(0.5 + math.sqrt(0.125), abs=1e-12)
        assert float(rows[0]["f_uqcm"]) == pytest.approx(5 / 6, abs=1e-12)
        assert float(rows[0]["eta"]) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert float(rows[1]["f_optimal"]) == pytest.approx((5 + math.sqrt(17.0)) / 12, abs=1e-12)
        assert float(rows[2]["f_optimal"]) == pytest.approx(OPT4, abs=1e-12)

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "3")
        for row in parse_csv(out):
            for col in ("alpha", "beta", "f_optimal", "f_uqcm", "eta"):
                value = float(row[col])
                assert f"{value:.17g}" == row[col]  # formatting is lossless

    def test_csv_and_json_round_trip_identically(self, capsys):
        _, csv_text, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "5")
        code, json_text, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "5",
                                     "--format", "json")
        assert code == 0
        doc = json.loads(json_text)
        csv_rows = parse_csv(csv_text)
        assert doc["schema_version"] == 1
        assert doc["command"] == "table"
        assert doc["params"] == {"d_min": 2, "d_max": 5, "seed": 0}
        assert len(doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(doc["rows"], csv_rows):
            for col in ("alpha", "beta", "f_optimal", "f_uqcm", "eta"):
                assert jrow[col] == float(crow[col])  # identical doubles

    def test_bad_range_exits_2_with_usage(self, capsys):
        code, _, err = run_cli(capsys, "table", "--d-min", "5", "--d-max", "3")
        assert code == 2
        assert "usage" in err
        code, _, _ = run_cli(capsys, "table", "--d-min", "1", "--d-max", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "65")
        assert code == 2

    def test_negative_seed_exits_2_with_usage(self, capsys):
        code, _, err = run_cli(capsys, "table", "--d-min", "2", "--d-max", "3", "--seed", "-1")
        assert code == 2
        assert "usage" in err and "verification failed" not in err

    def test_bad_library_arguments_raise_instead_of_failing_verification(self, capsys):
        with pytest.raises(ValueError, match="d must be >= 2"):
            cmd_table(1, 3)
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer, got -5"):
            cmd_table(2, 3, seed=-5)
        assert "verification failed" not in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1, 2**128])
    def test_rows_are_the_fidelity_reports_float_for_float(self, monkeypatch, seed):
        # one draw of 64 phases serves every row; each row's report, its simulated fidelity too, is the one
        # fidelity_report builds from its own random_phase_vector(d, seed)
        reports, build_row = [], phaseclone.cli._fidelity_row

        def recording(*args):
            reports.append(build_row(*args))
            return reports[-1]

        monkeypatch.setattr(phaseclone.cli, "_fidelity_row", recording)
        code, doc = cmd_table(2, 64, seed)
        expected = [fidelity_report(d, phase_seed=seed) for d in range(2, 65)]
        assert code == 0 and reports == expected
        assert doc["rows"] == [{"d": rep.d, "alpha": rep.alpha, "beta": rep.beta, "f_optimal": rep.f_closed,
                                "f_uqcm": rep.f_uqcm, "eta": rep.eta} for rep in expected]

    def test_disagreeing_simulation_exits_1(self, capsys, monkeypatch):
        simulate = phaseclone.cloner.simulate_fidelity
        monkeypatch.setattr(phaseclone.cloner, "simulate_fidelity", lambda m, psi: simulate(m, psi) + 1e-9)
        code, out, err = run_cli(capsys, "table", "--d-min", "2", "--d-max", "3")
        assert code == 1
        assert out == ""
        assert "table: verification failed at d=2" in err


class TestSweep:
    def test_five_point_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "2", "--points", "5")
        assert code == 0
        rows = parse_csv(out)
        assert out.splitlines()[0] == "alpha,beta,f"
        assert len(rows) == 5
        assert float(rows[0]["alpha"]) == 0.0
        assert float(rows[0]["f"]) == pytest.approx(0.5, abs=1e-15)
        assert float(rows[-1]["alpha"]) == 1.0
        assert float(rows[-1]["f"]) == pytest.approx(0.5, abs=1e-15)

    def test_dense_grid_peaks_near_the_analytic_optimum(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--d", "2", "--points", "101")
        rows = parse_csv(out)
        best = max(rows, key=lambda r: float(r["f"]))
        assert abs(float(best["alpha"]) - INV_SQRT2) <= 0.01 + 1e-12

    def test_bad_arguments_exit_2(self, capsys):
        assert run_cli(capsys, "sweep", "--d", "2", "--points", "2")[0] == 2
        assert run_cli(capsys, "sweep", "--d", "1", "--points", "5")[0] == 2
        assert run_cli(capsys, "sweep", "--points", "5")[0] == 2  # --d required


class TestVerify:
    def test_clean_build_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d-max", "3", "--trials", "5", "--seed", "7")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["passed"] == "true" for r in rows)

    def test_corrupt_hook_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d-max", "3", "--trials", "3",
                               "--seed", "7", "--corrupt")
        assert code == 1
        rows = parse_csv(out)
        failed = [r["check"] for r in rows if r["passed"] == "false"]
        assert failed == ["isometry_unitarity"]

    def test_same_seed_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, out, _ = run_cli(capsys, "verify", "--d-max", "3", "--trials", "4",
                                   "--seed", "11", "--format", "json", "--output", str(p))
            assert code == 0
            assert out == ""  # --output leaves stdout silent
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_carries_overall_and_schema(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--d-max", "3", "--trials", "3",
                            "--seed", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "verify"
        assert doc["overall"] is True
        assert doc["params"]["d_max"] == 3
        assert {row["check"] for row in doc["rows"]} >= {"isometry_unitarity", "level2_value"}

    def test_csv_rows_keep_their_shape(self, capsys):
        # the MUB checks span several dimensions; their range label must not
        # smuggle extra commas into the CSV
        _, out, _ = run_cli(capsys, "verify", "--d-max", "5", "--trials", "2", "--seed", "0")
        lines = out.strip().split("\n")
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines)
        assert any(",3;5," in line for line in lines)

    def test_negative_seed_exits_2_with_usage(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d-max", "2", "--trials", "1", "--seed", "-1")
        assert code == 2
        assert "usage" in err and "Traceback" not in err

    def test_bad_arguments_exit_2(self, capsys):
        assert run_cli(capsys, "verify", "--d-max", "1")[0] == 2
        assert run_cli(capsys, "verify", "--d-max", "70")[0] == 2
        assert run_cli(capsys, "verify", "--trials", "0")[0] == 2


class TestMub:
    def test_d3_residuals_and_fidelities(self, capsys):
        code, out, _ = run_cli(capsys, "mub", "--d", "3")
        assert code == 0
        rows = parse_csv(out)
        unb = [float(r["value"]) for r in rows if r["kind"] in ("unbiasedness", "orthonormality")]
        fid = [float(r["value"]) for r in rows if r["kind"] == "fidelity"]
        assert unb and all(v < 1e-10 for v in unb)
        assert len(fid) == 9
        assert all(v == pytest.approx((5 + math.sqrt(17.0)) / 12, abs=1e-12) for v in fid)

    def test_d5_fidelities(self, capsys):
        code, out, _ = run_cli(capsys, "mub", "--d", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        fid = [row["value"] for row in doc["rows"] if row["kind"] == "fidelity"]
        assert len(fid) == 25
        assert all(v == pytest.approx(OPT5, abs=1e-12) for v in fid)
        # the d+1 bases: d mub bases plus the standard one, all pairs covered
        pairs = [row for row in doc["rows"] if row["kind"] == "unbiasedness"]
        assert len(pairs) == 6 * 5 // 2

    @pytest.mark.parametrize("d", ["4", "2", "9"])
    def test_unsupported_dimension_exits_2(self, capsys, d):
        code, _, err = run_cli(capsys, "mub", "--d", d)
        assert code == 2
        assert "usage" in err


class TestOutputHandling:
    def test_output_file_uses_lf_and_utf8(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--d-min", "2", "--d-max", "3",
                               "--output", str(path))
        assert code == 0
        assert out == ""
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "d,alpha,beta,f_optimal,f_uqcm,eta"

    def test_stdout_matches_file_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--d", "3", "--points", "7", "--output", str(path))
        _, out, _ = run_cli(capsys, "sweep", "--d", "3", "--points", "7")
        assert out == path.read_text(encoding="utf-8")

    def test_output_in_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table", "--d-min", "2", "--d-max", "3", "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err and "No such file or directory" in err

    def test_output_that_is_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--d", "3", "--points", "3", "--output", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Is a directory" in err

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


# every command argument with each value just outside its domain
OUT_OF_DOMAIN = [
    ("table", "--d-min", "1"),
    ("table", "--d-max", "65"),
    ("table", "--seed", "-1"),
    ("sweep", "--d", "1"),
    ("sweep", "--d", "65"),
    ("sweep", "--points", "2"),
    ("sweep", "--points", "100001"),
    ("verify", "--d-max", "1"),
    ("verify", "--d-max", "65"),
    ("verify", "--trials", "0"),
    ("verify", "--trials", "101"),
    ("verify", "--seed", "-1"),
    ("mub", "--d", "1"),
    ("mub", "--d", "2"),
    ("mub", "--d", "4"),
    ("mub", "--d", "9"),
    ("mub", "--d", "67"),
]
REQUIRED = {"sweep": ["--d", "3"], "mub": ["--d", "3"]}


class TestArgumentDomains:
    @pytest.mark.parametrize("command,flag,value", OUT_OF_DOMAIN)
    def test_a_value_outside_the_domain_is_a_usage_error(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, command, *REQUIRED.get(command, []), flag, value)
        assert code == 2
        assert "usage" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv,params", [
        (["table", "--seed", "4", "--d-max", "3"], {"d_min": 2, "d_max": 3, "seed": 4}),
        (["sweep", "--points", "3", "--d", "2"], {"d": 2, "points": 3}),
        (["verify", "--seed", "5", "--trials", "1", "--d-max", "2"],
         {"d_max": 2, "trials": 1, "seed": 5, "corrupt": False}),
        (["mub", "--d", "3"], {"d": 3}),
    ], ids=["table", "sweep", "verify", "mub"])
    def test_json_params_are_the_arguments_in_declaration_order(self, capsys, argv, params):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == argv[0]
        assert list(doc["params"].items()) == list(params.items())


def usage_lines():
    """Every ``phaseclone ...`` line of the CLI docstring and of README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    text = phaseclone.cli.__doc__ + block.group(1)
    lines = [line.split("#")[0].strip() for line in text.splitlines()]
    return [line for line in lines if line.startswith("phaseclone ")]


@pytest.mark.parametrize("line", usage_lines())
def test_documented_usage_parses(line):
    # optional arguments are documented in brackets
    argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports these sources."""
    src = str(Path(phaseclone.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on these sources, with ``argv`` as its arguments."""
    return subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(), capture_output=True, text=True,
                          check=True)


LOADED_NUMPY_RANDOM = "sorted(m for m in sys.modules if m.startswith('numpy.random'))"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs about 10 ms on first use, and no command draws through it, so the import must not pay it
    result = run_fresh(f"import sys, phaseclone.cli; print({LOADED_NUMPY_RANDOM})")
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    "table --d-min 2 --d-max 64",
    "verify --d-max 5 --trials 2",
    "mub --d 5",
    "sweep --d 3",
])
def test_no_command_imports_numpy_random(argv):
    # every seeded value a command uses comes from the in-package PCG64 stream of phaseclone.states
    run = "assert phaseclone.cli.main(sys.argv[1:]) == 0"
    result = run_fresh(f"import sys, phaseclone.cli; {run}; print({LOADED_NUMPY_RANDOM}, file=sys.stderr)", *argv.split())
    assert result.stdout and result.stderr.strip() == "[]"


def test_no_library_entry_point_imports_numpy_random():
    # random_phase_vector is the one-seed case of the commands' in-package stream, so no library call pays it either
    calls = "phaseclone.random_phase_vector(4, 1); phaseclone.fidelity_report(5); phaseclone.run_audit(3, 1, 0)"
    result = run_fresh(f"import sys, phaseclone; {calls}; phaseclone.mub_basis(5, 1); print({LOADED_NUMPY_RANDOM})")
    assert result.stdout.strip() == "[]"


def closed_pipe():
    """The write end of a pipe whose reader is gone, as in `phaseclone mub --d 61 | true` (here before the run starts)."""
    read, write = os.pipe()
    os.close(read)
    return write


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


# each unwritable stdout: a factory of the child's fd 1 (None: closed before Python starts), and the error it gives
UNWRITABLE_STDOUTS = {
    "a closed pipe": (closed_pipe, "Broken pipe"),
    "a full disk": (full_device, "No space left on device"),
    "a closed fd": (None, "Bad file descriptor"),
}


@pytest.mark.parametrize("argv, stdout", [
    pytest.param(argv, stdout, id=argv if stdout == "a closed pipe" else f"{argv} to {stdout}")
    for stdout in UNWRITABLE_STDOUTS
    for argv in ("table --d-max 3", "mub --d 61")  # the first fits stdout's buffer, so its flush fails; the second's write
])
def test_a_closed_stdout_pipe_exits_2_with_one_line(argv, stdout):
    # every run sees the failure; a closed fd 1 leaves Python without sys.stdout, which once raised AttributeError
    make, reason = UNWRITABLE_STDOUTS[stdout]
    fd = make() if make else None
    run = [sys.executable, "-m", "phaseclone.cli", *argv.split()]
    if fd is None:  # close fd 1, then become the CLI
        run = [sys.executable, "-c", "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])", *run]
    try:
        result = subprocess.run(run, env=fresh_env(), stdout=fd, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        if fd is not None:
            os.close(fd)
    # one stderr line: no traceback, and no "Exception ignored" from the flush at interpreter exit
    assert result.returncode == 2
    assert result.stderr == f"phaseclone: error: cannot write to stdout: {reason}\n"
