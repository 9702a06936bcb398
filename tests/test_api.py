"""The public surface: ``phaseclone.__all__``, the version, and every name the benchmark's tracer wraps.

``perfbench/tracer.py`` patches functions and methods by name; the test
reads its ``FUNCTIONS`` and ``METHODS`` tables without importing it, so
deleting or renaming a traced name fails here rather than in a traced
benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

import phaseclone

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

PUBLIC = {
    "AuditReport",
    "CheckResult",
    "CloningMachine",
    "ConvergenceError",
    "DensityMatrix",
    "DimensionError",
    "EQ_TOL",
    "FidelityReport",
    "Ket",
    "PSD_TOL",
    "PhaseVector",
    "SweepTable",
    "UnsupportedDimensionError",
    "VerificationError",
    "build_machine",
    "clone_state",
    "fidelity_closed_form",
    "fidelity_pure",
    "fidelity_report",
    "frobenius_distance",
    "is_prime",
    "maximize_fidelity",
    "mub_basis",
    "optimal_fidelity",
    "optimal_params",
    "partial_trace",
    "phase_state",
    "random_phase_vector",
    "reduced_clone",
    "run_audit",
    "shrink_factor",
    "simulate_fidelity",
    "standard_basis",
    "sweep_alpha",
    "symmetric_pair",
    "uqcm_fidelity",
}


def tracer_table(name):
    """The literal value assigned to ``name`` at the top level of the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_all_is_the_agreed_public_set():
    assert len(phaseclone.__all__) == len(set(phaseclone.__all__))
    assert set(phaseclone.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in phaseclone.__all__:
        assert getattr(phaseclone, name) is not None, name


def test_version_matches_pyproject():
    # a regex read: tomllib is not in the standard library before Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == phaseclone.__version__


def test_every_traced_name_exists():
    for layer, functions in tracer_table("FUNCTIONS").items():
        module = importlib.import_module(f"phaseclone.{layer}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"phaseclone.{layer}.{fn}"
    for layer, cls, method in tracer_table("METHODS").values():
        owner = getattr(importlib.import_module(f"phaseclone.{layer}"), cls)
        assert callable(getattr(owner, method, None)), f"phaseclone.{layer}.{cls}.{method}"
