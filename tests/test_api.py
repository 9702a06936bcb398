"""The public surface: ``phaseclone.__all__``, the version, and everything the benchmark's tracer uses.

``perfbench/tracer.py`` patches functions and methods by name and sizes
some of their results; these tests load it by path (it is not a package)
and check its ``FUNCTIONS``, ``METHODS`` and ``SIZES`` tables against the
library, so deleting or renaming a name it uses fails here rather than in a
traced benchmark run.
"""

import importlib
import importlib.util
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
    "PSD_TOL",
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
    "sweep_alpha",
    "symmetric_pair",
    "uqcm_fidelity",
}


def load_tracer():
    """The tracer module, executed from its file; loading it installs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracer = load_tracer()
    for layer, functions in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"phaseclone.{layer}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"phaseclone.{layer}.{fn}"
    for layer, cls, method in tracer.METHODS.values():
        owner = getattr(importlib.import_module(f"phaseclone.{layer}"), cls)
        assert callable(getattr(owner, method, None)), f"phaseclone.{layer}.{cls}.{method}"


def test_traced_size_metrics_run_on_a_small_machine():
    # each SIZES entry maps a traced function's result to a byte count; a new entry needs a sample result here
    machine = phaseclone.build_machine(3, *phaseclone.optimal_params(3))
    psi = phaseclone.phase_state(phaseclone.random_phase_vector(3, 0))
    samples = {"cloner.build_machine": machine, "cloner.clone_state": phaseclone.clone_state(machine, psi)}
    for name, (metric, nbytes) in load_tracer().SIZES.items():
        assert name in samples, name
        size = nbytes(samples[name])
        assert isinstance(size, int) and size > 0, (metric, size)
