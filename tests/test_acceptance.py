"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one explicit
PASS line per criterion (a failed assertion marks the criterion FAILED
before its line is printed).
"""

import math
import time

import numpy as np
import pytest

from phaseclone.cli import main as cli_main
from phaseclone.cloner import (
    _simulate,
    build_machine,
    clone_state,
    fidelity_closed_form,
    optimal_fidelity,
    optimal_params,
    reduced_clone,
    simulate_fidelity,
    uqcm_fidelity,
)
from phaseclone.linalg import fidelity_pure, frobenius_distance, partial_trace
from phaseclone.optimize import maximize_fidelity
from phaseclone.states import (
    mub_basis,
    phase_state,
    random_phase_vector,
    unbiasedness_residual,
)

SIM_DIMS = range(2, 17)
SAMPLES_PER_D = 100


def announce(number, text):
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


def best_call_time(fn, *args, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def simulation_sweep():
    """d -> (machine, {route: simulated fidelities}, worst |sim - closed| over both routes), plus elapsed seconds.

    One brute-force pass over 100 seeded phase states for every d in 2..16,
    shared by criteria 4, 6 and 7. Each state takes both routes: the dense
    one (build_machine -> clone_state -> reduced_clone -> fidelity_pure) and
    simulate_fidelity, the route of the CLI and the audit.
    """
    t0 = time.perf_counter()
    data = {}
    for d in SIM_DIMS:
        machine = build_machine(d, *optimal_params(d))
        closed = fidelity_closed_form(d, machine.alpha, machine.beta)
        fids = {"dense": [], "simulate_fidelity": []}
        for seed in range(SAMPLES_PER_D):
            psi = phase_state(random_phase_vector(d, seed))
            fids["dense"].append(fidelity_pure(psi, reduced_clone(clone_state(machine, psi))))
            fids["simulate_fidelity"].append(simulate_fidelity(machine, psi))
        worst = max(abs(f - closed) for route in fids.values() for f in route)
        data[d] = (machine, fids, worst)
    return data, time.perf_counter() - t0


def test_criterion_01_d2_optimum():
    value = optimal_fidelity(2)
    assert abs(value - (0.5 + math.sqrt(0.125))) < 1e-12
    assert best_call_time(optimal_fidelity, 2) < 1e-3
    announce(1, f"optimal_fidelity(2) = {value:.10f} = 1/2 + sqrt(1/8) within 1e-12, under 1 ms")


def test_criterion_02_d3_optimum():
    value = optimal_fidelity(3)
    assert abs(value - (5.0 + math.sqrt(17.0)) / 12.0) < 1e-12
    assert best_call_time(optimal_fidelity, 3) < 1e-3
    announce(2, f"optimal_fidelity(3) = {value:.10f} = (5 + sqrt(17))/12 within 1e-12, under 1 ms")


def test_criterion_03_numeric_rederivation():
    t0 = time.perf_counter()
    worst_f = worst_alpha = 0.0
    for d in range(2, 65):
        alpha_star, f_star = maximize_fidelity(d)
        worst_f = max(worst_f, abs(f_star - optimal_fidelity(d)))
        worst_alpha = max(worst_alpha, abs(alpha_star - optimal_params(d)[0]))
    elapsed = time.perf_counter() - t0
    assert worst_f < 1e-9
    assert worst_alpha < 1e-6
    assert elapsed < 1.0
    announce(3, f"golden-section agrees with the closed form for d = 2..64 "
                f"(worst df {worst_f:.2e}, worst dalpha {worst_alpha:.2e}, {elapsed:.3f} s)")


def test_criterion_04_oracle_equivalence(simulation_sweep):
    data, elapsed = simulation_sweep
    worst = max(entry[2] for entry in data.values())
    assert worst < 1e-12
    assert elapsed < 30.0
    announce(4, f"brute-force simulation, dense and through simulate_fidelity, matches the closed form "
                f"for d = 2..16, 100 phase states each (worst residual {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_05_d2_scalar_form():
    t0 = time.perf_counter()
    machine = build_machine(2, *optimal_params(2))
    eta = 1.0 / math.sqrt(2.0)
    isotropic = 0.5 - math.sqrt(0.125)
    worst = 0.0
    for seed in range(100):
        psi = phase_state(random_phase_vector(2, seed))
        red = reduced_clone(clone_state(machine, psi)).mat
        expected = eta * np.outer(psi, psi.conj()) + isotropic * np.eye(2)
        worst = max(worst, float(np.abs(red - expected).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    announce(5, f"d=2 reduced output equals (1/sqrt(2)) rho_in + (1/2 - sqrt(1/8)) I "
                f"entrywise over 100 phases (worst {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_06_phase_covariance(simulation_sweep):
    data, _ = simulation_sweep
    worst_std = max(float(np.std(route, ddof=1)) for _, fids, _ in data.values() for route in fids.values())
    assert worst_std < 1e-12
    announce(6, f"simulated fidelity is constant over the phase family for d = 2..16, on both routes "
                f"(worst sample std {worst_std:.2e} over 100 draws)")


def test_criterion_07_isometry_and_clone_symmetry(simulation_sweep):
    data, _ = simulation_sweep
    worst_iso = max(machine.unitarity_residual() for machine, _, _ in data.values())
    worst_sym = 0.0
    for d, (machine, _, _) in data.items():
        for seed in (0, 1, 2):
            psi = phase_state(random_phase_vector(d, seed))
            rho = clone_state(machine, psi)
            red_a = partial_trace(rho, keep=(0,)).mat
            red_b = partial_trace(rho, keep=(1,)).mat
            worst_sym = max(worst_sym, frobenius_distance(red_a, red_b))
            out = _simulate([machine], psi[None, None])  # the route of simulate_fidelity and the CLI
            worst_sym = max(worst_sym, frobenius_distance(out.clone(0)[0], out.clone(1)[0]))
    assert worst_iso < 1e-12
    assert worst_sym < 1e-12
    announce(7, f"isometry ||V^dag V - I||_F and clone symmetry ||rho_A - rho_B||_F "
                f"below 1e-12 across d = 2..16 (worst {worst_iso:.2e} / {worst_sym:.2e})")


def test_criterion_08_uqcm_superiority():
    gaps = [optimal_fidelity(d) - uqcm_fidelity(d) for d in range(2, 65)]
    assert all(g > 0.0 for g in gaps)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    announce(8, f"optimal fidelity beats the universal baseline for every d = 2..64 "
                f"with a strictly shrinking gap ({gaps[0]:.2e} down to {gaps[-1]:.2e})")


def test_criterion_09_mub_suite():
    t0 = time.perf_counter()
    worst_unb = worst_fid = 0.0
    for d in (3, 5, 7, 11, 13):
        bases = [mub_basis(d, l) for l in range(d)] + [np.eye(d, dtype=np.complex128)]
        for i in range(len(bases)):
            for k in range(i + 1, len(bases)):
                worst_unb = max(worst_unb, unbiasedness_residual(bases[i], bases[k]))
        machine = build_machine(d, *optimal_params(d))
        target = optimal_fidelity(d)
        for l in range(d):
            for row in mub_basis(d, l):
                worst_fid = max(worst_fid, abs(simulate_fidelity(machine, row) - target))
    elapsed = time.perf_counter() - t0
    assert worst_unb < 1e-10
    assert worst_fid < 1e-12
    assert elapsed < 10.0
    announce(9, f"for d in {{3,5,7,11,13}} the d+1 bases are pairwise unbiased "
                f"(worst {worst_unb:.2e}) and every basis state clones at the optimum "
                f"(worst {worst_fid:.2e}, {elapsed:.2f} s)")


def test_criterion_10_reproducible_verify(tmp_path, capsys):
    argv = ["verify", "--d-max", "4", "--trials", "5", "--seed", "11", "--format", "json"]
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        assert cli_main(argv + ["--output", str(path)]) == 0
    capsys.readouterr()
    first, second = paths[0].read_bytes(), paths[1].read_bytes()
    assert first == second
    announce(10, f"verify with a fixed seed emits byte-identical JSON across runs "
                 f"({len(first)} bytes)")


def test_criterion_11_full_range_within_budget(capsys):
    timings = {}
    for argv, budget in ((["verify", "--d-max", "64", "--trials", "2"], 3.0), (["mub", "--d", "61"], 2.0)):
        t0 = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - t0
        capsys.readouterr()
        assert code == 0, argv
        assert elapsed < budget, (argv, elapsed)
        timings[argv[0]] = elapsed
    announce(11, f"the whole accepted range runs clean: verify over d = 2..64 in {timings['verify']:.2f} s "
                 f"(budget 3 s) and mub at d = 61 in {timings['mub']:.2f} s (budget 2 s)")
