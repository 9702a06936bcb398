import dataclasses
import functools
import itertools
import json
import math
import weakref

import numpy as np
import pytest

import phaseclone.audit
import phaseclone.cloner
import phaseclone.states
from phaseclone.audit import AuditReport, _check_outputs, _swap_residual, mub_rows, run_audit
from phaseclone.cli import main
from phaseclone.cloner import (
    CloningMachine,
    _Outputs,
    _simulate,
    build_machine,
    clone_state,
    fidelity_closed_form,
    optimal_params,
    reduced_clone,
    shrink_factor,
)
from phaseclone.linalg import DensityMatrix, fidelity_pure, frobenius_distance
from phaseclone.states import (
    MAX_D,
    UnsupportedDimensionError,
    _random_phase_vectors,
    gram_residual,
    is_prime,
    mub_basis,
    phase_state,
    random_phase_vector,
    unbiasedness_residual,
)
from numpy_oracle import numpy_phases

EQ_CHECKS = {
    "isometry_unitarity",
    "clone_symmetry",
    "closed_form_agreement",
    "scalar_form",
    "reduced_closed_matrix",
    "fidelity_phase_independence",
    "phase_covariance",
    "phase_state_modulus",
}


def numpy_split(rng: np.random.Generator) -> tuple[float, float]:
    """One random split (cos theta, sin theta), theta drawn by numpy's own ``uniform(0, pi/2)``."""
    theta = rng.uniform(0.0, math.pi / 2.0)
    return math.cos(theta), math.sin(theta)


def per_draw_residuals(d_max: int, n_random: int, seed: int) -> dict[str, float]:
    """The sweep's residuals computed one draw at a time, as the audit did before its checks ran over stacks.

    Kept as the reference for the stacked sweep: same machine grid, same sub-seeds, same draw order, and
    the same simulation route, run on a stack of one draw at a time. Its splits and phase vectors come from
    numpy's sequential generator, so it also holds the audit's in-package stream to numpy's, bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    grids = {
        d: [build_machine(d, *optimal_params(d))] + [build_machine(d, *numpy_split(rng)) for _ in range(n_random)]
        for d in range(2, d_max + 1)
    }
    seeds = itertools.count(seed * 1_000_003 + 1)
    worst = dict.fromkeys(
        ("clone_symmetry", "closed_form_agreement", "scalar_form", "reduced_closed_matrix",
         "output_state_validity", "fidelity_phase_independence", "phase_covariance", "phase_state_modulus"),
        0.0,
    )

    def update(name, value):
        worst[name] = max(worst[name], value)

    for d, grid in grids.items():
        for machine in grid:
            red0 = _simulate([machine], phase_state(np.zeros((1, d)))[None]).clone(0)[0]
            fidelities = []
            for _ in range(max(2, n_random)):
                phases = numpy_phases(d, next(seeds))
                psi = phase_state(phases)
                update("phase_state_modulus", float(np.abs(np.abs(psi) - 1.0 / math.sqrt(d)).max()))
                out = _simulate([machine], psi[None, None])
                red_a, red_b, gram = out.clone(0)[0], out.clone(1)[0], out.gram()[0]
                herm = max(frobenius_distance(red, red.conj().T) for red in (red_a, red_b))
                tr_err = abs(gram.diagonal().real.sum() - 1.0)  # ||M||_F^2 is the trace of M^dag M
                min_eig = float(np.linalg.eigvalsh(gram).min())
                update("output_state_validity", max(herm, tr_err, max(0.0, -min_eig)))
                update("clone_symmetry", frobenius_distance(red_a, red_b))
                f_sim = fidelity_pure(psi, DensityMatrix((d,), red_a))
                update("closed_form_agreement", abs(f_sim - fidelity_closed_form(d, machine.alpha, machine.beta)))
                fidelities.append(f_sim)
                eta = shrink_factor(d, machine.alpha, machine.beta)
                twist = d * np.outer(psi, psi.conj())  # e^(i(phi_j - phi_k)), read off the input state
                scalar = (eta / d) * twist + (1.0 - eta) / d * np.eye(d)
                update("scalar_form", frobenius_distance(red_a, scalar))
                closed = (eta / d) * twist
                np.fill_diagonal(closed, 1.0 / d)
                update("reduced_closed_matrix", frobenius_distance(red_a, closed))
                update("phase_covariance", frobenius_distance(red_a, red0 * twist))
            update("fidelity_phase_independence", float(np.std(fidelities, ddof=1)))
    return worst


@pytest.fixture(scope="module")
def small_report() -> AuditReport:
    return run_audit(d_max=3, n_random=10, seed=1)


class TestRunAudit:
    def test_overall_pass(self, small_report):
        assert small_report.overall is True
        assert all(c.passed for c in small_report.checks)

    def test_report_is_immutable_and_hashable(self, small_report):
        with pytest.raises(AttributeError):
            small_report.checks.append(small_report.checks[0])
        assert hash(small_report) == hash(run_audit(d_max=3, n_random=10, seed=1))

    def test_residuals_finite_and_nonnegative(self, small_report):
        for c in small_report.checks:
            assert math.isfinite(c.residual)
            assert c.residual >= 0.0

    def test_clean_run_residuals_all_tiny(self, small_report):
        # on a healthy build every worst-case residual sits at round-off level
        for c in small_report.checks:
            assert c.residual < 1e-12, c.name

    def test_equality_checks_are_tight(self, small_report):
        by_name = {c.name: c for c in small_report.checks}
        for name in EQ_CHECKS:
            assert by_name[name].residual < 1e-12, name

    def test_level2_and_level3_present(self, small_report):
        by_name = {c.name: c for c in small_report.checks}
        assert by_name["level2_value"].residual < 1e-12
        assert by_name["level2_value"].d_range == "2"
        assert by_name["level3_value"].residual < 1e-12
        assert by_name["level3_value"].d_range == "3"

    def test_mub_checks_cover_supported_primes(self):
        report = run_audit(d_max=5, n_random=2, seed=0)
        by_name = {c.name: c for c in report.checks}
        assert by_name["mub_unbiasedness"].d_range == "3;5"
        assert by_name["mub_unbiasedness"].residual < 1e-10
        assert by_name["mub_cloning_uniformity"].residual < 1e-12

    def test_mub_checks_cover_every_odd_prime(self):
        report = run_audit(d_max=17, n_random=1, seed=0)
        mub = [c for c in report.checks if c.name.startswith("mub_")]
        assert [c.d_range for c in mub] == ["3;5;7;11;13;17"] * 2
        assert all(c.passed for c in mub)

    def test_mub_checks_stop_at_max_d_while_the_rest_run_to_d_max(self):
        # the MUB route refuses d > MAX_D; the audit takes the MUB checks up to MAX_D and reports instead of raising
        report = run_audit(d_max=MAX_D + 3, n_random=1, seed=0)
        primes = ";".join(str(d) for d in range(3, MAX_D + 1) if is_prime(d))
        assert {c.name: c.d_range for c in report.checks if c.name.startswith("mub_")} == dict.fromkeys(["mub_unbiasedness", "mub_cloning_uniformity"], primes)
        assert report.checks[0].d_range == f"2..{MAX_D + 3}" and report.overall

    def test_mub_checks_absent_below_three(self):
        report = run_audit(d_max=2, n_random=2, seed=0)
        names = {c.name for c in report.checks}
        assert "mub_unbiasedness" not in names
        assert report.overall is True

    def test_reproducible_bit_for_bit(self):
        a = run_audit(d_max=4, n_random=5, seed=9)
        b = run_audit(d_max=4, n_random=5, seed=9)
        assert a == b
        assert json.dumps(a.to_rows()) == json.dumps(b.to_rows())

    def test_different_seeds_still_pass(self):
        for seed in (0, 7, 12345):
            assert run_audit(d_max=3, n_random=3, seed=seed).overall

    def test_corrupted_machine_trips_the_isometry_check(self):
        report = run_audit(d_max=3, n_random=3, seed=1, corrupt=True)
        assert report.overall is False
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["isometry_unitarity"]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_audit(d_max=1, n_random=1, seed=0)
        with pytest.raises(ValueError):
            run_audit(d_max=2, n_random=0, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer, got -1"):
            run_audit(d_max=3, n_random=1, seed=-1)

    def test_unnormalized_machines_fail_the_output_trace_check(self, monkeypatch):
        # the sweep runs each machine of every chunk scaled by sqrt(0.9), so every output has ||M||_F^2 = 0.9;
        # the closed forms still read the normalized split, which they alone accept
        simulate = phaseclone.audit._simulate

        def scaled(machines, amps):
            s = math.sqrt(0.9)
            return simulate([CloningMachine(m.d, m.alpha * s, m.beta * s) for m in machines], amps)

        monkeypatch.setattr(phaseclone.audit, "_simulate", scaled)
        report = run_audit(d_max=4, n_random=2, seed=0)
        validity = next(c for c in report.checks if c.name == "output_state_validity")
        assert not validity.passed
        assert abs(validity.residual - 0.1) < 1e-12

    def test_positivity_eigensolves_stay_d_by_d(self, monkeypatch):
        # the two-clone state is checked through its d-by-d ancilla Gram, never as a d^2-by-d^2 matrix;
        # only each machine's phase-zero Gram is solved, and the draws are bounded through their covariance
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert run_audit(d_max=6, n_random=2, seed=0).overall
        assert {shape[-2:] for shape in shapes} == {(d, d) for d in range(2, 7)}
        assert sum(math.prod(shape[:-2]) for shape in shapes) == 5 * 3  # d = 2..6, 3 machines, one slice each
        assert not any(shape[-1] ** 2 in shape for shape in shapes)

    @pytest.mark.parametrize("d_max, n, cap, chunks", [
        (5, 1, None, 4),  # at the module's cap, each of these d's machines fit in one chunk
        (4, 3, None, 3),
        (7, 2, None, 6),
        (12, 20, None, 46),  # 1, 1, 1, 2, 3, 3, 4, 6, 7, 7, 11 chunks of 21 machines for d = 2..12
        (5, 1, 1, 8),  # one machine per chunk
        (7, 2, 1, 18),
    ])
    def test_clone_state_call_count_matches_the_closed_count(self, monkeypatch, d_max, n, cap, chunks):
        # one pass: each chunk of whole machines is simulated once, each machine on the phase-zero state stacked
        # with its draws, and each MUB basis once as a stack of its states; the audit never forms the two-clone
        # state and never simulates one state at a time
        if cap is not None:
            monkeypatch.setattr(phaseclone.audit, "CHUNK_BYTES", cap)
        calls = {"clone_state": 0, "simulate_fidelity": 0, "random_phase_vector": 0, "_random_phase_vectors": 0,
                 "_simulate": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in ("clone_state", "simulate_fidelity"):
            wrapped = counting(name, getattr(phaseclone.cloner, name))
            for module in (phaseclone.cloner, phaseclone.audit):
                monkeypatch.setattr(module, name, wrapped, raising=False)
        for name in ("_random_phase_vectors", "_simulate"):  # as bound in the audit only
            monkeypatch.setattr(phaseclone.audit, name, counting(name, getattr(phaseclone.audit, name)))
        # the one-draw route, wherever the audit could reach it
        wrapped = counting("random_phase_vector", phaseclone.states.random_phase_vector)
        for module in (phaseclone.states, phaseclone.cloner, phaseclone.audit):
            monkeypatch.setattr(module, "random_phase_vector", wrapped, raising=False)
        run_audit(d_max=d_max, n_random=n, seed=0)
        mub_bases = sum(d for d in range(3, d_max + 1) if is_prime(d))
        assert calls == {
            "clone_state": 0,
            "simulate_fidelity": 0,
            "random_phase_vector": 0,
            "_random_phase_vectors": d_max - 1,  # every draw of one d in one batch
            "_simulate": chunks + mub_bases,
        }

    def test_plans_are_built_once_per_run_of_one_dimension(self, monkeypatch):
        # every machine of one d shares the clone blocks of its d, so they are built only where the d of consecutive
        # simulations changes: once per d of the sweep, then once per MUB dimension. One machine per chunk
        # (a 1-byte cap) gives each d several chunks
        dims, builds = [], []
        simulate, blocks = phaseclone.audit._simulate, phaseclone.cloner._blocks

        def running(machines, amps):
            dims.extend(machine.d for machine in machines)
            return simulate(machines, amps)

        def building(d):
            builds.append(d)
            return blocks.__wrapped__(d)

        monkeypatch.setattr(phaseclone.audit, "CHUNK_BYTES", 1)
        monkeypatch.setattr(phaseclone.audit, "_simulate", running)
        # the builder behind a fresh cache of the module's own size
        monkeypatch.setattr(phaseclone.cloner, "_blocks", functools.lru_cache(**blocks.cache_parameters())(building))
        assert run_audit(d_max=7, n_random=2, seed=0).overall
        changes = [d for previous, d in zip([None, *dims], dims) if d != previous]
        assert len(dims) > len(changes)
        assert builds == changes == [2, 3, 4, 5, 6, 7, 3, 5, 7]

    @pytest.mark.parametrize("d_max, n_random, seed", [(5, 1, 0), (6, 3, 5), (9, 2, 11), (4, 6, 3)])
    def test_stacked_checks_match_the_per_draw_loop_bit_for_bit(self, d_max, n_random, seed):
        residuals = {c.name: c.residual for c in run_audit(d_max, n_random, seed).checks}
        reference = per_draw_residuals(d_max, n_random, seed)
        assert {name: residuals[name] for name in reference} == reference

    def test_sub_seeds_crossing_2_to_the_128_match_the_per_draw_loop(self):
        # this seed's sub-seeds cross 2^128, where SeedSequence takes a fifth entropy word, at draw 3025 (from 0)
        seed = 340281346076900232762676319402810
        assert seed * 1_000_003 + 3025 < 2**128 <= seed * 1_000_003 + 3026
        residuals = {c.name: c.residual for c in run_audit(9, 20, seed).checks}
        reference = per_draw_residuals(9, 20, seed)
        assert {name: residuals[name] for name in reference} == reference

    @pytest.mark.parametrize("d_max, n_random, seed, corrupt", [
        (9, 20, 0, False),
        (12, 3, 5, False),
        (5, 2, 1, True),
        (9, 20, 340281346076900232762676319402810, False),  # its sub-seeds cross 2^128
    ])
    def test_chunking_cannot_be_seen_in_the_report(self, monkeypatch, d_max, n_random, seed, corrupt):
        # one machine per chunk (a 1-byte cap), the module's cap and one chunk per d (1 GiB) give equal reports
        simulate, machines = phaseclone.audit._simulate, 1 + n_random
        reports, sizes = [], []

        def recording(chunk, amps):
            sizes[-1].append(len(chunk))
            return simulate(chunk, amps)

        monkeypatch.setattr(phaseclone.audit, "_simulate", recording)
        for cap in (1, phaseclone.audit.CHUNK_BYTES, 2**30):
            monkeypatch.setattr(phaseclone.audit, "CHUNK_BYTES", cap)
            sizes.append([])
            reports.append(run_audit(d_max, n_random, seed, corrupt=corrupt))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].overall is not corrupt
        mub_bases = sum(d for d in range(3, d_max + 1) if is_prime(d))
        assert sizes[0] == [1] * ((d_max - 1) * machines + mub_bases)
        assert sizes[2] == [machines] * (d_max - 1) + [1] * mub_bases

    @pytest.mark.parametrize("d_max", [2, 5])
    def test_row_contract_is_pinned(self, d_max):
        # verify prints its CSV and JSON rows in this order, with these labels and tolerances;
        # the rows that need d = 3 are left out at d_max = 2
        report = run_audit(d_max=d_max, n_random=1, seed=0)
        span = f"2..{d_max}"
        rows = [
            ("isometry_unitarity", span, 1e-12),
            ("clone_symmetry", span, 1e-12),
            ("closed_form_agreement", span, 1e-12),
            ("scalar_form", span, 1e-12),
            ("reduced_closed_matrix", span, 1e-12),
            ("output_state_validity", span, 1e-10),
            ("fidelity_phase_independence", span, 1e-12),
            ("phase_covariance", span, 1e-12),
            ("optimum_consistency", span, 1e-9),
            ("sweep_upper_bound", span, 1e-12),
            ("objective_unimodal", span, 0.5),
            ("uqcm_superiority", span, 0.5),
            ("superiority_gap_decreasing", span, 0.5),
            ("optimal_fidelity_decreasing", span, 0.5),
            ("level2_value", "2", 1e-12),
            ("level3_value", "3", 1e-12),
            ("phase_state_modulus", span, 1e-12),
            ("symmetric_pair_swap", span, 1e-15),
            ("mub_unbiasedness", "3;5", 1e-10),
            ("mub_cloning_uniformity", "3;5", 1e-12),
        ]
        if d_max == 2:
            needs_d3 = {"superiority_gap_decreasing", "level3_value", "mub_unbiasedness", "mub_cloning_uniformity"}
            rows = [row for row in rows if row[0] not in needs_d3]
        assert [(c.name, c.d_range, c.tolerance) for c in report.checks] == rows

    def test_the_mub_checks_do_not_run_on_top_of_the_sweep(self, monkeypatch):
        # every machine, draw batch, simulation and stack of the sweep is released before the first MUB dimension
        refs, alive = [], []

        def keeping(fn):
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                refs.append(weakref.ref(result))
                return result

            return kept

        mub_rows = phaseclone.audit.mub_rows

        def listing(d):
            alive.append((len(refs), sum(ref() is not None for ref in refs)))
            return mub_rows(d)

        for name in ("build_machine", "_random_phase_vectors", "_simulate"):
            monkeypatch.setattr(phaseclone.audit, name, keeping(getattr(phaseclone.audit, name)))
        for name in ("clone", "gram"):
            monkeypatch.setattr(_Outputs, name, keeping(getattr(_Outputs, name)))
        monkeypatch.setattr(phaseclone.audit, "mub_rows", listing)
        assert run_audit(d_max=6, n_random=3, seed=0).overall
        # d = 2..6, each: 4 machines, one batch of draws, one chunk's simulation and its 3 stacks, none alive
        assert alive[0] == (5 * (4 + 1 + 1 + 3), 0)

    def test_machines_are_built_and_swept_one_dimension_at_a_time(self, monkeypatch):
        # the d of every machine the sweep builds or runs, in call order, up to the MUB checks' own machines
        seen = []
        build_machine, simulate, mub_rows = (
            phaseclone.audit.build_machine, phaseclone.audit._simulate, phaseclone.audit.mub_rows
        )

        def building(d, *args):
            seen.append(d)
            return build_machine(d, *args)

        def running(machines, amps):
            seen.extend(machine.d for machine in machines)
            return simulate(machines, amps)

        def listing(d):
            seen.append("mub")
            return mub_rows(d)

        monkeypatch.setattr(phaseclone.audit, "build_machine", building)
        monkeypatch.setattr(phaseclone.audit, "_simulate", running)
        monkeypatch.setattr(phaseclone.audit, "mub_rows", listing)
        assert run_audit(d_max=5, n_random=2, seed=0).overall
        sweep = seen[: seen.index("mub")]
        assert set(sweep) == {2, 3, 4, 5}
        assert sweep == sorted(sweep)

    def test_a_nan_reduction_fails_every_check_that_reads_it(self, monkeypatch):
        # Python's max(worst, nan) keeps worst, so each fold must keep the NaN instead
        clone_stack = _Outputs.clone

        def poisoned(out, clone=0):
            red = clone_stack(out, clone)
            red[:, 0, 1] = math.nan
            return red

        monkeypatch.setattr(_Outputs, "clone", poisoned)
        report = run_audit(d_max=4, n_random=2, seed=0)
        assert report.overall is False
        by_name = {c.name: c for c in report.checks}
        for name in ("clone_symmetry", "closed_form_agreement", "scalar_form", "reduced_closed_matrix",
                     "output_state_validity", "fidelity_phase_independence", "phase_covariance"):
            assert math.isnan(by_name[name].residual) and not by_name[name].passed, name

    def test_a_nan_output_factor_fails_verify_instead_of_raising(self, monkeypatch, capsys):
        # a NaN in M reaches the Gram M^dag M, whose eigensolve would raise on it; nonzero 0 of V sits
        # in row 0, so a NaN there, in every machine's row of vals, puts one at M[0, 0] of every output
        simulate = phaseclone.audit._simulate

        def poisoned(machines, amps):
            out = simulate(machines, amps)
            vals = out.vals.copy()
            vals[:, 0] = math.nan
            return dataclasses.replace(out, vals=vals)

        monkeypatch.setattr(phaseclone.audit, "_simulate", poisoned)
        assert main(["verify", "--d-max", "4", "--trials", "2"]) == 1
        assert "output_state_validity,2..4,false,nan,1e-10\n" in capsys.readouterr().out

    def test_a_nan_mub_fidelity_fails_mub_and_verify(self, monkeypatch, capsys):
        fidelity = _Outputs.fidelity
        target = mub_basis(3, 0)[1]

        def poisoned(out):
            f = fidelity(out)
            f[[np.array_equal(psi, target) for psi in out.amps]] = math.nan
            return f

        monkeypatch.setattr(_Outputs, "fidelity", poisoned)
        assert main(["mub", "--d", "3"]) == 1
        assert "fidelity,0,1,nan\n" in capsys.readouterr().out
        checks = run_audit(d_max=3, n_random=1, seed=0).checks
        uniformity = next(c for c in checks if c.name == "mub_cloning_uniformity")
        assert math.isnan(uniformity.residual) and not uniformity.passed

    def test_unequal_moduli_fail_the_phase_state_modulus_check(self, monkeypatch):
        # a normalized state whose amplitudes are not all 1/sqrt(d): |amps|^2 = (2, 1, ..., 1) / (d + 1)
        def lopsided(phases):
            amps = np.exp(1j * np.asarray(phases))
            amps[..., 0] *= math.sqrt(2.0)
            return amps / math.sqrt(amps.shape[-1] + 1)

        monkeypatch.setattr(phaseclone.audit, "phase_state", lopsided)
        report = run_audit(d_max=4, n_random=2, seed=0)
        modulus = next(c for c in report.checks if c.name == "phase_state_modulus")
        assert not modulus.passed
        # worst at d = 4, where |amps[0]| = sqrt(2/5) against 1/2
        assert abs(modulus.residual - (math.sqrt(0.4) - 0.5)) < 1e-12

    def test_an_unnormalized_state_fails_checks_instead_of_raising(self, monkeypatch):
        # the simulation takes the states the audit built without re-checking their norm, so a state scaled by 1.01
        # is simulated, and the checks that read its norm record it: failures are recorded, never raised
        build = phaseclone.audit.phase_state
        monkeypatch.setattr(phaseclone.audit, "phase_state", lambda phases: build(phases) * 1.01)
        by_name = {c.name: c for c in run_audit(4, 2, 0).checks}
        for name in ("closed_form_agreement", "output_state_validity", "phase_state_modulus"):
            assert not by_name[name].passed, name

    def test_each_argument_is_checked_once_where_it_enters(self, monkeypatch):
        # the sub-seeds derived from a checked seed were each re-checked (4635 integer checks in this run), and every
        # state stack the audit built was re-normalized; the private routes now take checked values
        calls = {"_integer": 0, "_normalized": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(phaseclone.states, "_integer")
        counting(phaseclone.cloner, "_normalized")
        assert run_audit(12, 20, 1).overall
        assert calls["_integer"] <= 100 and calls["_normalized"] == 0, calls

    def test_a_phase_independent_offset_fails_the_phase_covariance_check(self, monkeypatch):
        # adding eps(|0><1| + |1><0|) to every reduction survives at phase zero but not under U_phi
        clone_stack = _Outputs.clone
        eps = 1e-6

        def offset(out, clone=0):
            red = clone_stack(out, clone)
            red[:, 0, 1] += eps
            red[:, 1, 0] += eps
            return red

        monkeypatch.setattr(_Outputs, "clone", offset)
        report = run_audit(d_max=4, n_random=2, seed=0)
        covariance = next(c for c in report.checks if c.name == "phase_covariance")
        assert not covariance.passed
        assert covariance.residual <= 2.0 * math.sqrt(2.0) * eps + 1e-12  # ||U X U^dag - X||_F <= 2 ||X||_F

    def test_a_non_hermitian_reduction_fails_checks_instead_of_raising(self, monkeypatch, capsys):
        # adding i eps(|0><1| + |1><0|) makes every reduction non-Hermitian and <psi|rho_A|psi> complex
        clone_stack = _Outputs.clone
        eps = 1e-6

        def skewed(out, clone=0):
            red = clone_stack(out, clone)
            red[:, 0, 1] += 1j * eps
            red[:, 1, 0] += 1j * eps
            return red

        monkeypatch.setattr(_Outputs, "clone", skewed)
        by_name = {c.name: c for c in run_audit(d_max=4, n_random=2, seed=0).checks}
        validity, agreement = by_name["output_state_validity"], by_name["closed_form_agreement"]
        assert not validity.passed and not agreement.passed
        assert abs(validity.residual - 2.0 * math.sqrt(2.0) * eps) < 1e-12  # ||rho - rho^dag||_F, the Hermiticity term
        assert agreement.residual <= eps + 1e-12  # |Im <psi|rho_A|psi>| = eps |2 Re(conj(psi_0) psi_1)| <= eps
        assert main(["verify", "--d-max", "4", "--trials", "2"]) == 1

    def test_rows_serialization_shape(self, small_report):
        rows = small_report.to_rows()
        assert len(rows) == len(small_report.checks)
        for row in rows:
            assert set(row) == {"check", "d_range", "passed", "residual", "tolerance"}
            assert isinstance(row["passed"], bool)
            assert isinstance(row["residual"], float)


class TestPositivityBound:
    """``output_state_validity``'s positivity term: -lambda_min of each machine's phase-zero Gram plus its draws' worst
    covariance residual, which by Weyl's inequality bounds every draw's -lambda_min from above.

    A machine's ``output_state_validity`` entry is the largest of the term and the trace and Hermiticity residuals,
    and the report folds the entries into a maximum that starts at 0, so it bounds every draw's computed
    max(0, -lambda_min) outright. Below 0 the two eigensolves round apart: on a positive definite Gram the term
    may sit up to a few ulps of tr G = 1 under the draw's own -lambda_min (1.4e-16 at worst over d = 2..64).
    A machine's Gram M^dag M is positive semidefinite, so there the entry is a trace or Hermiticity residual; a
    planted negative eigenvalue makes the entry the term itself, which is then held to the same two bounds.
    """

    SPLITS = [(1.0, 0.0), (0.0, 1.0), (math.cos(0.3), math.sin(0.3))]

    @pytest.mark.parametrize("d", [*range(2, 13), 64])
    def test_the_noted_term_bounds_every_draw_of_every_machine(self, d):
        machines = [build_machine(d, *optimal_params(d))] + [build_machine(d, a, b) for a, b in self.SPLITS]
        draws = _random_phase_vectors(d, range(d, d + 5 * len(machines))).reshape(len(machines), 5, d)
        for machine, row in zip(machines, draws):
            phases = np.concatenate([np.zeros((1, 1, d)), row[None]], axis=1)
            # the machine's validity entry: the positivity term, or a trace or Hermiticity residual above it
            (term,) = _check_outputs([machine], phases)["output_state_validity"].tolist()
            lowest = -np.linalg.eigvalsh(_simulate([machine], phase_state(row)[None]).gram()).min()
            assert max(term, 0.0) >= max(lowest, 0.0), (machine.alpha, machine.beta)
            assert term >= lowest - 4.0 * np.finfo(float).eps, (machine.alpha, machine.beta)

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_with_a_negative_eigenvalue_the_entry_is_the_term_and_bounds_every_draw(self, monkeypatch, d):
        # every Gram of a stack gets eigenvalue about -1e-8 along the phase-zero Gram's lowest eigenvector, conjugated
        # by the row's U_phi, its weight moved to the top one: the trace stays 1 and G_phi = U_phi G_0 U_phi^dag holds
        gram_stack = _Outputs.gram
        eps = 1e-8

        def dented(out):
            gram = gram_stack(out)
            w, u = np.linalg.eigh(gram[0])
            dent = (w[0] + eps) * (np.outer(u[:, -1], u[:, -1].conj()) - np.outer(u[:, 0], u[:, 0].conj()))
            twist = d * out.amps[:, :, None] * out.amps.conj()[:, None, :]  # U_phi X U_phi^dag is X * twist
            return gram + dent * twist

        monkeypatch.setattr(_Outputs, "gram", dented)
        machines = [build_machine(d, *optimal_params(d))] + [build_machine(d, a, b) for a, b in self.SPLITS]
        draws = _random_phase_vectors(d, range(d, d + 5 * len(machines))).reshape(len(machines), 5, d)
        for machine, row in zip(machines, draws):
            phases = np.concatenate([np.zeros((1, 1, d)), row[None]], axis=1)
            (term,) = _check_outputs([machine], phases)["output_state_validity"].tolist()
            out = _simulate([machine], phase_state(phases[0])[None])
            gram, reds = out.gram()[1:], [out.clone(i)[1:] for i in (0, 1)]
            others = max(np.abs(np.trace(gram, axis1=1, axis2=2) - 1.0).max(),
                         *(np.linalg.norm(red - red.conj().swapaxes(1, 2), axis=(1, 2)).max() for red in reds))
            lowest = -np.linalg.eigvalsh(gram).min()
            assert lowest > eps / 2 and term > others, (machine.alpha, machine.beta)  # the entry is the term
            # the term, summed as every other matrix residual: -lambda_min(G_0) plus the worst ||G_phi - G_0 twist||_F
            gram0, amps = out.gram()[0], out.amps[1:]
            twist = (amps[:, :, None] * amps.conj()[:, None, :]) * d
            drift = frobenius_distance(gram, gram0 * twist)
            assert term == -np.linalg.eigvalsh(gram0)[0] + drift, (machine.alpha, machine.beta)
            assert max(term, 0.0) >= max(lowest, 0.0), (machine.alpha, machine.beta)
            assert term >= lowest - 4.0 * np.finfo(float).eps, (machine.alpha, machine.beta)

    def test_one_draw_with_a_negative_eigenvalue_fails_the_check(self, monkeypatch, capsys):
        # at d = 4, draw 1 of the chunk's first machine (not its phase-zero row 0) gets eigenvalue -1e-8: its lowest
        # eigenvector's weight moves to its top one, so the trace stays 1 and only positivity breaks
        gram_stack = _Outputs.gram
        eps = 1e-8

        def dented(out):
            gram = gram_stack(out)
            if gram.shape[-1] == 4:
                w, u = np.linalg.eigh(gram[1])
                w[-1] += w[0] + eps
                w[0] = -eps
                gram[1] = (u * w) @ u.conj().T
            return gram

        monkeypatch.setattr(_Outputs, "gram", dented)
        validity = next(c for c in run_audit(d_max=4, n_random=2, seed=0).checks if c.name == "output_state_validity")
        assert not validity.passed
        assert validity.residual >= eps
        assert main(["verify", "--d-max", "4", "--trials", "2"]) == 1
        assert "output_state_validity,2..4,false," in capsys.readouterr().out


class TestPerMachineResiduals:
    """``_check_outputs`` returns each check's worst residual per machine, read off that machine's rows alone."""

    # every check that reads clone A's reduction of a draw; phase_state_modulus reads the input states only
    READERS = ("output_state_validity", "clone_symmetry", "closed_form_agreement", "fidelity_phase_independence",
               "scalar_form", "reduced_closed_matrix", "phase_covariance")
    DRAWS = 3

    def chunk(self, d):
        """The optimum and three other machines of d, each with its phase-zero row and ``DRAWS`` seeded draws."""
        machines = [build_machine(d, *optimal_params(d))]
        machines += [build_machine(d, a, b) for a, b in TestPositivityBound.SPLITS]
        draws = _random_phase_vectors(d, range(d, d + self.DRAWS * len(machines))).reshape(len(machines), self.DRAWS, d)
        return machines, np.concatenate([np.zeros((len(machines), 1, d)), draws], axis=1)

    @pytest.mark.parametrize("d", [2, 3, 8, 17])
    def test_a_chunk_returns_its_machines_one_call_each_joined(self, d):
        machines, phases = self.chunk(d)
        together = _check_outputs(machines, phases)
        alone = [_check_outputs([machine], row[None]) for machine, row in zip(machines, phases)]
        assert set(together) == {*self.READERS, "phase_state_modulus"}
        for name, got in together.items():
            assert got.shape == (len(machines),), name
            assert got.tolist() == np.concatenate([one[name] for one in alone]).tolist(), name

    @pytest.mark.parametrize("i", range(4))
    def test_a_nan_in_one_machines_reduction_reaches_only_its_entries(self, monkeypatch, i):
        d, r = 3, 1 + self.DRAWS
        machines, phases = self.chunk(d)
        clean = _check_outputs(machines, phases)
        clone_stack = _Outputs.clone

        def poisoned(out, clone=0):
            red = clone_stack(out, clone)
            red[i * r + 1, 0, 1] = math.nan  # machine i's first draw, not its phase-zero row
            return red

        monkeypatch.setattr(_Outputs, "clone", poisoned)
        found = _check_outputs(machines, phases)
        for name in self.READERS:
            assert np.isnan(found[name]).tolist() == [j == i for j in range(len(machines))], name
            assert np.delete(found[name], i).tolist() == np.delete(clean[name], i).tolist(), name
        assert found["phase_state_modulus"].tolist() == clean["phase_state_modulus"].tolist()

    @pytest.mark.parametrize("i", range(4))
    def test_a_nan_phase_zero_gram_fails_only_its_machine_instead_of_raising(self, monkeypatch, i):
        d, r = 4, 1 + self.DRAWS
        machines, phases = self.chunk(d)
        clean = _check_outputs(machines, phases)["output_state_validity"]
        gram_stack = _Outputs.gram

        def poisoned(out):
            gram = gram_stack(out)
            gram[i * r, 0, 0] = math.nan  # machine i's phase-zero Gram, which the eigensolve reads
            return gram

        monkeypatch.setattr(_Outputs, "gram", poisoned)
        validity = _check_outputs(machines, phases)["output_state_validity"]
        assert np.isnan(validity).tolist() == [j == i for j in range(len(machines))]
        assert np.delete(validity, i).tolist() == np.delete(clean, i).tolist()

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_both_closed_form_rows_are_distances_from_their_own_reference(self, monkeypatch, d):
        # on a phase state the shrink form's diagonal is 1/d, the closed matrix's, up to rounding; on a state of
        # unequal moduli it is not, so a row that read the other reference's diagonal would move by more than
        # rounding. Unequal values on V's nonzeros move the reductions' diagonal as well
        def lopsided(phases):
            amps = np.exp(1j * np.asarray(phases))
            amps[..., 0] *= math.sqrt(2.0)
            return amps / math.sqrt(amps.shape[-1] + 1)

        monkeypatch.setattr(phaseclone.audit, "phase_state", lopsided)
        machines, phases = self.chunk(d)
        rng = np.random.default_rng(d)
        for machine in machines[1:3]:
            object.__setattr__(machine, "vals", rng.normal(size=machine.vals.size))
        found = _check_outputs(machines, phases)
        k, r, _ = phases.shape
        states = lopsided(phases)
        reds = _simulate(machines, states).clone(0).reshape(k, r, d, d)[:, 1:]
        for i, machine in enumerate(machines):
            eta = shrink_factor(d, machine.alpha, machine.beta)
            twist = states[i, 1:, :, None] * states[i, 1:, None, :].conj()
            twist *= d
            shrink, closed = (eta / d) * twist, (eta / d) * twist
            for t in range(r - 1):
                shrink[t].flat[:: d + 1] += (1.0 - eta) / d
                closed[t].flat[:: d + 1] = 1.0 / d
            scalar_form = max(frobenius_distance(red, ref) for red, ref in zip(reds[i], shrink))
            closed_matrix = max(frobenius_distance(red, ref) for red, ref in zip(reds[i], closed))
            assert found["scalar_form"][i] == scalar_form, i
            assert found["reduced_closed_matrix"][i] == closed_matrix, i
            assert eta == 0.0 or abs(scalar_form - closed_matrix) > 1e-3, i  # at eta = 0 both references are I/d


class TestTwist:
    """verify's twist e^(i(phi_j - phi_k)) is d psi_j conj(psi_k) of the phase state psi = e^(i phi) / sqrt(d)."""

    def test_the_phase_state_twist_lies_within_8_eps_of_the_exponential_form(self):
        for d in range(2, 65):
            phases = _random_phase_vectors(d, range(d, d + 200))
            psi = phase_state(phases)
            twist = psi[:, :, None] * psi.conj()[:, None, :]
            twist *= d
            exact = np.exp(1j * (phases[:, :, None] - phases[:, None, :]))
            assert np.abs(twist - exact).max() <= 8.0 * np.finfo(float).eps, d

    def test_a_phase_dependent_covariance_defect_fails_every_twist_check(self, monkeypatch):
        # each reduction conjugated once more by U_phi = diag(e^(i phi)) = diag(sqrt(d) psi) is covariant, but under
        # the doubled phase; a twist read off the outputs would follow it, one read off the input states cannot
        clone_stack = _Outputs.clone

        def doubled(out, clone=0):
            red = clone_stack(out, clone)
            u = math.sqrt(red.shape[-1]) * out.amps
            return u[:, :, None] * red * u.conj()[:, None, :]

        monkeypatch.setattr(_Outputs, "clone", doubled)
        by_name = {c.name: c for c in run_audit(d_max=4, n_random=2, seed=0).checks}
        for name in ("scalar_form", "reduced_closed_matrix", "phase_covariance"):
            assert not by_name[name].passed and by_name[name].residual > 1e-3, name


class TestCovarianceStructure:
    def test_residual_below_tolerance(self):
        report = run_audit(d_max=5, n_random=10, seed=4)
        row = next(c for c in report.checks if c.name == "phase_covariance")
        assert row.d_range == "2..5"
        assert row.residual < 1e-12

    def test_beta_zero_is_trivially_covariant(self):
        # both sides of reduced(rho(phi)) = U_phi reduced(rho(0)) U_phi^dag are I/d
        machine = build_machine(3, 1.0, 0.0)
        red0 = reduced_clone(clone_state(machine, phase_state(np.zeros(3)))).mat
        for seed in range(5):
            phases = random_phase_vector(3, seed)
            red = reduced_clone(clone_state(machine, phase_state(phases))).mat
            u = np.diag(np.exp(1j * phases))
            assert frobenius_distance(red, u @ red0 @ u.conj().T) < 1e-14

    def test_d2_pi_phase_flips_off_diagonal_sign(self):
        machine = build_machine(2, *optimal_params(2))
        red0 = reduced_clone(clone_state(machine, phase_state([0.0, 0.0])))
        red_pi = reduced_clone(clone_state(machine, phase_state([0.0, math.pi])))
        assert red_pi.mat[0, 1] == pytest.approx(-red0.mat[0, 1], abs=1e-15)
        np.testing.assert_allclose(np.diag(red_pi.mat), np.diag(red0.mat), atol=1e-15)


class TestCloneSwapSymmetry:
    """The ``symmetric_pair_swap`` row: V[(a, b, c), j] == V[(b, a, c), j] for every nonzero of every machine."""

    def test_every_machine_is_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for d in range(2, 65):
            splits = [optimal_params(d), (1.0, 0.0), (0.0, 1.0)]
            splits += [numpy_split(rng) for _ in range(3)]
            machines = [build_machine(d, *split) for split in splits]
            vals = np.stack([m.vals for m in machines])
            assert _swap_residual(d, machines[0].rows, machines[0].cols, vals).tolist() == [0.0] * len(machines)

    def test_one_asymmetric_value_fails_the_check(self):
        # scaling the |jl>|R_l> nonzero of the first pair (j, l) = (0, 1) leaves its partner |lj>|R_l> behind
        d = 5
        machine = build_machine(d, *optimal_params(d))
        vals = machine.vals.copy()
        vals[d] *= 1.5
        intact, residual = _swap_residual(d, machine.rows, machine.cols, np.stack([machine.vals, vals])).tolist()
        assert intact == 0.0
        assert residual == pytest.approx(0.5 * machine.vals[d], abs=1e-15)
        assert residual >= phaseclone.audit.CHECKS["symmetric_pair_swap"]

    def test_a_nonzero_without_a_partner_counts_against_zero(self):
        # moving |01>|R_1> of column 0 to |01>|R_0> of column 0, where V has no nonzero, leaves it and |10>|R_1> unpaired
        d = 3
        machine = build_machine(d, *optimal_params(d))
        rows = machine.rows.copy()
        rows[d] -= 1
        assert _swap_residual(d, rows, machine.cols, machine.vals) == machine.vals[d]

    def test_a_nan_value_fails_the_check(self):
        machine = build_machine(4, *optimal_params(4))
        vals = machine.vals.copy()
        vals[0] = math.nan
        intact, residual = _swap_residual(4, machine.rows, machine.cols, np.stack([machine.vals, vals])).tolist()
        assert intact == 0.0
        assert math.isnan(residual)

    def test_an_asymmetric_machine_fails_the_audit_row(self, monkeypatch):
        build = phaseclone.audit.build_machine

        def lopsided(d, *split):
            machine = build(d, *split)
            if d == 4:
                vals = machine.vals.copy()
                vals[d] *= 1.5
                object.__setattr__(machine, "vals", vals)
            return machine

        monkeypatch.setattr(phaseclone.audit, "build_machine", lopsided)
        report = run_audit(d_max=5, n_random=1, seed=0)
        swap = next(c for c in report.checks if c.name == "symmetric_pair_swap")
        assert not swap.passed
        assert swap.residual > 0.1 / math.sqrt(6.0)


def mub_rows_reference(d):
    """The MUB rows basis by basis: one ``mub_basis`` call per basis, one residual call per pair, one simulation per basis."""
    bases = [(str(l), mub_basis(d, l)) for l in range(d)] + [("std", np.eye(d, dtype=np.complex128))]
    rows = [{"kind": "orthonormality", "i": i, "j": i, "value": gram_residual(b)} for i, b in bases]
    for (i, a), (j, b) in itertools.combinations(bases, 2):
        rows.append({"kind": "unbiasedness", "i": i, "j": j, "value": unbiasedness_residual(a, b)})
    machine = build_machine(d, *optimal_params(d))
    for l, basis in bases[:-1]:
        fidelities = _simulate([machine], basis[None]).fidelity()
        rows += [{"kind": "fidelity", "i": l, "j": str(t), "value": float(f)} for t, f in enumerate(fidelities)]
    return rows


class TestMubRows:
    """``mub_rows`` builds and checks whole bases; the basis-by-basis loop is its reference."""

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 29])
    def test_matches_the_basis_by_basis_loop_exactly(self, d):
        rows = mub_rows(d)
        assert rows == mub_rows_reference(d)
        assert all(type(row["value"]) is float for row in rows)

    @pytest.mark.parametrize("d", [2.5, math.nan, math.inf, 3.0])
    def test_rejects_a_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match="d must be >= 2 and an integer"):
            mub_rows(d)

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_rejects_a_dimension_without_this_construction(self, d):
        with pytest.raises(UnsupportedDimensionError):
            mub_rows(d)
