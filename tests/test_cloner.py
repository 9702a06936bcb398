import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseclone.cloner
from phaseclone.audit import mub_rows, run_audit
from phaseclone.cloner import (
    CloningMachine,
    FidelityReport,
    VerificationError,
    _fidelity,
    _blocks,
    _indices,
    _output_factor,
    _Outputs,
    _shrink,
    _simulate,
    _unitarity_residuals,
    build_machine,
    clone_state,
    fidelity_closed_form,
    fidelity_report,
    optimal_fidelity,
    optimal_params,
    reduced_clone,
    shrink_factor,
    simulate_fidelity,
    uqcm_fidelity,
)
from phaseclone.linalg import (
    EQ_TOL,
    PSD_TOL,
    DensityMatrix,
    DimensionError,
    fidelity_pure,
    frobenius_distance,
    partial_trace,
)
from phaseclone.optimize import maximize_fidelity, sweep_alpha
from phaseclone.states import phase_state, random_phase_vector
from plan_oracle import block_cols, build_plan

INV_SQRT2 = 0.7071067811865476
INV_SQRT8 = 0.35355339059327373
OPT4 = 0.7057189138830738  # golden-section maximization of the d=4 objective


def isometry_loop_reference(d, alpha, beta):
    """Reference isometry, filled entry by entry in Python loops straight from the defining sum."""
    v = np.zeros((d**3, d), dtype=np.complex128)
    off = beta / math.sqrt(2.0 * (d - 1))
    for j in range(d):
        v[(j * d + j) * d + j, j] = alpha
        for l in range(d):
            if l != j:
                v[(j * d + l) * d + l, j] += off
                v[(l * d + j) * d + l, j] += off
    return v


def split_grid(d, rng):
    """The optimal split of dimension d followed by three random points on the parameter circle."""
    thetas = rng.uniform(0, math.pi / 2, size=3)
    return [optimal_params(d), *zip(np.cos(thetas), np.sin(thetas))]


def traced_peak_bytes(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs, above what was live before (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


# every function that checks d through linalg._integer, directly or in cloner._check_domain, called with a valid split
# where it takes one
DOMAIN_CHECKED = {
    "optimal_params": optimal_params,
    "optimal_fidelity": optimal_fidelity,
    "uqcm_fidelity": uqcm_fidelity,
    "fidelity_closed_form": lambda d: fidelity_closed_form(d, 0.6, 0.8),
    "shrink_factor": lambda d: shrink_factor(d, 0.6, 0.8),
    "sweep_alpha": lambda d: sweep_alpha(d, 5),
    "maximize_fidelity": maximize_fidelity,
    "build_machine": lambda d: build_machine(d, 0.6, 0.8),
}

# every public entry point that takes input states, each called on one (d,) state; the private simulation route
# takes the stacks these checked or the package built, and checks only their shape (TestSimulate)
STATE_ENTRY_POINTS = {
    "simulate_fidelity": simulate_fidelity,
    "clone_state": clone_state,
    "fidelity_pure": lambda machine, psi: fidelity_pure(psi, DensityMatrix((machine.d,), np.eye(machine.d) / machine.d)),
}


def two_clone_output_oracle(d, alpha, beta, phases):
    """Independent construction of the ancilla-traced output, term by term.

    Sums the diagonal copier part, the copier/spread cross part and the
    spread part of the two-clone state directly in the d^2 basis, instead
    of going through the isometry.
    """
    phases = np.asarray(phases)

    def pair(j, l):
        v = np.zeros(d * d, dtype=complex)
        v[j * d + l] += 1.0
        v[l * d + j] += 1.0
        return v  # |jl> + |lj>, unnormalized on purpose

    rho = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        jj = np.zeros(d * d, dtype=complex)
        jj[j * d + j] = 1.0
        rho += (alpha**2 / d) * np.outer(jj, jj.conj())
    cross = alpha * beta / (d * math.sqrt(2.0 * (d - 1)))
    for j in range(d):
        for l in range(d):
            if l == j:
                continue
            jj = np.zeros(d * d, dtype=complex)
            jj[j * d + j] = 1.0
            ll = np.zeros(d * d, dtype=complex)
            ll[l * d + l] = 1.0
            phase = np.exp(1j * (phases[j] - phases[l]))
            rho += cross * phase * (np.outer(jj, pair(j, l).conj()) + np.outer(pair(j, l), ll.conj()))
    spread = beta**2 / (2.0 * d * (d - 1))
    for j in range(d):
        for jp in range(d):
            for l in range(d):
                if l == j or l == jp:
                    continue
                phase = np.exp(1j * (phases[j] - phases[jp]))
                rho += spread * phase * np.outer(pair(j, l), pair(jp, l).conj())
    return rho


class TestBuildMachine:
    def test_d2_optimal_column_zero(self):
        machine = build_machine(2, INV_SQRT2, INV_SQRT2)
        col = machine.isometry[:, 0]
        expected = np.zeros(8, dtype=complex)
        expected[(0 * 2 + 0) * 2 + 0] = INV_SQRT2  # |00>|0>_a
        expected[(0 * 2 + 1) * 2 + 1] = 0.5        # |01>|1>_a
        expected[(1 * 2 + 0) * 2 + 1] = 0.5        # |10>|1>_a
        np.testing.assert_allclose(col, expected, atol=1e-15)

    def test_d2_optimal_column_one(self):
        machine = build_machine(2, INV_SQRT2, INV_SQRT2)
        col = machine.isometry[:, 1]
        expected = np.zeros(8, dtype=complex)
        expected[(1 * 2 + 1) * 2 + 1] = INV_SQRT2  # |11>|1>_a
        expected[(0 * 2 + 1) * 2 + 0] = 0.5        # |01>|0>_a
        expected[(1 * 2 + 0) * 2 + 0] = 0.5        # |10>|0>_a
        np.testing.assert_allclose(col, expected, atol=1e-15)

    def test_beta_zero_is_exact_basis_copier(self):
        for d in (2, 3, 5):
            machine = build_machine(d, 1.0, 0.0)
            for j in range(d):
                expected = np.zeros(d**3, dtype=complex)
                expected[(j * d + j) * d + j] = 1.0
                np.testing.assert_array_equal(machine.isometry[:, j], expected)

    def test_machines_of_one_dimension_share_the_index_layout(self):
        # rows/cols depend on d alone, so every machine of one d reads equal read-only arrays, and every simulation of
        # one d reads the one cached pair of clone blocks
        first, second = build_machine(5, *optimal_params(5)), build_machine(5, 1.0, 0.0)
        for got, want in ((first.rows, second.rows), (first.cols, second.cols)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable and not want.flags.writeable
        psi = np.full((1, 1, 5), 1 / math.sqrt(5))
        assert _simulate([first], psi).blocks is _simulate([second], psi).blocks is _blocks(5)

    def test_derived_isometry_matches_the_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for d in range(2, 17):
            thetas = rng.uniform(0, math.pi / 2, size=3)
            for alpha, beta in [optimal_params(d), *zip(np.cos(thetas), np.sin(thetas))]:
                machine = build_machine(d, alpha, beta)
                np.testing.assert_array_equal(
                    machine.isometry, isometry_loop_reference(d, machine.alpha, machine.beta)
                )
                assert not machine.isometry.flags.writeable

    def test_stores_only_the_nonzeros(self):
        for d in (2, 3, 16, 64):
            machine = build_machine(d, *optimal_params(d))
            assert machine.rows.size == machine.cols.size == machine.vals.size == 2 * d * d - d
            assert np.unique(machine.rows).size == machine.rows.size  # at most one nonzero per row
            for f in dataclasses.fields(machine):
                value = getattr(machine, f.name)
                if isinstance(value, np.ndarray):
                    assert value.size < d**3
                    assert not value.flags.writeable

    def test_isometry_view_is_rebuilt_not_cached(self):
        machine = build_machine(3, *optimal_params(3))
        assert machine.isometry is not machine.isometry
        assert "isometry" not in vars(machine)

    def test_build_at_d64_traces_under_one_megabyte(self):
        machine, peak = traced_peak_bytes(lambda: build_machine(64, *optimal_params(64)))
        assert machine.d == 64
        assert peak < 1_000_000

    def test_machines_with_equal_parameters_are_equal_values(self):
        a = build_machine(3, *optimal_params(3))
        b = build_machine(3, *optimal_params(3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != build_machine(3, 1.0, 0.0)
        assert a != build_machine(5, *optimal_params(5))

    def test_isometry_at_d3_optimum(self):
        machine = build_machine(3, *optimal_params(3))
        assert machine.unitarity_residual() < 1e-12

    def test_isometry_on_random_parameter_circle(self):
        rng = np.random.default_rng(11)
        for d in range(2, 17):
            for _ in range(20):
                theta = rng.uniform(0, math.pi / 2)
                machine = build_machine(d, math.cos(theta), math.sin(theta))
                assert machine.unitarity_residual() < 1e-12

    def test_unitarity_residual_matches_the_dense_route(self):
        rng = np.random.default_rng(23)
        for d in range(2, 17):
            machines = [build_machine(d, alpha, beta) for alpha, beta in split_grid(d, rng)]
            opt = machines[0]
            machines.append(CloningMachine(d, opt.alpha * math.sqrt(0.9), opt.beta * math.sqrt(0.9)))
            for machine in machines:
                v = machine.isometry  # reference: V^dag V from the dense d^3-by-d matrix
                dense = float(np.linalg.norm(v.conj().T @ v - np.eye(d)))
                assert machine.unitarity_residual() == pytest.approx(dense, abs=1e-13)

    def test_unitarity_residual_at_d64_traces_under_one_megabyte(self):
        machine = build_machine(64, *optimal_params(64))
        residual, peak = traced_peak_bytes(machine.unitarity_residual)
        assert residual < 1e-12
        assert peak < 1_000_000

    def test_unitarity_residual_refuses_a_row_with_two_nonzeros(self):
        rows = build_machine(3, *optimal_params(3)).rows.copy()
        rows[-1] = rows[0]

        class TwoInOneRow(CloningMachine):
            @property
            def rows(self):
                return rows

        machine = TwoInOneRow(3, *optimal_params(3))
        with pytest.raises(ValueError, match="more than one nonzero"):
            machine.unitarity_residual()

    def test_stacked_residuals_equal_the_norm_of_each_machine_bit_for_bit(self):
        # one pass over one d's machines, the unnormalized one included, against np.linalg.norm of each diagonal
        rng = np.random.default_rng(29)
        for d in range(2, 65):
            machines = [build_machine(d, *optimal_params(d))]
            machines += [build_machine(d, math.cos(t), math.sin(t)) for t in rng.uniform(0, math.pi / 2, 20)]
            opt = machines[0]
            machines.append(CloningMachine(d, opt.alpha * math.sqrt(0.9), opt.beta * math.sqrt(0.9)))
            expected = [
                float(np.linalg.norm(np.bincount(m.cols, weights=np.abs(m.vals) ** 2, minlength=d) - 1.0))
                for m in machines
            ]
            assert _unitarity_residuals(machines).tolist() == expected, d
            assert [m.unitarity_residual() for m in machines] == expected, d

    def test_stacked_residuals_refuse_machines_with_their_own_layout(self):
        # machines of two dimensions read two layouts
        machines = [build_machine(3, *optimal_params(3)), build_machine(4, 1.0, 0.0)]
        with pytest.raises(ValueError, match="share one rows/cols layout"):
            _unitarity_residuals(machines)

    def test_parameters_renormalized(self):
        # norm off by ~2e-10: accepted, then snapped back onto the circle
        machine = build_machine(2, INV_SQRT2 * (1 + 2e-10), INV_SQRT2)
        assert abs(machine.alpha**2 + machine.beta**2 - 1.0) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_machine(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            build_machine(2, 0.8, 0.7)  # norm off by ~0.13
        with pytest.raises(ValueError):
            build_machine(3, 2.0, 2.0)  # norm off by 7
        with pytest.raises(ValueError):
            build_machine(2, -INV_SQRT2, INV_SQRT2)
        # a NaN split, or one whose norm is infinite or overflows, would give a NaN or infinite fidelity
        for alpha, beta in [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (1e300, 1e300)]:
            with pytest.raises(ValueError, match="nonnegative"):
                build_machine(3, alpha, beta)
            with pytest.raises(ValueError, match="nonnegative"):
                CloningMachine(3, alpha, beta)
        with pytest.raises(ValueError, match="d must be >= 2"):
            CloningMachine(1, 1.0, 0.0)
        # numpy doubles whose squares overflow: the split is squared as Python floats, so no overflow warning comes first
        for checked in (build_machine, CloningMachine, fidelity_closed_form, shrink_factor):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="nonnegative"):
                    checked(3, np.float64(1e300), np.float64(1e300))
        # a split that is not a real number is refused by name, not by the arithmetic it would reach
        for bad in (1 + 0j, "1", True, np.True_):
            for checked in (build_machine, CloningMachine, fidelity_closed_form, shrink_factor):
                with pytest.raises(TypeError, match="^alpha must be a real number"):
                    checked(3, bad, 0.0)
                with pytest.raises(TypeError, match="^beta must be a real number"):
                    checked(3, 1.0, bad)
        # an integer past the float range has no finite square: a ValueError naming it, not the conversion's OverflowError
        for checked in (build_machine, CloningMachine, fidelity_closed_form, shrink_factor):
            with pytest.raises(ValueError, match="^alpha must have a finite square"):
                checked(3, 10**400, 0.0)
            with pytest.raises(ValueError, match="^beta must have a finite square"):
                checked(3, 0.0, -(10**400))
        # float32 (0.6, 0.8) lies on the unit circle in float32 arithmetic, 4.8e-8 off it in doubles
        for checked in (build_machine, fidelity_closed_form, shrink_factor):
            with pytest.raises(ValueError, match="is not within 1e-09 of 1"):
                checked(3, np.float32(0.6), np.float32(0.8))
        # a float32 split that passes is used in double precision
        machine = build_machine(3, np.float32(1.0), np.float32(0.0))
        assert (type(machine.alpha), type(machine.beta), machine.vals.dtype) == (float, float, np.float64)
        assert machine.unitarity_residual() < 1e-12
        assert type(fidelity_closed_form(3, np.float32(1.0), np.float32(0.0))) is float
        assert type(shrink_factor(3, np.float32(1.0), np.float32(0.0))) is float


class TestCloneState:
    def test_basis_copier_on_basis_state(self):
        machine = build_machine(3, 1.0, 0.0)
        rho = clone_state(machine, np.array([1, 0, 0], dtype=complex))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.mat, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_term_by_term_output_oracle(self, d):
        alpha, beta = optimal_params(d)
        machine = build_machine(d, alpha, beta)
        for seed in range(5):
            phases = random_phase_vector(d, seed)
            rho = clone_state(machine, phase_state(phases))
            oracle = two_clone_output_oracle(d, alpha, beta, phases)
            np.testing.assert_allclose(rho.mat, oracle, atol=1e-12)

    def test_d2_optimal_reductions_have_expected_off_diagonal(self):
        machine = build_machine(2, *optimal_params(2))
        rho = clone_state(machine, phase_state(np.zeros(2)))
        for keep in [(0,), (1,)]:
            red = partial_trace(rho, keep=keep)
            assert red.mat[0, 1] == pytest.approx(INV_SQRT8, abs=1e-12)

    def test_output_is_physical_for_random_d4_phase_state(self):
        machine = build_machine(4, *optimal_params(4))
        mat = clone_state(machine, phase_state(random_phase_vector(4, 123))).mat
        assert np.linalg.norm(mat - mat.conj().T) < EQ_TOL
        assert abs(np.trace(mat) - 1.0) <= EQ_TOL
        assert np.linalg.eigvalsh(mat).min() >= -PSD_TOL

    def test_output_is_swap_symmetric(self):
        for d in (2, 3, 4):
            machine = build_machine(d, *optimal_params(d))
            rho = clone_state(machine, phase_state(random_phase_vector(d, 5)))
            swapped = rho.mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
            np.testing.assert_allclose(rho.mat, swapped, atol=1e-14)

    def test_sparse_route_matches_the_dense_route_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for d in range(2, 17):
            for k, (alpha, beta) in enumerate(split_grid(d, rng)):
                machine = build_machine(d, alpha, beta)
                psi = phase_state(random_phase_vector(d, 100 * d + k))
                m = (isometry_loop_reference(d, machine.alpha, machine.beta) @ psi).reshape(d * d, d)
                np.testing.assert_array_equal(clone_state(machine, psi).mat, m @ m.conj().T)

    def test_output_factor_is_read_only_and_gives_the_two_clone_state(self):
        for d in (2, 3, 7):
            machine = build_machine(d, *optimal_params(d))
            psi = phase_state(random_phase_vector(d, 3))
            m = _output_factor(machine, psi)
            assert m.shape == (d * d, d)
            assert not m.flags.writeable
            np.testing.assert_array_equal(m @ m.conj().T, clone_state(machine, psi).mat)

    def test_ancilla_gram_carries_the_two_clone_spectrum(self):
        rng = np.random.default_rng(29)
        for d in range(2, 17):
            for k, (alpha, beta) in enumerate(split_grid(d, rng)):
                machine = build_machine(d, alpha, beta)
                psi = phase_state(random_phase_vector(d, 100 * d + k))
                dense = np.linalg.eigvalsh(clone_state(machine, psi).mat)  # reference: the d^2-by-d^2 eigensolve
                m = _output_factor(machine, psi)
                gram = np.linalg.eigvalsh(m.conj().T @ m)
                np.testing.assert_allclose(dense[-d:], gram, rtol=0, atol=1e-14)
                np.testing.assert_allclose(dense[:-d], 0.0, rtol=0, atol=1e-14)

    def test_single_clone_reductions_match_the_two_clone_route(self):
        rng = np.random.default_rng(41)
        cases = [(d, split) for d in range(2, 17) for split in split_grid(d, rng)]
        for d, (alpha, beta) in cases + [(64, optimal_params(64))]:
            machine = build_machine(d, alpha, beta)
            psi = phase_state(random_phase_vector(d, 7 * d))
            rho = clone_state(machine, psi)  # reference: the d^2-by-d^2 state, then a partial trace
            m = _output_factor(machine, psi)
            np.testing.assert_allclose(_single_clone(m, 0), reduced_clone(rho).mat, rtol=0, atol=1e-15)
            np.testing.assert_allclose(_single_clone(m, 1), partial_trace(rho, keep=(1,)).mat, rtol=0, atol=1e-15)

    def test_single_clone_keeps_the_right_factor_of_an_asymmetric_output(self):
        # the machine's two clones are equal, so only an asymmetric factor tells clone A from clone B
        rng = np.random.default_rng(43)
        for d in range(2, 7):
            m = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
            m /= np.linalg.norm(m)
            rho = DensityMatrix((d, d), m @ m.conj().T)
            for clone in (0, 1):
                np.testing.assert_allclose(
                    _single_clone(m, clone), partial_trace(rho, keep=(clone,)).mat, rtol=0, atol=1e-15
                )

    def test_simulated_fidelity_at_d64_traces_under_16_megabytes(self):
        # the d^2-by-d^2 two-clone state alone would be 268 MB here
        d = 64
        machine = build_machine(d, *optimal_params(d))
        psi = phase_state(random_phase_vector(d, 0))
        f, peak = traced_peak_bytes(lambda: simulate_fidelity(machine, psi))
        assert abs(f - optimal_fidelity(d)) < EQ_TOL
        assert peak < 16e6

    def test_output_is_read_only(self):
        machine = build_machine(3, *optimal_params(3))
        rho = clone_state(machine, phase_state(random_phase_vector(3, 4)))
        assert not rho.mat.flags.writeable
        assert not reduced_clone(rho).mat.flags.writeable

    def test_peak_memory_at_d32_is_close_to_the_output_size(self):
        d = 32
        machine = build_machine(d, *optimal_params(d))
        psi = phase_state(random_phase_vector(d, 0))
        rho, peak = traced_peak_bytes(lambda: clone_state(machine, psi))
        assert peak < 1.25 * rho.mat.nbytes

    # the rejection tests of every entry point that takes an input state, all checked by linalg._normalized

    def test_rejects_wrong_input_shape(self):
        machine = build_machine(3, *optimal_params(3))
        for bad in (np.ones(4) / 2, np.ones((1, 3)) / math.sqrt(3)):  # a wrong width, a stack for one state
            for run in STATE_ENTRY_POINTS.values():
                with pytest.raises(DimensionError):
                    run(machine, bad)

    def test_rejects_unnormalized_input(self):
        # |1e200|^2 overflows: NumPy warned before the ValueError, and the suite's filterwarnings makes that an error
        machine = build_machine(3, *optimal_params(3))
        for bad, norm2 in (([1.0, 1.0, 0.0], "2.0"), ([1e200, 0.0, 0.0], "inf")):
            for run in STATE_ENTRY_POINTS.values():
                with pytest.raises(ValueError, match=rf"not normalized: \|psi\|\^2 = {norm2}$"):
                    run(machine, np.array(bad))

    def test_rejections_name_the_callers_own_state(self):
        # simulate_fidelity runs one state as a stack of one, but checks and reports the shape and |psi|^2 it was given
        machine = build_machine(3, *optimal_params(3))
        with pytest.raises(DimensionError, match=r"of shape \(3,\), got shape \(3, 3\)$"):
            simulate_fidelity(machine, np.eye(3))
        with pytest.raises(ValueError, match=r"\|psi\|\^2 = 3\.0$"):
            simulate_fidelity(machine, np.ones(3))

    def test_rejects_nan_input_instead_of_returning_nan(self):
        # |psi|^2 is NaN, which no tolerance test of the form "> tol" catches
        machine = build_machine(3, *optimal_params(3))
        for run in STATE_ENTRY_POINTS.values():
            with pytest.raises(ValueError, match="not normalized"):
                run(machine, np.array([math.nan, 1.0, 0.0]))


def _single_clone(m, clone=0):
    """Dense reference: the reduced state of clone A (``clone=0``) or B (``clone=1``) of the output factor M.

    With X the (d, d^2) matrix whose rows index the kept clone and whose
    columns index (other clone, ancilla), the reduction is X X^dag, so the
    d^2-by-d^2 two-clone state is never formed.
    """
    d = m.shape[1]
    x = m.reshape(d, d, d)
    if clone == 1:
        x = x.transpose(1, 0, 2)
    x = x.reshape(d, d * d)
    return x @ x.conj().T


def gram_trace(gram):
    """||M||_F^2 of each output, read off the diagonal of its ancilla Gram M^dag M as the audit reads it."""
    return gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)


def dense_stacks(machine, amps):
    """Reference for the simulation route: each state's clone A and B reductions, ancilla Gram and ||M||_F^2 from the dense M.

    ||M||_F^2 is summed exactly (``math.fsum``): np.vdot(m, m) over the d^3 entries is off by up to 1.8e-15 at d = 61.
    """
    refs = []
    for psi in amps:
        m = _output_factor(machine, psi)
        refs.append((_single_clone(m, 0), _single_clone(m, 1), m.conj().T @ m, math.fsum((np.abs(m) ** 2).ravel())))
    return [np.array(stack) for stack in zip(*refs)]


def bincount_diag(out, bins, vals):
    """Reference diagonal of each state: W_i |psi|^2, with W_i the d-by-d sum of row i of |vals|^2 over ``bins`` by one bincount."""
    k, d = len(vals), out.amps.shape[1]
    bins = bins + np.arange(0, k * d * d, d * d)[:, None]  # machine i's W at i d^2
    w = np.bincount(bins.ravel(), weights=(np.abs(vals) ** 2).ravel(), minlength=k * d * d).reshape(k, 1, d, d)
    return (w @ (np.abs(out.amps) ** 2).reshape(k, -1, d, 1)).reshape(-1, d)


def unequal_vals(rng, size):
    """Random values for V's nonzeros, so that the two clones differ, with a zero of each sign among them."""
    vals = rng.normal(size=size)
    vals[rng.choice(size, 2, replace=False)] = [0.0, -0.0]
    return vals


# every stack an _Outputs gives, one slice (or value) per input state
STACK_READS = {
    "clone A": lambda out: out.clone(0),
    "clone B": lambda out: out.clone(1),
    "gram": lambda out: out.gram(),
    "fidelity": lambda out: out.fidelity(),
}


class TestSimulate:
    """The one simulation route, from the plan of V's nonzeros over a stack of states, against the dense route."""

    def test_matches_the_dense_route_entrywise(self):
        rng = np.random.default_rng(53)
        for d in [*range(2, 17), 61, 64]:
            amps = phase_state(np.array([random_phase_vector(d, 10 * d + k) for k in range(3)]))
            for alpha, beta in split_grid(d, rng):
                machine = build_machine(d, alpha, beta)
                out = _simulate([machine], amps[None])
                gram = out.gram()
                stacks = (out.clone(0), out.clone(1), gram, gram_trace(gram))
                for name, got, want in zip(("clone A", "clone B", "gram", "norm2"), stacks, dense_stacks(machine, amps)):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=f"{name} at d = {d}")
                # fidelity() sums ||psi^dag X||^2 instead of <psi|rho_A|psi>: 1.2e-15 apart at worst here (d = 61)
                overlaps = (amps.conj()[:, None, :] @ stacks[0] @ amps[:, :, None])[:, 0, 0].real
                np.testing.assert_allclose(out.fidelity(), overlaps, rtol=0, atol=5e-15)

    def test_keeps_the_clones_apart_on_an_asymmetric_machine(self):
        # the machine's two clones are equal, so only unequal values on V's nonzeros tell clone A from clone B
        rng = np.random.default_rng(59)
        for d in (2, 3, 5, 8):
            machine = build_machine(d, *optimal_params(d))
            object.__setattr__(machine, "vals", rng.normal(size=machine.vals.size))
            amps = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            out = _simulate([machine], amps[None])
            reference = dense_stacks(machine, amps)
            assert frobenius_distance(reference[0], reference[1]) > 1e-3
            gram = out.gram()
            for got, want in zip((out.clone(0), out.clone(1), gram, gram_trace(gram)), reference):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_the_gram_reads_its_off_diagonal_off_the_two_clone_blocks(self):
        # a NaN planted in clone B's X at [j, l], j != l, reaches the Gram at (j, l) and at its mirror (l, j) only
        class Planted(_Outputs):
            def _x(self, clone):
                x = super()._x(clone)
                if clone == 1:
                    x[0, j, l] = math.nan
                return x

        for d in (2, 3, 5, 8):
            for j, l in ((0, 1), (d - 1, 0)):
                out = _simulate([build_machine(d, *optimal_params(d))], phase_state(random_phase_vector(d, d))[None, None])
                gram = Planted(out.blocks, out.vals, out.amps).gram()
                want = np.zeros((1, d, d), dtype=bool)
                want[0, j, l] = want[0, l, j] = True
                np.testing.assert_array_equal(np.isnan(gram), want, err_msg=f"({j}, {l}) at d = {d}")

    def test_clone_blocks_match_the_indexing_gather_bit_for_bit(self):
        # X is a C-contiguous broadcast product; the gather amps[:, cols[block]], copied C-contiguous, is the reference,
        # and the diagonal the generic plan's singly hit nonzeros, summed by a bincount
        class Gathered(_Outputs):
            def _clone_parts(self, clone):
                _, single, single_bins = plan[3 * clone : 3 * clone + 3]
                gathered = np.ascontiguousarray(self.amps[:, block_cols(d, rows, cols)[clone]])
                gathered *= self.vals[0, self.blocks[clone]]  # one machine
                return gathered, bincount_diag(self, single_bins, self.vals[:, single])

        rng = np.random.default_rng(61)
        for d in range(2, 65):
            rows, cols = _indices(d)
            plan = build_plan(d, rows, cols)
            machine = build_machine(d, *optimal_params(d))
            object.__setattr__(machine, "vals", unequal_vals(rng, machine.vals.size))
            amps = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            out = _simulate([machine], amps[None])
            ref = Gathered(out.blocks, out.vals, out.amps)
            for name, got, want in (
                ("clone A", out.clone(0), ref.clone(0)),
                ("clone B", out.clone(1), ref.clone(1)),
                ("fidelity", out.fidelity(), ref.fidelity()),
            ):
                np.testing.assert_array_equal(got, want, err_msg=f"{name} at d = {d}")

    def test_rejects_a_stack_of_the_wrong_shape(self):
        # only the structure is checked: the norms are those of states their callers checked or built
        machine = build_machine(3, *optimal_params(3))
        with pytest.raises(DimensionError):
            _simulate([machine], np.eye(2)[None])
        with pytest.raises(DimensionError):
            _simulate([machine], np.ones((1, 3)) / math.sqrt(3))  # one stack, not one stack per machine
        with pytest.raises(DimensionError, match="one stack of states per machine"):
            _simulate([machine, machine], np.ones((1, 1, 3)) / math.sqrt(3))
        with pytest.raises(DimensionError, match="machines of one d"):
            _simulate([machine, build_machine(2, *optimal_params(2))], np.ones((2, 1, 3)) / math.sqrt(3))

    def test_a_stack_of_machines_matches_one_machine_at_a_time_bit_for_bit(self):
        # machine i of a stack reads row i of vals and its own states, and rounds as it would run alone
        rng = np.random.default_rng(67)
        for d in range(2, 65):
            machines = [build_machine(d, *split) for split in split_grid(d, rng)[1:]]
            object.__setattr__(machines[2], "vals", rng.normal(size=machines[2].vals.size))  # unequal clones
            amps = rng.normal(size=(3, 2, d)) + 1j * rng.normal(size=(3, 2, d))
            amps /= np.linalg.norm(amps, axis=2, keepdims=True)
            stacked = _simulate(machines, amps)
            alone = [_simulate([machine], states[None]) for machine, states in zip(machines, amps)]
            for name, read in STACK_READS.items():
                got, want = read(stacked), np.concatenate([read(out) for out in alone])
                assert got.shape == want.shape and (got == want).all(), f"{name} at d = {d}"

    def test_one_state_rounds_as_its_slice_of_a_stack_bit_for_bit(self):
        # a stack of one state takes the same product kernel as any larger stack, so simulate_fidelity of a state
        # is the double its slice of a stack gives, and so is every other stack read
        rng = np.random.default_rng(71)
        for d in range(2, 65):
            machine = build_machine(d, *optimal_params(d))
            amps = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            amps = np.concatenate([amps, phase_state(np.stack([random_phase_vector(d, s) for s in range(5)]))])
            stacked = _simulate([machine], amps[None])
            fidelities = stacked.fidelity().tolist()
            assert [simulate_fidelity(machine, psi) for psi in amps] == fidelities, d
            for name, read in STACK_READS.items():
                alone = np.concatenate([read(_simulate([machine], psi[None, None])) for psi in amps])
                assert (alone == read(stacked)).all(), f"{name} at d = {d}"

    def test_a_stack_rounds_the_same_whatever_the_layout_of_its_states(self):
        # a Fortran-ordered stack once sent fidelity()'s psi^dag X product off BLAS and moved its last bits
        rng = np.random.default_rng(73)
        for d in range(2, 65):
            machine = build_machine(d, *optimal_params(d))
            object.__setattr__(machine, "vals", rng.normal(size=machine.vals.size))  # unequal clones
            amps = rng.normal(size=(1, 6, d)) + 1j * rng.normal(size=(1, 6, d))
            amps /= np.linalg.norm(amps, axis=2, keepdims=True)
            wide = np.zeros((1, 12, 2 * d), dtype=np.complex128)
            wide[:, ::2, ::2] = amps
            base = _simulate([machine], amps)
            for layout, states in (("Fortran", np.asfortranarray(amps)), ("strided", wide[:, ::2, ::2])):
                out = _simulate([machine], states)
                assert out.amps.flags.c_contiguous and out._clone_parts(0)[0].flags.c_contiguous, (layout, d)
                for name, read in STACK_READS.items():
                    assert (read(out) == read(base)).all(), f"{name} of a {layout} stack at d = {d}"

    def test_mub_rows_at_d29_traces_under_2_megabytes(self):
        # one basis (29 states) is simulated at a time, and clone A's reduction is never stacked
        rows, peak = traced_peak_bytes(lambda: mub_rows(29))
        assert len(rows) == 30 + 435 + 29 * 29
        assert peak < 2.0e6

    def test_mub_rows_at_d61_traces_under_12_megabytes(self):
        # each basis's unbiasedness product runs against the later bases only, never all pairs at once
        rows, peak = traced_peak_bytes(lambda: mub_rows(61))
        assert len(rows) == 62 + 62 * 61 // 2 + 61 * 61
        assert peak < 12.0e6

    def test_audit_at_d12_traces_under_2_5_megabytes(self):
        report, peak = traced_peak_bytes(lambda: run_audit(12, 20, 1))
        assert report.overall
        assert peak < 2.5e6


class TestLayout:
    """Each d's clone blocks and index arrays, written down from its enumeration, against the oracle's generic derivation."""

    @pytest.mark.parametrize("d", range(2, 65))
    def test_matches_the_generic_derivation_array_by_array(self, d):
        want = build_plan(d, *_indices(d))
        blocks = _blocks(d)
        j, l = np.nonzero(~np.eye(d, dtype=bool))
        for clone in (0, 1):
            block, single, single_bins = want[3 * clone : 3 * clone + 3]
            assert blocks.dtype == block.dtype
            np.testing.assert_array_equal(blocks[clone], block, err_msg=f"clone {clone}'s block")
            # the diagonal weights assume this: a clone's singly hit nonzeros are the other clone's block off its
            # diagonal, entry [j, l] at bin l d + j
            np.testing.assert_array_equal(single, blocks[1 - clone][j, l], err_msg=f"clone {clone}'s single")
            np.testing.assert_array_equal(single_bins, l * d + j, err_msg=f"clone {clone}'s single bins")

    def test_gram_matches_the_generic_pairs_bit_for_bit(self):
        # there is no Gram plan: the Gram is read off the two clone blocks, and each generic pair of an (A, B)
        # key is one entry of clone A's block, transposed, and one of clone B's. The Gram built the old way, a scatter
        # of each pair's product, is the reference, down to the signs of its zeros
        rng = np.random.default_rng(79)
        for d in range(2, 65):
            block_a, _, bins_a, block_b, _, bins_b, pairs, pair_cols, pair_bins, diag_bins = build_plan(d, *_indices(d))
            j, l = np.divmod(pair_bins, d)
            np.testing.assert_array_equal(pair_bins, np.flatnonzero(~np.eye(d, dtype=bool)))  # row-major off-diagonal
            np.testing.assert_array_equal(pairs, np.stack([block_a[l, j], block_b[j, l]]))
            np.testing.assert_array_equal(pair_cols, np.stack([l, j]))
            np.testing.assert_array_equal(bins_a, bins_b)
            np.testing.assert_array_equal(diag_bins, np.concatenate([np.arange(d) * (d + 1), bins_a, bins_a]))

            machines = [build_machine(d, *optimal_params(d)) for _ in range(2)]
            for machine in machines:
                object.__setattr__(machine, "vals", unequal_vals(rng, machine.vals.size))
            amps = rng.normal(size=(2, 3, d)) + 1j * rng.normal(size=(2, 3, d))
            amps /= np.linalg.norm(amps, axis=2, keepdims=True)
            out = _simulate(machines, amps)
            first, second = (
                (amps.take(cols, axis=2) * out.vals.take(nonzeros, axis=1)[:, None]).reshape(6, -1)
                for nonzeros, cols in zip(pairs, pair_cols)
            )
            want = np.zeros((6, d * d), dtype=np.complex128)
            want[:, pair_bins] = np.conjugate(first) * second
            want = want.reshape(6, d, d)
            want += want.conj().swapaxes(1, 2)
            want.reshape(6, -1)[:, :: d + 1] = bincount_diag(out, diag_bins, out.vals)
            got = out.gram()
            np.testing.assert_array_equal(got, want, err_msg=f"d = {d}")
            assert got.tobytes() == want.tobytes(), f"signs of zeros at d = {d}"

    @pytest.mark.parametrize("d", range(2, 65))
    def test_each_block_row_reads_its_own_input(self, d):
        # block_cols[a, :] == a is what lets each clone's X be a broadcast of the inputs instead of a gather
        for clone, got in enumerate(block_cols(d, *_indices(d))):
            np.testing.assert_array_equal(got, np.broadcast_to(np.arange(d)[:, None], got.shape), err_msg=f"clone {clone}")

    def test_every_returned_array_is_read_only(self):
        # the blocks are cached and shared by every machine of their d, so one stray write would corrupt them all
        for name, arr in (("blocks", _blocks(4)), *zip(("rows", "cols"), _indices(4))):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
            assert not arr.flags.writeable, name

    def test_a_fidelity_reads_the_blocks_alone(self, monkeypatch):
        # table's route, one fidelity per d, reads d's clone blocks and never writes down rows or cols
        written = []

        def indices(d):
            written.append(d)
            return _indices(d)

        monkeypatch.setattr("phaseclone.cloner._indices", indices)
        report = fidelity_report(9)
        assert report.f_simulated == pytest.approx(report.f_closed, abs=1e-12)
        assert written == []
        # the probe is live: a read of rows goes through it
        build_machine(9, *optimal_params(9)).rows
        assert written == [9]

    def test_a_verify_run_writes_down_rows_and_cols_once_per_d(self):
        # the unitarity and swap checks read both of every d's machines, and the corrupted machine's too
        _indices.cache_clear()
        assert not run_audit(d_max=6, n_random=3, seed=0, corrupt=True).overall
        info = _indices.cache_info()
        assert info.misses == 5 and info.hits > 0

    def test_plan_builder_refuses_a_row_with_two_nonzeros(self):
        machine = build_machine(3, *optimal_params(3))
        rows = machine.rows.copy()
        rows[-1] = rows[0]
        with pytest.raises(ValueError, match="more than one nonzero"):
            build_plan(3, rows, machine.cols)

    def test_plan_builder_refuses_a_clone_block_with_a_gap(self):
        # moving |00>|R_0> to the free row |00>|R_1> leaves clone A's block column (0, 0) one nonzero short
        machine = build_machine(3, *optimal_params(3))
        rows = machine.rows.copy()
        rows[0] = 1
        with pytest.raises(ValueError, match="clone A do not form a full block"):
            build_plan(3, rows, machine.cols)

    def test_plan_builder_refuses_two_pairs_at_one_gram_entry(self):
        # d = 2: the (A, B) keys (0, 0) and (1, 1) each hold ancilla digits 0 and 1, so both pairs meet at entry
        # (0, 1); every clone key is hit once, so the blocks are not what fails
        rows = np.array([0, 1, 6, 7])  # (a, b, c) = (0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)
        with pytest.raises(ValueError, match="meet at one Gram entry"):
            build_plan(2, rows, np.array([0, 1, 0, 1]))


class TestReducedClone:
    def test_d2_optimal_zero_phases(self):
        machine = build_machine(2, *optimal_params(2))
        red = reduced_clone(clone_state(machine, phase_state(np.zeros(2))))
        expected = np.array([[0.5, INV_SQRT8], [INV_SQRT8, 0.5]])
        np.testing.assert_allclose(red.mat, expected, atol=1e-12)

    def test_beta_zero_fully_dephases(self):
        machine = build_machine(3, 1.0, 0.0)
        red = reduced_clone(clone_state(machine, phase_state(random_phase_vector(3, 2))))
        np.testing.assert_allclose(red.mat, np.eye(3) / 3, atol=1e-12)

    def test_matches_closed_form_matrix_entrywise(self):
        d = 3
        alpha, beta = optimal_params(d)
        machine = build_machine(d, alpha, beta)
        coeff = alpha * beta * math.sqrt(2.0 / (d - 1)) / d + beta**2 * (d - 2) / (2 * d * (d - 1))
        for seed in range(10):
            phases = random_phase_vector(d, seed)
            red = reduced_clone(clone_state(machine, phase_state(phases)))
            expected = coeff * np.exp(1j * (phases[:, None] - phases[None, :]))
            np.fill_diagonal(expected, 1.0 / d)
            np.testing.assert_allclose(red.mat, expected, atol=1e-12)

    def test_rejects_non_two_clone_input(self):
        machine = build_machine(2, 1.0, 0.0)
        rho = clone_state(machine, np.array([1, 0], dtype=complex))
        with pytest.raises(DimensionError):
            reduced_clone(partial_trace(rho, keep=(0,)))


class TestClosedForms:
    def test_array_forms_equal_one_scalar_call_per_split_bit_for_bit(self):
        # the audit evaluates F and eta for all machines of a chunk at once; each entry must be the scalar call's double
        rng = np.random.default_rng(37)
        for d in range(2, 65):
            splits = [optimal_params(d), (1.0, 0.0), (0.0, 1.0)]
            splits += [(math.cos(t), math.sin(t)) for t in rng.uniform(0, math.pi / 2, 20)]
            alpha, beta = np.array(splits).T
            assert _fidelity(d, alpha, beta).tolist() == [fidelity_closed_form(d, *split) for split in splits], d
            assert _shrink(d, alpha, beta).tolist() == [shrink_factor(d, *split) for split in splits], d

    def test_beta_zero_fidelity_is_1_over_d(self):
        for d in (2, 3, 7, 64):
            assert fidelity_closed_form(d, 1.0, 0.0) == pytest.approx(1.0 / d, abs=1e-15)

    def test_d2_balanced_split(self):
        value = fidelity_closed_form(2, INV_SQRT2, INV_SQRT2)
        assert value == pytest.approx(0.5 + math.sqrt(0.125), abs=1e-12)

    def test_d3_at_optimum_hits_known_value(self):
        value = fidelity_closed_form(3, *optimal_params(3))
        assert value == pytest.approx((5 + math.sqrt(17.0)) / 12, abs=1e-12)

    def test_optimal_params_d2(self):
        alpha, beta = optimal_params(2)
        assert alpha == pytest.approx(INV_SQRT2, abs=1e-15)
        assert beta == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_optimal_params_d3(self):
        alpha, beta = optimal_params(3)
        assert alpha == pytest.approx(0.6154122094026356, abs=1e-12)
        assert beta == pytest.approx(0.7882054380161092, abs=1e-12)

    def test_optimal_params_normalized_and_ordered(self):
        for d in range(2, 65):
            alpha, beta = optimal_params(d)
            assert abs(alpha**2 + beta**2 - 1.0) < 1e-14
            if d == 2:
                assert alpha == beta
            else:
                assert alpha < beta

    def test_optimal_fidelity_known_dimensions(self):
        assert optimal_fidelity(2) == pytest.approx(0.5 + math.sqrt(0.125), abs=1e-12)
        assert optimal_fidelity(3) == pytest.approx((5 + math.sqrt(17.0)) / 12, abs=1e-12)
        assert optimal_fidelity(4) == pytest.approx(OPT4, abs=1e-12)

    def test_optimal_fidelity_consistent_with_params(self):
        for d in range(2, 65):
            assert abs(optimal_fidelity(d) - fidelity_closed_form(d, *optimal_params(d))) < 1e-12

    def test_uqcm_baseline(self):
        assert uqcm_fidelity(2) == pytest.approx(5 / 6, abs=1e-15)
        assert uqcm_fidelity(3) == pytest.approx(0.75, abs=1e-15)

    def test_uqcm_tends_to_one_half_from_above(self):
        values = [uqcm_fidelity(d) for d in (10, 100, 10_000, 10**9)]
        assert all(a > b > 0.5 for a, b in zip(values, values[1:]))
        assert values[-1] - 0.5 < 1e-8

    def test_arguments_validated(self):
        for fn in (optimal_params, optimal_fidelity, uqcm_fidelity):
            with pytest.raises(ValueError):
                fn(1)
        for fn in (fidelity_closed_form, shrink_factor):
            for args in [(1, 1.0, 0.0), (3, 2.0, 2.0), (3, -1.0, 0.0), (3, math.nan, 1.0)]:
                with pytest.raises(ValueError):
                    fn(*args)


    @pytest.mark.parametrize("d", [math.nan, math.inf, 2.5, True, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name", DOMAIN_CHECKED)
    def test_a_dimension_that_is_not_an_integer_is_rejected(self, name, d):
        # d < 2 alone lets these through: NaN compares false, and inf or 2.5 give a NaN or a number for no d; a d
        # whose square is past the float range overflowed in the closed forms' float arithmetic
        with pytest.raises(ValueError, match="d must be >= 2 and an integer"):
            DOMAIN_CHECKED[name](d)

    def test_the_largest_dimension_is_the_last_whose_square_is_a_finite_double(self):
        largest = math.isqrt(int(sys.float_info.max))
        for name, fn in DOMAIN_CHECKED.items():
            if name != "build_machine":  # V has 2 d^2 - d nonzeros, so no machine of that d fits in memory
                fn(largest)
            with pytest.raises(ValueError, match="d must be >= 2 and an integer whose square is a finite double"):
                fn(largest + 1)
        for fn, name in ((lambda d: random_phase_vector(d, 0), "d"), (lambda d: run_audit(d, 1, 0), "d_max")):
            with pytest.raises(ValueError, match=f"^{name} must be >= 2 and an integer whose square is a finite double"):
                fn(10**400)

    def test_numpy_integer_dimensions_are_accepted(self):
        # a narrow integer type would wrap in d * d if the closed forms computed in it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (np.int64(3), np.int32(64), np.int8(64), np.uint8(64)):
                for name, fn in DOMAIN_CHECKED.items():
                    assert fn(d) == fn(int(d)), (name, type(d))


class TestShrinkFactor:
    def test_d2_optimal(self):
        assert shrink_factor(2, INV_SQRT2, INV_SQRT2) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_beta_zero_kills_the_input(self):
        for d in (2, 3, 6):
            assert shrink_factor(d, 1.0, 0.0) == 0.0

    def test_scalar_form_reproduces_reduced_output(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            theta = rng.uniform(0, math.pi / 2)
            alpha, beta = math.cos(theta), math.sin(theta)
            machine = build_machine(d, alpha, beta)
            eta = shrink_factor(d, alpha, beta)
            for seed in (1, 2):
                psi = phase_state(random_phase_vector(d, seed))
                red = reduced_clone(clone_state(machine, psi))
                rho_in = np.outer(psi, psi.conj())
                expected = eta * rho_in + (1 - eta) / d * np.eye(d)
                np.testing.assert_allclose(red.mat, expected, atol=1e-12)


class TestSimulationAgainstClosedForm:
    def test_oracle_equivalence_on_small_grid(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4, 5):
            splits = [optimal_params(d)]
            for _ in range(3):
                theta = rng.uniform(0, math.pi / 2)
                splits.append((math.cos(theta), math.sin(theta)))
            for alpha, beta in splits:
                machine = build_machine(d, alpha, beta)
                expected = fidelity_closed_form(d, machine.alpha, machine.beta)
                for seed in range(20):
                    psi = phase_state(random_phase_vector(d, seed))
                    assert abs(simulate_fidelity(machine, psi) - expected) < 1e-12

    def test_fidelity_constant_over_phase_family(self):
        machine = build_machine(3, *optimal_params(3))
        values = [
            simulate_fidelity(machine, phase_state(random_phase_vector(3, seed)))
            for seed in range(100)
        ]
        assert np.std(values, ddof=1) < 1e-12

    def test_phase_covariance_as_conjugation(self):
        for d in (2, 3, 4):
            machine = build_machine(d, *optimal_params(d))
            red0 = reduced_clone(clone_state(machine, phase_state(np.zeros(d)))).mat
            for seed in range(5):
                phases = random_phase_vector(d, seed)
                red = reduced_clone(clone_state(machine, phase_state(phases))).mat
                u = np.diag(np.exp(1j * phases))
                np.testing.assert_allclose(red, u @ red0 @ u.conj().T, atol=1e-12)

    def test_clone_reductions_agree(self):
        for d in (2, 3, 5):
            machine = build_machine(d, *optimal_params(d))
            rho = clone_state(machine, phase_state(random_phase_vector(d, 9)))
            red_a = partial_trace(rho, keep=(0,)).mat
            red_b = partial_trace(rho, keep=(1,)).mat
            np.testing.assert_allclose(red_a, red_b, atol=1e-12)


class TestFidelityReport:
    def test_defaults_to_the_optimum(self):
        rep = fidelity_report(3, phase_seed=5)
        assert rep.d == 3
        assert rep.alpha == pytest.approx(optimal_params(3)[0], abs=1e-15)
        assert rep.f_closed == pytest.approx(optimal_fidelity(3), abs=1e-12)
        assert abs(rep.f_closed - rep.f_simulated) < 1e-12
        assert rep.f_uqcm == pytest.approx(0.75, abs=1e-15)
        assert rep.phase_seed == 5

    def test_explicit_parameters(self):
        rep = fidelity_report(2, 1.0, 0.0, phase_seed=1)
        assert rep.f_closed == pytest.approx(0.5, abs=1e-15)
        assert rep.eta == 0.0

    def test_half_specified_parameters_rejected(self):
        with pytest.raises(ValueError):
            fidelity_report(2, alpha=1.0)

    def test_constructor_rejects_disagreeing_routes(self):
        with pytest.raises(VerificationError):
            FidelityReport(2, 0.7, 0.7, f_closed=0.85, f_simulated=0.84,
                           f_uqcm=5 / 6, eta=0.7, phase_seed=0)

    def test_constructor_rejects_out_of_range_values(self):
        with pytest.raises(VerificationError):
            FidelityReport(2, 0.7, 0.7, f_closed=1.2, f_simulated=1.2,
                           f_uqcm=5 / 6, eta=0.7, phase_seed=0)

    def test_a_disagreeing_row_names_its_d(self, monkeypatch):
        simulate = phaseclone.cloner.simulate_fidelity
        monkeypatch.setattr(phaseclone.cloner, "simulate_fidelity", lambda m, psi: simulate(m, psi) + 1e-9)
        with pytest.raises(VerificationError, match=r"^verification failed at d=5: closed-form and simulated fidelity disagree: "):
            fidelity_report(5)

    def test_an_out_of_range_row_names_its_d(self):
        with pytest.raises(VerificationError, match=r"^verification failed at d=3: eta = 1\.5 outside \[0, 1\]$"):
            FidelityReport(3, 0.7, 0.7, f_closed=0.8, f_simulated=0.8, f_uqcm=0.75, eta=1.5, phase_seed=0)


class TestCorruptionSensitivity:
    def test_unnormalized_machine_fails_the_isometry_check(self):
        alpha, beta = optimal_params(3)
        bad = CloningMachine(3, alpha * math.sqrt(0.9), beta * math.sqrt(0.9))
        # V^dag V = 0.9 I, so the residual is 0.1 * sqrt(d), far above tolerance
        assert bad.unitarity_residual() == pytest.approx(0.1 * math.sqrt(3), abs=1e-12)
        assert bad.unitarity_residual() > 1e-12


class TestProperties:
    @given(st.floats(0.0, math.pi / 2), st.integers(2, 64))
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_stay_in_range_on_the_parameter_circle(self, theta, d):
        alpha, beta = math.cos(theta), math.sin(theta)
        f = fidelity_closed_form(d, alpha, beta)
        assert 1.0 / d <= f <= 1.0
        assert f <= optimal_fidelity(d) + EQ_TOL
        assert 0.0 <= shrink_factor(d, alpha, beta) <= 1.0

    @given(st.floats(0.0, math.pi / 2), st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_simulation_equals_the_closed_form(self, theta, d, seed):
        machine = build_machine(d, math.cos(theta), math.sin(theta))
        psi = phase_state(random_phase_vector(d, seed))
        expected = fidelity_closed_form(d, machine.alpha, machine.beta)
        assert abs(simulate_fidelity(machine, psi) - expected) < EQ_TOL
