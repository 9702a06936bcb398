import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone.audit import MAX_TRIALS, mub_rows, run_audit
from phaseclone.cloner import build_machine, optimal_params
from phaseclone.linalg import (
    EQ_TOL,
    PSD_TOL,
    DensityMatrix,
    DimensionError,
    _dimension,
    _integer,
    fidelity_pure,
    frobenius_distance,
    partial_trace,
)
from phaseclone.optimize import MAX_POINTS, sweep_alpha
from phaseclone.states import MAX_D, mub_basis, random_phase_vector

INV_SQRT8 = 0.35355339059327373  # sqrt(1/8)

# every integer argument checked by linalg._integer outside the closed forms: (call on the value, minimum)
INTEGER_ARGUMENTS = {
    "random_phase_vector d": (lambda v: random_phase_vector(v, 0), 2),
    "random_phase_vector seed": (lambda v: random_phase_vector(3, v), 0),
    "run_audit d_max": (lambda v: run_audit(v, 1, 0), 2),
    "run_audit n_random": (lambda v: run_audit(3, v, 0), 1),
    "run_audit seed": (lambda v: run_audit(3, 1, v), 0),
    "mub_basis d": (lambda v: mub_basis(v, 0), 2),
    "mub_basis l": (lambda v: mub_basis(5, v), 0),
    "mub_rows d": (mub_rows, 2),
    "sweep_alpha n_points": (lambda v: sweep_alpha(3, v), 3),
    # factor dimensions and indices raise DimensionError, a ValueError
    "DensityMatrix dims": (lambda v: DensityMatrix((v,), np.eye(2)), 2),
    "partial_trace keep": (lambda v: partial_trace(DensityMatrix((2, 2), np.eye(4) / 4), keep=(v,)), 0),
}
# the integer arguments with an upper bound as well, most of them the CLI's bound declared in the library: (call, maximum)
BOUNDED_ARGUMENTS = {
    "run_audit n_random": (lambda v: run_audit(3, v, 0), MAX_TRIALS),
    "sweep_alpha n_points": (lambda v: sweep_alpha(3, v), MAX_POINTS),
    "mub_basis d": (lambda v: mub_basis(v, 0), MAX_D),
    "mub_rows d": (mub_rows, MAX_D),
    "mub_basis label": (lambda v: mub_basis(5, v), 4),
    "partial_trace index": (lambda v: partial_trace(DensityMatrix((2, 2), np.eye(4) / 4), keep=(v,)), 1),
}
HUGE = 10**5000  # past Python's 4300-digit limit, so a message that formats it with repr raises instead


def basis_ket(d, j):
    amps = np.zeros(d, dtype=complex)
    amps[j] = 1.0
    return amps


def random_ket(d, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return amps / np.linalg.norm(amps)


def pure(psi, dims=None):
    """|psi><psi| over the factors ``dims`` (default: one factor of the length of psi)."""
    return DensityMatrix(dims or (psi.size,), np.outer(psi, psi.conj()))


def product(*rhos):
    """Tensor product of density matrices, factors concatenated in order."""
    mat = np.ones((1, 1))
    for rho in rhos:
        mat = np.kron(mat, rho.mat)
    return DensityMatrix(sum((rho.dims for rho in rhos), ()), mat)


class TestPartialTrace:
    def test_product_state(self):
        rho = product(pure(basis_ket(2, 0)), pure(basis_ket(2, 1)))
        red = partial_trace(rho, keep=(0,))
        np.testing.assert_allclose(red.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state_is_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        red = partial_trace(pure(bell, (2, 2)), keep=(0,))
        np.testing.assert_allclose(red.mat, np.eye(2) / 2, atol=1e-15)

    def test_three_factor_cloner_output(self):
        # keep only clone A of the full (clone A, clone B, ancilla) output of
        # the optimal d=2 machine on (|0> + |1>)/sqrt(2)
        machine = build_machine(2, *optimal_params(2))
        psi = np.array([1, 1]) / math.sqrt(2)
        red = partial_trace(pure(machine.isometry @ psi, (2, 2, 2)), keep=(0,))
        expected = np.array([[0.5, INV_SQRT8], [INV_SQRT8, 0.5]])
        np.testing.assert_allclose(red.mat, expected, atol=1e-12)

    def test_complementary_traces_both_unit(self):
        psi = random_ket(12, 5)
        rho = pure(psi, (3, 4))
        for keep in [(0,), (1,)]:
            red = partial_trace(rho, keep=keep)
            assert abs(np.trace(red.mat) - 1.0) < 1e-12

    @given(st.integers(0, 500), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=50, deadline=None)
    def test_product_state_reduces_to_first_factor(self, seed, da, db):
        psi, phi = random_ket(da, seed), random_ket(db, seed + 7)
        red = partial_trace(product(pure(psi), pure(phi)), keep=(0,))
        np.testing.assert_allclose(red.mat, pure(psi).mat, atol=1e-12)

    def test_keep_must_be_proper_nonempty_subset(self):
        rho = product(pure(basis_ket(2, 0)), pure(basis_ket(2, 0)))
        for keep in [(), (0, 1), (2,), (-1,)]:
            with pytest.raises(DimensionError):
                partial_trace(rho, keep=keep)

    def test_kept_factors_stay_in_order(self):
        rho = product(pure(basis_ket(2, 1)), pure(basis_ket(3, 0)), pure(basis_ket(2, 0)))
        red = partial_trace(rho, keep=(0, 2))
        assert red.dims == (2, 2)
        np.testing.assert_allclose(red.mat, product(pure(basis_ket(2, 1)), pure(basis_ket(2, 0))).mat, atol=1e-15)


class TestFidelityPure:
    def test_identical_pure_states(self):
        psi = random_ket(5, 1)
        assert fidelity_pure(psi, pure(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        psi = random_ket(4, 2)
        rho = DensityMatrix((4,), np.eye(4) / 4)
        assert fidelity_pure(psi, rho) == pytest.approx(0.25, abs=1e-12)

    def test_optimal_d2_reduced_output(self):
        machine = build_machine(2, *optimal_params(2))
        psi = np.array([1, 1]) / math.sqrt(2)
        red = partial_trace(pure(machine.isometry @ psi, (2, 2, 2)), keep=(0,))
        assert fidelity_pure(psi, red) == pytest.approx(0.5 + math.sqrt(0.125), abs=1e-12)

    def test_invariant_under_global_phase(self):
        psi = random_ket(6, 3)
        rho = DensityMatrix((6,), np.eye(6) / 6 * 0.5 + 0.5 * pure(psi).mat)
        rotated = np.exp(1j * 0.9) * psi
        assert abs(fidelity_pure(psi, rho) - fidelity_pure(rotated, rho)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity_pure(random_ket(3, 0), DensityMatrix((2,), np.eye(2) / 2))

    def test_nan_matrix_raises_instead_of_returning_nan(self):
        # the overlap's imaginary part is NaN, which no test of the form ">= tol" catches
        rho = DensityMatrix((2,), [[math.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="imaginary part"):
            fidelity_pure([1.0, 0.0], rho)


class TestSmallOps:
    def test_frobenius_distance_to_self(self):
        m = np.arange(9).reshape(3, 3) + 1j
        assert frobenius_distance(m, m) == 0.0

    def test_frobenius_distance_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("d", [1, 2, 5, 12, 33])
    def test_frobenius_distance_of_a_stack_is_its_worst_slice_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
        b = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
        for x, y in ((a, b), (a.real, b.real), (a.transpose(0, 2, 1), b)):
            assert frobenius_distance(x, y) == max(float(np.linalg.norm(x[i] - y[i])) for i in range(7))
        assert frobenius_distance(a.reshape(7, 1, d, d), b.reshape(7, 1, d, d)) == frobenius_distance(a, b)
        assert frobenius_distance(a[:0], b[:0]) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 37])
    def test_frobenius_distance_of_a_matrix_or_vector_matches_numpy_norm_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for x, y in ((a, b), (a.T, b), (a.T, b.T), (a.real.T, b.real.T), (a[0], b[0])):
            assert frobenius_distance(x, y) == float(np.linalg.norm(x - y))

    def test_outer_satisfies_density_invariants(self):
        mat = pure(random_ket(7, 9)).mat
        assert np.linalg.norm(mat - mat.conj().T) < EQ_TOL
        assert abs(np.trace(mat) - 1.0) <= EQ_TOL
        assert np.linalg.eigvalsh(mat).min() >= -PSD_TOL


class TestDomainTypes:
    def test_density_constructor_copies_its_input(self):
        source = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        rho = DensityMatrix((2,), source)
        source[0, 1] = 9.0
        assert rho.mat[0, 1] == 0.25
        assert not rho.mat.flags.writeable
        assert source.flags.writeable

    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: DensityMatrix((2,), np.eye(3)), DimensionError, r"matrix shape \(3, 3\) does not match dims \(2,\)"),
            (lambda: DensityMatrix((2,), np.ones(2)), DimensionError, r"matrix shape \(2,\) does not match dims \(2,\)"),
            (lambda: DensityMatrix((2,), np.eye(2)[None]), DimensionError, r"matrix shape \(1, 2, 2\) does not match"),
            (lambda: DensityMatrix((), np.eye(1)), DimensionError, "need at least one factor dimension, got none"),
            (lambda: DensityMatrix._adopt((2,), np.eye(3, dtype=np.complex128)), DimensionError, r"matrix shape \(3, 3\)"),
            (lambda: DensityMatrix._adopt((2,), np.eye(2)), TypeError, "expected a complex128 matrix, got float64"),
        ],
        ids=["wrong side", "1-d mat", "3-d mat", "empty dims", "adopt mis-shaped", "adopt not complex128"],
    )
    def test_density_shape_check(self, make, error, match):
        with pytest.raises(error, match=match):
            make()


class TestIntegerRule:
    @pytest.mark.parametrize("bad", ["2.5", "nan", "inf", "below", "bool", "-10**5000"])
    @pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
    def test_a_value_that_is_not_an_integer_at_or_above_the_minimum_is_rejected(self, name, bad):
        # without the rule 2.5, NaN and inf reach NumPy (a TypeError) or give a wrong result, e.g. mub_basis(5, 1.5);
        # -10**5000 raised "Exceeds the limit (4300 digits)", which names no argument, from the message's own repr
        call, minimum = INTEGER_ARGUMENTS[name]
        value = {"2.5": 2.5, "nan": math.nan, "inf": math.inf, "below": minimum - 1, "bool": True, "-10**5000": -HUGE}[bad]
        shown = "an integer of 16610 bits" if value == -HUGE else re.escape(repr(value))
        with pytest.raises(ValueError, match=f"must be >= {minimum} and an integer, got {shown}$"):
            call(value)

    @pytest.mark.parametrize("above", ["one", "2**70", "2**600", "10**5000"])
    @pytest.mark.parametrize("name", BOUNDED_ARGUMENTS)
    def test_a_value_above_the_maximum_raises_a_value_error_naming_the_argument(self, name, above):
        # without the bound 2**70 raised OverflowError from the phase stream, or NumPy's own "Maximum allowed size";
        # 10**5000 is shown by its size, as a repr past 4300 digits raises; 2**600 (181 digits) by its repr
        (call, maximum), argument = BOUNDED_ARGUMENTS[name], name.split()[-1]
        value = {"one": maximum + 1, "2**70": 2**70, "2**600": 2**600, "10**5000": HUGE}[above]
        shown = "an integer of 16610 bits" if value == HUGE else repr(value)
        with pytest.raises(ValueError, match=re.escape(f"{argument} must be at most {maximum}, got {shown}") + "$"):
            call(value)

    def test_a_dimension_whose_square_is_past_the_float_range_is_shown_by_repr_up_to_the_digit_limit(self):
        # one formatting path: the repr where Python can print it, the bit length past its 4300-digit limit
        with pytest.raises(ValueError, match=f"whose square is a finite double, got {10**400}$"):
            _dimension(10**400)
        with pytest.raises(ValueError, match="whose square is a finite double, got an integer of 16610 bits$"):
            _dimension(HUGE)

    def test_a_value_above_the_maximum_raises_the_given_error(self):
        with pytest.raises(DimensionError, match=re.escape("n must be at most 3, got np.int64(4)")):
            _integer(np.int64(4), "n", 0, DimensionError, maximum=3)
        assert _integer(3, "n", 0, maximum=3) == 3

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.array(3)])
    def test_every_integer_type_comes_back_as_a_plain_int(self, value):
        got = _integer(value, "n", 0)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [1, np.int64(1)])
    def test_an_integer_below_the_minimum_raises_the_given_error(self, value):
        with pytest.raises(DimensionError, match=re.escape(f"n must be >= 2 and an integer, got {value!r}")):
            _integer(value, "n", 2, DimensionError)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.array([3])])
    def test_a_bool_or_an_integer_array_is_refused_with_the_given_error(self, value):
        # bool is an int subclass, so only an explicit refusal keeps True from passing as 1
        with pytest.raises(DimensionError, match=re.escape(f"n must be >= 0 and an integer, got {value!r}")):
            _integer(value, "n", 0, DimensionError)
