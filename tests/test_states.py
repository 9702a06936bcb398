import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone.linalg import DimensionError
from phaseclone.states import (
    PhaseVector,
    UnsupportedDimensionError,
    gram_residual,
    is_prime,
    mub_basis,
    phase_state,
    random_phase_vector,
    symmetric_pair,
    unbiasedness_residual,
)

MUB_DIMS = (3, 5, 7, 11, 13)


class TestPhaseState:
    def test_all_zero_phases(self):
        psi = phase_state(PhaseVector(2, (0.0, 0.0)))
        np.testing.assert_allclose(psi.amps, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_pi_phase_gives_real_minus(self):
        psi = phase_state(PhaseVector(2, (0.0, math.pi)))
        np.testing.assert_allclose(psi.amps, np.array([1, -1]) / math.sqrt(2), atol=1e-15)

    def test_quarter_turns_d4(self):
        psi = phase_state(PhaseVector(4, (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)))
        np.testing.assert_allclose(psi.amps, np.array([1, 1j, -1, -1j]) / 2, atol=1e-15)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_amplitude_moduli_all_equal(self, d, seed):
        psi = phase_state(random_phase_vector(d, seed))
        assert np.abs(np.abs(psi.amps) - 1.0 / math.sqrt(d)).max() < 1e-15
        # phases[0] = 0 pins the first amplitude on the positive real axis
        assert psi.amps[0] == 1.0 / math.sqrt(d)

    def test_phase_vector_validation(self):
        with pytest.raises(ValueError):
            PhaseVector(2, (0.1, 0.0))  # first phase not zero
        with pytest.raises(ValueError):
            PhaseVector(2, (0.0, 2 * math.pi))  # outside [0, 2*pi)
        with pytest.raises(ValueError):
            PhaseVector(3, (0.0, 1.0))  # wrong length
        with pytest.raises(ValueError):
            PhaseVector(1, (0.0,))

    def test_nan_phase_rejected(self):
        # every comparison with NaN is False, so an out-of-range test alone would let it through
        with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
            PhaseVector(3, (0.0, math.nan, 1.0))


class TestRandomPhaseVector:
    def test_deterministic_for_fixed_seed(self):
        assert random_phase_vector(3, 42) == random_phase_vector(3, 42)

    def test_distinct_seeds_differ(self):
        assert random_phase_vector(3, 0) != random_phase_vector(3, 1)

    def test_first_phase_always_zero(self):
        for seed in range(50):
            assert random_phase_vector(5, seed).phases[0] == 0.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            random_phase_vector(1, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_phase_vector(3, -1)

    def test_mean_matches_uniform_distribution(self):
        # mean of U[0, 2*pi) is pi; 10^5 draws put 3 sigma at ~0.017
        n = 100_000
        total = 0.0
        for seed in range(n):
            total += random_phase_vector(2, seed).phases[1]
        sigma_mean = (2 * math.pi / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(total / n - math.pi) < 3 * sigma_mean


class TestSymmetricPair:
    def test_equal_indices_give_product_state(self):
        psi = symmetric_pair(2, 0, 0)
        np.testing.assert_array_equal(psi.amps, np.array([1, 0, 0, 0], dtype=complex))

    def test_distinct_indices_give_symmetric_superposition(self):
        psi = symmetric_pair(2, 0, 1)
        expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(psi.amps, expected, atol=1e-15)

    def test_symmetric_in_arguments(self):
        np.testing.assert_array_equal(symmetric_pair(3, 2, 1).amps, symmetric_pair(3, 1, 2).amps)

    def test_swap_of_factors_is_exact_identity(self):
        for d in (2, 3, 5):
            for j in range(d):
                for l in range(d):
                    amps = symmetric_pair(d, j, l).amps
                    swapped = amps.reshape(d, d).T.reshape(-1)
                    np.testing.assert_array_equal(amps, swapped)

    def test_normalized(self):
        for j, l in [(0, 0), (0, 2), (3, 1)]:
            symmetric_pair(4, j, l).require_normalized()

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            symmetric_pair(2, 0, 2)


def standard_basis(d):
    return np.eye(d, dtype=np.complex128)


class TestMubConstruction:
    def test_first_basis_first_state_is_uniform(self):
        np.testing.assert_allclose(mub_basis(3, 0)[0], np.ones(3) / math.sqrt(3), atol=1e-15)

    def test_first_basis_second_state(self):
        # exponents t*(d-j) mod 3 for t=1: (0, 2, 1)
        w = np.exp(2j * math.pi / 3)
        np.testing.assert_allclose(mub_basis(3, 0)[1], np.array([1, w**2, w]) / math.sqrt(3), atol=1e-15)

    def test_returns_a_read_only_complex_array(self):
        # row t holding state t is pinned entry by entry in test_matches_the_per_state_loop_bit_for_bit
        for d in MUB_DIMS:
            basis = mub_basis(d, d - 1)
            assert basis.shape == (d, d) and basis.dtype == np.complex128
            with pytest.raises(ValueError, match="read-only"):
                basis[0, 0] = 0.0

    def test_cross_basis_overlaps_d3(self):
        b0, b1 = mub_basis(3, 0), mub_basis(3, 1)
        for a in b0:
            for b in b1:
                assert abs(np.vdot(a, b)) ** 2 == pytest.approx(1 / 3, abs=1e-12)

    def test_bases_orthonormal(self):
        for d in (3, 5, 7):
            for l in range(d):
                assert gram_residual(mub_basis(d, l)) < 1e-12

    def test_unbiased_against_standard_basis(self):
        for l in range(3):
            np.testing.assert_allclose(np.abs(mub_basis(3, l)) ** 2, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_every_mub_state_is_a_phase_state(self):
        # constant amplitude modulus is what makes them optimally cloneable
        for d in MUB_DIMS:
            for l in range(d):
                assert np.abs(np.abs(mub_basis(d, l)) - 1 / math.sqrt(d)).max() < 1e-15

    def test_full_prime_family_pairwise_unbiased(self):
        for d in MUB_DIMS:
            bases = [mub_basis(d, l) for l in range(d)] + [standard_basis(d)]
            for i in range(len(bases)):
                for k in range(i + 1, len(bases)):
                    assert unbiasedness_residual(bases[i], bases[k]) < 1e-10

    def test_rejects_two_level_systems(self):
        with pytest.raises(UnsupportedDimensionError):
            mub_basis(2, 0)

    @pytest.mark.parametrize("d", [4, 6, 9, 15])
    def test_rejects_non_primes(self, d):
        with pytest.raises(UnsupportedDimensionError):
            mub_basis(d, 0)

    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            mub_basis(3, 3)
        with pytest.raises(ValueError):
            mub_basis(3, -1)

    def test_matches_the_per_state_loop_bit_for_bit(self):
        # the one-array construction against the state-by-state loop it replaced
        def loop_state(d, l, t, s):
            omega = np.exp(2j * math.pi / d)
            exps = [(t * (d - j) - l * s[j]) % d for j in range(d)]
            return omega ** np.array(exps) / math.sqrt(d)

        for d in (p for p in range(3, 62) if is_prime(p)):
            s = [sum(range(j, d)) for j in range(d)]
            for l in range(d):
                np.testing.assert_array_equal(mub_basis(d, l), [loop_state(d, l, t, s) for t in range(d)])


class TestStandardBasisAndUnbiasedness:
    def test_standard_basis(self):
        # the identity's rows are orthonormal exactly, and unbiased against every MUB of d = 3 to round-off
        basis = standard_basis(3)
        assert gram_residual(basis) == 0.0
        for l in range(3):
            assert unbiasedness_residual(basis, mub_basis(3, l)) < 1e-15

    def test_textbook_qubit_pair(self):
        plus_minus = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert unbiasedness_residual(standard_basis(2), plus_minus) < 1e-10

    def test_basis_not_unbiased_with_itself(self):
        # |<e_j|e_j>|^2 = 1 is the worst overlap: 1 - 1/d away from unbiased
        for d in (2, 3, 5):
            assert unbiasedness_residual(standard_basis(d), standard_basis(d)) == 1.0 - 1.0 / d

    def test_d5_family_all_pairs(self):
        bases = [mub_basis(5, l) for l in range(5)] + [standard_basis(5)]
        for i in range(len(bases)):
            for k in range(i + 1, len(bases)):
                assert unbiasedness_residual(bases[i], bases[k]) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            unbiasedness_residual(standard_basis(2), standard_basis(3))

    def test_empty_basis_rejected(self):
        empty = np.empty((0, 2), dtype=np.complex128)
        for a, b in [(empty, standard_basis(2)), (standard_basis(2), empty)]:
            with pytest.raises(ValueError, match="nonempty"):
                unbiasedness_residual(a, b)
        with pytest.raises(ValueError, match="nonempty"):
            gram_residual(empty)

    def test_one_dimensional_array_rejected(self):
        # a single state is a (1, d) array; a bare (d,) vector is not a basis
        for a, b in [(mub_basis(3, 0)[0], standard_basis(3)), (standard_basis(3), mub_basis(3, 0)[0])]:
            with pytest.raises(DimensionError):
                unbiasedness_residual(a, b)
        with pytest.raises(DimensionError):
            gram_residual(mub_basis(3, 0)[0])

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matrix_residuals_match_pairwise_vdot(self, d):
        # the residuals are matrix products; a per-pair vdot loop is the
        # reference, and the summation order may differ in the last ulps
        bases = [mub_basis(d, l) for l in range(d)] + [standard_basis(d)]
        ulps = 4 * np.finfo(float).eps
        for a in bases:
            gram = max(abs(np.vdot(x, y) - (i == j)) for i, x in enumerate(a) for j, y in enumerate(a))
            assert abs(gram_residual(a) - gram) <= ulps
            for b in bases:
                worst = max(abs(abs(np.vdot(x, y)) ** 2 - 1.0 / d) for x in a for y in b)
                assert abs(unbiasedness_residual(a, b) - worst) <= ulps


@pytest.mark.parametrize(
    "n,expected",
    [(1, False), (2, True), (3, True), (4, False), (13, True), (49, False), (61, True)],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected
