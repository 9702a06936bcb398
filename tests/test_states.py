import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone.linalg import EQ_TOL, DimensionError
from phaseclone.states import (
    UnsupportedDimensionError,
    _mub_amps,
    _random_phase_vectors,
    _uniforms,
    gram_residual,
    is_prime,
    mub_basis,
    phase_state,
    random_phase_vector,
    unbiasedness_residual,
)
from numpy_oracle import numpy_phases

MUB_DIMS = (3, 5, 7, 11, 13)


class TestPhaseState:
    def test_all_zero_phases(self):
        psi = phase_state([0.0, 0.0])
        np.testing.assert_allclose(psi, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_pi_phase_gives_real_minus(self):
        psi = phase_state([0.0, math.pi])
        np.testing.assert_allclose(psi, np.array([1, -1]) / math.sqrt(2), atol=1e-15)

    def test_quarter_turns_d4(self):
        psi = phase_state([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        np.testing.assert_allclose(psi, np.array([1, 1j, -1, -1j]) / 2, atol=1e-15)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_amplitude_moduli_all_equal(self, d, seed):
        psi = phase_state(random_phase_vector(d, seed))
        assert np.abs(np.abs(psi) - 1.0 / math.sqrt(d)).max() < 1e-15
        # phases[0] = 0 pins the first amplitude on the positive real axis
        assert psi[0] == 1.0 / math.sqrt(d)

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 5), (12, 20), (64, 8)])
    def test_a_stack_equals_its_rows_bit_for_bit(self, d, n):
        # the audit builds each machine's draws as one stack; the states must be those of the per-draw calls
        phases = np.array([random_phase_vector(d, 1000 * d + k) for k in range(n)])
        stack = phase_state(phases)
        assert stack.shape == (n, d) and stack.dtype == np.complex128
        assert (stack == np.array([phase_state(row) for row in phases])).all()

    def test_phase_state_validation(self):
        # one rejection per condition, for a single phase vector and for a row of a stack
        for bad in ([0.1, 0.0], [[0.0, 1.0], [0.1, 1.0]]):
            with pytest.raises(ValueError, match="first phase"):
                phase_state(bad)
        for bad in ([0.0, 2 * math.pi], [0.0, -1e-300], [[0.0, 1.0], [0.0, 7.0]]):
            with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
                phase_state(bad)
        for bad in (0.0, np.zeros((2, 2, 3))):  # neither one phase vector nor a stack of them
            with pytest.raises(DimensionError):
                phase_state(bad)
        with pytest.raises(ValueError, match="d must be >= 2"):
            phase_state([0.0])

    def test_nan_phase_rejected(self):
        # every comparison with NaN is False, so an out-of-range test alone would let it through
        for bad in ([0.0, math.nan, 1.0], [[0.0, 1.0, 1.0], [0.0, 1.0, math.nan]]):
            with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
                phase_state(bad)


class TestRandomPhaseVector:
    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(random_phase_vector(3, 42), random_phase_vector(3, 42))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_phase_vector(3, 0), random_phase_vector(3, 1))

    def test_first_phase_always_zero(self):
        for seed in range(50):
            assert random_phase_vector(5, seed)[0] == 0.0

    def test_is_the_pinned_pcg64_stream(self):
        # phases 1..d-1 are the first d - 1 uniforms of PCG64(seed); every fixed-seed output depends on this
        for d, seed in ((2, 0), (7, 3), (64, 123_456)):
            phases = random_phase_vector(d, seed)
            assert phases.shape == (d,) and phases.dtype == np.float64
            assert (phases == numpy_phases(d, seed)).all()

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            random_phase_vector(1, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer, got -1"):
            random_phase_vector(3, -1)

    def test_mean_matches_uniform_distribution(self):
        # mean of U[0, 2*pi) is pi; 10^5 draws put 3 sigma at ~0.017. One batch of the seeds gives their
        # random_phase_vector(2, seed) rows, without 10^5 separate calls
        n = 100_000
        total = float(_random_phase_vectors(2, range(n))[:, 1].sum())
        sigma_mean = (2 * math.pi / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(total / n - math.pi) < 3 * sigma_mean


# seeds on both sides of every SeedSequence entropy-word boundary (a seed >= 2^128 overflows the 4-word pool)
WORD_BOUNDARY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 5)


class TestRandomPhaseVectors:
    @pytest.mark.parametrize("d", [2, 3, 12, 64])
    def test_rows_are_the_one_draw_route_bit_for_bit(self, d):
        # both routes give numpy's own draw, checked against numpy's Generator itself
        seeds = [*WORD_BOUNDARY_SEEDS, *range(1_000_004, 1_000_024)]
        batch = _random_phase_vectors(d, seeds)
        assert batch.shape == (len(seeds), d) and batch.dtype == np.float64 and not batch.flags.writeable
        for row, seed in zip(batch, seeds):
            expected = numpy_phases(d, seed)
            assert (row == expected).all()
            assert (random_phase_vector(d, seed) == expected).all()

    @pytest.mark.parametrize("order", [slice(None), slice(None, None, -1)])
    def test_mixed_batches_straddling_every_word_boundary(self, order):
        # each seed's draws are its own, whatever the widest seed of its batch
        seeds = WORD_BOUNDARY_SEEDS[order]
        for k in range(1, len(seeds) + 1):
            batch = _random_phase_vectors(5, seeds[:k])
            assert all((row == numpy_phases(5, seed)).all() for row, seed in zip(batch, seeds))

    @given(st.integers(2, 16), st.lists(st.integers(0, 2**300), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_any_seeds_of_any_width(self, d, seeds):
        batch = _random_phase_vectors(d, seeds)
        for row, seed in zip(batch, seeds):
            expected = numpy_phases(d, seed)
            assert (row == expected).all()
            assert (random_phase_vector(d, seed) == expected).all()

    def test_empty_batch(self):
        assert _random_phase_vectors(4, []).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, 2.5, 1.0])
    def test_rejects_a_bad_seed_as_the_one_draw_route_does(self, seed):
        with pytest.raises(ValueError) as one:
            random_phase_vector(3, seed)
        with pytest.raises(ValueError) as batch:
            _random_phase_vectors(3, [0, seed])
        assert str(batch.value) == str(one.value)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="d must be >= 2"):
            _random_phase_vectors(1, [0])


class TestUniforms:
    @pytest.mark.parametrize("seed", WORD_BOUNDARY_SEEDS)
    def test_is_numpys_sequential_stream_bit_for_bit(self, seed):
        # 6300 = 63 dimensions x 100 trials, the most split angles verify draws from one seed
        uniforms = _uniforms([seed], 6300)
        assert uniforms.shape == (1, 6300) and uniforms.dtype == np.float64
        rng = np.random.Generator(np.random.PCG64(seed))
        assert (uniforms[0] == [rng.random() for _ in range(6300)]).all()
        rng = np.random.Generator(np.random.PCG64(seed))
        assert (uniforms[0] * (math.pi / 2.0) == [rng.uniform(0.0, math.pi / 2.0) for _ in range(6300)]).all()

    @pytest.mark.parametrize("seed", WORD_BOUNDARY_SEEDS)
    def test_phase_vectors_are_prefixes_of_one_draw(self, seed):
        # what lets table draw 64 phases once and give row d its first d
        longest = random_phase_vector(64, seed)
        for d in range(2, 65):
            assert (longest[:d] == numpy_phases(d, seed)).all()


def test_states_are_read_only_arrays():
    # a state is shared by reference (the audit reuses each stack across its checks), so none may be written
    states = {
        "phase_state": phase_state(random_phase_vector(3, 0)),
        "phase_state stack": phase_state(np.zeros((2, 3))),
        "random_phase_vector": random_phase_vector(3, 0),
    }
    for name, arr in states.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        assert not arr.flags.writeable, name


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


    def test_stacked_construction_matches_each_basis_bit_for_bit(self):
        for d in (p for p in range(3, 62) if is_prime(p)):
            stack = _mub_amps(d, np.arange(d)[:, None, None])
            assert stack.shape == (d, d, d)
            for l in range(d):
                assert stack[l].tobytes() == mub_basis(d, l).tobytes(), (d, l)


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

    def test_a_stack_gives_each_slice_residual_exactly(self):
        rng = np.random.default_rng(5)
        for d in (3, 5, 29, 61):
            bases = np.concatenate([_mub_amps(d, np.arange(d)[:, None, None]), standard_basis(d)[None]])
            for i in (0, d // 2, d - 1):
                got = unbiasedness_residual(bases[i], bases[i + 1 :])
                assert got.shape == (d - i,)
                assert got.tolist() == [unbiasedness_residual(bases[i], b) for b in bases[i + 1 :]]
        # any widths: k arrays of m states against a (j, d) array
        a, b = rng.normal(size=(4, 6)) + 1j, rng.normal(size=(3, 2, 6)) - 1j
        assert unbiasedness_residual(a, b).tolist() == [unbiasedness_residual(a, s) for s in b]

    def test_stack_shapes_rejected(self):
        with pytest.raises(DimensionError):
            unbiasedness_residual(np.ones((1, 3, 3)), standard_basis(3))  # only b may be a stack
        with pytest.raises(DimensionError):
            unbiasedness_residual(standard_basis(3), np.ones((1, 1, 3, 3)))
        with pytest.raises(DimensionError):
            unbiasedness_residual(standard_basis(3), np.ones((2, 3, 2)))
        with pytest.raises(ValueError, match="nonempty"):
            unbiasedness_residual(standard_basis(3), np.empty((0, 3, 3)))

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
    [(-3, False), (0, False), (True, False), (1, False), (2, True), (3, True), (4, False), (13, True), (49, False),
     (61, True), (np.int64(61), True)],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 3.0, "5"])
def test_is_prime_follows_the_integer_rule(n):
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        is_prime(n)
