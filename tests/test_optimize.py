import math

import numpy as np
import pytest

from phaseclone.audit import CONSISTENCY_TOL
from phaseclone.cloner import fidelity_closed_form, optimal_fidelity, optimal_params
from phaseclone.optimize import INV_PHI, _objective, maximize_fidelity, optimum_residual, sweep_alpha

INV_SQRT2 = 0.7071067811865476


def reference_search(d, tol):
    """The golden-section search as it stood with a ``tol`` argument and a separate best point, kept as an oracle."""
    f = _objective(d)
    lo, hi = 0.0, 1.0
    c = hi - INV_PHI * (hi - lo)
    e = lo + INV_PHI * (hi - lo)
    fc, fe = f(c), f(e)
    best_x, best_f = (c, fc) if fc >= fe else (e, fe)
    for _ in range(200):
        if hi - lo <= tol:
            return best_x, best_f
        if fc > fe:
            hi, e, fe = e, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, e, fe
            e = lo + INV_PHI * (hi - lo)
            fe = f(e)
        if fc >= best_f:
            best_x, best_f = c, fc
        if fe > best_f:
            best_x, best_f = e, fe
    raise AssertionError(f"bracket still {hi - lo!r} wide after 200 iterations")


class TestMaximizeFidelity:
    def test_d2(self):
        alpha, f = maximize_fidelity(2)
        assert alpha == pytest.approx(INV_SQRT2, abs=1e-6)
        assert f == pytest.approx(0.5 + math.sqrt(0.125), abs=1e-11)

    def test_d3(self):
        _, f = maximize_fidelity(3)
        assert f == pytest.approx((5 + math.sqrt(17.0)) / 12, abs=1e-11)

    def test_d5_against_independent_formula(self):
        _, f = maximize_fidelity(5)
        assert f == pytest.approx(0.2 + (3 + math.sqrt(41.0)) / 20, abs=1e-11)

    def test_whole_dimension_range(self):
        for d in range(2, 65):
            alpha, f = maximize_fidelity(d)
            assert abs(f - optimal_fidelity(d)) < 1e-9
            assert abs(alpha - optimal_params(d)[0]) < 1e-6

    def test_never_exceeds_analytic_maximum(self):
        for d in range(2, 65):
            _, f = maximize_fidelity(d)
            assert f <= optimal_fidelity(d) + 1e-12

    @pytest.mark.parametrize("d", [*range(2, 65), 100, 10**6, 2**40])
    def test_equals_the_search_with_a_separate_best_point_bit_for_bit(self, d):
        # each step keeps the better interior point, so it is always the best point evaluated: a separate best point changes no bit
        assert maximize_fidelity(d) == reference_search(d, 1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            maximize_fidelity(1)


class TestSweepAlpha:
    def test_endpoints(self):
        for d in (2, 3, 7):
            table = sweep_alpha(d, 11)
            alpha0, beta0, f0 = table.rows[0]
            alpha1, beta1, f1 = table.rows[-1]
            assert (alpha0, beta0) == (0.0, 1.0)
            assert f0 == pytest.approx(1.0 / d + (d - 2) / (2.0 * d), abs=1e-15)
            assert (alpha1, beta1) == (1.0, 0.0)
            assert f1 == pytest.approx(1.0 / d, abs=1e-15)

    def test_rows_sorted_and_on_the_circle(self):
        table = sweep_alpha(4, 57)
        alphas = [row[0] for row in table.rows]
        assert alphas == sorted(alphas)
        assert len(table.rows) == 57
        for alpha, beta, _ in table.rows:
            assert abs(alpha**2 + beta**2 - 1.0) < 1e-14

    def test_d2_dense_grid_argmax(self):
        argmax_alpha = max(sweep_alpha(2, 101).rows, key=lambda r: r[2])[0]
        assert abs(argmax_alpha - INV_SQRT2) <= 0.01 + 1e-12  # one grid step
        assert argmax_alpha == pytest.approx(0.71, abs=1e-12)

    def test_grid_max_is_a_lower_bound(self):
        for d in range(2, 17):
            table = sweep_alpha(d, 101)
            assert table.max_f <= optimal_fidelity(d) + 1e-12

    def test_objective_unimodal_on_grid(self):
        for d in range(2, 65):
            fs = [row[2] for row in sweep_alpha(d, 101).rows]
            diffs = np.diff(fs)
            changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
            assert changes == 1, f"d={d}: {changes} sign changes"

    def test_max_f_matches_rows(self):
        table = sweep_alpha(3, 21)
        assert table.max_f == max(row[2] for row in table.rows)
        argmax_alpha = max(table.rows, key=lambda r: r[2])[0]
        assert fidelity_closed_form(3, argmax_alpha, math.sqrt(1 - argmax_alpha**2)) == pytest.approx(table.max_f, abs=1e-15)

    def test_table_is_immutable_and_hashable(self):
        table = sweep_alpha(3, 5)
        with pytest.raises(AttributeError):
            table.rows.append((0.5, 0.5, 9.0))
        assert hash(table) == hash(sweep_alpha(3, 5))
        assert table == sweep_alpha(3, 5)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            sweep_alpha(2, 2)

    @pytest.mark.parametrize("n_points, dims", [(3, range(2, 65)), (101, range(2, 65)), (100_000, (2, 3, 64))])
    def test_rows_equal_one_scalar_closed_form_call_per_point(self, n_points, dims):
        # the grid is evaluated as arrays; each row must be the double that the scalar route gives
        for d in dims:
            expected = []
            for alpha in np.linspace(0.0, 1.0, n_points).tolist():
                beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
                expected.append((alpha, beta, fidelity_closed_form(d, alpha, beta)))
            assert sweep_alpha(d, n_points).rows == tuple(expected), d


class TestVerifyOptimum:
    @pytest.mark.parametrize("d", [2, 3])
    def test_known_dimensions(self, d):
        assert optimum_residual(d) < CONSISTENCY_TOL

    def test_whole_range(self):
        assert all(optimum_residual(d) < CONSISTENCY_TOL for d in range(2, 65))

    def test_residual_is_tiny(self):
        assert optimum_residual(3) < 1e-11
