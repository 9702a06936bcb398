"""Numerical re-derivation of the optimal machine, independent of the closed form.

With beta = sqrt(1 - alpha^2) the feasible set is the interval alpha in
[0, 1] and the fidelity is smooth and unimodal there, so a derivative-free
golden-section search is enough and needs no tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import _check_domain, fidelity_closed_form, optimal_fidelity, optimal_params
from .linalg import _integer

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_ITERATIONS = 200


class ConvergenceError(RuntimeError):
    """Search failed to shrink the bracket to tolerance within the iteration cap."""


@dataclass(frozen=True)
class SweepTable:
    """Fidelity along a uniform alpha grid; the grid maximum is computed from the rows."""

    d: int
    rows: tuple[tuple[float, float, float], ...]  # (alpha, beta, f_closed), ascending alpha

    @property
    def max_f(self) -> float:
        return max(f for _, _, f in self.rows)


def _objective(d: int):
    def f(alpha: float) -> float:
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        return fidelity_closed_form(d, alpha, beta)

    return f


def maximize_fidelity(d: int, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization of the fidelity over alpha in [0, 1].

    Returns (alpha_star, f_star): the best evaluated point once the bracket
    width drops below ``tol``. Because only evaluated points are returned,
    f_star can never exceed the true maximum. Any ``tol >= 1e-14`` is met
    within 67 steps, far inside ``MAX_ITERATIONS``.
    """
    d = _check_domain(d)
    if not tol >= 1e-14:  # also rejects NaN
        raise ValueError(f"tol must be >= 1e-14, got {tol!r}")

    f = _objective(d)
    lo, hi = 0.0, 1.0
    c = hi - INV_PHI * (hi - lo)
    e = lo + INV_PHI * (hi - lo)
    fc, fe = f(c), f(e)
    best_x, best_f = (c, fc) if fc >= fe else (e, fe)

    for _ in range(MAX_ITERATIONS):
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
    raise ConvergenceError(f"bracket still {hi - lo!r} wide after {MAX_ITERATIONS} iterations (tol {tol!r})")


def sweep_alpha(d: int, n_points: int) -> SweepTable:
    """Evaluate the closed-form fidelity on a uniform alpha grid over [0, 1]."""
    d, n_points = _check_domain(d), _integer(n_points, "n_points", 3)
    f = _objective(d)
    rows = []
    for alpha in np.linspace(0.0, 1.0, n_points):
        alpha = float(alpha)
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        rows.append((alpha, beta, f(alpha)))
    return SweepTable(d=d, rows=tuple(rows))


def optimum_residual(d: int) -> float:
    """Worst pairwise disagreement between the three routes to the optimal fidelity."""
    _, f_num = maximize_fidelity(d)
    f_formula = optimal_fidelity(d)
    f_at_params = fidelity_closed_form(d, *optimal_params(d))
    return max(
        abs(f_num - f_formula),
        abs(f_num - f_at_params),
        abs(f_formula - f_at_params),
    )
