"""Numerical re-derivation of the optimal machine, independent of the closed form.

With beta = sqrt(1 - alpha^2) the feasible set is the interval alpha in
[0, 1] and the fidelity is smooth and unimodal there, so a derivative-free
golden-section search is enough and needs no tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import _fidelity, fidelity_closed_form, optimal_fidelity, optimal_params
from .linalg import _integer

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
TOL = 1e-12  # final bracket width: 58 steps from [0, 1]


@dataclass(frozen=True)
class SweepTable:
    """Fidelity along a uniform alpha grid; the grid maximum is computed from the rows."""

    d: int
    rows: tuple[tuple[float, float, float], ...]  # (alpha, beta, f_closed), ascending alpha

    @property
    def max_f(self) -> float:
        return max(f for _, _, f in self.rows)


def _objective(d: int):
    # every alpha in [0, 1] gives a split on the unit circle, so the closed form needs no domain check here
    def f(alpha: float) -> float:
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        return _fidelity(d, alpha, beta)

    return f


def maximize_fidelity(d: int) -> tuple[float, float]:
    """Golden-section maximization of the fidelity over alpha in [0, 1].

    Returns (alpha_star, f_star): stops when the bracket is ``TOL`` wide and
    returns the better interior point. Each step keeps the better of the two
    as an interior point, so that is the best point evaluated; because only
    evaluated points are returned, f_star can never exceed the true maximum.
    """
    f = _objective(_integer(d, "d", 2))
    lo, hi = 0.0, 1.0
    c = hi - INV_PHI * (hi - lo)
    e = lo + INV_PHI * (hi - lo)
    fc, fe = f(c), f(e)
    while hi - lo > TOL:
        if fc > fe:
            hi, e, fe = e, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, e, fe
            e = lo + INV_PHI * (hi - lo)
            fe = f(e)
    return (c, fc) if fc >= fe else (e, fe)


def sweep_alpha(d: int, n_points: int) -> SweepTable:
    """Evaluate the closed-form fidelity on a uniform alpha grid over [0, 1].

    The grid is evaluated as whole arrays, in the operation order of one
    :func:`~phaseclone.cloner.fidelity_closed_form` call per point, so each
    row is that call's double; every grid point is in its domain.
    """
    d, n_points = _integer(d, "d", 2), _integer(n_points, "n_points", 3)
    alpha = np.linspace(0.0, 1.0, n_points)
    beta = np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))
    f = _fidelity(d, alpha, beta)
    return SweepTable(d=d, rows=tuple(zip(alpha.tolist(), beta.tolist(), f.tolist())))


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
