"""End-to-end verification suite: every closed-form claim against brute force.

Each check runs over d = 2..d_max with ``n_random`` seeded random draws
where randomness is involved, records its worst residual (Frobenius norm
for matrix claims, absolute difference for scalar claims, violation count
for strict inequalities) and never aborts early: the full residual table is
the point. Reports are bit-for-bit reproducible for a fixed seed.

The audit makes one simulation pass over (d, machine, draw). Each draw's
pure output factor M = V|psi> (d^2 by d) and its two single-clone
reductions X X^dag (X a d-by-d^2 reshaping of M) feed every per-draw
check, from output validity to the phase-state modulus; phase covariance
compares each draw's reduction with its machine's phase-zero one,
conjugated by U_phi, on every machine of the grid. The two-clone output
rho_AB = M M^dag is never formed: its trace is ||M||_F^2, and its
positivity is checked on the d-by-d ancilla Gram M^dag M, which has the
same nonzero spectrum. Cost grows like d^4 per draw, in O(d^3) memory. On
a 2-core machine with numpy 2.4, ``verify --trials 20`` takes 1.5 s at
d_max 12 (median of ten runs, 38 MB of RSS) and 148–170 s at d_max 64 (two
runs, 147–149 MB of RSS).

MUB checks cover every odd prime d <= d_max; :func:`mub_rows` is also what
``phaseclone mub`` prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloner import (
    CloningMachine,
    _output_factor,
    _single_clone,
    build_machine,
    fidelity_closed_form,
    optimal_fidelity,
    optimal_params,
    shrink_factor,
    simulate_fidelity,
    uqcm_fidelity,
)
from .linalg import EQ_TOL, PSD_TOL, fidelity_pure, frobenius_distance
from .optimize import optimum_residual, sweep_alpha
from .states import (
    PhaseVector,
    gram_residual,
    is_prime,
    mub_basis,
    phase_state,
    random_phase_vector,
    standard_basis,
    symmetric_pair,
    unbiasedness_residual,
)

UNBIASED_TOL = 1e-10
CONSISTENCY_TOL = 1e-9
EXACT_TOL = 1e-15  # checks that hold exactly in floating point
COUNT_TOL = 0.5  # violation-count checks pass iff the count is zero


@dataclass(frozen=True)
class CheckResult:
    name: str
    d_range: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]
    seed: int

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_rows(self) -> list[dict]:
        return [
            {
                "check": c.name,
                "d_range": c.d_range,
                "passed": c.passed,
                "residual": c.residual,
                "tolerance": c.tolerance,
            }
            for c in self.checks
        ]


def _random_split(rng: np.random.Generator) -> tuple[float, float]:
    theta = rng.uniform(0.0, math.pi / 2.0)
    return math.cos(theta), math.sin(theta)


def mub_rows(d: int) -> list[dict]:
    """Rows ``kind,i,j,value`` for the d mutually unbiased bases of odd prime d plus the standard one.

    One orthonormality residual per basis, one unbiasedness residual per
    basis pair (the standard basis is labelled ``std``), then the simulated
    fidelity of every MUB state under the optimal machine.
    """
    bases = [(str(l), mub_basis(d, l)) for l in range(d)] + [("std", standard_basis(d))]
    rows = [{"kind": "orthonormality", "i": i, "j": i, "value": gram_residual(b)} for i, b in bases]
    for (i, a), (j, b) in itertools.combinations(bases, 2):
        rows.append({"kind": "unbiasedness", "i": i, "j": j, "value": unbiasedness_residual(a, b)})
    machine = build_machine(d, *optimal_params(d))
    for l, basis in bases[:-1]:
        for t, psi in enumerate(basis):
            rows.append({"kind": "fidelity", "i": l, "j": str(t), "value": simulate_fidelity(machine, psi)})
    return rows


def mub_worst(d: int, rows: list[dict]) -> tuple[float, float]:
    """Worst basis residual and worst ``|F - F_opt(d)|`` over the rows of :func:`mub_rows`."""
    target = optimal_fidelity(d)
    worst_basis = max(r["value"] for r in rows if r["kind"] != "fidelity")
    worst_uniform = max(abs(r["value"] - target) for r in rows if r["kind"] == "fidelity")
    return worst_basis, worst_uniform


def run_audit(d_max: int, n_random: int, seed: int, corrupt: bool = False) -> AuditReport:
    """Execute the full check suite for d = 2..d_max and assemble the report.

    ``corrupt`` adds an unnormalized machine (the optimal split scaled by
    sqrt(0.9), so V^dag V = 0.9 I) to the unitarity check; the resulting
    failure demonstrates that the suite actually has teeth. Failures are
    recorded, never raised.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be >= 2, got {d_max}")
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.Generator(np.random.PCG64(seed))
    seeds = itertools.count(seed * 1_000_003 + 1)  # sub-seeds of the phase draws
    dims = range(2, d_max + 1)
    d_range = f"2..{d_max}"
    checks: list[CheckResult] = []

    def record(name: str, residual: float, tolerance: float, rng_label: str = ""):
        checks.append(CheckResult(name, rng_label or d_range, float(residual), tolerance))

    # Per-d machine grid: the optimum plus n_random points on the parameter circle.
    grids: dict[int, list[CloningMachine]] = {}
    for d in dims:
        grid = [build_machine(d, *optimal_params(d))]
        for _ in range(n_random):
            grid.append(build_machine(d, *_random_split(rng)))
        grids[d] = grid

    # V^dag V = I (the corrupted machine, when injected, must trip this)
    worst = 0.0
    for d in dims:
        for machine in grids[d]:
            worst = max(worst, machine.unitarity_residual())
        if corrupt:
            opt = grids[d][0]
            bad = CloningMachine(d, opt.alpha * math.sqrt(0.9), opt.beta * math.sqrt(0.9))
            worst = max(worst, bad.unitarity_residual())
    record("isometry_unitarity", worst, EQ_TOL)

    # one simulation sweep feeds every per-draw check: each draw's output factor M and its two reductions
    worst_sym = worst_agree = worst_scalar = worst_matrix = worst_valid = worst_std = worst_cov = worst_mod = 0.0
    for d in dims:
        for machine in grids[d]:
            red0 = _single_clone(_output_factor(machine, phase_state(PhaseVector(d, (0.0,) * d)))).mat
            fidelities = []
            for _ in range(max(2, n_random)):
                pv = random_phase_vector(d, next(seeds))
                psi = phase_state(pv)
                worst_mod = max(worst_mod, float(np.abs(np.abs(psi.amps) - 1.0 / math.sqrt(d)).max()))
                m = _output_factor(machine, psi)
                rho_a = _single_clone(m, 0)
                red_a = rho_a.mat
                red_b = _single_clone(m, 1).mat

                # physical validity of the simulated output rho_AB = M M^dag, read off M: its trace is
                # ||M||_F^2, and its nonzero spectrum is that of the d-by-d ancilla Gram M^dag M, so
                # positivity is checked there; Hermiticity is checked on the reductions consumed below
                herm = max(frobenius_distance(red, red.conj().T) for red in (red_a, red_b))
                tr_err = abs(np.vdot(m, m).real - 1.0)
                min_eig = float(np.linalg.eigvalsh(m.conj().T @ m).min())
                worst_valid = max(worst_valid, herm, tr_err, max(0.0, -min_eig))

                # the two clones are interchangeable
                worst_sym = max(worst_sym, frobenius_distance(red_a, red_b))

                # brute force vs closed form (f_sim is what simulate_fidelity computes)
                f_sim = fidelity_pure(psi, rho_a)
                f_closed = fidelity_closed_form(d, machine.alpha, machine.beta)
                worst_agree = max(worst_agree, abs(f_sim - f_closed))
                fidelities.append(f_sim)

                # shrink (scalar) form of the reduced output
                eta = shrink_factor(d, machine.alpha, machine.beta)
                rho_in = np.outer(psi.amps, psi.amps.conj())
                scalar = eta * rho_in + (1.0 - eta) / d * np.eye(d)
                worst_scalar = max(worst_scalar, frobenius_distance(red_a, scalar))

                # entrywise closed-form reduced matrix
                phases = np.array(pv.phases)
                twist = np.exp(1j * (phases[:, None] - phases[None, :]))
                closed = (eta / d) * twist
                np.fill_diagonal(closed, 1.0 / d)
                worst_matrix = max(worst_matrix, frobenius_distance(red_a, closed))

                # phase covariance: the reduced output is the phase-zero one conjugated by U_phi = diag(e^(i phi)),
                # which multiplies entry (j, k) by e^(i(phi_j - phi_k))
                worst_cov = max(worst_cov, frobenius_distance(red_a, red0 * twist))

            worst_std = max(worst_std, float(np.std(fidelities, ddof=1)))
    record("clone_symmetry", worst_sym, EQ_TOL)
    record("closed_form_agreement", worst_agree, EQ_TOL)
    record("scalar_form", worst_scalar, EQ_TOL)
    record("reduced_closed_matrix", worst_matrix, EQ_TOL)
    record("output_state_validity", worst_valid, PSD_TOL)
    record("fidelity_phase_independence", worst_std, EQ_TOL)
    record("phase_covariance", worst_cov, EQ_TOL)

    # optimizer, closed form and explicit parameters agree
    record("optimum_consistency", max(optimum_residual(d) for d in dims), CONSISTENCY_TOL)

    # alpha sweep: the grid never beats the analytic optimum, and is unimodal
    worst_bound = 0.0
    bad_shape = 0
    for d in dims:
        table = sweep_alpha(d, 101)
        worst_bound = max(worst_bound, table.max_f - optimal_fidelity(d))
        diffs = np.diff([row[2] for row in table.rows])
        changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
        bad_shape += changes != 1
    record("sweep_upper_bound", max(0.0, worst_bound), EQ_TOL)
    record("objective_unimodal", float(bad_shape), COUNT_TOL)

    # strict superiority over the universal baseline, with a shrinking gap
    gaps = [optimal_fidelity(d) - uqcm_fidelity(d) for d in dims]
    record("uqcm_superiority", float(sum(g <= 0.0 for g in gaps)), COUNT_TOL)
    if len(gaps) > 1:
        record(
            "superiority_gap_decreasing",
            float(sum(b >= a for a, b in zip(gaps, gaps[1:]))),
            COUNT_TOL,
        )
    fopts = [optimal_fidelity(d) for d in dims]
    bad = sum(b >= a for a, b in zip(fopts, fopts[1:])) + sum(f <= 0.5 for f in fopts)
    record("optimal_fidelity_decreasing", float(bad), COUNT_TOL)

    # the two dimensions with independently known optima
    record("level2_value", abs(optimal_fidelity(2) - (0.5 + math.sqrt(0.125))), EQ_TOL, "2")
    if d_max >= 3:
        record("level3_value", abs(optimal_fidelity(3) - (5.0 + math.sqrt(17.0)) / 12.0), EQ_TOL, "3")

    # state-construction invariants (the modulus was read off the sweep's draws)
    record("phase_state_modulus", worst_mod, EQ_TOL)

    worst = 0.0
    for d in dims:
        for j in range(d):
            for l in range(d):
                amps = symmetric_pair(d, j, l).amps
                swapped = amps.reshape(d, d).T.reshape(-1)
                worst = max(worst, float(np.abs(amps - swapped).max()))
    record("symmetric_pair_swap", worst, EXACT_TOL)

    # mutually unbiased bases: pairwise unbiased, and all cloned equally well
    mub_dims = [d for d in range(3, d_max + 1) if is_prime(d)]
    if mub_dims:
        label = ";".join(str(d) for d in mub_dims)  # comma-free: lands in a CSV cell
        worst_basis, worst_uniform = zip(*(mub_worst(d, mub_rows(d)) for d in mub_dims))
        record("mub_unbiasedness", max(worst_basis), UNBIASED_TOL, label)
        record("mub_cloning_uniformity", max(worst_uniform), EQ_TOL, label)

    return AuditReport(checks=tuple(checks), seed=seed)
