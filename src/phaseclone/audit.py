"""End-to-end verification suite: every closed-form claim against brute force.

Each check runs over d = 2..d_max with ``n_random`` seeded random draws
where randomness is involved, records its worst residual (Frobenius norm
for matrix claims, absolute difference for scalar claims, violation count
for strict inequalities) and never aborts early: the full residual table is
the point. Reports are bit-for-bit reproducible for a fixed seed.

The audit makes one simulation pass over (d, machine, draw). Each draw
builds its pure output factor M = V|psi> (d^2 by d) and keeps only the
d-by-d things M gives: its two single-clone reductions X X^dag (X a
d-by-d^2 reshaping of M), its ancilla Gram M^dag M and its trace
||M||_F^2. These fill (n, d, d) stacks over the machine's n draws, and
every per-draw check, from output validity to the phase-state modulus,
then runs once per machine on the stacks (one stacked eigensolve, one
stacked overlap <psi|rho_A|psi>). Phase covariance compares each draw's
reduction with its machine's phase-zero one, conjugated by U_phi, on every
machine of the grid. The two-clone output rho_AB = M M^dag is never
formed: its trace is ||M||_F^2, and its positivity is checked on the
ancilla Gram, which has the same nonzero spectrum. The per-draw products
cost d^4 time in O(d^3) memory; the stacks add O(n d^2). On a 2-core
machine with numpy 2.4, ``verify --trials 20`` takes 0.62 s at d_max 12
(``cli.main`` wall time, median of 11 runs, 39 MB of RSS) and 134 s at
d_max 64 (one run, 146 MB of RSS).

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
from .linalg import EQ_TOL, PSD_TOL, frobenius_distance
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

    # one simulation sweep: each draw's output factor M fills that draw's slot of its machine's stacks,
    # and every per-draw check then runs once per machine, over the stacks
    n = max(2, n_random)
    worst_sym = worst_agree = worst_scalar = worst_matrix = worst_valid = worst_std = worst_cov = worst_mod = 0.0
    for d in dims:
        phases = np.empty((n, d))
        amps = np.empty((n, d), dtype=np.complex128)
        red_a = np.empty((n, d, d), dtype=np.complex128)  # clone A's reduction of each draw
        red_b = np.empty_like(red_a)
        gram = np.empty_like(red_a)  # ancilla Gram M^dag M of each draw
        norm2 = np.empty(n)  # ||M||_F^2 of each draw
        for machine in grids[d]:
            red0 = _single_clone(_output_factor(machine, phase_state(PhaseVector(d, (0.0,) * d)))).mat
            for k in range(n):
                pv = random_phase_vector(d, next(seeds))
                psi = phase_state(pv)
                m = _output_factor(machine, psi)
                phases[k] = pv.phases
                amps[k] = psi.amps
                red_a[k] = _single_clone(m, 0).mat
                red_b[k] = _single_clone(m, 1).mat
                np.matmul(m.conj().T, m, out=gram[k])
                norm2[k] = np.vdot(m, m).real

            worst_mod = max(worst_mod, float(np.abs(np.abs(amps) - 1.0 / math.sqrt(d)).max()))

            # physical validity of the simulated output rho_AB = M M^dag, read off M: its trace is
            # ||M||_F^2, and its nonzero spectrum is that of the d-by-d ancilla Gram M^dag M, so
            # positivity is checked there; Hermiticity is checked on the reductions consumed below
            herm = max(frobenius_distance(red, red.conj().transpose(0, 2, 1)) for red in (red_a, red_b))
            tr_err = float(np.abs(norm2 - 1.0).max())
            min_eig = float(np.linalg.eigvalsh(gram).min())
            worst_valid = max(worst_valid, herm, tr_err, max(0.0, -min_eig))

            # the two clones are interchangeable
            worst_sym = max(worst_sym, frobenius_distance(red_a, red_b))

            # brute force vs closed form: <psi|rho_A|psi> is what simulate_fidelity computes, and an
            # imaginary part (a non-Hermitian reduction) counts against the same tolerance
            fid = (amps.conj()[:, None, :] @ red_a @ amps[:, :, None])[:, 0, 0]
            f_closed = fidelity_closed_form(d, machine.alpha, machine.beta)
            worst_agree = max(worst_agree, float(np.abs(fid.real - f_closed).max()), float(np.abs(fid.imag).max()))
            worst_std = max(worst_std, float(np.std(fid.real, ddof=1)))

            # shrink (scalar) form of the reduced output
            eta = shrink_factor(d, machine.alpha, machine.beta)
            rho_in = amps[:, :, None] * amps.conj()[:, None, :]
            scalar = eta * rho_in + (1.0 - eta) / d * np.eye(d)
            worst_scalar = max(worst_scalar, frobenius_distance(red_a, scalar))

            # entrywise closed-form reduced matrix
            twist = np.exp(1j * (phases[:, :, None] - phases[:, None, :]))
            closed = (eta / d) * twist
            closed[:, range(d), range(d)] = 1.0 / d
            worst_matrix = max(worst_matrix, frobenius_distance(red_a, closed))

            # phase covariance: the reduced output is the phase-zero one conjugated by U_phi = diag(e^(i phi)),
            # which multiplies entry (j, k) by e^(i(phi_j - phi_k))
            worst_cov = max(worst_cov, frobenius_distance(red_a, red0 * twist))
            # release the (n, d, d) temporaries before the next machine's d^4 draws (5 MB at d = 64, n = 20)
            del rho_in, scalar, twist, closed

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
