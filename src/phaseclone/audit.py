"""End-to-end verification suite: every closed-form claim against brute force.

Each check runs over d = 2..d_max with ``n_random`` seeded random draws
where randomness is involved, records its worst residual (Frobenius norm
for matrix claims, absolute difference for scalar claims, violation count
for strict inequalities) and never aborts early: the full residual table is
the point. A NaN residual is kept as the worst and fails its check. Reports
are bit-for-bit reproducible for a fixed seed.

The audit makes one pass over d, and only one d's machines (the optimum
plus ``n_random`` random splits) are alive at a time. Each machine runs
once, through the simulation route of :mod:`phaseclone.cloner`, on one
stack of phase states: row 0 is the phase-zero state, the reference of
the phase covariance check, and rows 1..n are its seeded draws. The route
reads each pure output M = V|psi> (d^2 by d) off V's nonzeros and keeps
only the d-by-d things M gives: its two single-clone reductions and its
ancilla Gram M^dag M, as (n, d, d) stacks. Every per-draw check, from
output validity to phase covariance and the phase-state modulus, then runs
once per machine on the stacks (one stacked eigensolve, one stacked
overlap <psi|rho_A|psi>). The two-clone output rho_AB = M M^dag is never
formed: its trace ||M||_F^2 is the Gram's, and its positivity is checked
on the Gram, which has the same nonzero spectrum. The simulation costs
O(d^3) time per draw and O(n d^2) memory, and no Python work is left per
draw: all of one d's phase vectors, machine by machine in sub-seed order,
come from one call of the batch route of :mod:`phaseclone.states`, whose
rows are bit-identical to one ``random_phase_vector`` call per sub-seed,
and one call of ``phase_state`` per machine turns its rows into its stack
of states. On a 2-core machine with numpy 2.4, ``verify --trials 20``
takes 0.24 s at d_max 12 (``cli.main`` wall time, median of 10 benchmark
runs, 38.6 MB of RSS) and 13-14 s at d_max 64 (in-process, two runs,
65 MB of RSS).

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
    _simulate,
    build_machine,
    fidelity_closed_form,
    optimal_fidelity,
    optimal_params,
    shrink_factor,
    uqcm_fidelity,
)
from .linalg import EQ_TOL, PSD_TOL, _integer, frobenius_distance
from .optimize import optimum_residual, sweep_alpha
from .states import (
    _random_phase_vectors,
    gram_residual,
    is_prime,
    mub_basis,
    phase_state,
    unbiasedness_residual,
)

CONSISTENCY_TOL = 1e-9

# verify's rows in print order, each with the one tolerance its residual is held to: a violation count
# passes iff it is zero (0.5), and symmetric_pair_swap holds exactly in floating point
CHECKS = {
    "isometry_unitarity": EQ_TOL,
    "clone_symmetry": EQ_TOL,
    "closed_form_agreement": EQ_TOL,
    "scalar_form": EQ_TOL,
    "reduced_closed_matrix": EQ_TOL,
    "output_state_validity": PSD_TOL,
    "fidelity_phase_independence": EQ_TOL,
    "phase_covariance": EQ_TOL,
    "optimum_consistency": CONSISTENCY_TOL,
    "sweep_upper_bound": EQ_TOL,
    "objective_unimodal": 0.5,
    "uqcm_superiority": 0.5,
    "superiority_gap_decreasing": 0.5,
    "optimal_fidelity_decreasing": 0.5,
    "level2_value": EQ_TOL,
    "level3_value": EQ_TOL,
    "phase_state_modulus": EQ_TOL,
    "symmetric_pair_swap": 1e-15,
    "mub_unbiasedness": 1e-10,
    "mub_cloning_uniformity": EQ_TOL,
}
NEEDS_D3 = ("superiority_gap_decreasing", "level3_value", "mub_unbiasedness", "mub_cloning_uniformity")


def _nan_wins(x: float) -> tuple[bool, float]:
    """Key under which ``max`` keeps a NaN residual; by plain comparison it would drop it."""
    return x != x, x


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


def _swap_residual(d: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> float:
    """Worst ``|V[(a, b, c), j] - V[(b, a, c), j]|`` over the nonzeros at ``rows``/``cols`` of every V whose values are a row of ``vals``.

    V maps every input into Sym(A (x) B) (x) ancilla exactly when it is
    unchanged by swapping the two clone digits, so a correct machine gives
    exactly 0. A nonzero whose swapped position holds no nonzero is compared
    with 0. The partners are looked up once for the layout, and each row of
    ``vals`` then costs one gather.
    """
    ab, c = np.divmod(rows, d)
    a, b = np.divmod(ab, d)
    here, there = rows * d + cols, ((b * d + a) * d + c) * d + cols  # flat positions in the d^3-by-d matrix V
    order = np.argsort(here, kind="stable")  # with numpy 2.4 the default sort adds 0.3 MB to verify's peak RSS
    found = order[np.searchsorted(here, there, sorter=order).clip(max=len(rows) - 1)]
    mirrored = np.where(here[found] == there, vals[..., found], 0.0)
    return float(np.abs(vals - mirrored).max())


def mub_rows(d: int) -> list[dict]:
    """Rows ``kind,i,j,value`` for the d mutually unbiased bases of odd prime d plus the standard one.

    One orthonormality residual per basis, one unbiasedness residual per
    basis pair (the standard basis is labelled ``std``), then the simulated
    fidelity of every MUB state under the optimal machine, simulated one
    basis (a stack of d states) at a time.
    """
    bases = [(str(l), mub_basis(d, l)) for l in range(d)] + [("std", np.eye(d, dtype=np.complex128))]
    rows = [{"kind": "orthonormality", "i": i, "j": i, "value": gram_residual(b)} for i, b in bases]
    for (i, a), (j, b) in itertools.combinations(bases, 2):
        rows.append({"kind": "unbiasedness", "i": i, "j": j, "value": unbiasedness_residual(a, b)})
    machine = build_machine(d, *optimal_params(d))
    for l, basis in bases[:-1]:
        fidelities = _simulate(machine, basis).fidelity()
        rows += [{"kind": "fidelity", "i": l, "j": str(t), "value": float(f)} for t, f in enumerate(fidelities)]
    return rows


def mub_worst(d: int, rows: list[dict]) -> tuple[float, float]:
    """Worst basis residual and worst ``|F - F_opt(d)|`` over the rows of :func:`mub_rows`."""
    target = optimal_fidelity(d)
    worst_basis = max((r["value"] for r in rows if r["kind"] != "fidelity"), key=_nan_wins)
    worst_uniform = max((abs(r["value"] - target) for r in rows if r["kind"] == "fidelity"), key=_nan_wins)
    return worst_basis, worst_uniform


def run_audit(d_max: int, n_random: int, seed: int, corrupt: bool = False) -> AuditReport:
    """Execute the full check suite for d = 2..d_max and assemble the report.

    ``corrupt`` adds an unnormalized machine (the optimal split scaled by
    sqrt(0.9), so V^dag V = 0.9 I) to the unitarity check; the resulting
    failure demonstrates that the suite actually has teeth. Failures are
    recorded, never raised.
    """
    d_max, n_random = _integer(d_max, "d_max", 2), _integer(n_random, "n_random", 1)
    seed = _integer(seed, "seed", 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    first = seed * 1_000_003 + 1  # the sub-seed of the first phase draw; each later draw takes the next one
    dims = range(2, d_max + 1)
    n = max(2, n_random)
    worst = dict.fromkeys(CHECKS, 0.0)

    def note(name: str, *residuals: float) -> None:
        worst[name] = max(worst[name], *residuals, key=_nan_wins)

    for d in dims:
        # the optimum plus n_random points on the parameter circle
        machines = [build_machine(d, *optimal_params(d))]
        machines += [build_machine(d, *_random_split(rng)) for _ in range(n_random)]

        # V^dag V = I (the corrupted machine, when injected, must trip this)
        note("isometry_unitarity", *(machine.unitarity_residual() for machine in machines))
        if corrupt:
            opt = machines[0]
            bad = CloningMachine(d, opt.alpha * math.sqrt(0.9), opt.beta * math.sqrt(0.9))
            note("isometry_unitarity", bad.unitarity_residual())

        # one simulation sweep: each machine runs once on a stack whose row 0 is the phase-zero state and
        # whose rows 1..n are its draws (all of this d's draws come in one batch, machine by machine), and
        # every per-draw check then runs once per machine, over the stacks the outputs M = V|psi> give
        draws = _random_phase_vectors(d, range(first, first + len(machines) * n))
        first += len(draws)
        stacks = np.concatenate([np.zeros((len(machines), 1, d)), draws.reshape(len(machines), n, d)], axis=1)
        for machine, phases in zip(machines, stacks):
            states = phase_state(phases)
            out = _simulate(machine, states)
            red_a, red_b, gram = out.clone(0), out.clone(1)[1:], out.gram()[1:]  # each clone's reductions, M^dag M
            red0, red_a = red_a[0], red_a[1:]  # clone A of the phase-zero state, then of each draw
            norm2 = gram.diagonal(axis1=1, axis2=2).real.sum(axis=1)  # ||M||_F^2, the trace of M^dag M
            phases, amps = phases[1:], states[1:]

            note("phase_state_modulus", float(np.abs(np.abs(amps) - 1.0 / math.sqrt(d)).max()))

            # physical validity of the simulated output rho_AB = M M^dag, read off M: its trace is
            # ||M||_F^2, and its nonzero spectrum is that of the d-by-d ancilla Gram M^dag M, so
            # positivity is checked there; Hermiticity is checked on the reductions consumed below.
            # A non-finite Gram would make the eigensolve raise, so it notes a NaN instead
            min_eig = float(np.linalg.eigvalsh(gram).min()) if np.isfinite(gram).all() else math.nan
            note(
                "output_state_validity",
                *(frobenius_distance(red, red.conj().transpose(0, 2, 1)) for red in (red_a, red_b)),
                float(np.abs(norm2 - 1.0).max()),
                -min_eig,
            )

            # the two clones are interchangeable
            note("clone_symmetry", frobenius_distance(red_a, red_b))

            # brute force vs closed form: <psi|rho_A|psi> is what simulate_fidelity computes, and an
            # imaginary part (a non-Hermitian reduction) counts against the same tolerance
            fid = (amps.conj()[:, None, :] @ red_a @ amps[:, :, None])[:, 0, 0]
            f_closed = fidelity_closed_form(d, machine.alpha, machine.beta)
            note("closed_form_agreement", float(np.abs(fid.real - f_closed).max()), float(np.abs(fid.imag).max()))
            note("fidelity_phase_independence", float(np.std(fid.real, ddof=1)))

            # shrink (scalar) form of the reduced output
            eta = shrink_factor(d, machine.alpha, machine.beta)
            rho_in = amps[:, :, None] * amps.conj()[:, None, :]
            scalar = eta * rho_in + (1.0 - eta) / d * np.eye(d)
            note("scalar_form", frobenius_distance(red_a, scalar))

            # entrywise closed-form reduced matrix
            twist = np.exp(1j * (phases[:, :, None] - phases[:, None, :]))
            closed = (eta / d) * twist
            closed[:, range(d), range(d)] = 1.0 / d
            note("reduced_closed_matrix", frobenius_distance(red_a, closed))

            # phase covariance: the reduced output is the phase-zero one conjugated by U_phi = diag(e^(i phi)),
            # which multiplies entry (j, k) by e^(i(phi_j - phi_k))
            note("phase_covariance", frobenius_distance(red_a, red0 * twist))

        # optimizer, closed form and explicit parameters agree
        note("optimum_consistency", optimum_residual(d))

        # alpha sweep: the grid never beats the analytic optimum, and is unimodal
        table = sweep_alpha(d, 101)
        note("sweep_upper_bound", table.max_f - optimal_fidelity(d))
        diffs = np.diff([row[2] for row in table.rows])
        worst["objective_unimodal"] += int(np.sum(np.diff(np.sign(diffs)) != 0)) != 1

        # V maps into the symmetric subspace of the two clones: swapping their digits leaves every machine unchanged
        opt = machines[0]  # every machine of one d shares its rows and cols
        note("symmetric_pair_swap", _swap_residual(d, opt.rows, opt.cols, np.stack([m.vals for m in machines])))

    # release the last d's machines and stacks, so the MUB checks do not run on top of them
    del machines, opt, draws, stacks, phases, states, out
    del red_a, red_b, red0, gram, amps, fid, rho_in, scalar, twist, closed

    # strict superiority over the universal baseline, with a shrinking gap
    gaps = [optimal_fidelity(d) - uqcm_fidelity(d) for d in dims]
    note("uqcm_superiority", sum(g <= 0.0 for g in gaps))
    note("superiority_gap_decreasing", sum(b >= a for a, b in zip(gaps, gaps[1:])))
    fopts = [optimal_fidelity(d) for d in dims]
    note("optimal_fidelity_decreasing", sum(b >= a for a, b in zip(fopts, fopts[1:])) + sum(f <= 0.5 for f in fopts))

    # the two dimensions with independently known optima
    note("level2_value", abs(optimal_fidelity(2) - (0.5 + math.sqrt(0.125))))
    labels = {"level2_value": "2"}
    if d_max >= 3:
        note("level3_value", abs(optimal_fidelity(3) - (5.0 + math.sqrt(17.0)) / 12.0))
        # mutually unbiased bases: pairwise unbiased, and all cloned equally well
        mub_dims = [d for d in range(3, d_max + 1) if is_prime(d)]
        worst_basis, worst_uniform = zip(*(mub_worst(d, mub_rows(d)) for d in mub_dims))
        note("mub_unbiasedness", *worst_basis)
        note("mub_cloning_uniformity", *worst_uniform)
        mub_label = ";".join(str(d) for d in mub_dims)  # comma-free: lands in a CSV cell
        labels.update(level3_value="3", mub_unbiasedness=mub_label, mub_cloning_uniformity=mub_label)

    checks = tuple(
        CheckResult(name, labels.get(name, f"2..{d_max}"), float(worst[name]), tolerance)
        for name, tolerance in CHECKS.items()
        if d_max >= 3 or name not in NEEDS_D3
    )
    return AuditReport(checks=checks, seed=seed)
