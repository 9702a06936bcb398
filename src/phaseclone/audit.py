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
the phase covariance check, and rows 1..n are its seeded draws. The
machines of one d share their d's blocks, so they run in chunks of whole
machines, one simulation per chunk: a chunk holds as many machines as
keep its (rows, d, d) complex stacks within ``CHUNK_BYTES`` (128 KiB),
and at least one. At ``--trials 20`` that is 46 chunks for d = 2..12, and
one machine per chunk from d = 14 up. The route reads each pure output
M = V|psi> (d^2 by d) off V's nonzeros and keeps only the d-by-d things M
gives: its two single-clone reductions and its ancilla Gram M^dag M, as
stacks with one slice per row. Every per-draw check, from output validity
to phase covariance and the phase-state modulus, then runs once per chunk
on the stacks (one stacked overlap <psi|rho_A|psi>, one stacked
eigensolve of the machines' phase-zero Grams), and each stack is dropped
once its checks have read it.
The chunks cannot be seen in the report: each check is a per-slice
residual folded by a maximum, and a machine's slices round as they would
if it ran alone. The two-clone output rho_AB = M M^dag is never formed:
its trace ||M||_F^2 is the Gram's, and its positivity is checked on the
Gram, which has the same nonzero spectrum. The Gram is phase covariant,
G_phi = U_phi G_0 U_phi^dag with U_phi = diag(e^(i phi)), so only each
machine's phase-zero Gram G_0 is solved: by Weyl's inequality,
-lambda_min(G_0) plus the machine's worst ||G_phi - U_phi G_0 U_phi^dag||_F
over its draws bounds every draw's -lambda_min from above, and a draw
whose Gram is not positive fails through its residual. Conjugating by
U_phi multiplies entry (j, k) by e^(i(phi_j - phi_k)) = d psi_j conj(psi_k)
for the phase state psi = e^(i phi) / sqrt(d), so this twist, which the
covariance, closed-matrix and positivity checks read, is d psi psi^dag of
the input states: no check takes it from a simulated output, and it
costs one product per entry. The simulation
costs O(d^3) time per draw and O(n d^2) memory per machine, and no Python
work is left per draw: all of one d's phase vectors, machine by machine in
sub-seed order, come from one batch of :mod:`phaseclone.states`' seeded
stream, one row per sub-seed (the ``random_phase_vector`` of that
sub-seed), and one call of ``phase_state`` per chunk turns its rows into
its states. The run's random splits come from one call of the same
stream, whose doubles are those of numpy's ``Generator(PCG64(seed))``, in
the order in which ``uniform(0, pi/2)`` would draw them. The README's
performance paragraph gives the measured time and memory of these runs.

MUB checks cover every odd prime d <= d_max; :func:`mub_rows` is also what
``phaseclone mub`` prints. Each prime's bases are built, checked and
simulated as whole arrays: one stacked construction of its d bases, d
unbiasedness products and d simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import (
    CloningMachine,
    _fidelity,
    _shrink,
    _simulate,
    _unitarity_residuals,
    build_machine,
    optimal_fidelity,
    optimal_params,
    uqcm_fidelity,
)
from .linalg import EQ_TOL, PSD_TOL, _integer, _largest_norm
from .optimize import optimum_residual, sweep_alpha
from .states import (
    _mub_amps,
    _random_phase_vectors,
    _require_odd_prime,
    _uniforms,
    gram_residual,
    is_prime,
    phase_state,
    unbiasedness_residual,
)

CONSISTENCY_TOL = 1e-9
# the sweep simulates one d's machines in chunks of whole machines whose (rows, d, d) complex stacks take about this
# many bytes each (one machine per chunk if one machine's take more); a larger chunk saves numpy calls at small d
# and costs peak RSS
CHUNK_BYTES = 128 * 1024

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

    The d bases come from one stacked construction. One orthonormality
    residual per basis, one unbiasedness residual per basis pair (the
    standard basis is labelled ``std``), each basis's against all later
    ones in one product (d products in all), then the simulated fidelity
    of every MUB state under the optimal machine, simulated one basis (a
    stack of d states) at a time.
    """
    d = _integer(d, "d", 2)
    _require_odd_prime(d)
    labels = [str(l) for l in range(d)] + ["std"]
    bases = np.concatenate([_mub_amps(d, np.arange(d)[:, None, None]), np.eye(d, dtype=np.complex128)[None]])
    rows = [{"kind": "orthonormality", "i": i, "j": i, "value": gram_residual(b)} for i, b in zip(labels, bases)]
    for i in range(d):
        values = unbiasedness_residual(bases[i], bases[i + 1 :]).tolist()
        rows += [{"kind": "unbiasedness", "i": labels[i], "j": j, "value": v} for j, v in zip(labels[i + 1 :], values)]
    machine = build_machine(d, *optimal_params(d))
    for l, basis in zip(labels, bases[:-1]):
        fidelities = _simulate([machine], basis[None]).fidelity()
        rows += [{"kind": "fidelity", "i": l, "j": str(t), "value": float(f)} for t, f in enumerate(fidelities)]
    return rows


def mub_worst(d: int, rows: list[dict]) -> tuple[float, float]:
    """Worst basis residual and worst ``|F - F_opt(d)|`` over the rows of :func:`mub_rows`."""
    target = optimal_fidelity(d)
    worst_basis = max((r["value"] for r in rows if r["kind"] != "fidelity"), key=_nan_wins)
    worst_uniform = max((abs(r["value"] - target) for r in rows if r["kind"] == "fidelity"), key=_nan_wins)
    return worst_basis, worst_uniform


def _check_outputs(note, machines: list[CloningMachine], phases: np.ndarray) -> None:
    """Run every per-draw check on one chunk of whole machines of one d, simulated in one call.

    ``phases`` is (k, r, d): row 0 of machine i's stack is the phase-zero
    state, the reference of the phase covariance check, and rows 1..r-1 are
    its draws. Every check reads the (k, r-1, d, d) stacks the outputs
    M = V|psi> give and folds its residuals through ``note``; each stack is
    freed when it has been read, and all of them on return.
    """
    k, r, d = phases.shape
    states = phase_state(phases.reshape(-1, d)).reshape(k, r, d)
    out = _simulate(machines, states)
    amps = states[:, 1:]

    note("phase_state_modulus", float(np.abs(np.abs(amps) - 1.0 / math.sqrt(d)).max()))

    # physical validity of the simulated output rho_AB = M M^dag, read off M: its trace is ||M||_F^2, the trace
    # of the d-by-d ancilla Gram G = M^dag M, and its nonzero spectrum is the Gram's, so positivity is checked
    # there; Hermiticity is checked on the reductions consumed below. Conjugating by U_phi = diag(e^(i phi))
    # multiplies entry (j, k) by e^(i(phi_j - phi_k)), which for psi = e^(i phi) / sqrt(d) is twist = d psi_j
    # conj(psi_k): the twist reads the input states only, never an output. G_phi = U_phi G_0 U_phi^dag, so by
    # Weyl's inequality each machine's -lambda_min(G_0) plus its draws' worst ||G_phi - G_0 twist||_F bounds
    # every draw's -lambda_min from above. A non-finite phase-zero Gram would make the eigensolve raise, so it
    # notes a NaN instead; a non-finite draw Gram makes its residual NaN
    gram = out.gram().reshape(k, r, d, d)
    twist = amps[:, :, :, None] * amps.conj()[:, :, None, :]
    twist *= d
    gram0, gram = gram[:, :1], gram[:, 1:]
    norm2 = gram.diagonal(axis1=2, axis2=3).real.sum(axis=2)
    lowest = np.linalg.eigvalsh(gram0)[:, 0, 0] if np.isfinite(gram0).all() else math.nan
    drift = np.multiply(gram0, twist).reshape(k, r - 1, d * d)
    drift -= gram.reshape(k, r - 1, d * d)
    drift = np.sqrt(np.vecdot(drift, drift).real).max(axis=1)  # each machine's worst ||G_phi - G_0 twist||_F
    note("output_state_validity", float(np.abs(norm2 - 1.0).max()), float((drift - lowest).max()))
    del gram, gram0, drift

    red_a = out.clone(0).reshape(k, r, d, d)
    red0, red_a = red_a[:, :1], red_a[:, 1:]  # clone A of the phase-zero state, then of each draw
    red_b = out.clone(1).reshape(k, r, d, d)[:, 1:]
    for red in (red_a, red_b):  # each against its conjugate transpose, written C-ordered (summed row by row) in place
        skew = np.conjugate(red.swapaxes(2, 3), order="C")
        note("output_state_validity", _largest_norm(np.subtract(red, skew, out=skew)))
    del skew

    # the two clones are interchangeable
    note("clone_symmetry", _largest_norm(np.subtract(red_a, red_b, out=red_b)))
    del red_b

    # brute force vs closed form: <psi|rho_A|psi>, the overlap simulate_fidelity computes, summed another way
    # (the two can differ in the last bits), and an imaginary part (a non-Hermitian reduction) counts against
    # the same tolerance; each machine's draws must agree
    fid = (amps.conj()[:, :, None, :] @ red_a @ amps[:, :, :, None])[:, :, 0, 0]
    alpha, beta = np.array([(m.alpha, m.beta) for m in machines]).T  # built by build_machine: in the domain
    f_closed = _fidelity(d, alpha, beta)
    note("closed_form_agreement", float(np.abs(fid.real - f_closed[:, None]).max()), float(np.abs(fid.imag).max()))
    note("fidelity_phase_independence", float(np.std(fid.real, axis=1, ddof=1).max()))

    # shrink (scalar) form of the reduced output, eta psi psi^dag + (1 - eta)/d I, with psi psi^dag = twist / d
    eta = _shrink(d, alpha, beta)[:, None, None, None]
    scalar = (eta / d) * twist
    scalar.reshape(k, r - 1, d * d)[..., :: d + 1] += (1.0 - eta[..., 0]) / d
    note("scalar_form", _largest_norm(np.subtract(red_a, scalar, out=scalar)))
    del scalar

    # entrywise closed-form reduced matrix: c e^(i(phi_j - phi_k)) off the diagonal, 1/d on it
    closed = (eta / d) * twist
    closed.reshape(k, r - 1, d * d)[..., :: d + 1] = 1.0 / d
    note("reduced_closed_matrix", _largest_norm(np.subtract(red_a, closed, out=closed)))
    del closed

    # phase covariance: the reduced output is the phase-zero one conjugated by U_phi
    np.multiply(red0, twist, out=twist)
    note("phase_covariance", _largest_norm(np.subtract(red_a, twist, out=twist)))


def _check_machines(note, d: int, thetas, sub_seeds: range, corrupt: bool) -> None:
    """Build one d's machines (the optimum plus one split per angle in ``thetas``) and run every check of them.

    Each machine is simulated on the phase-zero state stacked with its
    ``len(sub_seeds) / len(machines)`` draws, which take the sub-seeds
    machine by machine. The machines run in chunks of whole machines, so
    each chunk's (rows, d, d) stacks stay near ``CHUNK_BYTES``, and every
    stack is freed on return.
    """
    machines = [build_machine(d, *optimal_params(d))]
    machines += [build_machine(d, math.cos(theta), math.sin(theta)) for theta in thetas.tolist()]

    # V^dag V = I (the corrupted machine, when injected, must trip this)
    note("isometry_unitarity", *_unitarity_residuals(machines).tolist())
    if corrupt:
        opt = machines[0]
        bad = CloningMachine(d, opt.alpha * math.sqrt(0.9), opt.beta * math.sqrt(0.9))
        note("isometry_unitarity", bad.unitarity_residual())

    # all of this d's draws come in one batch, machine by machine; a chunk's stacks hold k machines' r rows each
    draws = _random_phase_vectors(d, sub_seeds).reshape(len(machines), -1, d)
    phases = np.concatenate([np.zeros((len(machines), 1, d)), draws], axis=1)
    per_chunk = max(1, CHUNK_BYTES // (phases.shape[1] * d * d * np.dtype(np.complex128).itemsize))
    for start in range(0, len(machines), per_chunk):
        _check_outputs(note, machines[start : start + per_chunk], phases[start : start + per_chunk])

    # V maps into the symmetric subspace of the two clones: swapping their digits leaves every machine unchanged
    opt = machines[0]  # every machine of one d shares its rows and cols
    note("symmetric_pair_swap", _swap_residual(d, opt.rows, opt.cols, np.stack([m.vals for m in machines])))


def run_audit(d_max: int, n_random: int, seed: int, corrupt: bool = False) -> AuditReport:
    """Execute the full check suite for d = 2..d_max and assemble the report.

    ``corrupt`` adds an unnormalized machine (the optimal split scaled by
    sqrt(0.9), so V^dag V = 0.9 I) to the unitarity check; the resulting
    failure demonstrates that the suite actually has teeth. Failures are
    recorded, never raised.
    """
    d_max, n_random = _integer(d_max, "d_max", 2), _integer(n_random, "n_random", 1)
    seed = _integer(seed, "seed", 0)

    dims = range(2, d_max + 1)
    # each d's n_random split angles, uniform on [0, pi/2) as numpy's uniform(0, pi/2) scales the seed's stream
    angles = _uniforms([seed], len(dims) * n_random).reshape(len(dims), n_random) * (math.pi / 2.0)
    first = seed * 1_000_003 + 1  # the sub-seed of the first phase draw; each later draw takes the next one
    n_draws = (1 + n_random) * max(2, n_random)  # per d: each machine's draws
    worst = dict.fromkeys(CHECKS, 0.0)

    def note(name: str, *residuals: float) -> None:
        worst[name] = max(worst[name], *residuals, key=_nan_wins)

    for d, thetas in zip(dims, angles):
        # this d's machines, draws and stacks live only inside _check_machines, so the MUB checks below never run
        # on top of them
        _check_machines(note, d, thetas, range(first, first + n_draws), corrupt)
        first += n_draws

        # optimizer, closed form and explicit parameters agree
        note("optimum_consistency", optimum_residual(d))

        # alpha sweep: the grid never beats the analytic optimum, and is unimodal
        table = sweep_alpha(d, 101)
        note("sweep_upper_bound", table.max_f - optimal_fidelity(d))
        diffs = np.diff([row[2] for row in table.rows])
        worst["objective_unimodal"] += int(np.sum(np.diff(np.sign(diffs)) != 0)) != 1

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
