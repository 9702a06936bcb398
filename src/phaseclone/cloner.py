"""The 1-to-2 phase-covariant cloning machine for d-level systems.

The machine acts on basis state |j> (plus a blank copy and a d-level
ancilla) as

    |j> |Q>  ->  alpha |jj>|R_j>
                 + beta / sqrt(2(d-1)) * sum_{l != j} (|jl> + |lj>) |R_l>

with real alpha, beta >= 0, alpha^2 + beta^2 = 1, and |R_j> the ancilla
computational basis. Tensor factor order is (clone A, clone B, ancilla)
throughout, so discarding the ancilla is always a partial trace over the
last factor.

For a phase-state input the single-clone reduced output is

    rho_red = (1/d) I_diag + c * sum_{j != k} exp(i(phi_j - phi_k)) |j><k|,
    c = alpha*beta*sqrt(2/(d-1))/d + beta^2 (d-2) / (2d(d-1)),

equivalently the shrink form ``eta * rho_in + (1 - eta)/d * I`` with
``eta = d*c``, and the cloning fidelity is

    F = 1/d + alpha*beta*sqrt(2(d-1))/d + beta^2 (d-2)/(2d),

maximized at F_opt(d) = 1/d + (d - 2 + sqrt(d^2 + 4d - 4)) / (4d). The
module evaluates these closed forms and also simulates the machine by
brute force so the two routes can be checked against each other.

The isometry V: C^d -> C^(d^3) has only 2d^2 - d nonzeros (the three kinds
of term above), at most one per row. The machine stores just those and
checks V^dag V from them, in O(d^2) memory; the dense d^3-by-d matrix is
built only on request, for inspection and as a test reference.

Every simulation goes through one route, :func:`_simulate`, which runs k
machines of one d at once, each on its own stack of r input states. Where
V's nonzeros sit depends on d alone (the split only sets their values), so
:func:`_layout` gives every machine of one d the same ``rows``/``cols``
and the :class:`_Plan` of which nonzeros of the pure output M = V|psi>
(d^2 by d) meet in a clone reduction or in the ancilla Gram M^dag M. Both
are written down, once per d, from one enumeration of d's index pairs; no
sort discovers the plan, and the tests hold it to a generic derivation
from ``rows``/``cols``. A stack's reductions are then batched products of
the amplitudes ``vals * psi[cols]``, each machine's ``vals`` broadcast
over its own states: O(d^3) time per state and O(k r d^2) memory, with no
d^3-sized array. The dense route (:func:`_output_factor`,
:func:`clone_state`, which forms the d^2-by-d^2 two-clone state M M^dag)
stays for callers that ask for the two-clone state, and as the reference
the tests hold the plan to.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EQ_TOL, DensityMatrix, DimensionError, _integer, _normalized, partial_trace
from .states import phase_state, random_phase_vector

PARAM_NORM_TOL = 1e-9  # max |alpha^2 + beta^2 - 1| accepted


def _check_domain(
    d: int, alpha: float | None = None, beta: float | None = None, norm_tol: float = PARAM_NORM_TOL
) -> int:
    """Return d as an int; reject a d that is not an integer >= 2 (a NaN, an infinity, 2.5) and, when given, a split that is negative, NaN or off the unit circle by more than ``norm_tol``.

    Any integer type passes, numpy's too, and the caller computes with the
    returned int, so a narrow one cannot wrap. Never renormalizes: a split
    that passes is used exactly as given.
    """
    d = _integer(d, "d", 2)
    if alpha is None:
        return d
    if not (alpha >= 0.0 and beta >= 0.0):
        raise ValueError(f"alpha and beta must be nonnegative, got ({alpha!r}, {beta!r})")
    norm2 = alpha * alpha + beta * beta
    if abs(norm2 - 1.0) > norm_tol:
        raise ValueError(f"alpha^2 + beta^2 = {norm2!r} is not within {norm_tol} of 1")
    return d


def _one_nonzero_per_row(rows: np.ndarray) -> None:
    """Raise ValueError unless the row indices of V's nonzeros are distinct, i.e. V has at most one nonzero per row."""
    # a stable sort: with numpy 2.4, np.unique adds 1.5 MB to verify's peak RSS and the default sort 0.3 MB
    if not np.diff(np.sort(rows, kind="stable")).all():
        raise ValueError("V has a row with more than one nonzero")


@dataclass(frozen=True)
class CloningMachine:
    """The machine is its dimension and its (alpha, beta) split; the isometry is derived from them.

    V has exactly 2d^2 - d nonzeros and each of its rows holds at most one,
    so the machine stores only those: ``rows``, ``cols`` and ``vals`` are
    read-only arrays with ``V[rows[k], cols[k]] == vals[k]``, computed once
    at construction (``rows``/``cols`` by :func:`_layout`). Rows are
    indexed by (clone A, clone B, ancilla) in the fixed tensor convention,
    and column j is the image of input basis state |j>. :attr:`isometry`
    rebuilds the dense d^3-by-d matrix on each access.
    Machines compare and hash by ``(d, alpha, beta)``. The constructor checks
    d and the signs but not alpha^2 + beta^2 = 1, so an unnormalized machine
    can be built on purpose; :func:`build_machine` is the checked entry point.
    """

    d: int
    alpha: float
    beta: float
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)
    vals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _check_domain(self.d, self.alpha, self.beta, norm_tol=math.inf)
        rows, cols, _ = _layout(d)
        # alpha on the d nonzeros |jj>|R_j>, which _layout lists first, and beta / sqrt(2(d-1)) on the rest
        vals = np.concatenate([np.full(d, self.alpha), np.full(rows.size - d, self.beta / math.sqrt(2.0 * (d - 1)))])
        vals.setflags(write=False)
        for name, value in (("d", d), ("rows", rows), ("cols", cols), ("vals", vals)):
            object.__setattr__(self, name, value)

    @property
    def isometry(self) -> np.ndarray:
        """The dense read-only d^3-by-d matrix V, rebuilt from the nonzeros on every access (not cached)."""
        iso = np.zeros((self.d**3, self.d), dtype=np.complex128)
        iso[self.rows, self.cols] = self.vals
        iso.setflags(write=False)
        return iso

    def unitarity_residual(self) -> float:
        """``||V^dag V - I||_F``; < 1e-12 for any machine built with valid parameters.

        Computed from the nonzeros in O(d^2) memory. With at most one nonzero
        per row, no two entries of V meet in a product of V^dag V off its
        diagonal, so V^dag V is diagonal and its entry j sums |V[r, j]|^2 over
        column j. That invariant is checked, not assumed.
        """
        _one_nonzero_per_row(self.rows)
        gram_diag = np.bincount(self.cols, weights=np.abs(self.vals) ** 2, minlength=self.d)
        return float(np.linalg.norm(gram_diag - 1.0))


class VerificationError(ValueError):
    """A computed result failed its cross-check, as opposed to being asked for with bad input."""


@dataclass(frozen=True)
class FidelityReport:
    """One verified table row: closed-form vs simulated fidelity at given parameters.

    ``f_simulated`` comes from a full brute-force run of the machine on the
    phase state drawn with ``phase_seed``; construction via
    :func:`fidelity_report` guarantees it agrees with ``f_closed`` to 1e-12.
    The constructor raises :class:`VerificationError` when the two routes
    disagree or a value leaves [0, 1].
    """

    d: int
    alpha: float
    beta: float
    f_closed: float
    f_simulated: float
    f_uqcm: float
    eta: float
    phase_seed: int

    def __post_init__(self):
        if abs(self.f_closed - self.f_simulated) >= EQ_TOL:
            raise VerificationError(
                f"closed-form and simulated fidelity disagree: "
                f"{self.f_closed!r} vs {self.f_simulated!r}"
            )
        for name in ("f_closed", "f_simulated", "f_uqcm", "eta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise VerificationError(f"{name} = {value!r} outside [0, 1]")


def build_machine(d: int, alpha: float, beta: float) -> CloningMachine:
    """The cloning machine for given dimension and parameter split.

    alpha and beta must be nonnegative reals (not NaN) with alpha^2 + beta^2 within
    1e-9 of 1; they are renormalized internally so the stored pair satisfies
    the constraint to better than 1e-15. Anything further off is rejected.
    """
    d = _check_domain(d, alpha, beta)
    scale = math.sqrt(alpha * alpha + beta * beta)
    return CloningMachine(d, alpha / scale, beta / scale)


@dataclass(frozen=True, eq=False)
class _Plan:
    """Package-private: where each nonzero of V lands in the reductions of M = V|psi>, for the nonzeros of one d.

    Written down by :func:`_layout` from the same enumeration as ``rows``
    and ``cols``, so it reads no closed form; the tests hold it to a
    generic derivation from ``rows`` and ``cols``. Nonzero k of V gives the
    output amplitude ``vals[k] * psi[cols[k]]`` at the digits (a, b, c) of
    ``rows[k]`` (clone A, clone B, ancilla), and a reduction sums the
    products of the amplitudes that share its traced digits (its key):

    - ``clones[i]`` serves clone i's reduction X X^dag. The keys hit by
      several nonzeros form a full (d, m) block: ``block`` holds the
      nonzero at [kept digit, key rank], and row a of the block reads input
      a, so X is ``psi[:, None] * vals[block]``, one broadcast product. A
      key hit once adds |amplitude|^2 to one diagonal entry: ``single``
      lists those nonzeros and ``single_bins`` their ``kept * d + col``.
    - The ancilla Gram M^dag M sums over (a, b), whose keys hold one or two
      nonzeros. The two of a pair meet at Gram entry (c_p, c_q) off the
      diagonal. ``pairs`` (2, n_pairs) holds their indices, ``pair_cols``
      their input columns and ``pair_bins`` that entry as ``c_p * d + c_q``.
      No two pairs meet at one entry, so each pair's product is its entry.
      Every nonzero adds |amplitude|^2 to diagonal entry c, at
      ``diag_bins`` = ``c * d + col``.
    """

    clones: tuple  # per clone: (block, single, single_bins)
    pairs: np.ndarray
    pair_cols: np.ndarray
    pair_bins: np.ndarray
    diag_bins: np.ndarray


@functools.lru_cache(maxsize=1)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray, _Plan]:
    """Read-only ``rows`` and ``cols`` of V's 2d^2 - d nonzeros and their :class:`_Plan`, written down for d.

    They depend on d alone, and callers work one d at a time, so each d's
    layout is built once. All of it comes from one row-major enumeration of
    the P = d(d - 1) ordered pairs (j, l) with j != l; p is a pair's rank
    in it. Nonzero j < d is |jj>|R_j> in column j, nonzero d + p is
    |jl>|R_l> and nonzero d + P + p is |lj>|R_l>, both in column j.
    Clone A's block (keys (b, c) = (l, l)) holds the first off-diagonal
    kind and clone B's (keys (a, c) = (l, l)) the second: nonzero a sits at
    [a, a], pair (j, l) at [j, l], and row a reads input a. Each nonzero of
    the other kind adds to the diagonal entry l from input j. In the Gram,
    |lj>|R_l> (nonzero d + P + p) shares its (A, B) digits with |lj>|R_j>,
    the first kind's pair (l, j); the two meet at entry (j, l) from inputs
    (l, j). Pair p is the only one at entry (j, l). The tests hold every
    array to a generic derivation of the plan from ``rows`` and ``cols``.
    """
    j, l = np.nonzero(~np.eye(d, dtype=bool))
    diag = np.arange(d)
    n_off = j.size
    rank = np.arange(n_off)
    rows = np.concatenate([diag * (d * d + d + 1), (j * d + l) * d + l, (l * d + j) * d + l])
    cols = np.concatenate([diag, j, j])
    swapped = l * d + j
    clones = []
    for start in (d, d + n_off):  # clone A's block holds the |jl>|R_l> kind, clone B's the |lj>|R_l> kind
        block = np.empty((d, d), dtype=np.intp)
        block[diag, diag] = diag
        block[j, l] = start + rank
        clones.append((block, 2 * d + n_off - start + rank, swapped))
    pairs, pair_cols = np.stack([d + l * (d - 1) + j - (j > l), d + n_off + rank]), np.stack([l, j])
    gram = (pairs, pair_cols, j * d + l, np.concatenate([diag * (d + 1), swapped, swapped]))
    for arr in (rows, cols, *itertools.chain(*clones), *gram):
        arr.setflags(write=False)
    plan = _Plan(tuple(clones), *gram)
    return rows, cols, plan


@dataclass(frozen=True, eq=False)
class _Outputs:
    """Package-private: the stacks that the pure outputs M = V|psi> of k machines of one d give, each computed on request.

    Returned by :func:`_simulate`. ``vals`` is the (k, nnz) stack of the
    machines' nonzeros, and ``amps`` the (k r, d) stack of their input
    states: rows i r .. i r + r - 1 are machine i's r states. Each stack
    has one slice per row of ``amps``, in that order, and is computed from
    the nonzeros of V in O(d^3) time per state, with no d^3-sized array.
    Every machine reads its own ``vals`` by broadcasting over (k, r); no
    array is gathered per row.
    """

    plan: _Plan
    vals: np.ndarray
    amps: np.ndarray

    def _diag(self, bins: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """(k r, d): W_i |psi|^2 for each state of machine i, with W_i the d-by-d sum of row i of |vals|^2 over ``bins``."""
        k, d = len(vals), self.amps.shape[1]
        bins = bins + np.arange(0, k * d * d, d * d)[:, None]  # one bincount for all k machines: machine i's W at i d^2
        w = np.bincount(bins.ravel(), weights=(np.abs(vals) ** 2).ravel(), minlength=k * d * d).reshape(k, 1, d, d)
        return (w @ (np.abs(self.amps) ** 2).reshape(k, -1, d, 1)).reshape(-1, d)

    def _clone_parts(self, clone: int) -> tuple[np.ndarray, np.ndarray]:
        """Clone ``clone``'s block X (k r, d, m) and diagonal D (k r, d): its reduction is X X^dag + diag(D)."""
        block, single, single_bins = self.plan.clones[clone]
        k, (n, d) = len(self.vals), self.amps.shape
        amps = self.amps.T.reshape(d, 1, k, n // k)
        # X is written (d, m, k, r) and viewed as (k r, d, m), the gather amps[:, cols[block]]'s memory order; a
        # C-contiguous X would round fidelity()'s proj differently
        x = np.multiply(amps, self.vals.take(block, axis=1).transpose(1, 2, 0)[..., None], order="C")
        diag = self._diag(single_bins, self.vals.take(single, axis=1))
        return x.reshape(*block.shape, n).transpose(2, 0, 1), diag

    def clone(self, clone: int = 0) -> np.ndarray:
        """(k r, d, d) reductions of clone A (``clone=0``) or B (``clone=1``)."""
        x, diag = self._clone_parts(clone)
        red = x @ x.conj().swapaxes(1, 2)
        red.reshape(len(red), -1)[:, :: red.shape[1] + 1] += diag
        return red

    def gram(self) -> np.ndarray:
        """(k r, d, d) ancilla Grams M^dag M: the pair products of each (A, B) key plus the diagonal."""
        p = self.plan
        k, (n, d) = len(self.vals), self.amps.shape
        amps = self.amps.reshape(k, n // k, d)
        first, second = (
            (amps.take(p.pair_cols[i], axis=2) * self.vals.take(p.pairs[i], axis=1)[:, None]).reshape(n, -1)
            for i in (0, 1)
        )
        gram = np.zeros((n, d * d), dtype=np.complex128)
        gram[:, p.pair_bins] = np.conjugate(first, out=first) * second
        gram = gram.reshape(n, d, d)
        gram += gram.conj().swapaxes(1, 2)
        gram.reshape(n, -1)[:, :: d + 1] = self._diag(p.diag_bins, self.vals)
        return gram

    def fidelity(self) -> np.ndarray:
        """(k r,) overlaps <psi|rho_A|psi>, as ||psi^dag X||^2 plus |psi|^2 . D; clone A's state is not formed."""
        x, diag = self._clone_parts(0)
        proj = self.amps.conj()[:, None, :] @ x
        return (np.abs(proj[:, 0]) ** 2).sum(axis=1) + (np.abs(self.amps) ** 2 * diag).sum(axis=1)


def _simulate(machines, amps) -> _Outputs:
    """Package-private: run k machines of one d, machine i on the normalized states in row i of a (k, r, d) amplitude stack.

    The one simulation route of the package, for any k >= 1:
    :func:`simulate_fidelity` and the MUB rows pass one machine, and the
    audit's sweep a chunk of one d's machines. All of them read their
    stacks from the returned :class:`_Outputs`, through the plan of that d.
    """
    d = machines[0].d
    if any(machine.d != d for machine in machines):
        raise DimensionError(f"machines of one d expected, got d = {[machine.d for machine in machines]}")
    amps = _normalized(amps, d, ndim=3)
    if len(amps) != len(machines):
        raise DimensionError(f"expected one stack of states per machine ({len(machines)}), got {len(amps)}")
    return _Outputs(_layout(d)[2], np.array([machine.vals for machine in machines]), amps.reshape(-1, d))


def _output_factor(machine: CloningMachine, psi) -> np.ndarray:
    """Package-private dense reference: the pure output V|psi> of a normalized (d,) state as a read-only (d^2, d) matrix M.

    Rows index the clone pair (A, B), columns the ancilla. V is applied by
    scattering its nonzeros into the d^3 output vector, so no dense isometry
    is formed. ``M M^dag`` is the two-clone state; by the Schmidt
    decomposition its nonzero spectrum is that of the d-by-d ancilla Gram
    ``M^dag M``.
    """
    d = machine.d
    psi = _normalized(psi, d)
    out = np.zeros(d**3, dtype=np.complex128)
    out[machine.rows] = machine.vals * psi[machine.cols]
    m = out.reshape(d * d, d)
    m.setflags(write=False)
    return m


def clone_state(machine: CloningMachine, psi) -> DensityMatrix:
    """Run the machine on a single-qudit pure state, a normalized (d,) amplitude array; return the two-clone output.

    The ancilla is traced out without ever materializing the d^3-by-d^3
    three-factor density matrix: rho_out = M M^dag with M the (clone pair,
    ancilla) factor of the output, returned without a further copy.
    """
    m = _output_factor(machine, psi)
    return DensityMatrix._adopt((machine.d, machine.d), m @ m.conj().T)


def reduced_clone(rho_out: DensityMatrix) -> DensityMatrix:
    """Single-clone reduction of a two-clone output (traces the second factor).

    The two clones are symmetric, so which factor is traced is immaterial;
    tracing the second is fixed here and the symmetry is asserted in tests.
    """
    if len(rho_out.dims) != 2 or rho_out.dims[0] != rho_out.dims[1]:
        raise DimensionError(f"expected a two-clone state with equal factors, got dims {rho_out.dims}")
    return partial_trace(rho_out, keep=(0,))


def fidelity_closed_form(d: int, alpha: float, beta: float) -> float:
    """F = 1/d + alpha*beta*sqrt(2(d-1))/d + beta^2 (d-2)/(2d).

    Defined on the domain :func:`build_machine` accepts (d >= 2, a nonnegative
    split within 1e-9 of the unit circle); anything else raises ValueError.
    """
    d = _check_domain(d, alpha, beta)
    return 1.0 / d + alpha * beta * math.sqrt(2.0 * (d - 1)) / d + beta * beta * (d - 2) / (2.0 * d)


def optimal_params(d: int) -> tuple[float, float]:
    """The maximizing (alpha, beta) pair.

    alpha = sqrt(1/2 - (d-2) / (2 sqrt(d^2+4d-4))), beta the complementary
    root; alpha <= beta with equality only at d = 2.
    """
    d = _check_domain(d)
    shift = (d - 2) / (2.0 * math.sqrt(d * d + 4.0 * d - 4.0))
    return math.sqrt(0.5 - shift), math.sqrt(0.5 + shift)


def optimal_fidelity(d: int) -> float:
    """F_opt(d) = 1/d + (d - 2 + sqrt(d^2 + 4d - 4)) / (4d)."""
    d = _check_domain(d)
    return 1.0 / d + (d - 2 + math.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * d)


def uqcm_fidelity(d: int) -> float:
    """Universal-cloner baseline (d+3) / (2(d+1)), the bar the phase cloner beats."""
    d = _check_domain(d)
    return (d + 3.0) / (2.0 * (d + 1.0))


def shrink_factor(d: int, alpha: float, beta: float) -> float:
    """eta such that rho_red = eta * rho_in + (1 - eta)/d * I for every phase state.

    eta = d*c with c the off-diagonal coefficient of the reduced output:
    eta = alpha*beta*sqrt(2/(d-1)) + beta^2 (d-2) / (2(d-1)), on the domain
    of :func:`fidelity_closed_form`.
    """
    d = _check_domain(d, alpha, beta)
    return alpha * beta * math.sqrt(2.0 / (d - 1)) + beta * beta * (d - 2) / (2.0 * (d - 1))


def simulate_fidelity(machine: CloningMachine, psi) -> float:
    """Brute-force fidelity of a normalized (d,) input state: run the machine, reduce to one clone, overlap with the input.

    The overlap <psi|rho_A|psi> is read off the pure output M = V|psi> as a
    stack of one machine and one state, from the nonzeros of V in O(d^3)
    time and O(d^2) memory; neither clone's state nor the two-clone state
    is formed.
    """
    return float(_simulate([machine], np.asarray(psi)[None, None]).fidelity()[0])


def fidelity_report(
    d: int,
    alpha: float | None = None,
    beta: float | None = None,
    phase_seed: int = 0,
) -> FidelityReport:
    """Build one verified fidelity row; parameters default to the optimum.

    Simulates the machine end-to-end on the phase state drawn with
    ``phase_seed`` and packages the result next to the closed forms. The
    FidelityReport constructor rejects the row if the two routes disagree.
    """
    if (alpha is None) != (beta is None):
        raise ValueError("give both alpha and beta, or neither")
    if alpha is None:
        alpha, beta = optimal_params(d)
    return _fidelity_row(build_machine(d, alpha, beta), random_phase_vector(d, phase_seed), phase_seed)


def _fidelity_row(machine: CloningMachine, phases, phase_seed: int) -> FidelityReport:
    """Package-private: the verified row of ``machine``, simulated on the phase state of ``phases``, drawn with ``phase_seed``."""
    d, alpha, beta = machine.d, machine.alpha, machine.beta
    return FidelityReport(
        d=d,
        alpha=alpha,
        beta=beta,
        f_closed=fidelity_closed_form(d, alpha, beta),
        f_simulated=simulate_fidelity(machine, phase_state(phases)),
        f_uqcm=uqcm_fidelity(d),
        eta=shrink_factor(d, alpha, beta),
        phase_seed=phase_seed,
    )
