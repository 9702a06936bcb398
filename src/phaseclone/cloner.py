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
of term above), at most one per row. The machine describes V by just
those and checks V^dag V from them, in O(d^2) memory; the dense d^3-by-d
matrix is built only on request, for inspection and as a test reference.

Every simulation goes through one route, :func:`_simulate`, which runs k
machines of one d at once, each on its own stack of r input states. Where
V's nonzeros sit depends on d alone (the split only sets their values), so
a machine stores only its ``vals``, and every machine of one d reads one
cached pair of d-by-d clone blocks (:func:`_blocks`): which nonzeros of
the pure output M = V|psi> (d^2 by d) meet in each clone's reduction.
Each clone's reduction, its diagonal included, and the ancilla Gram
M^dag M are read off the two blocks, which no sort discovers; the tests
hold them to a generic derivation from ``rows``/``cols``. Those two are
written down once per d, on their first read (:func:`_indices`), for the
dense route and the unitarity and swap checks only. A stack's reductions
are batched products of the amplitudes ``vals * psi[cols]``, each
machine's ``vals`` broadcast over its own states: O(d^3) time per state
and O(k r d^2) memory, with no d^3-sized array. The dense route
(:func:`_output_factor`, :func:`clone_state`, which forms the
d^2-by-d^2 two-clone state M M^dag) stays for callers that ask for the
two-clone state, and as the reference the tests hold the blocks to.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import EQ_TOL, DensityMatrix, DimensionError, _integer, _normalized, partial_trace
from .states import phase_state, random_phase_vector

PARAM_NORM_TOL = 1e-9  # max |alpha^2 + beta^2 - 1| accepted


def _check_domain(d: int, alpha: float, beta: float, norm_tol: float = PARAM_NORM_TOL) -> tuple[int, float, float]:
    """Return ``(d, alpha, beta)``, d as an int and the split as Python floats.

    Rejects a d that breaks the integer rule (:func:`~phaseclone.linalg._integer`:
    a bool, a NaN, an infinity, 2.5, anything below 2), a split that is not
    real or is a bool (TypeError naming alpha or beta), and one that is
    negative, NaN, past the float range, of infinite norm or off the unit
    circle by more than ``norm_tol`` in double precision. Callers compute
    with the returned values, so a narrow integer cannot wrap and a narrow
    float cannot pass a check it fails in doubles. Never renormalizes.
    """
    d = _integer(d, "d", 2)
    split = []
    for name, value in (("alpha", alpha), ("beta", beta)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number other than a bool, got {value!r}")
        try:
            split.append(float(value))
        except OverflowError:  # an integer past the float range, so alpha^2 + beta^2 is not finite
            raise ValueError(f"{name} must have a finite square, got an integer past the float range") from None
    alpha, beta = split
    norm2 = alpha * alpha + beta * beta
    if not (alpha >= 0.0 and beta >= 0.0 and math.isfinite(norm2)):
        raise ValueError(f"alpha and beta must be nonnegative, with a finite alpha^2 + beta^2, got ({alpha!r}, {beta!r})")
    if abs(norm2 - 1.0) > norm_tol:
        raise ValueError(f"alpha^2 + beta^2 = {norm2!r} is not within {norm_tol} of 1")
    return d, alpha, beta


def _one_nonzero_per_row(rows: np.ndarray) -> None:
    """Raise ValueError unless the row indices of V's nonzeros are distinct, i.e. V has at most one nonzero per row."""
    # a stable sort: with numpy 2.4, np.unique adds 1.5 MB to verify's peak RSS and the default sort 0.3 MB
    if not np.diff(np.sort(rows, kind="stable")).all():
        raise ValueError("V has a row with more than one nonzero")


@dataclass(frozen=True)
class CloningMachine:
    """The machine is its dimension and its (alpha, beta) split; the isometry is derived from them.

    V has exactly 2d^2 - d nonzeros and each of its rows holds at most one,
    so the machine describes V by those alone: ``rows``, ``cols`` and
    ``vals`` are read-only arrays with ``V[rows[k], cols[k]] == vals[k]``.
    Only ``vals`` is computed at construction. ``rows`` and ``cols`` depend
    on d alone, so they are properties that :func:`_indices` writes down
    once per d; the simulation reads neither. Rows are indexed
    by (clone A, clone B, ancilla) in the fixed tensor convention, and
    column j is the image of input basis state |j>. :attr:`isometry`
    rebuilds the dense d^3-by-d matrix on each access.
    Machines compare and hash by ``(d, alpha, beta)``, the split stored as
    Python floats. The constructor checks d, that the split is real and
    nonnegative and that alpha^2 + beta^2 is finite, but not that it is 1,
    so an unnormalized machine can be built on purpose; :func:`build_machine`
    is the checked entry point.
    """

    d: int
    alpha: float
    beta: float
    vals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, alpha, beta = _check_domain(self.d, self.alpha, self.beta, norm_tol=math.inf)
        # alpha on the d nonzeros |jj>|R_j>, which come first, and beta / sqrt(2(d-1)) on the 2d(d-1) others
        vals = np.concatenate([np.full(d, alpha), np.full(2 * d * (d - 1), beta / math.sqrt(2.0 * (d - 1)))])
        vals.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "vals", vals)

    @property
    def rows(self) -> np.ndarray:
        """Read-only row index of each nonzero of V, written down once per d."""
        return _indices(self.d)[0]

    @property
    def cols(self) -> np.ndarray:
        """Read-only column index of each nonzero of V, written down once per d."""
        return _indices(self.d)[1]

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
        return float(_unitarity_residuals([self])[0])


def _unitarity_residuals(machines) -> np.ndarray:
    """Package-private: ``||V^dag V - I||_F`` of each of k machines of one d, as a (k,) array, in one pass.

    The machines must share one d, so that one ``rows``/``cols`` serves
    them all; that is checked, and so is the one nonzero per row that
    makes each V^dag V diagonal. One offset
    bincount then gives every machine's diagonal, and each residual is
    summed as ``np.linalg.norm`` sums a vector, so a machine's residual is
    the same in any stack.
    """
    first = machines[0]
    if any(machine.d != first.d for machine in machines):
        raise ValueError(f"machines that share one rows/cols layout expected, got d = {[m.d for m in machines]}")
    _one_nonzero_per_row(first.rows)
    k, d = len(machines), first.d
    bins = first.cols + np.arange(0, k * d, d)[:, None]  # machine i's diagonal at i d .. i d + d - 1
    weights = np.abs(np.stack([machine.vals for machine in machines])) ** 2
    gram_diag = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=k * d).reshape(k, d) - 1.0
    return np.sqrt(np.vecdot(gram_diag, gram_diag))


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
    1e-9 of 1 in double precision; they are renormalized internally so the stored
    pair satisfies the constraint to better than 1e-15. Anything further off is rejected.
    """
    d, alpha, beta = _check_domain(d, alpha, beta)
    scale = math.sqrt(alpha * alpha + beta * beta)
    return CloningMachine(d, alpha / scale, beta / scale)


@functools.lru_cache(maxsize=1)
def _blocks(d: int) -> np.ndarray:
    """Package-private: the read-only (2, d, d) clone blocks of d, shared by every machine of d while it is cached.

    Nonzero a < d of V is |aa>|R_a> in column a; with p the rank of pair
    (j, l), j != l, in the row-major enumeration of the P = d(d - 1) such
    pairs, nonzero d + p is |jl>|R_l> and nonzero d + P + p is |lj>|R_l>,
    both in column j. Entry [j, l] of block 0 (clone A) is d + p, of block
    1 (clone B) d + P + p, and both diagonals hold nonzero a. Clone i's
    block lists the nonzeros whose traced digits (clone A's (b, c), clone
    B's (a, c)) equal (l, l), with row j reading input j. Callers work one d
    at a time, so one cache entry is enough.
    """
    r = np.arange(d)
    first = d + r[:, None] * (d - 1) + r - (r > r[:, None])
    blocks = np.stack([first, first + d * (d - 1)])
    blocks.reshape(2, -1)[:, :: d + 1] = r
    blocks.setflags(write=False)
    return blocks


@functools.lru_cache(maxsize=1)
def _indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Package-private: read-only ``rows`` and ``cols`` of V's nonzeros, ``V[rows[k], cols[k]] == vals[k]``, in :func:`_blocks`' order.

    Cached like :func:`_blocks`, so the properties that read it build both once per d.
    """
    j, l = np.nonzero(~np.eye(d, dtype=bool))
    rows = np.concatenate([np.arange(d) * (d * d + d + 1), (j * d + l) * d + l, (l * d + j) * d + l])
    cols = np.concatenate([np.arange(d), j, j])
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass(frozen=True, eq=False)
class _Outputs:
    """Package-private: the stacks that the pure outputs M = V|psi> of k machines of one d give, each computed on request.

    Returned by :func:`_simulate`. ``vals`` is the (k, nnz) stack of the
    machines' nonzeros, and ``amps`` the (k r, d) stack of their input
    states: rows i r .. i r + r - 1 are machine i's r states. Each stack
    has one slice per row of ``amps``, in that order, and is computed from
    the nonzeros of V in O(d^3) time per state, with no d^3-sized array.
    Every machine reads its own ``vals`` by broadcasting over (k, r); no
    array is gathered per row. ``blocks`` is d's :func:`_blocks`: clone i's
    X is ``psi[:, None] * vals[blocks[i]]``, and every diagonal is a matmul
    of |psi|^2 by |vals|^2 taken at the blocks, transposed. Each X is
    written C-contiguous, so every state's slice is C-contiguous too and
    takes BLAS; a state run alone therefore rounds as its slice of any
    stack does.
    """

    blocks: np.ndarray
    vals: np.ndarray
    amps: np.ndarray

    def _weights(self, clone: int) -> np.ndarray:
        """(k, d, d): |vals|^2 of the other clone's block, transposed, with its diagonal zeroed.

        Entry [l, j] is what input j adds to diagonal entry l of clone
        ``clone``'s reduction outside its block: the other kind of pair (j, l)
        is alone at its traced digits there, and lands at kept digit l.
        """
        w = np.abs(self.vals.take(self.blocks[1 - clone].T, axis=1)) ** 2
        w.reshape(len(w), -1)[:, :: w.shape[1] + 1] = 0.0
        return w

    def _diag(self, w: np.ndarray) -> np.ndarray:
        """(k r, d): W_i |psi|^2 for each state of machine i, with W_i row i of the (k, d, d) weights ``w``."""
        k, d = len(w), self.amps.shape[1]
        return (w.reshape(k, 1, d, d) @ (np.abs(self.amps) ** 2).reshape(k, -1, d, 1)).reshape(-1, d)

    def _clone_parts(self, clone: int) -> tuple[np.ndarray, np.ndarray]:
        """Clone ``clone``'s block X (k r, d, d) and diagonal D (k r, d): its reduction is X X^dag + diag(D).

        X is one broadcast product written C-contiguous, whatever the layout of ``amps``.
        """
        k, (n, d) = len(self.vals), self.amps.shape
        x = np.multiply(self.amps.reshape(k, n // k, d, 1), self.vals.take(self.blocks[clone], axis=1)[:, None], order="C")
        return x.reshape(n, d, d), self._diag(self._weights(clone))

    def clone(self, clone: int) -> np.ndarray:
        """(k r, d, d) reductions of clone A (``clone=0``) or B (``clone=1``)."""
        x, diag = self._clone_parts(clone)
        red = x @ x.conj().swapaxes(1, 2)
        red.reshape(len(red), -1)[:, :: red.shape[1] + 1] += diag
        return red

    def gram(self) -> np.ndarray:
        """(k r, d, d) ancilla Grams M^dag M, off the diagonal conj(X_A^T) X_B entrywise plus its conjugate transpose.

        The Gram sums over the (A, B) digits. Key (l, j), l != j, holds
        |lj>|R_j> (input l), clone A's ``block[l, j]``, and |lj>|R_l> (input
        j), clone B's ``block[j, l]``; the two meet at entry (j, l). Every
        nonzero adds its |amplitude|^2 to the diagonal entry of its ancilla
        digit: clone B's pairs as in clone A's diagonal, the rest as clone
        A's block, transposed, gives them.
        """
        block_a, block_b = self.blocks
        k, (n, d) = len(self.vals), self.amps.shape
        amps = self.amps.reshape(k, n // k, d)
        gram = amps[..., None, :] * self.vals.take(block_a.T, axis=1)[:, None]
        np.conjugate(gram, out=gram)
        gram *= amps[..., None] * self.vals.take(block_b, axis=1)[:, None]
        gram = gram.reshape(n, d, d)
        gram += gram.conj().swapaxes(1, 2)
        gram.reshape(n, -1)[:, :: d + 1] = self._diag(self._weights(0) + np.abs(self.vals.take(block_a.T, axis=1)) ** 2)
        return gram

    def fidelity(self) -> np.ndarray:
        """(k r,) overlaps <psi|rho_A|psi>, as ||psi^dag X||^2 plus |psi|^2 . D; clone A's state is not formed."""
        x, diag = self._clone_parts(0)
        proj = self.amps.conj()[:, None, :] @ x
        return (np.abs(proj[:, 0]) ** 2).sum(axis=1) + (np.abs(self.amps) ** 2 * diag).sum(axis=1)


def _simulate(machines, amps, ndim: int = 3) -> _Outputs:
    """Package-private: run k machines of one d, machine i on the normalized states in row i of a (k, r, d) amplitude stack.

    The one simulation route of the package, for any k >= 1:
    :func:`simulate_fidelity` passes one machine and one (d,) state with
    ``ndim=1``, so that a bad state is reported in the shape its caller
    gave; the MUB rows pass one machine and a (1, d, d) stack, and the
    audit's sweep a chunk of one d's machines. All of them read their
    stacks from the returned :class:`_Outputs`, through the blocks of that d.
    The states are kept C-contiguous (a copy only if they are not), so a
    stack rounds the same whatever the memory layout its caller gave.
    """
    d = machines[0].d
    if any(machine.d != d for machine in machines):
        raise DimensionError(f"machines of one d expected, got d = {[machine.d for machine in machines]}")
    amps = _normalized(amps, d, ndim)
    if ndim == 3 and len(amps) != len(machines):
        raise DimensionError(f"expected one stack of states per machine ({len(machines)}), got {len(amps)}")
    return _Outputs(_blocks(d), np.array([machine.vals for machine in machines]), np.ascontiguousarray(amps.reshape(-1, d)))


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
    return _fidelity(*_check_domain(d, alpha, beta))


def _fidelity(d: int, alpha, beta):
    """Package-private: :func:`fidelity_closed_form` unchecked, on floats or elementwise on arrays, in one order."""
    return 1.0 / d + alpha * beta * math.sqrt(2.0 * (d - 1)) / d + beta * beta * (d - 2) / (2.0 * d)


def optimal_params(d: int) -> tuple[float, float]:
    """The maximizing (alpha, beta) pair.

    alpha = sqrt(1/2 - (d-2) / (2 sqrt(d^2+4d-4))), beta the complementary
    root; alpha <= beta with equality only at d = 2.
    """
    d = _integer(d, "d", 2)
    shift = (d - 2) / (2.0 * math.sqrt(d * d + 4.0 * d - 4.0))
    return math.sqrt(0.5 - shift), math.sqrt(0.5 + shift)


def optimal_fidelity(d: int) -> float:
    """F_opt(d) = 1/d + (d - 2 + sqrt(d^2 + 4d - 4)) / (4d)."""
    d = _integer(d, "d", 2)
    return 1.0 / d + (d - 2 + math.sqrt(d * d + 4.0 * d - 4.0)) / (4.0 * d)


def uqcm_fidelity(d: int) -> float:
    """Universal-cloner baseline (d+3) / (2(d+1)), the bar the phase cloner beats."""
    d = _integer(d, "d", 2)
    return (d + 3.0) / (2.0 * (d + 1.0))


def shrink_factor(d: int, alpha: float, beta: float) -> float:
    """eta such that rho_red = eta * rho_in + (1 - eta)/d * I for every phase state.

    eta = d*c with c the off-diagonal coefficient of the reduced output:
    eta = alpha*beta*sqrt(2/(d-1)) + beta^2 (d-2) / (2(d-1)), on the domain
    of :func:`fidelity_closed_form`.
    """
    return _shrink(*_check_domain(d, alpha, beta))


def _shrink(d: int, alpha, beta):
    """Package-private: :func:`shrink_factor` unchecked, on floats or elementwise on arrays, in one order."""
    return alpha * beta * math.sqrt(2.0 / (d - 1)) + beta * beta * (d - 2) / (2.0 * (d - 1))


def simulate_fidelity(machine: CloningMachine, psi) -> float:
    """Brute-force fidelity of a normalized (d,) input state: run the machine, reduce to one clone, overlap with the input.

    The overlap <psi|rho_A|psi> is read off the pure output M = V|psi> as a
    stack of one machine and one state, from the nonzeros of V in O(d^3)
    time and O(d^2) memory; neither clone's state nor the two-clone state
    is formed. The result is the double that psi's slice of any stack gives.
    """
    return float(_simulate([machine], psi, ndim=1).fidelity()[0])


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
