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
a machine stores only its ``vals``, and every machine of one d reads its
``rows``/``cols`` and the plan of which nonzeros of the pure output
M = V|psi> (d^2 by d) meet in each clone's reduction from one
:class:`_Layout` of d (:func:`_layout`). All of these are written down
from one enumeration of d's index pairs, and each group is built the
first time a route reads it: a fidelity reads only clone A's plan. No
sort discovers the plan, and the tests hold it to a generic derivation
from ``rows``/``cols``. The ancilla Gram M^dag M needs no plan of its
own: it is read off the two clone blocks. A stack's reductions are then
batched products of the amplitudes ``vals * psi[cols]``, each machine's
``vals`` broadcast over its own states: O(d^3) time per state and
O(k r d^2) memory, with no d^3-sized array. The dense route
(:func:`_output_factor`, :func:`clone_state`, which forms the
d^2-by-d^2 two-clone state M M^dag) stays for callers that ask for the
two-clone state, and as the reference the tests hold the plan to.
"""

from __future__ import annotations

import functools
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
    so the machine describes V by those alone: ``rows``, ``cols`` and
    ``vals`` are read-only arrays with ``V[rows[k], cols[k]] == vals[k]``.
    Only ``vals`` is computed at construction. ``rows`` and ``cols`` depend
    on d alone, so they are properties that read d's :func:`_layout`,
    built on first read and shared by every machine of d. Rows are indexed
    by (clone A, clone B, ancilla) in the fixed tensor convention, and
    column j is the image of input basis state |j>. :attr:`isometry`
    rebuilds the dense d^3-by-d matrix on each access.
    Machines compare and hash by ``(d, alpha, beta)``. The constructor checks
    d and the signs but not alpha^2 + beta^2 = 1, so an unnormalized machine
    can be built on purpose; :func:`build_machine` is the checked entry point.
    """

    d: int
    alpha: float
    beta: float
    vals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _check_domain(self.d, self.alpha, self.beta, norm_tol=math.inf)
        # d's layout becomes the cached one here, with none of its groups built: the previous d's layout is then freed
        # before this d's machines and stacks are allocated, which keeps verify's peak RSS about 0.15 MB lower
        _layout(d)
        # alpha on the d nonzeros |jj>|R_j>, which the layout lists first, and beta / sqrt(2(d-1)) on the 2d(d-1) others
        vals = np.concatenate([np.full(d, self.alpha), np.full(2 * d * (d - 1), self.beta / math.sqrt(2.0 * (d - 1)))])
        vals.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vals", vals)

    @property
    def rows(self) -> np.ndarray:
        """Read-only row index of each nonzero of V, read from d's layout: one array for every machine of d."""
        return _layout(self.d).rows

    @property
    def cols(self) -> np.ndarray:
        """Read-only column index of each nonzero of V, read from d's layout: one array for every machine of d."""
        return _layout(self.d).cols

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

    The machines must share one d, so that they read one ``rows``/``cols``
    from d's :func:`_layout`; that is checked, and so is the one nonzero
    per row that makes each V^dag V diagonal. One offset
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
    1e-9 of 1; they are renormalized internally so the stored pair satisfies
    the constraint to better than 1e-15. Anything further off is rejected.
    """
    d = _check_domain(d, alpha, beta)
    scale = math.sqrt(alpha * alpha + beta * beta)
    return CloningMachine(d, alpha / scale, beta / scale)


class _Layout:
    """Package-private: where V's 2d^2 - d nonzeros sit, for one d, each group of index arrays built on first read.

    Every array depends on d alone and comes from one row-major
    enumeration of the P = d(d - 1) ordered pairs (j, l) with j != l,
    kept as ``j`` and ``l``; p is a pair's rank in it. Nonzero j < d is
    |jj>|R_j> in column j, nonzero d + p is |jl>|R_l> and nonzero
    d + P + p is |lj>|R_l>, both in column j. The groups are ``rows`` and
    ``cols`` (``V[rows[k], cols[k]] == vals[k]``) and each clone's
    reduction (``clone_a``, ``clone_b``). Each is a
    :func:`functools.cached_property`, so a route pays only for the groups
    it reads (a fidelity reads clone A alone), and each is built at most
    once per layout. Every array is read-only, since one layout
    serves every machine of its d. No closed form is read; the tests hold
    every array to a generic derivation from ``rows`` and ``cols``.

    Nonzero k of V gives the output amplitude ``vals[k] * psi[cols[k]]``
    at the digits (a, b, c) of ``rows[k]`` (clone A, clone B, ancilla),
    and a reduction sums the products of the amplitudes that share its
    traced digits (its key):

    - ``clone(i)`` serves clone i's reduction X X^dag as ``(block, single,
      single_bins)``. The keys hit by several nonzeros form a full (d, m)
      block: ``block`` holds the nonzero at [kept digit, key rank], and row
      a of the block reads input a, so X is ``psi[:, None] * vals[block]``,
      one broadcast product. A key hit once adds |amplitude|^2 to one
      diagonal entry: ``single`` lists those nonzeros and ``single_bins``
      their ``kept * d + col``. Clone A's block (keys (b, c) = (l, l))
      holds the first off-diagonal kind and clone B's (keys (a, c) =
      (l, l)) the second: nonzero a sits at [a, a], pair (j, l) at [j, l].
      Each nonzero of the other kind adds to the diagonal entry l from
      input j.

    The ancilla Gram M^dag M sums over the (A, B) digits, and each such
    key holds one or two nonzeros. Key (l, j), l != j, holds |lj>|R_j>
    (input l), which is clone A's ``block[l, j]``, and |lj>|R_l> (input j),
    which is clone B's ``block[j, l]``; the two meet at Gram entry (j, l).
    So the Gram off its diagonal is conj(X_A^T) X_B entrywise plus its
    conjugate transpose, with no plan of its own. Every nonzero adds
    |amplitude|^2 to diagonal entry c at ``c * d + col``: ``a * (d + 1)``
    for nonzero a < d and ``single_bins`` (shared by both clones) for each
    of the two off-diagonal kinds.
    """

    def __init__(self, d: int):
        self.d = d
        self.j, self.l = np.nonzero(~np.eye(d, dtype=bool))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        d, j, l = self.d, self.j, self.l
        rows = np.concatenate([np.arange(d) * (d * d + d + 1), (j * d + l) * d + l, (l * d + j) * d + l])
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def cols(self) -> np.ndarray:
        cols = np.concatenate([np.arange(self.d), self.j, self.j])
        cols.setflags(write=False)
        return cols

    @functools.cached_property
    def clone_a(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._clone(self.d)

    @functools.cached_property
    def clone_b(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._clone(self.d + self.j.size)

    def clone(self, clone: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clone A's (``clone=0``) or B's (``clone=1``) ``(block, single, single_bins)``; only that clone's is built."""
        return self.clone_b if clone else self.clone_a

    def _clone(self, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The clone whose block holds nonzeros start .. start + P - 1: clone A's the |jl>|R_l> kind, clone B's |lj>|R_l>."""
        d, j, l = self.d, self.j, self.l
        diag, rank = np.arange(d), np.arange(j.size)
        block = np.empty((d, d), dtype=np.intp)
        block[diag, diag] = diag
        block[j, l] = start + rank
        return _read_only(block, 2 * d + j.size - start + rank, l * d + j)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lock each array of a layout group read-only and return the group as a tuple."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=1)
def _layout(d: int) -> _Layout:
    """The :class:`_Layout` of d, shared by every machine of d while it is cached.

    Callers work one d at a time, so one entry is enough: each d's layout
    is made once per run of one d, and each of its groups is built once
    within that run, the first time a route reads it.
    """
    return _Layout(d)


@dataclass(frozen=True, eq=False)
class _Outputs:
    """Package-private: the stacks that the pure outputs M = V|psi> of k machines of one d give, each computed on request.

    Returned by :func:`_simulate`. ``vals`` is the (k, nnz) stack of the
    machines' nonzeros, and ``amps`` the (k r, d) stack of their input
    states: rows i r .. i r + r - 1 are machine i's r states. Each stack
    has one slice per row of ``amps``, in that order, and is computed from
    the nonzeros of V in O(d^3) time per state, with no d^3-sized array.
    Every machine reads its own ``vals`` by broadcasting over (k, r); no
    array is gathered per row. Each stack reads only the groups of d's
    :class:`_Layout` it needs: a clone its own plan, the Gram both clones'
    plans. Each clone block X is written C-contiguous, so every state's
    slice is C-contiguous too and takes BLAS; a state run alone therefore
    rounds as its slice of any stack does.
    """

    layout: _Layout
    vals: np.ndarray
    amps: np.ndarray

    def _diag(self, bins: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """(k r, d): W_i |psi|^2 for each state of machine i, with W_i the d-by-d sum of row i of |vals|^2 over ``bins``."""
        k, d = len(vals), self.amps.shape[1]
        bins = bins + np.arange(0, k * d * d, d * d)[:, None]  # one bincount for all k machines: machine i's W at i d^2
        w = np.bincount(bins.ravel(), weights=(np.abs(vals) ** 2).ravel(), minlength=k * d * d).reshape(k, 1, d, d)
        return (w @ (np.abs(self.amps) ** 2).reshape(k, -1, d, 1)).reshape(-1, d)

    def _clone_parts(self, clone: int) -> tuple[np.ndarray, np.ndarray]:
        """Clone ``clone``'s block X (k r, d, m) and diagonal D (k r, d): its reduction is X X^dag + diag(D).

        X is one broadcast product written C-contiguous, whatever the layout of ``amps``.
        """
        block, single, single_bins = self.layout.clone(clone)
        k, (n, d) = len(self.vals), self.amps.shape
        x = np.multiply(self.amps.reshape(k, n // k, d, 1), self.vals.take(block, axis=1)[:, None], order="C")
        diag = self._diag(single_bins, self.vals.take(single, axis=1))
        return x.reshape(n, *block.shape), diag

    def clone(self, clone: int) -> np.ndarray:
        """(k r, d, d) reductions of clone A (``clone=0``) or B (``clone=1``)."""
        x, diag = self._clone_parts(clone)
        red = x @ x.conj().swapaxes(1, 2)
        red.reshape(len(red), -1)[:, :: red.shape[1] + 1] += diag
        return red

    def gram(self) -> np.ndarray:
        """(k r, d, d) ancilla Grams M^dag M, off the diagonal conj(X_A^T) X_B entrywise plus its conjugate transpose."""
        (block_a, _, bins), (block_b, _, _) = self.layout.clone(0), self.layout.clone(1)
        k, (n, d) = len(self.vals), self.amps.shape
        amps = self.amps.reshape(k, n // k, d)
        gram = amps[..., None, :] * self.vals.take(block_a.T, axis=1)[:, None]
        np.conjugate(gram, out=gram)
        gram *= amps[..., None] * self.vals.take(block_b, axis=1)[:, None]
        gram = gram.reshape(n, d, d)
        gram += gram.conj().swapaxes(1, 2)
        gram.reshape(n, -1)[:, :: d + 1] = self._diag(np.concatenate([np.arange(d) * (d + 1), bins, bins]), self.vals)
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
    stacks from the returned :class:`_Outputs`, through the layout of that d.
    The states are kept C-contiguous (a copy only if they are not), so a
    stack rounds the same whatever the memory layout its caller gave.
    """
    d = machines[0].d
    if any(machine.d != d for machine in machines):
        raise DimensionError(f"machines of one d expected, got d = {[machine.d for machine in machines]}")
    amps = _normalized(amps, d, ndim)
    if ndim == 3 and len(amps) != len(machines):
        raise DimensionError(f"expected one stack of states per machine ({len(machines)}), got {len(amps)}")
    return _Outputs(_layout(d), np.array([machine.vals for machine in machines]), np.ascontiguousarray(amps.reshape(-1, d)))


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
    return _fidelity(_check_domain(d, alpha, beta), alpha, beta)


def _fidelity(d: int, alpha, beta):
    """Package-private: :func:`fidelity_closed_form` unchecked, on floats or elementwise on arrays, in one order."""
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
    return _shrink(_check_domain(d, alpha, beta), alpha, beta)


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
