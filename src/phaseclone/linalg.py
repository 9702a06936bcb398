"""Dense complex linear algebra for small multi-qudit systems (d <= 64).

Tensor index convention (row-major, fixed across the whole package): for a
composite system with factor dimensions ``(d0, d1, ..., dn)``, the basis
state ``|i0 i1 ... in>`` sits at flat index ``((i0*d1 + i1)*d2 + ...)``,
exactly the ordering produced by ``numpy.kron``. Every partial trace and
every isometry in the package assumes this layout.

A pure state is a plain complex amplitude array, (d,) for one state and
(k, n, d) for k stacks of n; each public function that takes one checks it
through :func:`_normalized`; the package's own stacks are normal by construction.
A mixed state is a :class:`DensityMatrix`, which keeps its factor dimensions.

Tolerances: ``EQ_TOL`` (1e-12) for equality-style checks, ``PSD_TOL``
(1e-10) for eigenvalue positivity, so that tiny negative round-off
eigenvalues pass.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

EQ_TOL = 1e-12
PSD_TOL = 1e-10


class DimensionError(ValueError):
    """Shape or factor-dimension mismatch between operands."""


def _integer(value, name: str, minimum: int | None, error: type[ValueError] = ValueError, maximum: int | None = None) -> int:
    """Package-private: the one integer rule; return ``value`` as an int.

    ``value`` must be an int, a NumPy integer or a 0-d integer array (what
    ``operator.index`` takes) of at least ``minimum`` (of any size when
    ``minimum`` is None) and at most ``maximum`` (when given); anything else
    (a bool, a NaN, an infinity, 2.5, 2**70 past a maximum) raises ``error``,
    a ValueError (DimensionError for shapes and indices).
    """
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or (minimum is not None and index < minimum):
        bound = "" if minimum is None else f">= {minimum} and "
        raise error(f"{name} must be {bound}an integer, got {_shown(value)}")
    if maximum is not None and index > maximum:
        raise error(f"{name} must be at most {maximum}, got {_shown(value)}")
    return index


def _shown(value) -> str:
    """Package-private: a rejected value as messages show it: its repr, or an integer's bit length where the repr would raise."""
    try:
        return repr(value)
    except ValueError:  # an int past Python's limit on the digits of a str (sys.get_int_max_str_digits(), 4300 by default)
        return f"an integer of {value.bit_length()} bits"


def _dimension(value, name: str = "d") -> int:
    """Package-private: the one dimension rule: the integer rule at minimum 2, and a square a double holds (d up to about 1.34e154)."""
    d = _integer(value, name, 2)
    if d * d > sys.float_info.max:
        raise ValueError(f"{name} must be >= 2 and an integer whose square is a finite double, got {_shown(d)}")
    return d


def _normalized(psi, d: int) -> np.ndarray:
    """Package-private: the one check of a caller's input state; return ``psi`` as a complex128 array.

    ``psi`` must be one state of shape (d,), else DimensionError; and its
    |psi|^2 must lie within ``EQ_TOL`` of 1, else ValueError, which reports
    |psi|^2 as a float (NaN, or inf on overflow, fails too).
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (d,):
        raise DimensionError(f"expected input states of shape ({d},), got shape {psi.shape}")
    with np.errstate(over="ignore"):  # an overflowing |psi|^2 is inf, which the check below reports
        norm2 = float((np.abs(psi) ** 2).sum())
    if not abs(norm2 - 1.0) <= EQ_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")
    return psi


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: factor dimensions plus a complex square matrix.

    Construction checks shape only, not the physical invariants (Hermitian,
    unit trace, positive semidefinite); the audit's ``output_state_validity``
    check verifies those for the simulated outputs.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        self._settle(self.dims, np.array(self.mat, dtype=np.complex128, copy=True))

    @classmethod
    def _adopt(cls, dims, mat: np.ndarray) -> "DensityMatrix":
        """Package-private: wrap a complex matrix that was just computed and that nothing else references.

        Checks the shape and locks ``mat`` read-only like the public
        constructor, but does not copy it.
        """
        if mat.dtype != np.complex128:
            raise TypeError(f"expected a complex128 matrix, got {mat.dtype}")
        rho = object.__new__(cls)
        rho._settle(dims, mat)
        return rho

    def _settle(self, dims, mat: np.ndarray) -> None:
        """Check ``dims`` and that ``mat`` is (n, n) for their product n, then store both with ``mat`` read-only."""
        dims = tuple(_integer(d, "factor dimension", 2, DimensionError) for d in dims)
        if not dims:
            raise DimensionError("need at least one factor dimension, got none")
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise DimensionError(f"matrix shape {mat.shape} does not match dims {dims}")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the elementwise difference ``||a - b||_F``.

    The last two axes hold a matrix; any leading axes index a stack of them,
    and the largest slice norm is returned (0.0 for an empty stack). A single
    matrix or vector is a stack of one. Each slice is summed as
    ``np.linalg.norm`` sums a matrix, ``re.re + im.im``, so the result is
    bit-identical to the largest of the slices' separate distances.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(_norms(a - b).max(initial=0.0))


def _norms(diff: np.ndarray) -> np.ndarray:
    """Package-private: the norm of each slice of a stack of differences, summed as :func:`frobenius_distance` sums.

    For a caller that already holds the difference, e.g. one written into a
    temporary it no longer needs. The result has the stack's leading shape.
    """
    if diff.ndim >= 2 and abs(diff.strides[-2]) < abs(diff.strides[-1]):
        diff = diff.swapaxes(-1, -2)  # sum in memory order, as np.linalg.norm does
    diff = diff.reshape(*diff.shape[:-2], math.prod(diff.shape[-2:]))  # a view wherever each slice is contiguous
    return np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not in ``keep``.

    Args:
        rho: density matrix over factors ``rho.dims``.
        keep: indices of the factors to retain; must be a nonempty proper
            subset of ``range(len(rho.dims))``. Kept factors stay in their
            original order.

    Returns:
        The reduced density matrix over the kept factors. The trace is
        preserved exactly up to round-off.
    """
    n = len(rho.dims)
    keep = sorted(set(_integer(k, "keep index", 0, DimensionError, maximum=n - 1) for k in keep))
    if not keep or len(keep) >= n:
        raise DimensionError(f"keep={keep} must be a nonempty proper subset of 0..{n - 1}")

    dims = rho.dims
    tensor = rho.mat.reshape(dims + dims)
    # Pair ket axis s with bra axis s + (remaining ndim // 2); trace from the
    # highest index down so earlier axis numbers stay valid.
    for s in reversed([i for i in range(n) if i not in keep]):
        tensor = np.trace(tensor, axis1=s, axis2=s + tensor.ndim // 2)
    kept_dims = tuple(dims[i] for i in keep)
    side = math.prod(kept_dims)
    return DensityMatrix._adopt(kept_dims, tensor.reshape(side, side))  # np.trace made it fresh


def fidelity_pure(psi, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> between a normalized pure state, a (d,) amplitude array, and a density matrix of side d.

    The value is returned as a real number; a residual imaginary part of
    ``EQ_TOL`` or more, or a NaN, indicates a malformed (non-Hermitian or
    non-finite) input and raises.
    """
    psi = _normalized(psi, rho.total_dim)
    value = complex(psi.conj() @ rho.mat @ psi)
    if not abs(value.imag) < EQ_TOL:
        raise ValueError(f"<psi|rho|psi> has non-negligible imaginary part: {value!r}")
    return value.real
