"""Input-state families: phase states, symmetric pairs and mutually unbiased bases.

A *phase state* of a d-level system is ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>``
with the overall phase fixed by ``phi_0 = 0``; every amplitude has modulus
``1/sqrt(d)``. The mutually unbiased bases built here (odd prime d only) are
phase states too, which is what makes them cloneable at the optimal fidelity
by the machine in :mod:`phaseclone.cloner`.

Every state and phase vector here is a plain read-only numpy array: (d,)
for one, (n, d) for a stack of n, one per row. Phases are float64 and
amplitudes complex128.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DimensionError, _integer

TWO_PI = 2.0 * math.pi


class UnsupportedDimensionError(ValueError):
    """Requested construction is not defined for this dimension."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; plenty for d <= 64."""
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def _require_odd_prime(d: int) -> None:
    if not is_prime(d):
        raise UnsupportedDimensionError(f"d = {d} is not prime; no MUB construction here")
    if d == 2:
        # s_j = j + ... + (d-1) is constant for d = 2, so the exponent
        # construction degenerates to an overall phase and cannot produce the
        # +-i basis. Refuse rather than return a wrong basis.
        raise UnsupportedDimensionError("d = 2 is not supported by this MUB construction")


def phase_state(phases) -> np.ndarray:
    """Equal-modulus superposition ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>`` of a (d,) phase vector, or of each row of an (n, d) stack.

    Every phase vector must have d >= 2 phases, a first phase of exactly 0
    and every phase in [0, 2*pi); anything else (a NaN too) raises
    ValueError. Returns a read-only complex array of the shape of ``phases``.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim not in (1, 2):
        raise DimensionError(f"expected a (d,) or (n, d) array of phases, got shape {phases.shape}")
    d = phases.shape[-1]
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not (phases[..., 0] == 0.0).all():
        raise ValueError("the first phase of every phase vector must be 0")
    if not ((phases >= 0.0) & (phases < TWO_PI)).all():  # NaN fails this too
        raise ValueError("all phases must lie in [0, 2*pi)")
    amps = np.exp(1j * phases) / math.sqrt(d)
    amps.setflags(write=False)
    return amps


def random_phase_vector(d: int, seed: int) -> np.ndarray:
    """Deterministic random phase vector, a read-only (d,) float array: ``phases[0] = 0``, the rest uniform on [0, 2*pi).

    The stream is PCG64 keyed by ``seed`` (stable across releases: the
    bit generator is pinned by name, not taken from numpy's default).
    """
    d, seed = _integer(d, "d", 2), _integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    phases = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, d - 1)))
    phases.setflags(write=False)
    return phases


def symmetric_pair(d: int, j: int, l: int) -> np.ndarray:
    """Normalized symmetric two-qudit basis state, a read-only (d^2,) array: |jj> if j == l, else (|jl> + |lj>)/sqrt(2)."""
    d = _integer(d, "d", 2)
    if not (0 <= j < d and 0 <= l < d):
        raise DimensionError(f"indices ({j}, {l}) out of range for d = {d}")
    amps = np.zeros(d * d, dtype=np.complex128)
    if j == l:
        amps[j * d + j] = 1.0
    else:
        amps[j * d + l] = amps[l * d + j] = 1.0 / math.sqrt(2.0)
    amps.setflags(write=False)
    return amps


def mub_basis(d: int, l: int) -> np.ndarray:
    """Mutually unbiased basis l in odd prime dimension d: a read-only (d, d) complex array, one state per row.

    The rows are orthonormal by construction. Amplitude j of row (state) t
    is ``omega^(t*(d-j) - l*s_j) / sqrt(d)`` with ``omega = exp(2*pi*i/d)``
    and ``s_j = j + (j+1) + ... + (d-1)``. The exponent is reduced mod d in
    integer arithmetic before exponentiation, so the amplitudes are d-th
    roots of unity to full precision.
    """
    d, l = _integer(d, "d", 2), _integer(l, "basis label", 0)
    _require_odd_prime(d)
    if l >= d:
        raise ValueError(f"basis label must lie in 0..{d - 1}, got {l}")
    t, j = np.ogrid[:d, :d]
    s = (d * (d - 1) - j * (j - 1)) // 2
    amps = np.exp(2j * math.pi / d) ** ((t * (d - j) - l * s) % d) / math.sqrt(d)
    amps.setflags(write=False)
    return amps


def _states(a) -> np.ndarray:
    """The rows of a nonempty 2-d array, one state per row; any other shape raises."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a (k, d) array of states, got shape {a.shape}")
    if not a.size:
        raise ValueError("bases must be nonempty")
    return a


def gram_residual(a) -> float:
    """Max deviation from the identity of the Gram matrix of the states in the rows of a (k, d) array."""
    a = _states(a)
    return float(np.abs(a.conj() @ a.T - np.eye(len(a))).max())


def unbiasedness_residual(a, b) -> float:
    """Worst ``| |<a|b>|^2 - 1/d |`` over all cross pairs of two nonempty (k, d) arrays of states of one width d."""
    a, b = _states(a), _states(b)
    d = a.shape[1]
    if b.shape[1] != d:
        raise DimensionError(f"all basis states must share one dimension, got {d} and {b.shape[1]}")
    overlaps = np.abs(a.conj() @ b.T) ** 2
    return float(np.abs(overlaps - 1.0 / d).max())
