"""Input-state families: phase states, symmetric pairs and mutually unbiased bases.

A *phase state* of a d-level system is ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>``
with the global phase fixed by ``phi_0 = 0``; every amplitude has modulus
``1/sqrt(d)``. The mutually unbiased bases built here (odd prime d only) are
phase states too, which is what makes them cloneable at the optimal fidelity
by the machine in :mod:`phaseclone.cloner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, Ket

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


@dataclass(frozen=True)
class PhaseVector:
    """The d phase parameters of a phase state, with ``phases[0] == 0``."""

    d: int
    phases: tuple[float, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != self.d:
            raise ValueError(f"expected {self.d} phases, got {len(phases)}")
        if phases[0] != 0.0:
            raise ValueError(f"phases[0] must be 0, got {phases[0]!r}")
        if not all(0.0 <= p < TWO_PI for p in phases):  # NaN fails this too
            raise ValueError("all phases must lie in [0, 2*pi)")
        object.__setattr__(self, "phases", phases)


def _require_odd_prime(d: int) -> None:
    if not is_prime(d):
        raise UnsupportedDimensionError(f"d = {d} is not prime; no MUB construction here")
    if d == 2:
        # s_j = j + ... + (d-1) is constant for d = 2, so the exponent
        # construction degenerates to a global phase and cannot produce the
        # +-i basis. Refuse rather than return a wrong basis.
        raise UnsupportedDimensionError("d = 2 is not supported by this MUB construction")


def phase_state(pv: PhaseVector) -> Ket:
    """Equal-modulus superposition ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>``."""
    amps = np.exp(1j * np.array(pv.phases)) / math.sqrt(pv.d)
    return Ket((pv.d,), amps)


def random_phase_vector(d: int, seed: int) -> PhaseVector:
    """Deterministic random phase vector: ``phases[0] = 0``, the rest uniform on [0, 2*pi).

    The stream is PCG64 keyed by ``seed`` (stable across releases: the
    bit generator is pinned by name, not taken from numpy's default).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return PhaseVector(d, (0.0, *rng.uniform(0.0, TWO_PI, d - 1)))


def symmetric_pair(d: int, j: int, l: int) -> Ket:
    """Normalized symmetric two-qudit basis state: |jj> if j == l, else (|jl> + |lj>)/sqrt(2)."""
    if not (0 <= j < d and 0 <= l < d):
        raise DimensionError(f"indices ({j}, {l}) out of range for d = {d}")
    amps = np.zeros(d * d, dtype=np.complex128)
    if j == l:
        amps[j * d + j] = 1.0
    else:
        amps[j * d + l] = amps[l * d + j] = 1.0 / math.sqrt(2.0)
    return Ket((d, d), amps)


def mub_basis(d: int, l: int) -> np.ndarray:
    """Mutually unbiased basis l in odd prime dimension d: a read-only (d, d) complex array, one state per row.

    The rows are orthonormal by construction. Amplitude j of row (state) t
    is ``omega^(t*(d-j) - l*s_j) / sqrt(d)`` with ``omega = exp(2*pi*i/d)``
    and ``s_j = j + (j+1) + ... + (d-1)``. The exponent is reduced mod d in
    integer arithmetic before exponentiation, so the amplitudes are d-th
    roots of unity to full precision.
    """
    _require_odd_prime(d)
    if not 0 <= l < d:
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
