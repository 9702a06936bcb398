"""Input-state families: phase states and mutually unbiased bases.

A *phase state* of a d-level system is ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>``
with the overall phase fixed by ``phi_0 = 0``; every amplitude has modulus
``1/sqrt(d)``. The mutually unbiased bases built here (odd prime d only) are
phase states too, which is what makes them cloneable at the optimal fidelity
by the machine in :mod:`phaseclone.cloner`.

Every state and phase vector here is a plain read-only numpy array: (d,)
for one, (n, d) for a stack of n, one per row. Phases are float64 and
amplitudes complex128.

Seeded values come by one route, :func:`_uniforms`, which computes
numpy's ``Generator(PCG64(seed)).random()`` doubles for a whole batch of
seeds at once: numpy documents PCG64's stream, its SeedSequence seeding
included, as stable across releases, so it re-runs those integer steps in
vectorized numpy, bit for bit, without numpy's ``random`` subpackage. It
serves every draw: the audit's splits, a batch of phase vectors
(:func:`_random_phase_vectors`), and :func:`random_phase_vector`, which is
that batch's one-seed case. The tests hold the route to numpy's
``Generator`` bit for bit. The private routes take the checked d and seeds
of their callers: each argument is checked once, where it enters.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import DimensionError, _dimension, _integer

TWO_PI = 2.0 * math.pi
MAX_D = 64  # the largest d of the MUB route, and the CLI's bound on every d


class UnsupportedDimensionError(ValueError):
    """Requested construction is not defined for this dimension."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; plenty for d <= 64.

    ``n`` follows the integer rule (a NaN or 2.5 raises ValueError); any
    integer below 2 is not prime.
    """
    n = _integer(n, "n", None)
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _mub_dimension(d) -> int:
    """Package-private: the one MUB rule; return d as an int, an odd prime of at most ``MAX_D`` (bounded before any trial division)."""
    d = _integer(d, "d", 2, maximum=MAX_D)
    if not is_prime(d):
        raise UnsupportedDimensionError(f"d = {d} is not prime; no MUB construction here")
    if d == 2:
        # s_j = j + ... + (d-1) is constant for d = 2, so the exponent
        # construction degenerates to an overall phase and cannot produce the
        # +-i basis. Refuse rather than return a wrong basis.
        raise UnsupportedDimensionError("d = 2 is not supported by this MUB construction")
    return d


def phase_state(phases) -> np.ndarray:
    """Equal-modulus superposition ``(1/sqrt(d)) * sum_j exp(i*phi_j) |j>`` of a (d,) phase vector, or of each row of an (n, d) stack.

    Every phase vector must have d >= 2 phases, a first phase of exactly 0
    and every phase in [0, 2*pi); anything else (a NaN too) raises
    ValueError, and a phase that is a bool, a complex or a string raises
    TypeError. Returns a read-only complex array of the shape of ``phases``.
    """
    phases = np.asarray(phases)
    if phases.dtype.kind not in "iuf":
        raise TypeError(f"phases must be real numbers other than bools, got dtype {phases.dtype}")
    phases = phases.astype(np.float64, copy=False)
    if phases.ndim not in (1, 2):
        raise DimensionError(f"expected a (d,) or (n, d) array of phases, got shape {phases.shape}")
    d = _dimension(phases.shape[-1])
    if not (phases[..., 0] == 0.0).all():
        raise ValueError("the first phase of every phase vector must be 0")
    if not ((phases >= 0.0) & (phases < TWO_PI)).all():  # NaN fails this too
        raise ValueError("all phases must be in [0, 2*pi)")
    amps = np.exp(1j * phases) / math.sqrt(d)
    amps.setflags(write=False)
    return amps


def random_phase_vector(d: int, seed: int) -> np.ndarray:
    """Deterministic random phase vector, a read-only (d,) float array: ``phases[0] = 0``, the rest uniform on [0, 2*pi).

    The phases are numpy's ``Generator(PCG64(seed)).uniform(0, 2*pi, d - 1)``
    after a zero, bit for bit (the bit generator is pinned by name, not taken
    from numpy's default): the one-seed row of :func:`_random_phase_vectors`,
    on a d and seed checked here. Many draws are cheaper as one batch there.
    """
    return _random_phase_vectors(_dimension(d), [_integer(seed, "seed", 0)])[0]


# numpy's SeedSequence hash constants and PCG64's LCG multiplier M (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of two uint64 arrays, from 32-bit halves."""
    a1, a0, b1, b0 = a >> 32, a & _M32, b >> 32, b & _M32
    mid = a0 * b1 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (a1 * b0 + (mid & _M32) >> 32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """Products mod 2^128 of (hi, lo) uint64 limb pairs."""
    return _mulhi64(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _limbs(values) -> tuple:
    """(hi, lo) uint64 limbs of nonnegative Python ints, taken mod 2^128."""
    return tuple(np.array([(v >> s) % 2**64 for v in values], np.uint64) for s in (64, 0))


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays: each call xors in the hash constant, steps it by ``mult`` and mixes."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _seed_states(seeds: list[int]) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed: four (n,) uint64 arrays."""
    width = max(4, -(-max(seeds, default=0).bit_length() // 32))  # 32-bit entropy words of the widest seed
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds), "<u4")
    words = words.astype(np.uint32).reshape(len(seeds), width).T  # zero words pad each seed to the 4-word pool
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        x = _MIX_L * x - _MIX_R * y
        return x ^ x >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    if width > 4:  # a seed >= 2^128: the words beyond the pool, each seed's only as far as it has
        counts = np.array([-(-s.bit_length() // 32) for s in seeds])
        for src in range(4, width):
            for dst in range(4):
                pool[dst] = np.where(counts > src, mix(pool[dst], hashmix(words[src])), pool[dst])
    generate = _hasher(_INIT_B, _MULT_B)
    out = [generate(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seeds, count: int) -> np.ndarray:
    """Package-private: the first ``count`` doubles of ``Generator(PCG64(seed)).random()`` for every seed, bit for bit; an (n, count) array.

    numpy documents the PCG64 stream, its seeding included, as stable, so
    this re-runs numpy's steps, vectorized over the seeds: the SeedSequence
    hash on uint32 words gives each seed a 128-bit s and seq; PCG64 seeds
    its LCG state to M (s + inc) + inc, with inc = 2 seq + 1 and M the
    multiplier; draw k = 1..count outputs the state k steps later,
    ``M^(k+1) s + (1 + M + ... + M^(k+1)) inc``. So every draw of every seed
    is one jump, in 128-bit arithmetic on (hi, lo) uint64 limbs, and the
    XSL-RR output x of the state gives the double ``(x >> 11) * 2^-53``.
    Unchecked: the seeds are Python ints >= 0 that the caller checked or derived.
    """
    s_hi, s_lo, seq_hi, seq_lo = (words[:, None] for words in _seed_states(seeds))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    steps = itertools.repeat(_PCG_MULT, count + 1)
    powers = list(itertools.accumulate(steps, lambda p, m: p * m % (1 << 128), initial=1))  # M^0..M^(count+1)
    a = _mul128((s_hi, s_lo), _limbs(powers[2:]))
    b = _mul128(inc, _limbs(list(itertools.accumulate(powers))[2:]))
    lo = a[1] + b[1]
    hi = a[0] + b[0] + (lo < b[1])
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11).astype(np.float64) * 2.0**-53


def _random_phase_vectors(d: int, seeds) -> np.ndarray:
    """Package-private, unchecked: the phase vectors of many seeds at once; a read-only (n, d) array, one row per seed.

    Row i is a zero phase, then seed i's first d - 1 :func:`_uniforms` times 2*pi, as ``uniform(0, 2*pi)``
    scales them; so the first d' phases of a row are its seed's (d',) phase vector.
    """
    phases = np.insert(_uniforms(seeds, d - 1) * TWO_PI, 0, 0.0, axis=1)
    phases.setflags(write=False)
    return phases


def mub_basis(d: int, l: int) -> np.ndarray:
    """Mutually unbiased basis l in odd prime dimension d <= ``MAX_D``: a read-only (d, d) complex array, one state per row.

    The rows are orthonormal by construction. Amplitude j of row (state) t
    is ``omega^(t*(d-j) - l*s_j) / sqrt(d)`` with ``omega = exp(2*pi*i/d)``
    and ``s_j = j + (j+1) + ... + (d-1)``. The exponent is reduced mod d in
    integer arithmetic before exponentiation, so the amplitudes are d-th
    roots of unity to full precision.
    """
    d = _mub_dimension(d)
    amps = _mub_amps(d, _integer(l, "basis label", 0, maximum=d - 1))
    amps.setflags(write=False)
    return amps


def _mub_amps(d: int, l) -> np.ndarray:
    """Package-private, unchecked: :func:`mub_basis`'s amplitudes for a label l, or a (k, d, d) stack for a (k, 1, 1) label array.

    Every amplitude is gathered from one table of ``omega^e / sqrt(d)``, e = 0..d-1,
    the same power and divide per element as one basis at a time, so the values are bit-identical.
    """
    t, j = np.ogrid[:d, :d]
    s = (d * (d - 1) - j * (j - 1)) // 2
    roots = np.exp(2j * math.pi / d) ** np.arange(d) / math.sqrt(d)
    return roots[(t * (d - j) - l * s) % d]


def _states(a, stack: bool = False) -> np.ndarray:
    """The rows of a nonempty 2-d array, one state per row, or with ``stack`` also a 3-d stack of them; any other shape raises."""
    a = np.asarray(a)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        raise DimensionError(f"expected a (k, d) array of states{' or a stack of them' * stack}, got shape {a.shape}")
    if not a.size:
        raise ValueError("bases must be nonempty")
    return a


def gram_residual(a) -> float:
    """Max deviation from the identity of the Gram matrix of the states in the rows of a (k, d) array."""
    a = _states(a)
    return float(np.abs(a.conj() @ a.T - np.eye(len(a))).max())


def unbiasedness_residual(a, b) -> float | np.ndarray:
    """Worst ``| |<a|b>|^2 - 1/d |`` over all cross pairs of two nonempty (k, d) arrays of states of one width d.

    ``b`` may also be a (k, m, d) stack of such arrays; then the result is a
    (k,) array whose entry i is exactly ``unbiasedness_residual(a, b[i])``,
    from one stacked product reduced in place.
    """
    a, b = _states(a), _states(b, stack=True)
    d = a.shape[1]
    if b.shape[-1] != d:
        raise DimensionError(f"all basis states must share one dimension, got {d} and {b.shape[-1]}")
    overlaps = np.abs(a.conj() @ b.swapaxes(-1, -2))
    overlaps **= 2
    overlaps -= 1.0 / d
    worst = np.abs(overlaps, out=overlaps).max(axis=(-2, -1))
    return float(worst) if b.ndim == 2 else worst
