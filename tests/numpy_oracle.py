"""Test oracle: phase vectors drawn by numpy's own ``Generator``.

``phaseclone.states`` computes numpy's PCG64 stream in the package and
never imports ``numpy.random``. The tests hold that stream to numpy's, so
they draw numpy's phases here rather than through the route under test.
"""

import math

import numpy as np


def numpy_phases(d: int, seed: int) -> np.ndarray:
    """A zero, then ``Generator(PCG64(seed)).uniform(0, 2*pi, d - 1)``: the (d,) phase vector of ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.concatenate(([0.0], rng.uniform(0.0, 2 * math.pi, d - 1)))
