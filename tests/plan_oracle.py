"""Test oracle: the simulation plan derived generically from the index arrays of V's nonzeros.

``cloner._blocks`` writes each d's two clone blocks down with arithmetic
on the enumeration that also gives ``rows`` and ``cols``, and the
simulation reads every diagonal off them. :func:`build_plan` instead
discovers the plan from any ``rows``/``cols`` by sorting and counting,
and checks on the way everything the plan relies on, so the tests can
hold the blocks, and what the diagonals assume of them, to it.
"""

import numpy as np

from phaseclone.cloner import _one_nonzero_per_row


def build_plan(d: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The plan of the triples ``rows``/``cols`` of a d-level machine, as ten arrays.

    Clone A's ``(block, single, single_bins)`` and clone B's come first:
    its block, and the nonzeros that each add to one diagonal entry of its
    reduction alone, with their bins. Then come the Gram's ``(pairs,
    pair_cols, pair_bins, diag_bins)``. The simulation keeps neither the
    singles nor a Gram plan; the tests build each diagonal and the Gram
    from them as the bit-for-bit reference of those read off the blocks.

    Checks, rather than assumes, what the plan relies on: at most one
    nonzero per row, full blocks for both clones, at most two nonzeros per
    (A, B) key, and no two such pairs at one Gram entry. A violation raises
    ValueError.
    """
    _one_nonzero_per_row(rows)
    ab, c = rows // d, rows % d
    a, b = ab // d, ab % d
    clones = []
    for name, kept, key in (("A", a, b * d + c), ("B", b, ab - b + c)):
        count = np.bincount(key, minlength=d * d)
        hit = count > 1
        if not (count[hit] == d).all():
            raise ValueError(f"the multiply-hit columns of clone {name} do not form a full block")
        # one nonzero per row: the d nonzeros of a multiply-hit key have distinct kept digits, so the block is full
        multi = hit[key]
        block = np.empty((d, int(hit.sum())), dtype=np.intp)
        block[kept[multi], (np.cumsum(hit) - 1)[key[multi]]] = np.flatnonzero(multi)
        single = np.flatnonzero(~multi)
        clones.append((block, single, kept[single] * d + cols[single]))
    if np.bincount(ab).max() > 2:
        raise ValueError("an (A, B) key of V holds more than two nonzeros")
    order = np.argsort(ab, kind="stable")
    second = np.flatnonzero(np.diff(ab[order]) == 0) + 1
    pairs = np.stack([order[second - 1], order[second]])
    bins = c[pairs[0]] * d + c[pairs[1]]
    pairs, bins = pairs[:, np.argsort(bins, kind="stable")], np.sort(bins, kind="stable")
    if not np.diff(bins).all():
        raise ValueError("two pairs of V's nonzeros meet at one Gram entry")
    return (*clones[0], *clones[1], pairs, cols[pairs], bins, c * d + cols)


def block_cols(d: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Each clone's input column at every slot of its block, ``cols[block]``: the gather that builds clone X by indexing."""
    plan = build_plan(d, rows, cols)
    return [cols[plan[0]], cols[plan[3]]]
