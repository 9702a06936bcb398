"""Test oracle: the simulation plan derived generically from the index arrays of V's nonzeros.

``cloner._layout`` writes each d's plan down from the enumeration that
also gives ``rows`` and ``cols``. :func:`build_plan` instead discovers the
plan from any ``rows``/``cols`` by sorting and counting, and checks on the
way everything the plan relies on, so the tests can hold the written-down
plan to it array by array.
"""

import numpy as np

from phaseclone.cloner import _one_nonzero_per_row, _Plan


def build_plan(d: int, rows: np.ndarray, cols: np.ndarray) -> _Plan:
    """The :class:`_Plan` of the triples ``rows``/``cols`` of a d-level machine.

    Checks, rather than assumes, what the plan relies on: at most one
    nonzero per row, full blocks for both clones, and at most two nonzeros
    per (A, B) key. A violation raises ValueError.
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
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    return _Plan(tuple(clones), pairs, cols[pairs], starts, bins[starts], c * d + cols)


def block_cols(d: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Each clone's input column at every slot of its block, ``cols[block]``: the gather that builds clone X by indexing."""
    return [cols[block] for block, _, _ in build_plan(d, rows, cols).clones]
