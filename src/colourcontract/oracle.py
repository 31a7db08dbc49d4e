"""Naive traversal-based reference for the colour components.

This path is deliberately simple: the oracle finds its partition by
breadth-first search alone, over adjacency rows that hold only the
same-colour edges (``graph.rows_within``).  It finds that partition
independently of the iterative engine, so the two can cross-check each
other.  What it shares with the engine is the graph layer, the rows and the
frontier BFS ``graph._grow``, and the type of its answer: a
``ContractionMapping`` numbered by smallest member, as a round's mapping is.
Its quotient is ``engine.apply_contraction`` of that partition, as a round's
is; it calls no engine step that finds a partition.
"""

from __future__ import annotations

import numpy as np

from .engine import ContractionMapping
from .graph import ColouredGraph, _grow, rows_within


def colour_component(g: ColouredGraph, v: int) -> np.ndarray:
    """Maximal connected monochromatic vertex set containing v, ascending:
    v's block of ``colour_partition(g)``."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    block_of = colour_partition(g).becomes
    return np.flatnonzero(block_of == block_of[v])


def colour_partition(g: ColouredGraph) -> ContractionMapping:
    """All colour components, as the mapping of every vertex to its block,
    blocks numbered by smallest member.

    The search runs over the rows of the same-colour edges alone.  A vertex
    with an empty row is a block of its own; every other block is grown by
    frontier BFS from the lowest uncovered index up, so its seed is its
    smallest member, and the seed is scattered onto the block.  One cumsum
    over the vertices that label themselves then numbers the blocks.
    """
    indptr, indices = rows_within(g, g.colours)
    covered = indptr[1:] == indptr[:-1]
    owner = np.empty(g.n, dtype=np.int64)
    ids = np.arange(g.n, dtype=np.int64)
    block_of = ids.copy()
    for v in np.flatnonzero(~covered).tolist():
        if not covered[v]:
            block_of[_grow(indptr, indices, v, covered, owner)] = v
    is_first = block_of == ids
    return ContractionMapping(n=g.n, n_prime=int(is_first.sum()), becomes=(np.cumsum(is_first) - 1)[block_of])
