"""Naive traversal-based reference for colour components and their contraction.

This path is deliberately simple: breadth-first search over adjacency rows
that hold only the same-colour edges (``graph.rows_within``).  It finds its
partition independently of the iterative engine, so the two can
cross-check each other.  What it shares with the engine is the graph layer,
the rows, the frontier BFS ``graph._grow`` and the quotient by a labelling,
``graph.relabel_keys``, which tests check against a set-based reference,
and the type of its answer: a ``ContractionMapping`` numbered by smallest
member, as a round's mapping is.  It calls no engine step function.
"""

from __future__ import annotations

import numpy as np

from .engine import ContractionMapping
from .graph import ColouredGraph, _grow, relabel_keys, rows_within


def colour_component(g: ColouredGraph, v: int) -> np.ndarray:
    """Maximal connected monochromatic vertex set containing v, ascending.

    Breadth-first over the same-colour rows: each step gathers the rows of
    the newest frontier only and keeps the neighbours not reached before.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    indptr, indices = rows_within(g, g.colours)
    return np.sort(_grow(indptr, indices, v, np.zeros(g.n, dtype=bool), np.empty(g.n, dtype=np.int64)))


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


def component_contraction(g: ColouredGraph) -> tuple[ColouredGraph, np.ndarray]:
    """One-shot contraction: one vertex per colour component.

    Returns the contracted graph and the vertex-to-block map.  Block-internal
    edges vanish; edges between blocks collapse to a single edge.
    """
    partition = colour_partition(g)
    k, block_of = partition.n_prime, partition.becomes
    colours = np.empty(k, dtype=np.int64)
    colours[block_of] = g.colours
    return ColouredGraph(n=k, colours=colours, keys=relabel_keys(g, block_of, k)), block_of
