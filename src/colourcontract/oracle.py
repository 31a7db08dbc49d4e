"""Naive traversal-based reference for the colour components.

This path is deliberately simple: the oracle reads adjacency rows that
hold only the same-colour edges (``graph.rows_within``).  Blocks of one and
two vertices are read off the row lengths in whole-array passes, and a
breadth-first search runs once per larger block.  It finds that partition
independently of the iterative engine, so the two can cross-check each
other.  It shares with the engine the graph layer, the rows and the BFS
``graph._grow``, and its answer: block labels numbered by ``engine._numbered``
as a round's roots are, and quotient by ``engine.apply_contraction``.  It
runs no pointer step and no engine step that finds a partition.
"""

from __future__ import annotations

import numpy as np

from .engine import ContractionMapping, _numbered
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

    The search runs over the rows of the same-colour edges alone.  Blocks
    of one and two vertices are found in whole-array passes: a vertex with
    an empty row is a block of its own, and an edge whose two ends have one
    row entry each is a block of two, labelled by its lower end.  Every
    other block is grown by frontier BFS, once per block, from the lowest
    uncovered index up, so its seed is its smallest member, and the seed is
    scattered onto the block.  The seeds, the vertices that label
    themselves, are then numbered in index order by ``engine._numbered``,
    as a round's roots are.
    """
    indptr, indices = rows_within(g, g.colours)
    degree = np.diff(indptr)
    # one uncovered place past the last vertex ends the scan for seeds
    covered = np.append(degree == 0, False)
    block_of = np.arange(g.n, dtype=np.int64)
    ends = np.flatnonzero(degree == 1)
    other = indices[indptr[ends]]
    paired = degree[other] == 1
    ends, other = ends[paired], other[paired]
    # both ends of a pair are listed, each labelled by the lower one
    block_of[ends] = np.minimum(ends, other)
    covered[ends] = True
    owner = np.empty(g.n, dtype=np.int64)
    # a bool argmin stops at the first uncovered place, so the scans for
    # the seeds cross every vertex once in all
    v = int(np.argmin(covered))
    while v < g.n:
        block_of[_grow(indptr, indices, v, covered, owner)] = v
        v += int(np.argmin(covered[v:]))
    # every block is labelled by its seed, which labels itself
    return _numbered(block_of)
