"""Naive traversal-based reference for colour components and their contraction.

This path is deliberately simple: breadth-first search over adjacency rows
that hold only the same-colour edges (``graph.rows_within``).  It finds its
partition independently of the iterative engine, so the two can
cross-check each other; only the graph layer is shared: the rows, and the
quotient by a labelling, ``graph.relabel_keys``, which tests check against
a set-based reference.  ``ContractionMapping.validate`` borrows its frontier
BFS, over the rows of the edges inside one fibre, to check that every
fibre of a mapping is connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ColouredGraph, relabel_keys, rows_within


@dataclass(frozen=True)
class ColourPartition:
    """Partition of the vertices into maximal monochromatic connected blocks.

    Blocks are ordered by their smallest member and each block is ascending.
    """

    blocks: tuple[np.ndarray, ...]
    block_colour: np.ndarray

    def __post_init__(self) -> None:
        self.block_colour.setflags(write=False)
        for b in self.blocks:
            b.setflags(write=False)

    def vertex_block(self) -> np.ndarray:
        """Inverse view: block index of every vertex."""
        sizes = [b.size for b in self.blocks]
        out = np.empty(sum(sizes), dtype=np.int64)
        if sizes:
            out[np.concatenate(self.blocks)] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        return out


def colour_component(g: ColouredGraph, v: int) -> np.ndarray:
    """Maximal connected monochromatic vertex set containing v, ascending.

    Breadth-first over the same-colour rows: each step gathers the rows of
    the newest frontier only and keeps the neighbours not reached before.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    indptr, indices = rows_within(g, g.colours)
    return _grow(indptr, indices, v, np.zeros(g.n, dtype=bool), np.empty(g.n, dtype=np.int64))


def _grow(indptr: np.ndarray, indices: np.ndarray, seeds: int | np.ndarray, covered: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Vertices joined to the distinct ``seeds`` by paths in the rows
    ``(indptr, indices)``, by frontier BFS, marking them in ``covered``;
    ascending.  ``owner`` is scratch space, one int64 per vertex.

    The rows hold only the edges inside one label class (``rows_within``), so
    seeds of different classes grow their components side by side, and
    vertices of other components may already be marked: no row leads to
    them, so one mask can serve a whole sweep.  A level's new vertices are
    deduplicated by scatter: every position of ``fresh`` writes its index
    into ``owner`` at its vertex, and whichever write to a repeated vertex
    lands, exactly one position reads its own index back.
    """
    frontier = np.array(seeds, dtype=np.int64, ndmin=1)
    covered[frontier] = True
    reached = [frontier]
    while frontier.size:
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        # positions of the frontier's rows in indices, row after row
        row_base = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        gathered = indices[row_base + np.arange(row_base.size)]
        fresh = gathered[~covered[gathered]]
        at = np.arange(fresh.size)
        owner[fresh] = at
        frontier = fresh[owner[fresh] == at]
        covered[frontier] = True
        reached.append(frontier)
    return np.sort(np.concatenate(reached))


def colour_partition(g: ColouredGraph) -> ColourPartition:
    """All colour components, ordered by smallest member.

    The search runs over the rows of the same-colour edges alone.  A vertex
    with an empty row is a block of its own; every other block is grown by
    frontier BFS from its lowest vertex, from the lowest uncovered index up.
    """
    indptr, indices = rows_within(g, g.colours)
    covered = indptr[1:] == indptr[:-1]
    singles = np.flatnonzero(covered)
    owner = np.empty(g.n, dtype=np.int64)
    grown: list[np.ndarray] = []
    for v in np.flatnonzero(~covered).tolist():
        if not covered[v]:
            grown.append(_grow(indptr, indices, v, covered, owner))
    # merged by smallest member, which no two blocks share
    firsts = np.concatenate([singles, [b[0] for b in grown]]).astype(np.int64)
    blocks = list(singles.reshape(-1, 1)) + grown
    order = np.argsort(firsts)
    return ColourPartition(
        blocks=tuple(blocks[i] for i in order.tolist()),
        block_colour=g.colours[firsts[order]].astype(np.int64),
    )


def component_contraction(g: ColouredGraph) -> tuple[ColouredGraph, np.ndarray]:
    """One-shot contraction: one vertex per colour component.

    Returns the contracted graph and the vertex-to-block map.  Block-internal
    edges vanish; edges between blocks collapse to a single edge.
    """
    partition = colour_partition(g)
    block_of = partition.vertex_block()
    k = len(partition.blocks)
    return ColouredGraph(n=k, colours=partition.block_colour, keys=relabel_keys(g, block_of, k)), block_of
