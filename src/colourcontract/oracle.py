"""Naive traversal-based reference for colour components and their contraction.

This path is deliberately simple: breadth-first search over the adjacency
rows that a graph derives from its edge keys.  It finds its partition
independently of the iterative engine, so the two can cross-check each
other; only the quotient by a labelling, ``graph.relabel_keys``, is shared,
and tests check it against a set-based reference.
``ContractionMapping.validate`` borrows its frontier BFS to check that every
fibre of a mapping is connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ColouredGraph, relabel_keys


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

    Breadth-first: each step gathers the rows of the newest frontier only and
    keeps the same-colour neighbours not reached before.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    return _grow(g, g.colours, v, np.zeros(g.n, dtype=bool))


def _grow(g: ColouredGraph, colours: np.ndarray, seeds: int | np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Vertices joined to the seeds by paths of g along which ``colours``
    (g's own, or any other vertex labelling) stays the same, by frontier BFS,
    marking them in ``covered``; ascending.

    A vertex joins the frontier through an edge from a vertex of its own
    colour, so seeds of different colours grow their components side by side.
    Vertices of other components may already be marked: same-colour edges
    never lead to them, so one mask can serve a whole sweep.
    """
    frontier = np.unique(seeds)
    covered[frontier] = True
    reached = [frontier]
    while frontier.size:
        starts = g.indptr[frontier]
        lengths = g.indptr[frontier + 1] - starts
        # positions of the frontier's rows in g.indices, row after row
        row_base = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        # int64 whatever the stored dtype, so the blocks index like vertex ids
        gathered = g.indices[row_base + np.arange(row_base.size)].astype(np.int64, copy=False)
        same = colours[gathered] == np.repeat(colours[frontier], lengths)
        fresh = gathered[same & ~covered[gathered]]
        frontier = np.unique(fresh)
        covered[frontier] = True
        reached.append(frontier)
    return np.sort(np.concatenate(reached))


def colour_partition(g: ColouredGraph) -> ColourPartition:
    """All colour components, ordered by smallest member.

    A vertex on no same-colour edge is a block of its own; those are found in
    one pass over the edges.  Every other block is grown by frontier BFS from
    its lowest vertex, from the lowest uncovered index up.
    """
    lo, hi = g.endpoints()
    same = np.flatnonzero(g.colours[lo] == g.colours[hi])
    covered = np.ones(g.n, dtype=bool)
    covered[lo[same]] = False
    covered[hi[same]] = False
    del lo, hi, same
    singles = np.flatnonzero(covered)
    grown: list[np.ndarray] = []
    for v in np.flatnonzero(~covered).tolist():
        if not covered[v]:
            grown.append(_grow(g, g.colours, v, covered))
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
