"""Vertex-coloured simple undirected graphs over contiguous integer indices."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable CSR-backed coloured graph.

    Vertices are the integers 0..n-1.  Both orientations of every edge are
    stored and each adjacency row is strictly ascending, so the representation
    of a given graph is unique and equality is plain array equality.  All type
    invariants are checked on construction; instances are safe to share
    across threads.
    """

    n: int
    m: int
    colours: np.ndarray  # (n,) non-negative colour ids
    indptr: np.ndarray   # (n+1,) row offsets into indices
    indices: np.ndarray  # (2m,) neighbour lists, strictly ascending per row

    def __post_init__(self) -> None:
        _validate(self)
        for arr in (self.colours, self.indptr, self.indices):
            arr.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbours(self, v: int) -> np.ndarray:
        """Ascending neighbour row of vertex v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        # int64 whatever the stored dtype: unsigned indices stacked with the
        # int64 sources would give floats
        indices = self.indices.astype(np.int64, copy=False)
        keep = src < indices
        return np.column_stack([src[keep], indices[keep]])

    def is_properly_coloured(self) -> bool:
        """True when no edge joins two vertices of the same colour."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return bool((self.colours[src] != self.colours[self.indices]).all())


def _validate(g: ColouredGraph) -> None:
    if not isinstance(g.n, int) or g.n < 0:
        raise ValueError("n must be a non-negative int")
    if not isinstance(g.m, int) or g.m < 0:
        raise ValueError("m must be a non-negative int")
    if g.colours.ndim != 1 or g.colours.size != g.n:
        raise ValueError(f"expected {g.n} colours, got {g.colours.size}")
    if not np.issubdtype(g.colours.dtype, np.integer):
        raise ValueError("colour ids must be integers")
    if g.colours.size and int(g.colours.min()) < 0:
        raise ValueError("colour ids must be non-negative")
    if g.indptr.ndim != 1 or g.indptr.size != g.n + 1:
        raise ValueError("indptr must have length n + 1")
    if not np.issubdtype(g.indptr.dtype, np.integer):
        raise ValueError("indptr must hold integers")
    if g.indptr[0] != 0 or (np.diff(g.indptr) < 0).any():
        raise ValueError("indptr must be non-decreasing from 0")
    if g.indices.ndim != 1 or g.indices.size != 2 * g.m or g.indptr[-1] != 2 * g.m:
        raise ValueError("degree sum must equal 2m")
    if not np.issubdtype(g.indices.dtype, np.integer):
        raise ValueError("neighbour indices must be integers")
    if g.indices.size:
        if int(g.indices.min()) < 0 or int(g.indices.max()) >= g.n:
            raise ValueError("neighbour index out of range")
    # int64 throughout: an unsigned index added to the int64 keys would make them floats
    indices = g.indices.astype(np.int64, copy=False)
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    if (indices == src).any():
        raise ValueError("self-loops are not allowed")
    # every index is in 0..n-1 and src never decreases, so the arc keys
    # src*n + index strictly ascend exactly when every row does
    keys = src * g.n
    keys += indices
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("adjacency rows must be strictly ascending")
    # symmetry: the arcs, whose keys are sorted, must equal their own transpose
    transposed = indices * g.n
    transposed += src
    del src
    transposed.sort()
    if not np.array_equal(keys, transposed):
        raise ValueError("adjacency is not symmetric")


def _sorted_unique(values: np.ndarray, return_index: bool = False):
    """Sorted distinct values of a 1-D array, as ``np.unique`` gives them.

    One sort and an adjacent-difference mask.  With ``return_index`` the
    position of each value's first occurrence comes too: the smallest
    position within each run of equal values, so the sort need not be stable.
    """
    if return_index:
        order = np.argsort(values)
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not return_index:
        return ordered[first]
    starts = np.flatnonzero(first)
    uniq = ordered[starts]
    # freed before the reduction: one array of this length fewer alive at the
    # peak, about 17 MB on the 2.2M keys of a 540k-edge sample
    del ordered
    return uniq, np.minimum.reduceat(order, starts) if starts.size else order[:0]


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64, refusing rather than truncating a non-integer:
    arrays by dtype kind, other sequences through ``operator.index``."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
        return values.astype(np.int64, copy=False)
    try:
        return np.array([operator.index(x) for x in values], dtype=np.int64)
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _from_arcs(n: int, arcs: np.ndarray, colours: np.ndarray) -> ColouredGraph:
    """Graph on n vertices from arc keys ``src * n + dst`` that hold both
    orientations of every edge, in any order and with repeats.  Sorted and
    distinct, the keys list the rows in order, each row ascending."""
    keys = _sorted_unique(arcs)
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # the neighbour indices, key - row * n, written over the rows rather than
    # the keys: the graph keeps the later buffer and the sort's is freed, which
    # lowered peak RSS by ~5 MB when building a 540k-edge graph
    rows *= n
    indices = np.subtract(keys, rows, out=rows)
    return ColouredGraph(n=n, m=keys.size // 2, colours=colours, indptr=indptr, indices=indices)


def new_graph(n: int, edges: Iterable[Sequence[int]] | np.ndarray, colours: Sequence[int] | np.ndarray) -> ColouredGraph:
    """Build a validated graph from an unordered edge list.

    Edges may arrive in any order and orientation; duplicates collapse to a
    single edge.  Self-loops, out-of-range endpoints and endpoints or colours
    that are not integers are rejected.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # the graph checks the colours again, but n sizes arrays before it does
    col = _integers(colours, "colour ids")
    if col.ndim != 1 or col.size != n:
        raise ValueError(f"expected {n} colours, got {col.size}")

    if not isinstance(edges, np.ndarray):
        edges = [x for u, v in edges for x in (u, v)]
    pairs = _integers(edges, "edge endpoints").reshape(-1, 2)

    if pairs.size and (int(pairs.min()) < 0 or int(pairs.max()) >= n):
        bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
        raise ValueError(f"edge endpoint out of range: ({bad[0]}, {bad[1]})")
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        raise ValueError(f"self-loop at vertex {int(u[loops][0])}")
    return _from_arcs(n, np.concatenate([u * n + v, v * n + u]), col)


def colour_neighbourhood(g: ColouredGraph, v: int) -> np.ndarray:
    """Neighbours of v sharing v's colour, ascending."""
    row = g.neighbours(v)
    return row[g.colours[row] == g.colours[v]]


def colour_neighbourhood_set(g: ColouredGraph, members: Iterable[int]) -> np.ndarray:
    """Union of the members' colour neighbourhoods, minus the members themselves.

    The member set must be monochromatic.
    """
    u = np.unique(np.fromiter((int(x) for x in members), dtype=np.int64))
    if u.size == 0:
        return u
    if int(u.min()) < 0 or int(u.max()) >= g.n:
        raise ValueError("member vertex out of range")
    if np.unique(g.colours[u]).size > 1:
        raise ValueError("member set is not monochromatic")
    gathered = np.concatenate([colour_neighbourhood(g, int(v)) for v in u])
    return np.setdiff1d(gathered, u)


def graphs_equal(a: ColouredGraph, b: ColouredGraph) -> bool:
    """Labelled equality: same order, size, colours and adjacency arrays."""
    return (
        a.n == b.n
        and a.m == b.m
        and np.array_equal(a.colours, b.colours)
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )
