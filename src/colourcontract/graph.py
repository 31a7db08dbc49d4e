"""Vertex-coloured simple undirected graphs over contiguous integer indices."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# the adjacency keys lo*n + hi stay inside int64 for every n below this
_MAX_ORDER = 2**31


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable coloured graph stored as one sorted key per edge.

    Vertices are the integers 0..n-1.  The edge joining lo < hi is the key
    ``lo * n + hi`` and the keys strictly ascend, so the representation of a
    given graph is unique and equality is plain array equality.  Nothing
    derived from the keys is stored: adjacency rows are built per use by
    ``rows_of`` or ``rows_within``.  All type invariants are checked on
    construction and the arrays are read-only, so instances are safe to share
    across threads.
    """

    n: int
    colours: np.ndarray  # (n,) non-negative colour ids
    keys: np.ndarray     # (m,) edge keys lo*n + hi with lo < hi < n, strictly ascending

    def __post_init__(self) -> None:
        # held as int64 whatever the given integer type, so that endpoints,
        # edges and relabelled keys are int64 too
        object.__setattr__(self, "keys", _validate(self))
        for arr in (self.colours, self.keys):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return int(self.keys.size)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of every edge, in key order: lo ascends, and hi within each lo."""
        return _endpoints(self.n, self.keys)

    @property
    def degrees(self) -> np.ndarray:
        """(n,) edge count at every vertex.  Kept for the benchmark tracer
        (``perfbench/tracing.py``) until it counts from the keys; no package
        code reads it."""
        lo, hi = self.endpoints()
        return np.bincount(lo, minlength=self.n) + np.bincount(hi, minlength=self.n)

    @property
    def indices(self) -> np.ndarray:
        """(2m,) neighbours of every vertex, row after row (see ``rows_of``),
        built on each access.  Kept for the benchmark tracer
        (``perfbench/tracing.py``) until it counts from the keys; no package
        code reads it."""
        return rows_of(self.n, self.keys)[1]

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        return np.column_stack(self.endpoints())

    def is_properly_coloured(self) -> bool:
        """True when no edge joins two vertices of the same colour."""
        lo, hi = self.endpoints()
        return bool((self.colours[lo] != self.colours[hi]).all())


def _endpoints(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = keys // max(n, 1)
    hi = lo * n
    np.subtract(keys, hi, out=hi)
    return lo, hi


def rows_of(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency rows ``(indptr, indices)`` of the edges with the
    given keys ``lo * n + hi``, strictly ascending (a graph's keys or any
    ascending subset of them); each row strictly ascends.

    One sort of the arcs of both orientations, the keys and the transposed
    keys ``hi * n + lo``, lists the rows one after another; an arc's
    quotient and remainder by n are its row and its neighbour.
    """
    lo, hi = _endpoints(n, keys)
    hi *= n
    hi += lo
    arcs = np.concatenate((keys, hi))
    del lo, hi
    arcs.sort()
    row, indices = divmod(arcs, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, indices


def rows_within(g: ColouredGraph, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency rows of g's edges whose two ends share a label, one value
    per vertex (g's colours, or a mapping's targets): the graph whose
    connected components are the connected pieces of the label classes."""
    lo, hi = g.endpoints()
    # np.compress, not a boolean index: about 3x faster at middling densities
    # on numpy 2.4 (3.8 -> 1.0 ms keeping a quarter of 541k keys)
    return rows_of(g.n, np.compress(label[lo] == label[hi], g.keys))


def _grow(indptr: np.ndarray, indices: np.ndarray, seeds: int | np.ndarray, covered: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Vertices joined to the distinct ``seeds`` by paths in the rows
    ``(indptr, indices)``, by frontier BFS, marking them in ``covered``;
    level by level, unsorted.  ``owner`` is scratch space, one int64 per vertex.

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
    return np.concatenate(reached)


def _validate(g: ColouredGraph) -> np.ndarray:
    """Check every invariant of g; returns its keys as int64."""
    if not isinstance(g.n, int) or g.n < 0:
        raise ValueError("n must be a non-negative int")
    if g.colours.ndim != 1 or g.colours.size != g.n:
        raise ValueError(f"expected colours of shape ({g.n},), got {g.colours.shape}")
    if not np.issubdtype(g.colours.dtype, np.integer):
        raise ValueError("colour ids must be integers")
    if g.colours.size and int(g.colours.min()) < 0:
        raise ValueError("colour ids must be non-negative")
    keys = g.keys
    if keys.ndim != 1 or not np.issubdtype(keys.dtype, np.integer):
        raise ValueError("edge keys must be a 1-D integer array")
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("edge keys must strictly ascend")
    # ascending, so the ends bound every key; compared as Python ints, exact
    # for every integer type
    if keys.size and not 0 <= int(keys[0]) <= int(keys[-1]) < g.n * g.n:
        raise ValueError("edge key out of range")
    keys = keys.astype(np.int64, copy=False)
    # with lo = key // n, the key is lo * (n + 1) + (hi - lo): lo < hi exactly
    # when the key exceeds lo * (n + 1)
    diagonal = keys // max(g.n, 1)
    diagonal *= g.n + 1
    if (keys <= diagonal).any():
        raise ValueError("self-loops are not allowed" if (keys == diagonal).any() else "edge keys must have lo < hi")
    return keys


def _sorted_unique(values: np.ndarray, return_index: bool = False):
    """Sorted distinct values of a 1-D array, as ``np.unique`` gives them.

    One sort and an adjacent-difference mask.  With ``return_index`` the
    position of each value's first occurrence comes too: the smallest
    position within each run of equal values, so the sort need not be stable.
    Without it, values that already strictly ascend, as the edge keys of
    canonical text do, are returned as they are, found by one comparison
    pass and never sorted.  The keys of a contraction round descend within
    their first few values, so a 16-value head is compared first and only
    ascending input pays for the whole pass.  Non-negative values below
    twice their count are deduplicated by a bitmap instead of a sort.
    """
    if return_index:
        order = np.argsort(values)
        ordered = values[order]
    else:
        head = values[:16]
        if (head[1:] > head[:-1]).all() and (values[1:] > values[:-1]).all():
            return values
        # values in 0..2*size-1 are marked in a bitmap of at most 2 bytes per
        # value and read back in order: on the 406k relabelled keys of the ER
        # benchmark's finish, all below k**2 = 58 081, 0.87 ms against 1.37 ms
        top = int(values.max())
        if top < 2 * values.size and int(values.min()) >= 0:
            seen = np.zeros(top + 1, dtype=bool)
            seen[values] = True
            return np.flatnonzero(seen).astype(values.dtype, copy=False)
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


def _pair_keys(a: np.ndarray, b: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sorted distinct keys ``min * k + max`` of the pairs (a[i], b[i]), the
    maxima written into ``out``: b itself only when the caller owns b."""
    keys = np.minimum(a, b)
    keys *= k
    keys += np.maximum(a, b, out=out)
    return _sorted_unique(keys)


def relabel_keys(n: int, keys: np.ndarray, label: np.ndarray, k: int) -> np.ndarray:
    """Sorted distinct keys ``min * k + max`` of the edges with the given
    keys ``lo * n + hi`` (a graph's keys or any subset of them) taken through
    ``label``, one integer in 0..k-1 per vertex (the graph built from the
    keys checks them): the edge set of the quotient by the labelling.  Edges
    inside one label vanish; parallel ones collapse."""
    lo, hi = _endpoints(n, keys)
    label = label.astype(np.int64, copy=False)
    a, b = label[lo], label[hi]
    del lo, hi
    crossing = a != b
    # only the crossing ends stay alive through the key build and the sort.
    # Every edge crosses when the keys join different fibres, as the finish's
    # cross-colour keys do: no copy then (two copies of the ER benchmark's
    # 406k such keys took 0.96 ms); otherwise np.compress, about 3x faster
    # than a boolean index at middling densities on numpy 2.4
    if not crossing.all():
        a, b = np.compress(crossing, a), np.compress(crossing, b)
    del crossing
    return _pair_keys(a, b, k, out=b)


def new_graph(n: int, edges: Iterable[Sequence[int]] | np.ndarray, colours: Sequence[int] | np.ndarray) -> ColouredGraph:
    """Build a validated graph from an unordered edge list.

    Edges may arrive in any order and orientation; duplicates collapse to a
    single edge.  An edge array must have shape (m, 2), or hold nothing.
    Self-loops, out-of-range endpoints, negative colours and endpoints or
    colours that are not integers are rejected.  A colour array of any
    integer dtype is kept in that dtype.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # the graph checks the colours again, but n sizes arrays before it does.
    # An integer array keeps its dtype: uint64 ids at or above 2**63 are valid
    if isinstance(colours, np.ndarray) and colours.dtype.kind in "iu":
        col = colours
    else:
        col = _integers(colours, "colour ids")
    if col.ndim != 1 or col.size != n:
        raise ValueError(f"expected colours of shape ({n},), got {col.shape}")

    if isinstance(edges, np.ndarray):
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edge array must have shape (m, 2), got {edges.shape}")
    else:
        edges = [x for u, v in edges for x in (u, v)]
    pairs = _integers(edges, "edge endpoints").reshape(-1, 2)

    if pairs.size and (int(pairs.min()) < 0 or int(pairs.max()) >= n):
        bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
        raise ValueError(f"edge endpoint out of range: ({bad[0]}, {bad[1]})")
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        raise ValueError(f"self-loop at vertex {int(u[loops][0])}")
    return ColouredGraph(n=n, colours=col, keys=_pair_keys(u, v, n))


def colour_neighbourhood_set(g: ColouredGraph, members: Iterable[int]) -> np.ndarray:
    """Union of the members' colour neighbourhoods, minus the members themselves.

    The member set must be monochromatic.  The members' rows are gathered
    from ``rows_within(g, g.colours)``.  Kept for the benchmark tracer
    (``perfbench/tracing.py``), which counts its calls; no package code
    calls it.
    """
    u = np.unique(np.fromiter((int(x) for x in members), dtype=np.int64))
    if u.size == 0:
        return u
    if int(u.min()) < 0 or int(u.max()) >= g.n:
        raise ValueError("member vertex out of range")
    if np.unique(g.colours[u]).size > 1:
        raise ValueError("member set is not monochromatic")
    indptr, indices = rows_within(g, g.colours)
    gathered = np.concatenate([indices[indptr[v]:indptr[v + 1]] for v in u])
    return np.setdiff1d(gathered, u)


def graphs_equal(a: ColouredGraph, b: ColouredGraph) -> bool:
    """Labelled equality: same order, colours and edge keys."""
    return a.n == b.n and np.array_equal(a.colours, b.colours) and np.array_equal(a.keys, b.keys)
