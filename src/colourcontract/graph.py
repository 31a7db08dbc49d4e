"""Vertex-coloured simple undirected graphs over contiguous integer indices."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# the adjacency keys lo*n + hi stay inside int64 for every n below this
_MAX_ORDER = 2**31
# the passes over every edge key (the colour split, a round's pointers,
# relabel_keys and the graph's lo < hi check) take this many keys at a time,
# so that their per-key temporaries, up to five arrays of a block, stay in
# cache and are bounded by the block and not by the graph.  On the ER
# benchmark input the finish's relabel of its 541k keys onto 241 labels took
# 3.8 ms in blocks of 2**15 against 6.1 ms over 406k compressed keys in one
# pass (numpy 2.4)
_KEY_BLOCK = 1 << 15


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


def _key_slices(m: int) -> Iterator[slice]:
    """Slices of ``_KEY_BLOCK`` keys after one another, covering m keys."""
    return (slice(start, start + _KEY_BLOCK) for start in range(0, m, _KEY_BLOCK))


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
    # the remainder written over the arcs: on the 269k same-colour arcs of
    # the ER benchmark input about 0.5 ms in all, against 0.9 ms for divmod
    # (numpy 2.4)
    row = arcs // max(n, 1)
    arcs -= row * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, arcs


def rows_within(g: ColouredGraph, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency rows of g's edges whose two ends share a label, one value
    per vertex (g's colours, or a mapping's targets): the graph whose
    connected components are the connected pieces of the label classes."""
    # np.compress, not a boolean index: about 3x faster at middling densities
    # on numpy 2.4 (3.8 -> 1.0 ms keeping a quarter of 541k keys)
    return rows_of(g.n, np.compress(_same_label(g.n, g.keys, label), g.keys))


def _same_label(n: int, keys: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Mask of the edges with keys ``lo * n + hi`` whose two ends share a
    label, one value per vertex: built one block of keys at a time, so the
    mask is the only key-length array it allocates."""
    label = _byte_labels(label)
    same = np.empty(keys.size, dtype=bool)
    for at in _key_slices(keys.size):
        lo, hi = _endpoints(n, keys[at])
        np.equal(label[lo], label[hi], out=same[at])
    return same


def _byte_labels(label: np.ndarray) -> np.ndarray:
    """``label`` as a uint8 copy when every value is below 256, otherwise
    as it is: for comparing the labels of an edge's two ends, whose random
    gathers then move an eighth of the bytes (on the ER benchmark input's
    colours 1.41 -> 0.86 ms per compare, numpy 2.4).  Labels are
    non-negative, so uint64 ids at or above 2**63 keep their dtype."""
    if label.size and int(label.max()) < 256:
        return label.astype(np.uint8)
    return label


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
    for at in _key_slices(keys.size):
        block = keys[at]
        diagonal = block // max(g.n, 1)
        diagonal *= g.n + 1
        if (block <= diagonal).any():
            raise ValueError("self-loops are not allowed" if (block == diagonal).any() else "edge keys must have lo < hi")
    return keys


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of int64 keys that the caller owns, as
    ``np.unique`` gives them; keys out of order are sorted in place.

    Keys that already strictly ascend, as those of canonical text do, are
    returned as they are after one comparison pass.  A contraction round's
    keys descend within their first few values, so a 16-value head is
    compared first and only ascending input pays for the whole pass.
    """
    head = keys[:16]
    if (head[1:] > head[:-1]).all() and (keys[1:] > keys[:-1]).all():
        return keys
    keys.sort()
    # a boolean index, not np.compress: with no repeats, as in fib keys,
    # 0.33 against 0.38 ms on 46k keys (numpy 2.4)
    return keys[_run_starts(keys)]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first entry of every run of equal values."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64, refusing rather than truncating a non-integer:
    arrays by dtype kind, other sequences through ``operator.index``.  A
    sequence holding a value at or above 2**63 gives uint64 when every value
    is in [0, 2**64); any other value no 64-bit integer holds raises
    ``OverflowError``."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
        return values.astype(np.int64, copy=False)
    try:
        ints = [operator.index(x) for x in values]
    except TypeError:
        raise ValueError(f"{what} must be integers") from None
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=np.uint64)


def _pair_keys(a: np.ndarray, b: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Keys ``min * k + max`` of the pairs (a[i], b[i]), in pair order,
    written into ``out`` when it is given: ``min * (k - 1) + a + b``, with no
    temporary for the maxima."""
    keys = np.minimum(a, b, out=out)
    keys *= k - 1
    keys += a
    keys += b
    return keys


def relabel_keys(n: int, keys: np.ndarray, label: np.ndarray, k: int) -> np.ndarray:
    """Sorted distinct keys ``min * k + max`` of the edges with the given
    keys ``lo * n + hi`` (a graph's keys or any subset of them) taken through
    ``label``, one integer in 0..k-1 per vertex (the graph built from the
    keys checks them): the edge set of the quotient by the labelling.  Edges
    inside one label vanish; parallel ones collapse.

    The keys are read one block of ``_KEY_BLOCK`` at a time.  Onto few
    labels, ``k * k <= 2 * m`` (the keys' own count), every pair ``a * k + b``
    is marked in a (k, k) bitmap of at most 2 bytes per key, folded onto its
    upper triangle: edges inside one label fall on the diagonal and are
    dropped there, so no crossing mask, copy, min, max or sort is needed.
    Onto more labels, each block's crossing pairs write their keys into one
    array, which is sorted in place: at its peak that array, its run mask
    and the distinct keys.
    """
    label = label.astype(np.int64, copy=False)
    if k * k <= 2 * keys.size:
        seen = np.zeros((k, k), dtype=bool)
        marks = seen.reshape(-1)
        for at in _key_slices(keys.size):
            lo, hi = _endpoints(n, keys[at])
            a = label[lo]
            a *= k
            a += label[hi]
            marks[a] = True
        seen |= seen.T
        return np.flatnonzero(np.triu(seen, 1))
    quotient_keys = np.empty(keys.size, dtype=np.int64)
    end = 0
    for at in _key_slices(keys.size):
        lo, hi = _endpoints(n, keys[at])
        # each array freed as soon as it is used: holding the ends and both
        # gathers at once cost fresh heap pages on the worst-case family,
        # whose rounds are one or two blocks (level 22's second round, run
        # between other work: 0.61 -> 0.42 ms, numpy 2.4)
        a = label[lo]
        del lo
        b = label[hi]
        del hi
        crossing = a != b
        # np.compress, about 3x faster than a boolean index at middling
        # densities on numpy 2.4, and no copy when every edge crosses
        if not crossing.all():
            a = np.compress(crossing, a)
            b = np.compress(crossing, b)
        del crossing
        _pair_keys(a, b, k, out=quotient_keys[end:end + a.size])
        end += a.size
    return _sorted_unique(quotient_keys[:end])


def new_graph(n: int, edges: Iterable[Sequence[int]] | np.ndarray, colours: Sequence[int] | np.ndarray) -> ColouredGraph:
    """Build a validated graph from an unordered edge list.

    Edges may arrive in any order and orientation; duplicates collapse to a
    single edge.  An edge array must have shape (m, 2), or hold nothing.
    Self-loops, out-of-range endpoints, negative colours and endpoints or
    colours that are not integers are rejected.  A colour array of any
    integer dtype is kept in that dtype; a sequence of colour ids is held as
    int64, or as uint64 when an id is at or above 2**63, and an id at or
    above 2**64 is rejected.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # the graph checks the colours again, but n sizes arrays before it does.
    # An integer array keeps its dtype: uint64 ids at or above 2**63 are valid
    if isinstance(colours, np.ndarray) and colours.dtype.kind in "iu":
        col = colours
    else:
        try:
            col = _integers(colours, "colour ids")
        except OverflowError:
            raise ValueError("colour ids must be non-negative and below 2**64") from None
    if col.ndim != 1 or col.size != n:
        raise ValueError(f"expected colours of shape ({n},), got {col.shape}")

    if isinstance(edges, np.ndarray):
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edge array must have shape (m, 2), got {edges.shape}")
    else:
        edges = [x for u, v in edges for x in (u, v)]
    try:
        pairs = _integers(edges, "edge endpoints").reshape(-1, 2)
    except OverflowError:
        # no 64-bit integer holds some endpoint, so the list is flat: name
        # its first pair with an end outside 0..n-1, as the check below does
        at = next(i for i, x in enumerate(edges) if not 0 <= operator.index(x) < n) & ~1
        raise ValueError(f"edge endpoint out of range: ({edges[at]}, {edges[at + 1]})") from None

    if pairs.size and (int(pairs.min()) < 0 or int(pairs.max()) >= n):
        bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
        raise ValueError(f"edge endpoint out of range: ({bad[0]}, {bad[1]})")
    u, v = pairs[:, 0], pairs[:, 1]
    loops = u == v
    if loops.any():
        raise ValueError(f"self-loop at vertex {int(u[loops][0])}")
    return ColouredGraph(n=n, colours=col, keys=_sorted_unique(_pair_keys(u, v, n)))


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
