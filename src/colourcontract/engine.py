"""Iterative colour-contraction engine.

Each iteration builds a vertex-to-cluster mapping from purely local
information (every vertex points at the minimum of itself and its same-colour
neighbours), applies it as a simultaneous quotient, and repeats until no edge
joins two vertices of the same colour.  The iteration count is bounded by
``iteration_bound(n)``, the floor of the base-golden-ratio logarithm of the
order, and that bound is attained by the adversarial family in ``worstcase``.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import ColouredGraph, _endpoints, _grow, _integers, _key_slices, _same_label, graphs_equal, relabel_keys, rows_within


def iteration_bound(n: int) -> int:
    """Floor of log base phi of n, phi the golden ratio, for n >= 1.

    Uses exact integer arithmetic: phi**k = F(k)*phi + F(k-1) with F the
    Fibonacci numbers, so phi**k <= n reduces to a sign check plus one
    squared comparison.  No float rounding near the Fibonacci boundaries.
    """
    if n < 1:
        raise ValueError("iteration_bound requires n >= 1")
    k = 1
    f_k, f_km1 = 1, 0  # F(k), F(k-1)
    while True:
        # phi**k <= n  iff  sqrt(5)*F(k) <= 2*(n - F(k-1)) - F(k)
        t = 2 * (n - f_km1) - f_k
        if t < 0 or 5 * f_k * f_k > t * t:
            return k - 1
        k += 1
        f_k, f_km1 = f_k + f_km1, f_k


@dataclass(frozen=True)
class ContractionMapping:
    """Vertex-to-cluster map held as one flat target array: the mapping of
    one contraction round, or the oracle's partition into colour components
    (``oracle.colour_partition``).

    ``becomes[v]`` is the target, in ``0..n_prime-1``, of source vertex
    ``v``; the fibre of target ``t`` is every vertex that becomes ``t``, and
    its smallest member is its representative.  Targets are numbered by
    ascending representative.  ``cluster_sizes``, ``representatives``,
    ``fibre_minima`` and ``fibres`` are derived from ``becomes`` on each
    access, for checks and tests; the contraction path reads ``becomes`` alone.

    Construction checks that the map is onto: ``n`` and ``n_prime`` are
    integers with ``0 <= n_prime <= n``, ``becomes`` is an integer array of
    shape ``(n,)`` with every target in ``0..n_prime-1``, and every target
    has a member.  It raises ValueError otherwise (TypeError for orders that
    are not integers), so no malformed mapping exists to be checked later.
    ``becomes`` is stored as a read-only int64 array.
    """

    n: int
    n_prime: int
    becomes: np.ndarray

    def __post_init__(self) -> None:
        n, k = operator.index(self.n), operator.index(self.n_prime)
        if k > n:
            raise ValueError("mapping cannot increase the order")
        becomes = np.asarray(self.becomes)
        integral = becomes.shape == (n,) and becomes.dtype.kind in "iu"
        if not integral or k < 0 or (n and (int(becomes.min()) < 0 or int(becomes.max()) >= k)):
            raise ValueError(f"mapping of order {n} needs {n} integer targets in [0, {k})")
        # in range, so the cast loses nothing, even from uint64
        becomes = becomes.astype(np.int64, copy=False)
        empty = np.flatnonzero(np.bincount(becomes, minlength=k) == 0)
        if empty.size:
            raise ValueError(f"target {int(empty[0])} has no member")
        becomes.setflags(write=False)
        object.__setattr__(self, "becomes", becomes)

    @property
    def is_trivial(self) -> bool:
        return self.n_prime == self.n

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.becomes, minlength=self.n_prime)

    @property
    def representatives(self) -> np.ndarray:
        """Smallest member of each fibre."""
        reps = np.full(self.n_prime, self.n, dtype=np.int64)
        np.minimum.at(reps, self.becomes, np.arange(self.n, dtype=np.int64))
        return reps

    @property
    def fibre_minima(self) -> np.ndarray:
        """Every vertex's smallest fibre-mate: equal for two mappings exactly
        when they have the same fibres, whatever the target numbering."""
        return self.representatives[self.becomes]

    @property
    def fibres(self) -> tuple[np.ndarray, ...]:
        """Members of each fibre, ascending: the runs of a stable sort by target."""
        order = np.argsort(self.becomes, kind="stable")
        return tuple(np.split(order, np.cumsum(self.cluster_sizes)[:-1])) if self.n_prime else ()

    def validate(self, g: ColouredGraph) -> None:
        """Check the invariants that need the source graph.

        Target range and members were checked when the mapping was built.
        This adds the checks run on every application (the graph's order and
        monochromatic fibres), the numbering of targets by ascending
        representative and the connectivity of every fibre.  Raises
        ValueError on the first violation.
        """
        _check_mapping_structure(g, self)
        reps = self.representatives
        if (np.diff(reps) <= 0).any():
            raise ValueError("fibres are not ordered by ascending representative")
        # over the edges inside one fibre, g's components are the connected
        # pieces of the fibres; grown from every representative at once, they
        # cover g exactly when every fibre is connected
        indptr, indices = rows_within(g, self.becomes)
        covered = np.zeros(g.n, dtype=bool)
        _grow(indptr, indices, reps, covered, np.empty(g.n, dtype=np.int64))
        if not covered.all():
            t = int(self.becomes[~covered].min())
            raise ValueError(f"fibre {t} does not induce a connected subgraph")


@dataclass(frozen=True)
class IterationRecord:
    """One executed contraction: edge count before, mapping, wall time.

    ``m`` counts the same-colour edges the round read: the edges of the
    graph before the round that join two vertices of one colour.  The
    cross-colour edges take no part in a round (see ``contract_to_fixpoint``),
    so they are not counted; on a one-colour input the two counts agree.
    ``wall_time_ms`` of round 1 includes the split of the input's edges by
    colour.
    """

    m: int
    mapping: ContractionMapping
    wall_time_ms: float

    @property
    def n(self) -> int:
        return self.mapping.n

    @property
    def n_prime(self) -> int:
        return self.mapping.n_prime


@dataclass(frozen=True)
class ContractionTrace:
    """Record of a full run: one entry per executed application, ``iterations`` in all.

    ``total_map`` sends every original vertex to its final vertex.
    ``finish_wall_time_ms`` is the time after the last application: the
    composition of ``total_map`` and the relabelling of the input's edges
    into the final graph (with no application, the split of the edges by
    colour too).  No evaluation is needed to find the fixpoint: the
    rounds stop when the same-colour graph has no edge.  The rounds and the
    finish together cover the whole ``contract_to_fixpoint`` call.
    """

    per_iteration: tuple[IterationRecord, ...]
    total_map: np.ndarray
    finish_wall_time_ms: float = 0.0

    def __post_init__(self) -> None:
        self.total_map.setflags(write=False)

    @property
    def iterations(self) -> int:
        return len(self.per_iteration)


def build_functional_digraph(g: ColouredGraph) -> np.ndarray:
    """Parent pointers b with b[v] = min of v and its same-colour neighbours.

    b[v] <= v always holds, so the pointer graph is a forest of monochromatic
    trees whose roots are exactly the tree minima.  Only a lower neighbour can
    win, so each same-colour edge offers its lower end to its upper one.
    """
    b = np.arange(g.n, dtype=np.int64)
    # one block of keys at a time (graph._KEY_BLOCK): the whole-array ends
    # and colour gathers of round 1 set contract_to_fixpoint's traced peak
    # at 10**6 vertices, 1.36 against 0.80 times the input's key bytes
    for at in _key_slices(g.m):
        lo, hi = _endpoints(g.n, g.keys[at])
        same = g.colours[lo] == g.colours[hi]
        # contract_to_fixpoint hands its rounds only same-colour edges, so
        # there nothing is filtered; only a whole graph, as the worst-case
        # checks and the tests evaluate, has edges to drop.  Positions rather
        # than a mask: where about a quarter of 540k edges join one colour, a
        # boolean compress took ~4 ms per array, the positions and two
        # gathers ~2 ms in all
        if not same.all():
            same = np.flatnonzero(same)
            lo, hi = lo[same], hi[same]
        np.minimum.at(b, hi, lo)
    return b


def project_to_roots(parents: np.ndarray) -> np.ndarray:
    """Collapse parent pointers to their tree roots by pointer jumping.

    Requires parents[v] <= v, so every chain ends at a fixed point.  Each
    whole-array pass replaces every pointer by its grandparent (the shortcut
    step of Shiloach and Vishkin, 1982), halving every unfinished path, so a
    forest of depth d settles after about log2(d) + 1 passes.  No pass
    depends on the order in which vertices are visited.
    """
    b = _integers(parents, "parent pointers")
    n = b.size
    if n:
        if int(b.min()) < 0:
            raise ValueError("parent index negative")
        if (b > np.arange(n, dtype=np.int64)).any():
            raise ValueError("parent pointers must not increase")
    while True:
        jumped = b[b]
        if np.array_equal(jumped, b):
            return jumped
        b = jumped


def compact_mapping(g: ColouredGraph, roots: np.ndarray) -> ContractionMapping:
    """Renumber root-projected parents to contiguous targets 0..n'-1.

    Roots are numbered in index order, so target indices ascend with the
    cluster representatives.
    """
    r = _integers(roots, "roots")
    if r.size != g.n:
        raise ValueError("root array length must equal graph order")
    if r.size:
        if int(r.min()) < 0 or int(r.max()) >= g.n:
            raise ValueError("root index out of range")
        if not (r[r] == r).all():
            raise ValueError("roots are not projected (roots[roots[v]] != roots[v])")
    is_root = r == np.arange(r.size, dtype=np.int64)
    return ContractionMapping(n=g.n, n_prime=int(is_root.sum()), becomes=(np.cumsum(is_root) - 1)[r])


def evaluate_contraction_mapping(g: ColouredGraph) -> ContractionMapping:
    """Full mapping construction: local minima, root projection, compaction."""
    return compact_mapping(g, project_to_roots(build_functional_digraph(g)))


def _check_mapping_structure(g: ColouredGraph, mapping: ContractionMapping) -> np.ndarray:
    """O(n) checks run on every application: the graph's order and
    monochromatic fibres (target range and members were checked when the
    mapping was built).  Returns every target's colour, scattered from
    ``g.colours`` through ``becomes``."""
    if mapping.n != g.n:
        raise ValueError("mapping was built for a different graph order")
    # every target has a member, so the scatter writes every entry; g's own
    # dtype, so that uint64 ids at or above 2**63 survive and a quotient
    # keeps its input's colour dtype
    colours = np.empty(mapping.n_prime, dtype=g.colours.dtype)
    colours[mapping.becomes] = g.colours
    if not np.array_equal(colours[mapping.becomes], g.colours):
        raise ValueError("some fibre is not monochromatic")
    return colours


def apply_contraction(g: ColouredGraph, mapping: ContractionMapping) -> ColouredGraph:
    """Quotient of g by the mapping: one vertex per fibre.

    Edges are relabelled through ``becomes``; duplicates collapse and
    self-edges vanish.  Each new vertex takes the colour its fibre shares.
    The result is validated before it is returned.
    """
    colours = _check_mapping_structure(g, mapping)
    k = mapping.n_prime
    return ColouredGraph(n=k, colours=colours, keys=relabel_keys(g.n, g.keys, mapping.becomes, k))


def _compose(n0: int, mappings: Iterable[ContractionMapping]) -> np.ndarray:
    """Every vertex of order n0 taken through the chain of mappings, which
    must run from order n0, each from the order its predecessor reaches.

    Composed from the last mapping back, so each gather is as long as its
    mapping's source: about 2.6 n0 values in all on the worst-case family,
    whose orders shrink by the golden ratio, not n0 per round (level 22:
    0.96 -> 0.12 ms)."""
    mappings = list(mappings)
    width = n0
    for mapping in mappings:
        if mapping.n != width:
            raise ValueError(f"mapping chain mismatch: expected source order {width}, got {mapping.n}")
        width = mapping.n_prime
    total = np.arange(width, dtype=np.int64)
    for mapping in reversed(mappings):
        total = total[mapping.becomes]
    return total


def contract_to_fixpoint(g: ColouredGraph) -> tuple[ColouredGraph, ContractionTrace]:
    """Iterate evaluation and application until no same-colour edge is left.

    A round reads only the edges inside one colour: a vertex's pointer
    depends on its same-colour neighbours alone, and every fibre is
    monochromatic, so an edge between two colours joins two colours in every
    quotient and never changes a mapping.  The rounds therefore run on the
    same-colour subgraph of g, split off once, and g's edges are taken
    through the composed map once, at the end, where each same-colour edge
    falls inside one fibre and vanishes: the final graph is the quotient of g
    by ``total_map``, exactly as rounds over every edge give it.

    Returns the fully contracted graph plus a trace with one record per
    executed application.  An input already at the fixpoint (including the
    empty and one-vertex graphs) is returned itself with zero iterations.
    More than ``iteration_bound(n) + 2`` applications raise RuntimeError,
    because the convergence guarantee would be broken.
    """
    n0 = g.n
    max_iterations = iteration_bound(n0) + 2 if n0 >= 1 else 0
    records: list[IterationRecord] = []
    t0 = time.perf_counter()
    same = _same_label(n0, g.keys, g.colours)
    crossing = not same.all()
    # np.compress, not a boolean index: with a quarter of 541k edges kept,
    # 3.8 -> 1.0 ms for this copy, numpy 2.4; a one-colour input is handed
    # over uncopied
    current = ColouredGraph(n=n0, colours=g.colours, keys=np.compress(same, g.keys)) if crossing else g
    del same
    # every edge of current joins one colour and points its upper end at its
    # lower one, so the mapping is trivial exactly when no edge is left
    while current.m:
        if len(records) >= max_iterations:
            raise RuntimeError(
                f"no fixpoint after {max_iterations} iterations at order {current.n}; "
                "the convergence guarantee is broken"
            )
        mapping = evaluate_contraction_mapping(current)
        contracted = apply_contraction(current, mapping)
        t1 = time.perf_counter()
        records.append(IterationRecord(m=current.m, mapping=mapping, wall_time_ms=(t1 - t0) * 1000.0))
        current, t0 = contracted, t1
    total = _compose(n0, [r.mapping for r in records])
    final = g
    if records:
        # the final graph is the quotient of all of g's edges by total_map:
        # every same-colour edge lies inside one final fibre, so the
        # relabelling drops it, and with no edge between two colours there
        # is nothing to relabel
        k = current.n
        final = ColouredGraph(n=k, colours=current.colours, keys=relabel_keys(n0, g.keys if crossing else g.keys[:0], total, k))
    trace = ContractionTrace(
        per_iteration=tuple(records),
        total_map=total,
        finish_wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return final, trace


def equivalent_contractions(g: ColouredGraph, final: ColouredGraph, trace: ContractionTrace, partition: ContractionMapping) -> bool:
    """True when the trace and final graph of ``contract_to_fixpoint(g)``
    realise exactly the partition's contraction of g.

    The partition maps every vertex to its block, such as
    ``oracle.colour_partition`` returns, in any block numbering.  Every
    round and the partition were checked onto their targets when they were
    built, so what is left to get wrong returns False.  Checks, in order: the
    rounds chain from order n and compose to ``trace.total_map``; its fibres
    are the partition's blocks, compared by smallest member; and ``final``,
    read as given, equals the quotient of g by those fibres, which refuses a
    fibre of two colours.
    """
    n = g.n
    mappings = [r.mapping for r in trace.per_iteration]
    try:
        total = _compose(n, mappings)
    except ValueError:
        return False
    if not np.array_equal(total, trace.total_map):
        return False
    # every round is onto its targets, so total is onto the last round's
    fibres = ContractionMapping(n, mappings[-1].n_prime if mappings else n, total)
    if not np.array_equal(fibres.fibre_minima, partition.fibre_minima):
        return False
    try:
        return graphs_equal(final, apply_contraction(g, fibres))
    except ValueError:  # a fibre of two colours
        return False
