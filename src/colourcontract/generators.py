"""Seeded random instance generation: graphs, colourings, relabellings.

All randomness flows through numpy's PCG64 generator keyed by the caller's
seed, so identical seeds reproduce identical outputs on every platform.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .engine import ContractionMapping, apply_contraction
from .graph import _MAX_ORDER, ColouredGraph, _pair_keys, _run_starts


@dataclass(frozen=True)
class RandomSpec:
    """Parameters of one random graph: order, edge target, colour count, seed.

    Exactly one of ``m`` (edge count) and ``p`` (edge probability) must be
    given.  Integer fields are held as Python ints; a non-integer raises TypeError.
    """

    n: int
    m: int | None = None
    p: float | None = None
    colours: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "m", "colours", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(operator.index(getattr(self, name))))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.n >= _MAX_ORDER:
            raise ValueError(f"n must be below {_MAX_ORDER}")
        if (self.m is None) == (self.p is None):
            raise ValueError("exactly one of m and p must be given")
        max_pairs = self.n * (self.n - 1) // 2
        if self.m is not None and not 0 <= self.m <= max_pairs:
            raise ValueError(f"m must be in [0, {max_pairs}]")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.colours < 1:
            raise ValueError("colour count must be at least 1")
        if self.colours > 2**63:  # colours are int64, 0..colours-1
            raise ValueError(f"colour count must be at most {2**63}")
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    """Refuse a negative seed: every seed keys a PCG64 stream."""
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _rng(seed: int) -> np.random.Generator:
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _draw_keys(n: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Keys lo*n + hi of ``pairs`` uniform pairs, self-loops dropped, in draw
    order: ``graph._pair_keys`` of the draw's two columns.  The draw, the
    keys and the self-loop mask are alive at the peak: three pair-length
    columns and a bool one."""
    draw = rng.integers(0, n, size=(pairs, 2), dtype=np.int64)
    keep = draw[:, 0] != draw[:, 1]
    keys = _pair_keys(draw[:, 0], draw[:, 1], n)
    del draw
    return keys[keep]


def _first_drawn(keys: np.ndarray, n: int, m: int) -> np.ndarray | None:
    """The m >= 1 distinct keys drawn first, ascending, among ``keys``
    lo*n + hi in draw order: those whose first positions are the m
    smallest.  None when the keys hold fewer than m distinct ones.

    Every key is below n*n.  When the bits of n*n - 1 and of the last
    position fit in 64 together, each key is shifted left, its position ORed
    in, and the words sorted in place as one uint64 array: each run of equal
    keys opens with its first position, so neither an ``argsort`` nor a
    reduction is needed.  On the 575k-key head of the ER benchmark's sample
    this took 13 ms against the ``argsort`` path's 31 ms (2-core Xeon, numpy
    2.4).  Wider words take an ``argsort`` and the least position of each
    run, so the sort need not be stable.
    """
    shift = max(keys.size - 1, 0).bit_length()
    if (n * n - 1).bit_length() + shift <= 64:
        packed = keys.astype(np.uint64)
        packed <<= shift
        packed |= np.arange(keys.size, dtype=np.uint64)
        packed.sort()
        packed = packed[_run_starts(packed >> shift)]
        if packed.size < m:
            return None
        # the m-th smallest first position, from positions partitioned in
        # place and freed before the words are filtered by it, so that at
        # most three arrays of the head's length are alive
        low_bits = np.uint64((1 << shift) - 1)
        first = packed & low_bits
        first.partition(m - 1)
        last = first[m - 1]
        del first
        packed = packed[(packed & low_bits) <= last]
        # every key is below 2**62, so the shifted words view as int64
        packed >>= shift
        return packed.view(np.int64)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(_run_starts(ordered))
    if starts.size < m:
        return None
    uniq = ordered[starts]
    # each freed once read: one array of this length fewer alive at the
    # reduction, about 17 MB on the 2.2M keys of a 540k-edge sample, and two
    # fewer at the partition
    del ordered
    first = np.minimum.reduceat(order, starts)
    del order, starts
    return uniq[first <= np.partition(first, m - 1)[m - 1]]


def _sample_pairs_exact(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Keys lo*n + hi of the first m distinct unordered pairs from an endless
    stream of uniform draws, ascending.

    Rejecting repeats in draw order is uniform sampling without replacement.
    numpy fills a bounded draw one element after another from the generator
    state, so consecutive draws of k1 and k2 pairs give the pairs of one
    k1 + k2 draw: the stream, and the pairs, depend on the seed alone, not
    on how the stream is cut.

    A head of m + m//16 + 64 pairs nearly always holds m distinct ones, and
    then nothing past it is drawn.  When it falls short, as on dense or tiny
    graphs, as many pairs again as are drawn so far are appended, until the
    keys hold m distinct ones.
    """
    if m == 0:
        return np.empty(0, dtype=np.int64)
    drawn = m + m // 16 + 64  # room for the few repeats among the first m keys
    keys = _draw_keys(n, drawn, rng)
    while (first := _first_drawn(keys, n, m)) is None:
        keys = np.concatenate((keys, _draw_keys(n, drawn, rng)))
        drawn *= 2
    return first


def _sample_pairs_bernoulli(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Keys lo*n + hi of an independent coin flip per unordered pair, drawn
    row by row to bound memory: row u gives u*n + hi for its hits hi > u,
    so the keys ascend."""
    rows = [np.empty(0, dtype=np.int64)]
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - u - 1) < p)
        hits += u * n + u + 1
        rows.append(hits)
    return np.concatenate(rows)


def gen_erdos_renyi(spec: RandomSpec) -> ColouredGraph:
    """Random graph described by a RandomSpec, every vertex coloured 0.

    The m form draws exactly m distinct pairs; the p form flips one coin per
    pair.  Both samplers return their keys ascending.  Output depends only on
    the RandomSpec fields.
    """
    rng = _rng(spec.seed)
    if spec.m is not None:
        keys = _sample_pairs_exact(spec.n, spec.m, rng)
    else:
        keys = _sample_pairs_bernoulli(spec.n, float(spec.p), rng)
    return ColouredGraph(n=spec.n, colours=np.zeros(spec.n, dtype=np.int64), keys=keys)


def assign_random_colours(g: ColouredGraph, colours: int, seed: int) -> ColouredGraph:
    """Same structure, colours redrawn uniformly from 0..colours-1 (TypeError
    for a non-integer count)."""
    if operator.index(colours) < 1:
        raise ValueError("colour count must be at least 1")
    drawn = _rng(seed).integers(0, colours, size=g.n, dtype=np.int64)
    return ColouredGraph(n=g.n, colours=drawn, keys=g.keys)


def permute_enumeration(g: ColouredGraph, seed: int) -> tuple[ColouredGraph, np.ndarray]:
    """Relabel vertices by a uniform random permutation: the quotient of g by
    the bijection, ``apply_contraction`` of a mapping onto all n vertices,
    so colours keep their dtype and travel with their vertices.

    Returns the relabelled graph and the permutation with perm[old] = new, so
    partitions over the new labels can be pulled back to the original ones.
    """
    perm = _rng(seed).permutation(g.n).astype(np.int64)
    return apply_contraction(g, ContractionMapping(g.n, g.n, perm)), perm
