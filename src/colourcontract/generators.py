"""Seeded random instance generation: graphs, colourings, relabellings.

All randomness flows through numpy's PCG64 generator keyed by the caller's
seed, so identical seeds reproduce identical outputs on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _MAX_ORDER, ColouredGraph, _sorted_unique, relabel_keys


@dataclass(frozen=True)
class RandomSpec:
    """Parameters of one random graph: order, edge target, colour count, seed.

    Exactly one of ``m`` (edge count) and ``p`` (edge probability) must be
    given.
    """

    n: int
    m: int | None = None
    p: float | None = None
    colours: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
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
    order."""
    draw = rng.integers(0, n, size=(pairs, 2), dtype=np.int64)
    lo = np.minimum(draw[:, 0], draw[:, 1])
    # the maxima over the draw's own column: three pair-length columns alive
    # at the peak
    hi = np.maximum(draw[:, 0], draw[:, 1], out=draw[:, 1])
    keep = lo != hi
    # built over lo: no batch-length temporary outlives this call
    lo *= n
    lo += hi
    del hi, draw
    return lo[keep]


def _first_m(uniq: np.ndarray, first_pos: np.ndarray, m: int) -> np.ndarray:
    """The m keys of ``uniq`` drawn first, still ascending: the keys whose
    first positions are the m smallest, which are distinct."""
    return uniq[first_pos <= np.partition(first_pos, m - 1)[m - 1]]


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
    while True:
        uniq, first_pos = _sorted_unique(keys, return_index=True)
        if uniq.size >= m:
            return _first_m(uniq, first_pos, m)
        del uniq, first_pos
        keys = np.concatenate((keys, _draw_keys(n, drawn, rng)))
        drawn *= 2


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
    """Same structure, colours redrawn uniformly from 0..colours-1."""
    if colours < 1:
        raise ValueError("colour count must be at least 1")
    drawn = _rng(seed).integers(0, colours, size=g.n, dtype=np.int64)
    return ColouredGraph(n=g.n, colours=drawn, keys=g.keys)


def permute_enumeration(g: ColouredGraph, seed: int) -> tuple[ColouredGraph, np.ndarray]:
    """Relabel vertices by a uniform random permutation.

    Returns the relabelled graph and the permutation with perm[old] = new, so
    partitions over the new labels can be pulled back to the original ones.
    """
    perm = _rng(seed).permutation(g.n).astype(np.int64)
    colours = np.empty_like(g.colours)
    colours[perm] = g.colours
    return ColouredGraph(n=g.n, colours=colours, keys=relabel_keys(g.n, g.keys, perm, g.n)), perm
