import dataclasses

import numpy as np
import pytest

from colourcontract import ColourPartition, ContractionMapping, ContractionTrace, new_graph

# path on four vertices taking two iterations: 0-2-3-1 in one colour
P4_EDGES = [(0, 2), (1, 3), (2, 3)]

# 24-vertex, three-colour instance that contracts in a single iteration
FIG24_EDGES = [
    (0, 1), (0, 6), (1, 2), (2, 3), (2, 12), (3, 4), (3, 15), (4, 16), (4, 18),
    (5, 21), (5, 22), (6, 7), (6, 23), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
    (13, 14), (14, 15), (16, 17), (17, 18), (18, 19), (19, 20), (20, 21), (21, 22),
    (22, 23),
]
FIG24_COLOURS = [2, 2, 2, 1, 2, 1, 2, 3, 3, 3, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 1, 2]
FIG24_EXPECTED = {
    "fibres": [[0, 1, 2, 6, 23], [3], [4, 16, 17, 18], [5, 22], [7, 8, 9],
               [10, 11, 12], [13, 14, 15], [19, 20, 21]],
    "final_n": 8,
    "final_m": 9,
    "final_colours": [2, 1, 2, 1, 3, 1, 2, 3],
    "final_edges": [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (2, 7), (3, 7), (4, 5)],
    "iterations": 1,
}


@pytest.fixture
def p4():
    return new_graph(4, P4_EDGES, [0, 0, 0, 0])


@pytest.fixture
def fig24():
    return new_graph(24, FIG24_EDGES, FIG24_COLOURS)


@pytest.fixture
def triangle_two_colours():
    return new_graph(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 1])


def tampered_inputs(g, trace, partition, rng):
    """(name, trace, partition) variants of a run, for the equivalence check.

    One untouched copy, then one tampering each where the graph allows it: the
    blocks in shuffled order (still the same partition), a vertex missing, an
    id out of range, a wrong colour, a vertex in two blocks, a vertex listed
    twice in place of another, a vertex moved to another block, two blocks
    merged, an empty block, a wrong ``total_map``, and a wrong last-round
    mapping with ``total_map`` recomputed to match it.
    """
    blocks = [b.copy() for b in partition.blocks]
    colours = partition.block_colour.copy()
    nb, n = len(blocks), g.n

    def part(replacements, cs=colours):
        bs = [replacements.get(x, b) for x, b in enumerate(blocks)]
        return ColourPartition(blocks=tuple(bs), block_colour=cs)

    def with_maps(records, total):
        return ContractionTrace(per_iteration=tuple(records), total_map=total)

    out = [("untouched", trace, part({}))]
    shuffle = rng.permutation(nb)
    shuffled = ColourPartition(blocks=tuple(blocks[j] for j in shuffle), block_colour=colours[shuffle])
    out.append(("shuffled blocks", trace, shuffled))
    if nb:
        j = int(rng.integers(nb))
        out.append(("vertex missing", trace, part({j: blocks[j][1:]})))
        bad = blocks[j].copy()
        bad[int(rng.integers(bad.size))] = n if rng.random() < 0.5 else -1
        out.append(("id out of range", trace, part({j: bad})))
        wrong = colours.copy()
        wrong[j] += 1
        out.append(("wrong colour", trace, part({}, wrong)))
    if nb >= 2:
        i, j = (int(x) for x in rng.choice(nb, size=2, replace=False))
        v = blocks[i][-1]
        out.append(("vertex in two blocks", trace, part({j: np.append(blocks[j], v)})))
        out.append(("vertex listed twice, another missing", trace, part({j: np.append(blocks[j][1:], v)})))
        if blocks[i].size >= 2:
            out.append(("vertex moved", trace, part({i: blocks[i][:-1], j: np.append(blocks[j], v)})))
        merged = part({i: np.concatenate([blocks[i], blocks[j]])})
        out.append((
            "two blocks merged", trace,
            ColourPartition(blocks=merged.blocks[:j] + merged.blocks[j + 1:], block_colour=np.delete(colours, j)),
        ))
    at = int(rng.integers(nb + 1))
    with_empty = blocks[:at] + [np.empty(0, dtype=np.int64)] + blocks[at:]
    out.append(("empty block", trace, ColourPartition(blocks=tuple(with_empty), block_colour=np.insert(colours, at, 0))))
    if n:
        total = trace.total_map.copy()
        v = int(rng.integers(n))
        total[v] = (total[v] + 1) % (int(total.max()) + 2)
        out.append(("wrong total_map", with_maps(trace.per_iteration, total), part({})))
    if trace.iterations:
        last = trace.per_iteration[-1]
        becomes = last.mapping.becomes.copy()
        if last.mapping.n_prime >= 2:
            # fold the last target into a random other one
            becomes[becomes == last.mapping.n_prime - 1] = int(rng.integers(last.mapping.n_prime - 1))
        else:
            becomes[int(rng.integers(becomes.size))] = 1
        mapping = ContractionMapping(n=last.mapping.n, n_prime=int(becomes.max()) + 1, becomes=becomes)
        records = trace.per_iteration[:-1] + (dataclasses.replace(last, mapping=mapping),)
        total = np.arange(n, dtype=np.int64)
        for r in records:
            total = r.mapping.becomes[total]
        out.append(("wrong mapping", with_maps(records, total), part({})))
    return out
