import dataclasses
import re

import numpy as np
import pytest

from colourcontract import ContractionMapping, ContractionTrace, evaluate_contraction_mapping, graphs_equal, new_graph
from reference_impls import replay

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


def tampered_inputs(g, final, trace, partition, rng):
    """(name, final, trace, partition) variants of a run, for the equivalence
    check.

    One untouched copy, then one tampering each where the graph allows it: the
    targets renumbered (still the same partition), a target out of range, a
    vertex moved to another block, two blocks merged, an unused target, a
    wrong ``total_map``, a wrong last-round mapping with ``total_map``
    recomputed to match it, and a wrong final graph (one edge dropped, or one
    vertex recoloured when it has no edge).  Only the last replaces ``final``.
    A target out of range and an unused target cannot be built: for those two
    the partition is the ValueError construction raised, its message checked.
    """
    n, k, becomes = partition.n, partition.n_prime, partition.becomes

    def part(targets, n_prime=k):
        return ContractionMapping(n=n, n_prime=n_prime, becomes=targets)

    def refused(targets, n_prime, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            part(targets, n_prime)
        return info.value

    def with_maps(records, total):
        return ContractionTrace(per_iteration=tuple(records), total_map=total)

    out = [("untouched", final, trace, partition)]
    out.append(("renumbered targets", final, trace, part(rng.permutation(k)[becomes])))
    if n:
        bad = becomes.copy()
        bad[int(rng.integers(n))] = k if rng.random() < 0.5 else n
        out.append(("target out of range", final, trace, refused(bad, k, f"mapping of order {n} needs {n} integer targets in [0, {k})")))
    if k >= 2:
        i, j = (int(x) for x in rng.choice(k, size=2, replace=False))
        members = np.flatnonzero(becomes == i)
        if members.size >= 2:
            moved = becomes.copy()
            moved[members[-1]] = j
            out.append(("vertex moved", final, trace, part(moved)))
        merged = np.where(becomes == j, i, becomes)
        merged -= merged > j
        out.append(("two blocks merged", final, trace, part(merged, k - 1)))
    at = int(rng.integers(k + 1))
    unused = "mapping cannot increase the order" if k == n else f"target {at} has no member"
    out.append(("unused target", final, trace, refused(becomes + (becomes >= at), k + 1, unused)))
    if n:
        total = trace.total_map.copy()
        v = int(rng.integers(n))
        total[v] = (total[v] + 1) % (int(total.max()) + 2)
        out.append(("wrong total_map", final, with_maps(trace.per_iteration, total), partition))
    if trace.iterations:
        last = trace.per_iteration[-1]
        targets = last.mapping.becomes.copy()
        if last.mapping.n_prime >= 2:
            # fold the last target into a random other one
            targets[targets == last.mapping.n_prime - 1] = int(rng.integers(last.mapping.n_prime - 1))
        else:
            targets[int(rng.integers(targets.size))] = 1
        mapping = ContractionMapping(n=last.mapping.n, n_prime=int(targets.max()) + 1, becomes=targets)
        records = trace.per_iteration[:-1] + (dataclasses.replace(last, mapping=mapping),)
        total = np.arange(n, dtype=np.int64)
        for r in records:
            total = r.mapping.becomes[total]
        out.append(("wrong mapping", final, with_maps(records, total), partition))
    if final.n:
        edges, colours = final.edge_array(), final.colours.copy()
        if final.m:
            edges = np.delete(edges, int(rng.integers(final.m)), axis=0)
        else:
            colours[int(rng.integers(final.n))] += 1
        out.append(("wrong final", new_graph(final.n, edges, colours), trace, partition))
    return out


def check_whole_edge_rounds(g, final, trace):
    """A run of ``contract_to_fixpoint(g)``, whose rounds read only the
    same-colour edges, against rounds over every edge (``replay``'s graphs):
    round k's targets are what evaluating replay's k-th graph gives, its
    ``m`` counts that graph's same-colour edges, replay's last graph is at
    the fixpoint, and ``final`` equals it."""
    graphs = replay(g, trace)
    for k, record in enumerate(trace.per_iteration):
        whole = graphs[k]
        assert np.array_equal(record.mapping.becomes, evaluate_contraction_mapping(whole).becomes), f"round {k + 1}"
        lo, hi = whole.endpoints()
        assert record.m == int((whole.colours[lo] == whole.colours[hi]).sum()), f"round {k + 1}"
    assert evaluate_contraction_mapping(graphs[-1]).is_trivial
    assert graphs_equal(final, graphs[-1])
