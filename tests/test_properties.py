"""Property-based checks of the structural guarantees, driven by hypothesis."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colourcontract import (
    ColouredGraph,
    ContractionMapping,
    apply_contraction,
    colour_partition,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    graphs_equal,
    iteration_bound,
    new_graph,
    parse_graph,
    permute_enumeration,
    serialize_graph,
)
from colourcontract import graph
from colourcontract.engine import build_functional_digraph, compact_mapping, project_to_roots
from colourcontract.graph import colour_neighbourhood_set, relabel_keys, rows_of, rows_within, same_colour_part
from conftest import check_whole_edge_rounds, tampered_inputs
from reference_impls import (
    adjacency,
    contract_by_relabel,
    equivalent_by_sets,
    ordered_unionfind_blocks,
    relabel_form,
    replay,
    scipy_blocks,
    validate_by_rows,
)


@st.composite
def coloured_graphs(draw, max_n=18, max_colours=4):
    n = draw(st.integers(min_value=0, max_value=max_n))
    colour_count = draw(st.integers(min_value=1, max_value=max_colours))
    colours = draw(st.lists(st.integers(0, colour_count - 1), min_size=n, max_size=n))
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=3 * n))
    else:
        edges = []
    return new_graph(n, edges, colours)


@given(coloured_graphs())
@settings(max_examples=120, deadline=None)
def test_construction_invariants(g):
    assert int(g.degrees.sum()) == 2 * g.m
    # the rows built from the keys are symmetric, strictly ascending and
    # loop-free, and list the edge list's neighbours
    indptr, indices = rows_of(g.n, g.keys)
    assert validate_by_rows(g.n, g.m, indptr, indices) is None
    assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.n)] == adjacency(g)


@given(coloured_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_relabel_keys_matches_set_reference(g, data):
    # every quotient and relabelling builds its keys in relabel_keys: the
    # sorted distinct keys a*k + b of the set reference's edges (a, b), a < b,
    # whether the keys are marked in a (k, k) bitmap (k * k <= 2m) or the
    # crossing pairs are sorted (k * k > 2m); the sort alone builds pair keys
    n = g.n
    extra = data.draw(st.integers(0, 3))
    # onto at most isqrt(2m) labels the bitmap is taken, onto one more the sort
    fit = math.isqrt(2 * g.m)
    components = colour_partition(ColouredGraph(n=n, colours=np.zeros(n, dtype=np.int64), keys=g.keys))
    labellings = [
        # onto 0..k-1, some labels unused
        (data.draw(st.lists(st.integers(0, n + extra), min_size=n, max_size=n)), n + extra + 1),
        (data.draw(st.permutations(range(n))), n),
        (list(range(n)), n),
        (data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), 3),
        # every edge vanishes: one label, and the components, one label each
        ([extra] * n, extra + 1),
        (components.becomes, components.n_prime),
    ]
    if n:
        # both sides of the bound, k * k <= 2m and k * k > 2m
        for k in {max(fit, 1), fit + 1}:
            labellings.append((data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k))
    for label, k in labellings:
        label = np.array(label, dtype=np.int64)
        with mock.patch.object(graph, "_sorted_unique", wraps=graph._sorted_unique) as sort:
            keys = relabel_keys(g.n, g.keys, label, k)
        want = sorted(a * k + b for a, b in contract_by_relabel(g, label)[1])
        assert keys.dtype == np.int64 and keys.tolist() == want
        assert sort.called == (k * k > 2 * g.m)


@given(coloured_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_rows_within_hold_the_same_label_neighbours(g, data):
    # row v: v's neighbours that share its label, ascending, by a per-edge loop
    for label in (g.colours, np.array(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)), dtype=np.int64)):
        indptr, indices = rows_within(g, label)
        want = [[] for _ in range(g.n)]
        for u, v in g.edge_array().tolist():
            if label[u] == label[v]:
                want[u].append(v)
                want[v].append(u)
        assert indptr.dtype == indices.dtype == np.int64
        assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(g.n)] == [sorted(r) for r in want]


@given(coloured_graphs())
@settings(max_examples=120, deadline=None)
def test_round_trip_identity(g):
    assert graphs_equal(parse_graph(serialize_graph(g)), g)


@given(coloured_graphs())
@settings(max_examples=100, deadline=None)
def test_digraph_points_at_colour_minimum(g):
    b = build_functional_digraph(same_colour_part(g))
    for v in range(g.n):
        nbhd = colour_neighbourhood_set(g, [v]).tolist()
        assert int(b[v]) == min(nbhd + [v])
    roots = project_to_roots(b)
    assert (roots[roots] == roots).all()


@given(coloured_graphs())
@settings(max_examples=100, deadline=None)
def test_oracle_partition_matches_unionfind(g):
    part = colour_partition(g)
    assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == ordered_unionfind_blocks(g)


@given(coloured_graphs())
@settings(max_examples=120, deadline=None)
def test_targets_number_the_roots_as_a_cumsum_of_the_root_mask(g):
    # a round's mapping and the oracle's partition number their targets by
    # scattering each root's rank onto it: the targets (cumsum(is_root) - 1)[r]
    # of every vertex v with root r[v], the root mask summed giving n'
    roots = project_to_roots(build_functional_digraph(same_colour_part(g)))
    partition = colour_partition(g)
    for mapping, r in ((compact_mapping(roots), roots), (partition, partition.fibre_minima)):
        is_root = r == np.arange(g.n)
        assert mapping.n_prime == int(is_root.sum())
        assert mapping.becomes.tolist() == (np.cumsum(is_root) - 1)[r].tolist()


def test_oracle_partition_matches_scipy_components():
    pytest.importorskip("scipy.sparse.csgraph")

    @given(coloured_graphs())
    @settings(max_examples=100, deadline=None)
    def check(g):
        part = colour_partition(g)
        assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == scipy_blocks(g)

    check()


@given(st.integers(0, 6), st.sampled_from(["int64", "int32", "uint8", "uint64", "float64"]), st.data())
@settings(max_examples=300, deadline=None)
def test_mapping_construction_accepts_exactly_the_onto_maps(n, dtype, data):
    # mostly n values in 0..k-1 with k <= n, so that onto maps turn up often
    k = data.draw(st.one_of(st.integers(0, n), st.integers(-1, 7)))
    size = data.draw(st.one_of(st.just(n), st.integers(0, 7)))
    if k >= 1 and data.draw(st.booleans()):
        low, high = 0, k - 1
    else:
        low, high = (0 if np.dtype(dtype).kind == "u" else -1), k + 1
    values = data.draw(st.lists(st.integers(low, high), min_size=size, max_size=size))
    becomes = np.array(values, dtype=dtype)
    if data.draw(st.sampled_from([False, False, False, True])):
        becomes = becomes.reshape(1, size)
    onto = becomes.dtype.kind in "iu" and becomes.shape == (n,) and k >= 0 and set(values) == set(range(k))
    try:
        mapping = ContractionMapping(n=n, n_prime=k, becomes=becomes)
    except ValueError:
        assert not onto
        return
    assert onto
    assert mapping.becomes.dtype == np.int64 and not mapping.becomes.flags.writeable
    assert mapping.becomes.tolist() == values


@given(coloured_graphs())
@settings(max_examples=80, deadline=None)
def test_engine_agrees_with_oracle(g):
    final, trace = contract_to_fixpoint(g)
    partition = colour_partition(g)
    assert equivalent_contractions(g, final, trace, partition)
    # stronger than required: the enumeration conventions line up index-wise
    assert graphs_equal(final, apply_contraction(g, partition))
    assert np.array_equal(trace.total_map, partition.becomes)


@given(coloured_graphs())
@settings(max_examples=100, deadline=None)
def test_total_map_equals_oracle_mapping(g):
    partition = colour_partition(g)
    partition.validate(g)
    assert np.array_equal(contract_to_fixpoint(g)[1].total_map, partition.becomes)


@given(coloured_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_equivalence_matches_set_reference(g, seed):
    # the set check rebuilds the final graph itself, so a wrong one given is False
    final, trace = contract_to_fixpoint(g)
    for name, f, t, p in tampered_inputs(g, final, trace, colour_partition(g), np.random.default_rng(seed)):
        if isinstance(p, ValueError):
            # refused at construction, so no check ever sees it
            assert name in ("target out of range", "unused target"), name
            continue
        expected = equivalent_by_sets(g, t, p) and f is final
        assert expected == (name in ("untouched", "renumbered targets")), name
        assert equivalent_contractions(g, f, t, p) == expected, name


@given(coloured_graphs())
@settings(max_examples=80, deadline=None)
def test_per_iteration_invariants(g):
    final, trace = contract_to_fixpoint(g)
    graphs = replay(g, trace)
    assert final.is_properly_coloured()
    if g.n >= 1:
        assert trace.iterations <= iteration_bound(g.n)
    for k, record in enumerate(trace.per_iteration):
        step_graph = graphs[k]
        mapping = record.mapping
        mapping.validate(step_graph)  # monochromatic, connected, ordered fibres
        assert record.n_prime < record.n
        # no same-colour edge joins two cluster representatives
        mins = {int(f[0]) for f in mapping.fibres}
        for u, v in step_graph.edge_array().tolist():
            if int(step_graph.colours[u]) == int(step_graph.colours[v]):
                assert not (u in mins and v in mins)
        # a singleton with a same-colour neighbour lands in a bigger cluster next round
        next_mapping = (
            trace.per_iteration[k + 1].mapping
            if k + 1 < trace.iterations
            else evaluate_contraction_mapping(graphs[k + 1])
        )
        for t, fibre in enumerate(mapping.fibres):
            if fibre.size == 1 and colour_neighbourhood_set(step_graph, [int(fibre[0])]).size:
                assert int(next_mapping.cluster_sizes[next_mapping.becomes[t]]) > 1
    total = np.arange(g.n)
    for record in trace.per_iteration:
        total = record.mapping.becomes[total]
    assert np.array_equal(total, trace.total_map)


@given(coloured_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_contraction_canonical_under_relabelling(g, seed):
    # iteration counts may differ between enumerations; the partition may not
    _, trace = contract_to_fixpoint(g)
    h, perm = permute_enumeration(g, seed)
    _, trace_h = contract_to_fixpoint(h)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)

    def blocks(total_map, back):
        grouped = {}
        for v, t in enumerate(total_map.tolist()):
            grouped.setdefault(int(t), set()).add(int(back[v]) if back is not None else v)
        return {frozenset(b) for b in grouped.values()}

    assert blocks(trace_h.total_map, inverse) == blocks(trace.total_map, None)


@given(coloured_graphs())
@settings(max_examples=60, deadline=None)
def test_scratchpad_variants_observationally_identical(g):
    # every round's merge, and the whole run, equal plain set relabelling
    final, trace = contract_to_fixpoint(g)
    graphs = replay(g, trace)
    for k, record in enumerate(trace.per_iteration):
        assert relabel_form(graphs[k + 1]) == contract_by_relabel(graphs[k], record.mapping.becomes.tolist())
    assert relabel_form(final) == contract_by_relabel(g, trace.total_map.tolist())


@given(coloured_graphs())
@settings(max_examples=100, deadline=None)
def test_same_colour_rounds_equal_whole_edge_rounds(g):
    final, trace = contract_to_fixpoint(g)
    check_whole_edge_rounds(g, final, trace)


@given(coloured_graphs())
@settings(max_examples=60, deadline=None)
def test_contraction_idempotent(g):
    final, _ = contract_to_fixpoint(g)
    again, trace = contract_to_fixpoint(final)
    assert trace.iterations == 0
    assert graphs_equal(final, again)


@given(coloured_graphs())
@settings(max_examples=60, deadline=None)
def test_apply_preserves_handshake(g):
    mapping = evaluate_contraction_mapping(g)
    h = apply_contraction(g, mapping)
    assert int(h.degrees.sum()) == 2 * h.m
    assert h.n == mapping.n_prime


def _restrict(g, keep):
    """The subgraph induced by the vertices where ``keep`` holds, numbered
    in their old order."""
    label = np.cumsum(keep) - 1
    lo, hi = g.endpoints()
    inside = keep[lo] & keep[hi]
    return new_graph(int(keep.sum()), np.column_stack((label[lo[inside]], label[hi[inside]])), g.colours[keep])


@given(coloured_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_partial_contractions_reach_the_same_fixpoint(g, seed):
    # confluence: any partition into connected one-colour pieces, here the
    # colour components of a random half of the same-colour edges, contracts
    # first and still ends at gamma(g), blocks and final graph alike
    lo, hi = g.endpoints()
    same = g.keys[g.colours[lo] == g.colours[hi]]
    half = same[np.random.default_rng(seed).random(same.size) < 0.5]
    partial = colour_partition(ColouredGraph(n=g.n, colours=g.colours, keys=half))
    partial.validate(g)
    final, trace = contract_to_fixpoint(g)
    final_q, trace_q = contract_to_fixpoint(apply_contraction(g, partial))
    composed = ContractionMapping(n=g.n, n_prime=final_q.n, becomes=trace_q.total_map[partial.becomes])
    assert np.array_equal(composed.fibre_minima, colour_partition(g).fibre_minima)
    assert graphs_equal(final_q, final)


@given(coloured_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_contraction_commutes_with_colour_restriction(g, seed):
    # gamma(g[S]) = gamma(g)[S] for a random colour set S: both number their
    # blocks by smallest member, and restriction keeps the vertex order
    palette = np.unique(g.colours)
    chosen = palette[np.random.default_rng(seed).random(palette.size) < 0.5]
    final, _ = contract_to_fixpoint(g)
    restricted, _ = contract_to_fixpoint(_restrict(g, np.isin(g.colours, chosen)))
    assert graphs_equal(restricted, _restrict(final, np.isin(final.colours, chosen)))
