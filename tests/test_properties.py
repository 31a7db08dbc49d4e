"""Property-based checks of the structural guarantees, driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colourcontract import (
    apply_contraction,
    build_functional_digraph,
    colour_neighbourhood_set,
    colour_partition,
    component_contraction,
    compose_total_mapping,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    graphs_equal,
    iteration_bound,
    new_graph,
    parse_graph,
    permute_enumeration,
    project_to_roots,
    serialize_graph,
)
from colourcontract.graph import relabel_keys, rows_of, rows_within
from conftest import tampered_inputs
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
    # sorted distinct keys a*k + b of the set reference's edges (a, b), a < b
    n = g.n
    extra = data.draw(st.integers(0, 3))
    labellings = [
        # onto 0..k-1, some labels unused
        (data.draw(st.lists(st.integers(0, n + extra), min_size=n, max_size=n)), n + extra + 1),
        (data.draw(st.permutations(range(n))), n),
        (list(range(n)), n),
        # every edge vanishes
        ([extra] * n, extra + 1),
    ]
    for label, k in labellings:
        label = np.array(label, dtype=np.int64)
        keys = relabel_keys(g, label, k)
        want = sorted(a * k + b for a, b in contract_by_relabel(g, label)[1])
        assert keys.dtype == np.int64 and keys.tolist() == want


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
    b = build_functional_digraph(g)
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


def test_oracle_partition_matches_scipy_components():
    pytest.importorskip("scipy.sparse.csgraph")

    @given(coloured_graphs())
    @settings(max_examples=100, deadline=None)
    def check(g):
        part = colour_partition(g)
        assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == scipy_blocks(g)

    check()


@given(coloured_graphs())
@settings(max_examples=80, deadline=None)
def test_engine_agrees_with_oracle(g):
    final, trace = contract_to_fixpoint(g)
    partition = colour_partition(g)
    assert equivalent_contractions(g, trace, partition)
    # stronger than required: the enumeration conventions line up index-wise
    oracle_graph, block_of = component_contraction(g)
    assert graphs_equal(final, oracle_graph)
    assert np.array_equal(trace.total_map, block_of)


@given(coloured_graphs())
@settings(max_examples=100, deadline=None)
def test_total_map_equals_oracle_mapping(g):
    partition = colour_partition(g)
    partition.validate(g)
    assert np.array_equal(contract_to_fixpoint(g)[1].total_map, partition.becomes)


@given(coloured_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_equivalence_matches_set_reference(g, seed):
    _, trace = contract_to_fixpoint(g)
    for name, t, p in tampered_inputs(g, trace, colour_partition(g), np.random.default_rng(seed)):
        expected = equivalent_by_sets(g, t, p)
        assert expected == (name in ("untouched", "renumbered targets")), name
        assert equivalent_contractions(g, t, p) == expected, name


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
    assert np.array_equal(compose_total_mapping(trace), trace.total_map)


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
