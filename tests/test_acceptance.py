"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints one PASS/FAIL line, and
fails loudly when the criterion is not met.  Run with ``pytest -s`` to see
the lines as they appear; without ``-s`` pytest shows them for failures.
"""

import math
import time
from functools import lru_cache

import numpy as np

from colourcontract import (
    RandomSpec,
    apply_contraction,
    assign_random_colours,
    classify_roles,
    colour_partition,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    fib_number,
    gen_erdos_renyi,
    generate_fib_instance,
    graphs_equal,
    iteration_bound,
    new_graph,
    parse_graph,
    permute_enumeration,
    serialize_graph,
    stats_dict,
)
from colourcontract.engine import _compose
from colourcontract.graph import colour_neighbourhood_set

from conftest import FIG24_COLOURS, FIG24_EDGES, FIG24_EXPECTED, P4_EDGES, check_whole_edge_rounds, tampered_inputs
from reference_impls import (
    compose_forward,
    contract_by_relabel,
    equivalent_by_sets,
    fibres_by_grouping,
    ordered_unionfind_blocks,
    relabel_form,
    replay,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# deterministic grid: 512 cases over n in [1,64], p in {.05,.1,.3,.5}, colours in {1..4}
_PS = (0.05, 0.1, 0.3, 0.5)
_COLOUR_COUNTS = (1, 2, 3, 4)


@lru_cache(maxsize=1)
def _random_corpus():
    corpus = []
    for i in range(512):
        n = (i % 64) + 1
        p = _PS[i % 4]
        c = _COLOUR_COUNTS[(i // 4) % 4]
        g = gen_erdos_renyi(RandomSpec(n=n, p=p, seed=1000 + i))
        g = assign_random_colours(g, c, seed=5000 + i)
        corpus.append((i, g))
    return corpus


def test_criterion_1_worst_case_family_tightness():
    started = time.perf_counter()
    expected_orders = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    for i in range(13):
        inst = generate_fib_instance(i)
        g = inst.graph
        assert g.n == expected_orders[i] == fib_number(i + 2), f"level {i} order"
        assert np.unique(g.colours).size == 1, f"level {i} colours"
        # one step is the closed form and reproduces level i - 1 exactly
        prev_n = fib_number(i + 1)
        mapping = evaluate_contraction_mapping(g)
        idx = np.arange(g.n)
        assert mapping.n_prime == prev_n, f"level {i} step order"
        assert np.array_equal(mapping.becomes, np.where(idx < prev_n, idx, idx - prev_n)), f"level {i} step map"
        if i >= 1:
            assert graphs_equal(apply_contraction(g, mapping), generate_fib_instance(i - 1).graph), f"level {i} step graph"
        # role windows: P, then R, then Q; the pointer forest gives the same
        windows = "R" if i == 0 else "P" * fib_number(i) + "R" * fib_number(i - 1) + "Q" * fib_number(i)
        assert "".join(inst.roles) == windows and classify_roles(g) == inst.roles, f"level {i} roles"
        final, trace = contract_to_fixpoint(g)
        assert trace.iterations == i == iteration_bound(g.n) and final.n == 1, f"level {i} rounds"
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1, adversarial family attains the bound at levels 0..12",
        elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence_and_bound():
    started = time.perf_counter()
    checked = 0
    for i, g in _random_corpus():
        final, trace = contract_to_fixpoint(g)
        partition = colour_partition(g)
        blocks = ([b.tolist() for b in partition.fibres], g.colours[partition.representatives].tolist())
        assert blocks == ordered_unionfind_blocks(g), f"case {i}: oracle disagrees with union-find"
        assert equivalent_contractions(g, final, trace, partition), f"case {i}: engine disagrees with oracle"
        assert trace.iterations <= iteration_bound(g.n), f"case {i}: bound exceeded"
        checked += 1
    permuted = 0
    for i, g in _random_corpus()[:100]:
        h, perm = permute_enumeration(g, seed=9000 + i)
        final_h, trace_h = contract_to_fixpoint(h)
        assert equivalent_contractions(h, final_h, trace_h, colour_partition(h)), f"case {i}: permuted run disagrees"
        assert trace_h.iterations <= iteration_bound(h.n)
        permuted += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2, engine equals oracle on 512 random + 100 relabelled runs",
        checked == 512 and permuted == 100 and elapsed < 30.0,
        f"{checked} cases, {permuted} relabelled, {elapsed:.1f}s",
    )


def test_criterion_2_equivalence_matches_set_reference():
    # every corpus run, untouched and tampered, gets the set-based verdict;
    # that check rebuilds the final graph itself, so a wrong one given is False
    rng = np.random.default_rng(2)
    compared = 0
    for i, g in _random_corpus():
        final, trace = contract_to_fixpoint(g)
        for name, f, t, p in tampered_inputs(g, final, trace, colour_partition(g), rng):
            compared += 1
            if isinstance(p, ValueError):
                # refused at construction, so no check ever sees it
                assert name in ("target out of range", "unused target"), f"case {i}, {name}"
                continue
            expected = equivalent_by_sets(g, t, p) and f is final
            assert expected == (name in ("untouched", "renumbered targets")), f"case {i}, {name}"
            assert equivalent_contractions(g, f, t, p) == expected, f"case {i}, {name}"
    _report(
        "criterion 2, whole-array equivalence equals the set-based check",
        compared > 4 * 512,
        f"{compared} untouched and tampered runs",
    )


def test_criterion_2_total_map_equals_oracle_mapping():
    # the oracle answers with a mapping numbered as the composed rounds are:
    # equal element for element, and valid as a round's mapping is valid
    started = time.perf_counter()
    graphs = [g for _, g in _random_corpus()] + [generate_fib_instance(level).graph for level in range(17)]
    for i, g in enumerate(graphs):
        partition = colour_partition(g)
        partition.validate(g)
        assert np.array_equal(contract_to_fixpoint(g)[1].total_map, partition.becomes), f"graph {i}"
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2, composed rounds equal the oracle's mapping on 512 random + 17 worst-case graphs",
        len(graphs) == 529 and elapsed < 30.0,
        f"{len(graphs)} graphs, {elapsed:.1f}s",
    )


def test_criterion_2_backward_composition_equals_forward_reference():
    # the engine composes the rounds from the last mapping back; the
    # reference takes every vertex through them first to last
    graphs = [g for _, g in _random_corpus()] + [generate_fib_instance(level).graph for level in range(23)]
    rounds = 0
    for i, g in enumerate(graphs):
        mappings = [r.mapping for r in contract_to_fixpoint(g)[1].per_iteration]
        assert np.array_equal(_compose(g.n, mappings), compose_forward(g.n, mappings)), f"graph {i}"
        rounds += len(mappings)
    _report(
        "criterion 2, backward composition equals the forward reference on 512 random + 23 worst-case graphs",
        len(graphs) == 535 and rounds >= sum(range(23)),
        f"{len(graphs)} graphs, {rounds} rounds",
    )


def test_criterion_3_pinned_examples():
    started = time.perf_counter()
    p4 = new_graph(4, P4_EDGES, [0, 0, 0, 0])
    final, trace = contract_to_fixpoint(p4)
    graphs = replay(p4, trace)
    assert trace.iterations == 2
    mid = graphs[1]
    assert mid.n == 2 and mid.m == 1 and np.unique(mid.colours).size == 1
    assert final.n == 1 and final.m == 0

    fig = new_graph(24, FIG24_EDGES, FIG24_COLOURS)
    fig_final, fig_trace = contract_to_fixpoint(fig)
    assert fig_trace.iterations == FIG24_EXPECTED["iterations"]
    assert fig_final.n == FIG24_EXPECTED["final_n"] and fig_final.m == FIG24_EXPECTED["final_m"]
    assert fig_final.colours.tolist() == FIG24_EXPECTED["final_colours"]
    assert [tuple(e) for e in fig_final.edge_array().tolist()] == FIG24_EXPECTED["final_edges"]
    assert fig_final.is_properly_coloured()
    elapsed = time.perf_counter() - started
    _report(
        "criterion 3, pinned small instances contract exactly as expected",
        elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def _check_iteration_invariants(g):
    final, trace = contract_to_fixpoint(g)
    graphs = replay(g, trace)
    assert final.is_properly_coloured()
    for k, record in enumerate(trace.per_iteration):
        step_graph = graphs[k]
        mapping = record.mapping
        mapping.validate(step_graph)
        assert record.n_prime < record.n
        mins = {int(f[0]) for f in mapping.fibres}
        for u, v in step_graph.edge_array().tolist():
            if int(step_graph.colours[u]) == int(step_graph.colours[v]):
                assert not (u in mins and v in mins), "two representatives share a colour edge"
        next_mapping = (
            trace.per_iteration[k + 1].mapping
            if k + 1 < trace.iterations
            else evaluate_contraction_mapping(graphs[k + 1])
        )
        for t, fibre in enumerate(mapping.fibres):
            if fibre.size == 1 and colour_neighbourhood_set(step_graph, [int(fibre[0])]).size:
                assert int(next_mapping.cluster_sizes[next_mapping.becomes[t]]) > 1, (
                    "an active singleton failed to merge on the following iteration"
                )


def test_criterion_4_structural_invariants_every_iteration():
    started = time.perf_counter()
    graphs = [generate_fib_instance(i).graph for i in range(13)]
    graphs.append(new_graph(4, P4_EDGES, [0, 0, 0, 0]))
    graphs.append(new_graph(24, FIG24_EDGES, FIG24_COLOURS))
    for g in graphs:
        _check_iteration_invariants(g)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 4, per-iteration invariants hold on every pinned graph",
        True,
        f"{len(graphs)} graphs, {elapsed:.1f}s",
    )


def test_criterion_4_derived_views_equal_plain_grouping():
    # a round is stored as its target array alone; its fibres, sizes and
    # representatives are derived, and must equal a plain grouping of it
    rounds = 0
    for i, g in _random_corpus():
        _, trace = contract_to_fixpoint(g)
        for k, record in enumerate(trace.per_iteration):
            mapping = record.mapping
            fibres = fibres_by_grouping(mapping.becomes.tolist())
            assert len(fibres) == mapping.n_prime, f"case {i}, round {k + 1}"
            assert [f.tolist() for f in mapping.fibres] == fibres, f"case {i}, round {k + 1}"
            assert mapping.cluster_sizes.tolist() == [len(f) for f in fibres], f"case {i}, round {k + 1}"
            assert mapping.representatives.tolist() == [f[0] for f in fibres], f"case {i}, round {k + 1}"
            rounds += 1
    _report("criterion 4, derived fibre views equal a plain grouping on all 512 cases", rounds > 512, f"{rounds} rounds")


def test_criterion_5_scratchpad_variants_identical():
    # the adjacency merge (once two scratchpad variants, now one sort) must
    # equal plain set relabelling in every round and over the whole run
    started = time.perf_counter()
    rounds = 0
    for i, g in _random_corpus():
        final, trace = contract_to_fixpoint(g)
        graphs = replay(g, trace)
        for k, record in enumerate(trace.per_iteration):
            expected = contract_by_relabel(graphs[k], record.mapping.becomes.tolist())
            assert relabel_form(graphs[k + 1]) == expected, f"case {i}, round {k + 1}: merge differs"
            rounds += 1
        assert relabel_form(final) == contract_by_relabel(g, trace.total_map.tolist()), f"case {i}: final differs"
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5, the merge equals set relabelling on all 512 cases",
        True,
        f"{rounds} rounds, {elapsed:.1f}s",
    )


def test_criterion_5_same_colour_rounds_equal_whole_edge_rounds():
    # the rounds read only the same-colour edges and the cross-colour ones
    # are relabelled once, at the end: every round's targets, every round's
    # same-colour edge count and the final graph must be what rounds over
    # every edge give
    rounds = 0
    for i, g in _random_corpus():
        final, trace = contract_to_fixpoint(g)
        try:
            check_whole_edge_rounds(g, final, trace)
        except AssertionError as failure:
            raise AssertionError(f"case {i}: {failure}") from None
        rounds += trace.iterations
    _report("criterion 5, rounds over the same-colour edges equal whole-edge rounds on all 512 cases", rounds > 512, f"{rounds} rounds")


def test_criterion_6_large_scale_statistics():
    started = time.perf_counter()
    n = 50_000
    m = math.ceil(n * math.log(n))
    hard_bound = iteration_bound(n)
    assert hard_bound == 22
    iteration_counts = []
    for seed in range(20):
        g = gen_erdos_renyi(RandomSpec(n=n, m=m, seed=seed))
        final, trace = contract_to_fixpoint(g)
        assert final.is_properly_coloured(), f"seed {seed} did not converge to a proper colouring"
        assert trace.iterations <= hard_bound, f"seed {seed} exceeded the hard bound"
        iteration_counts.append(trace.iterations)
    within_six = sum(1 for c in iteration_counts if c <= 6)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 6, 20 seeds at n=50000 m=ceil(n ln n) converge fast",
        within_six >= 19 and elapsed < 60.0,
        f"iterations={sorted(set(iteration_counts))}, <=6 in {within_six}/20, {elapsed:.1f}s",
    )


def test_criterion_7_round_trip_and_determinism():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng.integers(0, 18))
        colours = rng.integers(0, 4, size=k).tolist()
        edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.3]
        g = new_graph(k, edges, colours)
        assert graphs_equal(parse_graph(serialize_graph(g)), g)

    for i, g in _random_corpus()[:40]:
        spec = RandomSpec(n=(i % 64) + 1, p=_PS[i % 4], seed=1000 + i)
        regenerated = assign_random_colours(gen_erdos_renyi(spec), _COLOUR_COUNTS[(i // 4) % 4], seed=5000 + i)
        assert graphs_equal(g, regenerated), f"case {i}: generation is not reproducible"
        final_a, trace_a = contract_to_fixpoint(g)
        final_b, trace_b = contract_to_fixpoint(regenerated)
        assert graphs_equal(final_a, final_b)
        assert trace_a.iterations == trace_b.iterations
        assert np.array_equal(trace_a.total_map, trace_b.total_map)
        for ra, rb in zip(trace_a.per_iteration, trace_b.per_iteration):
            assert (ra.n, ra.m, ra.n_prime) == (rb.n, rb.m, rb.n_prime)
            assert np.array_equal(ra.mapping.becomes, rb.mapping.becomes)
        # stats agree on everything except wall time, which is never deterministic
        rows_a = stats_dict(g, final_a, trace_a)["per_iteration"]
        rows_b = stats_dict(regenerated, final_b, trace_b)["per_iteration"]
        for sa, sb in zip(rows_a, rows_b):
            assert (sa["iteration"], sa["n_before"], sa["m_before"], sa["n_after"]) == (
                sb["iteration"], sb["n_before"], sb["m_before"], sb["n_after"],
            )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 7, serialisation round-trips and seeded runs reproduce",
        True,
        f"{elapsed:.1f}s",
    )
