import dataclasses
import time

import numpy as np
import pytest

from colourcontract import (
    ColouredGraph,
    ContractionMapping,
    ContractionTrace,
    apply_contraction,
    build_functional_digraph,
    colour_neighbourhood_set,
    colour_partition,
    compact_mapping,
    component_contraction,
    compose_total_mapping,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    generate_fib_instance,
    graphs_equal,
    iteration_bound,
    new_graph,
    project_to_roots,
    stats_dict,
)
from colourcontract import engine
from reference_impls import contract_by_relabel, equivalent_by_sets, relabel_form, replay, roots_by_iterated_lookup

from conftest import FIG24_EXPECTED


# ---------------------------------------------------------------- bound

def test_iteration_bound_small_values():
    assert [iteration_bound(n) for n in range(1, 9)] == [0, 1, 2, 2, 3, 3, 4, 4]


def test_iteration_bound_rejects_zero():
    with pytest.raises(ValueError):
        iteration_bound(0)


def test_iteration_bound_matches_high_precision_log():
    import mpmath

    mpmath.mp.dps = 60
    phi = (1 + mpmath.sqrt(5)) / 2
    for n in range(1, 3000):
        assert iteration_bound(n) == int(mpmath.floor(mpmath.log(n) / mpmath.log(phi))), n
    for n in (10**6, 10**6 + 1, 10**9, 50000):
        assert iteration_bound(n) == int(mpmath.floor(mpmath.log(n) / mpmath.log(phi))), n


def test_iteration_bound_exact_at_fibonacci_orders():
    a, b = 2, 3  # F(3), F(4)
    for i in range(1, 60):
        assert iteration_bound(a) == i
        a, b = b, a + b


# ---------------------------------------------------------- digraph build

def test_digraph_isolated_vertices():
    g = new_graph(3, [], [0, 0, 0])
    assert build_functional_digraph(g).tolist() == [0, 1, 2]


def test_digraph_p4(p4):
    assert build_functional_digraph(p4).tolist() == [0, 1, 0, 1]


def test_digraph_monochromatic_path():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 0, 0])
    assert build_functional_digraph(g).tolist() == [0, 0, 1, 2]


def test_digraph_colour_boundaries(triangle_two_colours):
    assert build_functional_digraph(triangle_two_colours).tolist() == [0, 0, 2]


@pytest.mark.parametrize(
    "n, edges, colours",
    [
        (0, [], []),
        (1, [], [0]),
        (4, [], [0, 0, 1, 1]),  # every row empty
        (5, [(1, 2), (2, 3), (1, 3)], [0] * 5),  # isolated first and last vertices
        (2, [(0, 1)], [3, 3]),  # a single same-colour edge
        (4, [(0, 1), (1, 2), (2, 3)], [0, 1, 1, 0]),  # one same-colour edge among others
        # 2's same-colour neighbours, 3 and 4, lie above it; 1 below has another colour
        (5, [(0, 1), (1, 2), (2, 3), (2, 4)], [1, 0, 1, 1, 1]),
        (4, [(0, 1), (0, 2), (0, 3)], [0, 1, 1, 1]),  # rows of other colours only
    ],
)
def test_digraph_edge_cases_point_at_colour_minimum(n, edges, colours):
    g = new_graph(n, edges, colours)
    expected = [min([v] + colour_neighbourhood_set(g, [v]).tolist()) for v in range(n)]
    assert build_functional_digraph(g).tolist() == expected


def test_digraph_never_increases():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = new_graph(n, edges, rng.integers(0, 3, size=n).tolist())
        b = build_functional_digraph(g)
        assert (b <= np.arange(n)).all()


# ---------------------------------------------------------- root projection

def test_project_identity():
    assert project_to_roots(np.array([0, 1, 2])).tolist() == [0, 1, 2]


def test_project_chain():
    assert project_to_roots(np.array([0, 0, 1, 2])).tolist() == [0, 0, 0, 0]


def test_project_p4(p4):
    assert project_to_roots(build_functional_digraph(p4)).tolist() == [0, 1, 0, 1]


def test_project_empty():
    assert project_to_roots(np.empty(0, dtype=np.int64)).size == 0


def test_project_rejects_increasing_pointer():
    with pytest.raises(ValueError, match="must not increase"):
        project_to_roots(np.array([1, 1]))
    with pytest.raises(ValueError, match="negative"):
        project_to_roots(np.array([-1, 0]))


def test_pointers_must_be_integers(p4):
    for parents in (np.array([0, 0.9, 1.5]), [0, 0.9, 1.5]):
        with pytest.raises(ValueError, match="must be integers"):
            project_to_roots(parents)
    for roots in (np.array([0.0, 1.0, 0.0, 1.0]), [0, 1, 0.0, 1]):
        with pytest.raises(ValueError, match="must be integers"):
            compact_mapping(p4, roots)
    assert project_to_roots([0, 0, 1]).tolist() == [0, 0, 0]
    assert compact_mapping(p4, [0, 1, 0, 1]).becomes.tolist() == [0, 1, 0, 1]
    assert project_to_roots(np.empty(0)).size == 0


def test_project_matches_iterated_lookup():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        parents = np.array([int(rng.integers(0, v + 1)) for v in range(n)])
        out = project_to_roots(parents)
        assert out.tolist() == roots_by_iterated_lookup(parents.tolist())
        # idempotent: projecting again changes nothing
        assert project_to_roots(out).tolist() == out.tolist()


def test_project_deep_forests_match_iterated_lookup():
    chain = np.concatenate(([0], np.arange(10**4 - 1)))  # parent of v is v - 1
    assert project_to_roots(chain).tolist() == roots_by_iterated_lookup(chain.tolist())
    rng = np.random.default_rng(23)
    for root_share in (0.0, 0.001, 0.005, 0.02, 0.1):
        n = int(rng.integers(500, 3000))
        # short backward steps give paths hundreds deep; some vertices become roots
        parents = np.maximum(np.arange(n) - rng.integers(1, 4, size=n), 0)
        roots = rng.random(n) < root_share
        parents[roots] = np.flatnonzero(roots)
        assert project_to_roots(parents).tolist() == roots_by_iterated_lookup(parents.tolist())


# ---------------------------------------------------------- compaction

def test_compact_all_to_one(p4):
    mp = compact_mapping(p4, np.array([0, 0, 0, 0]))
    assert mp.n_prime == 1
    assert [f.tolist() for f in mp.fibres] == [[0, 1, 2, 3]]
    assert mp.cluster_sizes.tolist() == [4]


def test_compact_identity(p4):
    mp = compact_mapping(p4, np.array([0, 1, 2, 3]))
    assert mp.is_trivial and mp.n_prime == 4
    assert mp.becomes.tolist() == [0, 1, 2, 3]


def test_compact_p4(p4):
    mp = compact_mapping(p4, np.array([0, 1, 0, 1]))
    assert mp.n_prime == 2
    assert mp.becomes.tolist() == [0, 1, 0, 1]
    assert [f.tolist() for f in mp.fibres] == [[0, 2], [1, 3]]


def test_compact_preserves_root_order():
    g = new_graph(6, [(0, 1), (2, 3), (4, 5)], [0] * 6)
    mp = compact_mapping(g, np.array([0, 0, 2, 2, 4, 4]))
    assert mp.becomes.tolist() == [0, 0, 1, 1, 2, 2]
    mins = [int(f[0]) for f in mp.fibres]
    assert mins == sorted(mins)


def test_compact_rejects_unprojected_roots(p4):
    with pytest.raises(ValueError, match="projected"):
        compact_mapping(p4, np.array([0, 0, 1, 2]))


def test_compact_rejects_wrong_length(p4):
    with pytest.raises(ValueError, match="length"):
        compact_mapping(p4, np.array([0, 0]))


def test_evaluate_empty_graph():
    g = new_graph(0, [], [])
    mp = evaluate_contraction_mapping(g)
    assert mp.n == 0 and mp.n_prime == 0 and mp.is_trivial
    assert mp.fibres == ()


def test_evaluate_figure_graph(fig24):
    mp = evaluate_contraction_mapping(fig24)
    assert [f.tolist() for f in mp.fibres] == FIG24_EXPECTED["fibres"]
    mp.validate(fig24)


def test_mapping_validate_catches_tampering(p4):
    mp = evaluate_contraction_mapping(p4)
    # disconnected fibre: 0 and 3 are not adjacent in p4
    disconnected = ContractionMapping(n=4, n_prime=2, becomes=np.array([0, 1, 1, 0]))
    with pytest.raises(ValueError, match="connected"):
        disconnected.validate(p4)
    # fibres {0, 1} and {2, 3} numbered out of representative order
    misnumbered = ContractionMapping(n=4, n_prime=2, becomes=np.array([1, 1, 0, 0]))
    with pytest.raises(ValueError, match="^fibres are not ordered by ascending representative$"):
        misnumbered.validate(p4)
    mp.validate(p4)  # the genuine mapping passes


def test_mapping_checks_reject_an_empty_target(p4):
    # [0, 0, 2, 2] leaves target 1 empty; with n_prime 5 it also claims more targets than vertices
    for n_prime, message in ((3, "^target 1 has no member$"), (5, "cannot increase the order")):
        gap = ContractionMapping(n=4, n_prime=n_prime, becomes=np.array([0, 0, 2, 2]))
        with pytest.raises(ValueError, match=message):
            apply_contraction(p4, gap)
        with pytest.raises(ValueError, match=message):
            gap.validate(p4)


def test_mapping_target_check_is_shared(p4):
    _, trace = contract_to_fixpoint(p4)
    message = r"^mapping of order 4 needs 4 integer targets in \[0, 2\)$"
    for becomes in ([0.0, 1.0, 0.0, 1.0], [0, 1, 0], [0, 2, 0, 1], [0, -1, 0, 1]):
        bad = ContractionMapping(n=4, n_prime=2, becomes=np.array(becomes))
        with pytest.raises(ValueError, match=message):
            apply_contraction(p4, bad)
        record = dataclasses.replace(trace.per_iteration[0], mapping=bad)
        with pytest.raises(ValueError, match=message):
            compose_total_mapping(ContractionTrace(per_iteration=(record,), total_map=np.zeros(4, dtype=np.int64)))


def test_mapping_validate_follows_targets_not_colours():
    # one colour along the path 0-1-2: the colour joins 0 to 2 through 1,
    # but 1 is another fibre, so fibre {0, 2} is not connected
    path = new_graph(3, [(0, 1), (1, 2)], [0, 0, 0])
    split = ContractionMapping(n=3, n_prime=2, becomes=np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="^fibre 0 does not induce a connected subgraph$"):
        split.validate(path)


def test_mapping_validate_names_the_one_disconnected_fibre():
    # fibres {2i, 2i + 1} on a path; dropping the edge inside pair j leaves
    # that fibre, and no other, disconnected
    k, j = 500, 317
    pairs = ContractionMapping(n=2 * k, n_prime=k, becomes=np.arange(2 * k) // 2)
    path = [(i, i + 1) for i in range(2 * k - 1)]
    pairs.validate(new_graph(2 * k, path, [0] * (2 * k)))
    cut = new_graph(2 * k, [e for e in path if e[0] != 2 * j], [0] * (2 * k))
    with pytest.raises(ValueError, match=f"^fibre {j} does not induce a connected subgraph$"):
        pairs.validate(cut)


def test_mapping_validate_builds_no_graph(monkeypatch, fig24):
    # the fibre connectivity check runs on g itself, labelled by target: no
    # second graph, and so no second validation of g's adjacency
    mp = evaluate_contraction_mapping(fig24)
    built = []
    post_init = ColouredGraph.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(ColouredGraph, "__post_init__", counting)
    mp.validate(fig24)
    assert built == []
    apply_contraction(fig24, mp)  # the counter does see a construction
    assert built == [mp.n_prime]


# ---------------------------------------------------------- application

def test_apply_identity_mapping_is_noop(triangle_two_colours):
    g = triangle_two_colours
    mp = compact_mapping(g, np.arange(3))
    assert graphs_equal(apply_contraction(g, mp), g)


def test_apply_p4_first_step(p4):
    mp = evaluate_contraction_mapping(p4)
    g1 = apply_contraction(p4, mp)
    assert g1.n == 2 and g1.m == 1
    assert g1.colours.tolist() == [0, 0]
    assert g1.edge_array().tolist() == [[0, 1]]


def test_apply_collapses_duplicates_and_self_edges():
    # triangle with two vertices merging: duplicate edges collapse to one
    g = new_graph(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 1])
    mp = compact_mapping(g, np.array([0, 0, 2]))
    h = apply_contraction(g, mp)
    assert h.n == 2 and h.m == 1
    assert h.colours.tolist() == [0, 1]
    k, edges, colours = contract_by_relabel(g, mp.becomes.tolist())
    assert (h.n, {tuple(e) for e in h.edge_array().tolist()}, h.colours.tolist()) == (k, edges, colours)


def test_apply_figure_graph(fig24):
    h = apply_contraction(fig24, evaluate_contraction_mapping(fig24))
    assert h.n == FIG24_EXPECTED["final_n"] and h.m == FIG24_EXPECTED["final_m"]
    assert h.colours.tolist() == FIG24_EXPECTED["final_colours"]
    assert [tuple(e) for e in h.edge_array().tolist()] == FIG24_EXPECTED["final_edges"]
    assert h.is_properly_coloured()


def test_apply_rejects_size_mismatch(p4, triangle_two_colours):
    mp = evaluate_contraction_mapping(triangle_two_colours)
    with pytest.raises(ValueError, match="order"):
        apply_contraction(p4, mp)


def test_apply_rejects_non_monochromatic_fibre(triangle_two_colours):
    mp = ContractionMapping(n=3, n_prime=1, becomes=np.array([0, 0, 0]))
    with pytest.raises(ValueError, match="monochromatic"):
        apply_contraction(triangle_two_colours, mp)


def test_apply_rejects_unknown_scratchpad(p4):
    # the merge has no variants to select; the one merge equals set relabelling
    mp = evaluate_contraction_mapping(p4)
    with pytest.raises(TypeError, match="scratchpad"):
        apply_contraction(p4, mp, scratchpad="other")
    assert relabel_form(apply_contraction(p4, mp)) == contract_by_relabel(p4, mp.becomes.tolist())


def test_scratchpad_variants_agree(p4, fig24, triangle_two_colours):
    for g in (p4, fig24, triangle_two_colours):
        mp = evaluate_contraction_mapping(g)
        assert relabel_form(apply_contraction(g, mp)) == contract_by_relabel(g, mp.becomes.tolist())


def test_merge_duplicate_heavy_and_edgeless():
    # complete bipartite 30 x 40, each side one colour: 2400 edges collapse to one
    a, b = 30, 40
    cross = [(u, a + v) for u in range(a) for v in range(b)]
    g = new_graph(a + b, cross, [0] * a + [1] * b)
    mp = compact_mapping(g, np.array([0] * a + [a] * b))
    h = apply_contraction(g, mp)
    assert (h.n, h.m) == (2, 1)
    assert relabel_form(h) == contract_by_relabel(g, mp.becomes.tolist())
    # the same with a path inside each side, so the engine itself collapses the sides
    paths = [(u, u + 1) for u in range(a - 1)] + [(a + v, a + v + 1) for v in range(b - 1)]
    g = new_graph(a + b, cross + paths, [0] * a + [1] * b)
    final, trace = contract_to_fixpoint(g)
    graphs = replay(g, trace)
    assert (final.n, final.m) == (2, 1)
    for k, record in enumerate(trace.per_iteration):
        assert relabel_form(graphs[k + 1]) == contract_by_relabel(graphs[k], record.mapping.becomes.tolist())
    # edgeless graph, merged by a mapping (apply does not require connected fibres) and by identity
    g = new_graph(5, [], [0, 0, 1, 1, 1])
    for roots in ([0, 0, 2, 2, 2], [0, 1, 2, 3, 4]):
        mp = compact_mapping(g, np.array(roots))
        h = apply_contraction(g, mp)
        assert h.m == 0 and h.n == mp.n_prime > 0
        assert relabel_form(h) == contract_by_relabel(g, mp.becomes.tolist())


# ---------------------------------------------------------- full runs

def test_fixpoint_already_proper():
    g = new_graph(3, [(0, 1), (1, 2)], [0, 1, 0])
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations == 0
    assert graphs_equal(final, g)
    assert trace.total_map.tolist() == [0, 1, 2]
    assert trace.per_iteration == ()


def test_fixpoint_degenerate_orders():
    for g in (new_graph(0, [], []), new_graph(1, [], [0])):
        final, trace = contract_to_fixpoint(g)
        assert trace.iterations == 0 and graphs_equal(final, g)


def test_fixpoint_p4(p4):
    final, trace = contract_to_fixpoint(p4)
    graphs = replay(p4, trace)
    assert trace.iterations == 2
    assert final.n == 1 and final.m == 0
    assert trace.total_map.tolist() == [0, 0, 0, 0]
    assert [g.n for g in graphs] == [4, 2, 1]
    mid = graphs[1]
    assert mid.m == 1 and np.unique(mid.colours).size == 1


def test_fixpoint_records_strictly_decreasing(p4):
    _, trace = contract_to_fixpoint(p4)
    ns = [r.n for r in trace.per_iteration]
    assert all(a > b for a, b in zip(ns, ns[1:]))
    assert all(r.n_prime < r.n for r in trace.per_iteration)


def test_fixpoint_respects_bound(fig24, p4):
    for g in (fig24, p4):
        _, trace = contract_to_fixpoint(g)
        assert trace.iterations <= iteration_bound(g.n)


def test_fixpoint_max_iterations_exceeded(p4):
    with pytest.raises(RuntimeError, match="fixpoint"):
        contract_to_fixpoint(p4, max_iterations=1)


def test_stats_wall_time_accounts_for_whole_run():
    g = generate_fib_instance(18).graph
    ratios = []
    for _ in range(3):  # wall times are noisy; one clean run of three suffices
        started = time.perf_counter()
        final, trace = contract_to_fixpoint(g)
        outer_ms = (time.perf_counter() - started) * 1000.0
        stats = stats_dict(g, final, trace)
        rounds_ms = sum(r.wall_time_ms for r in trace.per_iteration)
        assert trace.finish_wall_time_ms > 0.0
        assert stats["finish_wall_time_ms"] == trace.finish_wall_time_ms
        assert stats["total_wall_time_ms"] == pytest.approx(rounds_ms + trace.finish_wall_time_ms)
        assert stats["total_wall_time_ms"] <= outer_ms
        ratios.append(stats["total_wall_time_ms"] / outer_ms)
    assert max(ratios) >= 0.8, ratios


# ---------------------------------------------------------- composition

def test_compose_zero_iterations_is_identity():
    g = new_graph(3, [(0, 1), (1, 2)], [0, 1, 0])
    _, trace = contract_to_fixpoint(g)
    assert compose_total_mapping(trace).tolist() == [0, 1, 2]


def test_compose_p4(p4):
    _, trace = contract_to_fixpoint(p4)
    assert compose_total_mapping(trace).tolist() == [0, 0, 0, 0]
    assert np.array_equal(compose_total_mapping(trace), trace.total_map)


def test_compose_chain_mismatch(p4, fig24):
    _, trace_a = contract_to_fixpoint(p4)
    _, trace_b = contract_to_fixpoint(fig24)
    mixed = ContractionTrace(
        per_iteration=(trace_b.per_iteration[0], trace_a.per_iteration[1]),
        total_map=np.arange(24),
    )
    with pytest.raises(ValueError, match="chain"):
        compose_total_mapping(mixed)


def test_compose_rejects_targets_outside_the_next_order(p4):
    _, trace = contract_to_fixpoint(p4)
    partition = colour_partition(p4)
    first, second = trace.per_iteration

    # a negative target and one past the round's own order, as the last round
    # and with a round after it: both are chain mismatches
    for becomes in ([0, -1, 1, 1], [0, 2, 0, 1]):
        record = dataclasses.replace(first, mapping=dataclasses.replace(first.mapping, becomes=np.asarray(becomes)))
        alone = ContractionTrace(per_iteration=(record,), total_map=np.asarray(becomes))
        chained = ContractionTrace(per_iteration=(record, second), total_map=np.zeros(4, dtype=np.int64))
        for tampered in (alone, chained):
            with pytest.raises(ValueError, match="targets"):
                compose_total_mapping(tampered)
            assert not equivalent_contractions(p4, tampered, partition)


def test_total_map_matches_oracle_blocks(fig24):
    _, trace = contract_to_fixpoint(fig24)
    part = colour_partition(fig24)
    assert trace.total_map.tolist() == part.becomes.tolist()


# ---------------------------------------------------------- equivalence

def test_equivalent_on_fixtures(p4, fig24, triangle_two_colours):
    for g in (p4, fig24, triangle_two_colours):
        final, trace = contract_to_fixpoint(g)
        assert equivalent_contractions(g, trace, colour_partition(g))
        oracle_graph, _ = component_contraction(g)
        assert graphs_equal(final, oracle_graph)


def test_equivalent_false_on_tampered_total_map():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
    _, trace = contract_to_fixpoint(g)
    tampered = ContractionTrace(
        per_iteration=trace.per_iteration,
        total_map=np.zeros(4, dtype=np.int64),  # merges the two different-colour blocks
    )
    assert not equivalent_contractions(g, tampered, colour_partition(g))


def test_equivalent_false_on_tampered_mapping():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
    _, trace = contract_to_fixpoint(g)
    fake = ContractionMapping(n=4, n_prime=1, becomes=np.zeros(4, dtype=np.int64))
    tampered = ContractionTrace(per_iteration=trace.per_iteration[:0] + (
        type(trace.per_iteration[0])(m=3, mapping=fake, wall_time_ms=0.0),),
        total_map=np.zeros(4, dtype=np.int64))
    assert not equivalent_contractions(g, tampered, colour_partition(g))


def test_equivalent_false_on_wrong_partition(p4):
    _, trace = contract_to_fixpoint(p4)
    g2 = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 1])
    assert not equivalent_contractions(p4, trace, colour_partition(g2))


def _partition(n, n_prime, becomes):
    return ContractionMapping(n=n, n_prime=n_prime, becomes=np.asarray(becomes))


def test_equivalent_false_on_malformed_partitions_the_set_check_misreads():
    # blocks {0, 1}, {2, 3}, {4}, {5}
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 0, 1, 1, 0, 2])
    _, trace = contract_to_fixpoint(g)
    becomes = [0, 0, 1, 1, 2, 3]
    assert equivalent_contractions(g, trace, _partition(6, 4, becomes))
    # the set check reads the fibres alone, never the orders the mapping claims
    lax = {
        "source order too large": _partition(7, 4, becomes),
        "target count one short": _partition(6, 3, becomes),
    }
    for name, partition in lax.items():
        assert equivalent_by_sets(g, trace, partition), name
        assert not equivalent_contractions(g, trace, partition), name
    # and counts the fibres with bincount, which refuses these targets
    for name, partition in {
        "negative target": _partition(6, 4, [0, 0, 1, 1, -1, 3]),
        "float targets": _partition(6, 4, [0.0, 0.0, 1.0, 1.0, 2.0, 3.0]),
        "two-dimensional targets": _partition(6, 4, [becomes]),
    }.items():
        with pytest.raises((ValueError, TypeError)):
            equivalent_by_sets(g, trace, partition)
        assert not equivalent_contractions(g, trace, partition), name


def test_equivalent_false_on_partitions_only_one_check_catches():
    # blocks {0, 1}, {2, 3}, {4}, {5}; {0, 1} and {4} share a colour and no edge
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 0, 1, 1, 0, 2])
    # blocks {0}, {1, 2}
    path = new_graph(3, [(0, 1), (1, 2)], [1, 0, 0])
    cases = {
        # colours and block-level edges agree; the target count does not
        "blocks merged": (g, _partition(6, 3, [0, 0, 1, 1, 0, 2])),
        # as many targets as fibres, one of them unused
        "blocks merged, an unused target added": (g, _partition(6, 4, [0, 0, 1, 1, 0, 2])),
        # as many targets as fibres, colours and block-level edges agree; a fibre straddles two blocks
        "vertex moved": (path, _partition(3, 2, [0, 0, 1])),
        # the fibre {1, 2} split by a target past the claimed count
        "target out of range": (path, _partition(3, 2, [0, 1, 2])),
    }
    for name, (h, partition) in cases.items():
        _, trace = contract_to_fixpoint(h)
        assert equivalent_contractions(h, trace, colour_partition(h)), name
        assert not equivalent_by_sets(h, trace, partition), name
        assert not equivalent_contractions(h, trace, partition), name


def test_equivalent_false_on_malformed_trace(p4):
    _, trace = contract_to_fixpoint(p4)
    partition = colour_partition(p4)
    first, second = trace.per_iteration

    def replaced(record, becomes):
        return dataclasses.replace(record, mapping=dataclasses.replace(record.mapping, becomes=np.asarray(becomes)))

    cases = {
        # round one points past the order of round two
        "target out of range": ((replaced(first, [0, 5, 0, 1]), second), np.zeros(4, dtype=np.int64)),
        "negative target": ((first, replaced(second, [0, -1])), np.array([0, -1, 0, -1])),
        "float targets": ((replaced(first, [0.0, 1.0, 0.0, 1.0]), second), np.zeros(4, dtype=np.int64)),
        "float targets in the last round": ((first, replaced(second, [0.0, 0.0])), np.zeros(4)),
        "final map past the order": ((first, replaced(second, [0, 10**12])), np.array([0, 10**12, 0, 10**12])),
    }
    assert not equivalent_by_sets(p4, ContractionTrace(*cases["target out of range"]), partition)
    for name, (records, total) in cases.items():
        tampered = ContractionTrace(per_iteration=records, total_map=total)
        assert not equivalent_contractions(p4, tampered, partition), name


def test_equivalent_false_when_final_edges_differ(fig24, monkeypatch):
    _, trace = contract_to_fixpoint(fig24)
    partition = colour_partition(fig24)
    assert equivalent_contractions(fig24, trace, partition)
    real = engine.apply_contraction

    def dropping_one_edge(g, mapping):
        out = real(g, mapping)
        return new_graph(out.n, out.edge_array()[1:], out.colours)

    monkeypatch.setattr(engine, "apply_contraction", dropping_one_edge)
    assert not equivalent_contractions(fig24, trace, partition)
