import dataclasses
import time

import numpy as np
import pytest

from colourcontract import (
    ColouredGraph,
    ContractionMapping,
    ContractionTrace,
    IterationRecord,
    RandomSpec,
    apply_contraction,
    assign_random_colours,
    colour_partition,
    contract_to_fixpoint,
    equivalent_contractions,
    evaluate_contraction_mapping,
    gen_erdos_renyi,
    generate_fib_instance,
    graphs_equal,
    iteration_bound,
    new_graph,
    stats_dict,
)
from colourcontract import engine, graph
from colourcontract.engine import _compose, build_functional_digraph, compact_mapping, project_to_roots
from colourcontract.graph import colour_neighbourhood_set, same_colour_part
from reference_impls import (
    compose_forward,
    contract_by_relabel,
    equivalent_by_sets,
    relabel_form,
    replay,
    roots_by_iterated_lookup,
    unionfind_blocks,
)

from conftest import FIG24_EXPECTED, check_whole_edge_rounds


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
    assert build_functional_digraph(same_colour_part(triangle_two_colours)).tolist() == [0, 0, 2]


def test_digraph_takes_every_edge_it_is_handed():
    # the pointers read no colours: the caller hands over one colour's edges
    g = new_graph(2, [(0, 1)], [0, 1])
    assert build_functional_digraph(g).tolist() == [0, 0]


def test_pointers_across_colours_are_refused(triangle_two_colours):
    # a pointer over an edge between two colours makes a fibre of two
    # colours, and the quotient refuses it
    g = triangle_two_colours
    mapping = compact_mapping(g, project_to_roots(build_functional_digraph(g)))
    with pytest.raises(ValueError, match="some fibre is not monochromatic"):
        apply_contraction(g, mapping)


def test_evaluation_of_a_whole_graph_reads_one_colour_edges(monkeypatch, triangle_two_colours):
    # the whole-graph entry point hands the pointers only the edge inside
    # colour 0, so vertex 2 keeps a fibre of its own
    real = engine.build_functional_digraph
    handed = []
    monkeypatch.setattr(engine, "build_functional_digraph", lambda g: handed.append(g) or real(g))
    mapping = evaluate_contraction_mapping(triangle_two_colours)
    assert mapping.becomes.tolist() == [0, 0, 1]
    assert [h.edge_array().tolist() for h in handed] == [[[0, 1]]]


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
    assert build_functional_digraph(same_colour_part(g)).tolist() == expected


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


def test_mapping_checks_reject_an_empty_target():
    # [0, 0, 2, 2] leaves target 1 empty; with n_prime 5 it also claims more targets than vertices
    for n_prime, message in ((3, "^target 1 has no member$"), (5, "^mapping cannot increase the order$")):
        with pytest.raises(ValueError, match=message):
            ContractionMapping(n=4, n_prime=n_prime, becomes=np.array([0, 0, 2, 2]))


def test_mapping_target_check_is_shared(p4):
    # one check at construction, whether a mapping is built directly or
    # copied from a round with new targets
    _, trace = contract_to_fixpoint(p4)
    first = trace.per_iteration[0].mapping
    message = r"^mapping of order 4 needs 4 integer targets in \[0, 2\)$"
    for becomes in ([0.0, 1.0, 0.0, 1.0], [0, 1, 0], [0, 2, 0, 1], [0, -1, 0, 1], [[0, 1, 0, 1]]):
        with pytest.raises(ValueError, match=message):
            ContractionMapping(n=4, n_prime=2, becomes=np.array(becomes))
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(first, becomes=np.array(becomes))


def test_mapping_orders_must_be_integers():
    with pytest.raises(TypeError):
        ContractionMapping(n=4.0, n_prime=1, becomes=np.zeros(4, dtype=np.int64))
    with pytest.raises(TypeError):
        ContractionMapping(n=4, n_prime=1.0, becomes=np.zeros(4, dtype=np.int64))


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
    # only cross-colour edges: no round runs, and the input itself comes back
    g = new_graph(3, [(0, 1), (1, 2)], [0, 1, 0])
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations == 0
    assert final is g
    assert trace.total_map.tolist() == [0, 1, 2]
    assert trace.per_iteration == ()


def test_fixpoint_degenerate_orders():
    for g in (new_graph(0, [], []), new_graph(1, [], [0])):
        final, trace = contract_to_fixpoint(g)
        assert trace.iterations == 0 and final is g


def test_rounds_read_only_same_colour_edges():
    # one colour: round 1 reads every edge, and no edge is left to relabel
    g = generate_fib_instance(12).graph
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations == 12 and trace.per_iteration[0].m == g.m
    assert (final.n, final.m) == (1, 0)
    check_whole_edge_rounds(g, final, trace)
    # 64 colours: almost every edge joins two colours, never read by a round,
    # and reaches the final graph through the composed map
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=3000, m=24000, seed=0)), 64, seed=1)
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations >= 2 and trace.per_iteration[0].m < g.m // 32
    assert final.m > g.m // 2
    check_whole_edge_rounds(g, final, trace)


def _check_by_sets(g, final, trace):
    """A run against the set references: the fibres of ``total_map`` are g's
    colour components, and ``final`` is g's quotient by them."""
    fibres = {}
    for v, t in enumerate(trace.total_map.tolist()):
        fibres.setdefault(t, set()).add(v)
    assert {frozenset(f) for f in fibres.values()} == unionfind_blocks(g)
    assert relabel_form(final) == contract_by_relabel(g, trace.total_map.tolist())


@pytest.mark.parametrize("block", [1, 3, 4])
def test_contraction_on_block_edges(monkeypatch, block):
    # the split, every round's pointers and quotient, the finish and the
    # validation of every graph walk the keys one block at a time: with
    # blocks of 1, 3 and 4 keys, each run agrees with the set references
    monkeypatch.setattr(graph, "_KEY_BLOCK", block)
    rng = np.random.default_rng(40 + block)
    n = 14
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graphs = [new_graph(n, [], rng.integers(0, 2, size=n))]
    # exactly one block, one key past it, and several blocks
    for m in (block, block + 1, 3 * block + 2, 40):
        for colours in (2, 5):
            edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
            graphs.append(new_graph(n, edges, rng.integers(0, colours, size=n)))
    # a block boundary inside one fibre: the path 0..8 in one colour, its
    # keys between those of edges to two vertices of another colour
    path = [(v, v + 1) for v in range(8)]
    graphs.append(new_graph(11, path + [(0, 9), (2, 10), (4, 9), (7, 10), (9, 10)], [0] * 9 + [1, 2]))
    finishes = set()
    for g in graphs:
        want = [min([v] + [u for u, w in g.edge_array().tolist() if w == v and g.colours[u] == g.colours[v]]) for v in range(g.n)]
        assert build_functional_digraph(same_colour_part(g)).tolist() == want
        final, trace = contract_to_fixpoint(g)
        _check_by_sets(g, final, trace)
        if trace.iterations:
            finishes.add(final.n * final.n <= 2 * g.m)
    # the finish marked a bitmap and sorted crossing keys
    assert finishes == {True, False}


def test_one_colour_keys_are_not_copied_and_the_finish_marks_nothing(monkeypatch):
    # every edge joins one colour: round 1 reads the input's own keys, and
    # with no edge between two colours the finish relabels no key
    monkeypatch.setattr(graph, "_KEY_BLOCK", 4)
    real = engine.relabel_keys
    calls = []
    monkeypatch.setattr(engine, "relabel_keys", lambda n, keys, label, k: calls.append(keys) or real(n, keys, label, k))
    g = generate_fib_instance(8).graph
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations == 8 and (final.n, final.m) == (1, 0)
    assert calls[0] is g.keys
    assert len(calls) == 9 and calls[-1].size == 0
    _check_by_sets(g, final, trace)


def test_every_edge_crossing_colours_runs_no_round(monkeypatch):
    # a properly coloured input over several blocks: no round, no relabel,
    # and the input itself comes back
    monkeypatch.setattr(graph, "_KEY_BLOCK", 4)
    monkeypatch.setattr(engine, "relabel_keys", None)
    n = 12
    g = new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u + v) % 2], np.arange(n) % 2)
    assert g.m > 8 and g.is_properly_coloured()
    final, trace = contract_to_fixpoint(g)
    assert final is g and trace.iterations == 0
    _check_by_sets(g, final, trace)


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


def test_fixpoint_max_iterations_exceeded(p4, monkeypatch):
    # the guard allows exactly iteration_bound(n) applications, and p4 needs two
    monkeypatch.setattr(engine, "iteration_bound", lambda n: 1)
    with pytest.raises(RuntimeError, match="fixpoint"):
        contract_to_fixpoint(p4)
    monkeypatch.setattr(engine, "iteration_bound", lambda n: 2)
    final, trace = contract_to_fixpoint(p4)
    assert trace.iterations == 2 and final.n == 1


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


def test_finish_wall_time_counts_the_final_relabelling(monkeypatch, fig24):
    # the cross-colour edges are relabelled after the last round, inside the finish
    real = engine.relabel_keys

    def slow(n, keys, label, k):
        time.sleep(0.05)
        return real(n, keys, label, k)

    monkeypatch.setattr(engine, "relabel_keys", slow)
    final, trace = contract_to_fixpoint(fig24)
    assert trace.iterations == 1 and final.m == FIG24_EXPECTED["final_m"]
    assert trace.finish_wall_time_ms >= 50.0


# ---------------------------------------------------------- composition

def test_compose_zero_iterations_is_identity():
    g = new_graph(3, [(0, 1), (1, 2)], [0, 1, 0])
    _, trace = contract_to_fixpoint(g)
    assert trace.iterations == 0
    assert trace.total_map.tolist() == [0, 1, 2]


def test_compose_p4(p4):
    _, trace = contract_to_fixpoint(p4)
    first, second = (r.mapping for r in trace.per_iteration)
    assert first.becomes.tolist() == [0, 1, 0, 1] and second.becomes.tolist() == [0, 0]
    assert trace.total_map.tolist() == [0, 0, 0, 0]


def test_compose_chain_mismatch(p4, fig24):
    _, trace_a = contract_to_fixpoint(p4)
    final_b, trace_b = contract_to_fixpoint(fig24)
    partition = colour_partition(fig24)
    mixed = ContractionTrace(
        per_iteration=(trace_b.per_iteration[0], trace_a.per_iteration[1]),
        total_map=np.arange(24),
    )
    with pytest.raises(ValueError, match="chain"):
        _compose(24, [r.mapping for r in mixed.per_iteration])
    assert equivalent_contractions(fig24, final_b, trace_b, partition)
    assert not equivalent_contractions(fig24, final_b, mixed, partition)


def test_compose_checks_the_whole_chain_before_composing(p4):
    # the chain is checked first to last, and only then composed from the
    # last mapping back: a mismatch anywhere raises, naming the first one
    _, trace = contract_to_fixpoint(p4)
    first, second = (r.mapping for r in trace.per_iteration)
    for n0, chain, expected, got in ((5, [first, second], 5, 4), (4, [first, first], 2, 4), (4, [first, second, second], 1, 2)):
        message = f"^mapping chain mismatch: expected source order {expected}, got {got}$"
        with pytest.raises(ValueError, match=message):
            _compose(n0, chain)
        with pytest.raises(ValueError, match=message):
            compose_forward(n0, chain)
    assert np.array_equal(_compose(4, [first, second]), compose_forward(4, [first, second]))
    assert _compose(4, []).tolist() == [0, 1, 2, 3]


def test_compose_rejects_targets_outside_the_next_order(p4):
    # a negative target and one past the round's own order cannot be built,
    # so no trace can carry them into a composition
    _, trace = contract_to_fixpoint(p4)
    first = trace.per_iteration[0]
    for becomes in ([0, -1, 1, 1], [0, 2, 0, 1]):
        with pytest.raises(ValueError, match=r"^mapping of order 4 needs 4 integer targets in \[0, 2\)$"):
            dataclasses.replace(first, mapping=dataclasses.replace(first.mapping, becomes=np.asarray(becomes)))


def test_total_map_matches_oracle_blocks(fig24):
    _, trace = contract_to_fixpoint(fig24)
    part = colour_partition(fig24)
    assert trace.total_map.tolist() == part.becomes.tolist()


# ---------------------------------------------------------- equivalence

def test_equivalent_on_fixtures(p4, fig24, triangle_two_colours):
    for g in (p4, fig24, triangle_two_colours):
        final, trace = contract_to_fixpoint(g)
        assert equivalent_contractions(g, final, trace, colour_partition(g))
        assert graphs_equal(final, apply_contraction(g, colour_partition(g)))


def test_equivalent_false_on_tampered_total_map():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
    final, trace = contract_to_fixpoint(g)
    tampered = ContractionTrace(
        per_iteration=trace.per_iteration,
        total_map=np.zeros(4, dtype=np.int64),  # merges the two different-colour blocks
    )
    assert not equivalent_contractions(g, final, tampered, colour_partition(g))


def test_equivalent_false_on_tampered_mapping():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
    final, trace = contract_to_fixpoint(g)
    fake = ContractionMapping(n=4, n_prime=1, becomes=np.zeros(4, dtype=np.int64))
    tampered = ContractionTrace(per_iteration=trace.per_iteration[:0] + (
        type(trace.per_iteration[0])(m=3, mapping=fake, wall_time_ms=0.0),),
        total_map=np.zeros(4, dtype=np.int64))
    assert not equivalent_contractions(g, final, tampered, colour_partition(g))


def test_equivalent_false_on_wrong_partition(p4):
    final, trace = contract_to_fixpoint(p4)
    g2 = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 1])
    assert not equivalent_contractions(p4, final, trace, colour_partition(g2))


def _partition(n, n_prime, becomes):
    return ContractionMapping(n=n, n_prime=n_prime, becomes=np.asarray(becomes))


def test_equivalent_false_on_malformed_partitions_the_set_check_misreads():
    # blocks {0, 1}, {2, 3}, {4}, {5}
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 0, 1, 1, 0, 2])
    final, trace = contract_to_fixpoint(g)
    becomes = [0, 0, 1, 1, 2, 3]
    assert equivalent_contractions(g, final, trace, _partition(6, 4, becomes))
    # the set check reads the fibres alone, never the orders the mapping
    # claims, and counts them with bincount; none of these can be built
    for name, (n, n_prime, targets) in {
        "source order too large": (7, 4, becomes),
        "target count one short": (6, 3, becomes),
        "negative target": (6, 4, [0, 0, 1, 1, -1, 3]),
        "float targets": (6, 4, [0.0, 0.0, 1.0, 1.0, 2.0, 3.0]),
        "two-dimensional targets": (6, 4, [becomes]),
    }.items():
        message = rf"^mapping of order {n} needs {n} integer targets in \[0, {n_prime}\)$"
        with pytest.raises(ValueError, match=message):
            _partition(n, n_prime, targets)


def test_equivalent_false_on_partitions_only_one_check_catches():
    # blocks {0, 1}, {2, 3}, {4}, {5}; {0, 1} and {4} share a colour and no edge
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 0, 1, 1, 0, 2])
    # blocks {0}, {1, 2}
    path = new_graph(3, [(0, 1), (1, 2)], [1, 0, 0])
    cases = {
        # colours and block-level edges agree; the target count does not
        "blocks merged": (g, _partition(6, 3, [0, 0, 1, 1, 0, 2])),
        # as many targets as fibres, colours and block-level edges agree; a fibre straddles two blocks
        "vertex moved": (path, _partition(3, 2, [0, 0, 1])),
    }
    for name, (h, partition) in cases.items():
        final, trace = contract_to_fixpoint(h)
        assert equivalent_contractions(h, final, trace, colour_partition(h)), name
        assert not equivalent_by_sets(h, trace, partition), name
        assert not equivalent_contractions(h, final, trace, partition), name
    # as many targets as fibres, one of them unused; and the fibre {1, 2}
    # split by a target past the claimed count: neither can be built
    with pytest.raises(ValueError, match="^target 3 has no member$"):
        _partition(6, 4, [0, 0, 1, 1, 0, 2])
    with pytest.raises(ValueError, match=r"^mapping of order 3 needs 3 integer targets in \[0, 2\)$"):
        _partition(3, 2, [0, 1, 2])


def test_equivalent_false_on_malformed_trace(p4):
    # no malformed round can be built, so none reaches a trace
    _, trace = contract_to_fixpoint(p4)
    first, second = (r.mapping for r in trace.per_iteration)
    cases = {
        # round one points past the order of round two
        "target out of range": (first, [0, 5, 0, 1]),
        "negative target": (second, [0, -1]),
        "float targets": (first, [0.0, 1.0, 0.0, 1.0]),
        "float targets in the last round": (second, [0.0, 0.0]),
        "final map past the order": (second, [0, 10**12]),
    }
    for name, (mapping, becomes) in cases.items():
        n, k = mapping.n, mapping.n_prime
        with pytest.raises(ValueError, match=rf"^mapping of order {n} needs {n} integer targets in \[0, {k}\)$"):
            dataclasses.replace(mapping, becomes=np.asarray(becomes))


def test_equivalent_false_when_final_edges_differ(fig24):
    final, trace = contract_to_fixpoint(fig24)
    partition = colour_partition(fig24)
    assert equivalent_contractions(fig24, final, trace, partition)
    recoloured = final.colours.copy()
    recoloured[0] += 1
    for name, wrong in {
        "one edge dropped": new_graph(final.n, final.edge_array()[1:], final.colours),
        "one vertex recoloured": new_graph(final.n, final.edge_array(), recoloured),
        "one vertex added": new_graph(final.n + 1, final.edge_array(), np.append(final.colours, 0)),
        "the input graph": fig24,
    }.items():
        assert not equivalent_contractions(fig24, wrong, trace, partition), name


def test_equivalent_accepts_a_renumbered_last_round(fig24):
    # fibres are compared by smallest member and final with the quotient by
    # the composed map, so a last round numbered otherwise still holds when
    # total_map and final follow the same numbering
    final, trace = contract_to_fixpoint(fig24)
    partition = colour_partition(fig24)
    last = trace.per_iteration[-1]
    sigma = np.random.default_rng(5).permutation(last.n_prime)
    assert not np.array_equal(sigma, np.arange(last.n_prime))
    renumbered = ContractionTrace(
        per_iteration=trace.per_iteration[:-1] + (dataclasses.replace(last, mapping=dataclasses.replace(last.mapping, becomes=sigma[last.mapping.becomes])),),
        total_map=sigma[trace.total_map],
    )
    colours = np.empty(final.n, dtype=np.int64)
    colours[sigma] = final.colours
    final_sigma = new_graph(final.n, sigma[final.edge_array()], colours)
    assert equivalent_by_sets(fig24, renumbered, partition)
    assert equivalent_contractions(fig24, final_sigma, renumbered, partition)
    # each half alone is refused: the final graph must follow the numbering
    assert not equivalent_contractions(fig24, final, renumbered, partition)
    assert not equivalent_contractions(fig24, final_sigma, trace, partition)


def test_equivalent_false_on_a_block_of_two_colours():
    # one round maps the path 0-1-2-3, coloured [0, 0, 1, 1], to one vertex,
    # and the partition is the same map: the fibres agree, but no quotient
    # exists, so no one-vertex final graph of either colour is accepted
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1])
    one = ContractionMapping(n=4, n_prime=1, becomes=np.zeros(4, dtype=np.int64))
    trace = ContractionTrace(per_iteration=(IterationRecord(m=3, mapping=one, wall_time_ms=0.0),), total_map=np.zeros(4, dtype=np.int64))
    for colour in (0, 1):
        assert not equivalent_contractions(g, new_graph(1, [], [colour]), trace, one), colour
    assert not equivalent_by_sets(g, trace, one)


def test_equivalent_false_on_a_round_target_without_a_member():
    # target 1 of round one has no member; composed with a round [0, 0, 0],
    # the rounds would still send every vertex to the one block, so only a
    # per-round check sees the gap: construction is that check
    with pytest.raises(ValueError, match="^target 1 has no member$"):
        _partition(4, 3, [0, 2, 0, 2])


def test_equivalent_accepts_unsigned_round_targets(p4, fig24):
    for g in (p4, fig24):
        final, trace = contract_to_fixpoint(g)
        unsigned = ContractionTrace(
            per_iteration=tuple(
                dataclasses.replace(r, mapping=dataclasses.replace(r.mapping, becomes=r.mapping.becomes.astype(np.uint64)))
                for r in trace.per_iteration
            ),
            total_map=trace.total_map.astype(np.uint64),
        )
        assert equivalent_contractions(g, final, unsigned, colour_partition(g))


def test_contraction_keeps_uint64_colours_at_and_above_2_63():
    # a valid graph whose colour ids int64 cannot hold: the quotient's
    # colours are scattered in the input's own dtype, so the rounds, the
    # oracle's quotient and the equivalence check all accept it
    g = ColouredGraph(n=3, colours=np.array([2**63, 2**63, 0], dtype=np.uint64), keys=np.array([1, 5]))
    final, trace = contract_to_fixpoint(g)
    assert trace.iterations == 1 and (final.n, final.keys.tolist()) == (2, [1])
    assert final.colours.dtype == np.uint64 and final.colours.tolist() == [2**63, 0]
    partition = colour_partition(g)
    assert equivalent_contractions(g, final, trace, partition)
    assert graphs_equal(apply_contraction(g, partition), final)


def test_contracted_graph_keeps_its_colour_dtype():
    # ids up to 127 (int8 holds no more) and up to 255 (the narrowed split
    # compare's uint8 holds no more), in every integer type that holds them:
    # the same final graph, colours in the input's dtype, after any rounds
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=400, m=1600, seed=3)), 4, seed=4)
    for top, dtypes in ((127, (np.int8, np.uint8, np.int64, np.uint64)), (255, (np.uint8, np.int16, np.int64, np.uint64))):
        ids = np.array([0, 1, top // 2, top])[g.colours]
        results = []
        for dtype in dtypes:
            h = ColouredGraph(n=g.n, colours=ids.astype(dtype), keys=g.keys)
            final, trace = contract_to_fixpoint(h)
            assert trace.iterations >= 2 and final.colours.dtype == dtype
            assert equivalent_contractions(h, final, trace, colour_partition(h))
            results.append(final)
        assert all(graphs_equal(results[0], final) for final in results[1:])


def test_split_tells_colours_apart_beyond_a_byte():
    # the split compares a uint8 copy of the colours only when every id fits:
    # colours that agree in their low byte, or in their low 63 bits, stay apart
    for colours in ([0, 0, 256], [1, 1, 2**40 + 1], np.array([2**63, 2**63, 0], dtype=np.uint64)):
        g = ColouredGraph(n=3, colours=np.asarray(colours), keys=np.array([1, 5]))
        final, trace = contract_to_fixpoint(g)
        assert trace.iterations == 1 and (final.n, final.m) == (2, 1), colours
        assert final.colours.tolist() == [int(colours[0]), int(colours[2])]
        assert contract_to_fixpoint(ColouredGraph(n=2, colours=g.colours[1:], keys=np.array([1])))[0].n == 2
