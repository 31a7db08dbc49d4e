import numpy as np
import pytest

from colourcontract import engine, worstcase
from colourcontract import (
    apply_contraction,
    classify_roles,
    contract_to_fixpoint,
    evaluate_contraction_mapping,
    fib_number,
    generate_fib_instance,
    graphs_equal,
    iteration_bound,
    new_graph,
)
from reference_impls import component_orders, fib_by_growth, r_star
from test_acceptance import _random_corpus


def test_fib_number_values():
    assert [fib_number(j) for j in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fib_number(-1)


def test_level_zero():
    inst = generate_fib_instance(0)
    assert inst.graph.n == 1 and inst.graph.m == 0
    assert inst.roles == ("R",)


def test_level_one_is_single_edge():
    inst = generate_fib_instance(1)
    assert inst.graph.n == 2
    assert inst.graph.edge_array().tolist() == [[0, 1]]
    assert inst.roles == ("P", "Q")


def test_level_two_explicit():
    inst = generate_fib_instance(2)
    assert inst.graph.n == 3
    assert [tuple(e) for e in inst.graph.edge_array().tolist()] == [(0, 2), (1, 2)]
    assert inst.roles == ("P", "R", "Q")
    mp = evaluate_contraction_mapping(inst.graph)
    assert mp.becomes.tolist() == [0, 1, 0]


# every tightness check runs on every level up to the benchmark's fib22
LEVELS = range(0, 23)


@pytest.fixture(scope="module")
def family():
    return [generate_fib_instance(i) for i in LEVELS]


def test_orders_follow_fibonacci(family):
    expected = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    for i, order in enumerate(expected):
        assert family[i].graph.n == order
    for i, inst in enumerate(family):
        assert inst.level == i
        assert inst.graph.n == fib_number(i + 2), i
        assert np.unique(inst.graph.colours).size == 1, i


def test_one_step_reproduces_previous_level(family):
    for i in LEVELS[1:]:
        g = family[i].graph
        stepped = apply_contraction(g, evaluate_contraction_mapping(g))
        assert graphs_equal(stepped, family[i - 1].graph), i


def test_step_map_closed_form(family):
    # at level 0 the closed form is the identity on the one vertex
    for i in LEVELS:
        prev_n = fib_number(i + 1)
        mp = evaluate_contraction_mapping(family[i].graph)
        idx = np.arange(family[i].graph.n)
        assert mp.n_prime == prev_n, i
        assert np.array_equal(mp.becomes, np.where(idx < prev_n, idx, idx - prev_n)), i


def test_pointer_forest_clusters_have_order_at_most_two(family):
    for i in LEVELS:
        mp = evaluate_contraction_mapping(family[i].graph)
        assert int(mp.cluster_sizes.max(initial=1)) <= 2, i


def test_role_window_counts(family):
    assert family[0].roles == ("R",)
    for i in LEVELS[1:]:
        roles = family[i].roles
        assert roles.count("P") == fib_number(i)
        assert roles.count("P") + roles.count("R") == fib_number(i + 1)
        assert roles.count("Q") == fib_number(i)
        # windows are contiguous: P block, then R, then Q
        joined = "".join(roles)
        assert joined == "P" * fib_number(i) + "R" * fib_number(i - 1) + "Q" * fib_number(i), i


def test_classify_roles_matches_generator_labels(family):
    for i in LEVELS:
        assert classify_roles(family[i].graph) == family[i].roles, i


def test_exactly_level_many_iterations(family):
    for i in LEVELS:
        g = family[i].graph
        final, trace = contract_to_fixpoint(g)
        assert final.n == 1, i
        assert trace.iterations == i == iteration_bound(g.n), i


def test_level_ceiling_enforced():
    with pytest.raises(ValueError, match="level"):
        generate_fib_instance(31)
    with pytest.raises(ValueError, match="level"):
        generate_fib_instance(-1)


def test_closed_form_matches_growth_through_the_engine():
    for i in range(0, 21):
        inst = generate_fib_instance(i)
        graph, roles, _ = fib_by_growth(i)
        assert graphs_equal(inst.graph, graph), i
        assert inst.roles == roles, i


def test_generator_runs_no_engine_code(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the generator called the engine")

    # worstcase imports engine functions by name, so patch both modules
    for name in ("evaluate_contraction_mapping", "apply_contraction", "contract_to_fixpoint",
                 "build_functional_digraph", "project_to_roots", "compact_mapping"):
        for module in (engine, worstcase):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    inst = generate_fib_instance(12)
    assert inst.graph.n == fib_number(14) and inst.graph.m == fib_number(14) - 1
    monkeypatch.undo()
    assert graphs_equal(inst.graph, fib_by_growth(12)[0])


# ------------------------------------------- the sharp bound, per component

# connected labelled graphs on s vertices, and how many of them need r_star(s) rounds
CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
NEEDING_THE_BOUND = {1: 1, 2: 1, 3: 1, 4: 17, 5: 2, 6: 128}


def _edge_sets_union(n, masks):
    """Disjoint union of the one-colour graphs on n vertices whose edge sets
    are the given bit masks over the pairs (i, j), i < j, in lexicographic
    order: graph number t of the union sits on vertices t*n .. t*n + n - 1."""
    lo, hi = np.triu_indices(n, 1)
    which, bit = np.nonzero((np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(lo.size)) & 1)
    order = n * len(masks)
    return new_graph(order, np.column_stack([which * n + lo[bit], which * n + hi[bit]]), np.zeros(order, dtype=np.int64))


def _per_component(g):
    """Per final vertex: its smallest original vertex, its component's order
    and the rounds in which that component still had more than one vertex."""
    _, trace = contract_to_fixpoint(g)
    orders = component_orders(g, trace)
    smallest = np.unique(trace.total_map, return_index=True)[1]
    return smallest, orders, (orders[:-1] > 1).sum(axis=0)


def _assert_round_law(orders):
    """n_j >= n_{j+1} + n_{j+2} for every component while n_{j+1} > 1."""
    for j in range(orders.shape[0] - 2):
        open_ = orders[j + 1] > 1
        assert (orders[j][open_] >= orders[j + 1][open_] + orders[j + 2][open_]).all(), j


@pytest.fixture(scope="module")
def all_small_graphs():
    """For n = 1..6, every labelled one-colour graph on n vertices, as one
    disjoint union (n = 6: 2**15 graphs, 196 608 vertices, 245 760 edges),
    contracted once."""
    unions = {}
    for n in range(1, 7):
        g = _edge_sets_union(n, range(2 ** (n * (n - 1) // 2)))
        unions[n] = (g, *_per_component(g))
    assert unions[6][0].n == 196608 and unions[6][0].m == 245760
    return unions


def test_every_component_order_up_to_six_attains_the_sharp_bound(all_small_graphs):
    for n, (g, _, orders, rounds) in all_small_graphs.items():
        sizes = orders[0]
        assert sizes.sum() == g.n
        for s in range(1, n + 1):
            assert rounds[sizes == s].max() == r_star(s) == iteration_bound(s), (n, s)
        _assert_round_law(orders)


def test_counts_of_connected_graphs_needing_the_sharp_bound(all_small_graphs):
    for s in range(1, 7):
        _, _, orders, rounds = all_small_graphs[s]
        connected = orders[0] == s
        assert connected.sum() == CONNECTED[s], s
        assert (rounds[connected] == r_star(s)).sum() == NEEDING_THE_BOUND[s], s


def test_a_component_contracts_in_the_union_as_it_does_alone(all_small_graphs):
    g, smallest, orders, rounds = all_small_graphs[6]
    worst = np.flatnonzero((orders[0] == 6) & (rounds == 3))
    picked = np.unique(np.concatenate([smallest[worst[::40]] // 6, np.random.default_rng(0).integers(0, 2**15, 8)]))
    for mask in picked.tolist():
        alone = _edge_sets_union(6, [mask])
        smallest_alone, orders_alone, rounds_alone = _per_component(alone)
        for c, v in enumerate(smallest_alone.tolist()):
            u = int(np.searchsorted(smallest, mask * 6 + v))
            assert smallest[u] == mask * 6 + v, (mask, v)
            assert rounds[u] == rounds_alone[c], (mask, v)
            assert np.array_equal(orders[: rounds[u] + 1, u], orders_alone[: rounds_alone[c] + 1, c]), (mask, v)


def test_every_component_of_the_corpus_and_the_family_meets_the_round_law():
    # the 512 random cases and fib levels 0..22: no component takes more
    # than r_star(its order) rounds, and the law holds while it is unfinished
    graphs = [g for _, g in _random_corpus()] + [generate_fib_instance(i).graph for i in range(23)]
    for case, g in enumerate(graphs):
        _, orders, rounds = _per_component(g)
        assert (rounds <= [r_star(int(s)) for s in orders[0]]).all(), case
        _assert_round_law(orders)


def test_worst_case_family_meets_the_round_law_with_equality():
    for i in range(2, 17):
        g = generate_fib_instance(i).graph
        _, orders, rounds = _per_component(g)
        assert orders.shape == (i + 1, 1) and rounds.tolist() == [i] == [r_star(g.n)], i
        n_j = orders[:, 0]
        assert (n_j[:-2] == n_j[1:-1] + n_j[2:]).all(), i
