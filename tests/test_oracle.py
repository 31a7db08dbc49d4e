import math

import numpy as np
import pytest

from colourcontract import (
    RandomSpec,
    apply_contraction,
    assign_random_colours,
    colour_partition,
    gen_erdos_renyi,
    graphs_equal,
    new_graph,
)
from colourcontract import oracle
from colourcontract.graph import colour_neighbourhood_set
from colourcontract.oracle import colour_component
from reference_impls import bfs_colour_component, contract_by_relabel, ordered_unionfind_blocks, scipy_blocks, unionfind_blocks

from conftest import FIG24_EXPECTED


def test_component_isolated_vertex():
    g = new_graph(3, [(0, 1)], [0, 1, 0])
    assert colour_component(g, 2).tolist() == [2]


def test_component_whole_path(p4):
    assert colour_component(p4, 0).tolist() == [0, 1, 2, 3]
    assert colour_component(p4, 3).tolist() == [0, 1, 2, 3]


def test_component_stops_at_colour_boundary(triangle_two_colours):
    assert colour_component(triangle_two_colours, 0).tolist() == [0, 1]
    assert colour_component(triangle_two_colours, 2).tolist() == [2]


def test_component_out_of_range(p4):
    with pytest.raises(ValueError, match="out of range"):
        colour_component(p4, 99)


def test_component_matches_bfs_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        colours = rng.integers(0, 3, size=n).tolist()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = new_graph(n, edges, colours)
        v = int(rng.integers(0, n))
        assert set(colour_component(g, v).tolist()) == bfs_colour_component(g, v)


def test_component_and_partition_on_long_paths_and_many_components():
    # a long two-colour path: one colour alternates in runs of growing length,
    # so breadth-first frontiers stay small over thousands of steps
    colours, c, run = [], 0, 1
    while len(colours) < 3000:
        colours += [c] * run
        c, run = 1 - c, run + 1
    n = len(colours)
    # path position i sits at vertex perm[i]
    perm = np.random.default_rng(3).permutation(n)
    relabelled = np.empty(n, dtype=np.int64)
    relabelled[perm] = colours
    g = new_graph(n, np.column_stack([perm[:-1], perm[1:]]), relabelled)
    part = colour_partition(g)
    assert {frozenset(b.tolist()) for b in part.fibres} == unionfind_blocks(g)
    assert [int(b[0]) for b in part.fibres] == sorted(int(b[0]) for b in part.fibres)
    for b in part.fibres[::7]:
        assert b.tolist() == sorted(bfs_colour_component(g, int(b[-1])))
        assert np.array_equal(colour_component(g, int(b[-1])), b)


def test_partition_blocks_cover_and_are_disjoint(fig24):
    part = colour_partition(fig24)
    seen = np.concatenate(part.fibres)
    assert np.array_equal(np.sort(seen), np.arange(fig24.n))


def test_partition_ordered_by_lowest_member(fig24):
    part = colour_partition(fig24)
    mins = [int(b[0]) for b in part.fibres]
    assert mins == sorted(mins)


def test_partition_blocks_maximal(fig24):
    # a maximal block has no same-colour neighbour outside itself
    part = colour_partition(fig24)
    for block in part.fibres:
        assert colour_neighbourhood_set(fig24, block.tolist()).size == 0


def test_partition_matches_unionfind_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(0, 22))
        colours = rng.integers(0, 4, size=n).tolist()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
        g = new_graph(n, edges, colours)
        part = colour_partition(g)
        assert {frozenset(b.tolist()) for b in part.fibres} == unionfind_blocks(g)


def test_partition_with_many_blocks_matches_unionfind():
    # 64 colours on a sparse random graph: most vertices are singleton
    # blocks, found without a search, between blocks that are grown
    n = 3000
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=n, m=math.ceil(n * math.log(n)), seed=4)), 64, seed=5)
    part = colour_partition(g)
    blocks, colours = ordered_unionfind_blocks(g)
    assert sum(len(b) == 1 for b in blocks) > len(blocks) // 2 > sum(len(b) > 1 for b in blocks) > 100
    assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == (blocks, colours)


def test_partition_matches_scipy_components_with_many_blocks():
    # a third checker that shares no code with the oracle or the engine
    pytest.importorskip("scipy.sparse.csgraph")
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=3000, m=24000, seed=0)), 64, seed=1)
    part = colour_partition(g)
    blocks, colours = scipy_blocks(g)
    assert sum(len(b) > 1 for b in blocks) > 100
    assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == (blocks, colours)


def test_partition_isolated_same_colour_pairs():
    # three pairs, each joined by one same-colour edge and by nothing else
    g = new_graph(7, [(0, 5), (1, 3), (2, 6)], [0, 1, 2, 1, 3, 0, 2])
    part = colour_partition(g)
    assert [b.tolist() for b in part.fibres] == [[0, 5], [1, 3], [2, 6], [4]]
    assert part.becomes.tolist() == [0, 1, 2, 1, 3, 0, 2]


def test_partition_path_of_three_is_not_split_into_a_pair():
    # the path's two ends have one same-colour edge each, but its middle two,
    # so no edge of it is a whole block
    g = new_graph(4, [(2, 0), (0, 3)], [0, 1, 0, 0])
    part = colour_partition(g)
    assert [b.tolist() for b in part.fibres] == [[0, 2, 3], [1]]


def test_partition_pair_with_cross_colour_edges():
    # 1 and 3 share a colour; their edges to 0, 2 and 4 cross colours and do
    # not count against the pair
    g = new_graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)], [0, 1, 2, 1, 3])
    part = colour_partition(g)
    assert [b.tolist() for b in part.fibres] == [[0], [1, 3], [2], [4]]
    assert graphs_equal(apply_contraction(g, part), new_graph(4, [(0, 1), (1, 2), (1, 3), (0, 3)], [0, 1, 2, 3]))


def test_partition_on_sparse_64_colour_graphs_matches_unionfind():
    # few same-colour edges per vertex: most non-singleton blocks are pairs
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(50, 400))
        g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=n, m=int(rng.integers(n, 8 * n)), seed=trial)), 64, seed=trial + 1)
        part = colour_partition(g)
        blocks, colours = ordered_unionfind_blocks(g)
        assert ([b.tolist() for b in part.fibres], g.colours[part.representatives].tolist()) == (blocks, colours)


def test_partition_grows_once_per_block_of_three_or_more(monkeypatch):
    # blocks of one and two vertices are found without a search; the search
    # runs once for each larger block, not once per vertex it covers
    grow, calls = oracle._grow, []

    def counting_grow(*args):
        calls.append(args[2])
        return grow(*args)

    monkeypatch.setattr(oracle, "_grow", counting_grow)
    n = 3000
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=n, m=12000, seed=2)), 16, seed=3)
    part = colour_partition(g)
    blocks, _ = ordered_unionfind_blocks(g)
    large = [b[0] for b in blocks if len(b) >= 3]
    assert sum(len(b) == 2 for b in blocks) > 50 and len(large) > 50
    assert calls == large
    assert [b.tolist() for b in part.fibres] == blocks


def test_partition_proper_colouring_gives_singletons(triangle_two_colours):
    # no same-colour edge at all, with and without cross-colour edges
    for g in (new_graph(3, [(0, 1), (1, 2)], [0, 1, 0]), new_graph(3, [], [0, 0, 0])):
        part = colour_partition(g)
        assert [b.tolist() for b in part.fibres] == [[0], [1], [2]]
        assert part.n_prime == 3 and part.becomes.tolist() == [0, 1, 2]


def test_partition_monochromatic_connected_gives_one_block(p4):
    part = colour_partition(p4)
    assert part.n_prime == 1 and part.becomes.tolist() == [0, 0, 0, 0]
    assert p4.colours[part.representatives].tolist() == [0]


def test_contraction_of_proper_graph_is_identity():
    g = new_graph(3, [(0, 1), (1, 2)], [0, 1, 0])
    partition = colour_partition(g)
    contracted = apply_contraction(g, partition)
    assert graphs_equal(contracted, g)
    assert partition.becomes.tolist() == [0, 1, 2]


def test_contraction_p4_to_point(p4):
    partition = colour_partition(p4)
    contracted = apply_contraction(p4, partition)
    assert contracted.n == 1 and contracted.m == 0
    assert partition.becomes.tolist() == [0, 0, 0, 0]


def test_contraction_figure_graph(fig24):
    partition = colour_partition(fig24)
    contracted = apply_contraction(fig24, partition)
    assert contracted.n == FIG24_EXPECTED["final_n"]
    assert contracted.m == FIG24_EXPECTED["final_m"]
    assert contracted.colours.tolist() == FIG24_EXPECTED["final_colours"]
    assert [tuple(e) for e in contracted.edge_array().tolist()] == FIG24_EXPECTED["final_edges"]
    k, edges, colours = contract_by_relabel(fig24, partition.becomes)
    assert k == contracted.n
    assert edges == {tuple(e) for e in contracted.edge_array().tolist()}
    assert colours == contracted.colours.tolist()


def test_contraction_idempotent(fig24):
    once = apply_contraction(fig24, colour_partition(fig24))
    twice = apply_contraction(once, colour_partition(once))
    assert graphs_equal(once, twice)
    assert once.is_properly_coloured()


def test_contraction_empty_graph():
    g = new_graph(0, [], [])
    partition = colour_partition(g)
    contracted = apply_contraction(g, partition)
    assert contracted.n == 0 and partition.becomes.size == 0
