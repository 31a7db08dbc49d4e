import math
import tracemalloc

import numpy as np
import pytest

from colourcontract import (
    ColouredGraph,
    colour_partition,
    contract_to_fixpoint,
    equivalent_contractions,
    graphs_equal,
    new_graph,
    serialize_graph,
)
from colourcontract import graph
from colourcontract.generators import RandomSpec, assign_random_colours, gen_erdos_renyi, permute_enumeration
from colourcontract.graph import _sorted_unique, colour_neighbourhood_set, relabel_keys, rows_of, same_colour_part
from reference_impls import contract_by_relabel, serialize_by_join, validate_by_keys, validate_by_rows


def test_empty_graph():
    g = new_graph(0, [], [])
    assert g.n == 0 and g.m == 0
    assert g.degrees.size == 0
    assert g.edge_array().shape == (0, 2)


def test_single_vertex():
    g = new_graph(1, [], [7])
    assert g.n == 1 and g.m == 0
    assert g.colours.tolist() == [7]
    indptr, indices = rows_of(g.n, g.keys)
    assert indptr.tolist() == [0, 0] and indices.size == 0


def test_duplicate_edges_collapse():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)], [0, 1, 2])
    assert g.m == 1
    assert g.edge_array().tolist() == [[0, 1]]


def test_orientation_and_order_irrelevant():
    a = new_graph(4, [(3, 2), (0, 2), (3, 1)], [0, 0, 0, 0])
    b = new_graph(4, [(0, 2), (1, 3), (2, 3)], [0, 0, 0, 0])
    assert graphs_equal(a, b)


def test_adjacency_rows_ascending():
    g = new_graph(5, [(4, 0), (2, 0), (0, 1)], [0] * 5)
    indptr, indices = rows_of(g.n, g.keys)
    assert indices[indptr[0]:indptr[1]].tolist() == [1, 2, 4]
    assert g.degrees.tolist() == [3, 1, 1, 0, 1]


def test_degree_sum_is_twice_m():
    g = new_graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)], [0] * 6)
    assert int(g.degrees.sum()) == 2 * g.m


def test_non_integer_endpoints_and_colours_rejected():
    for edges, colours in (
        (np.array([[0, 1.7]]), [0, 0, 1]),
        ([(0, 1.7)], [0, 0, 1]),
        ([(0, 1)], np.array([0, 0.5, 1])),
        ([(0, 1)], [0, 0.5, 1]),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            new_graph(3, edges, colours)
    # empty inputs carry no values to refuse, whatever their dtype
    for edges, colours in (([], []), (np.empty((0, 2)), np.empty(0))):
        assert new_graph(0, edges, colours).n == 0
    g = new_graph(3, np.array([[0, 1]], dtype=np.int32), [np.int64(0), 0, 1])
    assert g.edge_array().tolist() == [[0, 1]] and g.colours.tolist() == [0, 0, 1]


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        new_graph(3, [(1, 1)], [0, 0, 0])


def test_endpoint_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        new_graph(3, [(0, 3)], [0, 0, 0])
    with pytest.raises(ValueError, match="out of range"):
        new_graph(3, [(-1, 2)], [0, 0, 0])


def test_colour_length_mismatch_rejected():
    with pytest.raises(ValueError, match="colours"):
        new_graph(3, [], [0, 0])
    # two colours for two vertices, but as one row of a 2-D array: the
    # message names the shape, not a count that matches
    with pytest.raises(ValueError, match=r"expected colours of shape \(2,\), got \(1, 2\)"):
        new_graph(2, [], np.array([[0, 1]]))
    with pytest.raises(ValueError, match=r"expected colours of shape \(2,\), got \(1, 2\)"):
        ColouredGraph(n=2, colours=np.array([[0, 1]]), keys=np.array([1]))


def test_edge_array_not_of_pairs_rejected():
    # six endpoints in two rows of three, or four in a flat array, are not
    # read as pairs
    for edges in (np.array([[0, 1, 2], [1, 2, 3]]), np.array([0, 1, 2, 3]), np.array([[[0, 1]]])):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            new_graph(4, edges, [0] * 4)
    # an array that holds nothing is the empty edge list, whatever its shape
    for edges in (np.empty((0, 2)), np.empty(0), np.empty((3, 0), dtype=np.int64)):
        assert new_graph(4, edges, [0] * 4).m == 0


def test_new_graph_leaves_the_callers_edges_unchanged():
    # rows with u > v: the keys' min and max must not be written back into
    # an int64 array that new_graph uses without copying
    edges = np.array([[2, 0], [1, 3], [3, 2], [0, 2]], dtype=np.int64)
    before = edges.copy()
    g = new_graph(4, edges, [0] * 4)
    assert np.array_equal(edges, before)
    assert g.edge_array().tolist() == [[0, 2], [1, 3], [2, 3]]


def test_relabel_keys_of_empty_edge_sets(monkeypatch):
    # no edge in, or every edge inside one label: no key out, on both sides
    # of the bound k * k <= 2m under which the keys are marked in a bitmap
    sorts = []
    monkeypatch.setattr(graph, "_sorted_unique", lambda keys: sorts.append(1) or _sorted_unique(keys))
    path = new_graph(4, [(0, 1), (1, 2), (2, 3)], [0] * 4)
    pairs = new_graph(6, [(0, 1), (2, 3), (4, 5)], [0] * 6)
    cases = [(g, label, k) for g in (new_graph(0, [], []), new_graph(3, [], [0, 1, 2])) for label, k in ((np.zeros(g.n, dtype=np.int64), 1), (np.arange(g.n), g.n), (np.arange(g.n) % 2, 5))]
    # k = 1 and k = 2 under the bound, k = 3 and k = 5 above it
    cases += [(path, np.zeros(4, dtype=np.int64), 1), (path, np.full(4, 2), 3), (pairs, np.array([0, 0, 1, 1, 0, 0]), 2), (pairs, np.array([4, 4, 1, 1, 0, 0]), 5)]
    bitmaps = set()
    for g, label, k in cases:
        del sorts[:]
        keys = relabel_keys(g.n, g.keys, label, k)
        assert keys.dtype == np.int64 and keys.size == 0
        assert contract_by_relabel(g, label)[1] == set()
        assert bool(sorts) == (k * k > 2 * g.m)
        bitmaps.add(k * k <= 2 * g.m)
    assert bitmaps == {True, False}


def test_relabel_keys_on_both_sides_of_the_bitmap_bound(monkeypatch):
    # onto k labels with k * k <= 2m the pair keys a*k + b are marked in a
    # (k, k) bitmap and read off its upper triangle; above the bound the
    # crossing pairs are sorted.  Both give the set reference's keys: at
    # k = 0 and k = 1, at k * k = 2m exactly, and on a complete graph
    sorts = []
    monkeypatch.setattr(graph, "_sorted_unique", lambda keys: sorts.append(1) or _sorted_unique(keys))
    rng = np.random.default_rng(14)
    complete = new_graph(60, [(u, v) for u in range(60) for v in range(u)], [0] * 60)
    eight = new_graph(8, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (3, 7)], [0] * 8)
    cases = [
        (new_graph(0, [], []), np.zeros(0, dtype=np.int64), 0),
        (new_graph(2, [(0, 1)], [0, 0]), np.zeros(2, dtype=np.int64), 1),
        # k * k = 2m: 2 * 2 against 2 edges, 4 * 4 against 8
        (new_graph(3, [(0, 1), (1, 2)], [0] * 3), np.array([0, 1, 0]), 2),
        (new_graph(3, [(0, 1), (1, 2)], [0] * 3), np.array([1, 0, 1]), 3),
        (eight, np.array([0, 1, 2, 3, 3, 2, 1, 0]), 4),
        (eight, np.array([0, 1, 2, 3, 3, 2, 1, 0]), 5),
        # 1770 edges: 59 labels take the bitmap, 60 the sort
        (complete, rng.permutation(60), 60),
        (complete, np.minimum(rng.permutation(60), 58), 59),
        (complete, np.arange(60) % 2, 2),
        (complete, np.arange(60) // 2, 30),
    ]
    for g, label, k in cases:
        del sorts[:]
        keys = relabel_keys(g.n, g.keys, label, k)
        want = sorted(a * k + b for a, b in contract_by_relabel(g, label)[1])
        assert keys.dtype == np.int64 and keys.tolist() == want, (g.n, k)
        assert bool(sorts) == (k * k > 2 * g.m), (g.n, k)
    assert relabel_keys(complete.n, complete.keys, rng.permutation(60), 60).size == 1770


def test_relabel_keys_onto_few_labels_and_contract_to_fixpoint_hold_about_one_key_array():
    # onto few labels each block of keys is marked in the (k, k) bitmap in
    # turn: at the peak the last block's ends, its pair keys and one gather
    # beside the previous block's, and the bitmap's few copies, however many
    # keys there are.  Contracting the ER benchmark input then holds less than
    # one key array at its peak: the same-colour keys, the first round's
    # quotient keys, vertex arrays and one block's temporaries
    g = gen_erdos_renyi(RandomSpec(n=50_000, m=540_989, seed=0))
    k = 241
    label = np.random.default_rng(15).integers(0, k, size=g.n)
    tracemalloc.start()
    try:
        keys = relabel_keys(g.n, g.keys, label, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys.size == k * (k - 1) // 2
    assert peak < 5 * 8 * graph._KEY_BLOCK + 8 * k * k
    coloured = assign_random_colours(g, 4, 1)
    tracemalloc.start()
    try:
        final, _ = contract_to_fixpoint(coloured)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert final.n == 241
    assert peak < g.keys.nbytes


def test_relabel_keys_onto_many_labels_holds_about_one_key_array():
    # onto more labels each block's crossing pairs write their keys into one
    # array as long as the keys, at the narrowest width that holds k * k - 1
    # (uint32 here, half an int64 key array), which is sorted in place: the
    # peak is that array, its run mask and the distinct keys copied out of
    # it, or, once that array is freed, the distinct keys at both widths
    g = gen_erdos_renyi(RandomSpec(n=50_000, m=540_989, seed=0))
    k = 1041  # k * k > 2m: the sort path
    label = np.random.default_rng(16).integers(0, k, size=g.n)
    tracemalloc.start()
    try:
        keys = relabel_keys(g.n, g.keys, label, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a, b = (label[end] for end in g.endpoints())
    crossing = a != b
    assert k * k > 2 * g.m
    assert np.array_equal(keys, np.unique(np.minimum(a, b)[crossing] * k + np.maximum(a, b)[crossing]))
    assert peak < 1.1 * g.keys.nbytes


@pytest.mark.parametrize("block", [7, graph._KEY_BLOCK])
def test_relabel_keys_sort_path_on_each_side_of_every_narrow_width(monkeypatch, block):
    # on the sort path the pair keys are built, sorted and deduplicated in
    # np.min_scalar_type(k * k - 1): uint8 up to k = 16, uint16 up to 256,
    # uint32 up to 65 536 and uint64 above.  The largest key of k labels,
    # (k - 2) * k + k - 1, passes each narrower width at k = 17, 257 and
    # 65 537, so each k meets the set reference's keys with the labels k - 1
    # and k - 2 on an edge, and in blocks of 7 keys as well as whole
    monkeypatch.setattr(graph, "_KEY_BLOCK", block)
    widths = []
    monkeypatch.setattr(graph, "_sorted_unique", lambda keys: widths.append(keys.dtype) or _sorted_unique(keys))
    rng = np.random.default_rng(35)
    n = 24
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = new_graph(n, [pairs[i] for i in rng.choice(len(pairs), size=100, replace=False)] + [(0, 1), (1, 2), (2, 3)], [0] * n)
    for k, width in ((16, np.uint8), (17, np.uint16), (256, np.uint16), (257, np.uint32), (65_536, np.uint32), (65_537, np.uint64)):
        label = rng.integers(0, k, size=n)
        label[:4] = [k - 1, k - 2, 0, k - 1]
        del widths[:]
        keys = relabel_keys(n, g.keys, label, k)
        want = sorted(a * k + b for a, b in contract_by_relabel(g, label)[1])
        assert k * k > 2 * g.m
        assert widths == [width], k
        assert keys.dtype == np.int64 and keys.tolist() == want, k
        assert want[-1] == (k - 2) * k + k - 1


@pytest.mark.parametrize("block", [1, 4, 7])
def test_key_passes_on_block_edges(monkeypatch, block):
    # the same-label keys, the same-colour part, the proper-colouring check,
    # both branches of relabel_keys and the graph's validation walk the keys
    # one block at a time: with blocks of 1, 4 and 7 keys, on no key, exactly
    # one block, one key past it and several blocks, each agrees with the
    # per-edge references
    monkeypatch.setattr(graph, "_KEY_BLOCK", block)
    sorts = []
    monkeypatch.setattr(graph, "_sorted_unique", lambda keys: sorts.append(1) or _sorted_unique(keys))
    rng = np.random.default_rng(30 + block)
    n = 12
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    branches = set()
    for m in sorted({0, 1, block - 1, block, block + 1, 2 * block, 3 * block + 2}):
        edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
        g = new_graph(n, edges, rng.integers(0, 3, size=n))
        assert g.m == m
        for label in (g.colours, rng.integers(0, 2, size=n)):
            want = [bool(label[u] == label[v]) for u, v in g.edge_array().tolist()]
            assert graph._same_label_keys(n, g.keys, label).tolist() == g.keys[want].tolist(), (m, label)
            assert graph.rows_within(g, label)[1].size == 2 * sum(want)
        # a one-colour copy keeps every edge, and its part is itself
        for h in (g, ColouredGraph(n, np.zeros(n, dtype=np.int64), g.keys)):
            same = [[u, v] for u, v in h.edge_array().tolist() if h.colours[u] == h.colours[v]]
            part = same_colour_part(h)
            assert part.edge_array().tolist() == same and (part is h) == (len(same) == m), (m, h.colours)
            assert h.is_properly_coloured() == (not same)
        # k * k <= 2m marks a bitmap, one more label sorts
        fit = math.isqrt(2 * m)
        for k in {fit, fit + 1} - {0}:
            label = rng.integers(0, k, size=n)
            del sorts[:]
            keys = relabel_keys(n, g.keys, label, k)
            assert keys.tolist() == sorted(a * k + b for a, b in contract_by_relabel(g, label)[1]), (m, k)
            assert bool(sorts) == (k * k > 2 * m)
            branches.add(bool(sorts))
    assert branches == {True, False}
    # no key, onto no label: the bitmap branch
    assert relabel_keys(0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0).size == 0


def test_quotients_leave_the_callers_arrays_unchanged(monkeypatch):
    # the sort path sorts keys in place, but only keys its caller owns: the
    # keys, labels and edges handed in stay as they were
    g = gen_erdos_renyi(RandomSpec(n=40, m=300, seed=3))
    sorts = []
    run_starts = graph._run_starts
    monkeypatch.setattr(graph, "_run_starts", lambda ordered: sorts.append(1) or run_starts(ordered))
    keys, label = g.keys.copy(), np.random.default_rng(17).permutation(g.n)
    before = keys.copy(), label.copy()
    got = relabel_keys(g.n, keys, label, g.n)
    assert np.array_equal(keys, before[0]) and np.array_equal(label, before[1])
    assert got.tolist() == sorted(a * g.n + b for a, b in contract_by_relabel(g, label)[1])
    permuted, perm = permute_enumeration(g, 5)
    assert np.array_equal(g.keys, before[0])
    assert np.array_equal(relabel_keys(g.n, permuted.keys, np.argsort(perm), g.n), g.keys)
    edges = g.edge_array()[::-1, ::-1].copy()
    colours = np.arange(g.n) % 3
    before = edges.copy(), colours.copy()
    assert np.array_equal(new_graph(g.n, edges, colours).keys, g.keys)
    assert np.array_equal(edges, before[0]) and np.array_equal(colours, before[1])
    # each of the four quotients took the sort path
    assert len(sorts) == 4


def test_negative_colour_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        new_graph(2, [], [0, -1])


def test_new_graph_keeps_uint64_colours_at_and_above_2_63():
    # new_graph keeps an integer colour array's dtype, so ids int64 cannot
    # hold reach the graph as given and contract through both routes
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], np.array([2**63, 2**63, 0, 2**64 - 1], dtype=np.uint64))
    assert g.colours.dtype == np.uint64 and g.colours.tolist() == [2**63, 2**63, 0, 2**64 - 1]
    final, trace = contract_to_fixpoint(g)
    assert final.colours.dtype == np.uint64 and final.colours.tolist() == [2**63, 0, 2**64 - 1]
    partition = colour_partition(g)
    assert partition.becomes.tolist() == [0, 0, 1, 2]
    assert equivalent_contractions(g, final, trace, partition)
    # negative ids are refused whatever the integer dtype
    with pytest.raises(ValueError, match="non-negative"):
        new_graph(2, [], np.array([0, -1], dtype=np.int8))


def test_new_graph_holds_python_colour_ids_at_2_63_as_uint64():
    g = new_graph(2, [], [2**63, 0])
    assert g.colours.dtype == np.uint64 and g.colours.tolist() == [2**63, 0]
    # below 2**63 the ids stay int64
    assert new_graph(2, [], [2**63 - 1, 0]).colours.dtype == np.int64


def test_new_graph_refuses_python_colour_ids_at_2_64():
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        new_graph(2, [], [2**64, 0])


def test_new_graph_refuses_endpoints_outside_64_bits_as_out_of_range():
    with pytest.raises(ValueError, match=r"^edge endpoint out of range: \(0, 18446744073709551616\)$"):
        new_graph(2, [(0, 2**64)], [1, 0])
    # the first pair with an end outside 0..n-1 is named, in or out of 64 bits
    with pytest.raises(ValueError, match=r"^edge endpoint out of range: \(0, 5\)$"):
        new_graph(3, [(0, 1), (0, 5), (2**64, 1)], [1, 0, 0])
    with pytest.raises(ValueError, match=r"^edge endpoint out of range: \(0, 9223372036854775808\)$"):
        new_graph(2, [(0, 2**63)], [1, 0])


def test_timedelta_colours_and_keys_are_refused_as_non_integers():
    # np.issubdtype counts timedelta64 as an integer type; its values are
    # durations, refused by the checks' ValueError like float ids, not by a
    # TypeError from reading their minimum
    with pytest.raises(ValueError, match="colour ids must be integers"):
        ColouredGraph(n=2, colours=np.array([0, 1], dtype="m8[s]"), keys=np.array([1]))
    with pytest.raises(ValueError, match="edge keys must be a 1-D integer array"):
        ColouredGraph(n=2, colours=np.array([0, 1]), keys=np.array([1], dtype="m8[s]"))
    with pytest.raises(ValueError, match="colour ids must be integers"):
        new_graph(2, [(0, 1)], np.array([0, 1], dtype="m8[s]"))


def test_direct_construction_validates():
    # the transposed orientation of an edge is refused by the type itself
    with pytest.raises(ValueError, match="lo < hi"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 3]))
    with pytest.raises(ValueError, match="strictly ascend"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([5, 1]))
    with pytest.raises(ValueError, match="strictly ascend"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 1]))
    with pytest.raises(ValueError, match="self-loop"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 4]))
    with pytest.raises(ValueError, match="out of range"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 9]))
    # float arrays that hold whole numbers are refused by their dtype, and
    # the keys must be one flat array
    with pytest.raises(ValueError, match="edge keys must be a 1-D integer array"):
        ColouredGraph(n=2, colours=np.array([0, 0]), keys=np.array([1.0]))
    with pytest.raises(ValueError, match="edge keys must be a 1-D integer array"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([[1, 5]]))
    with pytest.raises(ValueError, match="colour ids must be integers"):
        ColouredGraph(n=2, colours=np.array([0.0, 1.0]), keys=np.array([1]))
    # unsigned and narrower integer types are checked like int64, and held as int64
    for dtype in (np.uint64, np.uint32, np.int32, np.uint8):
        g = ColouredGraph(n=3, colours=np.array([0, 1, 1]), keys=np.array([1, 5], dtype=dtype))
        assert g.keys.dtype == np.int64 and g.edge_array().tolist() == [[0, 1], [1, 2]]
    with pytest.raises(ValueError, match="lo < hi"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 7], dtype=np.uint64))
    # beyond int64, still refused
    with pytest.raises(ValueError, match="out of range"):
        ColouredGraph(n=3, colours=np.array([0, 0, 0]), keys=np.array([1, 2**64 - 1], dtype=np.uint64))


def test_unsigned_indices_give_int64_edges():
    # uint64 keys give int64 edges, which the serialiser writes and the
    # verifier indexes with
    g = ColouredGraph(n=3, colours=np.array([0, 0, 1]), keys=np.array([1, 5], dtype=np.uint64))
    edges = g.edge_array()
    assert edges.dtype == np.int64 and edges.tolist() == [[0, 1], [1, 2]]
    assert g.indices.dtype == np.int64 and g.indices.tolist() == [1, 0, 2, 1]
    assert serialize_graph(g) == serialize_by_join(g) == "3 2\n0 0 1\n0 1\n1 2\n"
    final, trace = contract_to_fixpoint(g)
    assert equivalent_contractions(g, final, trace, colour_partition(g)) is True


def _construction_message(n, keys):
    try:
        ColouredGraph(n=n, colours=np.zeros(n, dtype=np.int64), keys=np.array(keys, dtype=np.int64))
    except ValueError as exc:
        return str(exc)
    return None


def _keyed(n, edges):
    return n, new_graph(n, edges, [0] * n).keys.tolist()


def _perturbed_keys(rng, n, keys):
    """One random edit of the keys: an entry set, two entries swapped, an
    entry repeated over its neighbour, or an entry moved by one."""
    keys = list(keys)
    if not keys:
        return n, [int(rng.integers(-1, n * n + 1))]
    i = int(rng.integers(len(keys)))
    kind = rng.integers(4)
    if kind == 0:
        keys[i] = int(rng.integers(-1, n * n + 1))
    elif kind == 1:
        j = min(i + 1, len(keys) - 1)
        keys[i], keys[j] = keys[j], keys[i]
    elif kind == 2:
        keys[i] = keys[i - 1] if i else keys[min(1, len(keys) - 1)]
    else:
        keys[i] += int(rng.choice([-1, 1]))
    return n, keys


def test_construction_checks_match_per_row_reference(monkeypatch):
    cases = [
        (0, []),
        (0, [0]),
        (1, []),
        (1, [0]),
        # edges 0-1 and 1-2, then the same keys descending and repeated
        (3, [1, 5]),
        (3, [5, 1]),
        (3, [1, 1]),
        # edge 1-0 in the transposed orientation, a self-loop at 1
        (3, [1, 3]),
        (3, [1, 4]),
        # keys out of range at either end
        (3, [-1, 1]),
        (3, [1, 9]),
        # edges 0-3 and 1-2, and the largest key of order 4
        (4, [3, 6]),
        (4, [3, 6, 11]),
        (4, [3, 6, 15]),
    ]
    rng = np.random.default_rng(29)
    bases = [_keyed(4, [(0, 2), (1, 3), (2, 3)]), _keyed(5, [(1, 2), (2, 3), (1, 3)]), _keyed(1, []), _keyed(0, [])]
    for _ in range(10):
        n = int(rng.integers(2, 9))
        bases.append(_keyed(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]))
    cases += bases
    for base in bases:
        cases += [_perturbed_keys(rng, *base) for _ in range(30)]
    outcomes = set()
    for n, keys in cases:
        expected = validate_by_keys(n, keys)
        assert _construction_message(n, keys) == expected, (n, keys)
        outcomes.add(expected)
        # the diagonal is checked one block of keys at a time: blocks of 1, 2
        # and 3 keys meet inside every longer case
        for block in (1, 2, 3):
            monkeypatch.setattr(graph, "_KEY_BLOCK", block)
            assert _construction_message(n, keys) == expected, (n, keys, block)
        monkeypatch.undo()
        if expected is None:
            # the rows built from the keys are the symmetric, ascending rows of the same edges
            g = ColouredGraph(n=n, colours=np.zeros(n, dtype=np.int64), keys=np.array(keys, dtype=np.int64))
            indptr, indices = rows_of(n, g.keys)
            assert validate_by_rows(n, len(keys), indptr, indices) is None, (n, keys)
            rows = [sorted({k % n for k in keys if k // n == v} | {k // n for k in keys if k % n == v}) for v in range(n)]
            assert [indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)] == rows, (n, keys)
    # every check the reference makes was both passed and failed
    assert outcomes == {
        None,
        "edge keys must strictly ascend",
        "edge key out of range",
        "self-loops are not allowed",
        "edge keys must have lo < hi",
    }


def test_sorted_unique_returns_ascending_values_unsorted():
    for values in (np.arange(100) * 3, np.array([2, 7]), np.array([4]), np.empty(0, dtype=np.int64)):
        assert _sorted_unique(values) is values


def test_sorted_unique_matches_np_unique():
    # the caller owns the keys, non-negative int64: those that do not
    # ascend are sorted in place, and the distinct ones come back
    rng = np.random.default_rng(11)
    arrays = [np.empty(0, dtype=np.int64), np.array([5]), np.array([3, 3, 3])]
    arrays += [rng.integers(0, 40, size=int(rng.integers(1, 300))) for _ in range(30)]
    # ascending for a head of 16 values or more, then a repeat or a descent
    arrays += [np.r_[np.arange(40), 39, np.arange(40, 60)], np.r_[np.arange(16), 3], np.r_[np.arange(15), 3]]
    for values in arrays:
        owned = values.copy()
        got = _sorted_unique(owned)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(values)), values.tolist()
        assert np.array_equal(owned, np.sort(values)), values.tolist()


def test_sorted_unique_ascending_and_sort_branches_match_np_unique(monkeypatch):
    # strictly ascending keys are returned as they are and all others are
    # sorted, dense or sparse: only the sort looks for runs of equal keys
    sorts = []
    run_starts = graph._run_starts
    monkeypatch.setattr(graph, "_run_starts", lambda ordered: sorts.append(1) or run_starts(ordered))
    rng = np.random.default_rng(12)
    arrays = [np.empty(0, dtype=np.int64)]
    for size in (1, 2, 5, 64, 1000):
        for top in (2 * size - 1, 2 * size, 5 * size):
            values = rng.integers(0, top + 1, size=size)
            values[rng.integers(size)] = top
            arrays.append(values[::-1].copy() if size > 1 else values)
            arrays.append(np.unique(values))
    # ascending past the 16-value head, then a repeat or a descent
    arrays += [np.r_[np.arange(40), 39, np.arange(40, 60)], np.r_[np.arange(20), 3], np.array([3, 0, 3, 1])]
    for values in arrays:
        ascending = bool((values[1:] > values[:-1]).all())
        owned = values.copy()
        del sorts[:]
        got = _sorted_unique(owned)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(values)), values.tolist()
        assert (got is owned) == ascending and bool(sorts) == (not ascending), values.tolist()


def test_immutable_after_construction():
    g = new_graph(2, [(0, 1)], [0, 1])
    with pytest.raises(ValueError):
        g.colours[0] = 5
    with pytest.raises(ValueError):
        g.keys[0] = 0


def test_graph_holds_only_its_order_colours_and_keys():
    # every view of the edges is built per use and none is stored on the graph
    g = new_graph(5, [(4, 0), (2, 0), (0, 1), (2, 3)], [0, 1, 0, 0, 1])
    indptr, indices = rows_of(g.n, g.keys)
    assert np.array_equal(g.degrees, np.diff(indptr))
    assert np.array_equal(g.indices, indices)
    g.endpoints(), g.edge_array(), g.is_properly_coloured()
    assert set(vars(g)) == {"n", "colours", "keys"}


def test_colour_neighbourhood_filters_by_colour(p4):
    assert colour_neighbourhood_set(p4, [2]).tolist() == [0, 3]


def test_colour_neighbourhood_mixed_colours():
    g = new_graph(3, [(0, 1), (0, 2), (1, 2)], [0, 0, 1])
    assert colour_neighbourhood_set(g, [0]).tolist() == [1]
    assert colour_neighbourhood_set(g, [2]).tolist() == []


def test_colour_neighbourhood_out_of_range(p4):
    with pytest.raises(ValueError, match="out of range"):
        colour_neighbourhood_set(p4, [4])
    with pytest.raises(ValueError, match="out of range"):
        colour_neighbourhood_set(p4, [-1])


def test_colour_neighbourhood_set(p4):
    assert colour_neighbourhood_set(p4, [2, 3]).tolist() == [0, 1]
    assert colour_neighbourhood_set(p4, []).tolist() == []


def test_colour_neighbourhood_set_excludes_members(p4):
    out = colour_neighbourhood_set(p4, [0, 2, 3])
    assert 2 not in out.tolist() and out.tolist() == [1]


def test_colour_neighbourhood_set_rejects_mixed():
    g = new_graph(3, [(0, 1)], [0, 1, 0])
    with pytest.raises(ValueError, match="monochromatic"):
        colour_neighbourhood_set(g, [0, 1])


def test_graphs_equal_is_labelled():
    a = new_graph(3, [(0, 1)], [0, 0, 1])
    b = new_graph(3, [(1, 2)], [1, 0, 0])  # isomorphic, different labels
    assert not graphs_equal(a, b)
    assert graphs_equal(a, new_graph(3, [(1, 0)], [0, 0, 1]))


def test_colour_ids_opaque():
    g = new_graph(2, [(0, 1)], [1000000, 17])
    assert g.colours.tolist() == [1000000, 17]
