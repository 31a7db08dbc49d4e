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
from colourcontract.graph import _argsort_first, _packed_first, _sorted_unique, colour_neighbourhood_set, relabel_keys, rows_of
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


def test_relabel_keys_of_empty_edge_sets():
    for g in (new_graph(0, [], []), new_graph(3, [], [0, 1, 2])):
        for label, k in ((np.zeros(g.n, dtype=np.int64), 1), (np.arange(g.n), g.n), (np.arange(g.n) % 2, 5)):
            keys = relabel_keys(g.n, g.keys, label, k)
            assert keys.dtype == np.int64 and keys.size == 0
            assert contract_by_relabel(g, label)[1] == set()


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


def test_construction_checks_match_per_row_reference():
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
    rng = np.random.default_rng(11)
    arrays = [np.empty(0, dtype=np.int64), np.array([5]), np.array([3, 3, 3])]
    arrays += [rng.integers(-20, 20, size=int(rng.integers(1, 300))) for _ in range(30)]
    # ascending for a head of 16 values or more, then a repeat or a descent
    arrays += [np.r_[np.arange(40), 39, np.arange(40, 60)], np.r_[np.arange(16), 3], np.r_[np.arange(15), 3]]
    for values in arrays:
        assert np.array_equal(_sorted_unique(values), np.unique(values))
        uniq, first = _sorted_unique(values, return_index=True)
        expected_uniq, expected_first = np.unique(values, return_index=True)
        assert np.array_equal(uniq, expected_uniq)
        assert np.array_equal(first, expected_first)
        assert all(values.tolist().index(int(x)) == int(i) for x, i in zip(uniq, first))


def test_sorted_unique_bitmap_and_sort_branches_match_np_unique():
    # without return_index, values in 0..2*size-1 are deduplicated by a
    # bitmap and all others by a sort: both sides of each bound, in the
    # dtypes the package hands it, keep the input's dtype
    rng = np.random.default_rng(12)
    arrays = [np.empty(0, dtype=np.int64)]
    for size in (1, 2, 5, 64, 1000):
        for top in (2 * size - 1, 2 * size, 5 * size):
            values = rng.integers(0, top + 1, size=size)
            values[rng.integers(size)] = top
            arrays.append(values[::-1].copy() if size > 1 else values)
        # negative values below twice the count
        arrays.append(np.r_[size, rng.integers(-size, size, size=size), -1])
    arrays += [np.array([3, 0, 3, 1]), np.array([-1, 0, 1]), np.array([1, -1])]
    for values in arrays:
        for dtype in (np.int64, np.int32, np.uint64):
            if dtype == np.uint64 and values.size and values.min() < 0:
                continue
            typed = values.astype(dtype)
            got = _sorted_unique(typed)
            assert got.dtype == dtype and np.array_equal(got, np.unique(typed)), (values.tolist(), dtype)


def _first_position_cases():
    """(values, bits) for each case both first-position branches are
    checked on; bits is the packed word's width, None for negative values."""
    rng = np.random.default_rng(13)
    cases = [np.empty(0, dtype=np.int64), np.array([9]), np.array([4, 4, 4, 4])]
    cases += [rng.integers(0, 30, size=200), rng.integers(-30, 30, size=200)]
    # 100 positions take 7 bits: a largest value of 57 bits packs into
    # exactly 64, one of 58 bits one over
    for top in (2**57 - 1, 2**58 - 1):
        values = rng.integers(0, 50, size=100) * (top // 50)
        values[37] = top
        cases.append(values)
    out = []
    for values in cases:
        for dtype in (np.int64, np.int32, np.uint64):
            if (dtype == np.int32 and values.size and np.abs(values).max() >= 2**31) or (dtype == np.uint64 and values.size and values.min() < 0):
                continue
            typed = values.astype(dtype)
            bits = None
            if not typed.size or typed.min() >= 0:
                bits = (int(typed.max()) if typed.size else 0).bit_length() + max(typed.size - 1, 0).bit_length()
            out.append((typed, bits))
    return out


def test_first_position_branches_match_np_unique():
    # the packed sort and the argsort each give np.unique's values, in the
    # input's dtype, and first positions
    widths = set()
    for values, bits in _first_position_cases():
        expected = np.unique(values, return_index=True)
        branches = [_argsort_first]
        if bits is not None and bits <= 64:
            branches.append(lambda values: _packed_first(values, max(values.size - 1, 0).bit_length()))
        for branch in branches:
            uniq, first = branch(values)
            assert uniq.dtype == values.dtype and first.dtype == expected[1].dtype
            assert np.array_equal(uniq, expected[0]) and np.array_equal(first, expected[1]), (branch, values.tolist())
        widths.add(bits)
    assert {None, 64, 65} <= widths


def test_sorted_unique_packs_positions_up_to_64_bits(monkeypatch):
    # _sorted_unique takes the argsort only for negative values or a pack
    # over 64 bits, and gives np.unique's result either way
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or argsort(*args, **kwargs))
    for values, bits in _first_position_cases():
        del sorts[:]
        uniq, first = _sorted_unique(values, return_index=True)
        expected = np.unique(values, return_index=True)
        assert np.array_equal(uniq, expected[0]) and np.array_equal(first, expected[1]) and uniq.dtype == values.dtype
        assert bool(sorts) == (bits is None or bits > 64), (values.tolist(), bits)


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
