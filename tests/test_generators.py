import math
import tracemalloc

import numpy as np
import pytest

from colourcontract import (
    ColouredGraph,
    RandomSpec,
    assign_random_colours,
    colour_partition,
    contract_to_fixpoint,
    gen_erdos_renyi,
    graphs_equal,
    new_graph,
    permute_enumeration,
)
from colourcontract import generators
from colourcontract.graph import _MAX_ORDER
from reference_impls import sample_pairs_by_set


def test_spec_requires_exactly_one_edge_target():
    with pytest.raises(ValueError, match="exactly one"):
        RandomSpec(n=5, m=3, p=0.5)
    with pytest.raises(ValueError, match="exactly one"):
        RandomSpec(n=5)


def test_spec_validates_ranges():
    with pytest.raises(ValueError):
        RandomSpec(n=-1, m=0)
    with pytest.raises(ValueError):
        RandomSpec(n=5, m=11)  # above n(n-1)/2
    with pytest.raises(ValueError):
        RandomSpec(n=5, p=1.5)
    with pytest.raises(ValueError):
        RandomSpec(n=5, m=2, colours=0)
    with pytest.raises(ValueError):
        RandomSpec(n=5, m=2, seed=-3)


def test_spec_refuses_an_order_the_text_format_cannot_hold():
    # refused at construction, before gen_erdos_renyi allocates n colours
    for edges in ({"m": 0}, {"p": 0.5}):
        with pytest.raises(ValueError, match=f"^n must be below {_MAX_ORDER}$"):
            RandomSpec(n=_MAX_ORDER, **edges)
        assert RandomSpec(n=_MAX_ORDER - 1, **edges).n == 2**31 - 1


def test_spec_refuses_a_colour_count_int64_ids_cannot_hold():
    # refused at construction, before gen_erdos_renyi draws any edge
    for colours in (2**63 + 1, 2**70):
        with pytest.raises(ValueError, match=f"^colour count must be at most {2**63}$"):
            RandomSpec(n=10, m=5, colours=colours)
    with pytest.raises(ValueError, match="^colour count must be at least 1$"):
        RandomSpec(n=10, m=5, colours=0)
    spec = RandomSpec(n=10, m=5, colours=2**63, seed=3)
    g = assign_random_colours(gen_erdos_renyi(spec), spec.colours, spec.seed + 1)
    assert g.colours.dtype == np.int64 and (g.colours >= 0).all()


def test_negative_seed_is_refused_before_drawing():
    g = gen_erdos_renyi(RandomSpec(n=5, m=4, seed=0))
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        assign_random_colours(g, 2, seed=-1)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        permute_enumeration(g, -5)


def test_exact_edge_count():
    g = gen_erdos_renyi(RandomSpec(n=30, m=100, seed=1))
    assert g.n == 30 and g.m == 100
    assert g.colours.tolist() == [0] * 30


def test_exact_sampler_frees_each_batch_before_the_next_sort():
    # a draw's pairs, their min and max columns and the self-loop mask are
    # dead once its keys are formed; kept over the sort of every key they
    # lifted the peak from about 13 to about 19 times the bytes of m int64
    # pairs, which is twice the bytes of the m keys returned
    tracemalloc.start()
    try:
        keys = generators._sample_pairs_exact(20_000, 100_000, generators._rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys.shape == (100_000,)
    assert peak < 30 * keys.nbytes


def test_exact_sampler_sorts_the_head_and_builds_keys_in_place():
    # with m distinct keys in its head, the sampler sorts about m keys, not
    # 4m, and each draw's keys are built over one of its columns: below 8
    # times the bytes of m int64 pairs
    tracemalloc.start()
    try:
        keys = generators._sample_pairs_exact(20_000, 100_000, generators._rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys.shape == (100_000,)
    assert peak < 20 * keys.nbytes


def test_exact_sampler_draws_only_the_head():
    # with m distinct keys in its head, the sampler draws the head alone,
    # m + m//16 + 64 pairs: about 5.3 times the bytes of the m keys returned
    tracemalloc.start()
    try:
        keys = generators._sample_pairs_exact(20_000, 100_000, generators._rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys.shape == (100_000,)
    assert peak < 10 * keys.nbytes


@pytest.mark.parametrize("n", [2, 50_000, 2**33])
@pytest.mark.parametrize("k", [1, 64, 1001, 4096])
def test_bounded_draw_is_filled_in_order(n, k):
    # a draw's pairs are the first pairs of a longer draw from the same
    # state, on numpy's 32-bit and 64-bit bounded paths alike
    for seed in range(3):
        whole = generators._rng(seed).integers(0, n, size=(5000, 2), dtype=np.int64)
        head = generators._rng(seed).integers(0, n, size=(k, 2), dtype=np.int64)
        assert np.array_equal(head, whole[:k]), (n, k, seed)


@pytest.mark.parametrize("n", [2, 3, 50_000, 3 * 2**29, 2**31 - 1, 2**33])
def test_bounded_draws_do_not_depend_on_how_the_stream_is_cut(n):
    # numpy fills a bounded draw one value after another from the generator
    # state, which holds PCG64's half-used 32-bit word: consecutive draws of
    # k1, k2, ... pairs give the pairs of one draw of their sum and leave the
    # same state, so the exact sampler's pairs depend on the seed alone.  At
    # n = 3 * 2**29 about a quarter of the raw 32-bit values are rejected
    cutter = np.random.default_rng(n)
    for seed in range(20):
        cuts = np.sort(cutter.integers(0, 5000, size=int(cutter.integers(1, 6)))).tolist()
        whole_rng, cut_rng = generators._rng(seed), generators._rng(seed)
        whole = whole_rng.integers(0, n, size=(5000, 2), dtype=np.int64)
        parts = [cut_rng.integers(0, n, size=(b - a, 2), dtype=np.int64) for a, b in zip([0, *cuts], [*cuts, 5000])]
        assert np.array_equal(np.concatenate(parts), whole), (n, seed, cuts)
        assert cut_rng.bit_generator.state == whole_rng.bit_generator.state, (n, seed, cuts)


def _first_drawn_cases():
    """(keys, n, bits) for each case the sampler's first-draw routine is
    checked on: keys lo*n + hi in draw order, repeats included, and the
    width of the packed word, the bits of n*n - 1 and of the last position."""
    rng = np.random.default_rng(13)
    cases = [(np.empty(0, dtype=np.int64), 5), (np.array([9], dtype=np.int64), 5), (np.array([5, 5, 5, 5], dtype=np.int64), 3)]
    # 100 positions take 7 bits: n = 2**28 + 1 has n*n - 1 of 57 bits, so
    # its words are exactly 64 bits wide; the least n with n*n > 2**57 has
    # 58, one over.  Twelve ends spread over 0..n-1 give repeated pairs
    for n, size in ((6, 200), (300, 1000), (2**28 + 1, 100), (math.isqrt(2**57) + 1, 100)):
        ends = np.sort(rng.choice(n, size=min(n, 12), replace=False))
        pairs = np.sort(ends[rng.integers(0, ends.size, size=(3 * size, 2))], axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]][:size]
        cases.append((pairs[:, 0] * n + pairs[:, 1], n))
    return [(keys, n, (n * n - 1).bit_length() + max(keys.size - 1, 0).bit_length()) for keys, n in cases]


def _first_drawn_by_np_unique(keys, m):
    """The m distinct keys drawn first, ascending, by a partition of
    np.unique's first positions; None when fewer are distinct."""
    uniq, first = np.unique(keys, return_index=True)
    if uniq.size < m:
        return None
    return np.sort(uniq[np.argpartition(first, m - 1)[:m]])


def test_first_drawn_branches_match_np_unique():
    # the packed sort and the argsort each give the m keys whose first
    # draws come first, ascending, and None when fewer are distinct
    widths = set()
    for keys, n, bits in _first_drawn_cases():
        distinct = np.unique(keys).size
        for m in sorted({1, max(distinct // 2, 1), max(distinct, 1), distinct + 1}):
            got = generators._first_drawn(keys, n, m)
            want = _first_drawn_by_np_unique(keys, m)
            if want is None:
                assert got is None, (n, m)
                continue
            assert got.dtype == np.int64 and np.array_equal(got, want), (n, m, keys.tolist())
            # in draw order, the first m distinct keys
            assert got.tolist() == sorted(list(dict.fromkeys(keys.tolist()))[:m]), (n, m)
        widths.add(bits)
    assert {64, 65} <= widths


def test_first_drawn_packs_key_and_position_up_to_64_bits(monkeypatch):
    # the argsort is taken only when n*n - 1 and the last position need more
    # than 64 bits together, whatever the keys drawn
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or argsort(*args, **kwargs))
    for keys, n, bits in _first_drawn_cases():
        del sorts[:]
        generators._first_drawn(keys, n, max(np.unique(keys).size, 1))
        assert bool(sorts) == (bits > 64), (n, bits)


class CountingRng:
    """A seeded generator that counts the draws made from it."""

    def __init__(self, seed):
        self._rng = generators._rng(seed)
        self.draws = 0

    def integers(self, low, high, size, dtype):
        self.draws += 1
        return self._rng.integers(low, high, size=size, dtype=dtype)


def test_exact_sampler_matches_set_reference():
    # (2, 1) and (3, 3): tiny graphs; (60, 1770) and (200, 19 900): complete
    # graphs, whose head of m + m//16 + 64 pairs falls short of m distinct
    # ones.  The reference cuts the stream into batches of its own, which
    # the pairs do not depend on
    cases = [(2, 1), (3, 3), (200, 19_900), (60, 1770), (60, 1769)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for _ in range(67):
            n = int(rng.integers(2, 300))
            cases.append((n, int(rng.integers(0, min(n * (n - 1) // 2, 1500) + 1))))
    draws = {}
    for k, (n, m) in enumerate(cases):
        got_rng = CountingRng(k)
        keys = generators._sample_pairs_exact(n, m, got_rng)
        want = sample_pairs_by_set(n, m, generators._rng(k))
        assert keys.dtype == np.int64 and keys.shape == (m,), (n, m)
        want = want[np.lexsort((want[:, 1], want[:, 0]))]
        assert np.array_equal(np.column_stack(divmod(keys, n)), want), (n, m)
        draws[n, m] = got_rng.draws
    # each draw after the head doubles the pairs drawn, so collecting every
    # pair of a complete graph takes a few draws, not one per missing pair
    for complete in ((60, 1770), (200, 19_900)):
        assert 1 < draws[complete] <= 10, (complete, draws[complete])


def test_zero_edges():
    g = gen_erdos_renyi(RandomSpec(n=4, m=0, seed=9))
    assert g.m == 0


def test_m_equal_max_forces_complete_graph():
    g = gen_erdos_renyi(RandomSpec(n=5, m=10, seed=3))
    assert g.m == 10
    assert all(int(d) == 4 for d in g.degrees)


def test_bernoulli_extremes():
    assert gen_erdos_renyi(RandomSpec(n=6, p=0.0, seed=0)).m == 0
    g = gen_erdos_renyi(RandomSpec(n=6, p=1.0, seed=0))
    assert g.m == 15


def test_same_seed_same_graph():
    spec = RandomSpec(n=40, m=120, seed=77)
    assert graphs_equal(gen_erdos_renyi(spec), gen_erdos_renyi(spec))
    spec_p = RandomSpec(n=25, p=0.3, seed=13)
    assert graphs_equal(gen_erdos_renyi(spec_p), gen_erdos_renyi(spec_p))


def test_different_seeds_differ():
    a = gen_erdos_renyi(RandomSpec(n=30, m=60, seed=0))
    b = gen_erdos_renyi(RandomSpec(n=30, m=60, seed=1))
    assert not graphs_equal(a, b)


def test_colour_assignment_replayable():
    g = gen_erdos_renyi(RandomSpec(n=50, m=80, seed=5))
    coloured = assign_random_colours(g, 4, seed=123)
    # the documented draw: one uniform integer per vertex from PCG64(seed)
    expected = np.random.Generator(np.random.PCG64(123)).integers(0, 4, size=50)
    assert np.array_equal(coloured.colours, expected)
    assert np.array_equal(coloured.keys, g.keys)


def test_single_colour_means_monochromatic():
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=10, m=12, seed=2)), 1, seed=8)
    assert np.unique(g.colours).tolist() == [0]


def test_permutation_preserves_structure():
    g = assign_random_colours(gen_erdos_renyi(RandomSpec(n=20, m=40, seed=4)), 3, seed=6)
    h, perm = permute_enumeration(g, seed=99)
    assert h.n == g.n and h.m == g.m
    assert sorted(perm.tolist()) == list(range(20))
    # degree and colour travel with the vertex
    for v in range(g.n):
        assert int(h.colours[perm[v]]) == int(g.colours[v])
        assert int(h.degrees[perm[v]]) == int(g.degrees[v])
    edge_set = {tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edge_array().tolist()}
    assert edge_set == {tuple(e) for e in h.edge_array().tolist()}


def test_permutation_keeps_uint64_colours_at_and_above_2_63():
    # colours are scattered in the input's own dtype, so ids int64 cannot
    # hold travel with their vertices as they are
    g = ColouredGraph(n=3, colours=np.array([2**63, 2**64 - 1, 0], dtype=np.uint64), keys=np.array([1, 5]))
    h, perm = permute_enumeration(g, seed=3)
    assert h.colours.dtype == np.uint64
    assert [int(h.colours[perm[v]]) for v in range(3)] == [2**63, 2**64 - 1, 0]


def test_permutation_inverse_recovers_original(p4):
    h, perm = permute_enumeration(p4, seed=21)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    colours = np.empty(h.n, dtype=np.int64)
    colours[inverse] = h.colours
    restored = new_graph(h.n, inverse[h.edge_array()], colours)
    assert graphs_equal(restored, p4)


def test_permutation_partition_pulls_back(fig24):
    h, perm = permute_enumeration(fig24, seed=31)
    base = {frozenset(b.tolist()) for b in colour_partition(fig24).fibres}
    permuted = colour_partition(h)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    pulled = {frozenset(int(inverse[x]) for x in b.tolist()) for b in permuted.fibres}
    assert pulled == base


def test_permutation_contraction_is_canonical(fig24):
    _, trace = contract_to_fixpoint(fig24)
    base_blocks = {}
    for v, t in enumerate(trace.total_map.tolist()):
        base_blocks.setdefault(t, set()).add(v)
    base = {frozenset(b) for b in base_blocks.values()}
    for seed in (1, 2, 3):
        h, perm = permute_enumeration(fig24, seed)
        _, trace_h = contract_to_fixpoint(h)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        blocks = {}
        for v, t in enumerate(trace_h.total_map.tolist()):
            blocks.setdefault(t, set()).add(int(inverse[v]))
        assert {frozenset(b) for b in blocks.values()} == base


def test_degenerate_orders_permute_to_themselves():
    for g in (new_graph(0, [], []), new_graph(1, [], [3])):
        h, perm = permute_enumeration(g, seed=0)
        assert graphs_equal(g, h)
        assert perm.size == g.n
