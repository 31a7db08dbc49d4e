"""Independent re-implementations used as cross-checking oracles in tests.

Nothing here shares code with the package internals: components come from a
plain BFS, a union-find and scipy's ``connected_components`` (imported only
when called: scipy is not a dependency of the package), root projection
from per-vertex iterated lookup, fibres from appending each vertex to its
target's list, contraction from set relabelling, the graph file format
from a plain line-by-line reader, adjacency lists from the edge list, the
edge-key and adjacency-row checks from per-key and per-row Python loops,
and the exact edge sampler from a Python set.  Three exceptions use the
engine on purpose: ``equivalent_by_sets``, the set-based form of
``equivalent_contractions``, reuses the engine's round application (its
composition is ``compose_forward``, below), and differs in how it compares
and in rebuilding the final graph by applying every round in turn, where
the package checks the final graph the engine returned; ``replay`` rebuilds the graph before every
round of a trace the same way; ``component_orders`` reads a trace's rounds
and composes them itself; ``fib_by_growth`` builds the worst-case family by running one engine
evaluation per level, the construction that the closed-form generator
replaced.
"""

from collections import deque

import numpy as np

from colourcontract.engine import apply_contraction, evaluate_contraction_mapping
from colourcontract.graph import _sorted_unique, new_graph


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def adjacency(g):
    """Ascending neighbour list of every vertex, from the edge list in plain
    Python."""
    rows = [[] for _ in range(g.n)]
    for u, v in g.edge_array().tolist():
        rows[u].append(v)
        rows[v].append(u)
    return [sorted(row) for row in rows]


def bfs_colour_component(g, v):
    """Vertices reachable from v through same-colour edges, as a set."""
    rows = adjacency(g)
    colour = int(g.colours[v])
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in rows[u]:
            if int(g.colours[w]) == colour and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def unionfind_blocks(g):
    """Partition into colour components via union-find over same-colour edges."""
    uf = UnionFind(g.n)
    for u, v in g.edge_array().tolist():
        if int(g.colours[u]) == int(g.colours[v]):
            uf.union(u, v)
    blocks = {}
    for v in range(g.n):
        blocks.setdefault(uf.find(v), set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def ordered_unionfind_blocks(g):
    """``unionfind_blocks`` as ``colour_partition``'s fibres lay it out:
    ascending blocks ordered by smallest member, and the colour of each block."""
    blocks = sorted(sorted(b) for b in unionfind_blocks(g))
    return blocks, [int(g.colours[b[0]]) for b in blocks]


def scipy_blocks(g):
    """``ordered_unionfind_blocks`` computed by scipy's ``connected_components``
    over the same-colour edges."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    edges = g.edge_array()
    same = edges[g.colours[edges[:, 0]] == g.colours[edges[:, 1]]]
    adjacency = coo_matrix((np.ones(len(same)), (same[:, 0], same[:, 1])), shape=(g.n, g.n))
    count, labels = connected_components(adjacency, directed=False)
    members = [[] for _ in range(count)]
    for v, label in enumerate(labels.tolist()):
        members[label].append(v)
    blocks = sorted(members)
    return blocks, [int(g.colours[b[0]]) for b in blocks]


def roots_by_iterated_lookup(parents):
    """Follow each parent chain separately until it stops moving."""
    out = []
    for v in range(len(parents)):
        x = v
        while parents[x] != x:
            x = parents[x]
        out.append(int(x))
    return out


def fibres_by_grouping(becomes):
    """Members of every target of a target list, each ascending, by one pass
    that appends each source to its target's list."""
    fibres = [[] for _ in range(max(becomes, default=-1) + 1)]
    for v, t in enumerate(becomes):
        fibres[t].append(v)
    return fibres


def contract_by_relabel(g, block_of):
    """Contraction computed with plain set semantics.

    Returns (block count, edge set over block indices, colour list by block).
    """
    k = int(max(block_of)) + 1 if len(block_of) else 0
    edges = set()
    for u, v in g.edge_array().tolist():
        bu, bv = int(block_of[u]), int(block_of[v])
        if bu != bv:
            edges.add((min(bu, bv), max(bu, bv)))
    colours = [None] * k
    for v in range(g.n):
        colours[int(block_of[v])] = int(g.colours[v])
    return k, edges, colours


def validate_by_keys(n, keys):
    """The edge-key invariants of ColouredGraph checked one key at a time in
    plain Python: the message of the first check that fails, in the type's
    order of checks, or None when the keys form a valid graph."""
    keys = [int(k) for k in keys]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "edge keys must strictly ascend"
    if any(not 0 <= k < n * n for k in keys):
        return "edge key out of range"
    pairs = [divmod(k, n) for k in keys]
    if any(lo == hi for lo, hi in pairs):
        return "self-loops are not allowed"
    if any(lo > hi for lo, hi in pairs):
        return "edge keys must have lo < hi"
    return None


def validate_by_rows(n, m, indptr, indices):
    """The invariants of a graph's adjacency rows checked one row at a time
    in plain Python: the message of the first check that fails, or None when
    the arrays are the symmetric, ascending rows of a simple graph with m
    edges."""
    indptr, indices = [int(x) for x in indptr], [int(x) for x in indices]
    if len(indptr) != n + 1:
        return "indptr must have length n + 1"
    if indptr[0] != 0 or any(a > b for a, b in zip(indptr, indptr[1:])):
        return "indptr must be non-decreasing from 0"
    if len(indices) != 2 * m or indptr[-1] != 2 * m:
        return "degree sum must equal 2m"
    rows = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    if any(not 0 <= w < n for row in rows for w in row):
        return "neighbour index out of range"
    if any(v in row for v, row in enumerate(rows)):
        return "self-loops are not allowed"
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        return "adjacency rows must be strictly ascending"
    # the rows hold distinct arcs, so every arc having its reverse makes the
    # arc set equal its transpose
    if any(v not in rows[w] for v, row in enumerate(rows) for w in row):
        return "adjacency is not symmetric"
    return None


def graph_edge_set(g):
    return {(int(u), int(v)) for u, v in g.edge_array().tolist()}


def relabel_form(g):
    """A graph as (order, edge set, colour list), the shape contract_by_relabel returns."""
    return g.n, graph_edge_set(g), [int(c) for c in g.colours.tolist()]


class LineError(Exception):
    """The 1-based line on which parse_by_lines rejected its input."""

    def __init__(self, line_no):
        super().__init__(f"line {line_no}")
        self.line_no = line_no


def parse_by_lines(text):
    """The graph file format read one line at a time, in plain Python.

    Returns (order, edge set, colour list) like relabel_form, or raises
    LineError at the first offending line.  Within a line the token count is
    checked first, then the integers (Python int(), inside int64, or below
    2**64 for colour ids), then their values.  n must be below 2**31; a missing line is reported one past
    the last content line.
    """
    content = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() and not raw.strip().startswith("#"):
            content.append((line_no, raw.split()))

    def ints(k, count, top=2**63):
        if k >= len(content):
            raise LineError(content[-1][0] + 1 if content else 1)
        line_no, tokens = content[k]
        if len(tokens) != count:
            raise LineError(line_no)
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise LineError(line_no) from None
        if any(not -(2**63) <= x < top for x in values):
            raise LineError(line_no)
        return line_no, values

    line_no, (n, m) = ints(0, 2)
    if n < 0 or m < 0 or n >= 2**31:
        raise LineError(line_no)
    k, colours = 1, []
    if n > 0:
        line_no, colours = ints(1, n, top=2**64)
        k = 2
        if min(colours) < 0:
            raise LineError(line_no)
    edges = set()
    for _ in range(m):
        line_no, (u, v) = ints(k, 2)
        k += 1
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise LineError(line_no)
        edges.add((min(u, v), max(u, v)))
    if k != len(content):
        raise LineError(content[k][0])
    return n, edges, colours


def serialize_by_join(g):
    """The canonical text form, one line per string joined at the end."""
    parts = [f"{g.n} {g.m}"]
    if g.n:
        parts.append(" ".join(str(int(c)) for c in g.colours))
    parts.extend(f"{u} {v}" for u, v in g.edge_array().tolist())
    return "\n".join(parts) + "\n"


def random_coloured_graph(rng, max_n=24, max_colours=4):
    """Plain random graph built straight from python loops, for seeding tests."""
    n = int(rng.integers(0, max_n + 1))
    colour_count = int(rng.integers(1, max_colours + 1))
    colours = rng.integers(0, colour_count, size=n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                edges.append((u, v))
    return n, edges, colours.tolist()


def sample_pairs_by_set(n, m, rng):
    """First m distinct unordered pairs of the draws, kept in a Python set.

    The draws come in batches of four times the pairs still missing plus
    16, and at least 64.  Consecutive bounded draws equal one draw of their
    total length, so the pairs do not depend on these batches: they equal
    those of the package's exact sampler, which cuts the stream otherwise.
    """
    seen, order = set(), []
    while len(seen) < m:
        batch = max(4 * (m - len(seen)) + 16, 64)
        for u, v in rng.integers(0, n, size=(batch, 2), dtype=np.int64).tolist():
            pair = (min(u, v), max(u, v))
            if u != v and pair not in seen:
                seen.add(pair)
                order.append(pair)
    return np.array(order[:m], dtype=np.int64).reshape(-1, 2)


def compose_forward(n0, mappings):
    """Every vertex of order n0 taken through the mappings in turn, first to
    last, one list lookup per vertex and mapping.  Raises ValueError when a
    mapping's source order is not the order its predecessor reaches."""
    total, width = list(range(n0)), n0
    for mapping in mappings:
        if mapping.n != width:
            raise ValueError(f"mapping chain mismatch: expected source order {width}, got {mapping.n}")
        becomes = mapping.becomes.tolist()
        total, width = [becomes[v] for v in total], mapping.n_prime
    return np.array(total, dtype=np.int64)


def equivalent_by_sets(g, trace, partition):
    """True when the trace realises exactly the partition's contraction.

    Checks, in order: the composed mapping is internally consistent, its
    fibre partition equals the partition's fibres as a set of sets, each
    final vertex has its block's colour, and the final edge set
    re-expressed over block indices equals the block-level edge set of g.
    Any structural mismatch in the trace returns False rather than raising;
    every round and the partition were checked onto their targets when they
    were built, and the partition is read through its ``fibres`` alone.
    """
    try:
        total = compose_forward(g.n, [r.mapping for r in trace.per_iteration])
    except ValueError:
        return False
    if not np.array_equal(total, trace.total_map):
        return False

    uniq = _sorted_unique(total)
    if not np.array_equal(uniq, np.arange(uniq.size, dtype=np.int64)):
        return False
    # total is onto 0..k-1, so the fibres are runs of its stable sort
    engine_fibres = np.split(np.argsort(total, kind="stable"), np.cumsum(np.bincount(total))[:-1]) if g.n else []
    blocks = [b.tolist() for b in partition.fibres]
    oracle_index = {frozenset(b): j for j, b in enumerate(blocks)}
    engine_sets = [frozenset(f.tolist()) for f in engine_fibres]
    if set(engine_sets) != set(oracle_index):
        return False
    correspondence = [oracle_index[s] for s in engine_sets]

    final = g
    try:
        for record in trace.per_iteration:
            final = apply_contraction(final, record.mapping)
    except ValueError:
        return False
    if final.n != len(engine_fibres):
        return False
    for t, j in enumerate(correspondence):
        if {int(final.colours[t])} != {int(g.colours[v]) for v in blocks[j]}:
            return False

    ea = final.edge_array()
    engine_edges = {
        (min(correspondence[int(u)], correspondence[int(v)]), max(correspondence[int(u)], correspondence[int(v)]))
        for u, v in ea.tolist()
    }
    block_of = {v: j for j, b in enumerate(blocks) for v in b}
    oracle_edges = set()
    for u, v in g.edge_array().tolist():
        bu, bv = block_of[u], block_of[v]
        if bu != bv:
            oracle_edges.add((min(bu, bv), max(bu, bv)))
    return engine_edges == oracle_edges


def replay(g, trace):
    """The graphs of a run: g, then g after each round's mapping in turn;
    the last is the run's final graph."""
    graphs = [g]
    for record in trace.per_iteration:
        graphs.append(apply_contraction(graphs[-1], record.mapping))
    return graphs


def fib_by_growth(level):
    """Level-i worst-case instance grown level by level through the engine.

    Each level attaches one new leaf to every cluster representative of the
    current pointer forest, then renumbers so that each leaf steals its
    representative's old index and the representative moves past every
    existing vertex.  Returns (graph, roles, previous order).
    """
    g = new_graph(1, [], [0])
    roles = ("R",)
    prev_order = 0
    for _ in range(level):
        mapping = evaluate_contraction_mapping(g)
        k = mapping.n_prime
        if not np.array_equal(mapping.representatives, np.arange(k, dtype=np.int64)):
            raise RuntimeError("family invariant broken: representatives are not 0..k-1")
        n = g.n
        # old representative j moves to n + j, everything else keeps its
        # index, and the new leaf attached to it takes index j
        relabel = np.arange(n, dtype=np.int64)
        relabel[:k] += n
        old_edges = relabel[g.edge_array()] if g.m else np.empty((0, 2), dtype=np.int64)
        leaves = np.arange(k, dtype=np.int64)
        edges = np.vstack([old_edges, np.column_stack([leaves, leaves + n])])
        g = new_graph(n + k, edges, np.zeros(n + k, dtype=np.int64))
        roles = ("P",) * k + ("R",) * (n - k) + ("Q",) * k
        prev_order = n
    return g, roles, prev_order


def component_orders(g, trace):
    """Orders of every final vertex's component, round by round, as a
    (rounds + 1, k) array: entry (j, c) counts the vertices of the graph
    after j rounds (row 0: g; the last row: the final graph, all ones) that
    final vertex c collects.  The rounds are composed one gather at a time;
    per round, one unique of the keys ``total_map * k_j + composed_j``, k_j
    the order after j rounds, lists each final vertex's distinct vertices
    after j rounds, and a bincount counts them."""
    total = trace.total_map
    k = trace.per_iteration[-1].n_prime if trace.iterations else g.n
    composed = np.arange(g.n, dtype=np.int64)
    rows = [np.bincount(total, minlength=k)]
    for record in trace.per_iteration:
        composed, width = record.mapping.becomes[composed], record.n_prime
        rows.append(np.bincount(np.unique(total * width + composed) // width, minlength=k))
    return np.array(rows)


def r_star(s):
    """The paper's sharp round bound for a component of order s >= 1: the
    largest i with F(i + 2) <= s, F the Fibonacci numbers."""
    i, f, f_next = 0, 1, 2  # F(i + 2), F(i + 3)
    while f_next <= s:
        i += 1
        f, f_next = f_next, f + f_next
    return i
