"""Adversarial monochromatic instances maximising the contraction iteration count.

Level i has exactly fib_number(i + 2) vertices.  Its first fib_number(i + 1)
vertices are the cluster representatives of its pointer forest, every cluster
has order 1 or 2, and the step map is the closed form
``becomes[v] = v if v < fib_number(i + 1) else v - fib_number(i + 1)``, so one
contraction step reproduces level i - 1 exactly and the full run takes
exactly i iterations, matching iteration_bound.  The generator builds the
edge list straight from that closed form, without running the engine, so the
tightness checks in the tests (``tests/test_worstcase.py``, every level
0-22) are an independent cross-check of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import evaluate_contraction_mapping
from .graph import ColouredGraph, new_graph

ROLE_PAIR_ROOT = "P"  # representative of a two-vertex cluster (a fresh leaf)
ROLE_NON_ROOT = "Q"   # non-representative member of a cluster
ROLE_LONE_ROOT = "R"  # representative of a singleton cluster

MAX_LEVEL = 30  # fib_number(32) = 2178309 vertices; higher levels only burn memory


def fib_number(j: int) -> int:
    """Fibonacci number with F(0) = 0, F(1) = 1."""
    if j < 0:
        raise ValueError("fib_number requires j >= 0")
    a, b = 0, 1
    for _ in range(j):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class FibInstance:
    """One level of the family: the graph and its per-vertex roles."""

    graph: ColouredGraph
    level: int
    roles: tuple[str, ...]


def generate_fib_instance(level: int) -> FibInstance:
    """Build the level-i instance from the closed form of its step map.

    Level i + 1 comes from level i with n = fib_number(i + 2) vertices and
    k = fib_number(i + 1) representatives: every representative j < k moves
    to n + j, and a new leaf takes index j with the edge (j, n + j).  The
    family is a tree, so level i has n - 1 edges.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
    order = fib_number(level + 2)
    edges = np.empty((order - 1, 2), dtype=np.int64)
    n, k = 1, 1  # fib_number(i + 2), fib_number(i + 1) at level i
    for _ in range(level):
        old = edges[:n - 1]
        old[old < k] += n
        leaves = np.arange(k, dtype=np.int64)
        edges[n - 1:n - 1 + k, 0] = leaves
        edges[n - 1:n - 1 + k, 1] = leaves + n
        n, k = n + k, n
    graph = new_graph(order, edges, np.zeros(order, dtype=np.int64))
    if level == 0:
        return FibInstance(graph=graph, level=0, roles=(ROLE_LONE_ROOT,))
    pairs = fib_number(level)
    roles = (ROLE_PAIR_ROOT,) * pairs + (ROLE_LONE_ROOT,) * fib_number(level - 1) + (ROLE_NON_ROOT,) * pairs
    return FibInstance(graph=graph, level=level, roles=roles)


def classify_roles(g: ColouredGraph) -> tuple[str, ...]:
    """Role of every vertex under the current pointer forest.

    Cluster representatives of non-singleton clusters are P, other members
    are Q, and isolated representatives are R.  On generated instances this
    reproduces the stored role labels.
    """
    mapping = evaluate_contraction_mapping(g)
    roles = np.full(g.n, ROLE_NON_ROOT)
    roles[mapping.representatives] = np.where(mapping.cluster_sizes > 1, ROLE_PAIR_ROOT, ROLE_LONE_ROOT)
    return tuple(roles.tolist())
