"""Span recording around the package's public functions, from outside the package.

While an operation is traced, every target function below is replaced by a
timing wrapper on each package module that holds it, so callers that resolve
the name at call time (``engine.evaluate_contraction_mapping`` inside
``contract_to_fixpoint``, ``cli.parse_graph`` inside ``run_cli``, ...) go
through the wrapper.  ``ColouredGraph.__post_init__`` is wrapped on the class
and recorded as ``graph.validate``.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, run_id]``, one
run id per benchmark operation, and written out when the run ends.  A span's
exclusive time is its duration minus its children's durations; it is charged
to the span itself, or, for a folded span, to its nearest unfolded ancestor.
"""

from __future__ import annotations

import gzip
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import colourcontract
from colourcontract import cli, engine, generators, graph, graph_io, oracle, worstcase

MODULES = (colourcontract, cli, engine, generators, graph, graph_io, oracle, worstcase)

TARGETS = (
    (cli, "run_cli"),
    (graph_io, "parse_graph"),
    (graph_io, "serialize_graph"),
    (graph, "new_graph"),
    (graph, "colour_neighbourhood_set"),
    (engine, "build_functional_digraph"),
    (engine, "project_to_roots"),
    (engine, "compact_mapping"),
    (engine, "evaluate_contraction_mapping"),
    (engine, "apply_contraction"),
    (engine, "contract_to_fixpoint"),
    (engine, "equivalent_contractions"),
    (oracle, "colour_partition"),
    (oracle, "colour_component"),
    (generators, "gen_erdos_renyi"),
    (generators, "assign_random_colours"),
    (worstcase, "generate_fib_instance"),
)

VALIDATE = "graph.validate"
FIXPOINT_CHECK = "engine.fixpoint_check"

# Spans recorded for their count whose time belongs to the caller: the oracle's
# inner loop and the glue of a non-final evaluation, whose three steps stay
# spans of their own.
FOLDED = frozenset({"oracle.colour_component", "graph.colour_neighbourhood_set", "engine.evaluate_contraction_mapping"})

# Calls whose arguments and results feed the structural counters.
CAPTURED = frozenset({
    "graph_io.parse_graph",
    "graph_io.serialize_graph",
    "engine.build_functional_digraph",
    "engine.compact_mapping",
    "engine.evaluate_contraction_mapping",
    "engine.apply_contraction",
    "engine.contract_to_fixpoint",
})


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def forest_depth(parents: np.ndarray) -> int:
    """Longest pointer chain to a root in a parent array with parents[v] <= v."""
    cur = np.arange(parents.size, dtype=np.int64)
    depth = 0
    while cur.size:
        nxt = parents[cur]
        moving = nxt != cur
        if not moving.any():
            break
        cur = nxt[moving]
        depth += 1
    return depth


def same_colour_arcs(g) -> int:
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    return int((g.colours[src] == g.colours[g.indices]).sum())


class Tracer:
    """Records spans for traced operations and derives per-operation totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[tuple[str, int]] = []  # (kind, round) per run id
        self.counters: list[dict[str, float]] = []  # per run id
        self._stack: list[int] = []
        self._captures: list[tuple[int, tuple, object]] = []
        self._run_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, captures = self.spans, self._stack, self._captures
        capture = name in CAPTURED
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0, 0, stack[-1], tracer._run_id]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if capture:
                captures.append((idx, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self) -> None:
        for module, attr in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(_span_name(module, attr), original)
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)
        ColouredGraph = graph.ColouredGraph
        self._patched.append((ColouredGraph, "__post_init__", vars(ColouredGraph)["__post_init__"]))
        ColouredGraph.__post_init__ = self._wrap(VALIDATE, vars(ColouredGraph)["__post_init__"])

    def _uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    @contextmanager
    def op(self, kind: str, round_no: int):
        """Trace one benchmark operation; yields its root span record."""
        self._run_id = len(self.ops)
        self.ops.append((kind, round_no))
        self._install()
        root = [f"bench.{kind}", 0, 0, None, self._run_id]
        self.spans.append(root)
        self._stack.append(len(self.spans) - 1)
        root[1] = perf_counter_ns()
        try:
            yield root
        finally:
            root[2] = perf_counter_ns()
            self._stack.pop()
            self._uninstall()
            self.counters.append(self._digest())

    def _digest(self) -> dict[str, float]:
        """Counters of the operation just finished, from its captured calls."""
        c = {"bytes_in": 0, "bytes_out": 0, "same_colour_arcs": 0, "forest_depth_max": 0,
             "clusters_max": 0, "arcs_in": 0, "arcs_out": 0, "rounds": 0, "stats_wall_ms": 0.0, "outer_wall_ms": 0.0}
        for idx, args, result in self._captures:
            name = self.spans[idx][0]
            if name == "graph_io.parse_graph":
                c["bytes_in"] += len(args[0])
            elif name == "graph_io.serialize_graph":
                c["bytes_out"] += len(result)
            elif name == "engine.build_functional_digraph":
                c["same_colour_arcs"] += same_colour_arcs(args[0])
                c["forest_depth_max"] = max(c["forest_depth_max"], forest_depth(result))
            elif name == "engine.compact_mapping":
                c["clusters_max"] = max(c["clusters_max"], result.n_prime)
            elif name == "engine.evaluate_contraction_mapping":
                parent = self.spans[idx][3]
                if result.is_trivial and self.spans[parent][0] == "engine.contract_to_fixpoint":
                    self.spans[idx][0] = FIXPOINT_CHECK
            elif name == "engine.apply_contraction":
                c["arcs_in"] += int(args[0].indices.size)
                c["arcs_out"] += int(result.indices.size)
                c["rounds"] += 1
            elif name == "engine.contract_to_fixpoint":
                final, trace = result
                stats = graph_io.stats_dict(args[0], final, trace)
                c["stats_wall_ms"] += stats["total_wall_time_ms"]
                start, end = self.spans[idx][1:3]
                c["outer_wall_ms"] += (end - start) / 1e6
        self._captures.clear()
        return c

    def self_times(self) -> tuple[list[dict[str, int]], list[str]]:
        """Per run id, nanoseconds of self time by span name, plus accounting errors.

        A child must lie inside its parent and after its previous sibling, so
        that each span's self time plus its children's durations equals its
        own duration.
        """
        spans = self.spans
        per_run: list[dict[str, int]] = [dict() for _ in self.ops]
        errors: list[str] = []
        child_ns = [0] * len(spans)
        last_end = [None] * len(spans)
        owner = [0] * len(spans)
        for i, (name, start, end, parent, run_id) in enumerate(spans):
            if end < start:
                errors.append(f"span {i} ({name}) ends before it starts")
            if parent is None:
                owner[i] = i
                continue
            p_name, p_start, p_end = spans[parent][:3]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) lies outside its parent {p_name}")
            if last_end[parent] is not None and start < last_end[parent]:
                errors.append(f"span {i} ({name}) overlaps a sibling")
            last_end[parent] = end
            child_ns[parent] += end - start
            up = owner[parent]
            folded = name in FOLDED or spans[up][0] == FIXPOINT_CHECK
            owner[i] = up if folded else i
        for i, (name, start, end, parent, run_id) in enumerate(spans):
            own = end - start - child_ns[i]
            if own < 0:
                errors.append(f"span {i} ({name}) has children longer than itself")
            key = spans[owner[i]][0]
            per_run[run_id][key] = per_run[run_id].get(key, 0) + own
        return per_run, errors

    def call_counts(self) -> list[dict[str, int]]:
        per_run: list[dict[str, int]] = [dict() for _ in self.ops]
        for name, _, _, _, run_id in self.spans:
            per_run[run_id][name] = per_run[run_id].get(name, 0) + 1
        return per_run

    def write(self, path: Path) -> None:
        """Spans as gzip TSV: name, start_ns, end_ns, parent index, run id, op kind, round."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trun_id\top\tround\n")
            for name, start, end, parent, run_id in self.spans:
                kind, round_no = self.ops[run_id]
                out.write(f"{name}\t{start}\t{end}\t{'' if parent is None else parent}\t{run_id}\t{kind}\t{round_no}\n")
