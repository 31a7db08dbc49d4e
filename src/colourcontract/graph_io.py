"""Text round-trip, DOT export and run statistics for coloured graphs.

File format, by line, with ``#`` comments and blank lines ignored anywhere:

    n m
    c0 c1 ... c(n-1)     (omitted entirely when n = 0)
    u v                  (m lines; any order and orientation)

Serialisation is canonical: colours on one line, edges as ``u v`` with
``u < v`` in lexicographic order, so parse(serialise(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Iterable

import numpy as np

from .engine import ContractionTrace
from .graph import ColouredGraph, new_graph

# fills for DOT output; colour ids map to ranks, ranks cycle over this palette
_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860",
    "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd", "#4c9f70", "#b07aa1",
)
_ROLE_FILLS = {"P": "#c44e52", "Q": "#ccb974", "R": "#4c72b0"}


class GraphParseError(ValueError):
    """Parse failure carrying the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped


def _ints(line_no: int, line: str, expected: int, what: str) -> list[int]:
    tokens = line.split()
    if len(tokens) != expected:
        raise GraphParseError(line_no, f"expected {expected} {what}, got {len(tokens)}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise GraphParseError(line_no, f"non-integer {what}: {line!r}") from None


def parse_graph(source: str | IO[str]) -> ColouredGraph:
    """Parse the text format; errors report the offending line number."""
    text = source if isinstance(source, str) else source.read()
    lines = list(_content_lines(text))
    cursor = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 0
            raise GraphParseError(last + 1, f"unexpected end of input, missing {what}")
        entry = lines[cursor]
        cursor += 1
        return entry

    line_no, header = take("header")
    n, m = _ints(line_no, header, 2, "header fields")
    if n < 0 or m < 0:
        raise GraphParseError(line_no, "n and m must be non-negative")

    if n > 0:
        line_no, colour_line = take("colour line")
        colour_values = _ints(line_no, colour_line, n, "colour ids")
        if min(colour_values, default=0) < 0:
            raise GraphParseError(line_no, "colour ids must be non-negative")
    else:
        colour_values = []

    edges = np.empty((m, 2), dtype=np.int64)
    for k in range(m):
        line_no, edge_line = take(f"edge {k + 1} of {m}")
        u, v = _ints(line_no, edge_line, 2, "edge endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u}")
        edges[k] = (u, v)

    if cursor != len(lines):
        raise GraphParseError(lines[cursor][0], "trailing content after the edge list")
    return new_graph(n, edges, np.asarray(colour_values, dtype=np.int64))


def serialize_graph(g: ColouredGraph) -> str:
    """Canonical text form of a graph."""
    parts = [f"{g.n} {g.m}"]
    if g.n:
        parts.append(" ".join(str(int(c)) for c in g.colours))
    for u, v in g.edge_array().tolist():
        parts.append(f"{u} {v}")
    return "\n".join(parts) + "\n"


def export_dot(g: ColouredGraph, role_labels: Iterable[str] | None = None) -> str:
    """Undirected DOT text with one fill per colour id, vertices and edges in
    ascending order.  Optional role labels (P, Q, R) switch the fill to the
    role styling used for the worst-case family figures."""
    roles = tuple(role_labels) if role_labels is not None else None
    if roles is not None:
        if len(roles) != g.n:
            raise ValueError("role labels must cover every vertex")
        unknown = set(roles) - set(_ROLE_FILLS)
        if unknown:
            raise ValueError(f"unknown role labels: {sorted(unknown)}")
    rank = {int(c): r for r, c in enumerate(np.unique(g.colours))}
    out = ["graph coloured {", "  node [shape=circle, style=filled];"]
    for v in range(g.n):
        if roles is not None:
            fill = _ROLE_FILLS[roles[v]]
            out.append(f'  {v} [label="{v}", fillcolor="{fill}", role="{roles[v]}"];')
        else:
            fill = _PALETTE[rank[int(g.colours[v])] % len(_PALETTE)]
            out.append(f'  {v} [label="{v}", fillcolor="{fill}"];')
    for u, v in g.edge_array().tolist():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class StatsRecord:
    """Per-iteration run statistics; iteration indices are contiguous from 1."""

    iteration: int
    n_before: int
    m_before: int
    n_after: int
    wall_time_ms: float


def stats_records(trace: ContractionTrace) -> list[StatsRecord]:
    return [
        StatsRecord(
            iteration=k + 1,
            n_before=r.n,
            m_before=r.m,
            n_after=r.n_prime,
            wall_time_ms=r.wall_time_ms,
        )
        for k, r in enumerate(trace.per_iteration)
    ]


def stats_dict(initial: ColouredGraph, final: ColouredGraph, trace: ContractionTrace, include_trace: bool = False) -> dict:
    """JSON-ready summary of one contraction run: totals plus per-iteration rows."""
    per_iteration = [asdict(r) for r in stats_records(trace)]
    if include_trace:
        for row, record in zip(per_iteration, trace.per_iteration):
            row["becomes"] = [int(x) for x in record.mapping.becomes.tolist()]
    return {
        "n0": initial.n,
        "m0": initial.m,
        "final_n": final.n,
        "final_m": final.m,
        "iterations": trace.iterations,
        "total_wall_time_ms": sum(r.wall_time_ms for r in trace.per_iteration) + trace.finish_wall_time_ms,
        "finish_wall_time_ms": trace.finish_wall_time_ms,
        "per_iteration": per_iteration,
    }


def stats_json(initial: ColouredGraph, final: ColouredGraph, trace: ContractionTrace, include_trace: bool = False) -> str:
    return json.dumps(stats_dict(initial, final, trace, include_trace=include_trace), indent=2) + "\n"
