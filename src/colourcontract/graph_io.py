"""Text round-trip, DOT export and run statistics for coloured graphs.

File format, by line, with ``#`` comments and blank lines ignored anywhere:

    n m
    c0 c1 ... c(n-1)     (omitted entirely when n = 0)
    u v                  (m lines; any order and orientation)

The header's m counts edge lines, not distinct edges: an edge listed twice,
in either orientation, is one edge, so the parsed graph can have fewer than m.
Numbers are read as Python's ``int()`` reads them and must fit in 64 bits;
n must be below 2**31.

Serialisation is canonical: colours on one line, edges as ``u v`` with
``u < v`` in lexicographic order, so parse(serialise(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from itertools import compress
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

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# the adjacency keys lo*n + hi stay inside int64 for every n below this
_MAX_ORDER = 2**31

# line breaks of str.splitlines() besides \n and \r\n (a lone \r is checked apart)
_OTHER_ASCII_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"
# the non-ASCII characters str.split() treats as whitespace, \x85 and \u2028-9 line breaks too
_NON_ASCII_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# plain text, read straight from its bytes: these bytes only, numbers of at
# most this many digits (every 18-digit number fits in int64)
_PLAIN_BYTES = b"0123456789 \t\r\n"
_PLAIN_MAX_DIGITS = 18


def _ascii_space(raw: np.ndarray) -> np.ndarray:
    """Mask of the UTF-8 bytes str.split() treats as whitespace: 0x09-0x0D
    and 0x1C-0x20.  uint8 subtraction wraps, so each range is one compare."""
    return ((raw - 0x09) <= 4) | ((raw - 0x1C) <= 4)


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
        values = [int(t) for t in tokens]
    except ValueError:
        raise GraphParseError(line_no, f"non-integer {what}: {line!r}") from None
    if values and not _INT64_MIN <= min(values) <= max(values) <= _INT64_MAX:
        raise GraphParseError(line_no, f"{what} outside the 64-bit integer range")
    return values


def _parse_lines(text: str) -> ColouredGraph:
    """Line-by-line parse: the reference semantics, and the exact error line."""
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
    if n >= _MAX_ORDER:
        raise GraphParseError(line_no, f"n must be below {_MAX_ORDER}")

    if n > 0:
        line_no, colour_line = take("colour line")
        colour_values = _ints(line_no, colour_line, n, "colour ids")
        if min(colour_values, default=0) < 0:
            raise GraphParseError(line_no, "colour ids must be non-negative")
    else:
        colour_values = []

    # m comes from the header: grow the edge list line by line, never allocate m up front
    edges: list[tuple[int, int]] = []
    for k in range(m):
        line_no, edge_line = take(f"edge {k + 1} of {m}")
        u, v = _ints(line_no, edge_line, 2, "edge endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u}")
        edges.append((u, v))

    if cursor != len(lines):
        raise GraphParseError(lines[cursor][0], "trailing content after the edge list")
    return new_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.asarray(colour_values, dtype=np.int64))


def _needs_line_path(text: str, data: bytes) -> bool:
    """True when the text holds a line break other than \\n or \\r\\n, or
    whitespace outside ASCII: the byte mask of the whole-text parse sees neither."""
    if any(ch in data for ch in _OTHER_ASCII_BREAKS):
        return True
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return True
    return not data.isascii() and _NON_ASCII_SPACE.search(text) is not None


def _plain_values(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Every token's value read straight from the bytes, or None when the
    text is not plain: only ASCII digits, spaces, tabs and line breaks, with
    no token longer than ``_PLAIN_MAX_DIGITS``.

    ``np.fromstring`` clamps an overflowing number to the int64 extreme and
    stops silently at bytes it cannot read, so the digit cap and the count
    check against the byte mask's tokens are what make its result exact.
    """
    if data.translate(None, _PLAIN_BYTES) or int((ends - starts).max()) > _PLAIN_MAX_DIGITS:
        return None
    try:
        values = np.fromstring(data, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    return values if values.size == starts.size else None


def _parse_whole(text: str) -> ColouredGraph | None:
    """Whole-text parse of well-formed input; None when anything is off.

    Finds the tokens and each token's line from one byte mask of whitespace
    and newlines, then checks the layout with array operations.  Plain text
    (see ``_plain_values``), which is all that ``serialize_graph`` writes, is
    converted straight from its bytes; any other text is split into token
    strings, comment lines dropped, and converted as ``int()`` would.
    Accepts exactly the inputs the line-by-line parse accepts, with the same
    result; on any other input it returns None and leaves the error to that
    parse.
    """
    data = text.encode("utf-8", "surrogatepass")
    if _needs_line_path(text, data):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # token i is data[starts[i]:ends[i]], one per token of text.split()
    word = np.zeros(raw.size + 2, dtype=bool)
    np.logical_not(_ascii_space(raw), out=word[1:-1])
    starts, ends = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T
    del word
    if starts.size == 0:
        return None
    # opens[i]: a newline lies before token i and after token i - 1
    opens = np.zeros(starts.size + 1, dtype=bool)
    opens[np.searchsorted(starts, np.flatnonzero(raw == 0x0A))] = True
    opens = opens[:-1]
    opens[0] = True

    values = _plain_values(data, starts, ends)
    if values is None:
        tokens = text.split()
        # a line whose first token starts with '#' is a comment: drop all its tokens
        comment = opens & (raw[starts] == 0x23)
        if comment.any():
            line = np.cumsum(opens) - 1
            keep = ~comment[opens][line]
            tokens = list(compress(tokens, keep.tolist()))
            opens = opens[keep]
        try:
            values = np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        del tokens  # the token strings outweigh every array here

    widths = np.diff(np.append(np.flatnonzero(opens), opens.size))  # tokens per content line
    if widths.size == 0 or widths[0] != 2:
        return None
    n, m = int(values[0]), int(values[1])
    if not (0 <= n < _MAX_ORDER and m >= 0):
        return None
    body = 2 if n > 0 else 1
    if widths.size != body + m or (n > 0 and widths[1] != n) or (widths[body:] != 2).any():
        return None
    try:
        return new_graph(n, values[2 + n:].reshape(m, 2), values[2:2 + n].copy())
    except ValueError:
        return None


def parse_graph(source: str | IO[str]) -> ColouredGraph:
    """Parse the text format; errors report the offending line number.

    Well-formed text is parsed in whole-array passes.  Plain text (ASCII
    digits and whitespace only, no number longer than 18 digits, as
    ``serialize_graph`` writes it) is read straight from its bytes by
    ``np.fromstring``; as that clamps overflows and stops silently at bytes
    it cannot read, the digit cap and a count check against the byte mask
    guard it.  Other well-formed text is converted token by token as
    ``int()`` reads it.  Anything else goes through the line-by-line parse,
    which raises the exact error (or handles the rare line breaks other than
    \\n and \\r\\n).
    """
    text = source if isinstance(source, str) else source.read()
    g = _parse_whole(text)
    return g if g is not None else _parse_lines(text)


def serialize_graph(g: ColouredGraph) -> str:
    """Canonical text form of a graph."""
    head = f"{g.n} {g.m}\n"
    if g.n:
        head += " ".join(map(str, g.colours.tolist())) + "\n"
    return head + "%d %d\n" * g.m % tuple(g.edge_array().ravel().tolist())


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
            row["becomes"] = record.mapping.becomes.tolist()
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
