"""Text round-trip, DOT export and run statistics for coloured graphs.

File format, by line, with ``#`` comments and blank lines ignored anywhere,
lines broken as ``str.splitlines()`` breaks them:

    n m
    c0 c1 ... c(n-1)     (omitted entirely when n = 0)
    u v                  (m lines; any order and orientation)

The header's m counts edge lines, not distinct edges: an edge listed twice,
in either orientation, is one edge, so the parsed graph can have fewer than m.
Numbers are read as Python's ``int()`` reads them.  Colour ids must lie in
[0, 2**64), and are held as uint64 when one is at or above 2**63, as int64
otherwise; every other number must fit in int64, and n must be below 2**31.

Input is ``str`` or UTF-8 ``bytes``, whole or as a stream; the command line
hands over the file's bytes undecoded.  Parsing takes one of two paths, both
on the calling thread; none starts a thread.  Text laid out as
``serialize_graph`` writes it, once its line breaks are ``\\n`` and its comment
lines are cut, is read straight from its bytes: single spaces between
numbers, every line ended by ``\\n``, no blank line, and every number a run of
ASCII digits below 10**18.  All other text, with tabs, runs of spaces, blank
lines, a missing final newline or longer numbers, goes through the
line-by-line reader, the reference, which reads it exactly but holds a
Python string per line, and reports the exact line of an error.

Serialisation is canonical: colours on one line, edges as ``u v`` with
``u < v`` in lexicographic order, so parse(serialise(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
import re
import resource
from array import array
from typing import IO, Iterable, Iterator

import numpy as np

from .engine import ContractionTrace
from .graph import _MAX_ORDER, ColouredGraph, _endpoints, new_graph

# fills for DOT output; colour ids map to ranks, ranks cycle over this palette
_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860",
    "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd", "#4c9f70", "#b07aa1",
)
_ROLE_FILLS = {"P": "#c44e52", "Q": "#ccb974", "R": "#4c72b0"}

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_UINT64_MAX = 2**64 - 1

# the line-by-line parse splits this many characters, up to the next \n, into
# lines at a time, so it never holds every line of the text at once
_LINE_CHUNK = 1 << 16

# a comment line, cut from the bytes with its \n, or only up to the first byte
# at which str.splitlines() or str.split() could read the text differently:
# any other ASCII line break, or any byte of a non-ASCII character
_COMMENT = re.compile(rb"^[ \t]*#[^\n\r\x0b\x0c\x1c-\x1e\x80-\xff]*\n?", re.M)
# the byte path's cap on every number: np.fromstring clamps a number past
# the int64 range to the int64 maximum, which is not below it
_PLAIN_TOP = 10**18
# the writer turns this many values into text at a time, so that its
# temporaries, a few bytes per digit place of each value, are bounded by the
# block and not by the graph.  Measured on a 2-core Xeon: serialize_graph on
# the ER benchmark's input (1.13M values) took 46, 43, 48 and 55 ms for
# blocks of 2**14, 2**16, 2**18 and 2**20 values, and at n = 10**6 (27.6M
# values) 1.51, 1.36 and 1.50 s for the first three; a block of 2**16 holds
# about 2 MB of temporaries, far below the sampler's peak that sets gen's
_WRITE_CHUNK = 1 << 16


class GraphParseError(ValueError):
    """Parse failure carrying the 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered non-blank, non-comment lines, stripped, as ``text.splitlines()``
    numbers them, split one chunk at a time."""
    line_no, start = 0, 0
    while start < len(text):
        # a chunk ends just after a \n, where the chunks' lines are the text's
        end = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        for raw in text[start:end].splitlines():
            line_no += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                yield line_no, stripped
        start = end


def _ints(line_no: int, line: str, expected: int, what: str, top: int = _INT64_MAX) -> list[int]:
    """The line's ``expected`` integers, each in [-2**63, top]."""
    tokens = line.split()
    if len(tokens) != expected:
        raise GraphParseError(line_no, f"expected {expected} {what}, got {len(tokens)}")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise GraphParseError(line_no, f"non-integer {what}: {line!r}") from None
    if values and not _INT64_MIN <= min(values) <= max(values) <= top:
        raise GraphParseError(line_no, f"{what} outside the 64-bit integer range")
    return values


def _parse_lines(text: str) -> ColouredGraph:
    """Line-by-line parse: the reference semantics, and the exact error line.

    The lines are read as a stream and the endpoints collect in one flat
    int64 array, so memory beyond the text is bounded by the arrays.
    """
    lines = _content_lines(text)
    last = 0  # line number of the last content line taken

    def take(what: str) -> tuple[int, str]:
        nonlocal last
        entry = next(lines, None)
        if entry is None:
            raise GraphParseError(last + 1, f"unexpected end of input, missing {what}")
        last = entry[0]
        return entry

    line_no, header = take("header")
    n, m = _ints(line_no, header, 2, "header fields")
    if n < 0 or m < 0:
        raise GraphParseError(line_no, "n and m must be non-negative")
    if n >= _MAX_ORDER:
        raise GraphParseError(line_no, f"n must be below {_MAX_ORDER}")

    if n > 0:
        line_no, colour_line = take("colour line")
        colour_values = _ints(line_no, colour_line, n, "colour ids", top=_UINT64_MAX)
        if min(colour_values, default=0) < 0:
            raise GraphParseError(line_no, "colour ids must be non-negative")
    else:
        colour_values = []

    # m comes from the header: grow the endpoints line by line, never allocate m up front
    endpoints = array("q")
    for k in range(m):
        line_no, edge_line = take(f"edge {k + 1} of {m}")
        u, v = _ints(line_no, edge_line, 2, "edge endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(line_no, f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphParseError(line_no, f"self-loop at vertex {u}")
        endpoints.extend((u, v))

    trailing = next(lines, None)
    if trailing is not None:
        raise GraphParseError(trailing[0], "trailing content after the edge list")
    # new_graph holds the ids as int64, or as uint64 when one is at or above 2**63
    return new_graph(n, np.frombuffer(endpoints, dtype=np.int64).reshape(-1, 2), colour_values)


def _parse_whole(data: bytes) -> ColouredGraph | None:
    """Whole-text parse of text laid out as ``serialize_graph`` writes it,
    read straight from its bytes; None for any other text, which the
    line-by-line parse then handles.

    ``\\r\\n``, then any lone ``\\r``, becomes ``\\n``, and comment lines are cut
    whole.  The text must then end in ``\\n`` and, with its digits taken out,
    leave only the separators of the layout: ``" \\n"`` for the header, n - 1
    spaces and a ``\\n`` for the colour line, ``" \\n"`` per edge line.
    ``np.fromstring`` reads the values on this thread; it clamps a number
    past the int64 range to the int64 maximum and reads text with no number
    as one 0, so exactly ``2 + n + 2m`` values, each below ``_PLAIN_TOP``,
    and those separators make its result exact.  The value count is checked
    before the separators are built, so the header cannot make them large.
    On the text it accepts, the result equals the line-by-line parse's.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    if not data.endswith(b"\n"):
        return None
    seps = data.translate(None, b"0123456789")
    if seps.translate(None, b" \n"):
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.size < 2:
        return None
    n, m = int(values[0]), int(values[1])
    if not (n < _MAX_ORDER and values.size == 2 + n + 2 * m and int(values.max()) < _PLAIN_TOP):
        return None
    if seps != b" \n" + (b" " * (n - 1) + b"\n" if n else b"") + b" \n" * m:
        return None
    del seps  # not held while new_graph builds the keys
    try:
        return new_graph(n, values[2 + n:].reshape(m, 2), values[2:2 + n].copy())
    except ValueError:
        return None


def parse_graph(source: str | bytes | IO[str] | IO[bytes]) -> ColouredGraph:
    """Parse the text format, given as ``str`` or UTF-8 ``bytes`` or a stream
    of either; errors report the offending line number.

    Two paths, whatever the input type, both on the calling thread.  Text
    laid out as ``serialize_graph`` and ``gen`` write it (single spaces,
    every line ended by \\n, \\r\\n or \\r, numbers of ASCII digits below
    10**18), comment lines included, is read straight from its bytes by
    ``_parse_whole``.  Everything else, malformed input, tabs, runs of
    spaces, blank lines, a missing final newline, and spellings such as
    ``+5``, ``1_0``, non-ASCII digits, 19-digit numbers or other line breaks,
    goes through the line-by-line parse, which reads numbers as ``int()``
    does and raises the exact error line, at the cost of a Python string per
    line.  Bytes reach it decoded as strict UTF-8: bytes that are not UTF-8
    raise ``UnicodeDecodeError``, a ``ValueError``.
    """
    text = source if isinstance(source, (str, bytes)) else source.read()
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    g = _parse_whole(data)
    if g is not None:
        return g
    return _parse_lines(text if isinstance(text, str) else text.decode("utf-8"))


def _decimal_lines(values: np.ndarray, per_line: int) -> Iterator[str]:
    """Non-negative integers in decimal, ``per_line`` to a line, as ``str()``
    writes them, separated by spaces, every line ended by ``\\n``: the text,
    one block of ``_WRITE_CHUNK`` values at a time, so that no temporary is
    larger than a block's.

    Each whole-block division fills one contiguous row, a digit place, of a
    (width, count) byte array; its transpose is copied once into a byte
    matrix with a row per number and a column per digit place plus the
    separator.  A value's separator is a newline when its index in
    ``values`` closes a line, so blocks need not align with lines.  Digit
    counts are uint8 sums of comparisons with the powers of ten, and a
    length mask then drops each row's leading zero places; the bytes left
    are decoded in place, with no copy to ``bytes``.
    """
    if not values.size:
        return
    top = int(values.max())
    width = len(str(top))
    # the smallest unsigned type that holds the largest value: exact up to
    # 2**64 - 1, and the narrower the type, the faster its divisions
    dtype = np.min_scalar_type(top)
    powers = [dtype.type(10**k) for k in range(1, width)]
    # row d of the table keeps the last d digit places and the separator
    keep = np.arange(width + 1) >= width - np.arange(width + 1)[:, None]
    for start in range(0, values.size, _WRITE_CHUNK):
        block = values[start:start + _WRITE_CHUNK].astype(dtype)
        count = block.size
        digits = np.ones(count, dtype=np.uint8)
        for power in powers:
            digits += block >= power
        places = np.empty((width, count), dtype=np.uint8)
        for place in range(width - 1, -1, -1):
            quotient = block // 10
            places[place] = block - quotient * 10
            block = quotient
        places += ord("0")
        cells = np.empty((count, width + 1), dtype=np.uint8)
        cells[:, :width] = places.T
        del places
        cells[:, width] = ord(" ")
        # value i closes its line when i + 1 is a multiple of per_line
        cells[(per_line - 1 - start) % per_line::per_line, width] = ord("\n")
        yield str(cells[np.take(keep, digits, axis=0)].data, "ascii")


def text_blocks(g: ColouredGraph) -> Iterator[str]:
    """The canonical text form of a graph, block after block: the header,
    the colour line and the edge lines, each written a bounded block of
    values at a time (``_decimal_lines``); ``serialize_graph`` joins them
    and the command line writes them to its stream as they come."""
    yield f"{g.n} {g.m}\n"
    yield from _decimal_lines(g.colours, g.n)
    # the endpoints of one block of keys at a time, lo and hi side by side:
    # half a block of values, rounded up, in the narrowest type that holds
    # every vertex, so that the writer's max and divisions are no wider than
    # the vertices need
    step = (_WRITE_CHUNK + 1) // 2
    ends = np.min_scalar_type(max(g.n - 1, 0))
    for start in range(0, g.m, step):
        lo, hi = _endpoints(g.n, g.keys[start:start + step])
        pairs = np.empty((lo.size, 2), dtype=ends)
        pairs[:, 0], pairs[:, 1] = lo, hi
        yield from _decimal_lines(pairs.ravel(), 2)


def serialize_graph(g: ColouredGraph) -> str:
    """Canonical text form of a graph, as one string: the blocks of
    ``text_blocks`` joined."""
    return "".join(text_blocks(g))


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


def stats_dict(initial: ColouredGraph, final: ColouredGraph, trace: ContractionTrace, include_trace: bool = False) -> dict:
    """JSON-ready summary of one contraction run: totals plus per-iteration
    rows numbered from 1, and the peak resident set size of this process so
    far in MB (``ru_maxrss``, which Linux gives in KiB).

    A row's ``m_before`` is ``IterationRecord.m``: the same-colour edges the
    round read, not every edge of the graph before it.  ``m0`` and
    ``final_m`` count every edge."""
    per_iteration = []
    for k, r in enumerate(trace.per_iteration, start=1):
        row = {"iteration": k, "n_before": r.n, "m_before": r.m, "n_after": r.n_prime, "wall_time_ms": r.wall_time_ms}
        if include_trace:
            row["becomes"] = r.mapping.becomes.tolist()
        per_iteration.append(row)
    return {
        "n0": initial.n,
        "m0": initial.m,
        "final_n": final.n,
        "final_m": final.m,
        "iterations": trace.iterations,
        "total_wall_time_ms": sum(r.wall_time_ms for r in trace.per_iteration) + trace.finish_wall_time_ms,
        "finish_wall_time_ms": trace.finish_wall_time_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_iteration": per_iteration,
    }


def stats_json(initial: ColouredGraph, final: ColouredGraph, trace: ContractionTrace, include_trace: bool = False) -> str:
    return json.dumps(stats_dict(initial, final, trace, include_trace=include_trace), indent=2) + "\n"
