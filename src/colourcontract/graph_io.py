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
hands over the file's bytes undecoded.  Parsing takes one of two paths.  Text
that is plain once its comment lines are cut, ASCII digits, spaces, tabs and
``\\n``, ``\\r\\n`` or lone ``\\r`` line breaks, as ``serialize_graph`` writes it
or another platform's tools rewrite its breaks, is read straight from its
bytes: its values on a worker thread, while the calling thread checks the
line layout in array passes over one block of whole lines at a time; all
other text goes through the line-by-line reader, the reference, which
reports the exact line of an error.

Serialisation is canonical: colours on one line, edges as ``u v`` with
``u < v`` in lexicographic order, so parse(serialise(g)) reproduces g exactly.
"""

from __future__ import annotations

import json
import re
import resource
from array import array
from concurrent.futures import ThreadPoolExecutor
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

# a comment line, cut from the bytes up to the first byte at which
# str.splitlines() or str.split() could read the text differently: an ASCII
# line break, or any byte of a non-ASCII character
_COMMENT = re.compile(rb"^[ \t]*#[^\n\r\x0b\x0c\x1c-\x1e\x80-\xff]*", re.M)
# plain text, read straight from its bytes: these bytes only, numbers of at
# most this many digits (every 18-digit number fits in int64)
_PLAIN_BYTES = b"0123456789 \t\r\n"
_PLAIN_MAX_DIGITS = 18
# the byte parse checks the layout of this many bytes, up to the last \n in
# them, at a time, so it never holds a mask or token bounds of the whole text
_LAYOUT_CHUNK = 1 << 19
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
    edges = np.frombuffer(endpoints, dtype=np.int64).reshape(-1, 2)
    wide = max(colour_values, default=0) > _INT64_MAX
    return new_graph(n, edges, np.array(colour_values, dtype=np.uint64 if wide else np.int64))


def _line_widths(data: bytes) -> np.ndarray | None:
    """The number of tokens on each content line of plain text, found one
    block of whole lines at a time; None when the text holds no number or
    one longer than ``_PLAIN_MAX_DIGITS``.

    A block is about ``_LAYOUT_CHUNK`` bytes and ends just after its last
    \\n, or at the end of its first line when that line is longer, so every
    token and every line lies in one block, and a block's first token opens
    a line.  Only one block's byte mask and token bounds are held at a time.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    widths = []
    start = 0
    while start < raw.size:
        stop = start + _LAYOUT_CHUNK
        if stop >= raw.size:
            end = raw.size
        else:
            # just after the last \n before stop, or after the first one past it
            end = data.rfind(b"\n", start, stop) + 1 or data.find(b"\n", stop) + 1 or raw.size
        block = raw[start:end]
        start = end
        # token i is block[starts[i]:ends[i]]: a run of digits, the only bytes >= 0x30 left
        word = np.zeros(block.size + 2, dtype=bool)
        np.greater_equal(block, 0x30, out=word[1:-1])
        starts, ends = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T
        if starts.size == 0:
            continue
        if int((ends - starts).max()) > _PLAIN_MAX_DIGITS:
            return None
        # opens[i]: a newline lies before token i and after token i - 1
        opens = np.zeros(starts.size + 1, dtype=bool)
        opens[np.searchsorted(starts, np.flatnonzero(block == 0x0A))] = True
        opens = opens[:-1]
        opens[0] = True
        widths.append(np.diff(np.append(np.flatnonzero(opens), opens.size)))
    return np.concatenate(widths) if widths else None


def _parse_whole(data: bytes) -> ColouredGraph | None:
    """Whole-text parse of well-formed text read straight from its bytes;
    None for any other text, which the line-by-line parse then handles.

    Text with a lone ``\\r`` has every ``\\r`` replaced by ``\\n`` first;
    text whose breaks are all ``\\n`` or ``\\r\\n`` is read as it is, uncopied,
    its ``\\r`` one more space before the ``\\n``.  Comment lines are cut
    from the bytes next.  What remains must be plain: ASCII digits, spaces,
    tabs and line breaks, with no number longer than ``_PLAIN_MAX_DIGITS``.
    ``np.fromstring`` reads the values and array operations check the
    layout.  ``np.fromstring`` clamps an overflowing number to the int64
    extreme and stops silently at bytes it cannot read, so the digit cap and
    the count check against the tokens ``_line_widths`` finds are what make
    its result exact.  On the text it accepts, the result equals the
    line-by-line parse's.

    ``np.fromstring`` releases the interpreter lock, so it starts on one
    worker thread as soon as the text is known to be plain, while this
    thread finds the tokens, the digit cap and the tokens per line one block
    of whole lines at a time.  The worker is joined before any value is read
    and before this function returns, whether it returns a graph, None or an
    error.
    """
    # a lone \r ends a line as \n does; once every \r is a \n, a \r\n pair
    # reads as a line and a blank one, which the format ignores
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        data = data.replace(b"\r", b"\n")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    if data.translate(None, _PLAIN_BYTES):
        return None
    with ThreadPoolExecutor(max_workers=1) as pool:
        reading = pool.submit(np.fromstring, data, dtype=np.int64, sep=" ")
        widths = _line_widths(data)
        try:
            values = reading.result()
        except ValueError:
            return None
    if widths is None or values.size != widths.sum() or widths[0] != 2:
        return None
    n, m = int(values[0]), int(values[1])
    if not (0 <= n < _MAX_ORDER and m >= 0):
        return None
    body = 2 if n > 0 else 1
    if widths.size != body + m or (n > 0 and widths[1] != n) or (widths[body:] != 2).any():
        return None
    del widths  # not held while new_graph builds the keys
    try:
        return new_graph(n, values[2 + n:].reshape(m, 2), values[2:2 + n].copy())
    except ValueError:
        return None


def parse_graph(source: str | bytes | IO[str] | IO[bytes]) -> ColouredGraph:
    """Parse the text format, given as ``str`` or UTF-8 ``bytes`` or a stream
    of either; errors report the offending line number.

    Two paths, whatever the input type.  Well-formed text whose comment
    lines, once cut, leave only ASCII digits and whitespace (all that
    ``serialize_graph`` and ``gen`` write) is read straight from its bytes
    by ``_parse_whole``: its values on a worker thread that is joined before
    this returns, its layout checked one block of whole lines at a time.
    Everything else, malformed input and spellings such as ``+5``, ``1_0``,
    non-ASCII digits, 19-digit numbers or line breaks other than \\n, \\r
    and \\r\\n, goes through the line-by-line parse, which reads
    numbers as ``int()`` does and raises the exact error line.  Bytes reach
    it decoded as strict UTF-8: bytes that are not UTF-8 raise
    ``UnicodeDecodeError``, a ``ValueError``.
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
