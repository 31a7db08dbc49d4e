import io
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colourcontract import graph, graph_io
from colourcontract.cli import run_cli
from colourcontract import (
    ColouredGraph,
    GraphParseError,
    RandomSpec,
    export_dot,
    gen_erdos_renyi,
    generate_fib_instance,
    graphs_equal,
    new_graph,
    parse_graph,
    serialize_graph,
    stats_dict,
    contract_to_fixpoint,
)
from reference_impls import (
    LineError,
    parse_by_lines,
    random_coloured_graph,
    relabel_form,
    serialize_by_join,
)


P4_TEXT = "4 3\n0 0 0 0\n0 2\n1 3\n2 3\n"


def test_serialize_empty():
    assert serialize_graph(new_graph(0, [], [])) == "0 0\n"


def test_serialize_p4(p4):
    assert serialize_graph(p4) == P4_TEXT


def test_serialize_edgeless():
    assert serialize_graph(new_graph(2, [], [5, 6])) == "2 0\n5 6\n"


def test_parse_empty():
    g = parse_graph("0 0\n")
    assert g.n == 0 and g.m == 0


def test_parse_p4(p4):
    assert graphs_equal(parse_graph(P4_TEXT), p4)


def test_parse_accepts_comments_blanks_and_any_orientation(p4):
    text = "# header next\n\n4 3\n# colours\n0 0 0 0\n2 0\n\n3 1\n# last edge\n2 3\n"
    assert graphs_equal(parse_graph(text), p4)


def test_parse_accepts_stream(tmp_path, p4):
    path = tmp_path / "g.graph"
    path.write_text(P4_TEXT)
    with open(path) as handle:
        assert graphs_equal(parse_graph(handle), p4)


def test_parse_error_reports_line_numbers():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("nope\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\n0\n0 1\n")
    with pytest.raises(GraphParseError, match="line 4"):
        parse_graph("2 1\n0 0\n# fine\n0 9\n")
    err = None
    try:
        parse_graph("3 2\n0 0 0\n0 1\n1 1\n")
    except GraphParseError as exc:
        err = exc
    assert err is not None and err.line_no == 4 and "self-loop" in str(err)


def test_parse_error_on_truncation():
    with pytest.raises(GraphParseError, match="unexpected end"):
        parse_graph("3 2\n0 0 0\n0 1\n")
    with pytest.raises(GraphParseError, match="missing colour"):
        parse_graph("3 2\n")


def test_parse_error_on_trailing_content():
    with pytest.raises(GraphParseError, match="trailing"):
        parse_graph("2 1\n0 0\n0 1\n0 1\n")


def test_parse_error_on_negative_header():
    with pytest.raises(GraphParseError, match="non-negative"):
        parse_graph("-1 0\n")


@pytest.fixture
def line_parses(monkeypatch):
    """Record every call of the line-by-line parse behind parse_graph."""
    calls = []
    line_parse = graph_io._parse_lines

    def spy(text):
        calls.append(text)
        return line_parse(text)

    monkeypatch.setattr(graph_io, "_parse_lines", spy)
    return calls


def test_well_formed_text_takes_the_whole_text_path(line_parses, p4):
    texts = [
        P4_TEXT,
        "# header next\n\n4 3\n   # colours\n0 0 0 0\n2 0\n\n3 1\n# last\n2 3",
        P4_TEXT.replace("\n", "\r\n"),
        "\t4 3 \n0\t0  0 0\n0\t2\n1 3\n2 3\n",
    ]
    for text in texts:
        assert graphs_equal(parse_graph(text), p4)
    assert line_parses == []


def test_other_line_breaks_take_the_line_path(line_parses, p4):
    for sep in ("\v", "\f", "\x1c", "\x85", "\u2028"):
        text = P4_TEXT.replace("\n", sep)
        assert graphs_equal(parse_graph(text), p4)
    assert len(line_parses) == 5
    # non-ASCII whitespace inside a line goes the same way
    assert graphs_equal(parse_graph(P4_TEXT.replace("0 2", "0\xa02")), p4)
    assert len(line_parses) == 6
    # and so do other spellings that int() and str.split() read: a sign,
    # leading zeros, an underscore, a non-ASCII digit, the separator \x1f
    assert graphs_equal(parse_graph("\t4\x1f 3 \n+0 00 0_0 \u0660\n0\t2\n1 3\n2 3\n"), p4)
    assert len(line_parses) == 7


def test_lone_carriage_returns_take_the_whole_text_path(line_parses):
    # a lone \r ends a line as \n does; in text that has one, every \r reads
    # as \n, so a \r\n pair is a line and a blank one, and the text, with
    # comment lines or without, stays off the line parse
    lines = ["# a path", "4 3", "# colours", "0 0 0 0", "2 0", "", "3 1", "# last edge", "2 3"]
    breaks = ["\r", "\n", "\r\n", "\r\r\n", "\n\r"]
    texts = []
    for body in (lines, [line for line in lines if not line.startswith("#")]):
        texts += ["\r".join(body), "\r".join(body) + "\r", "\r\n".join(body) + "\r"]
        for shift in range(len(breaks)):
            texts.append("".join(line + breaks[(i + shift) % len(breaks)] for i, line in enumerate(body)))
    for text in texts:
        assert "\r" in text.replace("\r\n", "")
        expected = parse_by_lines(text)
        assert relabel_form(parse_graph(text)) == expected
        assert relabel_form(parse_graph(text.encode())) == expected
    assert line_parses == []


def test_comment_cut_stops_at_line_breaks_and_non_ascii():
    # "# a{c}b" is one comment line unless c is a line break of
    # str.splitlines().  The cut removes the whole line, but stops at c when
    # c is a line break or non-ASCII, and leaves c and what follows to the line parse
    chars = [chr(c) for c in range(sys.maxunicode + 1)]

    def stops_at(c):
        return not c.isascii() or len(f"a{c}b".splitlines()) == 2

    text = "".join(f"# a{c}b\n" for c in chars)
    expected = "".join(f"{c}b\n" if stops_at(c) else "\n" for c in chars)
    cut = graph_io._COMMENT.sub(b"", text.encode("utf-8", "surrogatepass"))
    assert cut == expected.encode("utf-8", "surrogatepass")


def test_duplicate_edges_count_once(line_parses):
    # the header counts edge lines; an edge listed twice, in either
    # orientation, is still one edge
    plain = "2 2\n0 0\n0 1\n1 0\n"
    commented = "# a duplicate\n2 2\n\n0 0\n# both orientations\n0 1\n1 0\n"
    for text in (plain, commented):
        g = parse_graph(text)
        assert g.n == 2 and g.m == 1 and g.edge_array().tolist() == [[0, 1]]
    assert line_parses == []
    g = parse_graph(plain.replace("\n", "\x85"))
    assert g.m == 1 and len(line_parses) == 1
    assert serialize_graph(g) == "2 1\n0 0\n0 1\n"


def test_token_counts_are_checked_per_line():
    # the token total fits the header, the split between lines does not
    cases = [
        ("3 2\n0 0 0\n0 1 2\n1\n", 3),
        ("3 2\n0 0\n0 0 1\n1 2\n", 2),
        ("3 1\n0 0 0\n0\r1\n", 3),
        ("3 1 0 0\n0\n0 1\n", 1),
    ]
    for text, line_no in cases:
        with pytest.raises(GraphParseError, match="expected") as err:
            parse_graph(text)
        assert err.value.line_no == line_no


@pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_every_line_break_splits_a_line(brk):
    with pytest.raises(GraphParseError, match="expected 2 edge endpoints, got 1") as err:
        parse_graph(f"3 1\n0 0 0\n0{brk}1\n")
    assert err.value.line_no == 3


def test_huge_edge_count_fails_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(GraphParseError, match="missing edge 1 of 100000000000000") as err:
            parse_graph("1 100000000000000\n0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line_no == 3
    assert peak < 1 << 20


def test_ids_outside_int64_are_parse_errors():
    cases = [
        ("2 1\n0 99999999999999999999999\n0 1\n", 2),
        ("2 1\n0 0\n0 9223372036854775808\n", 3),
        ("-9223372036854775809 0\n", 1),
    ]
    for text, line_no in cases:
        with pytest.raises(GraphParseError, match="64-bit") as err:
            parse_graph(text)
        assert err.value.line_no == line_no
    # the int64 extremes themselves are integers, rejected for their values
    with pytest.raises(GraphParseError, match="out of range") as err:
        parse_graph("2 1\n0 0\n0 9223372036854775807\n")
    assert err.value.line_no == 3


@pytest.fixture
def plain_reads(monkeypatch):
    """Record, per parse, whether the byte path read the text to a graph."""
    calls = []
    parse_whole = graph_io._parse_whole

    def spy(text):
        g = parse_whole(text)
        calls.append(g is not None)
        return g

    monkeypatch.setattr(graph_io, "_parse_whole", spy)
    return calls


def test_serialized_text_is_read_from_bytes_and_other_text_is_not(plain_reads):
    rng = np.random.default_rng(7)
    n, edges, colours = random_coloured_graph(rng)
    for g in (generate_fib_instance(8).graph, new_graph(n, edges, colours), new_graph(0, [], [])):
        text = serialize_graph(g)
        assert graphs_equal(parse_graph(text), g)
        assert plain_reads.pop() is True
        assert graphs_equal(parse_graph("# a comment\n" + text), g)
        assert plain_reads.pop() is True
        for other in ("+" + text, text.replace(" ", " 0_", 1)):
            assert graphs_equal(parse_graph(other), g)
            assert plain_reads.pop() is False


def test_fib_roles_comments_are_cut_from_the_bytes(capsys, plain_reads):
    texts = []
    for roles in ([], ["--roles"]):
        assert run_cli(["gen", "fib", "--level", "12", *roles]) == 0
        texts.append(capsys.readouterr().out)
    plain, commented = texts
    assert commented.startswith("# level: 12\n# roles: ") and commented.endswith(plain)
    assert graphs_equal(parse_graph(commented), parse_graph(plain))
    assert plain_reads == [True, True]


_LAYOUT_LINES = ["3 2", "0 1 2", "0 1", "1 2"]
PLAIN_LAYOUTS = [
    "\n".join(_LAYOUT_LINES) + "\n",
    "\n".join(_LAYOUT_LINES),  # no final newline
    "\r\n".join(_LAYOUT_LINES) + "\r\n",
    "\t3\t2 \n\n0\t1  2\n\n\r\n0 1\r\n  1\t2",  # tabs, blank lines, both breaks
    "0 0\n",
    " 0\t0 \r\n\r\n",  # a 0-vertex graph
    "3 2\n0 1 2\n0 1\n",  # missing line
    "3 2\n0 1 2\n0 1 2\n1 2\n",  # wrong width
    "3 2\n0 1 2\n0 3\n1 2\n",  # endpoint out of range
]


def test_plain_layouts_match_line_reference(plain_reads):
    for text in PLAIN_LAYOUTS:
        check_against_line_reference(text)
    # the layout and graph checks send the malformed ones on to the line parse
    assert plain_reads == [True] * 6 + [False] * 3


def test_short_byte_read_falls_back_to_the_line_parse(monkeypatch, plain_reads, p4):
    # np.fromstring stops silently at bytes it cannot read; a read that comes
    # up short of the token count the layout check found is not trusted
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: fromstring(*args, **kwargs)[:-1])
    assert graphs_equal(parse_graph(P4_TEXT), p4)
    assert plain_reads == [False]


@pytest.fixture
def value_reads(monkeypatch):
    """Record the thread of every np.fromstring call behind parse_graph."""
    threads = []
    fromstring = np.fromstring

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    return threads


def test_values_are_read_on_a_worker_that_never_outlives_the_parse(value_reads, line_parses, p4):
    before = threading.active_count()
    # a plain parse
    assert graphs_equal(parse_graph(P4_TEXT), p4)
    assert threading.active_count() == before
    # plain text whose layout check fails: the line parse raises
    with pytest.raises(GraphParseError, match="expected 2 edge endpoints, got 3") as err:
        parse_graph("3 2\n0 1 2\n0 1 2\n1 2\n")
    assert err.value.line_no == 3 and threading.active_count() == before
    # text off the byte path starts no worker
    assert graphs_equal(parse_graph("+" + P4_TEXT), p4)
    assert threading.active_count() == before
    assert len(value_reads) == 2 and len(line_parses) == 2
    main = threading.main_thread()
    assert all(t is not main and not t.is_alive() for t in value_reads)


def test_a_value_error_on_the_worker_falls_back_to_the_line_parse(monkeypatch, line_parses, plain_reads, p4):
    def refuse(*args, **kwargs):
        raise ValueError("string size must be a multiple of element size")

    monkeypatch.setattr(np, "fromstring", refuse)
    before = threading.active_count()
    assert graphs_equal(parse_graph(P4_TEXT), p4)
    assert threading.active_count() == before
    assert plain_reads == [False] and line_parses == [P4_TEXT]


def test_other_errors_on_the_worker_reach_the_caller(monkeypatch, line_parses):
    # only a ValueError means text np.fromstring cannot read; anything else
    # is raised to the caller, with the worker already joined
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "fromstring", fail)
    before = threading.active_count()
    with pytest.raises(MemoryError):
        parse_graph(P4_TEXT)
    assert threading.active_count() == before and line_parses == []


def test_a_late_block_failure_still_joins_the_worker(monkeypatch, value_reads, line_parses):
    # the worker starts before the first block is checked; when the digit
    # cap or the layout fails in the last block, it has read the whole text,
    # is joined, and the line parse raises the exact error line
    monkeypatch.setattr(graph_io, "_LAYOUT_CHUNK", 64)
    g = generate_fib_instance(9).graph
    text = serialize_graph(g)
    body, last = text[:-1].rsplit("\n", 1)
    cases = [
        (f"{body}\n{last.split()[0]} 9999999999999999999\n", "64-bit"),
        (f"{body}\n{last} 0\n", "expected 2 edge endpoints, got 3"),
    ]
    before = threading.active_count()
    assert graphs_equal(parse_graph(text.encode()), g)
    for bad, message in cases:
        assert len(bad) > 10 * 64
        with pytest.raises(GraphParseError, match=message) as err:
            parse_graph(bad.encode())
        assert err.value.line_no == len(bad.splitlines())
        assert threading.active_count() == before
    # one read per byte-path parse, each on a worker, failed ones included
    assert len(value_reads) == 3 and len(line_parses) == 2
    main = threading.main_thread()
    assert all(t is not main and not t.is_alive() for t in value_reads)


def check_bytes_like_text(text):
    """parse_graph reads the UTF-8 bytes of text, whole or as a stream, as it
    reads text: the same graph, or the same error line and message."""
    data = text.encode("utf-8")
    try:
        expected = parse_graph(text)
    except GraphParseError as exc:
        for source in (data, io.BytesIO(data)):
            with pytest.raises(GraphParseError) as err:
                parse_graph(source)
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
    else:
        for source in (data, io.BytesIO(data)):
            assert graphs_equal(parse_graph(source), expected)


MALFORMED = [
    "nope\n",
    "2 1\n0\n0 1\n",
    "2 1\n0 0\n# fine\n0 9\n",
    "3 2\n0 0 0\n0 1\n1 1\n",
    "3 2\n0 0 0\n0 1\n",
    "3 2\n",
    "2 1\n0 0\n0 1\n0 1\n",
    "-1 0\n",
    "3 1 0 0\n0\n0 1\n",
    "3 1\n0 0 0\n0\r1\n",
    "3 1\n0 0 0\n0\x851\n",
    "1 100000000000000\n0\n",
    "2 1\n0 99999999999999999999999\n0 1\n",
    "2 1\n0 0\n9223372036854775807 1\n",
    "2147483648 0\n0\n",
    "# caf\xe9\n2 1\n0 0\n0 \u0665\n",
    "+3 2\r\n0 0 0\r0 1\r1 2 2\r",
]


@pytest.mark.parametrize("text", PLAIN_LAYOUTS + MALFORMED)
def test_bytes_parse_as_their_text(text):
    check_bytes_like_text(text)


def test_bytes_that_are_not_utf8_are_refused():
    # every non-ASCII byte takes the line path, which decodes strictly
    for data in ("# caf\xe9\n" + P4_TEXT).encode("latin-1"), P4_TEXT.encode() + b"\xff":
        with pytest.raises(UnicodeDecodeError):
            parse_graph(data)


def test_canonical_keys_are_not_sorted_again(monkeypatch):
    # serialize_graph writes the edges in key order, so new_graph's keys
    # already strictly ascend and are taken as they are: no run of equal
    # keys is looked for, since none are sorted
    text = serialize_graph(generate_fib_instance(10).graph)
    run_starts = graph._run_starts
    sorts = []
    monkeypatch.setattr(graph, "_run_starts", lambda ordered: sorts.append(ordered) or run_starts(ordered))
    assert serialize_graph(parse_graph(text)) == text
    assert sorts == []
    # the keys of edges in any other order still are sorted
    scrambled = parse_graph("4 3\n0 0 0 0\n3 2\n2 0\n3 1\n")
    assert serialize_graph(scrambled) == P4_TEXT and len(sorts) == 1


@pytest.mark.parametrize("digits", [17, 18, 19])
def test_zero_padded_long_tokens(plain_reads, digits):
    # up to 18 digits the text is read from its bytes; longer tokens go
    # to the line parse, whose int() reads the same value
    def pad(x):
        return str(x).zfill(digits)

    text = f"{pad(3)} {pad(2)}\n{pad(0)} {pad(1)} {pad(1)}\n{pad(0)} {pad(1)}\n{pad(2)} {pad(1)}\n"
    check_against_line_reference(text)
    assert graphs_equal(parse_graph(text), new_graph(3, [(0, 1), (1, 2)], [0, 1, 1]))
    assert plain_reads == [digits <= 18] * 2


def test_int64_extremes_in_id_and_colour_position(plain_reads):
    largest = "9" * 18  # the largest token read from bytes
    g = parse_graph(f"2 1\n{largest} 0\n0 1\n")
    assert g.colours.tolist() == [10**18 - 1, 0] and plain_reads == [True]
    g = parse_graph("2 1\n9223372036854775807 0\n0 1\n")
    assert g.colours.tolist() == [2**63 - 1, 0] and plain_reads[1] is False
    # colour ids reach 2**64 - 1, held as uint64 from 2**63 on; other numbers stop at int64
    for top in (2**63, 2**64 - 1):
        text = f"2 1\n{top} 0\n0 1\n"
        check_against_line_reference(text)
        g = parse_graph(text)
        assert g.colours.dtype == np.uint64 and g.colours.tolist() == [top, 0]
    cases = [
        ("2 1\n18446744073709551616 0\n0 1\n", 2, "64-bit"),
        ("2 1\n0 0\n9223372036854775808 1\n", 3, "64-bit"),
        ("2 1\n0 0\n9223372036854775807 1\n", 3, "out of range"),
        ("9223372036854775808 0\n", 1, "64-bit"),
        ("9223372036854775807 0\n", 1, "below"),
        ("1 9223372036854775808\n0\n", 1, "64-bit"),
        ("1 9223372036854775807\n0\n", 3, "missing edge 1"),
    ]
    for text, line_no, message in cases:
        check_against_line_reference(text)
        with pytest.raises(GraphParseError, match=message) as err:
            parse_graph(text)
        assert err.value.line_no == line_no
    # 19 digits are never converted from bytes, where they could clamp
    assert not any(plain_reads[1:])


def test_order_at_or_above_two_to_the_31_is_rejected():
    with pytest.raises(GraphParseError, match="below 2147483648") as err:
        parse_graph("2147483648 0\n0\n")
    assert err.value.line_no == 1


def test_serialize_matches_line_join():
    rng = np.random.default_rng(23)
    graphs = [new_graph(0, [], []), new_graph(3, [], [1, 0, 2]), generate_fib_instance(6).graph]
    for _ in range(30):
        n, edges, colours = random_coloured_graph(rng)
        graphs.append(new_graph(n, edges, colours))
    for g in graphs:
        assert serialize_graph(g) == serialize_by_join(g)


def _recoloured(g, colours):
    return ColouredGraph(n=g.n, colours=colours, keys=g.keys)


def test_serialize_writes_every_width_and_dtype_as_str_does():
    # the digit writer against str(), byte for byte: colours of every width
    # from 1 to 20 digits, each integer dtype up to its largest value, empty
    # and edgeless graphs, isolated vertices and vertex ids of 1 to 6 digits
    tops = [10**k for k in range(20)] + [10**k - 1 for k in range(1, 20)] + [2**63 - 1]
    path = new_graph(len(tops) + 1, [(v, v + 1) for v in range(len(tops))], [0] * (len(tops) + 1))
    graphs = [
        new_graph(0, [], []),
        new_graph(1, [], [7]),
        new_graph(6, [(1, 4)], [0, 3, 0, 12, 3, 0]),
        new_graph(100_001, [(0, 9), (10, 99), (100, 9_999), (10_000, 100_000), (5, 100_000)], [1] * 100_001),
        _recoloured(path, np.array(tops + [2**64 - 1], dtype=np.uint64)),
        _recoloured(path, np.resize(np.array([t for t in tops if t < 2**63], dtype=np.int64), path.n)),
        _recoloured(path, np.arange(len(tops) + 1, dtype=np.int8)),
        _recoloured(path, np.resize(np.array([0, 1, 9, 10, 99, 100, 127], dtype=np.int8), path.n)),
        _recoloured(path, np.resize(np.array([2**31 - 1, 0, 65_535, 1], dtype=np.int32), path.n)),
        _recoloured(path, np.resize(np.array([2**64 - 1, 2**63, 0, 1], dtype=np.uint64), path.n)),
    ]
    graphs += [generate_fib_instance(level).graph for level in range(13)]
    rng = np.random.default_rng(29)
    for _ in range(40):
        n, edges, colours = random_coloured_graph(rng)
        graphs.append(new_graph(n, edges, colours))
    for g in graphs:
        text = serialize_graph(g)
        assert text == serialize_by_join(g)
        assert graphs_equal(parse_graph(text), g)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_write_blocks_need_not_align_with_lines(monkeypatch, chunk):
    # the writer turns a block of values into text at a time; blocks of 1, 3
    # and 7 values end inside the colour line and between an edge's two
    # ends, and the text must still be the joined lines', for ids of 1 to 20
    # digits
    monkeypatch.setattr(graph_io, "_WRITE_CHUNK", chunk)
    widths = [10**k for k in range(20)] + [2**64 - 1]
    n = len(widths)
    edges = [(v, (v * 7 + 3) % n) for v in range(n) if (v * 7 + 3) % n != v]
    graphs = [
        new_graph(n, edges, np.array(widths, dtype=np.uint64)),
        new_graph(n, edges, np.array(widths[::-1], dtype=np.uint64)),
        new_graph(12_345, [(0, 12_344), (9, 10_000), (99, 100), (1, 2)], np.arange(12_345) % 5),
        new_graph(5, [], [3, 0, 2, 0, 1]),
        new_graph(0, [], []),
        generate_fib_instance(7).graph,
    ]
    for g in graphs:
        text = serialize_graph(g)
        assert text == serialize_by_join(g)
        assert "".join(graph_io.text_blocks(g)) == text
        assert graphs_equal(parse_graph(text), g)


def test_writer_memory_is_bounded_by_a_block():
    # the edge lines are written from one block of keys at a time, never from
    # the endpoints of the whole graph: on 540 989 edges the streamed peak is
    # about 2.4 MB against 4.3 MB of keys
    g = gen_erdos_renyi(RandomSpec(n=50_000, m=540_989, seed=0))
    tracemalloc.start()
    try:
        for _ in graph_io.text_blocks(g):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.keys.nbytes


def test_uint64_colours_round_trip_and_contract_from_the_command_line(tmp_path, capsys):
    # colour ids at and above 2**63 are written by serialize_graph and read
    # back by the line reader as uint64; contracting that text from the
    # command line gives the library's result
    g = new_graph(4, [(0, 1), (1, 2), (2, 3)], np.array([2**63, 2**63, 2**64 - 1, 0], dtype=np.uint64))
    text = serialize_graph(g)
    assert text == "4 3\n9223372036854775808 9223372036854775808 18446744073709551615 0\n0 1\n1 2\n2 3\n"
    parsed = parse_graph(text)
    assert parsed.colours.dtype == np.uint64 and graphs_equal(parsed, g)
    path = tmp_path / "wide.graph"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["contract", str(path)]) == 0
    final, _ = contract_to_fixpoint(g)
    assert capsys.readouterr().out == serialize_graph(final)
    assert final.colours.tolist() == [2**63, 2**64 - 1, 0]


def test_round_trip_random_graphs():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n, edges, colours = random_coloured_graph(rng)
        g = new_graph(n, edges, colours)
        assert graphs_equal(parse_graph(serialize_graph(g)), g)


def test_round_trip_normalises_input_order(p4):
    scrambled = "4 3\n0 0 0 0\n3 2\n2 0\n3 1\n"
    assert serialize_graph(parse_graph(scrambled)) == P4_TEXT


def check_against_line_reference(text):
    """parse_graph gives the reference's graph, or fails on the same line."""
    try:
        expected = parse_by_lines(text)
    except LineError as exc:
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line_no == exc.line_no
    else:
        assert relabel_form(parse_graph(text)) == expected


_TOKEN_REWRITES = (
    lambda t: "+" + t,
    lambda t: "0" + t,
    lambda t: t[0] + "_" + t[1:] if len(t) > 1 and t.isdigit() else t + "_",
    lambda t: "".join(chr(0x0660 + int(c)) if c.isdigit() else c for c in t),
    lambda t: "-" + t,
    lambda t: t + "0",
    lambda t: "99999999999999999999999",
    lambda t: "9223372036854775807",
    lambda t: t.zfill(18),
    lambda t: t.zfill(19),
    lambda t: "x",
    lambda t: "1.0",
    lambda t: "#",
)
_SPACES = ("  ", "\t", " \x1f", "\xa0")
_COMMENTS = (
    "# note", "   #", "\t# 1 2", "#0 1",
    # characters at which the comment cut stops, or that it must read through
    "# a\vb", "#\f0 1", "# \x1e 2", "# \x85", "#\u2028 1 2", "# \xe9", "# a\r0 1", "#\x1f 0", "# \xa0 3",
    "\x1f# 1", "\xa0#",
)
_BLANKS = ("", "   ", "\t", "\x1f")
_BREAKS = ("\n", "\r\n", "\r", "\v", "\x1e", "\x85", "\u2028")


@st.composite
def perturbed_graph_texts(draw):
    n = draw(st.integers(0, 7))
    colours = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [e for e in draw(st.lists(pairs, max_size=10)) if e[0] != e[1]]
    lines = [[str(n), str(len(edges))]]
    if n:
        lines.append([str(c) for c in colours])
    lines += [[str(u), str(v)] for u, v in edges]
    # perturb tokens and token counts
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["rewrite", "drop", "repeat", "shift", "self-loop", "bump"]))
        if kind == "rewrite" and line:
            j = draw(st.integers(0, len(line) - 1))
            line[j] = draw(st.sampled_from(_TOKEN_REWRITES))(line[j])
        elif kind == "drop" and line:
            del line[draw(st.integers(0, len(line) - 1))]
        elif kind == "repeat" and line:
            line.append(line[-1])
        elif kind == "shift" and line and i + 1 < len(lines):
            # same token total, one token on the wrong line
            lines[i + 1].insert(0, line.pop())
        elif kind == "self-loop" and len(line) == 2:
            line[1] = line[0]
        elif kind == "bump" and line and line[-1].isdigit():
            line[-1] = str(int(line[-1]) + draw(st.sampled_from([1, n, 2**31, 10**14])))
    # mostly plain spaces and one kind of newline, so that a single
    # perturbation often decides the outcome
    text_lines = [(draw(st.sampled_from(_SPACES)) if draw(st.integers(0, 3)) == 0 else " ").join(line) for line in lines]
    # perturb lines: missing, repeated and trailing lines, comments, blanks
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text_lines)))
        kind = draw(st.sampled_from(["comment", "blank", "delete", "repeat", "trail", "split", "join"]))
        if kind == "comment":
            text_lines.insert(i, draw(st.sampled_from(_COMMENTS)))
        elif kind == "blank":
            text_lines.insert(i, draw(st.sampled_from(_BLANKS)))
        elif kind == "delete" and i < len(text_lines):
            del text_lines[i]
        elif kind == "repeat" and i < len(text_lines):
            text_lines.insert(i, text_lines[i])
        elif kind == "trail" and i < len(text_lines):
            text_lines[i] += draw(st.sampled_from([" # note", " 0", " "]))
        elif kind == "split" and i < len(text_lines) and " " in text_lines[i]:
            # a line break inside a line moves its later tokens to a line of their own
            head, _, tail = text_lines[i].partition(" ")
            text_lines[i] = head + draw(st.sampled_from(_BREAKS)) + tail
        elif kind == "join" and i + 1 < len(text_lines):
            text_lines[i : i + 2] = [text_lines[i] + " " + text_lines[i + 1]]
    seps = [draw(st.sampled_from(["\n", "\r\n"]))] * len(text_lines)
    if seps and draw(st.integers(0, 3)) == 0:
        seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from(_BREAKS))
    text = "".join(line + sep for line, sep in zip(text_lines, seps))
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.mark.parametrize("chunk", [0, 1, 4])
def test_line_reader_chunks_keep_the_lines_of_the_whole_text(monkeypatch, chunk):
    # the line reader splits the text a chunk at a time, each chunk ending
    # just after a \n; split a few characters at a time, every line and
    # error line must still be the whole text's
    monkeypatch.setattr(graph_io, "_LINE_CHUNK", chunk)
    for brk in _BREAKS:
        text = f"+3 2{brk}# c\r\n0 0 0\r{brk}\n0 1\n\n1 2{brk}"
        for variant in (text, text + "0 2", text + "# end\n\n0", text.replace("1 2", "1 1"), text[: text.rindex("1 2")]):
            check_against_line_reference(variant)


def _block_edge_texts():
    """Texts whose lines, blanks, breaks and long tokens fall at the edges of
    small layout blocks, each with whether the byte path reads it."""
    fib = serialize_graph(generate_fib_instance(9).graph)
    head, rest = fib.split("\n", 1)
    colours = " ".join(str(c) for c in range(40))
    path = "".join(f"{v} {v + 1}\n" for v in range(39))
    commented = f"# fib 9\n{head}\n# colours\n" + rest.replace("\n", "\n# edge\n", 5)
    body, last = fib[:-1].rsplit("\n", 1)
    u, v = last.split()
    return [
        (fib, True),
        (fib.replace("\n", "\r\n"), True),
        (fib.replace("\n", "\r"), True),  # lone \r
        (fib.replace("\n", "\n\n \r\n\t\n"), True),  # blank lines between all lines
        (fib.replace("\n", "\r\n\r\n", 7), True),
        (commented, True),
        (f"40 39\n{colours}\n{path}", True),  # a colour line longer than a block
        (f"40 39\n{colours}\r\n{path}"[:-1], True),  # and no final newline
        (f"{body}\n{u} {v.zfill(19)}\n", False),  # 19 digits in the last block
        (f"{body}\n{u} 9999999999999999999\n", False),
        (f"{body}\n{u} {v} {v}\n", False),  # a 3-wide edge line in the last block
    ]


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_layout_blocks_keep_the_lines_of_the_whole_text(monkeypatch, chunk):
    # the byte path checks the layout a block of whole lines at a time; at
    # every block size it reads the texts it read whole, refuses the others,
    # and parse_graph gives the line reference's graph or error line
    monkeypatch.setattr(graph_io, "_LAYOUT_CHUNK", chunk)
    plain = [True] * 6 + [False] * 3
    cases = list(zip(PLAIN_LAYOUTS, plain)) + [(text, None) for text in MALFORMED] + _block_edge_texts()
    for text, read in cases:
        g = graph_io._parse_whole(text.encode("utf-8"))
        if read is not None:
            assert (g is not None) == read
        if g is not None:
            assert relabel_form(g) == parse_by_lines(text)
        check_against_line_reference(text)
        check_bytes_like_text(text)


def _memory_test_graph():
    rng = np.random.default_rng(41)
    n = 8000
    edges = rng.integers(0, n, size=(80000, 2))
    return new_graph(n, edges[edges[:, 0] != edges[:, 1]], rng.integers(0, 4, size=n))


def _traced_parse(source):
    """parse_graph(source) and the traced peak of its allocations."""
    tracemalloc.start()
    try:
        parsed = parse_graph(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parsed, peak


def test_line_reader_memory_is_bounded_by_the_arrays():
    # a leading + keeps the text off the byte path; the line reader streams
    # its lines and collects the endpoints in one array, so its peak is the
    # new graph's arrays, not a Python object per line and per edge
    g = _memory_test_graph()
    text = "+" + serialize_graph(g)
    parsed, peak = _traced_parse(text)
    assert graphs_equal(parsed, g)
    assert peak < 16 * len(text)


def test_byte_parse_memory_is_bounded_by_the_arrays(monkeypatch):
    # the byte path holds one block's mask and token bounds at a time, so its
    # peak is the values, the tokens per line and the new graph's arrays, not
    # a mask and token bounds of the whole text
    monkeypatch.setattr(graph_io, "_LAYOUT_CHUNK", 1 << 16)
    g = _memory_test_graph()
    data = serialize_graph(g).encode()
    assert len(data) > 10 * graph_io._LAYOUT_CHUNK
    parsed, peak = _traced_parse(data)
    assert graphs_equal(parsed, g)
    assert peak < 5 * len(data)


@settings(max_examples=400, deadline=None)
@given(perturbed_graph_texts())
def test_parse_matches_line_reference_on_perturbed_graphs(text):
    check_against_line_reference(text)
    check_bytes_like_text(text)


@settings(max_examples=200, deadline=None)
@given(perturbed_graph_texts())
def test_parse_matches_line_reference_in_small_layout_blocks(text):
    # a few bytes a block, so that block edges fall inside and between lines
    with mock.patch.object(graph_io, "_LAYOUT_CHUNK", 7):
        check_against_line_reference(text)
        check_bytes_like_text(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789 -+_#\n\r\t\x0b\x1e\x1f\x85\xa0\u0663x", max_size=40))
def test_parse_arbitrary_text_matches_line_reference(text):
    check_against_line_reference(text)
    check_bytes_like_text(text)


def test_dot_empty_graph_is_valid():
    text = export_dot(new_graph(0, [], []))
    assert text.startswith("graph") and text.rstrip().endswith("}")


def test_dot_lists_vertices_and_edges(p4):
    text = export_dot(p4)
    assert text.count(" -- ") == 3
    assert all(f'{v} [label="{v}"' in text for v in range(4))
    fills = {line.split('fillcolor="')[1].split('"')[0] for line in text.splitlines() if "fillcolor" in line}
    assert len(fills) == 1  # one colour id, one fill


def test_dot_distinct_fill_per_colour(fig24):
    text = export_dot(fig24)
    fills = {line.split('fillcolor="')[1].split('"')[0] for line in text.splitlines() if "fillcolor" in line}
    assert len(fills) == 3


def test_dot_role_styling_uses_three_classes():
    inst = generate_fib_instance(3)
    text = export_dot(inst.graph, role_labels=inst.roles)
    fills = {line.split('fillcolor="')[1].split('"')[0] for line in text.splitlines() if "fillcolor" in line}
    assert len(fills) == len(set(inst.roles)) == 3


def test_dot_rejects_bad_roles(p4):
    with pytest.raises(ValueError, match="role"):
        export_dot(p4, role_labels=("P", "Q"))
    with pytest.raises(ValueError, match="role"):
        export_dot(p4, role_labels=("P", "Q", "R", "X"))


def test_dot_deterministic(fig24):
    assert export_dot(fig24) == export_dot(fig24)


def test_stats_records_contiguous_from_one(p4):
    final, trace = contract_to_fixpoint(p4)
    records = stats_dict(p4, final, trace)["per_iteration"]
    assert [r["iteration"] for r in records] == [1, 2]
    assert [r["n_before"] for r in records] == [4, 2]
    assert [r["n_after"] for r in records] == [2, 1]
    assert all(r["n_after"] < r["n_before"] for r in records)
    assert all(r["wall_time_ms"] >= 0 for r in records)
    # the same keys in the same order in every row
    assert all(list(r) == ["iteration", "n_before", "m_before", "n_after", "wall_time_ms"] for r in records)
