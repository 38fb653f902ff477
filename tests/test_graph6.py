"""graph6 codec: hand-packed values, networkx cross-checks, roundtrips."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slmatch import (
    CapacityError,
    Graph6ParseError,
    InputError,
    ParseFailure,
    build_graph,
    complete_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
    extremal_h,
    read_edge_list,
    scan_stream,
)
from slmatch.generate import edge_mask_to_graph
from slmatch.spectral import MAX_DENSE_ORDER


def test_decode_hand_packed_values():
    assert decode_graph6("C~") == complete_graph(4)
    assert decode_graph6("Bg") == build_graph(3, [(0, 1), (1, 2)])
    assert decode_graph6("@") == empty_graph(1)


def test_encode_hand_packed_values():
    assert encode_graph6(complete_graph(4)) == "C~"
    assert encode_graph6(build_graph(3, [(0, 1), (1, 2)])) == "Bg"
    assert encode_graph6(empty_graph(1)) == "@"


def test_star_roundtrip_degree_sequence():
    line = encode_graph6(extremal_h(4))
    back = decode_graph6(line)
    assert sorted(back.degrees(), reverse=True) == [3, 1, 1, 1]
    assert back == extremal_h(4)


def test_decode_rejects_bytes_outside_range():
    with pytest.raises(Graph6ParseError) as err:
        decode_graph6("C" + chr(30))
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        decode_graph6(chr(127))
    with pytest.raises(Graph6ParseError):
        decode_graph6("")


def test_decode_rejects_length_mismatch():
    with pytest.raises(Graph6ParseError):
        decode_graph6("C~~")  # one byte too many for n=4
    with pytest.raises(Graph6ParseError):
        decode_graph6("C")  # missing adjacency byte


def test_decode_rejects_huge_order_marker():
    with pytest.raises(Graph6ParseError):
        decode_graph6("~~~~~~~~")


def test_encoded_length_formula():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 70)
        G = edge_mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        line = encode_graph6(G)
        header = 1 if n <= 62 else 4
        assert len(line) == header + (n * (n - 1) // 2 + 5) // 6


def test_roundtrip_random_graphs():
    rng = random.Random(1234)
    for _ in range(10_000):
        n = rng.randint(1, 70)
        G = edge_mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        assert decode_graph6(encode_graph6(G)) == G


def test_roundtrip_extended_size_boundary():
    for n in (62, 63, 64):
        rng = random.Random(n)
        G = edge_mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        line = encode_graph6(G)
        assert line.startswith("~") == (n > 62)
        assert decode_graph6(line) == G


def test_codec_agrees_with_networkx():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 70)
        G = edge_mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        line = encode_graph6(G)
        nx_graph = nx.from_graph6_bytes(line.encode("ascii"))
        assert nx_graph.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in nx_graph.edges()} == set(G.edges())
        assert nx.to_graph6_bytes(nx_graph, header=False).strip().decode("ascii") == line


@st.composite
def _graphs_up_to_130(draw):
    n = draw(st.integers(0, 130))
    return edge_mask_to_graph(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@given(_graphs_up_to_130())
@example(empty_graph(0))
@example(complete_graph(62))
@example(complete_graph(63))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property_across_header_boundary(G):
    line = encode_graph6(G)
    header = 1 if G.n <= 62 else 4
    assert len(line) == header + (G.n * (G.n - 1) // 2 + 5) // 6
    assert decode_graph6(line) == G


@pytest.mark.parametrize("n", [63, 64, 127, 500, 1000])
def test_codec_agrees_with_networkx_at_large_orders(n):
    reference = nx.gnp_random_graph(n, 0.5, seed=n)
    G = build_graph(n, reference.edges())
    nx_line = nx.to_graph6_bytes(reference, header=False).strip()
    assert encode_graph6(G) == nx_line.decode("ascii")
    back = nx.from_graph6_bytes(nx_line)
    decoded = decode_graph6(nx_line.decode("ascii"))
    assert decoded.n == back.number_of_nodes() == n
    assert set(decoded.edges()) == {tuple(sorted(e)) for e in back.edges()}


# (line, offset, message): each malformed line's error, pinned literally
MALFORMED = [
    ("", 0, "empty graph6 line"),
    (">", 0, "byte 62 outside graph6 range 63..126"),
    ("D ?", 1, "byte 32 outside graph6 range 63..126"),
    ("D?\x7f", 2, "byte 127 outside graph6 range 63..126"),
    ("C\u00e9", 1, "byte 233 outside graph6 range 63..126"),
    ("C\xff", 1, "byte 255 outside graph6 range 63..126"),
    ("\u20ac?", 0, "byte 8364 outside graph6 range 63..126"),
    ("~", 1, "truncated extended order field"),
    ("~??", 3, "truncated extended order field"),
    ("~??}", 1, "non-canonical extended order field"),
    ("~???", 1, "non-canonical extended order field"),
    ("~~~~", 1, "orders >= 258048 are not supported by this decoder"),
    ("~~??~~", 1, "orders >= 258048 are not supported by this decoder"),
    ("C~~", 1, "expected 1 adjacency bytes for n=4, got 2"),
    ("C", 1, "expected 1 adjacency bytes for n=4, got 0"),
    ("~?@?" + "?" * 335, 4, "expected 336 adjacency bytes for n=64, got 335"),
    ("~?@?" + "?" * 337, 4, "expected 336 adjacency bytes for n=64, got 337"),
]


@pytest.mark.parametrize("line, offset, message", MALFORMED)
def test_decode_errors_keep_offset_and_message(line, offset, message):
    with pytest.raises(Graph6ParseError) as err:
        decode_graph6(line)
    assert (err.value.offset, str(err.value)) == (offset, message)


def test_scan_stream_mixed_lines():
    lines = [">>graph6<<", "", "C~", "Bg", "??garbage!", " @ "]
    items = list(scan_stream(lines))
    assert items[0] == (4, "C~")
    assert items[1] == (3, "Bg")
    assert isinstance(items[2], ParseFailure)
    assert items[2].line_number == 5
    assert items[3] == (1, "@")


def test_scan_stream_header_inline():
    items = list(scan_stream([">>graph6<<C~"]))
    assert items == [(4, "C~")]


def test_scan_stream_strips_only_ascii_whitespace():
    # \x85 and \xa0 are whitespace to str.strip() but are bytes of the line
    lines = [">>graph6<< \tC~\x0b\x0c\r\n", ">>graph6<<\xa0C~", "C~\x85", "\x1cC~"]
    items = list(scan_stream(lines))
    assert items[0] == (4, "C~")
    assert [item.line_number for item in items[1:]] == [2, 3, 4]
    assert [item.offset for item in items[1:]] == [0, 2, 0]


def test_read_edge_list():
    text = ["3 2", "0 1", " 1  2 "]
    assert read_edge_list(text) == build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        read_edge_list(["3 2", "0 1"])  # count mismatch
    with pytest.raises(InputError):
        read_edge_list([])
    with pytest.raises(InputError):
        read_edge_list(["3 1", "0 x"])
    with pytest.raises(CapacityError):
        read_edge_list([f"{MAX_DENSE_ORDER + 1} 0"])  # above the dense-Q order limit
    assert read_edge_list([f"{MAX_DENSE_ORDER} 0"]).n == MAX_DENSE_ORDER
