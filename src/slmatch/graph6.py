"""Bit-exact graph6 encoding and decoding, plus the text input of the
verification harness (graph6 streams and edge-list fixtures).

graph6 layout: printable bytes 63..126, one graph per line.  The order n is
one byte n+63 for n <= 62, or byte 126 followed by three 6-bit digits of n
for 63 <= n <= 258047.  The upper-triangle bits x(0,1), x(0,2), x(1,2),
x(0,3), ... (column-major) follow, packed big-endian six per byte with value
offset 63 and zero padding to a multiple of six.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, Graph6ParseError, InputError
from .graph import Graph, build_graph

HEADER = ">>graph6<<"

# str.strip() would also strip the Unicode whitespace among latin-1's
# non-ASCII characters (e.g. \x85, \xa0), which graph6 lines must not hold
_ASCII_WHITESPACE = " \t\n\r\x0b\x0c"

_MAX_ORDER = 258047

# graph6 and base64 both write six bits per byte, most significant first;
# only the alphabets differ, so bytes.translate converts between them.
_GRAPH6_BYTES = bytes(range(63, 127))
_BASE64_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64_BYTES, _GRAPH6_BYTES)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6_BYTES, _BASE64_BYTES)


def pair_index_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in graph6 column-major bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def edge_bits(G: Graph) -> str:
    """The adjacency bits of G in pair_index_order, as "0"/"1" characters."""
    # column j of the upper triangle is the low j bits of adjacency mask j,
    # from bit 0 up: bin() of them with a marker bit j, read backwards and
    # stopped before the marker
    masks = G.adjacency_masks()
    return "".join([bin(masks[j] & ((1 << j) - 1) | (1 << j))[:2:-1] for j in range(1, G.n)])


def encode_graph6(G: Graph) -> str:
    """Canonical graph6 line for G (no header)."""
    n = G.n
    if n > _MAX_ORDER:
        raise CapacityError(f"graph6 supports at most {_MAX_ORDER} vertices, got {n}")
    if n <= 62:
        prefix = chr(63 + n)
    else:
        prefix = "~" + "".join(chr(63 + ((n >> k) & 63)) for k in (12, 6, 0))

    bits = edge_bits(G)
    # base64 packs whole 24-bit groups; the zero padding past the last
    # graph6 byte is cut off, and the leading "0" keeps n < 2 parseable
    pad = -len(bits) % 24
    raw = int("0" + bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")
    body = base64.b64encode(raw)[: (len(bits) + 5) // 6].translate(_TO_GRAPH6)
    return prefix + body.decode("ascii")


def _parse_header(line: str) -> tuple[int, int]:
    """Order of one graph6 line and the offset of its adjacency bytes, after
    checking the byte range, the order field and the body length; the body
    is not decoded, so a line can be skipped by its order alone."""
    if not line:
        raise Graph6ParseError("empty graph6 line", offset=0)
    if not line.isascii() or line.encode("ascii").translate(None, _GRAPH6_BYTES):
        # some byte is out of range; find the first one for the error offset
        for off, ch in enumerate(line):
            if not 63 <= ord(ch) <= 126:
                raise Graph6ParseError(
                    f"byte {ord(ch)} outside graph6 range 63..126", offset=off
                )
    data = line[:4].encode("ascii")
    c0 = data[0] - 63
    if c0 <= 62:
        n, idx = c0, 1
    else:
        if len(data) < 4:
            raise Graph6ParseError("truncated extended order field", offset=len(data))
        if data[1] - 63 == 63:
            raise Graph6ParseError(
                "orders >= 258048 are not supported by this decoder", offset=1
            )
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        idx = 4
        if n <= 62:
            raise Graph6ParseError("non-canonical extended order field", offset=1)

    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(line) - idx != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(line) - idx}",
            offset=idx,
        )
    return n, idx


def decode_graph6(line: str) -> Graph:
    """Graph encoded by one graph6 line (header not accepted here)."""
    n, idx = _parse_header(line)
    body = line[idx:].encode("ascii").translate(_FROM_GRAPH6)
    # "A" is base64's zero digit; it pads the body to whole 4-digit groups
    raw = base64.b64decode(body + b"A" * (-len(body) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b").encode("ascii")

    # An n x n square of ASCII digits holds the strict lower triangle of the
    # adjacency matrix: row j is column j of the upper triangle, zero-padded.
    # Row v read backwards gives v's lower neighbours and column v read
    # bottom-up its higher ones, each a binary numeral with vertex u at bit u.
    square = bytearray(b"0") * (n * n)
    for j in range(1, n):
        square[j * n : j * n + j] = bits[j * (j - 1) // 2 : j * (j + 1) // 2]
    bottom = n * n - n  # start of the last row
    masks = [int(square[v * n : v * n + n][::-1], 2) for v in range(n)]
    return Graph(n, tuple(m | int(square[bottom + v :: -n], 2) for v, m in enumerate(masks)))


@dataclass(frozen=True)
class ParseFailure:
    """A malformed line in a graph6 stream; processing continues past it."""

    line_number: int
    offset: int | None
    message: str


def scan_stream(lines: Iterable[str]) -> Iterator[tuple[int, str] | ParseFailure]:
    """Check a graph6 stream without decoding it: (order, line) for each
    well-formed line, ParseFailure for each bad one, in stream order.

    An optional '>>graph6<<' header and blank lines are skipped.
    """
    for number, raw in enumerate(lines, start=1):
        text = raw.strip(_ASCII_WHITESPACE)
        if not text:
            continue
        if text.startswith(HEADER):
            text = text[len(HEADER):].strip(_ASCII_WHITESPACE)
            if not text:
                continue
        try:
            yield _parse_header(text)[0], text
        except Graph6ParseError as exc:
            yield ParseFailure(number, exc.offset, str(exc))


def read_edge_list(lines: Iterable[str]) -> Graph:
    """Parse the plain edge-list fixture format.

    First non-blank line is "n <edge count>"; each following non-blank line is
    one "u v" pair, 0-based.  Whitespace-tolerant.  n <= MAX_DENSE_ORDER.
    """
    rows = [row.strip() for row in lines]
    rows = [row for row in rows if row]
    if not rows:
        raise InputError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise InputError(f"header must be 'n <edge count>', got {rows[0]!r}")
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"non-integer header {rows[0]!r}") from exc
    from .spectral import _require_dense_order

    _require_dense_order(n)  # refused before anything of order n is built
    if count != len(rows) - 1:
        raise InputError(f"header announces {count} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        cols = row.split()
        if len(cols) != 2:
            raise InputError(f"edge line must be 'u v', got {row!r}")
        try:
            edges.append((int(cols[0]), int(cols[1])))
        except ValueError as exc:
            raise InputError(f"non-integer edge line {row!r}") from exc
    return build_graph(n, edges)
