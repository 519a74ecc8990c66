"""graph6 short-form codec and the edge-list text format ``n;a-b,c-d,...``."""

from __future__ import annotations

from .graphs import Graph, MAX_VERTICES, _columns, _pack_graph6, build_graph


class Graph6ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def emit_graph6(G: Graph) -> bytes:
    return _pack_graph6(G.n, _columns(G.adj))


def parse_graph6(data: bytes) -> Graph:
    """Decode short-form graph6; rejects bad headers, truncation, nonzero padding."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if not data:
        raise Graph6ParseError("empty input", 0)
    n = data[0] - 63
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6ParseError(f"header byte {data[0]} encodes unsupported n={n}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) != 1 + nbytes:
        raise Graph6ParseError(
            f"expected {1 + nbytes} bytes for n={n}, got {len(data)}", len(data)
        )
    bits = []
    for pos, byte in enumerate(data[1:], start=1):
        group = byte - 63
        if not 0 <= group < 64:
            raise Graph6ParseError(f"body byte {byte} outside graph6 range", pos)
        for shift in range(5, -1, -1):
            bits.append(group >> shift & 1)
    if any(bits[nbits:]):
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse ``n;a-b,c-d,...`` with 1-based labels; ``n;`` is the edgeless graph."""
    head, sep, body = text.partition(";")
    if not sep:
        raise ValueError("edge list must look like 'n;a-b,c-d,...'")
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"bad vertex count {head!r}") from None
    edges = []
    body = body.strip()
    if body:
        for chunk in body.split(","):
            a, sep2, b = chunk.partition("-")
            if not sep2:
                raise ValueError(f"bad edge {chunk!r}")
            edges.append((int(a), int(b)))
    return build_graph(n, edges)


def format_edge_list(G: Graph) -> str:
    return f"{G.n};" + ",".join(f"{a}-{b}" for a, b in G.edges())
