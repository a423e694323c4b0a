"""Finite simple graphs: bitset adjacency, graph6 I/O, canonical forms,
and the catalog of unlabeled graphs on up to seven vertices, all through
one pair order, one code and one row packer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .limits import CANONICAL_MAX_ORDER, CATALOG_MAX_ORDER, GRAPH6_MAX_ORDER, check_limit


@lru_cache(maxsize=None)
def _pairs(n: int) -> np.ndarray:
    """The pair order, as a read-only (n, n) boolean mask: ``matrix[_pairs(n)]``
    lists pair (i, j), i < j, column by column (j ascending, then i)."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def pack_rows(bits: np.ndarray) -> list[int]:
    """The row packer: Python-int bitsets of the rows of a 2-D boolean
    array, bit j of row i being bits[i, j]."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(bits, axis=1, bitorder="little")]


@dataclass(frozen=True)
class FiniteGraph:
    """A finite simple graph; ``rows[i]`` is the neighbor bitmask of vertex i, ``matrix`` the adjacency."""

    order: int
    rows: tuple[int, ...]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        if len(self.rows) != n:
            raise ValueError("adjacency rows must match order")
        full, width = (1 << n) - 1, -(-n // 8)
        data = np.frombuffer(b"".join((r & full).to_bytes(width, "little") for r in self.rows), dtype=np.uint8)
        m = np.unpackbits(data.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
        wide = [r >> n != 0 for r in self.rows]
        if any(wide) or m.diagonal().any() or m.tobytes() != m.T.tobytes():
            odd = m != m.T
            i = int((odd.any(axis=1) | m.diagonal() | wide).argmax())  # the first bad row, and its first defect
            if wide[i]:
                raise ValueError("row %d has bits outside the vertex range" % i)
            if m[i, i]:
                raise ValueError("diagonal must be zero (vertex %d)" % i)
            raise ValueError("adjacency must be symmetric (%d,%d)" % (i, int(odd[i].argmax())))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "FiniteGraph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError("loops are not allowed")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))


def rows_from_upper_bits(bits: Sequence[int] | np.ndarray, n: int) -> list[int]:
    """Bitset rows of the n-vertex graph whose pairs, in the pair order, are
    the truthy entries of ``bits``; a (graphs, pairs) array gives the n
    rows of each graph in turn."""
    bits = np.asarray(bits, dtype=bool)
    m = np.zeros(bits.shape[:-1] + (n, n), dtype=bool)
    m[..., _pairs(n)] = bits
    m |= np.swapaxes(m, -1, -2)
    return pack_rows(m.reshape(math.prod(bits.shape[:-1]) * n, n))


def _upper_bits(g: FiniteGraph) -> np.ndarray:
    """The pair bits of g, in the pair order."""
    return g.matrix[_pairs(g.order)]


# --- named graphs -----------------------------------------------------------

def complete(n: int) -> FiniteGraph:
    full = (1 << n) - 1
    return FiniteGraph(n, tuple(full & ~(1 << i) for i in range(n)))


def empty_graph(n: int) -> FiniteGraph:
    return FiniteGraph(n, (0,) * n)


def cycle(n: int) -> FiniteGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> FiniteGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return FiniteGraph.from_edges(10, edges)


# --- graph6 -----------------------------------------------------------------

GRAPH6_HEADER = ">>graph6<<"
_SIX_BITS = np.arange(5, -1, -1, dtype=np.uint8)  # six pair bits per graph6 byte, the first most significant


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


def graph6_encode(g: FiniteGraph) -> str:
    n = g.order
    check_limit(n, GRAPH6_MAX_ORDER, "GRAPH6_MAX_ORDER", "graph6 order %d" % n)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    bits = _upper_bits(g)
    six = np.zeros(-(-len(bits) // 6) * 6, dtype=np.uint8)
    six[: len(bits)] = bits
    return head + (six.reshape(-1, 6) @ (1 << _SIX_BITS) + 63).tobytes().decode("ascii")


def graph6_decode(text: str) -> FiniteGraph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    data = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    out_of_range = (data < 63) | (data > 126)
    if out_of_range.any():
        raise Graph6Error("byte out of range", int(out_of_range.argmax()))
    pos = 1 if data[0] != 126 else 4 if len(data) >= 2 and data[1] != 126 else 8
    if len(data) < pos:
        raise Graph6Error("truncated size block", len(data))
    n = 0
    for byte in data[pos // 3 : pos].tolist():  # the size bytes after zero, one or two '~'
        n = n << 6 | (byte - 63)
    npairs = math.comb(n, 2)
    if len(data) - pos != -(-npairs // 6):
        raise Graph6Error("edge block has wrong length", pos)
    bits = ((data[pos:, None] - 63).astype(np.uint8) >> _SIX_BITS & 1).ravel()
    if bits[npairs:].any():
        raise Graph6Error("nonzero padding bit", pos + npairs // 6)
    return FiniteGraph(n, tuple(rows_from_upper_bits(bits[:npairs], n)))


# --- canonical form ---------------------------------------------------------

@lru_cache(maxsize=None)
def _relabelings(n: int) -> np.ndarray:
    """The read-only (C(n,2), n!) weights of every relabelling of n vertices.

    ``bits @ weights`` is the code of every relabelling of the pair bits
    ``bits`` at once: the pair that old pair q becomes under a relabelling
    weighs 2^(C(n,2) - 1 - its position), so the first pair is the most
    significant bit and the least code is the lexicographically least
    bitstring.  Column 0 is the identity, so ``bits @ weights[:, 0]`` is
    a graph's own code.  Codes stay below 2^28 for n <= 8: float64 is exact.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    j, i = np.nonzero(_pairs(n))
    exponent = np.zeros((n, n), dtype=np.intp)
    exponent[j, i] = exponent[i, j] = np.arange(len(j))[::-1]
    weights = 2.0 ** exponent[perms[:, j], perms[:, i]]
    weights.flags.writeable = False  # shared by every caller
    return weights.T


def canonical_form(g: FiniteGraph) -> str:
    """Order-prefixed least code over all relabellings, spelled out as its
    pair bits; two graphs are isomorphic iff their canonical forms are equal."""
    check_limit(g.order, CANONICAL_MAX_ORDER, "CANONICAL_MAX_ORDER", "canonical-form order %d" % g.order)
    weights = _relabelings(g.order)
    least = int((_upper_bits(g) @ weights).min())
    return "%d:%s" % (g.order, format(least | 1 << len(weights), "b")[1:])


@lru_cache(maxsize=None)
def enumerate_unlabeled(k: int) -> tuple[FiniteGraph, ...]:
    """One canonical representative per isomorphism class on k vertices,
    in the order of their canonical forms.

    Each (k-1)-class is extended by every neighborhood of a fresh vertex,
    whose pairs are the last k - 1 columns; the least code of every
    extension is taken at once, and the distinct codes are spelled out as
    the bits of their representatives, whose rows are packed in one batch.
    """
    if k < 1:
        raise ValueError("catalog order %d is below 1" % k)
    check_limit(k, CATALOG_MAX_ORDER, "CATALOG_MAX_ORDER", "catalog order %d" % k)
    if k == 1:
        return (FiniteGraph(1, (0,)),)
    weights = _relabelings(k)
    fresh = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 1) & 1).astype(bool)
    batches = []
    for g in enumerate_unlabeled(k - 1):
        old = np.broadcast_to(_upper_bits(g), (len(fresh), len(weights) - (k - 1)))
        batches.append((np.hstack([old, fresh]) @ weights).min(axis=1))
    codes = np.sort(np.concatenate(batches)).astype(np.int64)
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    rows = rows_from_upper_bits(codes[:, None] >> np.arange(len(weights))[::-1] & 1, k)
    return tuple(FiniteGraph(k, tuple(rows[c : c + k])) for c in range(0, len(rows), k))


def find_induced(
    rows: Sequence[int], within: int, pattern: FiniteGraph, node_budget: int | None = None,
    anchor: int | None = None, copies: list[int] | None = None,
) -> tuple[list[int] | None, int]:
    """Search the positions in the bitmask ``within`` of the bitset
    ``rows`` for an induced copy of the pattern.  Returns (images, nodes):
    images[v] is the position of pattern vertex v, or None when no copy was
    found, and nodes counts the candidates tried.

    Backtracking over pattern vertices in descending-degree order, lowest
    free position first; candidates are cut to the positions consistent
    with every vertex already mapped.  A node is counted before the budget
    test, so a search that ran out reports node_budget + 1 nodes.

    With an ``anchor`` position, only copies that use it are searched: each
    pattern vertex in turn is mapped to the anchor first.  With a ``copies``
    list, the search does not stop at a copy but appends its position mask
    and goes on, so every labelled copy is listed (a vertex set once per
    automorphism of the pattern) and None is returned.
    """
    r = pattern.order
    if r > within.bit_count():
        return None, 0
    by_degree = sorted(range(r), key=lambda v: (-pattern.degree(v), v))
    if anchor is None:
        first, orders = within, [by_degree]
    else:
        first, orders = within & 1 << anchor, [[a] + [p for p in by_degree if p != a] for a in by_degree]
    limit = float("inf") if node_budget is None else node_budget
    images = [-1] * r
    nodes = 0

    def dfs(depth: int, used: int) -> bool:
        """True once a copy is complete or the budget is spent."""
        nonlocal nodes
        if depth == r:
            if copies is None:
                return True
            copies.append(used)
            return False
        cand = (within if depth else first) & ~used
        for q, adjacent in constraints[depth]:
            row = rows[images[q]]
            cand = cand & row if adjacent else cand & ~row
        p = porder[depth]
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if nodes > limit:
                return True
            images[p] = low.bit_length() - 1
            if dfs(depth + 1, used | low):
                return True
        return False

    for porder in orders:
        # per depth: (earlier pattern vertex, adjacent to this depth's vertex?)
        constraints = [[(q, pattern.has_edge(p, q)) for q in porder[:d]] for d, p in enumerate(porder)]
        if dfs(0, 0):
            return (images if nodes <= limit else None), nodes
    return None, nodes
