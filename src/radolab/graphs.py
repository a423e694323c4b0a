"""Finite simple graphs: bitset adjacency, graph6 I/O, canonical forms,
and the catalog of unlabeled graphs on up to seven vertices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .limits import CANONICAL_MAX_ORDER, CATALOG_MAX_ORDER, GRAPH6_MAX_ORDER, check_limit


@dataclass(frozen=True)
class FiniteGraph:
    """A finite simple graph; ``rows[i]`` is the neighbor bitmask of vertex i."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.order:
            raise ValueError("adjacency rows must match order")
        full = (1 << self.order) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError("row %d has bits outside the vertex range" % i)
            if r >> i & 1:
                raise ValueError("diagonal must be zero (vertex %d)" % i)
            for j in range(self.order):
                if (r >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError("adjacency must be symmetric (%d,%d)" % (i, j))

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


def rows_from_upper_bits(bits: Sequence[int], n: int) -> list[int]:
    """Bitset rows of the n-vertex graph whose column-major upper-triangle
    pairs are the truthy entries of ``bits``."""
    rows = [0] * n
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            p += 1
    return rows


def _upper_bits(g: FiniteGraph) -> list[int]:
    """The column-major upper-triangle bits of g, the first pair first."""
    return [g.rows[j] >> i & 1 for j in range(1, g.order) for i in range(j)]


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
    bits = "".join(map(str, _upper_bits(g)))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(63 + int(bits[p : p + 6], 2)) for p in range(0, len(bits), 6))


def graph6_decode(text: str) -> FiniteGraph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    data = [ord(c) for c in s]
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error("byte out of range", off)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated size block", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated size block", len(data))
        n = 0
        for k in range(2, 8):
            n = n << 6 | (data[k] - 63)
        pos = 8
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error("edge block has wrong length", pos)
    bits = []
    for k in range(pos, len(data)):
        v = data[k] - 63
        for shift in range(5, -1, -1):
            bits.append(v >> shift & 1)
    for extra in range(npairs, len(bits)):
        if bits[extra]:
            raise Graph6Error("nonzero padding bit", pos + extra // 6)
    return FiniteGraph(n, tuple(rows_from_upper_bits(bits, n)))


# --- canonical form ---------------------------------------------------------

@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every relabelling of the n-vertex upper triangle, as (source, weights).

    ``source[t, p]`` is the original pair that pair p of relabelling t
    reads (pairs column-major): relabelling t puts old vertex perm[q] at q
    for the t-th permutation perm.  ``bits @ weights`` is the code of every
    relabelling of the bit rows ``bits`` at once, the first pair as the most
    significant bit, so the least code is the lexicographically least
    bitstring.  Codes stay below 2^28 for n <= 8: float64 is exact.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    j, i = np.tril_indices(n, -1)  # the pairs i < j, column-major
    lo, hi = np.minimum(perms[:, i], perms[:, j]), np.maximum(perms[:, i], perms[:, j])
    source = hi * (hi - 1) // 2 + lo
    weights = np.zeros(source.shape)
    np.put_along_axis(weights, source, 2.0 ** np.arange(len(i))[::-1], axis=1)
    source.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return source, weights.T


def canonical_form(g: FiniteGraph) -> str:
    """Order-prefixed minimal upper-triangle bitstring over all relabellings;
    two graphs are isomorphic iff their canonical forms are equal."""
    check_limit(g.order, CANONICAL_MAX_ORDER, "CANONICAL_MAX_ORDER", "canonical-form order %d" % g.order)
    source, weights = _relabelings(g.order)
    bits = np.array(_upper_bits(g), dtype=np.uint8)
    least = bits[source[np.argmin(bits @ weights)]]
    return "%d:%s" % (g.order, "".join(map(str, least.tolist())))


@lru_cache(maxsize=None)
def enumerate_unlabeled(k: int) -> tuple[FiniteGraph, ...]:
    """One canonical representative per isomorphism class on k vertices,
    in the order of their canonical forms.

    Each (k-1)-class is extended by every neighborhood of a fresh vertex,
    whose pairs are the last k - 1 columns; the least code of every
    extension is taken at once, and each distinct code is spelled out as
    the bits of its representative.
    """
    if k < 1:
        raise ValueError("catalog order %d is below 1" % k)
    check_limit(k, CATALOG_MAX_ORDER, "CATALOG_MAX_ORDER", "catalog order %d" % k)
    if k == 1:
        return (FiniteGraph(1, (0,)),)
    _, weights = _relabelings(k)
    fresh = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 1) & 1).astype(np.uint8)
    batches = []
    for g in enumerate_unlabeled(k - 1):
        old = np.array([_upper_bits(g)] * len(fresh), dtype=np.uint8)
        batches.append((np.hstack([old, fresh]) @ weights).min(axis=1))
    codes = np.sort(np.concatenate(batches)).astype(np.int64)
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    forms = codes[:, None] >> np.arange(weights.shape[0])[::-1] & 1  # the first pair is the most significant bit
    return tuple(FiniteGraph(k, tuple(rows_from_upper_bits(bits, k))) for bits in forms.tolist())


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
