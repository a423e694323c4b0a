"""Brute-force references that the tests compare the library against."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from radolab.constructions import ForcingFailed, TypeClassEmpty
from radolab.graphs import GRAPH6_HEADER, FiniteGraph, Graph6Error
from radolab.largeness import pi02_force
from radolab.oracle import _MIX_MUL_1, _MIX_MUL_2, GOLDEN, MASK64, _mix64_np, mix64, rotl64
from radolab.sets import VertexSet


def whole_stream_matrix(seed: int, tags, count: int) -> np.ndarray:
    """The counter streams in one pass over the whole (len(tags), count)
    matrix: value j of a tag's row is mix64(key + (j + 1) * GOLDEN) >> 11."""
    tags = np.asarray(tags, dtype=np.uint64)
    keys = _mix64_np(np.uint64(seed) ^ _mix64_np(tags * np.uint64(GOLDEN)))
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64_np(keys[:, None] + idx[None, :] * np.uint64(GOLDEN)) >> np.uint64(11)


def seed_with_outer_z(u: int, v: int, z: int) -> int:
    """The ambient seed under which the outer mix64 of the pair {u, v}
    holds z just before its last step, z ^= z >> 31: the finalizer's first
    two steps run backwards from z (each multiplier is odd, so invertible
    mod 2^64, and y = x ^ (x >> s) gives x back by iterating
    x = y ^ (x >> s)), and the pair's inner mix64 is XORed off."""
    for shift, mul in ((27, _MIX_MUL_2), (30, _MIX_MUL_1)):
        y = z * pow(mul, -1, 1 << 64) & MASK64
        z = y
        for _ in range(64 // shift + 1):
            z = y ^ (z >> shift)
    a, b = min(u, v), max(u, v)
    return z ^ mix64(((a * GOLDEN) & MASK64) ^ rotl64(b, 32))


def row_type_keys(oracle, base, pool) -> np.ndarray:
    """Type keys from one ``edge_grid`` over the whole pool, ORed in row by
    row: bit i of a key is the edge to base[i]."""
    keys = np.zeros(len(pool), dtype=np.int64)
    for i, row in enumerate(oracle.edge_grid(base, pool)):
        keys |= row.astype(np.int64) << i
    return keys


def least_witnesses(oracle, f, bound) -> list:
    """Per type mask over the ordered base f (bit i: an edge to f[i]), the
    least vertex in [1, bound] outside f with that type, or None; each
    candidate's type is read from scalar ``edge`` calls."""
    first = [None] * (1 << len(f))
    for m in range(1, bound + 1):
        if m not in f:
            mask = sum(oracle.edge(b, m) << i for i, b in enumerate(f))
            if first[mask] is None:
                first[mask] = m
    return first


def subset_code(rows, sub) -> int:
    """Upper-triangle code of the subgraph induced on the ordered positions
    ``sub`` of the bitset ``rows``: the pair (a, b), a < b, of ``sub`` is
    bit b(b-1)/2 + a, set when rows[sub[a]] and rows[sub[b]] are adjacent."""
    code = 0
    bit = 1
    for b, j in enumerate(sub):
        row = rows[j]
        for a in range(b):
            if row >> sub[a] & 1:
                code |= bit
            bit <<= 1
    return code


@lru_cache(maxsize=None)
def pattern_orbit_table(pattern: FiniteGraph) -> tuple[bool, ...]:
    """Boolean table over all subset codes (``subset_code``) of the
    pattern's order: True where the code is a labeled copy of the pattern,
    gathered from the pattern's adjacency under every permutation.  Capped
    at order 7 to keep the table (2^C(r,2) entries) desk-sized; built once
    per pattern and shared, hence immutable."""
    r = pattern.order
    if r > 7:
        raise ValueError("orbit table supported up to order 7")
    perms = np.array(list(permutations(range(r))), dtype=np.intp)
    adjacent = np.array([[pattern.has_edge(u, v) for v in range(r)] for u in range(r)], dtype=np.int64)
    codes = np.zeros(len(perms), dtype=np.int64)
    bit = 0
    for b in range(r):
        for a in range(b):
            codes |= adjacent[perms[:, a], perms[:, b]] << bit
            bit += 1
    table = np.zeros(1 << bit, dtype=bool)
    table[codes] = True
    return tuple(table.tolist())


def gfree_flags(pattern: FiniteGraph, n: int) -> np.ndarray:
    """True for each labeled n-vertex graph (indexed by its code: pair p of
    the column-major upper triangle is bit C(n,2) - 1 - p) with no induced
    copy of the pattern: for each of the C(n, r) position subsets, that
    subset's code is read out of all 2^C(n,2) codes at once and looked up
    in the orbit table."""
    npairs = n * (n - 1) // 2
    masks = np.arange(1 << npairs, dtype=np.int64)
    flags = np.ones(len(masks), dtype=bool)
    r = pattern.order
    not_copy = ~np.asarray(pattern_orbit_table(pattern), dtype=bool)
    for sub in combinations(range(n), r):
        submask = np.zeros(len(masks), dtype=np.int64)
        bit = 0
        for b in range(r):
            for a in range(b):
                src = sub[b] * (sub[b] - 1) // 2 + sub[a]  # column-major position of the pair
                submask |= ((masks >> (npairs - 1 - src)) & 1) << bit
                bit += 1
        flags &= not_copy[submask]
    return flags


def from_upper_mask(n: int, mask: int) -> FiniteGraph:
    """The n-vertex graph whose column-major upper-triangle pair p is bit p of mask."""
    bits = [mask >> p & 1 for p in range(n * (n - 1) // 2)]
    return FiniteGraph(n, tuple(rows_from_pair_bits(bits, n)))


# --- the graph codec, pair by pair ------------------------------------------

def rows_from_pair_bits(bits, n: int) -> list[int]:
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


def pair_bits(g: FiniteGraph) -> list[int]:
    """The column-major upper-triangle bits of g, the first pair first."""
    return [g.rows[j] >> i & 1 for j in range(1, g.order) for i in range(j)]


def row_defect(order: int, rows) -> str | None:
    """The message of the first defect of bitset rows as a graph, row by
    row and pair by pair, or None for a simple graph."""
    if len(rows) != order:
        return "adjacency rows must match order"
    full = (1 << order) - 1
    for i, r in enumerate(rows):
        if r & ~full:
            return "row %d has bits outside the vertex range" % i
        if r >> i & 1:
            return "diagonal must be zero (vertex %d)" % i
        for j in range(order):
            if (r >> j & 1) != (rows[j] >> i & 1):
                return "adjacency must be symmetric (%d,%d)" % (i, j)
    return None


def graph6_text(g: FiniteGraph) -> str:
    """graph6 of g, six pair bits per byte."""
    n = g.order
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    bits = "".join(map(str, pair_bits(g)))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(63 + int(bits[p : p + 6], 2)) for p in range(0, len(bits), 6))


def graph6_rows(text: str) -> tuple[int, list[int]]:
    """(order, rows) of graph6 text, or the library's Graph6Error at the
    same offset, read byte by byte."""
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
    if len(data) - pos != (npairs + 5) // 6:
        raise Graph6Error("edge block has wrong length", pos)
    bits = []
    for k in range(pos, len(data)):
        v = data[k] - 63
        for shift in range(5, -1, -1):
            bits.append(v >> shift & 1)
    for extra in range(npairs, len(bits)):
        if bits[extra]:
            raise Graph6Error("nonzero padding bit", pos + extra // 6)
    return n, rows_from_pair_bits(bits, n)


def complement(g: FiniteGraph) -> FiniteGraph:
    full = (1 << g.order) - 1
    return FiniteGraph(g.order, tuple((~r & full & ~(1 << i)) for i, r in enumerate(g.rows)))


def induced(g: FiniteGraph, vertices) -> FiniteGraph:
    """Subgraph of g induced on the given vertex positions, in the given order."""
    rows = []
    for a in vertices:
        r = 0
        for q, b in enumerate(vertices):
            if a != b and g.has_edge(a, b):
                r |= 1 << q
        rows.append(r)
    return FiniteGraph(len(vertices), tuple(rows))


def contains_induced_copy(g: FiniteGraph, pattern: FiniteGraph) -> bool:
    """Exhaustive check that g has an induced copy of the pattern."""
    r = pattern.order
    if r > g.order:
        return False
    table = pattern_orbit_table(pattern)
    return any(table[subset_code(g.rows, sub)] for sub in combinations(range(g.order), r))


def bad_subsets(rows, n: int, pattern: FiniteGraph) -> list[int]:
    """Bitmasks of the index subsets that induce the pattern, found by
    testing the subset code of every r-subset against the orbit table."""
    table = pattern_orbit_table(pattern)
    return [
        sum(1 << j for j in sub)
        for sub in combinations(range(n), pattern.order)
        if table[subset_code(rows, sub)]
    ]


def greedy_gfree(rows, n: int, pattern: FiniteGraph) -> list[int]:
    """Take each index in turn unless it completes a pattern copy with r - 1
    indices already taken, found by scanning every such (r - 1)-subset."""
    table = pattern_orbit_table(pattern)
    chosen: list[int] = []
    for v in range(n):
        if not any(table[subset_code(rows, (*rest, v))] for rest in combinations(chosen, pattern.order - 1)):
            chosen.append(v)
    return chosen


def scan_starts(oracle, scan_from: int, placed, rows, prefix_bound: int) -> list[int]:
    """Every start k >= scan_from whose window [k, k + len(rows) - 1] <=
    prefix_bound extends the placed images, tested start by start on scalar
    ``edge``: window vertex d must have an edge to window vertex d' < d, or
    to placed[i], exactly where rows[d] has bit len(placed) + d', or bit i."""
    offset, length = len(placed), len(rows)

    def fits(k):
        for d in range(length):
            earlier = list(enumerate(placed)) + [(offset + e, k + e) for e in range(d)]
            if any(oracle.edge(k + d, w) != bool(rows[d] >> bit & 1) for bit, w in earlier):
                return False
        return True

    return [k for k in range(scan_from, prefix_bound - length + 2) if fits(k)]


def place_blocks(oracle, row, blocks: int, prefix_bound: int):
    """Leftmost disjoint windows of lengths 1..blocks whose concatenation
    induces the target with adjacency bitmasks row(v), from ``scan_starts``.
    Returns (intervals, images, None), or (intervals so far, images so far,
    the block that found no start)."""
    intervals, images, scan_from = [], [], 1
    for j in range(1, blocks + 1):
        rows = [row(len(images) + d) for d in range(j)]
        starts = scan_starts(oracle, scan_from, images, rows, prefix_bound)
        if not starts:
            return intervals, images, j
        intervals.append((starts[0], j))
        images.extend(range(starts[0], starts[0] + j))
        scan_from = starts[0] + j
    return intervals, images, None


def pi02_full_class(oracle, family, levels: int, prefix_bound: int):
    """The Π⁰₂ recursion on whole isolation classes: level n filters every
    vertex of (k_{n-1}, prefix_bound] against [1, k_{n-1}] and forces over
    the earlier blocks plus that whole class.  Returns (ks, blocks,
    certificates) or raises the library's give-ups with the same fields."""
    k_prev, ks, blocks, earlier = 0, [], [], []
    p = float(oracle.edge_probability)
    for n in range(1, levels + 1):
        cands = np.arange(k_prev + 1, prefix_bound + 1, dtype=np.int64)
        for b in range(1, k_prev + 1):
            cands = cands[~oracle.edge_pairs(b, cands)]
        if len(cands) == 0:
            raise TypeClassEmpty(n, k_prev, (prefix_bound - k_prev) * (1 - p) ** k_prev)
        t_prime = VertexSet(np.concatenate([np.array(earlier, dtype=np.int64), cands]), prefix_bound)
        k_forced = pi02_force(family, n, t_prime, prefix_bound)
        if k_forced is None:
            raise ForcingFailed(n, prefix_bound, k_prev, VertexSet(earlier, prefix_bound))
        k_n = max(k_forced, k_prev + 1)
        blocks.append(t_prime.restrict(k_prev + 1, k_n).elements)
        earlier.extend(blocks[-1])
        ks.append(k_n)
        k_prev = k_n
    union = VertexSet(earlier, prefix_bound)
    certificates = {
        str(n): {"k": k, "forced_at": pi02_force(family, n, union.restrict(1, k), k)} for n, k in enumerate(ks, 1)
    }
    return tuple(ks), tuple(blocks), certificates


def rounded(obj):
    """The CLI's printed form of a JSON-ready value, one call per value:
    floats to 12 significant digits, a Fraction as its text and a numpy
    scalar as its Python value; tuples become lists."""
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if hasattr(obj, "item"):  # numpy scalars
        return rounded(obj.item())
    return obj
