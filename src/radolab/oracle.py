"""The ambient random graph on ℕ: a seeded PRF over canonicalized vertex pairs.

The edge recipe is normative so that runs, fixtures, and independent
implementations agree bit for bit: with a = min(u,v), b = max(u,v),

    h = mix64(seed XOR mix64((a * GOLDEN) XOR rotl(b, 32)))

where ``mix64`` is the SplitMix64 finalizer and GOLDEN is the odd 64-bit
golden-ratio constant.  The edge is present iff the top 53 bits of h,
read as a dyadic fraction in [0,1), fall below the edge probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import FiniteGraph, pack_rows
from .limits import check_limit
from .sets import VertexSet

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

# Stream tags keep the auxiliary counter-based bit streams (Monte Carlo
# trial graphs, mu_p sampling) disjoint from each other and from the
# ambient edge PRF.
TAG_TRIAL_GRAPHS = 1 << 40
TAG_MU_P = 2 << 40


class VerificationError(RuntimeError):
    """A result failed its re-verification from raw oracle queries: a
    defect in the program, never a property of the input."""


class GiveUp(RuntimeError):
    """An inconclusive outcome (exit 3): ``record`` holds the fields that
    the report prints for it."""

    record: dict


def mix64(z: int) -> int:
    """SplitMix64 finalizer: xor-shift/multiply avalanche of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def rotl64(x: int, k: int) -> int:
    x &= MASK64
    return ((x << k) | (x >> (64 - k))) & MASK64


# The finalizer's (shift, multiplier) steps as numpy scalars, made once: on
# the short arrays of a type_class filter, making them per call costs more
# than a pass.
_MIX_STEPS = ((np.uint64(30), np.uint64(_MIX_MUL_1)), (np.uint64(27), np.uint64(_MIX_MUL_2)), (np.uint64(31), None))
_U32 = np.uint64(32)
_GOLDEN = np.uint64(GOLDEN)


def _mix64_np(z: np.ndarray, tmp: np.ndarray | None = None, steps=_MIX_STEPS) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place, with an optional
    scratch array of z's shape; returns z.  ``steps`` may leave out the
    last step (see ``_verdict_for``)."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mul in steps:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mul is not None:
            z *= mul
    return z


def _verdict_for(threshold: int) -> tuple[tuple, np.uint64]:
    """The finalizer steps a verdict needs and the bound L it compares with:
    (h >> 11) < T  iff  h <= L = T * 2^11 - 1, which fits 64 bits as
    T <= 2^53.  mix64's last step, z ^= z >> 31, changes only the low 33
    bits of z; when T is a multiple of 2^22 (p = m/2^31, the default 1/2
    among them), T * 2^11 is one of 2^33, so the step cannot carry z across
    it and the verdict is read from z before it."""
    steps = _MIX_STEPS[:2] if threshold % (1 << 22) == 0 else _MIX_STEPS
    return steps, np.uint64((threshold << 11) - 1)


def _as_u64(a: np.ndarray) -> np.ndarray:
    """An array of 64-bit integers as uint64: a view, not a copy, of an
    int64 array; other dtypes are cast."""
    return a.view(np.uint64) if a.dtype.kind in "iu" and a.dtype.itemsize == 8 else a.astype(np.uint64)


def _key_row(pool: np.ndarray, c: int, key: np.ndarray, tmp: np.ndarray) -> None:
    """The canonical pair keys of vertex c against the sorted uint64 pool,
    into key (of pool's length); tmp is scratch of the same length.  Below
    c's split the pool vertex is the pair's smaller one, so a key is
    v * GOLDEN ^ rotl(c, 32), and above it rotl(v, 32) ^ c * GOLDEN, where
    rotl(v, 32) is v << 32, one pass, while the pool ends below 2^32."""
    i = int(pool.searchsorted(np.uint64(c)))
    np.multiply(pool[:i], _GOLDEN, out=key[:i])
    key[:i] ^= np.uint64(rotl64(c, 32))
    np.left_shift(pool[i:], _U32, out=key[i:])
    if i < len(pool) and pool[-1] >> _U32:
        np.right_shift(pool[i:], _U32, out=tmp[i:])
        key[i:] |= tmp[i:]
    key[i:] ^= np.uint64((c * GOLDEN) & MASK64)


# Pair keys per kernel pass: a pass's scratch arrays stay in a 4 MiB L2.
_CHUNK = 1 << 15


def probability_threshold(p: Fraction) -> int:
    """Integer T with: (h >> 11) < T  iff  (top 53 bits of h)/2^53 < p."""
    return -((-p.numerator << 53) // p.denominator)


def _as_probability(p) -> Fraction:
    frac = Fraction(p) if not isinstance(p, Fraction) else p
    if not 0 < frac <= 1:
        raise ValueError("edge probability must lie in (0, 1]")
    return frac


@dataclass(frozen=True)
class EdgeOracle:
    """The fixed random graph on ℕ: pure, symmetric, seed-determined edges.

    Immutable and safely shareable; every method is a pure function of
    (seed, arguments).  Vertices are 1-based.
    """

    seed: int
    edge_probability: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "edge_probability", _as_probability(self.edge_probability))

    @cached_property
    def _threshold(self) -> int:
        return probability_threshold(self.edge_probability)

    def edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge of the ambient graph."""
        if u == v or not (1 <= u <= MASK64 and 1 <= v <= MASK64):
            raise ValueError("edge requires two distinct vertices in [1, 2^64)")
        a, b = (u, v) if u < v else (v, u)
        h = mix64(self.seed ^ mix64(((a * GOLDEN) & MASK64) ^ rotl64(b, 32)))
        return (h >> 11) < self._threshold

    def edge_many(self, u: int, vs: np.ndarray) -> np.ndarray:
        """Vectorized ``edge(u, v)`` for every v in vs.  Positions where
        v == u yield an unspecified bit; callers must mask them out.  A
        delegate to ``edge_pairs``, kept because the benchmark's tracer
        wraps it by name; radolab itself calls ``edge_pairs``."""
        return self.edge_pairs(u, vs)

    @cached_property
    def _verdict(self) -> tuple[tuple, np.uint64]:
        return _verdict_for(self._threshold)

    def _edge_bits(self, key: np.ndarray, out: np.ndarray, tmp: np.ndarray, want: bool = True) -> None:
        """Finish the recipe on canonical pair keys (overwritten) into out:
        True where the edge is present, or with ``want`` False where it is
        absent; tmp is scratch of key's shape."""
        steps, limit = self._verdict
        _mix64_np(key, tmp)
        key ^= np.uint64(self.seed)
        _mix64_np(key, tmp, steps)
        (np.less_equal if want else np.greater)(key, limit, out=out)

    def edge_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Elementwise edges for paired (broadcast) 1-D vertex arrays; exact
        match of edge().  int64 inputs are read through uint64 views, so
        they cost no copy and vertices >= 2^63 stay exact; the keys are
        built _CHUNK pairs at a time in one reused scratch block."""
        us, vs = (_as_u64(a) for a in np.broadcast_arrays(us, vs))
        out = np.empty(us.shape, dtype=bool)
        scratch = np.empty((3, min(len(us), _CHUNK)), dtype=np.uint64)
        for lo in range(0, len(us), _CHUNK):
            a, b = us[lo : lo + _CHUNK], vs[lo : lo + _CHUNK]
            key, high, tmp = scratch[:, : len(a)]
            np.minimum(a, b, out=key)
            np.maximum(a, b, out=high)
            key *= _GOLDEN
            np.left_shift(high, _U32, out=tmp)
            high >>= _U32
            key ^= tmp
            key ^= high
            self._edge_bits(key, out[lo : lo + len(a)], tmp)
        return out

    def edge_grid(self, us, pool_sorted: np.ndarray) -> np.ndarray:
        """Edges of every u against a sorted pool, as a (len(us), len(pool))
        matrix, bit-identical to edge_pairs.  The pool is read through a
        uint64 view, _CHUNK vertices at a time; each row keys a chunk
        through ``_key_row``, as type_class keys a base vertex, and the
        verdicts go into the row's slice of the matrix.  Every chunk works
        in one scratch block made once per call."""
        pool = _as_u64(np.asarray(pool_sorted))
        rows = list(map(int, us))
        out = np.empty((len(rows), len(pool)), dtype=bool)
        scratch = np.empty((2, min(len(pool), _CHUNK)), dtype=np.uint64)
        for lo in range(0, len(pool), _CHUNK):
            part = pool[lo : lo + _CHUNK]
            key, tmp = scratch[:, : len(part)]
            for row, c in enumerate(rows):
                _key_row(part, c, key, tmp)
                self._edge_bits(key, out[row, lo : lo + len(part)], tmp)
        return out


def _stream_blocks(seed: int, tags: np.ndarray, count: int, steps=_MIX_STEPS):
    """The counter streams, reproducible from (seed, tag, index): value j
    of a tag's row is mix64(key + (j + 1) * GOLDEN), read as the edge
    recipe reads h, by a derivation chain apart from the ambient edge
    PRF's, so trial graphs never alias ambient edges.  Yields the
    (len(tags), count) matrix in blocks of at most _CHUNK counters (rows x
    columns) as (first row, first column, block), the block a view of
    scratch that the next block overwrites.  A block is whole rows (then
    it has every column) or part of one row, so it is contiguous.
    ``steps`` may leave out mix64's last step (see ``_verdict_for``)."""
    tags = np.asarray(tags, dtype=np.uint64)
    cols = min(max(count, 1), _CHUNK)
    rows = _CHUNK // cols
    steps_g = np.arange(1, cols + 1, dtype=np.uint64) * _GOLDEN
    scratch = np.empty((2, min(rows, len(tags)), cols), dtype=np.uint64)
    for r0 in range(0, len(tags), rows):
        # each block's keys from its own tags, so they too take at most _CHUNK entries
        block_keys = _mix64_np(np.uint64(seed) ^ _mix64_np(tags[r0 : r0 + rows] * _GOLDEN))
        for lo in range(0, count, cols):
            z, tmp = scratch[:, : len(block_keys), : count - lo]
            np.add((block_keys + np.uint64(lo * GOLDEN & MASK64))[:, None], steps_g[: z.shape[1]], out=z)
            yield r0, lo, _mix64_np(z, tmp, steps)


def stream_bits(seed: int, tags, count: int, p: Fraction) -> np.ndarray:
    """The coins of the counter streams: a (len(tags), count) boolean
    matrix, True where a stream value falls below p.  Filled block by block
    with the early verdict, so no stream is held whole."""
    steps, limit = _verdict_for(probability_threshold(p))
    out = np.empty((len(tags), count), dtype=bool)
    for r0, lo, z in _stream_blocks(seed, tags, count, steps):
        np.less_equal(z, limit, out=out[r0 : r0 + z.shape[0], lo : lo + z.shape[1]])
    return out


def stream_values(seed: int, tag: int, count: int) -> np.ndarray:
    """The raw 53-bit values of one tag's stream, value j being
    mix64(key + (j + 1) * GOLDEN) >> 11."""
    out = np.empty(count, dtype=np.uint64)
    for _, lo, z in _stream_blocks(seed, [tag], count):
        np.right_shift(z[0], np.uint64(11), out=out[lo : lo + z.shape[1]])
    return out


@dataclass(frozen=True)
class TypeSpec:
    """A type over an ordered finite vertex list: bit i of mask = "connects
    to base[i]"."""

    base: tuple[int, ...]
    mask: int

    def __post_init__(self):
        if len(set(self.base)) != len(self.base):
            raise ValueError("type base must not repeat vertices")
        if not 0 <= self.mask < (1 << len(self.base)):
            raise ValueError("mask out of range for base of size %d" % len(self.base))

    @property
    def bits(self) -> str:
        """Mask rendered with bit 0 (first base vertex) leftmost."""
        return _bits(self.mask, len(self.base))

    @classmethod
    def from_bits(cls, base: Sequence[int], bits: str) -> "TypeSpec":
        if len(bits) != len(base) or set(bits) - {"0", "1"}:
            raise ValueError("type bits %r must be %d characters of 0 and 1" % (bits, len(base)))
        return cls(tuple(base), int(bits[::-1] or "0", 2))


def _bits(mask: int, k: int) -> str:
    """The k-bit mask as text, bit 0 leftmost."""
    return format(mask, "0%db" % k)[::-1] if k else ""


def type_class(oracle: EdgeOracle, base: Sequence[int], mask: int, vertices: np.ndarray | range) -> np.ndarray:
    """The vertices whose type over ``base`` is ``mask`` (bit i: an edge to
    base[i]), ascending, from a sorted 64-bit array (in its dtype) or from
    a range (as int64, built _CHUNK vertices at a time, so a pool costs no
    array of its length); a vertex that lies in base is kept or dropped
    unspecifiedly.  Early rejection, _CHUNK vertices at a time: each base
    vertex keys the chunk's survivors (``_key_row``, read through a uint64
    view) and verdicts them for the wanted side, and the survivors are
    compressed to the matching ones; a chunk stops once none is left.
    Keys and verdicts live in scratch made once per call.  Every edge is
    an independent PRF value, so the skipped ones change nothing."""
    is_range = isinstance(vertices, range)
    wanted = [bool(mask >> i & 1) for i in range(len(base))]
    size = min(len(vertices), _CHUNK)
    key, tmp = np.empty((2, size), dtype=np.uint64)
    keep = np.empty(size, dtype=bool)
    parts = []
    for lo in range(0, len(vertices), _CHUNK):
        part = vertices[lo : lo + _CHUNK]
        survivors = np.arange(part.start, part.stop, part.step, dtype=np.uint64) if is_range else _as_u64(part)
        for u, want in zip(map(int, base), wanted):
            n = len(survivors)
            if not n:
                break
            _key_row(survivors, u, key[:n], tmp[:n])
            oracle._edge_bits(key[:n], keep[:n], tmp[:n], want)
            # no out=: compress would then copy through a temporary as well
            survivors = np.compress(keep[:n], survivors)
        parts.append(survivors)
    dtype = np.int64 if is_range else vertices.dtype
    return np.concatenate(parts).view(dtype) if parts else np.empty(0, dtype)


# Adjacency rows per edge_grid call: the boolean block stays small however
# many vertices the rows span.
_ROW_BLOCK = 256


def adjacency_rows(oracle: EdgeOracle, vertices: np.ndarray, which: Sequence[int] | None = None) -> list[int]:
    """Bitset adjacency rows among the sorted vertices: bit j of row i is
    the edge {vertices[i], vertices[j]}.  ``which`` lists the rows to build
    (all by default)."""
    which = np.arange(len(vertices)) if which is None else np.asarray(which, dtype=np.int64)
    rows = []
    for lo in range(0, len(which), _ROW_BLOCK):
        part = which[lo : lo + _ROW_BLOCK]
        grid = oracle.edge_grid(vertices[part], vertices)
        grid[np.arange(len(part)), part] = False
        rows.extend(pack_rows(grid))
    return rows


def type_of(oracle: EdgeOracle, m: int, base: VertexSet) -> TypeSpec:
    """The type of vertex m over the base set (ascending base order)."""
    if m < 1:
        raise ValueError("type_of requires a vertex m >= 1, not %d" % m)
    if m > MASK64:
        raise ValueError("type_of requires a vertex m < 2^64, not %d" % m)
    if m in base:
        raise ValueError("vertex %d lies inside the base set" % m)
    return TypeSpec(base.elements, pack_rows(oracle.edge_grid([m], base.as_array))[0])


def extension_check(oracle: EdgeOracle, f: VertexSet, bound: int) -> dict:
    """Least witness <= bound for each of the 2^|F| types over F, for
    |F| <= EXTENSION_BASE_CAP.

    The candidates, [1, bound] minus F, are built and keyed _CHUNK at a
    time, one ``edge_grid`` call per chunk, and the scan stops after the
    chunk in which the last type is first witnessed.  A pool of more than
    NOTATION_SET_CAP candidates is refused before any chunk is keyed.
    Passes iff every type is witnessed; absence of witnesses is data, not
    an error.
    """
    k = len(f)
    check_limit(k, "EXTENSION_BASE_CAP", "extension base size %d" % k)
    if k and f.as_array[-1] > bound:
        raise ValueError("base set must lie within [1, bound]")
    top = max(bound, 0)  # no candidate lies above it; a bound below 1 leaves none
    pool = top - k
    check_limit(pool, "NOTATION_SET_CAP", "pool of %d vertices" % pool)
    # the j-th candidate is j plus the number of these gaps <= j: F's i-th vertex less i
    gaps = f.as_array - np.arange(k)
    # candidates ascend, so the least candidate of each key is its least witness
    first = np.full(1 << k, top + 1)
    for lo in range(0, pool, _CHUNK):
        candidates = np.arange(lo + 1, min(lo + _CHUNK, pool) + 1, dtype=np.int64)
        candidates += np.searchsorted(gaps, candidates, side="right")
        # bit i of a key is the edge to F's i-th vertex; k <= 20 bits fit an int64
        keys = np.zeros(len(candidates), dtype=np.int64)
        for i, row in enumerate(oracle.edge_grid(f.as_array, candidates)):
            keys |= np.left_shift(row, i, dtype=np.int64)
        np.minimum.at(first, keys, candidates)
        if first.max() <= top:  # every type has its witness; no later chunk changes one
            break
    types = [{"mask": _bits(m, k), "witness": w if w <= top else None} for m, w in enumerate(first.tolist())]
    return {
        "f": f.as_array.tolist(),
        "bound": bound,
        "types": types,
        "pass": all(w["witness"] is not None for w in types),
    }


def induced_subgraph(oracle: EdgeOracle, a: VertexSet) -> FiniteGraph:
    """The induced subgraph on A; vertex i is the i-th smallest element."""
    return FiniteGraph(len(a), tuple(adjacency_rows(oracle, a.as_array)))
