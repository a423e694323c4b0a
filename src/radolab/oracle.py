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

from .graphs import FiniteGraph
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


def mix64(z: int) -> int:
    """SplitMix64 finalizer: xor-shift/multiply avalanche of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def rotl64(x: int, k: int) -> int:
    x &= MASK64
    return ((x << k) | (x >> (64 - k))) & MASK64


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, in place; returns z."""
    tmp = np.empty_like(z)
    for shift, mul in ((30, _MIX_MUL_1), (27, _MIX_MUL_2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if mul is not None:
            z *= np.uint64(mul)
    return z


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
        if u == v or u < 1 or v < 1:
            raise ValueError("edge requires two distinct vertices >= 1")
        a, b = (u, v) if u < v else (v, u)
        h = mix64(self.seed ^ mix64(((a * GOLDEN) & MASK64) ^ rotl64(b, 32)))
        return (h >> 11) < self._threshold

    def edge_many(self, u: int, vs: np.ndarray) -> np.ndarray:
        """Vectorized ``edge(u, v)`` for every v in vs.  Positions where
        v == u yield an unspecified bit; callers must mask them out.  A
        delegate to ``edge_pairs``, kept because the benchmark's tracer
        wraps it by name; radolab itself calls ``edge_pairs``."""
        return self.edge_pairs(u, vs)

    def _edge_bits(self, key: np.ndarray, out: np.ndarray) -> None:
        """Finish the recipe on canonical pair keys (overwritten) into out."""
        _mix64_np(key)
        key ^= np.uint64(self.seed)
        _mix64_np(key)
        key >>= np.uint64(11)
        np.less(key, np.uint64(self._threshold), out=out)

    def edge_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Elementwise edges for paired (broadcast) vertex arrays; exact
        match of edge()."""
        us, vs = np.broadcast_arrays(np.asarray(us, dtype=np.uint64), np.asarray(vs, dtype=np.uint64))
        out = np.empty(us.shape, dtype=bool)
        for lo in range(0, len(us), _CHUNK):
            u, v = us[lo : lo + _CHUNK], vs[lo : lo + _CHUNK]
            key, b = np.minimum(u, v), np.maximum(u, v)
            key *= np.uint64(GOLDEN)
            key ^= (b << np.uint64(32)) | (b >> np.uint64(32))
            self._edge_bits(key, out[lo : lo + _CHUNK])
        return out

    def edge_grid(self, us, pool_sorted: np.ndarray) -> np.ndarray:
        """Edges of every u against a sorted pool, as a (len(us), len(pool))
        matrix.  Bit-identical to edge_pairs; the sortedness lets the pair
        canonicalization be precomputed once per pool chunk."""
        pool = np.asarray(pool_sorted, dtype=np.uint64)
        rows = [
            (np.uint64(rotl64(c, 32)), np.uint64((c * GOLDEN) & MASK64), int(np.searchsorted(pool_sorted, c)))
            for c in map(int, us)
        ]
        out = np.empty((len(rows), len(pool)), dtype=bool)
        for lo in range(0, len(pool), _CHUNK):
            part = pool[lo : lo + _CHUNK]
            part_g = part * np.uint64(GOLDEN)
            part_rot = (part << np.uint64(32)) | (part >> np.uint64(32))
            key = np.empty_like(part)
            for row, (c_rot, c_g, split) in enumerate(rows):
                i = min(max(split - lo, 0), len(part))  # pool[:split] < c
                np.bitwise_xor(part_g[:i], c_rot, out=key[:i])
                np.bitwise_xor(part_rot[i:], c_g, out=key[i:])
                self._edge_bits(key, out[row, lo : lo + len(part)])
        return out


def stream_values(seed: int, tag: int, count: int, offset: int = 0) -> np.ndarray:
    """Counter-based 53-bit uniforms, reproducible from (seed, tag, index).

    Independent of the ambient edge PRF: a different derivation chain is
    used, so Monte Carlo trial graphs never alias ambient edges.
    """
    key = mix64((seed ^ mix64((tag * GOLDEN) & MASK64)) & MASK64)
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _mix64_np(np.uint64(key) + idx * np.uint64(GOLDEN)) >> np.uint64(11)


def stream_matrix(seed: int, tags: np.ndarray, count: int) -> np.ndarray:
    """stream_values for many tags at once; shape (len(tags), count)."""
    tags = np.asarray(tags, dtype=np.uint64)
    keys = _mix64_np(np.uint64(seed) ^ _mix64_np(tags * np.uint64(GOLDEN)))
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64_np(keys[:, None] + idx[None, :] * np.uint64(GOLDEN)) >> np.uint64(11)


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

    def __len__(self) -> int:
        return len(self.base)

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


TYPE_KEY_BITS = 62


def type_keys(oracle: EdgeOracle, base: Sequence[int], pool: np.ndarray) -> np.ndarray:
    """Type masks over ``base`` of every vertex of the sorted ``pool``, as
    int64 keys: bit i of a key is the edge to base[i].  One ``edge_grid``
    evaluation; a pool vertex that lies in base gets an unspecified key."""
    if len(base) > TYPE_KEY_BITS:
        raise ValueError("type keys hold at most %d base vertices" % TYPE_KEY_BITS)
    keys = np.zeros(len(pool), dtype=np.int64)
    for i, row in enumerate(oracle.edge_grid(base, pool)):
        keys |= row.astype(np.int64) << i
    return keys


def _bitset(bits: np.ndarray) -> int:
    """A boolean vector as a Python-int bitset: bit i is bits[i]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def adjacency_rows(oracle: EdgeOracle, vertices: np.ndarray, which: Sequence[int] | None = None) -> list[int]:
    """Bitset adjacency rows among the sorted vertices: bit j of row i is
    the edge {vertices[i], vertices[j]}.  ``which`` lists the rows to build
    (all by default)."""
    which = np.arange(len(vertices)) if which is None else np.asarray(which, dtype=np.int64)
    grid = oracle.edge_grid(vertices[which], vertices)
    grid[np.arange(len(which)), which] = False
    return [_bitset(row) for row in grid]


def type_of(oracle: EdgeOracle, m: int, base: VertexSet) -> TypeSpec:
    """The type of vertex m over the base set (ascending base order)."""
    if m < 1:
        raise ValueError("type_of requires a vertex m >= 1, not %d" % m)
    if m in base:
        raise ValueError("vertex %d lies inside the base set" % m)
    return TypeSpec(base.elements, _bitset(oracle.edge_grid([m], base.as_array)[0]))


def vertices_of_type(oracle: EdgeOracle, t: TypeSpec, pool: VertexSet) -> VertexSet:
    """The subset of pool whose type over t.base equals t (base removed first)."""
    pool = pool.minus(t.base)
    keys = type_keys(oracle, t.base, pool.as_array)
    return VertexSet(pool.as_array[keys == t.mask], pool.prefix_bound)


def extension_check(oracle: EdgeOracle, f: VertexSet, bound: int) -> dict:
    """Least witness <= bound for each of the 2^|F| types over F.

    Passes iff every type is witnessed; absence of witnesses is data,
    not an error.
    """
    if len(f) and f.as_array[-1] > bound:
        raise ValueError("base set must lie within [1, bound]")
    candidates = np.setdiff1d(np.arange(1, bound + 1, dtype=np.int64), f.as_array, assume_unique=True)
    k = len(f)
    # candidates ascend, so the first position of each key is its least witness
    first = np.full(1 << k, len(candidates))
    np.minimum.at(first, type_keys(oracle, f.as_array, candidates), np.arange(len(candidates)))
    types = [
        {"mask": _bits(m, k), "witness": int(candidates[i]) if i < len(candidates) else None}
        for m, i in enumerate(first.tolist())
    ]
    return {
        "f": f.as_array.tolist(),
        "bound": bound,
        "types": types,
        "pass": all(w["witness"] is not None for w in types),
    }


def induced_subgraph(oracle: EdgeOracle, a: VertexSet) -> FiniteGraph:
    """The induced subgraph on A; vertex i is the i-th smallest element."""
    return FiniteGraph(len(a), tuple(adjacency_rows(oracle, a.as_array)))
