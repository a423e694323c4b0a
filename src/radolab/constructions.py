"""Block constructions over the ambient graph: thick edgeless sets, thick
copies of a finite target, and family members with finite components.

Every returned structure carries certificates recomputed from raw oracle
queries, never from construction bookkeeping.  All scans are leftmost-
first, so outputs are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed import Embedding, StepRecord, verify_embedding
from .graphs import FiniteGraph, empty_graph
from .largeness import FamilyDescriptor, pi02_force
from .oracle import EdgeOracle, VerificationError
from .sets import VertexSet

_SCAN_CHUNK = 1 << 16


class PrefixExhausted(RuntimeError):
    """The materialized prefix ran out before a block could be placed;
    ``union`` holds the vertices of the blocks placed before it."""

    def __init__(self, block: int, scanned_to: int, per_candidate_probability: float, union: VertexSet):
        super().__init__(
            "prefix exhausted at block %d (scanned to %d; per-candidate success "
            "probability %.3g)" % (block, scanned_to, per_candidate_probability)
        )
        self.block = block
        self.scanned_to = scanned_to
        self.per_candidate_probability = per_candidate_probability
        self.union = union


class TypeClassEmpty(RuntimeError):
    """No vertex of the required isolation type over [1, base_size] remains
    in the prefix."""

    def __init__(self, level: int, base_size: int, expected: float):
        super().__init__(
            "type class empty before forcing at level %d (base [1,%d]; "
            "about %.3g candidates were expected in the prefix)" % (level, base_size, expected)
        )
        self.level = level
        self.base_size = base_size
        self.expected = expected


class ForcingFailed(RuntimeError):
    """The forcing oracle found no sufficient horizon within the prefix;
    ``base_size`` is k_{n-1} and ``union`` holds the blocks of the earlier
    levels."""

    def __init__(self, level: int, horizon: int, base_size: int, union: VertexSet):
        super().__init__("forcing failed at level %d within prefix bound %d" % (level, horizon))
        self.level = level
        self.horizon = horizon
        self.base_size = base_size
        self.union = union


def _scan_block(oracle: EdgeOracle, scan_from: int, placed: list[int], rows: list[int], prefix_bound: int) -> int | None:
    """Least start k >= scan_from of a window [k, k+len(rows)-1] <=
    prefix_bound that extends ``placed``: window vertex d, the image of
    target vertex len(placed)+d, has an edge to each earlier window vertex
    and each placed image exactly where its required adjacency bitmask
    rows[d] has a bit.  Chunked, vectorized left-to-right scan."""
    offset, length = len(placed), len(rows)
    internal = [(d1, d2, bool(rows[d2] >> (offset + d1) & 1)) for d2 in range(length) for d1 in range(d2)]
    cross = [(u, d, bool(rows[d] >> i & 1)) for i, u in enumerate(placed) for d in range(length)]
    last_start = prefix_bound - length + 1
    lo = scan_from
    while lo <= last_start:
        hi = min(lo + _SCAN_CHUNK - 1, last_start)
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        for d1, d2, want in internal:
            ks = ks[oracle.edge_pairs(ks + d1, ks + d2) == want]
        for u, d, want in cross:
            ks = ks[oracle.edge_pairs(u, ks + d) == want]
        if len(ks):
            return int(ks[0])
        lo = hi + 1
    return None


def _place_blocks(
    oracle: EdgeOracle, row: Callable[[int], int], blocks: int, prefix_bound: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Leftmost disjoint windows I_1..I_m, |I_j| = j, whose concatenation
    induces the target whose vertex v has adjacency bitmask ``row(v)``.

    Each block is the leftmost window beyond the previous one whose internal
    and cross pairs carry the target's bits.  Every required bit is an
    independent event, so a start succeeds with probability
    p^ones·(1-p)^zeros over the block's C(j,2) + j·|placed| pairs; the prefix
    demand grows doubly exponentially in m.  Returns the (start, length)
    intervals and the images of target vertices 0..m(m+1)/2-1.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    intervals: list[tuple[int, int]] = []
    images: list[int] = []
    scan_from = 1
    p = float(oracle.edge_probability)
    for j in range(1, blocks + 1):
        offset = len(images)
        rows = [row(offset + d) for d in range(j)]
        k = _scan_block(oracle, scan_from, images, rows, prefix_bound)
        if k is None:
            ones = sum((r & ((1 << offset + d) - 1)).bit_count() for d, r in enumerate(rows))
            zeros = j * (j - 1) // 2 + j * offset - ones
            prob = p**ones * (1 - p) ** zeros
            raise PrefixExhausted(j, prefix_bound, prob, VertexSet(images, prefix_bound))
        intervals.append((k, j))
        images.extend(range(k, k + j))
        scan_from = k + j
    return intervals, images


@dataclass(frozen=True)
class ThickResult:
    intervals: tuple[tuple[int, int], ...]  # (start, length)
    union: VertexSet
    verified: bool

    def to_json(self) -> dict:
        return {
            "intervals": [[s, l] for s, l in self.intervals],
            "union": self.union.as_array.tolist(),
            "verified": self.verified,
        }


def construct_thick_edgeless(oracle: EdgeOracle, blocks: int, prefix_bound: int) -> ThickResult:
    """Disjoint intervals I_1..I_m with |I_j| = j whose union has no edges:
    a thick copy of the empty graph, so a start for block j succeeds with
    probability (1-p)^(C(j,2) + j·|union|)."""
    intervals, images = _place_blocks(oracle, lambda v: 0, blocks, prefix_bound)
    verify_embedding(oracle, empty_graph(len(images)), tuple(images))
    return ThickResult(tuple(intervals), VertexSet(images, prefix_bound), True)


@dataclass(frozen=True)
class ThickCopyResult:
    intervals: tuple[tuple[int, int], ...]
    embedding: Embedding
    verified: bool

    def to_json(self) -> dict:
        return {
            "intervals": [[s, l] for s, l in self.intervals],
            "images": list(self.embedding.images),
            "verified": self.verified,
        }


def construct_thick_copy(
    oracle: EdgeOracle,
    target: FiniteGraph,
    blocks: int,
    prefix_bound: int,
) -> ThickCopyResult:
    """Intervals I_1..I_m of lengths 1..m whose concatenation induces the
    target prefix: every internal and cross-block pair matches the target."""
    needed = blocks * (blocks + 1) // 2
    if blocks > 0 and target.order < needed:
        raise ValueError("target must supply at least %d vertices" % needed)
    intervals, images = _place_blocks(oracle, target.rows.__getitem__, blocks, prefix_bound)
    prefix = target.induced(list(range(needed)))
    verify_embedding(oracle, prefix, tuple(images))
    steps = tuple(StepRecord(i + 1, "", v, 0) for i, v in enumerate(images))
    return ThickCopyResult(tuple(intervals), Embedding(prefix, tuple(images), steps, True), True)


@dataclass(frozen=True)
class Pi02Result:
    ks: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    union: VertexSet
    certificates: dict
    verified: bool

    def to_json(self) -> dict:
        return {
            "ks": list(self.ks),
            "blocks": [list(b) for b in self.blocks],
            "union": self.union.as_array.tolist(),
            "certificates": self.certificates,
            "verified": self.verified,
        }


def construct_pi02_member(
    oracle: EdgeOracle,
    family: FamilyDescriptor,
    levels: int,
    prefix_bound: int,
) -> Pi02Result:
    """Level-by-level recursion producing a family member whose connected
    components are confined to finite blocks.

    At stage n the vertices connecting to nothing in [1, k_{n-1}] are
    collected, merged with the earlier blocks, and the family's forcing
    oracle picks the least sufficient horizon; the new block is the slice
    up to that horizon.  The isolation type thins like p^k_{n-1}, so the
    prefix demand explodes after a few levels.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    k_prev = 0
    ks: list[int] = []
    fs: list[tuple[int, ...]] = []
    earlier = np.zeros(0, dtype=np.int64)
    p = float(oracle.edge_probability)
    for n in range(1, levels + 1):
        cands = np.arange(k_prev + 1, prefix_bound + 1, dtype=np.int64)
        for b in range(1, k_prev + 1):
            if len(cands) == 0:
                break
            cands = cands[~oracle.edge_pairs(b, cands)]
        if len(cands) == 0:
            raise TypeClassEmpty(n, k_prev, (prefix_bound - k_prev) * (1 - p) ** k_prev)
        t_prime = VertexSet(np.concatenate([earlier, cands]), prefix_bound)
        k_forced = pi02_force(family, n, t_prime, prefix_bound)
        if k_forced is None:
            raise ForcingFailed(n, prefix_bound, k_prev, VertexSet(earlier, prefix_bound))
        k_n = max(k_forced, k_prev + 1)
        f_n = t_prime.restrict(k_prev + 1, k_n).as_array
        ks.append(k_n)
        fs.append(tuple(f_n.tolist()))
        earlier = np.concatenate([earlier, f_n])
        k_prev = k_n
    union = VertexSet(earlier, prefix_bound)

    # certificates recomputed from scratch: each prefix forces its level
    certificates = {}
    for n in range(1, levels + 1):
        prefix = union.restrict(1, ks[n - 1])
        reforced = pi02_force(family, n, prefix, ks[n - 1])
        if reforced is None:
            raise VerificationError("level %d certificate failed re-validation" % n)
        certificates[str(n)] = {"k": ks[n - 1], "forced_at": reforced}

    # zero cross-block edges, re-queried: block n lies in (k_{n-1}, k_n] and
    # has no edge into [1, k_{n-1}], which holds every earlier block, so no
    # edge joins two blocks and every component stays inside its block
    k_prev = 0
    for k_n, f_n in zip(ks, fs):
        block = np.asarray(f_n, dtype=np.int64)
        if len(block) and (block[0] <= k_prev or block[-1] > k_n):
            raise VerificationError("block outside (%d, %d]" % (k_prev, k_n))
        if len(block) and k_prev:
            hits = np.nonzero(oracle.edge_grid(np.arange(1, k_prev + 1), block))
            if len(hits[0]):
                raise VerificationError(
                    "block vertex %d has an edge to %d <= %d"
                    % (block[hits[1][0]], hits[0][0] + 1, k_prev)
                )
        k_prev = k_n

    return Pi02Result(tuple(ks), tuple(fs), union, certificates, True)
