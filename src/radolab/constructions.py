"""Block constructions over the ambient graph: thick edgeless sets, thick
copies of a finite target, and family members with finite components.

Every returned structure carries certificates recomputed from raw oracle
queries, never from construction bookkeeping.  All scans are leftmost-
first, so outputs are deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .embed import verify_embedding
from .graphs import FiniteGraph, empty_graph
from .largeness import WeightFunction, pi02_force
from .limits import SCAN_PREFIX_CAP, check_limit
from .oracle import EdgeOracle, GiveUp, VerificationError, type_class
from .sets import Report, VertexSet

# Starts per scan chunk: the first chunk holds _SCAN_CHUNK >> 6 and each
# later one twice as many, up to _SCAN_CHUNK.  An early stop scans little,
# and a long scan pays the fixed cost of each edge_pairs call rarely.
_SCAN_CHUNK = 1 << 18


class PrefixExhausted(GiveUp):
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
        self.record = {"error": str(self), "block": block}


class TypeClassEmpty(GiveUp):
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
        self.record = {"error": str(self), "level": level}


class ForcingFailed(GiveUp):
    """The forcing oracle found no sufficient horizon within the prefix;
    ``base_size`` is k_{n-1} and ``union`` holds the blocks of the earlier
    levels."""

    def __init__(self, level: int, horizon: int, base_size: int, union: VertexSet):
        super().__init__("forcing failed at level %d within prefix bound %d" % (level, horizon))
        self.level = level
        self.horizon = horizon
        self.base_size = base_size
        self.union = union
        self.record = {"error": str(self), "level": level}


def _scan(oracle: EdgeOracle, scan_from: int, placed: list[int], rows: list[int], prefix_bound: int) -> Iterator[np.ndarray]:
    """The starts k >= scan_from of the windows [k, k+len(rows)-1] <=
    prefix_bound that extend ``placed``, yielded chunk by chunk in ascending
    order, each chunk's survivors as one array; chunks without survivors
    are skipped.  Window vertex d, the image of target vertex len(placed)+d,
    has an edge to each earlier window vertex and each placed image exactly
    where its required adjacency bitmask rows[d] has a bit.  Every placed
    image lies below scan_from.

    One ``edge_pairs`` pass over the diagonal edge(m, m+1) of a chunk's
    window vertices settles every (d, d+1) pair at once through shifted
    views; every other pair runs on the compacted survivors only
    (``np.compress``: boolean indexing costs about four times as much on
    masks this random).  The pairs with the placed images are ``type_class``
    filters, one per window offset.  A consumer that stops early scans only
    the chunks it has read."""
    offset, length = len(placed), len(rows)
    diagonal = [bool(rows[d + 1] >> (offset + d) & 1) for d in range(length - 1)]
    internal = [(d1, d2, bool(rows[d2] >> (offset + d1) & 1)) for d2 in range(2, length) for d1 in range(d2 - 1)]
    low_bits = (1 << offset) - 1
    last_start = prefix_bound - length + 1
    start, size = scan_from, max(_SCAN_CHUNK >> 6, 1)
    while start <= last_start:
        count = min(size, last_start + 1 - start)
        window = np.arange(start, start + count + length - 1, dtype=np.int64)
        ks = window[:count]
        if diagonal:
            diag = oracle.edge_pairs(window[:-1], window[1:])
            keep = diag[:count] == diagonal[0]
            for d, want in enumerate(diagonal[1:], 1):
                keep &= diag[d : d + count] == want
            ks = np.compress(keep, ks)
        for d1, d2, want in internal:
            ks = np.compress(oracle.edge_pairs(ks + d1, ks + d2) == want, ks)
        for d in range(length):
            if not (placed and len(ks)):
                break
            ks = type_class(oracle, placed, rows[d] & low_bits, ks + d) - d
        start, size = start + count, min(2 * size, _SCAN_CHUNK)
        if len(ks):
            yield ks


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
    if prefix_bound < 0:
        raise ValueError("prefix bound must be non-negative")
    check_limit(prefix_bound, SCAN_PREFIX_CAP, "SCAN_PREFIX_CAP", "prefix bound %d" % prefix_bound)
    intervals: list[tuple[int, int]] = []
    images: list[int] = []
    scan_from = 1
    p = float(oracle.edge_probability)
    for j in range(1, blocks + 1):
        offset = len(images)
        rows = [row(offset + d) for d in range(j)]
        first = next(_scan(oracle, scan_from, images, rows, prefix_bound), None)
        if first is None:
            ones = sum((r & ((1 << offset + d) - 1)).bit_count() for d, r in enumerate(rows))
            zeros = math.comb(j, 2) + j * offset - ones
            prob = p**ones * (1 - p) ** zeros
            raise PrefixExhausted(j, prefix_bound, prob, VertexSet(images, prefix_bound))
        k = int(first[0])
        intervals.append((k, j))
        images.extend(range(k, k + j))
        scan_from = k + j
    return intervals, images


@dataclass(frozen=True)
class ThickResult(Report):
    intervals: tuple[tuple[int, int], ...]  # (start, length)
    union: VertexSet
    verified: bool


def construct_thick_edgeless(oracle: EdgeOracle, blocks: int, prefix_bound: int) -> ThickResult:
    """Disjoint intervals I_1..I_m with |I_j| = j whose union has no edges:
    a thick copy of the empty graph, so a start for block j succeeds with
    probability (1-p)^(C(j,2) + j·|union|)."""
    intervals, images = _place_blocks(oracle, lambda v: 0, blocks, prefix_bound)
    verify_embedding(oracle, empty_graph(len(images)), tuple(images))
    return ThickResult(tuple(intervals), VertexSet(images, prefix_bound), True)


@dataclass(frozen=True)
class ThickCopyResult(Report):
    intervals: tuple[tuple[int, int], ...]
    images: tuple[int, ...]
    verified: bool


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
    verify_embedding(oracle, target, tuple(images))
    return ThickCopyResult(tuple(intervals), tuple(images), True)


@dataclass(frozen=True)
class Pi02Result(Report):
    ks: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    union: VertexSet
    certificates: dict
    verified: bool


def construct_pi02_member(
    oracle: EdgeOracle,
    family: WeightFunction,
    levels: int,
    prefix_bound: int,
) -> Pi02Result:
    """Level-by-level recursion producing a family member whose connected
    components are confined to finite blocks.

    At stage n the isolation class, the vertices beyond k_{n-1} with no
    edge into [1, k_{n-1}], is scanned as a length-1 block over the placed
    set [1, k_{n-1}].  The family's forcing oracle runs over the earlier
    blocks and then the class, one scan chunk at a time, and the scan stops
    at the first chunk where the level forces; the new block is the class
    up to that horizon k_n.  The earlier blocks sum to at most
    n - 1 + 2^-exponent < n, so the horizon always lies in the class.  A
    give-up comes only from a scan that reached ``prefix_bound``:
    ``TypeClassEmpty`` when the class is empty there, ``ForcingFailed`` when
    it never forces.  The isolation type thins like p^k_{n-1}, so the
    prefix demand explodes after a few levels.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    if prefix_bound < 0:
        raise ValueError("prefix bound must be non-negative")
    check_limit(prefix_bound, SCAN_PREFIX_CAP, "SCAN_PREFIX_CAP", "prefix bound %d" % prefix_bound)
    k_prev = 0
    ks: list[int] = []
    fs: list[tuple[int, ...]] = []
    earlier = np.zeros(0, dtype=np.int64)
    p = float(oracle.edge_probability)
    for n in range(1, levels + 1):
        scan = _scan(oracle, k_prev + 1, list(range(1, k_prev + 1)), [0], prefix_bound)
        found: list[np.ndarray] = []

        def parts():
            yield earlier
            for chunk in scan:
                found.append(chunk)
                yield chunk

        k_n = family.crossing(n, parts())
        if not found:
            raise TypeClassEmpty(n, k_prev, (prefix_bound - k_prev) * (1 - p) ** k_prev)
        if k_n is None:
            raise ForcingFailed(n, prefix_bound, k_prev, VertexSet(earlier, prefix_bound))
        cls = np.concatenate(found)
        f_n = cls[: np.searchsorted(cls, k_n, side="right")]
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
