"""Largeness checkers: density profiles, weighted reciprocal sums, thickness,
arithmetic progressions, and forcing for Π⁰₂ family descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sets import VertexSet

AP_SIZE_LIMIT = 5000


@dataclass(frozen=True)
class WeightFunction:
    """Closed-form positive weights: reciprocal is power(1), power(ε) is n^-ε."""

    exponent: float = 1.0

    def __post_init__(self):
        if not 0 < self.exponent <= 1:
            raise ValueError("weight exponent must lie in (0, 1]")

    @classmethod
    def reciprocal(cls) -> "WeightFunction":
        return cls(1.0)

    @classmethod
    def power(cls, eps: float) -> "WeightFunction":
        return cls(eps)

    def weight(self, n: int) -> float:
        if n < 1:
            raise ValueError("weights are defined on positive integers")
        return 1.0 / n if self.exponent == 1.0 else n ** -self.exponent

    def weights(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.float64)
        return 1.0 / ns if self.exponent == 1.0 else ns ** -self.exponent


@dataclass(frozen=True)
class DensityReport:
    prefix_densities: tuple[tuple[int, float], ...]
    sup_density: float
    final_density: float

    def to_json(self) -> dict:
        return {
            "checkpoints": [n for n, _ in self.prefix_densities],
            "densities": [d for _, d in self.prefix_densities],
            "sup_density": self.sup_density,
            "final_density": self.final_density,
        }


def dyadic_checkpoints(bound: int) -> list[int]:
    """Default checkpoints 2, 4, ..., up to the bound (bound appended)."""
    pts = []
    p = 2
    while p <= bound:
        pts.append(p)
        p *= 2
    if not pts or pts[-1] != bound:
        pts.append(bound)
    return pts


def density_profile(a: VertexSet, checkpoints: Sequence[int]) -> DensityReport:
    """Exact prefix densities |A ∩ [1,n]| / n at each checkpoint.

    The sup over checkpoints is a finite estimator of the upper density;
    it never overclaims the lim sup.
    """
    if not checkpoints:
        raise ValueError("at least one checkpoint is required")
    prev = 0
    for n in checkpoints:
        if n <= prev:
            raise ValueError("checkpoints must be strictly increasing")
        if n > a.prefix_bound:
            raise ValueError("checkpoint %d beyond prefix bound %d" % (n, a.prefix_bound))
        prev = n
    densities = tuple((n, a.count_upto(n) / n) for n in checkpoints)
    return DensityReport(
        prefix_densities=densities,
        sup_density=max(d for _, d in densities),
        final_density=densities[-1][1],
    )


def weighted_sum(a: VertexSet, f: WeightFunction | None = None) -> float:
    """Exact partial sum of f over the materialized prefix of A."""
    f = f or WeightFunction.reciprocal()
    if len(a) == 0:
        return 0.0
    return math.fsum(f.weights(a.as_array))


def thickness(a: VertexSet) -> tuple[int, int]:
    """Leftmost maximal run of consecutive elements, as (start, length)."""
    starts, ends = a.runs()
    if len(starts) == 0:
        return (0, 0)
    best = int(np.argmax(ends - starts))  # argmax picks the leftmost longest
    return (int(starts[best]), int(ends[best] - starts[best]) + 1)


def longest_ap(a: VertexSet) -> tuple[int, int, int]:
    """A maximum-length arithmetic progression in A as (start, diff, length).

    Ties go to the smallest difference, then the smallest start.  Quadratic
    dynamic program over element pairs; |A| is capped accordingly.
    """
    m = len(a)
    if m > AP_SIZE_LIMIT:
        raise ValueError("longest_ap supports at most %d elements" % AP_SIZE_LIMIT)
    if m == 0:
        return (0, 0, 0)
    if m == 1:
        return (int(a.as_array[0]), 0, 1)
    vals = a.as_array
    index_of = np.full(int(vals[-1]) + 2, -1, dtype=np.int64)
    index_of[vals] = np.arange(m)
    # ap_len[i, j] = length of the longest AP ending with (vals[i], vals[j])
    ap_len = np.full((m, m), 2, dtype=np.int32)
    for j in range(1, m):
        k = np.arange(j + 1, m)
        if len(k) == 0:
            continue
        prev_vals = 2 * vals[j] - vals[k]
        valid = prev_vals >= 1
        prev_idx = np.where(valid, index_of[np.where(valid, prev_vals, 1)], -1)
        found = prev_idx >= 0
        ap_len[j, k[found]] = ap_len[prev_idx[found], j] + 1
    best_len = int(ap_len[np.triu_indices(m, k=1)].max()) if m >= 2 else 1
    best: tuple[int, int, int] | None = None
    js, ks = np.nonzero(ap_len == best_len)
    for j, k in zip(js, ks):
        if j >= k:
            continue
        d = int(vals[k] - vals[j])
        start = int(vals[k]) - (best_len - 1) * d
        cand = (d, start)
        if best is None or cand < (best[1], best[0]):
            best = (start, d, best_len)
    assert best is not None
    return best


@dataclass(frozen=True)
class FamilyDescriptor:
    """A Π⁰₂ family of weighted-substantial sets: level n's open set holds
    the sets whose sum of ``weight`` exceeds n."""

    weight: WeightFunction

    def force(self, level: int, prefix: VertexSet, horizon: int) -> int | None:
        """The least k' <= horizon such that every superset of prefix ∩ [1,k']
        agreeing with prefix below k' lies in the level's open set, or None
        if the prefix does not force yet.  Stateless and monotone in the
        prefix."""
        # cumsum is sequential, so carrying the running total into chunks of
        # doubling length gives the full cumsum's sums bit for bit
        within = prefix.restrict(1, horizon).as_array
        total, lo, hi = 0.0, 0, 1024
        while lo < len(within):
            sums = np.cumsum(np.concatenate(([total], self.weight.weights(within[lo:hi]))))[1:]
            hits = np.flatnonzero(sums > level)
            if len(hits):
                return int(within[lo + hits[0]])
            total, lo, hi = sums[-1], hi, 2 * hi
        return None


def substantial_family() -> FamilyDescriptor:
    """Level-n open set: prefixes whose reciprocal sum already exceeds n."""
    return FamilyDescriptor(WeightFunction.reciprocal())


def power_family(eps: float) -> FamilyDescriptor:
    """The power-weighted variant, with weights n^-eps."""
    return FamilyDescriptor(WeightFunction.power(eps))


def pi02_force(family: FamilyDescriptor, level: int, prefix: VertexSet, horizon: int) -> int | None:
    """Least horizon k' at which the prefix forces the level's open set."""
    return family.force(level, prefix, horizon)
