"""Largeness checkers: density profiles, weighted reciprocal sums, thickness,
arithmetic progressions, and forcing for the Π⁰₂ family of a weight function."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .limits import check_limit
from .sets import Report, VertexSet


@dataclass(frozen=True)
class WeightFunction:
    """Closed-form positive weights n^-exponent, and the Π⁰₂ family they fix:
    level n's open set holds the sets whose sum of weights exceeds n.  The
    default, exponent 1, gives the reciprocal sum."""

    exponent: float = 1.0

    def __post_init__(self):
        if not 0 < self.exponent <= 1:
            raise ValueError("weight exponent must lie in (0, 1]")

    def weights(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.float64)
        return 1.0 / ns if self.exponent == 1.0 else ns ** -self.exponent

    def crossing(self, level: int, parts: Iterable[np.ndarray]) -> int | None:
        """The first element of the ascending concatenation of ``parts`` at
        which the running sum of weights exceeds the level, or None.  Parts
        are read only until then."""
        # cumsum is sequential, so carrying the running total from part to
        # part gives the sums of one cumsum over the whole bit for bit
        total = 0.0
        for part in parts:
            if len(part) == 0:
                continue
            sums = np.cumsum(np.concatenate(([total], self.weights(part))))[1:]
            hits = np.flatnonzero(sums > level)
            if len(hits):
                return int(part[hits[0]])
            total = sums[-1]
        return None


@dataclass(frozen=True)
class DensityReport(Report):
    checkpoints: tuple[int, ...]
    densities: tuple[float, ...]
    sup_density: float
    final_density: float


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
        if n < 1:
            raise ValueError("checkpoints must be >= 1, not %d" % n)
        if n <= prev:
            raise ValueError("checkpoints must be strictly increasing")
        if n > a.prefix_bound:
            raise ValueError("checkpoint %d beyond prefix bound %d" % (n, a.prefix_bound))
        prev = n
    densities = tuple(a.count_upto(n) / n for n in checkpoints)
    return DensityReport(tuple(checkpoints), densities, max(densities), densities[-1])


def weighted_sum(a: VertexSet, f: WeightFunction = WeightFunction()) -> float:
    """Partial sum of f over the materialized prefix of A, rounded once:
    equal to ``math.fsum`` of the weights.

    Each weight (a normal float in (0, 1]) is its 53-bit significand times
    2^(exponent field - 1075).  Over each run of equal exponents the high
    and low 26-bit halves of the significands are summed in int64, which
    cannot overflow below 2^36 weights; the run sums are combined as Python
    ints, and the one division by a power of two rounds correctly.  Runs
    may come in any order; a sorted set has about one per binade.
    """
    if len(a) == 0:
        return 0.0
    bits = f.weights(a.as_array).view(np.int64)
    exps = bits >> 52
    starts = np.flatnonzero(np.concatenate(([True], exps[1:] != exps[:-1])))
    run_exps = exps[starts].tolist()
    sig = bits & ((1 << 52) - 1)
    sig |= 1 << 52
    high = np.right_shift(sig, 26, out=exps)
    sig &= (1 << 26) - 1
    low = min(run_exps)
    total = sum(
        ((h << 26) + lo) << (e - low)
        for h, lo, e in zip(np.add.reduceat(high, starts).tolist(), np.add.reduceat(sig, starts).tolist(), run_exps)
    )
    return total / (1 << (1075 - low))


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
    dynamic program over element pairs, one row of an int16 m x m table per
    element; |A| is capped accordingly.
    """
    m = len(a)
    check_limit(m, "AP_SIZE_LIMIT", "longest_ap set size %d" % m)
    if m == 0:
        return (0, 0, 0)
    if m == 1:
        return (int(a.as_array[0]), 0, 1)
    vals = a.as_array
    # ap_len[j, k] = length of the longest AP ending with (vals[j], vals[k]), k > j
    ap_len = np.zeros((m, m), dtype=np.int16)
    best = (0, 0, 0)  # (-length, diff, start)
    for j in range(m - 1):
        top = vals[j + 1 :]
        diffs = top - vals[j]
        # vals[j] - diff cannot overflow where 2 * vals[j] - top could
        prev = vals[j] - diffs
        # prev < vals[j], so i <= j and vals[i] is in range
        i = np.searchsorted(vals[:j], prev)
        row = ap_len[j, j + 1 :]
        np.add(np.where(vals[i] == prev, ap_len[i, j], 1), 1, out=row)
        # diff grows along the row, so the leftmost longest has the least diff
        k = int(np.argmax(row))
        length, d = int(row[k]), int(diffs[k])
        best = min(best, (-length, d, int(top[k]) - (length - 1) * d))
    return (best[2], best[1], -best[0])


def substantial_family() -> WeightFunction:
    """Level-n open set: prefixes whose reciprocal sum already exceeds n."""
    return WeightFunction()


def pi02_force(family: WeightFunction, level: int, prefix: VertexSet, horizon: int) -> int | None:
    """The least k' <= horizon such that every superset of prefix ∩ [1,k']
    agreeing with prefix below k' lies in the family's level open set, or
    None if the prefix does not force yet.  Stateless and monotone in the
    prefix."""
    return family.crossing(level, [prefix.restrict(1, horizon).as_array])
