"""Universality audits: induced-copy search, weak-universality sweeps,
maximum pattern-free subsets, and the dyadic-interval size audit.

Absence is only ever certified by a completed search; running out of
budget is reported as a distinct, inconclusive outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graphs import (
    FiniteGraph,
    canonical_form,
    enumerate_unlabeled,
    find_induced,
    graph6_encode,
    pattern_orbit_table,
    subset_code,
)
from .oracle import EdgeOracle, VerificationError, adjacency_rows
from .sets import VertexSet

DEFAULT_NODE_BUDGET = 10**6
EXACT_WINDOW_CAP = 40
CONTAINS_ORDER_CAP = 10

FOUND = "found"
ABSENT = "absent"
BUDGET = "budget"


@dataclass(frozen=True)
class SearchResult:
    status: str
    witness: VertexSet | None
    nodes: int

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.as_array.tolist() if self.witness else None,
            "nodes": self.nodes,
        }


def contains_induced(
    oracle: EdgeOracle,
    host: VertexSet,
    pattern: FiniteGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Search the host for an induced copy of the pattern with
    ``find_induced``, building each host adjacency row on first use.  A
    found witness is re-verified from raw oracle queries before it is
    returned.
    """
    if pattern.order > CONTAINS_ORDER_CAP:
        raise ValueError("pattern order capped at %d" % CONTAINS_ORDER_CAP)
    if node_budget < 1:
        raise ValueError("node budget must be >= 1")
    r = pattern.order
    if r == 0:
        return SearchResult(FOUND, VertexSet.empty(), 0)
    images, nodes = find_induced(_LazyRows(oracle, host.as_array), len(host), pattern, node_budget)
    if images is None:
        return SearchResult(BUDGET if nodes > node_budget else ABSENT, None, nodes)
    mapped = host.as_array[images].tolist()
    for i in range(r):
        for j in range(i + 1, r):
            if oracle.edge(mapped[i], mapped[j]) != pattern.has_edge(i, j):
                raise VerificationError("witness failed re-verification")
    return SearchResult(FOUND, VertexSet.from_iterable(mapped, host.prefix_bound), nodes)


class _LazyRows(dict):
    """Adjacency rows among the host vertices, each built on first use."""

    def __init__(self, oracle: EdgeOracle, vertices: np.ndarray):
        super().__init__()
        self.oracle = oracle
        self.vertices = vertices

    def __missing__(self, pos: int) -> int:
        row = self[pos] = adjacency_rows(self.oracle, self.vertices, [pos])[0]
        return row


def weak_universality(
    oracle: EdgeOracle,
    host: VertexSet,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Witness every unlabeled graph of order <= k_max inside the host."""
    if k_max > 7:
        raise ValueError("weak universality sweep capped at k_max = 7")
    patterns = []
    for k in range(1, k_max + 1):
        for g in enumerate_unlabeled(k):
            result = contains_induced(oracle, host, g, node_budget)
            patterns.append(
                {
                    "order": k,
                    "canonical": canonical_form(g),
                    "graph6": graph6_encode(g),
                    **result.to_json(),
                }
            )
    statuses = [p["status"] for p in patterns]
    if all(s == FOUND for s in statuses):
        verdict = "pass"
    elif any(s == ABSENT for s in statuses):
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return {"k_max": k_max, "patterns": patterns, "verdict": verdict}


def _bad_subsets(rows: list[int], n: int, pattern: FiniteGraph) -> list[int]:
    """Bitmasks of the index subsets that induce the pattern."""
    table = pattern_orbit_table(pattern)
    return [
        sum(1 << j for j in sub)
        for sub in combinations(range(n), pattern.order)
        if table[subset_code(rows, sub)]
    ]


def _greedy_gfree(rows: list[int], n: int, pattern: FiniteGraph) -> list[int]:
    """Take each index in turn unless it completes a pattern copy with r - 1
    indices already taken (all lower, so the subset stays in order)."""
    r = pattern.order
    table = pattern_orbit_table(pattern)
    chosen: list[int] = []
    for v in range(n):
        if not any(table[subset_code(rows, (*rest, v))] for rest in combinations(chosen, r - 1)):
            chosen.append(v)
    return chosen


def _exact_gfree(rows: list[int], n: int, pattern: FiniteGraph, stop_at: int | None = None) -> list[int]:
    """Branch and bound maximum pattern-free index subset.

    The bound is the trivial one (current size + vertices left).  The
    greedy solution seeds the incumbent.  ``stop_at`` ends the search as
    soon as a subset of that size is known.
    """
    bads = _bad_subsets(rows, n, pattern)
    bads_by_vertex: list[list[int]] = [[] for _ in range(n)]
    for m in bads:
        bads_by_vertex[m.bit_length() - 1].append(m)

    best = _greedy_gfree(rows, n, pattern)
    if stop_at is not None and len(best) >= stop_at:
        return best
    best_mask = 0
    for v in best:
        best_mask |= 1 << v

    def conflict(mask: int, v: int) -> bool:
        m2 = mask | (1 << v)
        for b in bads_by_vertex[v]:
            if b & m2 == b:
                return True
        return False

    state_best = [len(best), best_mask]

    def dfs(v: int, mask: int, size: int) -> bool:
        """Returns True once stop_at is reached."""
        if size + (n - v) <= state_best[0]:
            return False
        if v == n:
            if size > state_best[0]:
                state_best[0] = size
                state_best[1] = mask
                if stop_at is not None and size >= stop_at:
                    return True
            return False
        if not conflict(mask, v):
            if dfs(v + 1, mask | (1 << v), size + 1):
                return True
        return dfs(v + 1, mask, size)

    dfs(0, 0, 0)
    return [v for v in range(n) if state_best[1] >> v & 1]


def _verify_gfree(rows: list[int], chosen: list[int], pattern: FiniteGraph) -> None:
    """Re-verify pattern-freeness on every r-subset of the answer.  The
    solvers have already examined at least that many subsets."""
    table = pattern_orbit_table(pattern)
    if any(table[subset_code(rows, sub)] for sub in combinations(chosen, pattern.order)):
        raise VerificationError("pattern-free verification failed")


def max_gfree_subset(
    oracle: EdgeOracle,
    window: tuple[int, int],
    pattern: FiniteGraph,
    mode: str = "exact",
) -> VertexSet:
    """Largest (exact) or maximal-by-inclusion (greedy) pattern-free subset
    of the inclusive window [lo, hi]."""
    lo, hi = window
    if lo < 1 or hi < lo:
        raise ValueError("window must satisfy 1 <= lo <= hi")
    n = hi - lo + 1
    if mode not in ("exact", "greedy"):
        raise ValueError("mode must be exact or greedy")
    if mode == "exact" and n > EXACT_WINDOW_CAP:
        raise ValueError("exact mode capped at window length %d" % EXACT_WINDOW_CAP)
    vertices = np.arange(lo, hi + 1, dtype=np.int64)
    rows = adjacency_rows(oracle, vertices)
    chosen = _exact_gfree(rows, n, pattern) if mode == "exact" else _greedy_gfree(rows, n, pattern)
    _verify_gfree(rows, chosen, pattern)
    return VertexSet(vertices[chosen], hi)


def reciprocal_tail_majorant(m: int, n_param: int) -> dict:
    """The convergent bound sum_{k>=m} k·N/2^k + sum_{n<2^m} 1/n, closed form."""
    if m < 0 or n_param < 0:
        raise ValueError("m and N must be non-negative")
    tail = n_param * (2 * m + 2) / 2**m
    head = float(sum(Fraction(1, n) for n in range(1, 2**m)))
    return {"m": m, "n_param": n_param, "tail": tail, "head": head, "total": tail + head}


def dyadic_audit(
    oracle: EdgeOracle,
    pattern: FiniteGraph,
    n_param: int,
    k_range: range,
) -> dict:
    """Largest pattern-free subset of each window [2^k, 2^{k+1}) against k·N.

    Windows short enough for exact search are solved exactly; longer ones
    get the greedy lower bound, which can certify a violation but never
    absence of one.
    """
    rows_out = []
    for k in k_range:
        lo, hi = 2**k, 2 ** (k + 1) - 1
        mode = "exact" if hi - lo + 1 <= EXACT_WINDOW_CAP else "greedy"
        subset = max_gfree_subset(oracle, (lo, hi), pattern, mode)
        size = len(subset)
        bound = k * n_param
        violation = size >= max(bound, 1)
        rows_out.append(
            {
                "k": k,
                "window": [lo, hi],
                "mode": mode,
                "size": size,
                "bound": bound,
                "violation": bool(violation),
                "confirmed": mode == "exact" or violation,
            }
        )
    m0 = min(k_range) if len(k_range) else 0
    return {
        "pattern": graph6_encode(pattern),
        "n_param": n_param,
        "rows": rows_out,
        "violations": [r["k"] for r in rows_out if r["violation"]],
        "majorant": reciprocal_tail_majorant(m0, n_param),
    }
