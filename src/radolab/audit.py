"""Universality audits: induced-copy search, weak-universality sweeps,
maximum pattern-free subsets, and the dyadic-interval size audit.

Absence is only ever certified by a completed search; running out of
budget is reported as a distinct, inconclusive outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embed import verify_embedding
from .graphs import FiniteGraph, canonical_form, enumerate_unlabeled, find_induced, graph6_encode
from .limits import (
    CATALOG_MAX_ORDER,
    CONTAINS_ORDER_CAP,
    DEFAULT_NODE_BUDGET,
    EXACT_WINDOW_CAP,
    GFREE_PATTERN_ORDER_CAP,
    GFREE_WINDOW_CAP,
    check_limit,
)
from .oracle import EdgeOracle, VerificationError, adjacency_rows
from .sets import Report, VertexSet

FOUND = "found"
ABSENT = "absent"
BUDGET = "budget"


@dataclass(frozen=True)
class SearchResult(Report):
    status: str
    witness: VertexSet | None
    nodes: int


def contains_induced(
    oracle: EdgeOracle,
    host: VertexSet,
    pattern: FiniteGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    rows: _LazyRows | None = None,
) -> SearchResult:
    """Search the host for an induced copy of the pattern with
    ``find_induced``, building each host adjacency row on first use.  A
    sweep over many patterns passes one ``rows`` table of the same host, so
    that each row is built once.  A found witness is re-verified from raw
    oracle queries before it is returned.
    """
    check_limit(pattern.order, CONTAINS_ORDER_CAP, "CONTAINS_ORDER_CAP", "pattern order %d" % pattern.order)
    if node_budget < 1:
        raise ValueError("node budget must be >= 1")
    rows = _LazyRows(oracle, host.as_array) if rows is None else rows
    images, nodes = find_induced(rows, (1 << len(host)) - 1, pattern, node_budget)
    if images is None:
        return SearchResult(BUDGET if nodes > node_budget else ABSENT, None, nodes)
    mapped = tuple(host.as_array[images].tolist())
    verify_embedding(oracle, pattern, mapped)
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
    if k_max < 0:
        raise ValueError("k_max must be >= 0, not %d" % k_max)
    check_limit(k_max, CATALOG_MAX_ORDER, "CATALOG_MAX_ORDER", "k_max %d" % k_max)
    patterns = []
    rows = _LazyRows(oracle, host.as_array)
    for k in range(1, k_max + 1):
        for g in enumerate_unlabeled(k):
            result = contains_induced(oracle, host, g, node_budget, rows)
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


def _check_gfree_pattern(pattern: FiniteGraph) -> None:
    """Refuse a pattern of order 0, or above GFREE_PATTERN_ORDER_CAP,
    before any pattern-free work."""
    if pattern.order == 0:
        raise ValueError("a pattern-free subset needs a pattern with at least one vertex")
    check_limit(pattern.order, GFREE_PATTERN_ORDER_CAP, "GFREE_PATTERN_ORDER_CAP", "pattern order %d" % pattern.order)


def _greedy_gfree(rows: list[int], n: int, pattern: FiniteGraph) -> list[int]:
    """Take each index in turn unless the taken indices plus it induce the
    pattern; the taken set is pattern-free, so any copy uses the new index,
    and the search is anchored there."""
    taken = 0
    for v in range(n):
        if find_induced(rows, taken | 1 << v, pattern, anchor=v)[0] is None:
            taken |= 1 << v
    return [v for v in range(n) if taken >> v & 1]


def _exact_gfree(rows: list[int], n: int, pattern: FiniteGraph, stop_at: int | None = None) -> list[int]:
    """Branch and bound maximum pattern-free index subset.

    The bound is the trivial one (current size + vertices left).  Each
    index is taken before it is left out, so the first leaf is the greedy
    solution, and only strictly larger subsets replace the incumbent.
    ``stop_at`` ends the search as soon as a subset of that size is known.
    """
    # the vertex masks of the copies whose largest index is v
    bads_by_vertex: list[list[int]] = []
    for v in range(n):
        copies: list[int] = []
        find_induced(rows, (2 << v) - 1, pattern, anchor=v, copies=copies)
        bads_by_vertex.append(sorted(set(copies)))  # a list iterates faster than a set
    best_size = best_mask = 0

    def conflict(mask: int, v: int) -> bool:
        m2 = mask | (1 << v)
        for b in bads_by_vertex[v]:
            if b & m2 == b:
                return True
        return False

    def dfs(v: int, mask: int, size: int) -> bool:
        """Returns True once stop_at is reached."""
        nonlocal best_size, best_mask
        if size + (n - v) <= best_size:
            return False
        if v == n:
            if size > best_size:
                best_size, best_mask = size, mask
                if stop_at is not None and size >= stop_at:
                    return True
            return False
        if not conflict(mask, v):
            if dfs(v + 1, mask | (1 << v), size + 1):
                return True
        return dfs(v + 1, mask, size)

    dfs(0, 0, 0)
    return [v for v in range(n) if best_mask >> v & 1]


def _verify_gfree(oracle: EdgeOracle, chosen: list[int], pattern: FiniteGraph) -> None:
    """Re-verify pattern-freeness by a completed induced-copy search of the
    answer, on rows rebuilt from scalar edge queries."""
    rows = [sum(oracle.edge(u, v) << q for q, v in enumerate(chosen) if v != u) for u in chosen]
    if find_induced(rows, (1 << len(chosen)) - 1, pattern)[0] is not None:
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
    _check_gfree_pattern(pattern)
    check_limit(n, GFREE_WINDOW_CAP, "GFREE_WINDOW_CAP", "window length %d" % n)
    if mode == "exact":
        check_limit(n, EXACT_WINDOW_CAP, "EXACT_WINDOW_CAP", "exact-mode window length %d" % n)
    vertices = np.arange(lo, hi + 1, dtype=np.int64)
    rows = adjacency_rows(oracle, vertices)
    chosen = _exact_gfree(rows, n, pattern) if mode == "exact" else _greedy_gfree(rows, n, pattern)
    _verify_gfree(oracle, vertices[chosen].tolist(), pattern)
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
    if not k_range:
        raise ValueError("k range %d to %d is empty" % (k_range.start, k_range.stop - k_range.step))
    low, top = sorted((k_range[0], k_range[-1]))
    if low < 0:
        raise ValueError("k must be >= 0, not %d" % low)
    # 2^top, saturated just above the cap: a huge --k-to is refused without computing 2^top
    window = 2 ** min(top, GFREE_WINDOW_CAP.bit_length())
    check_limit(window, GFREE_WINDOW_CAP, "GFREE_WINDOW_CAP", "window length 2^%d" % top)
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
    return {
        "pattern": graph6_encode(pattern),
        "n_param": n_param,
        "rows": rows_out,
        "violations": [r["k"] for r in rows_out if r["violation"]],
        "majorant": reciprocal_tail_majorant(low, n_param),
    }
