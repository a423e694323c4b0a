from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from radolab import audit
from radolab.audit import (
    ABSENT,
    BUDGET,
    FOUND,
    contains_induced,
    dyadic_audit,
    max_gfree_subset,
    reciprocal_tail_majorant,
    weak_universality,
)
from radolab.constructions import construct_thick_edgeless
from radolab.graphs import complete, cycle, empty_graph, path, pattern_orbit_table, subset_code
from radolab.oracle import EdgeOracle, VerificationError, adjacency_rows, induced_subgraph
from radolab.sets import VertexSet


# --- independent brute-force oracle for maximum pattern-free subsets ---------

def brute_window_rows(oracle, lo, hi):
    n = hi - lo + 1
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if oracle.edge(lo + i, lo + j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def brute_bad_masks(rows, n, pattern):
    """Index subsets inducing the pattern, decided by raw permutation scan."""
    r = pattern.order
    bads = []
    for sub in combinations(range(n), r):
        for perm in permutations(range(r)):
            if all(
                bool(rows[sub[a]] >> sub[b] & 1) == pattern.has_edge(perm[a], perm[b])
                for a in range(r)
                for b in range(a + 1, r)
            ):
                bads.append(sum(1 << v for v in sub))
                break
    return bads


def brute_max_gfree_size(oracle, lo, hi, pattern):
    """Exhaustive scan of all 2^(hi-lo+1) subsets via monotone closure."""
    n = hi - lo + 1
    rows = brute_window_rows(oracle, lo, hi)
    bad = np.zeros(1 << n, dtype=bool)
    for m in brute_bad_masks(rows, n, pattern):
        bad[m] = True
    masks = np.arange(1 << n, dtype=np.int64)
    for _ in range(n):
        for v in range(n):
            with_v = (masks >> v & 1).astype(bool)
            bad[with_v] |= bad[masks[with_v] ^ (1 << v)]
    counts = np.unpackbits(masks.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    return int(counts[~bad].max())


# --- contains_induced ---------------------------------------------------------

def test_contains_single_vertex_is_least_element():
    host = VertexSet.from_iterable([9, 4, 30])
    res = contains_induced(EdgeOracle(1), host, complete(1))
    assert res.status == FOUND and res.witness.elements == (4,)


def test_contains_no_path_inside_triangle():
    o = EdgeOracle(7)
    # find a triangle first, then certify P3-absence inside it
    tri = contains_induced(o, VertexSet.interval(1, 128), complete(3))
    assert tri.status == FOUND
    res = contains_induced(o, tri.witness, path(3))
    assert res.status == ABSENT


def test_contains_c5_fixture_and_reverification():
    o = EdgeOracle(7)
    res = contains_induced(o, VertexSet.interval(1, 512), cycle(5))
    assert res.status == FOUND
    assert res.witness.elements == (1, 2, 3, 4, 51)
    g = induced_subgraph(o, res.witness)
    assert g.edge_count == 5 and all(g.degree(i) == 2 for i in range(5))


def test_contains_budget_exhaustion_is_not_absence():
    o = EdgeOracle(3)
    res = contains_induced(o, VertexSet.interval(1, 64), complete(5), node_budget=3)
    assert res.status == BUDGET and res.witness is None


def test_contains_pattern_larger_than_host():
    res = contains_induced(EdgeOracle(1), VertexSet.interval(1, 3), complete(4))
    assert res.status == ABSENT


def test_contains_validation():
    with pytest.raises(ValueError):
        contains_induced(EdgeOracle(1), VertexSet.interval(1, 5), empty_graph(11))
    with pytest.raises(ValueError):
        contains_induced(EdgeOracle(1), VertexSet.interval(1, 5), complete(2), node_budget=0)


# --- weak universality --------------------------------------------------------

def test_weak_universality_order_one():
    rep = weak_universality(EdgeOracle(5), VertexSet.from_iterable([3]), 1)
    assert rep["verdict"] == "pass"


def test_weak_universality_host_512():
    rep = weak_universality(EdgeOracle(7), VertexSet.interval(1, 512), 4)
    assert rep["verdict"] == "pass"
    assert len(rep["patterns"]) == 1 + 2 + 4 + 11


def test_weak_universality_nesting():
    o = EdgeOracle(9)
    host = VertexSet.interval(1, 512)
    assert weak_universality(o, host, 4)["verdict"] == "pass"
    assert weak_universality(o, host, 3)["verdict"] == "pass"


def test_weak_universality_fails_on_edgeless_host():
    o = EdgeOracle(1)
    thick = construct_thick_edgeless(o, 3, 10**5)
    rep = weak_universality(o, thick.union, 2)
    assert rep["verdict"] == "fail"
    k2 = [p for p in rep["patterns"] if p["order"] == 2 and p["graph6"] == "A_"]
    assert k2[0]["status"] == ABSENT


def test_weak_universality_cap():
    with pytest.raises(ValueError):
        weak_universality(EdgeOracle(1), VertexSet.interval(1, 4), 8)


# --- max_gfree_subset -----------------------------------------------------------

def test_k2_free_is_independent_set():
    o = EdgeOracle(7)
    s = max_gfree_subset(o, (1, 16), complete(2), "exact")
    g = induced_subgraph(o, s)
    assert g.edge_count == 0
    assert len(s) == brute_max_gfree_size(o, 1, 16, complete(2))


@pytest.mark.parametrize("pattern", [complete(2), complete(3), path(3)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_matches_exhaustive_enumeration(pattern, seed):
    o = EdgeOracle(seed)
    got = len(max_gfree_subset(o, (1, 12), pattern, "exact"))
    assert got == brute_max_gfree_size(o, 1, 12, pattern)


def test_greedy_at_most_exact_on_random_windows():
    o = EdgeOracle(5)
    starts = [7 * s + 1 for s in range(50)]
    for lo in starts:
        window = (lo, lo + 19)
        exact = len(max_gfree_subset(o, window, complete(3), "exact"))
        greedy = len(max_gfree_subset(o, window, complete(3), "greedy"))
        assert greedy <= exact


def test_greedy_is_maximal_by_inclusion():
    o = EdgeOracle(11)
    s = max_gfree_subset(o, (1, 24), complete(2), "greedy")
    chosen = set(s.elements)
    for v in range(1, 25):
        if v not in chosen:
            # adding v must create an edge inside the chosen set
            assert any(o.edge(v, w) for w in chosen)


def test_exact_window_cap():
    with pytest.raises(ValueError):
        max_gfree_subset(EdgeOracle(1), (1, 41), complete(2), "exact")
    with pytest.raises(ValueError):
        max_gfree_subset(EdgeOracle(1), (1, 10), complete(2), "middling")


# --- dyadic audit ---------------------------------------------------------------

def test_dyadic_k3_window_exact():
    o = EdgeOracle(3)
    rep = dyadic_audit(o, complete(2), 3, range(3, 4))
    row = rep["rows"][0]
    assert row["window"] == [8, 15] and row["mode"] == "exact"
    assert row["size"] == brute_max_gfree_size(o, 8, 15, complete(2))
    assert row["violation"] == (row["size"] >= 9)


def test_dyadic_zero_n_param_flags_everything():
    rep = dyadic_audit(EdgeOracle(1), complete(2), 0, range(1, 4))
    assert all(r["violation"] for r in rep["rows"])


def test_dyadic_greedy_beyond_exact_cap():
    rep = dyadic_audit(EdgeOracle(1), complete(2), 3, range(6, 8))
    assert all(r["mode"] == "greedy" for r in rep["rows"])


def test_majorant_closed_form_vs_direct_summation():
    got = reciprocal_tail_majorant(4, 3)
    tail_direct = sum(k * 3 / 2**k for k in range(4, 400))
    head_direct = float(sum(Fraction(1, n) for n in range(1, 16)))
    assert abs(got["tail"] - tail_direct) < 1e-12
    assert abs(got["head"] - head_direct) < 1e-12
    assert abs(got["total"] - (tail_direct + head_direct)) < 1e-12


def test_majorant_m1_tail_is_2n():
    assert reciprocal_tail_majorant(1, 5)["tail"] == 10.0


@pytest.mark.parametrize("seed", [1, 4])
def test_greedy_window_beyond_64_vertices_matches_scalar_greedy(seed):
    o = EdgeOracle(seed)
    want = []  # greedy K3-free subset in window order, from scalar edges
    for v in range(1000, 1080):
        if not any(o.edge(a, b) and o.edge(a, v) and o.edge(b, v) for a, b in combinations(want, 2)):
            want.append(v)
    assert max_gfree_subset(o, (1000, 1079), complete(3), "greedy").elements == tuple(want)


def test_gfree_answer_is_reverified_on_every_subset(monkeypatch):
    """A greedy answer of 23 indices with one planted K4 copy: a check of
    2000 sampled 4-subsets misses it, the check of every 4-subset does not."""
    o, k4 = EdgeOracle(1), complete(4)
    rows = adjacency_rows(o, np.arange(1, 101))
    chosen = audit._greedy_gfree(rows, 100, k4)
    table = pattern_orbit_table(k4)

    def copies_with(v):
        return sum(table[subset_code(rows, sorted((*rest, v)))] for rest in combinations(chosen, 3))

    planted = sorted(chosen + [next(v for v in range(100) if v not in chosen and copies_with(v) == 1)])
    assert len(planted) > 20
    monkeypatch.setattr(audit, "_greedy_gfree", lambda rows, n, pattern: planted)
    with pytest.raises(VerificationError):
        max_gfree_subset(o, (1, 100), k4, "greedy")
