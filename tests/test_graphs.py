import hashlib
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import contains_induced_copy, from_upper_mask, induced, pattern_orbit_table, subset_code

from radolab.graphs import (
    FiniteGraph,
    Graph6Error,
    canonical_form,
    complete,
    cycle,
    empty_graph,
    enumerate_unlabeled,
    graph6_decode,
    graph6_encode,
    path,
    petersen,
)


def brute_isomorphic(g: FiniteGraph, h: FiniteGraph) -> bool:
    """Independent permutation-scan isomorphism check."""
    if g.order != h.order:
        return False
    for perm in permutations(range(g.order)):
        if all(
            g.has_edge(i, j) == h.has_edge(perm[i], perm[j])
            for i in range(g.order)
            for j in range(i + 1, g.order)
        ):
            return True
    return False


def graphs_of_order(n):
    return st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(lambda m: from_upper_mask(n, m))


def test_finite_graph_validation():
    with pytest.raises(ValueError):
        FiniteGraph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        FiniteGraph(1, (1,))  # diagonal
    with pytest.raises(ValueError):
        FiniteGraph(2, (4, 0))  # out of range


def test_named_graphs():
    assert complete(4).edge_count == 6
    assert empty_graph(5).edge_count == 0
    assert cycle(5).edge_count == 5
    assert path(4).edge_count == 3
    p = petersen()
    assert p.order == 10 and p.edge_count == 15
    assert all(p.degree(i) == 3 for i in range(10))
    assert not contains_induced_copy(p, complete(3))


# --- graph6 -----------------------------------------------------------------

def test_graph6_hand_decoded_star():
    # 'D' = 68-63 = 5 vertices; '?'=000000, '{'=111100: column-major pairs
    # (0,1)(0,2)(1,2)(0,3)(1,3)(2,3) all absent, then (0,4)(1,4)(2,4)(3,4)
    # present with two padding zeros: the star centered at vertex 4.
    g = graph6_decode("D?{")
    assert g.order == 5
    assert g == FiniteGraph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert graph6_encode(g) == "D?{"


def test_graph6_single_vertex():
    g = graph6_decode("@")
    assert g.order == 1 and g.edge_count == 0
    assert graph6_encode(empty_graph(1)) == "@"


def test_graph6_header_stripped():
    assert graph6_decode(">>graph6<<D?{").order == 5


def test_graph6_known_small_encodings():
    # K2 = one vertex pair with an edge: 'A_'; hand check: 'A'=2 vertices,
    # '_' = 96-63 = 33 = 100001b -> first bit set, edge (0,1)
    assert graph6_encode(complete(2)) == "A_"
    assert graph6_decode("A_").edge_count == 1
    assert graph6_encode(empty_graph(2)) == "A?"


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        graph6_decode("D?")  # truncated edge block
    with pytest.raises(Graph6Error):
        graph6_decode("D?{{")  # overlong
    with pytest.raises(Graph6Error):
        graph6_decode("A" + chr(200))  # out-of-range byte
    with pytest.raises(Graph6Error):
        graph6_decode("A@")  # nonzero padding bit ('@'+1... '@'=1 -> bit 5 unused)
    with pytest.raises(Graph6Error):
        graph6_decode("")


@given(st.integers(1, 7).flatmap(graphs_of_order))
def test_graph6_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_roundtrip_hundred_random_graphs():
    import random

    rnd = random.Random(0)
    for _ in range(100):
        n = rnd.randint(1, 7)
        g = from_upper_mask(n, rnd.getrandbits(n * (n - 1) // 2))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_large_order_header():
    g = empty_graph(100)
    s = graph6_encode(g)
    assert s.startswith("~")
    assert graph6_decode(s).order == 100


def test_graph6_encoding_is_refused_above_the_four_byte_header():
    # only the order is read before the refusal, so no graph of that size is built
    with pytest.raises(ValueError, match="^graph6 order 258048 exceeds GRAPH6_MAX_ORDER = 258047$"):
        graph6_encode(SimpleNamespace(order=258048))


# --- canonical form ---------------------------------------------------------

def test_canonical_complete_is_relabel_invariant():
    k3 = complete(3)
    for perm in permutations(range(3)):
        assert canonical_form(induced(k3, list(perm))) == canonical_form(k3)


def test_canonical_distinguishes_path_from_triangle():
    assert canonical_form(path(3)) != canonical_form(complete(3))


@given(st.integers(1, 6).flatmap(graphs_of_order), st.randoms(use_true_random=False))
def test_canonical_invariant_under_relabeling(g, rnd):
    perm = list(range(g.order))
    rnd.shuffle(perm)
    assert canonical_form(induced(g, list(perm))) == canonical_form(g)


def test_canonical_soundness_all_pairs_up_to_order_5():
    graphs = [g for k in range(1, 6) for g in enumerate_unlabeled(k)]
    for a in range(len(graphs)):
        for b in range(a, len(graphs)):
            g, h = graphs[a], graphs[b]
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)


def upper_string(g: FiniteGraph, perm) -> str:
    """Upper-triangle string of g relabelled so that new vertex q is perm[q]."""
    return "".join(str(int(g.has_edge(perm[i], perm[j]))) for j in range(1, g.order) for i in range(j))


def check_against_reference(g: FiniteGraph) -> None:
    """Canonical form and orbit table against a scan of every permutation."""
    form = "%d:%s" % (g.order, min(upper_string(g, p) for p in permutations(range(g.order))))
    assert canonical_form(g) == form
    if g.order <= 5:
        codes = {subset_code(g.rows, p) for p in permutations(range(g.order))}
        assert pattern_orbit_table(g) == tuple(c in codes for c in range(1 << (g.order * (g.order - 1) // 2)))


@given(st.integers(0, 7).flatmap(graphs_of_order))
@example(empty_graph(0))
@example(empty_graph(1))
def test_relabelling_table_matches_permutation_scan(g):
    check_against_reference(g)


@pytest.mark.parametrize(
    "g", [induced(petersen(), range(8)), path(8), from_upper_mask(8, 0x9E3779B)], ids=["petersen-8", "path-8", "mask-8"]
)
def test_relabelling_table_matches_permutation_scan_at_order_8(g):
    check_against_reference(g)


def test_canonical_order_bound():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(9))


def test_distinct_forms_on_four_vertices():
    forms = {canonical_form(from_upper_mask(4, m)) for m in range(64)}
    assert len(forms) == 11


# --- enumeration ------------------------------------------------------------

def brute_unlabeled_count(k: int) -> int:
    """Dedupe all labeled graphs by bucketed permutation-scan isomorphism."""
    npairs = k * (k - 1) // 2
    buckets = {}
    for m in range(1 << npairs):
        g = from_upper_mask(k, m)
        key = (g.edge_count, tuple(sorted(g.degree(i) for i in range(k))))
        buckets.setdefault(key, []).append(g)
    count = 0
    for gs in buckets.values():
        reps = []
        for g in gs:
            if not any(brute_isomorphic(g, r) for r in reps):
                reps.append(g)
        count += len(reps)
    return count


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_enumerate_counts_match_brute_force(k, expected):
    assert len(enumerate_unlabeled(k)) == expected
    assert brute_unlabeled_count(k) == expected


def test_enumerate_six_and_seven_match_published_counts():
    assert len(enumerate_unlabeled(6)) == 156
    assert len(enumerate_unlabeled(7)) == 1044


CATALOG_SHA256 = {
    6: "6e46fe89dc7b1d0f2c8559df37049a7d5118f02fe3e2cb0dd58d32659c05e7d0",
    7: "1740fe57bf883d4ceba3e923227857c0ad97b48b76d84d7d83c91fb0fb1fc462",
}


@pytest.mark.parametrize("k", sorted(CATALOG_SHA256))
def test_catalog_digest_is_frozen(k):
    """Representatives, their order and their forms, byte for byte."""
    text = "\n".join(graph6_encode(g) + " " + canonical_form(g) for g in enumerate_unlabeled(k))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[k]


def test_enumerate_classes_are_distinct_and_canonical():
    forms = [canonical_form(g) for g in enumerate_unlabeled(5)]
    assert len(set(forms)) == len(forms)
    assert forms == sorted(forms)


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_unlabeled(0)
    with pytest.raises(ValueError):
        enumerate_unlabeled(8)


# --- induced-copy helpers ---------------------------------------------------

def test_orbit_table_counts_labeled_copies():
    table = pattern_orbit_table(path(3))
    assert sum(table) == 3  # three labeled paths on three vertices
    assert sum(pattern_orbit_table(complete(3))) == 1


def test_orbit_table_built_once_and_immutable():
    table = pattern_orbit_table(path(4))
    assert isinstance(table, tuple) and pattern_orbit_table(path(4)) is table
    assert sum(table) == 12  # 4!/2 labeled paths on four vertices


def test_contains_induced_copy_small_cases():
    assert contains_induced_copy(complete(4), complete(3))
    assert not contains_induced_copy(complete(3), path(3))
    assert contains_induced_copy(path(4), path(3))
    assert contains_induced_copy(cycle(5), path(4))
    assert not contains_induced_copy(cycle(4), complete(3))
