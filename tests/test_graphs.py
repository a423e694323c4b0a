import hashlib
from itertools import permutations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    contains_induced_copy,
    from_upper_mask,
    graph6_rows,
    graph6_text,
    induced,
    pair_bits,
    pattern_orbit_table,
    row_defect,
    rows_from_pair_bits,
    subset_code,
)

from radolab.graphs import (
    FiniteGraph,
    Graph6Error,
    _relabelings,
    canonical_form,
    complete,
    cycle,
    empty_graph,
    enumerate_unlabeled,
    graph6_decode,
    graph6_encode,
    path,
    petersen,
    rows_from_upper_bits,
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


def random_bits(n: int, seed: int, density: float) -> list[bool]:
    return (np.random.default_rng(seed).random(comb(n, 2)) < density).tolist()


def random_graphs(max_order: int):
    """Graphs built by the reference codec from seeded random pair bits."""
    return st.builds(
        lambda n, seed, density: FiniteGraph(n, tuple(rows_from_pair_bits(random_bits(n, seed, density), n))),
        st.integers(0, max_order), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )


@given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.5, 0.9]), st.integers(1, 3))
def test_rows_from_upper_bits_match_the_reference(n, seed, density, graphs):
    batch = [random_bits(n, seed + t, density) for t in range(graphs)]
    want = [rows_from_pair_bits(bits, n) for bits in batch]
    assert [rows_from_upper_bits(bits, n) for bits in batch] == want
    assert rows_from_upper_bits(np.array(batch, dtype=bool).reshape(graphs, comb(n, 2)), n) == sum(want, [])


@st.composite
def damaged_rows(draw):
    """Rows of a random graph of order <= 12 with a few bits flipped (at
    most two places above the order), maybe one row negated and maybe one
    row too many or too few."""
    n = draw(st.integers(0, 12))
    rows = list(rows_from_pair_bits(random_bits(n, draw(st.integers(0, 2**32 - 1)), 0.5), n))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        rows[draw(st.integers(0, n - 1))] ^= 1 << draw(st.integers(0, n + 1))
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = ~rows[i]
    rows += [0] * draw(st.sampled_from([0, 0, 0, 1]))
    if rows and draw(st.sampled_from([False, False, False, True])):
        rows.pop()
    return n, tuple(rows)


@given(damaged_rows())
@example((2, (1, 0)))
@example((1, (1,)))
@example((2, (4, 0)))
@example((3, (2, 5, 8)))
def test_finite_graph_names_the_first_defect_like_the_reference(case):
    n, rows = case
    want = row_defect(n, rows)
    if want is None:
        g = FiniteGraph(n, rows)
        assert g.matrix.tolist() == [[g.has_edge(i, j) for j in range(n)] for i in range(n)]
    else:
        with pytest.raises(ValueError) as refused:
            FiniteGraph(n, rows)
        assert str(refused.value) == want


def test_finite_graph_validation():
    with pytest.raises(ValueError):
        FiniteGraph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        FiniteGraph(1, (1,))  # diagonal
    with pytest.raises(ValueError):
        FiniteGraph(2, (4, 0))  # out of range


@pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 2), (1, -1)])
def test_from_edges_refuses_a_vertex_outside_the_graph(edge):
    with pytest.raises(ValueError, match=r"^edge \(%d, %d\) has a vertex outside \[0, 3\)$" % edge):
        FiniteGraph.from_edges(3, [edge])


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


@settings(max_examples=60, deadline=None)
@given(random_graphs(300))
@example(empty_graph(0))
@example(complete(62))
@example(complete(63))
@example(path(300))
def test_graph6_matches_the_reference_codec(g):
    text = graph6_encode(g)
    assert text == graph6_text(g)
    assert len(text) == (1 if g.order <= 62 else 4) + -(-comb(g.order, 2) // 6)
    assert graph6_decode(text) == g


def library_rows(text: str) -> tuple[int, list[int]]:
    g = graph6_decode(text)
    return g.order, list(g.rows)


def decoded(decode, text):
    """(order, rows) of the decoded text, or the message of its Graph6Error."""
    try:
        return decode(text)
    except Graph6Error as e:
        return str(e)


@st.composite
def damaged_graph6(draw):
    """graph6 text of a random graph of order <= 80, with a few characters
    replaced (non-ASCII included), deleted or inserted."""
    text = list(graph6_text(draw(random_graphs(80))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        char = draw(st.one_of(st.sampled_from("?@_{|~>\x7f \u00e9"), st.characters()))
        if edit == "insert":
            text.insert(at, char)
        elif at < len(text):
            text[at : at + 1] = [char] if edit == "replace" else []
    return "".join(text)


@given(damaged_graph6())
@example("")
@example("A" + chr(200))  # byte out of range
@example("D?{\u00e9")  # non-ASCII
@example("D\udc80{")  # a lone surrogate
@example("~")  # truncated size blocks
@example("~?")
@example("~~?????")
@example("D?")  # edge block too short, then too long
@example("D?{{")
@example("~??~" + "?" * 10)
@example("D?|")  # nonzero padding bit
@example(">>graph6<<A@")
def test_graph6_decode_matches_the_reference_codec(text):
    assert decoded(library_rows, text) == decoded(graph6_rows, text)


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
    """Relabelling codes, canonical form and orbit table against a scan of
    every permutation."""
    strings = [upper_string(g, p) for p in permutations(range(g.order))]
    codes = np.array(pair_bits(g)) @ _relabelings(g.order)
    assert sorted(codes.astype(int).tolist()) == sorted(int(s or "0", 2) for s in strings)
    assert canonical_form(g) == "%d:%s" % (g.order, min(strings))
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
