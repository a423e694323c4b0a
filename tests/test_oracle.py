import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import least_witnesses, row_type_keys, seed_with_outer_z, whole_stream_matrix

from radolab import oracle
from radolab.limits import EXTENSION_BASE_CAP
from radolab.oracle import (
    _CHUNK,
    EdgeOracle,
    TypeSpec,
    adjacency_rows,
    extension_check,
    induced_subgraph,
    mix64,
    probability_threshold,
    stream_bits,
    stream_values,
    type_class,
    type_of,
)
from radolab.sets import VertexSet


def test_mix64_matches_published_splitmix_vectors():
    # the first three outputs of the splitmix64 stream seeded with 0
    golden = 0x9E3779B97F4A7C15
    state, outs = 0, []
    for _ in range(3):
        state = (state + golden) & (2**64 - 1)
        outs.append(mix64(state))
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_edge_symmetric_and_repeatable():
    o = EdgeOracle(12345)
    for u, v in combinations(range(1, 65), 2):
        assert o.edge(u, v) == o.edge(v, u)
        assert o.edge(u, v) == o.edge(u, v)


def test_edge_contract_violations():
    o = EdgeOracle(1)
    with pytest.raises(ValueError):
        o.edge(3, 3)
    with pytest.raises(ValueError):
        o.edge(0, 5)
    with pytest.raises(ValueError):
        EdgeOracle(-1)
    with pytest.raises(ValueError):
        EdgeOracle(1, Fraction(3, 2))


def test_vertices_beyond_64_bits_are_refused():
    # the recipe reads 64-bit words: 2^64 + 5 would alias 5, the non-pair {5, 5}
    o = EdgeOracle(1)
    for u, v in ((5, 2**64 + 5), (2**64 + 7, 3), (2**64, 2**64 + 1)):
        with pytest.raises(ValueError):
            o.edge(u, v)
    assert o.edge(2, 2**64 - 1) in (True, False)
    with pytest.raises(ValueError):
        type_of(o, 2**64 + 3, VertexSet.interval(1, 3))


def test_edge_probability_one_is_complete():
    o = EdgeOracle(9, Fraction(1, 1))
    assert all(o.edge(u, v) for u, v in combinations(range(1, 30), 2))


@pytest.mark.parametrize("bound", [128, 512])
def test_edge_frequency_within_3_sigma(bound):
    o = EdgeOracle(7)
    pairs = np.array(list(combinations(range(1, bound + 1), 2)), dtype=np.int64)
    freq = o.edge_pairs(pairs[:, 0], pairs[:, 1]).mean()
    sigma = math.sqrt(0.25 / len(pairs))
    assert abs(freq - 0.5) <= 3 * sigma


def test_frozen_edge_bits_against_inline_recipe():
    # independent, fully spelled-out recomputation of the normative recipe
    def inline_edge(seed, u, v):
        m = 2**64 - 1

        def fin(z):
            z &= m
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
            return z ^ (z >> 31)

        a, b = min(u, v), max(u, v)
        rot = ((b << 32) | (b >> 32)) & m
        h = fin(seed ^ fin(((a * 0x9E3779B97F4A7C15) & m) ^ rot))
        return (h >> 11) < (1 << 52)

    o = EdgeOracle(0xDEADBEEF)
    for u, v in [(1, 2), (3, 5), (10, 1000), (123456, 654321)]:
        assert o.edge(u, v) == inline_edge(0xDEADBEEF, u, v)


@given(st.integers(0, 2**64 - 1), st.lists(st.tuples(st.integers(1, 10**9), st.integers(1, 10**9)), min_size=1, max_size=30))
def test_scalar_vector_agreement(seed, pairs):
    pairs = [(u, v) for u, v in pairs if u != v]
    if not pairs:
        return
    o = EdgeOracle(seed)
    us = np.array([p[0] for p in pairs], dtype=np.int64)
    vs = np.array([p[1] for p in pairs], dtype=np.int64)
    vec = o.edge_pairs(us, vs)
    assert [o.edge(u, v) for u, v in pairs] == list(vec)


def test_threshold_exactness():
    # (h>>11) < T iff (h>>11)/2^53 < p, for both dyadic and non-dyadic p
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 7)):
        t = probability_threshold(p)
        for x in (0, 1, t - 1, t, t + 1, 2**53 - 1):
            if 0 <= x < 2**53:
                assert (x < t) == (Fraction(x, 2**53) < p)


def test_type_of_empty_base():
    t = type_of(EdgeOracle(5), 10, VertexSet.empty())
    assert t.base == () and t.mask == 0 and t.bits == ""


def test_type_of_eight_values_and_determinism():
    o = EdgeOracle(11)
    base = VertexSet.from_iterable([2, 5, 9])
    seen = set()
    for m in range(10, 300):
        t = type_of(o, m, base)
        assert t == type_of(o, m, base)
        seen.add(t.mask)
    assert seen == set(range(8))


def test_type_of_rejects_base_member():
    with pytest.raises(ValueError):
        type_of(EdgeOracle(1), 5, VertexSet.from_iterable([1, 5]))


def test_types_partition_pool():
    o = EdgeOracle(7)
    base = VertexSet.from_iterable([1, 2, 3])
    pool = VertexSet.interval(1, 1024).minus(base.elements)
    keys = row_type_keys(o, base.as_array, pool.as_array)
    counts = np.bincount(keys, minlength=8)
    assert len(counts) == 8 and counts.sum() == len(pool)
    for v, key in zip(pool.elements[:50], keys.tolist()):
        assert TypeSpec(base.elements, key) == type_of(o, v, base)


def test_types_binomial_concentration():
    o = EdgeOracle(3)
    base = VertexSet.from_iterable([1, 2, 3])
    pool = VertexSet.interval(1, 1024).minus(base.elements)
    sigma = math.sqrt(len(pool) * (1 / 8) * (7 / 8))
    sizes = np.bincount(row_type_keys(o, base.as_array, pool.as_array), minlength=8)
    assert len(sizes) == 8
    for size in sizes.tolist():
        assert abs(size - len(pool) / 8) <= 4 * sigma


def test_extension_empty_base():
    rep = extension_check(EdgeOracle(42), VertexSet.empty(), 10)
    assert rep["pass"] and rep["types"] == [{"mask": "", "witness": 1}]


def test_extension_f3_seed7_frozen_witnesses():
    rep = extension_check(EdgeOracle(7), VertexSet.interval(1, 3), 64)
    assert [t["witness"] for t in rep["types"]] == [6, 5, 21, 8, 14, 9, 4, 15]
    assert rep["pass"]
    # least-witness property, re-derived per type from raw queries
    o = EdgeOracle(7)
    for t in rep["types"]:
        w = t["witness"]
        mask = t["mask"]
        for m in range(4, w):
            if m in (1, 2, 3):
                continue
            bits = "".join("1" if o.edge(m, b) else "0" for b in (1, 2, 3))
            assert bits != mask


def test_extension_f8_bound4096_digest():
    rep = extension_check(EdgeOracle(1), VertexSet.interval(1, 8), 4096)
    ws = [t["witness"] for t in rep["types"]]
    assert rep["pass"] and len(ws) == 256
    assert max(ws) == 1634 and sum(ws) == 71029
    assert ws[:8] == [122, 519, 972, 39, 40, 31, 92, 324]


def test_extension_overcrowded_base_reports_none():
    rep = extension_check(EdgeOracle(1), VertexSet.interval(1, 12), 16)
    missing = sum(1 for t in rep["types"] if t["witness"] is None)
    assert not rep["pass"] and missing >= 4096 - 4


def test_extension_base_is_capped_before_any_allocation():
    """A bound of 10^13 candidates could not be allocated: the cap is checked
    first.  Below the cap, a key of one bit per base vertex fits an int64."""
    assert EXTENSION_BASE_CAP < 63
    for size in (EXTENSION_BASE_CAP + 1, 45):
        with pytest.raises(ValueError, match="extension base size %d exceeds EXTENSION_BASE_CAP = 20$" % size):
            extension_check(EdgeOracle(1), VertexSet.interval(1, size), 10**13)


@st.composite
def extension_cases(draw):
    """(f, bound): a base of 0-6 vertices anywhere in [1, bound], in any order."""
    bound = draw(st.integers(0, 300))
    size = draw(st.integers(0, min(6, bound)))
    return draw(st.lists(st.integers(1, max(bound, 1)), min_size=size, max_size=size, unique=True)), bound


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(["1/3", "1/2", "3/4", "1"]), extension_cases(),
       st.sampled_from([1, 3, 16]))
@example(1, "1/2", ([1, 2, 3], 300), 1)
@example(4, "1", ([1, 2, 3], 100), 16)
@example(1, "1/3", ([], 0), 1)
def test_extension_witnesses_match_the_least_witness_reference(seed, p, case, cap):
    """Chunks of 1, 3 or 16 candidates: the scan stops after the chunk that
    witnesses the last type, and every witness is still the least."""
    f, bound = case
    o = EdgeOracle(seed, p)
    with mock.patch.object(oracle, "_CHUNK", cap):
        rep = extension_check(o, VertexSet.from_iterable(f), bound)
    base = sorted(f)
    assert rep["f"] == base
    assert [t["mask"] for t in rep["types"]] == [TypeSpec(tuple(base), m).bits for m in range(1 << len(f))]
    assert [t["witness"] for t in rep["types"]] == least_witnesses(o, base, bound)
    assert rep["pass"] == all(t["witness"] is not None for t in rep["types"])


@pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("p, k", [("1/2", 12), ("1/3", 12), ("1/2", 3)])
def test_extension_matches_whole_pool_keys_at_chunk_edges(size, p, k):
    """F lies in the last chunk; at p = 1/3 the rarest of 2^12 types is never
    witnessed, so every chunk is keyed."""
    o = EdgeOracle(size, p)
    f = VertexSet.interval(size - k + 1, size)
    cands = np.arange(1, size - k + 1, dtype=np.int64)
    masks, idx = np.unique(row_type_keys(o, f.as_array, cands), return_index=True)
    want = [None] * (1 << k)
    for m, i in zip(masks.tolist(), idx.tolist()):
        want[m] = i + 1
    assert [t["witness"] for t in extension_check(o, f, size)["types"]] == want


def test_extension_stops_after_the_chunk_that_witnesses_every_type():
    """All 8 types over 3 base vertices appear in the first chunk, so that is
    the only one keyed, out of 99,997 candidates."""
    evals = []
    edge_grid = EdgeOracle.edge_grid

    def counted(self, us, pool):
        evals.append(len(us) * len(pool))
        return edge_grid(self, us, pool)

    with mock.patch.object(EdgeOracle, "edge_grid", counted):
        rep = extension_check(EdgeOracle(1), VertexSet.interval(1, 3), 100000)
    assert rep["pass"] and sum(evals) <= 3 * _CHUNK


def test_extension_builds_no_candidate_array_as_long_as_its_bound():
    """At p = 1 only the all-ones type has a witness, so every chunk of the
    10^7 candidates is keyed; as one array they would be 76 MiB of int64."""
    tracemalloc.start()
    try:
        rep = extension_check(EdgeOracle(1, 1), VertexSet.interval(1, 3), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t["witness"] for t in rep["types"]] == [None] * 7 + [4]
    assert peak < 8 * 2**20, "peak %.1f MiB" % (peak / 2**20)


def test_extension_base_outside_bound():
    with pytest.raises(ValueError):
        extension_check(EdgeOracle(1), VertexSet.from_iterable([100]), 10)


def test_induced_subgraph_empty_and_pair():
    o = EdgeOracle(6)
    assert induced_subgraph(o, VertexSet.empty()).order == 0
    g = induced_subgraph(o, VertexSet.from_iterable([17, 23]))
    assert g.order == 2
    assert g.has_edge(0, 1) == o.edge(17, 23)


def test_induced_subgraph_matches_oracle_pairwise():
    o = EdgeOracle(99)
    a = VertexSet.from_iterable(range(5, 255, 5))
    g = induced_subgraph(o, a)
    assert g.order == 50
    for i in range(g.order):
        assert not g.has_edge(i, i)
        for j in range(i + 1, g.order):
            assert g.has_edge(i, j) == g.has_edge(j, i) == o.edge(a.elements[i], a.elements[j])


def test_streams_are_counter_based():
    whole = stream_values(5, 77, 100)
    assert list(stream_values(5, 77, 40)) == list(whole[:40])
    bits = stream_bits(5, np.array([77, 78]), 100, Fraction(1, 2))
    assert list(bits[0]) == list(whole < 1 << 52)
    assert list(bits[1]) != list(bits[0])


# counts on either side of a block boundary
CHUNK_EDGES = st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), CHUNK_EDGES | st.integers(0, 3 * _CHUNK))
def test_stream_values_match_the_reference_across_chunk_edges(seed, tag, count):
    got = stream_values(seed, tag, count)
    assert got.dtype == np.uint64 and np.array_equal(got, whole_stream_matrix(seed, [tag], count)[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(["1/2", "1/3", "3/4", "1234567891/2147483648"]),
       st.sampled_from([1, 3, 16, _CHUNK]), st.sampled_from([-1, 0, 1]), st.integers(1, 3), st.booleans(),
       st.integers(0, 2**64 - 2**15))
@example(1, "1/3", _CHUNK, 1, 2, True, 0)
@example(1, "1/2", _CHUNK, -1, 1, False, 0)
def test_stream_bits_match_the_whole_stream_reference(seed, p, cap, edge, blocks, trial_shape, tag0):
    """The coins, compared block by block as the streams are filled, are
    those of the whole streams: ten-column trial rows (a block holds
    cap // 10 whole rows, or part of one row) or one long row, at sizes of
    a block edge and one either side."""
    if trial_shape:
        ntags, count = max(blocks * max(cap // 10, 1) + edge, 1), 10
    else:
        ntags, count = 1, max(blocks * cap + edge, 0)
    tags = np.uint64(tag0) + np.arange(ntags, dtype=np.uint64)
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = stream_bits(seed, tags, count, Fraction(p))
    want = whole_stream_matrix(seed, tags, count) < probability_threshold(Fraction(p))
    assert got.dtype == bool and got.shape == (ntags, count) and np.array_equal(got, want)


def test_streams_do_not_alias_ambient_edges():
    o = EdgeOracle(5)
    vals = stream_values(5, 0, 64)
    edges = [o.edge(1, v) for v in range(2, 66)]
    bits = [bool(v < (1 << 52)) for v in vals]
    assert bits != edges


def test_edge_grid_matches_edge_pairs():
    o = EdgeOracle(31)
    pool = np.arange(3, 4000, 7, dtype=np.int64)
    us = np.array([1, 10, 500, 3999], dtype=np.int64)
    grid = o.edge_grid(us, pool)
    for r, u in enumerate(us):
        ref = o.edge_pairs(np.full(len(pool), u), pool)
        same = pool != u
        assert (grid[r][same] == ref[same]).all()


# _CHUNK patched down, so that rows and filters cross chunk boundaries
SMALL_CHUNKS = st.sampled_from([1, 3, 16, _CHUNK])
THREE_COINS = st.sampled_from(["1/2", "1/3", "3/4"])


# a band of the pool around 2^32, where rotl(v, 32) is no longer v << 32
BAND = (2**32 - 40, 2**32 + 40)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), THREE_COINS, st.sets(st.integers(10, 300), max_size=120),
       st.sets(st.integers(*BAND), max_size=40),
       st.lists(st.sampled_from(["below", "above", "across"]), min_size=1, max_size=6), SMALL_CHUNKS)
@example(1, "1/2", set(range(10, 20)), set(range(*BAND)), ["across", "below", "above"], 16)
def test_edge_grid_rows_below_above_and_across_chunks_match_edge_pairs(seed, p, pool, band, where, cap):
    """A row lies below a chunk, above it or splits it, and the pool may
    reach past 2^32; every row, keyed chunk by chunk through _key_row, must
    equal its edge_pairs."""
    o = EdgeOracle(seed, p)
    pool = np.array(sorted(pool | band), dtype=np.int64)
    picks = {"below": [1, 2, 9], "above": [2**32 + 41, 2**40, 2**64 - 1],
             "across": [*range(2, 300, 7), 301, 400, 2**32 - 41, 2**32 - 1, 2**32, 2**32 + 7]}
    us = [picks[w][(seed >> 3 * i) % len(picks[w])] for i, w in enumerate(where)]
    with mock.patch.object(oracle, "_CHUNK", cap):
        grid = o.edge_grid(us, pool)
    assert grid.shape == (len(us), len(pool))
    for u, row in zip(us, grid):
        same = pool != u
        assert np.array_equal(row[same], o.edge_pairs(u, pool)[same])


@st.composite
def type_class_cases(draw):
    """(base, vertices, pick): a base of 0-70 vertices in 100..400, in any
    order; vertices below, across or above it, or none; pick is a vertex
    whose type becomes the mask, so that the class is not always empty."""
    size = draw(st.integers(0, 70))
    base = draw(st.lists(st.integers(100, 400), min_size=size, max_size=size, unique=True))
    lo, hi = draw(st.sampled_from([(1, 99), (1, 600), (401, 700), (1, 0)]))
    vertices = sorted(draw(st.sets(st.integers(lo, hi), max_size=150)) - set(base)) if lo <= hi else []
    pick = draw(st.none() | st.integers(0, max(len(vertices) - 1, 0))) if vertices else None
    return base, vertices, pick


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), THREE_COINS, type_class_cases(), st.integers(0, 2**70 - 1), SMALL_CHUNKS)
@example(1, "1/2", (list(range(100, 170)), list(range(1, 99)), 7), 0, 3)
@example(1, "1/3", ([], [], None), 0, 1)
def test_type_class_matches_type_keys_and_scalar_edges(seed, p, case, mask, cap):
    o = EdgeOracle(seed, p)
    base, vertices, pick = case
    if pick is not None:
        mask = sum(o.edge(b, vertices[pick]) << i for i, b in enumerate(base))
    mask &= (1 << len(base)) - 1
    arr = np.array(vertices, dtype=np.int64)
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = type_class(o, base, mask, arr)
    assert got.dtype == np.int64
    if len(base) <= 62:
        want = arr[row_type_keys(o, base, arr) == mask].tolist()
    else:
        want = [v for v in vertices if all(o.edge(b, v) == bool(mask >> i & 1) for i, b in enumerate(base))]
    assert got.tolist() == want
    assert pick is None or vertices[pick] in want


# sorted vertex ranges of type_class's survivors: small ones, ones across
# 2^32 (where rotl(v, 32) stops being v << 32) and ones at the top of uint64
SURVIVOR_RANGES = {"small": (10, 300), "2^32": (2**32 - 40, 2**32 + 40), "top": (2**64 - 300, 2**64 - 1)}


@st.composite
def type_class_rows_cases(draw):
    """(base, vertices): 1-5 base vertices, each below, inside (a
    non-member between the least and the largest vertex) or above the
    sorted vertices, which lie in one of SURVIVOR_RANGES."""
    lo, hi = SURVIVOR_RANGES[draw(st.sampled_from(sorted(SURVIVOR_RANGES)))]
    vertices = sorted(draw(st.sets(st.integers(lo, hi), min_size=1, max_size=80)))
    gaps = sorted(set(range(vertices[0], vertices[-1])) - set(vertices))
    picks = {
        "below": st.integers(1, vertices[0] - 1),
        "inside": st.sampled_from(gaps or [0]),
        "above": st.integers(vertices[-1] + 1, 2**64 - 1),
    }
    wheres = [w for w in picks if (w != "inside" or gaps) and (w != "above" or vertices[-1] < 2**64 - 1)]
    base = draw(st.lists(st.sampled_from(wheres).flatmap(picks.get), min_size=1, max_size=5, unique=True))
    return base, vertices


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**64 - 1), THREE_COINS, type_class_rows_cases(), st.integers(0, 31), SMALL_CHUNKS)
@example(7, "1/2", ([5, 2**40], list(range(2**32 - 3, 2**32 + 3))), 0b10, 3)
def test_type_class_rows_below_inside_and_above_match_scalar_edges(seed, p, case, mask, cap):
    """Each base vertex keys the survivors as their larger vertex below its
    split and their smaller one above it; the class equals the one read
    from scalar edges, whichever side of the survivors a base vertex lies."""
    o = EdgeOracle(seed, p)
    base, vertices = case
    mask &= (1 << len(base)) - 1
    arr = np.array(vertices, dtype=np.uint64 if vertices[-1] >= 2**63 else np.int64)
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = type_class(o, base, mask, arr)
    assert got.dtype == arr.dtype
    want = [v for v in vertices if all(o.edge(b, v) == bool(mask >> i & 1) for i, b in enumerate(base))]
    assert got.tolist() == want


@st.composite
def vertex_ranges(draw):
    """(range, base): 0-60 vertices of step 1-3, anywhere below 2^63 or
    ending at 2^63 - 1, and 0-5 base vertices near the range or anywhere."""
    size, step = draw(st.integers(0, 60)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        start = 2**63 - 1 - (size - 1) * step
    else:
        start = draw(st.integers(1, 2**63 - size * step))
    near = st.integers(max(start - 50, 1), start + size * step + 50)
    base = draw(st.lists(near | st.integers(1, 2**64 - 1), max_size=5, unique=True))
    return range(start, start + size * step, step), base


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), THREE_COINS, vertex_ranges(), st.integers(0, 31), st.sampled_from([1, 3, 16]))
@example(1, "1/2", (range(5, 5), [3]), 1, 1)
@example(1, "1/2", (range(2**63 - 40, 2**63), [2**63 - 20, 7]), 0b10, 16)
@example(2, "1/3", (range(1, 100), [50, 120]), 0b01, 3)
def test_type_class_over_a_range_equals_it_over_the_same_array(seed, p, case, mask, cap):
    """A range's vertices are built _CHUNK at a time and give the class
    that the same vertices give as an int64 array."""
    o = EdgeOracle(seed, p)
    vertices, base = case
    mask &= (1 << len(base)) - 1
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = type_class(o, base, mask, vertices)
        want = type_class(o, base, mask, np.array(list(vertices), dtype=np.int64))
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


# the default coin, three coins whose threshold T is no multiple of 2^22,
# p = 1, one p = m/2^31 and p = 1 - 2^-32, whose T is a multiple of 2^21 only
VERDICT_COINS = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3), Fraction(1),
                 Fraction(1234567891, 2**31), Fraction(2**32 - 1, 2**32)]


@pytest.mark.parametrize("p", VERDICT_COINS)
def test_verdicts_match_scalar_edges_at_every_coin(p):
    """Where T is a multiple of 2^22 the kernels read the verdict before
    mix64's last step; every batched path must still equal scalar edge."""
    early = probability_threshold(p) % (1 << 22) == 0
    assert early == (p in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(1234567891, 2**31)))
    o = EdgeOracle(2024, p)
    rng = np.random.default_rng(5)
    us = rng.integers(1, 2**40, 400)
    vs = rng.integers(1, 2**40, 400)
    want = [o.edge(int(u), int(v)) for u, v in zip(us, vs)]
    assert o.edge_pairs(us, vs).tolist() == want
    pool = np.unique(vs)
    base = [int(u) for u in us[:6]]
    assert o.edge_grid(base, pool).tolist() == [[o.edge(u, int(v)) for v in pool] for u in base]
    for mask in (0, 0b101101, 0b111111):
        expected = [v for v in pool.tolist() if all(o.edge(b, v) == bool(mask >> i & 1) for i, b in enumerate(base))]
        assert type_class(o, base, mask, pool).tolist() == expected


@pytest.mark.parametrize("p", [Fraction(2**31 - 1, 2**31), Fraction(1, 2), Fraction(2**32 - 1, 2**32)])
def test_verdicts_at_the_threshold_match_scalar_edges(p):
    """Seeds made so that the pair {3, 10}'s outer mix64 holds z right at
    the bound L = T * 2^11 before its last step, and, at p = 1 - 2^-32,
    where that step carries z across the bound: there T is a multiple of
    2^21 but not of 2^22, so reading the verdict early would be wrong."""
    t = probability_threshold(p)
    bound = t << 11
    zs = [bound - 2, bound - 1, bound % 2**64, (bound + 1) % 2**64, (bound - 1) ^ (1 << 32) - 1]
    if p == Fraction(2**32 - 1, 2**32):
        # top 31 bits set and bit 32 clear: z < L, yet z ^ (z >> 31) >= L
        flip = 2**64 - 2**33 + 12345
        assert flip < bound <= flip ^ (flip >> 31)
        zs.append(flip)
    for z in zs:
        o = EdgeOracle(seed_with_outer_z(3, 10, z), p)
        want = o.edge(3, 10)
        assert want == ((z ^ (z >> 31)) >> 11 < t)
        assert o.edge_pairs(np.array([3, 10]), np.array([10, 3])).tolist() == [want, want]
        assert o.edge_grid([3, 10], np.array([3, 10])).tolist()[0][1] == want
        # 10 above the base vertex 3, and 3 below 10, each on either side
        assert type_class(o, [3], 1, np.array([10])).tolist() == ([10] if want else [])
        assert type_class(o, [10], 0, np.array([3])).tolist() == ([] if want else [3])


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(1)])
def test_batched_kernels_are_exact_above_two_to_the_63(p):
    """int64 and uint64 inputs meet in the kernels; promoting them together
    would go through float64 and lose the low bits of these vertices, and
    of the int64 ones above 2^53."""
    o = EdgeOracle(12, p)
    big = [2**63, 2**63 + 12345, 2**64 - 1]
    small = np.array([1, 2, 3, 1000, 2**40 + 7, 2**62 + 3, 2**63 - 1], dtype=np.int64)
    for u in big:
        assert o.edge_pairs(u, small).tolist() == [o.edge(u, int(v)) for v in small]
    us = np.array((big * 3)[: len(small)], dtype=np.uint64)
    assert o.edge_pairs(us, small).tolist() == [o.edge(int(u), int(v)) for u, v in zip(us, small)]
    assert o.edge_pairs(small, us).tolist() == [o.edge(int(u), int(v)) for u, v in zip(us, small)]
    pool = np.array(sorted(big), dtype=np.uint64)
    for grid, rows, cols in ((o.edge_grid(big, small), big, small), (o.edge_grid(small, pool), small, pool)):
        assert grid.tolist() == [[o.edge(int(u), int(v)) for v in cols] for u in rows]


def test_edge_pairs_spans_several_chunks():
    o = EdgeOracle(5, Fraction(1, 3))
    ks = np.arange(7, 7 + 2 * 2**15 + 9, dtype=np.int64)
    got = o.edge_pairs(ks[:-2], ks[2:])
    picks = [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 2 * 2**15, len(got) - 1]
    assert [bool(got[i]) for i in picks] == [o.edge(int(ks[i]), int(ks[i + 2])) for i in picks]
    assert (o.edge_pairs(3, ks) == o.edge_grid([3], ks)[0]).all()


@pytest.mark.parametrize("vertices", [range(1, 66), range(1000, 1080), range(3, 3 + 7 * 80, 7)])
def test_adjacency_rows_beyond_64_vertices_match_scalar_edges(vertices):
    o = EdgeOracle(1)
    verts = np.array(vertices, dtype=np.int64)
    rows = adjacency_rows(o, verts)
    want = [sum(o.edge(u, v) << j for j, v in enumerate(vertices) if v != u) for u in vertices]
    assert rows == want
    assert adjacency_rows(o, verts, [5, 70 % len(verts)]) == [want[5], want[70 % len(verts)]]
    g = induced_subgraph(o, VertexSet.from_iterable(vertices))
    assert list(g.rows) == want



def test_adjacency_rows_span_several_blocks():
    o = EdgeOracle(4)
    verts = np.arange(5, 605, dtype=np.int64)
    grid = o.edge_grid(verts, verts)
    np.fill_diagonal(grid, False)
    want = [sum(int(bit) << j for j, bit in enumerate(row)) for row in grid]
    assert adjacency_rows(o, verts) == want
    which = [0, 255, 256, 599]
    assert adjacency_rows(o, verts, which) == [want[i] for i in which]


def test_adjacency_rows_never_hold_the_whole_grid():
    """4096 rows are 2 MiB of bitsets; the 4096 x 4096 boolean grid alone is 16 MiB."""
    tracemalloc.start()
    try:
        rows = adjacency_rows(EdgeOracle(1), np.arange(1, 4097, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 4096
    assert peak < 8 * 2**20

def test_type_bits_validated():
    assert TypeSpec.from_bits((4, 7, 9), "100").mask == 1
    assert TypeSpec.from_bits((4, 7, 9), "011").mask == 6
    assert TypeSpec.from_bits((), "").mask == 0
    for bits in ("10", "1000", "1x1", "12 "):
        with pytest.raises(ValueError):
            TypeSpec.from_bits((4, 7, 9), bits)


def test_type_of_base_beyond_64_vertices():
    o = EdgeOracle(3)
    base = VertexSet.interval(1, 100)
    t = type_of(o, 500, base)
    assert t.mask == sum(o.edge(b, 500) << i for i, b in enumerate(range(1, 101)))
