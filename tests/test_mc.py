import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import complement, gfree_flags, row_type_keys, whole_stream_matrix

from radolab import mc, oracle
from radolab.graphs import (
    _relabelings,
    canonical_form,
    complete,
    cycle,
    empty_graph,
    enumerate_unlabeled,
    find_induced,
    path,
    rows_from_upper_bits,
)
from radolab.limits import FN_POWER_BITS_CAP
from radolab.mc import (
    _gfree_flags,
    _trial_graph_bits,
    exact_gfree_count,
    fn_size,
    mc_density_star,
    mc_fn_bound,
    mc_gfree_probability,
    sample_mu_p,
    type_frequency_check,
)
from radolab.oracle import (
    _CHUNK,
    TAG_MU_P,
    TAG_TRIAL_GRAPHS,
    EdgeOracle,
    TypeSpec,
    probability_threshold,
    stream_values,
)
from radolab.sets import VertexSet


# --- density of type-avoiding vertices ---------------------------------------

# k = 64 is more base vertices than a type key holds
@pytest.mark.parametrize("k,n,target", [(1, 1, 0.5), (2, 2, 0.5625), (3, 1, 0.875), (64, 1, 1.0)])
def test_density_star_formula_targets(k, n, target):
    assert (1 - 0.5**k) ** n == pytest.approx(target)
    r = mc_density_star(1, k, n, 10**4, 20)
    assert r["target"] == pytest.approx(target)
    assert abs(r["estimate"] - target) <= 3 * r["stderr"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 100), st.sampled_from([1, 3, 16]))
def test_density_star_trial_values_match_type_keys(seed, k, n, pool_size, cap):
    """Pools cross chunks of 1, 3 or 16 vertices; a pool vertex is unmarked
    when no base's all-ones key is its key."""
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = mc_density_star(seed, k, n, pool_size, 2)["trial_values"]
    pool = np.arange(n * k + 1, n * k + pool_size + 1, dtype=np.int64)
    want = []
    for t in range(2):
        o = EdgeOracle((seed + t) % 2**64)
        marked = np.zeros(pool_size, dtype=bool)
        for i in range(n):
            marked |= row_type_keys(o, range(i * k + 1, (i + 1) * k + 1), pool) == (1 << k) - 1
        want.append(float((~marked).mean()))
    assert got == want


def test_density_star_validation():
    with pytest.raises(ValueError):
        mc_density_star(1, 2, 2, 0, 20)
    with pytest.raises(ValueError):
        mc_density_star(1, 0, 1, 100, 20)
    with pytest.raises(ValueError):
        mc_density_star(1, 1, 1, 100, 1)


# --- exact pattern-free counting ----------------------------------------------

def brute_gfree_probability(pattern, n):
    """Independent oracle: scan every labeled graph, test every subset by
    permutation matching."""
    from itertools import permutations

    npairs = n * (n - 1) // 2
    r = pattern.order
    free = 0
    for mask in range(1 << npairs):
        rows = [0] * n
        p = 0
        hit = False
        for j in range(1, n):
            for i in range(j):
                if mask >> p & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                p += 1
        for sub in combinations(range(n), r):
            for perm in permutations(range(r)):
                if all(
                    bool(rows[sub[a]] >> sub[b] & 1) == pattern.has_edge(perm[a], perm[b])
                    for a in range(r)
                    for b in range(a + 1, r)
                ):
                    hit = True
                    break
            if hit:
                break
        free += not hit
    return Fraction(free, 1 << npairs)


def test_k2_free_probability_closed_form():
    for n in range(2, 7):
        got = exact_gfree_count(complete(2), n)["probability"]
        assert got == Fraction(1, 2 ** (n * (n - 1) // 2))


def test_k3_free_on_four_vertices_is_41_64():
    assert exact_gfree_count(complete(3), 4)["probability"] == Fraction(41, 64)
    assert brute_gfree_probability(complete(3), 4) == Fraction(41, 64)


@pytest.mark.parametrize("pattern", [complete(3), path(3), empty_graph(2)])
def test_exact_matches_independent_brute_force(pattern):
    for n in (3, 4):
        assert exact_gfree_count(pattern, n)["probability"] == brute_gfree_probability(pattern, n)


def test_k3_free_probability_strictly_decreases():
    vals = [exact_gfree_count(complete(3), n)["probability"] for n in range(3, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exact_bounds():
    with pytest.raises(ValueError):
        exact_gfree_count(complete(2), 8)
    with pytest.raises(ValueError):
        exact_gfree_count(complete(4), 3)


@pytest.mark.parametrize("pattern", [g for k in range(1, 5) for g in enumerate_unlabeled(k)], ids=canonical_form)
def test_catalog_table_matches_subset_scan(pattern):
    for n in range(pattern.order, 7):
        assert np.array_equal(_gfree_flags(pattern, n), gfree_flags(pattern, n))


def test_triangle_free_counts_match_oeis_a006785():
    assert [int(_gfree_flags(complete(3), n).sum()) for n in (5, 6, 7)] == [388, 5789, 133501]


def test_exact_counts_at_seven_vertices_match_subset_scan():
    for pattern in (complete(3), path(4), cycle(5)):
        flags = gfree_flags(pattern, 7)
        got = exact_gfree_count(pattern, 7)
        assert (got["count"], got["total"]) == (int(flags.sum()), 1 << 21)
        assert np.array_equal(_gfree_flags(pattern, 7), flags)


def test_complement_symmetry_all_order_four_patterns():
    for k in range(1, 5):
        for g in enumerate_unlabeled(k):
            a = exact_gfree_count(g, 5)["probability"]
            b = exact_gfree_count(complement(g), 5)["probability"]
            assert a == b


# --- Monte Carlo pattern-free estimates -----------------------------------------

def test_mc_within_three_stderr_of_exact_over_master_seeds():
    for pattern in (complete(3), path(3)):
        exact = float(exact_gfree_count(pattern, 5)["probability"])
        for seed in range(1, 11):
            r = mc_gfree_probability(pattern, 5, 20000, seed)
            assert abs(r["estimate"] - exact) <= 3 * max(r["stderr"], 1e-9)


TABLE_PATTERNS = [g for k in range(1, 5) for g in enumerate_unlabeled(k)] + [
    complete(5), cycle(5), empty_graph(6), complete(7), cycle(7)
]


@given(st.sampled_from(TABLE_PATTERNS), st.sampled_from([6, 7]), st.integers(0, 2**64 - 1), st.integers(1, 300))
@example(complete(3), 7, 1, 300)
@example(cycle(7), 7, 2, 300)
def test_table_verdicts_match_a_search_of_every_trial(pattern, n, seed, trials):
    """At n <= EXACT_N_CAP the trials are read from the exact table; each
    verdict is the one a search of the trial's rows gives, so the estimate
    is that of one search per trial."""
    assume(pattern.order <= n)
    bits = _trial_graph_bits(seed, trials, math.comb(n, 2))
    rows = rows_from_upper_bits(bits, n)
    searched = [find_induced(rows[t : t + n], (1 << n) - 1, pattern)[0] is None for t in range(0, len(rows), n)]
    flags = _gfree_flags(pattern, n)
    assert flags[(bits @ _relabelings(n)[:, 0]).astype(np.intp)].tolist() == searched
    r = mc_gfree_probability(pattern, n, trials, seed)
    assert r["estimate"] == float(np.array(searched).mean())
    assert r["exact"] == Fraction(int(flags.sum()), 1 << math.comb(n, 2))


def test_mc_envelope_field():
    r = mc_gfree_probability(complete(3), 8, 500, 1, c=0.01)
    assert r["envelope"] == pytest.approx(2 ** (-0.01 * 64))
    assert "exact" not in r


def test_mc_large_n_path_uses_backtracking():
    r = mc_gfree_probability(complete(4), 12, 200, 3)
    assert 0 <= r["estimate"] <= 1


def test_trial_graphs_reproducible_from_seed_and_index():
    a = _trial_graph_bits(9, 5, 10)
    assert (a[:4] == _trial_graph_bits(9, 4, 10)).all()
    assert list(a[3]) == list(stream_values(9, TAG_TRIAL_GRAPHS + 3, 10) < 1 << 52)


def test_trial_graph_bits_hold_no_whole_stream():
    """10^6 trials of 10 pairs are 9.5 MiB of coins, next to 7.6 MiB of
    tags; their uint64 stream alone is 76 MiB, and the keys of every tag at
    once with their scratch would be 15 MiB more."""
    tracemalloc.start()
    try:
        bits = _trial_graph_bits(1, 10**6, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.shape == (10**6, 10)
    assert peak < 24 * 2**20, "peak %.1f MiB" % (peak / 2**20)


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_gfree_probability(complete(2), 33, 10, 1)
    with pytest.raises(ValueError):
        mc_gfree_probability(empty_graph(8), 9, 10, 1)


# --- the log-sized subset bound ---------------------------------------------------

def test_fn_size_at_powers_of_two():
    for n_param in (1, 2, 3):
        for k in (1, 2, 3, 4):
            assert fn_size(2**k, n_param) == k * n_param


def test_fn_size_is_the_least_power_of_two_above_n_to_the_n():
    for n in range(2, 1 << 12):
        m = 0
        for n_param in range(33):
            power = n**n_param
            while (1 << m) < power:
                m += 1
            assert fn_size(n, n_param) == m
    assert fn_size(1, 10**23) == 0


def test_fn_size_refuses_negative_and_huge_exponents():
    for n, n_param in ((8, -1), (3, 2**20), (2**64, 2**12)):
        with pytest.raises(ValueError):
            fn_size(n, n_param)
    assert fn_size(2, FN_POWER_BITS_CAP) == FN_POWER_BITS_CAP


def test_fn_degenerate_cases():
    rows = mc_fn_bound(complete(2), [8], 99, 10, 1)
    assert rows[0]["estimate"] == 0.0 and rows[0]["mode"] == "degenerate"
    rows = mc_fn_bound(complete(2), [1], 3, 10, 1)
    assert rows[0]["estimate"] == 1.0


def test_fn_k2_matches_subset_scan_oracle():
    """f=3 for n=8, N=1: compare against a literal scan of all 56 triples
    on the same sampled graphs."""
    trials = 60
    rows = mc_fn_bound(complete(2), [8], 1, trials, 7)
    bits = _trial_graph_bits(7, trials, 28)
    wins = 0
    for t in range(trials):
        g = rows_from_upper_bits(bits[t], 8)
        has = any(
            not (g[a] >> b & 1) and not (g[a] >> c & 1) and not (g[b] >> c & 1)
            for a, b, c in combinations(range(8), 3)
        )
        wins += has
    assert rows[0]["estimate"] == pytest.approx(wins / trials)
    assert rows[0]["mode"] == "exact"


def test_fn_envelope_value():
    rows = mc_fn_bound(complete(2), [8], 1, 5, 1)
    assert rows[0]["envelope"] == pytest.approx(8.0 ** -6)


def test_fn_greedy_mode_beyond_exact_cap():
    rows = mc_fn_bound(complete(2), [20], 1, 5, 1)
    assert rows[0]["mode"] == "greedy-lower-bound"


# --- product measure ---------------------------------------------------------------

def test_mu_p_half_size_band():
    vs = sample_mu_p(Fraction(1, 2), 10**4, 1)
    assert abs(len(vs) - 5000) <= 3 * math.sqrt(10**4 / 4)


def test_mu_p_reproducible_and_validated():
    a = sample_mu_p("1/4", 1000, 5)
    b = sample_mu_p(Fraction(1, 4), 1000, 5)
    assert a.elements == b.elements
    with pytest.raises(ValueError):
        sample_mu_p(Fraction(1, 1), 10, 1)
    with pytest.raises(ValueError, match="prefix bound must be non-negative"):
        sample_mu_p(Fraction(1, 2), -1, 1)


def test_mu_p_quarter_band():
    vs = sample_mu_p(Fraction(1, 4), 10**4, 2)
    sigma = math.sqrt(10**4 * 0.25 * 0.75)
    assert abs(len(vs) - 2500) <= 3 * sigma


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(["1/2", "1/3", "3/4", "1234567891/2147483648"]),
       st.sampled_from([1, 3, 16, _CHUNK]), st.sampled_from([-1, 0, 1]), st.integers(1, 3))
@example(1, "1/2", _CHUNK, -1, 1)
@example(1, "1/3", _CHUNK, 1, 2)
def test_mu_p_members_match_the_whole_stream(seed, p, cap, edge, blocks):
    """The stream is compared block by block as it is filled; the members
    are those of the whole stream, at bounds of a block edge and one
    either side."""
    bound = max(blocks * cap + edge, 0)
    with mock.patch.object(oracle, "_CHUNK", cap):
        got = sample_mu_p(p, bound, seed)
    stream = whole_stream_matrix(seed, [TAG_MU_P], bound)[0]
    want = np.flatnonzero(stream < probability_threshold(Fraction(p))) + 1
    assert got.prefix_bound == bound and np.array_equal(got.as_array, want)


# --- type frequency ------------------------------------------------------------------

def _indicator_typefreq(o, f, mask, bound):
    """count and runs from a boolean indicator over the whole pool, as the
    runs test defines them."""
    pool = np.arange(f[-1] + 1, bound + 1, dtype=np.int64)
    indicator = row_type_keys(o, f, pool) == mask
    runs = 1 + int((indicator[1:] != indicator[:-1]).sum()) if len(pool) > 1 else 1
    return int(indicator.sum()), runs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(["1/2", "1/3", "3/4"]), st.integers(1, 4),
       st.integers(1, 60), st.integers(0, 15), st.sampled_from([1, 3, 16]))
@example(0, "1/2", 1, 1, 0, 1)
def test_type_frequency_count_and_runs_match_the_indicator(seed, p, k, width, mask, cap):
    """Counted from the sorted class members alone: a member block at
    either end of the pool has one edge inside it, any other two.  Pools of
    1-60 vertices make end blocks and single-vertex pools common."""
    o = EdgeOracle(seed, p)
    f = VertexSet.interval(1, k)
    mask &= (1 << k) - 1
    with mock.patch.object(oracle, "_CHUNK", cap):
        r = type_frequency_check(o, f, TypeSpec(f.elements, mask), k + width)
    count, runs = _indicator_typefreq(o, f.as_array, mask, k + width)
    assert (r["total"], r["count"], r["runs"]["observed"]) == (width, count, runs)
    assert type(r["runs"]["observed"]) is int and type(r["count"]) is int


def test_type_frequency_expected_sixteenth():
    o = EdgeOracle(1)
    f = VertexSet.interval(1, 4)
    r = type_frequency_check(o, f, TypeSpec(f.elements, 15), 10**5)
    assert r["expected"] == pytest.approx(1 / 16)
    assert r["band_ok"]
    assert abs(r["runs"]["z"]) < 4


def test_type_frequency_all_masks_same_expectation():
    o = EdgeOracle(2)
    f = VertexSet.interval(1, 2)
    for mask in range(4):
        r = type_frequency_check(o, f, TypeSpec(f.elements, mask), 10**4)
        assert r["expected"] == pytest.approx(0.25)
        assert r["band_ok"]


def test_type_frequency_two_halves_consistent():
    o = EdgeOracle(3)
    f = VertexSet.interval(1, 2)
    t = TypeSpec(f.elements, 3)
    whole = type_frequency_check(o, f, t, 10**5)
    # split manually: counts over (2, 50001] and (50001, 10^5]
    pool = np.arange(3, 10**5 + 1)
    keys = np.zeros(len(pool), dtype=np.int64)
    for i, b in enumerate(f.elements):
        keys |= o.edge_many(b, pool).astype(np.int64) << i
    ind = keys == 3
    half = len(pool) // 2
    f1, f2 = ind[:half].mean(), ind[half:].mean()
    p = 0.25
    joint_sigma = math.sqrt(2 * p * (1 - p) / half)
    assert abs(f1 - f2) <= 3 * joint_sigma
    assert whole["count"] == int(ind.sum())


def test_type_frequency_builds_no_pool_as_long_as_its_bound():
    """The pool (4, 10^7] is a range, built a chunk at a time: as one array
    it would be 76 MiB of int64, for a class of about 5 MiB."""
    f = VertexSet.interval(1, 4)
    tracemalloc.start()
    try:
        r = type_frequency_check(EdgeOracle(1), f, TypeSpec(f.elements, 0b0101), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r["total"] == 10**7 - 4 and r["band_ok"]
    assert peak < 32 * 2**20, "peak %.1f MiB" % (peak / 2**20)


@pytest.mark.parametrize("k, bound", [(0, 1), (3, 40), (4, 4 + 2 * _CHUNK)])
def test_type_frequency_pool_is_capped_like_a_host_set(k, bound):
    """A NOTATION_SET_CAP of the pool's size admits it; one less refuses it,
    by name and with the pool's size."""
    f = VertexSet.interval(1, k)
    t = TypeSpec(f.elements, 0)
    size = bound - k
    with mock.patch.object(mc, "NOTATION_SET_CAP", size):
        assert type_frequency_check(EdgeOracle(1), f, t, bound)["total"] == size
    with mock.patch.object(mc, "NOTATION_SET_CAP", size - 1):
        with pytest.raises(ValueError, match="^pool of %d vertices exceeds NOTATION_SET_CAP = %d$" % (size, size - 1)):
            type_frequency_check(EdgeOracle(1), f, t, bound)


def test_type_frequency_requires_matching_base():
    with pytest.raises(ValueError):
        type_frequency_check(EdgeOracle(1), VertexSet.interval(1, 2), TypeSpec((1, 3), 0), 100)
