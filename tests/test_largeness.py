import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radolab.largeness import (
    WeightFunction,
    density_profile,
    dyadic_checkpoints,
    longest_ap,
    pi02_force,
    substantial_family,
    thickness,
    weighted_sum,
)
from radolab.sets import VertexSet

subsets_of_12 = st.sets(st.integers(1, 12))


# --- density ----------------------------------------------------------------

def test_density_full_interval():
    a = VertexSet.interval(1, 100)
    rep = density_profile(a, [10, 50, 100])
    assert all(d == 1.0 for d in rep.densities)
    assert rep.sup_density == rep.final_density == 1.0


def test_density_evens():
    a = VertexSet(tuple(range(2, 1001, 2)), 1000)
    rep = density_profile(a, [10, 100, 1000])
    assert list(rep.densities) == [0.5, 0.5, 0.5]


def test_density_alternating_dyadic_blocks():
    # union of [4^k, 2*4^k) up to 2^14; counts recomputed directly here
    elems = [n for n in range(1, 2**14 + 1) if (n.bit_length() - 1) % 2 == 0]
    a = VertexSet(tuple(elems), 2**14)
    points = dyadic_checkpoints(2**14)
    rep = density_profile(a, points)
    assert rep.checkpoints == tuple(points)
    for n, d in zip(rep.checkpoints, rep.densities):
        assert d == sum(1 for e in elems if e <= n) / n
    assert rep.sup_density >= 0.5
    assert rep.final_density <= 2 / 3


def test_density_errors():
    a = VertexSet.interval(1, 10)
    with pytest.raises(ValueError):
        density_profile(a, [])
    with pytest.raises(ValueError):
        density_profile(a, [5, 5])
    with pytest.raises(ValueError):
        density_profile(a, [5, 11])


def test_density_refinement_monotone():
    a = VertexSet.from_iterable([1, 2, 3, 10, 11, 40], 64)
    coarse = density_profile(a, [8, 64]).sup_density
    fine = density_profile(a, [2, 4, 8, 16, 32, 64]).sup_density
    assert fine >= coarse


# --- weighted sums ----------------------------------------------------------

def test_weighted_sum_examples():
    assert weighted_sum(VertexSet.from_iterable([1, 2, 4])) == 1.75
    assert weighted_sum(VertexSet.empty()) == 0.0


def test_weighted_sum_harmonic_million():
    total = weighted_sum(VertexSet.interval(1, 10**6))
    assert abs(total - (math.log(10**6) + 0.5772156649)) <= 1e-3


def test_weighted_sum_power():
    w = WeightFunction(0.5)
    got = weighted_sum(VertexSet.from_iterable([1, 4, 9]), w)
    assert abs(got - (1 + 0.5 + 1 / 3)) < 1e-12


@given(st.sets(st.integers(1, 500), max_size=30), st.sets(st.integers(501, 1000), max_size=30))
def test_weighted_sum_additive_over_disjoint_unions(xs, ys):
    a, b = VertexSet.from_iterable(xs), VertexSet.from_iterable(ys)
    u = VertexSet.from_iterable(set(xs) | set(ys))
    assert abs(weighted_sum(u) - (weighted_sum(a) + weighted_sum(b))) < 1e-12
    assert weighted_sum(u) >= weighted_sum(a)


# vertices drawn from every binade below 2^63, so the weights span many exponents
SPREAD = st.integers(0, 62).flatmap(lambda b: st.integers(1 << b, (1 << (b + 1)) - 1))
EXPONENTS = st.floats(0, 1, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(SPREAD, max_size=200), EXPONENTS)
@example([], 1.0)
@example([1], 1.0)
@example([7], 0.3)
@example([2**62 + 1], 1e-300)
@example([1, 2**53], 1.0)  # 1 + 2^-53 is a tie and rounds to even, 1.0
@example([1, 2**53, 2**54], 1.0)  # just above the tie, so 1 + 2^-52
def test_weighted_sum_equals_fsum_exactly(xs, e):
    a, w = VertexSet.from_iterable(xs), WeightFunction(e)
    assert weighted_sum(a, w) == math.fsum(w.weights(a.as_array))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2**40), st.integers(0, 2**32), EXPONENTS | st.just(1.0))
def test_weighted_sum_equals_fsum_on_large_sets(lo, draw, e):
    xs = np.random.default_rng(draw).integers(lo, 2 * lo + 10**5, 5000)
    a, w = VertexSet.from_iterable(xs.tolist()), WeightFunction(e)
    assert weighted_sum(a, w) == math.fsum(w.weights(a.as_array))


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction(0)
    with pytest.raises(ValueError):
        WeightFunction(1.5)


# --- thickness and progressions ---------------------------------------------

def brute_thickness(xs):
    xs = sorted(xs)
    best = (0, 0)
    for start in xs:
        length = 0
        while start + length in xs:
            length += 1
        if length > best[1]:
            best = (start, length)
    return best


def test_thickness_examples():
    assert thickness(VertexSet.from_iterable([5, 6, 7, 8, 9, 20])) == (5, 5)
    assert thickness(VertexSet(tuple(range(2, 50, 2)), 50)) == (2, 1)
    assert thickness(VertexSet.empty()) == (0, 0)


def test_longest_ap_examples():
    assert longest_ap(VertexSet.from_iterable([1, 3, 5, 7])) == (1, 2, 4)
    assert longest_ap(VertexSet.from_iterable([1, 2, 4, 8, 16])) == (1, 1, 2)
    assert longest_ap(VertexSet.interval(10, 20)) == (10, 1, 11)
    assert longest_ap(VertexSet.empty()) == (0, 0, 0)
    assert longest_ap(VertexSet.from_iterable([9])) == (9, 0, 1)


def brute_ap(xs):
    """All maximum APs by scanning every (first, second) pair."""
    xs = sorted(xs)
    s = set(xs)
    if not xs:
        return 0, []
    if len(xs) == 1:
        return 1, [(xs[0], 0)]
    best_len = 1
    best: list[tuple[int, int]] = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            a, d = xs[i], xs[j] - xs[i]
            length = 2
            while a + length * d in s:
                length += 1
            if length > best_len:
                best_len, best = length, [(a, d)]
            elif length == best_len:
                best.append((a, d))
    return best_len, best


@given(st.one_of(subsets_of_12, st.sets(st.integers(1, 2**63 - 1), max_size=12)))
@example({1, 2**62, 2**63 - 1})
@example({2**63 - 3, 2**63 - 2, 2**63 - 1, 5})
def test_thickness_and_ap_match_brute_force(xs):
    vs = VertexSet.from_iterable(xs)
    assert thickness(vs) == brute_thickness(xs)
    start, diff, length = longest_ap(vs)
    blen, bests = brute_ap(xs)
    assert length == blen
    if length >= 2:
        # returned AP is contained in the set and optimal under the tie-break
        assert all(start + t * diff in xs for t in range(length))
        assert (diff, start) == min((d, a) for a, d in bests)


def test_full_brute_force_on_interval_subsets():
    # every subset of [1,12]: 4096 cases for both checkers
    for mask in range(1 << 12):
        xs = {i + 1 for i in range(12) if mask >> i & 1}
        vs = VertexSet.from_iterable(xs)
        assert thickness(vs) == brute_thickness(xs)
        assert longest_ap(vs)[2] == brute_ap(xs)[0]


def test_longest_ap_size_cap():
    with pytest.raises(ValueError):
        longest_ap(VertexSet.interval(1, 5001))


# --- forcing ----------------------------------------------------------------

def test_force_least_crossing():
    fam = substantial_family()
    # partial sums: 1, 1.5, 1.833..., 2.083...; level 1 crosses at 2
    assert pi02_force(fam, 1, VertexSet.interval(1, 4), 100) == 2
    # H_3 <= 2 < H_4
    assert pi02_force(fam, 2, VertexSet.interval(1, 31), 100) == 4
    assert pi02_force(fam, 3, VertexSet.from_iterable([1]), 10**6) is None


def test_force_respects_horizon():
    fam = substantial_family()
    assert pi02_force(fam, 1, VertexSet.interval(1, 100), 1) is None
    assert pi02_force(fam, 1, VertexSet.interval(1, 100), 2) == 2


def test_force_power_family():
    fam = WeightFunction(0.5)
    # weights 1, 1/sqrt(2), ...: crosses level 1 at 2
    assert pi02_force(fam, 1, VertexSet.interval(1, 10), 10) == 2


@given(
    st.sets(st.integers(1, 60), min_size=1, max_size=25),
    st.sets(st.integers(61, 120), max_size=10),
    st.integers(1, 3),
)
def test_force_monotone_under_extension(prefix, extra, level):
    """Forcing at (prefix, k') still forces for supersets agreeing below k'."""
    fam = substantial_family()
    a = VertexSet.from_iterable(prefix)
    k = pi02_force(fam, level, a, 200)
    if k is None:
        return
    b = VertexSet.from_iterable(set(prefix) | {e for e in extra if e > k})
    k2 = pi02_force(fam, level, b, 200)
    assert k2 is not None and k2 <= k


def test_density_report_json_fields():
    rep = density_profile(VertexSet.interval(1, 8), [2, 8])
    js = rep.to_json()
    assert set(js) == {"checkpoints", "densities", "sup_density", "final_density"}
