from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radolab.constructions import (
    ForcingFailed,
    PrefixExhausted,
    TypeClassEmpty,
    construct_pi02_member,
    construct_thick_copy,
    construct_thick_edgeless,
)
from radolab.graphs import FiniteGraph, complete, empty_graph, petersen, rows_from_upper_bits
from radolab.largeness import pi02_force, power_family, substantial_family, thickness, weighted_sum
from radolab.mc import _trial_graph_bits
from radolab.oracle import EdgeOracle


def scalar_scan_second_block(oracle, bound):
    """Reference scan for the first {k, k+1} with no internal edge and no
    edges to vertex 1."""
    for k in range(2, bound):
        if not oracle.edge(k, k + 1) and not oracle.edge(1, k) and not oracle.edge(1, k + 1):
            return k
    return None


# --- thick edgeless -----------------------------------------------------------

def test_single_block_is_vertex_one():
    r = construct_thick_edgeless(EdgeOracle(123), 1, 100)
    assert r.intervals == ((1, 1),)
    assert r.union.elements == (1,)


@pytest.mark.parametrize("seed", [1, 2, 3, 9])
def test_second_block_matches_reference_scan(seed):
    o = EdgeOracle(seed)
    r = construct_thick_edgeless(o, 2, 10**4)
    k = scalar_scan_second_block(o, 10**4)
    assert r.intervals == ((1, 1), (k, 2))


def test_three_blocks_verified_edgeless_and_thick():
    o = EdgeOracle(1)
    r = construct_thick_edgeless(o, 3, 10**5)
    assert r.verified
    elems = r.union.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            assert not o.edge(elems[i], elems[j])
    assert thickness(r.union)[1] >= 3
    assert [l for _, l in r.intervals] == [1, 2, 3]
    starts = [s for s, _ in r.intervals]
    assert starts == sorted(starts)


def test_blocks_disjoint_and_left_to_right():
    r = construct_thick_edgeless(EdgeOracle(4), 3, 10**5)
    prev_end = 0
    for s, l in r.intervals:
        assert s > prev_end
        prev_end = s + l - 1


def test_prefix_exhaustion_reports_block():
    with pytest.raises(PrefixExhausted) as exc:
        construct_thick_edgeless(EdgeOracle(1), 4, 10**4)
    assert exc.value.block == 4
    assert exc.value.per_candidate_probability == pytest.approx(2.0**-30)


def test_determinism_per_seed():
    a = construct_thick_edgeless(EdgeOracle(6), 3, 10**5)
    b = construct_thick_edgeless(EdgeOracle(6), 3, 10**5)
    assert a.intervals == b.intervals


def test_blocks_validation():
    with pytest.raises(ValueError):
        construct_thick_edgeless(EdgeOracle(1), 0, 100)


# --- thick copy -----------------------------------------------------------------

def test_empty_target_reduces_to_edgeless():
    o = EdgeOracle(2)
    a = construct_thick_copy(o, empty_graph(6), 3, 10**5)
    b = construct_thick_edgeless(o, 3, 10**5)
    assert a.intervals == b.intervals


def test_triangle_across_two_blocks():
    o = EdgeOracle(1)
    r = construct_thick_copy(o, complete(3), 2, 10**5)
    im = r.embedding.images
    assert len(im) == 3
    assert o.edge(im[0], im[1]) and o.edge(im[0], im[2]) and o.edge(im[1], im[2])
    assert r.intervals[0][1] == 1 and r.intervals[1][1] == 2


def test_random_six_vertex_target_twenty_seeds():
    bits = _trial_graph_bits(99, 0, 1, 15)[0]
    target = FiniteGraph(6, tuple(rows_from_upper_bits(bits, 6)))
    ok = 0
    for seed in range(1, 21):
        o = EdgeOracle(seed)
        try:
            r = construct_thick_copy(o, target, 3, 10**6)
        except PrefixExhausted:
            continue
        ok += 1
        im = r.embedding.images
        for i in range(6):
            for j in range(i + 1, 6):
                assert o.edge(im[i], im[j]) == target.has_edge(i, j)
    assert ok >= 18


def test_copy_requires_enough_target_vertices():
    with pytest.raises(ValueError):
        construct_thick_copy(EdgeOracle(1), complete(3), 3, 10**5)  # needs 6


def test_empty_copy_gives_up_with_the_edgeless_probability():
    o = EdgeOracle(1, Fraction(1, 3))
    with pytest.raises(PrefixExhausted) as thick:
        construct_thick_edgeless(o, 4, 3000)
    with pytest.raises(PrefixExhausted) as copy:
        construct_thick_copy(o, empty_graph(10), 4, 3000)
    assert copy.value.block == thick.value.block == 4
    # block 4 needs C(4,2) + 4·6 = 30 non-edges
    assert copy.value.per_candidate_probability == thick.value.per_candidate_probability == (1 - 1 / 3) ** 30


def test_mixed_target_gives_up_with_the_exact_probability():
    o, target, p = EdgeOracle(1, Fraction(1, 3)), petersen(), 1 / 3
    with pytest.raises(PrefixExhausted) as exc:
        construct_thick_copy(o, target, 4, 3000)
    j = exc.value.block
    pairs = [(u, v) for v in range(j * (j - 1) // 2, j * (j + 1) // 2) for u in range(v)]
    ones = sum(target.has_edge(u, v) for u, v in pairs)
    assert 0 < ones < len(pairs)
    assert exc.value.per_candidate_probability == pytest.approx(p**ones * (1 - p) ** (len(pairs) - ones), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
    st.integers(1, 4),
    st.integers(1, 5000),
)
def test_edgeless_is_the_thick_copy_of_the_empty_graph(seed, p, blocks, bound):
    o = EdgeOracle(seed, p)

    def outcome(construct, union_of):
        try:
            r = construct()
        except PrefixExhausted as exc:
            return exc.block, exc.per_candidate_probability, exc.union.elements
        return r.intervals, union_of(r)

    thick = outcome(lambda: construct_thick_edgeless(o, blocks, bound), lambda r: r.union.elements)
    empty = empty_graph(blocks * (blocks + 1) // 2)
    copy = outcome(lambda: construct_thick_copy(o, empty, blocks, bound), lambda r: r.embedding.images)
    assert thick == copy


# --- family member with finite components ---------------------------------------

def test_levels_zero_is_vacuous():
    r = construct_pi02_member(EdgeOracle(1), substantial_family(), 0, 1000)
    assert r.union.elements == () and r.blocks == ()


def test_level_one_certificate():
    r = construct_pi02_member(EdgeOracle(1), substantial_family(), 1, 10**4)
    assert weighted_sum(r.union) > 1
    assert r.ks[0] == 2 and r.blocks[0] == (1, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level_two_structure(seed):
    o = EdgeOracle(seed)
    fam = substantial_family()
    r = construct_pi02_member(o, fam, 2, 10**6)
    assert weighted_sum(r.union) > 2
    # re-validate certificates from the returned prefix alone
    for n in (1, 2):
        prefix = r.union.restrict(1, r.ks[n - 1])
        assert pi02_force(fam, n, prefix, r.ks[n - 1]) is not None
    # zero cross-block edges, recomputed from the oracle
    for bi in range(len(r.blocks)):
        for bj in range(bi + 1, len(r.blocks)):
            for u in r.blocks[bi]:
                for v in r.blocks[bj]:
                    assert not o.edge(u, v)
    # components confined to blocks: adjacency never leaves a block
    block_of = {v: i for i, b in enumerate(r.blocks) for v in b}
    for u in r.union:
        for v in r.union:
            if u < v and o.edge(u, v):
                assert block_of[u] == block_of[v]


def test_power_family_member():
    r = construct_pi02_member(EdgeOracle(1), power_family(0.5), 1, 10**4)
    assert sum(v**-0.5 for v in r.union) > 1


def test_type_class_empty_error():
    with pytest.raises(TypeClassEmpty) as exc:
        construct_pi02_member(EdgeOracle(1), substantial_family(), 2, 4)
    assert exc.value.level == 2


def test_forcing_failed_error():
    with pytest.raises(ForcingFailed) as exc:
        construct_pi02_member(EdgeOracle(1), substantial_family(), 2, 16)
    assert exc.value.level == 2


def test_level_three_exhausts_desk_scale():
    # the isolation class over [1, k_2] has density 2^-k_2; at this seed the
    # prefix cannot force level 3
    with pytest.raises((TypeClassEmpty, ForcingFailed)):
        construct_pi02_member(EdgeOracle(1), substantial_family(), 3, 10**6)


# An oracle seed on which level 3 succeeds at N = 10^6 because k_2 is small,
# so the third block is a large slice of the isolation class.
PI02_L3_SEED = 1887390739360951667


def test_level_three_success_verified_by_requery():
    o = EdgeOracle(PI02_L3_SEED)
    fam = substantial_family()
    r = construct_pi02_member(o, fam, 3, 10**6)
    assert r.verified and weighted_sum(r.union) > 3
    assert r.union.elements == tuple(v for b in r.blocks for v in b)
    for n in (1, 2, 3):
        prefix = r.union.restrict(1, r.ks[n - 1])
        assert pi02_force(fam, n, prefix, r.ks[n - 1]) is not None
    # block n is exactly the vertices of (k_{n-1}, k_n] with no edge into
    # [1, k_{n-1}], which holds every earlier block: no edge joins two blocks
    k_prev = 0
    for k, block in zip(r.ks, r.blocks):
        window = np.arange(k_prev + 1, k + 1, dtype=np.int64)
        isolated = np.ones(len(window), dtype=bool)
        for b in range(1, k_prev + 1):
            isolated &= ~o.edge_pairs(np.full(len(window), b), window)
        assert tuple(int(v) for v in window[isolated]) == block
        k_prev = k


# --- give-up context -------------------------------------------------------------

def test_give_ups_carry_base_size_and_union_so_far():
    o, fam = EdgeOracle(1), substantial_family()
    with pytest.raises(TypeClassEmpty) as empty:
        construct_pi02_member(o, fam, 3, 1000)
    two = construct_pi02_member(o, fam, 2, 1000)
    assert empty.value.level == 3 and empty.value.base_size == two.ks[-1] == 68
    assert str(empty.value) == (
        "type class empty before forcing at level 3 (base [1,68]; "
        "about 3.16e-18 candidates were expected in the prefix)"
    )
    with pytest.raises(ForcingFailed) as forcing:
        construct_pi02_member(o, fam, 2, 30)
    one = construct_pi02_member(o, fam, 1, 30)
    assert forcing.value.base_size == one.ks[-1] == 2 and forcing.value.union == one.union
    assert str(forcing.value) == "forcing failed at level 2 within prefix bound 30"
    with pytest.raises(ForcingFailed) as first:
        construct_pi02_member(o, fam, 1, 1)
    assert first.value.base_size == 0 and len(first.value.union) == 0


def test_prefix_exhausted_carries_union_of_placed_blocks():
    o = EdgeOracle(1)
    with pytest.raises(PrefixExhausted) as thick:
        construct_thick_edgeless(o, 4, 5000)
    assert thick.value.block == 4 and thick.value.union == construct_thick_edgeless(o, 3, 5000).union
    assert str(thick.value) == (
        "prefix exhausted at block 4 (scanned to 5000; per-candidate success probability 9.31e-10)"
    )
    with pytest.raises(PrefixExhausted) as copy:
        construct_thick_copy(o, empty_graph(10), 4, 5000)
    assert copy.value.union.elements == (1, 10, 11, 3042, 3043, 3044)
