import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radolab.embed import DeadEnd, EmbedConfig, embed_target, required_type, verify_embedding
from radolab.graphs import complete, cycle, empty_graph, path, petersen
from radolab.oracle import EdgeOracle
from radolab.sets import VertexSet


def score_candidate(oracle, host, placed, m, score_horizon=None):
    """Brute-force reference for the embedder's candidate score: the minimum
    type-class count over the 2^(|placed|+1) types over placed+m, from
    scalar edge queries.  Zero means placing m starves some class."""
    pool = [v for v in host.elements if v != m and v not in placed]
    if score_horizon is not None:
        pool = pool[:score_horizon]
    base = (*placed, m)
    if (1 << len(base)) > len(pool):
        return 0
    counts = [0] * (1 << len(base))
    for v in pool:
        counts[sum(oracle.edge(b, v) << i for i, b in enumerate(base))] += 1
    return min(counts)


def test_required_type_first_step_is_empty():
    t = required_type(complete(3), ())
    assert t.base == () and t.mask == 0


def test_required_type_complete_and_empty_targets():
    assert required_type(complete(3), (10, 20)).bits == "11"
    assert required_type(empty_graph(3), (10, 20)).bits == "00"
    assert required_type(path(3), (5, 9)).bits == "01"


def test_required_type_index_mismatch():
    with pytest.raises(ValueError, match="target has no vertex 4"):
        required_type(complete(3), (10, 20, 30))


def test_score_first_step_balanced_classes():
    o = EdgeOracle(13)
    host = VertexSet.interval(1, 1024)
    score = score_candidate(o, host, (), 5)
    # pool of 1023 splits into two classes around 511.5
    sigma = math.sqrt(1023 * 0.25)
    assert abs(score - 511.5) <= 4 * sigma
    assert score <= 1023 // 2


def test_score_pigeonhole_bound():
    o = EdgeOracle(3)
    host = VertexSet.interval(1, 64)
    placed = (1, 2, 3)
    for m in (10, 20, 30):
        n = len(placed) + 1
        pool = len(host) - len(placed) - 1
        assert 0 <= score_candidate(o, host, placed, m) <= pool // 2**n


def test_score_zero_when_classes_outnumber_pool():
    o = EdgeOracle(3)
    host = VertexSet.interval(1, 10)
    assert score_candidate(o, host, (1, 2, 3, 4), 5) == 0


def test_single_vertex_choice_matches_independent_scoring():
    o = EdgeOracle(21)
    host = VertexSet.interval(1, 128)
    emb = embed_target(o, empty_graph(1), host)
    scores = [(score_candidate(o, host, (), m), -m) for m in host.elements[:64]]
    best = max(scores)
    assert emb.images == (-best[1],)
    assert emb.steps[0].score == best[0]


def test_k4_fixture_and_reverification():
    o = EdgeOracle(7)
    emb = embed_target(o, complete(4), VertexSet.interval(1, 4096))
    assert emb.images == (35, 63, 89, 7)
    for i in range(4):
        for j in range(i + 1, 4):
            assert o.edge(emb.images[i], emb.images[j])


def test_determinism():
    o = EdgeOracle(5)
    host = VertexSet.interval(1, 512)
    a = embed_target(o, cycle(5), host)
    b = embed_target(o, cycle(5), host)
    assert a.images == b.images
    assert [s.to_json() for s in a.steps] == [s.to_json() for s in b.steps]


def test_k5_succeeds_on_twenty_seeds():
    host = VertexSet.interval(1, 4096)
    for seed in range(1, 21):
        emb = embed_target(EdgeOracle(seed), complete(5), host)
        assert emb.verified and len(emb.images) == 5


def test_petersen_verified():
    o = EdgeOracle(2)
    emb = embed_target(o, petersen(), VertexSet.interval(1, 4096))
    p = petersen()
    for i in range(10):
        for j in range(i + 1, 10):
            assert o.edge(emb.images[i], emb.images[j]) == p.has_edge(i, j)


def test_monotone_host_weak_property():
    o = EdgeOracle(11)
    emb = embed_target(o, cycle(4), VertexSet.interval(1, 256))
    # the same images remain a valid embedding inside any larger host
    verify_embedding(o, cycle(4), emb.images)


def test_dead_end_reports_step_and_type():
    o = EdgeOracle(1)
    # [1, 10, 3042] is part of a verified edgeless union for this seed
    host = VertexSet.from_iterable([1, 10, 3042])
    with pytest.raises(DeadEnd) as exc:
        embed_target(o, complete(3), host)
    assert exc.value.step == 2
    assert exc.value.required.bits == "1"
    assert exc.value.pool_remaining == 2


def test_backtracking_rescues_known_case():
    # fail-fast dead-ends here; one-step retry succeeds (found by scan)
    o = EdgeOracle(3)
    host = VertexSet.interval(1, 8)
    with pytest.raises(DeadEnd):
        embed_target(o, cycle(4), host, EmbedConfig(fail_fast=True))
    emb = embed_target(o, cycle(4), host, EmbedConfig(fail_fast=False))
    assert emb.images == (3, 2, 6, 8)
    c4 = cycle(4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert o.edge(emb.images[i], emb.images[j]) == c4.has_edge(i, j)


def test_backtracking_is_passthrough_when_no_dead_end():
    o = EdgeOracle(5)
    host = VertexSet.interval(1, 512)
    a = embed_target(o, complete(4), host, EmbedConfig(fail_fast=True))
    b = embed_target(o, complete(4), host, EmbedConfig(fail_fast=False))
    assert a.images == b.images


def test_empty_target():
    emb = embed_target(EdgeOracle(1), empty_graph(0), VertexSet.interval(1, 10))
    assert emb.images == () and emb.verified


def test_empty_host_rejected():
    with pytest.raises(ValueError):
        embed_target(EdgeOracle(1), complete(2), VertexSet.empty())


def test_type_bits_grow_with_the_placed_images():
    """Memory follows the images placed, not the target's order: a
    1000-vertex target dead-ends after 16 images on a 10^5-vertex host."""
    tracemalloc.start()
    try:
        with pytest.raises(DeadEnd) as info:
            embed_target(EdgeOracle(1), empty_graph(1000), VertexSet.interval(1, 100000), EmbedConfig(candidate_cap=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.step == 17
    assert peak < 40 * 2**20


def test_scoring_holds_one_key_row_at_a_time():
    """Each candidate is scored on its own int64 key row: no key is held
    per (candidate, scoring-pool vertex) pair on a 3 * 10^5-vertex host."""
    tracemalloc.start()
    try:
        emb = embed_target(EdgeOracle(1), complete(4), VertexSet.interval(1, 300000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emb.images == (58, 4, 178, 257)
    assert peak < 64 * 2**20


def test_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(candidate_cap=0)
    with pytest.raises(ValueError):
        EmbedConfig(score_horizon=0)


def test_score_horizon_limits_pool():
    o = EdgeOracle(9)
    host = VertexSet.interval(1, 256)
    full = score_candidate(o, host, (), 7)
    small = score_candidate(o, host, (), 7, score_horizon=16)
    assert small <= 16 // 2
    assert full > small


def test_step_records_expose_config_trace():
    emb = embed_target(EdgeOracle(4), path(3), VertexSet.interval(1, 256))
    assert [s.index for s in emb.steps] == [1, 2, 3]
    assert emb.steps[1].required_type in ("0", "1")
    js = emb.to_json()
    assert js["verified"] and len(js["steps"]) == 3


@settings(max_examples=100)
@given(
    seed=st.integers(1, 2**32),
    host_seed=st.integers(0, 2**32),
    host_size=st.integers(40, 300),
    target=st.sampled_from([empty_graph(3), complete(3), path(4), cycle(4)]),
    cap=st.sampled_from([1, 5, 64]),
    horizon=st.sampled_from([None, 4, 8, 16, 17, 33]),
    fail_fast=st.booleans(),
)
def test_step_scores_match_reference(seed, host_seed, host_size, target, cap, horizon, fail_fast):
    """Every recorded score is the reference score of the chosen vertex over
    the images placed before it, with or without a score horizon."""
    o = EdgeOracle(seed)
    drawn = np.random.default_rng(host_seed).choice(np.arange(1, 4 * host_size + 1), host_size, replace=False)
    host = VertexSet.from_iterable(drawn.tolist())
    try:
        emb = embed_target(o, target, host, EmbedConfig(candidate_cap=cap, score_horizon=horizon, fail_fast=fail_fast))
    except DeadEnd:
        return
    for k, step in enumerate(emb.steps):
        assert step.chosen == emb.images[k]
        assert step.score == score_candidate(o, host, emb.images[:k], step.chosen, horizon)
