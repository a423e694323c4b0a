import json
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radolab import limits
from radolab.audit import SearchResult, contains_induced
from radolab.constructions import (
    Pi02Result,
    ThickCopyResult,
    ThickResult,
    construct_pi02_member,
    construct_thick_copy,
    construct_thick_edgeless,
)
from radolab.embed import Embedding, StepRecord, embed_target
from radolab.graphs import complete, empty_graph, path
from radolab.largeness import DensityReport, density_profile, substantial_family
from radolab.oracle import EdgeOracle
from radolab.sets import VertexSet, format_runs, load_vertex_set, parse_notation, parse_runs


def test_invariants():
    with pytest.raises(ValueError):
        VertexSet((3, 2), 5)
    with pytest.raises(ValueError):
        VertexSet((0, 1), 5)
    with pytest.raises(ValueError):
        VertexSet((1, 9), 5)
    vs = VertexSet((1, 4, 9), 10)
    assert len(vs) == 3 and 4 in vs and 5 not in vs


def test_a_set_takes_ownership_of_an_int64_array():
    # VertexSet copied every array it was handed: interval(1, 10**6) peaked at 16.2 MiB for 7.6 MiB of elements
    tracemalloc.start()
    try:
        VertexSet.interval(1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    arr = np.arange(1, 11, dtype=np.int64)
    vs = VertexSet(arr, 10)
    assert np.shares_memory(vs.as_array, arr) and not arr.flags.writeable


def test_count_upto_and_restrict():
    vs = VertexSet.from_iterable([2, 4, 6, 8, 10])
    assert vs.count_upto(5) == 2
    assert vs.count_upto(10) == 5
    assert vs.restrict(4, 8).elements == (4, 6, 8)
    assert vs.minus([4, 8]).elements == (2, 6, 10)


def test_runs_notation():
    vs = VertexSet.from_iterable([1, 2, 3, 4, 7, 9, 10, 11, 12])
    assert format_runs(vs) == "1-4,7,9-12"
    assert parse_runs("1-4,7,9-12").elements == vs.elements


@given(st.sets(st.integers(1, 200), max_size=40))
def test_runs_roundtrip(xs):
    vs = VertexSet.from_iterable(xs)
    assert parse_runs(format_runs(vs), vs.prefix_bound).elements == vs.elements


def test_parse_notation_keywords():
    assert parse_notation("all", 5).elements == (1, 2, 3, 4, 5)
    assert parse_notation("even", 10).elements == (2, 4, 6, 8, 10)
    assert parse_notation("odd", 7).elements == (1, 3, 5, 7)
    assert parse_notation("ap:3,7", 31).elements == (3, 10, 17, 24, 31)
    assert parse_notation("1-512", None).prefix_bound == 512
    with pytest.raises(ValueError):
        parse_notation("even", None)
    with pytest.raises(ValueError):
        parse_notation("5-2", None)
    with pytest.raises(ValueError):
        parse_notation("abc", 10)


def _refused_at(size, build):
    """build() is admitted by a NOTATION_SET_CAP of size and refused, with
    the count in the message, by one of size - 1."""
    with mock.patch.object(limits, "NOTATION_SET_CAP", size):
        build()
    with mock.patch.object(limits, "NOTATION_SET_CAP", size - 1):
        with pytest.raises(ValueError, match="^host set of %d elements exceeds NOTATION_SET_CAP = %d$" % (size, size - 1)):
            build()


@given(st.sampled_from(["all", "even", "odd", "ap:3,7", "ap:40,1", "ap:1,250"]), st.integers(0, 300))
def test_keyword_hosts_are_counted_before_they_are_built(text, bound):
    _refused_at(len(parse_notation(text, bound)), lambda: parse_notation(text, bound))


@given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 20)), max_size=6))
def test_runs_are_counted_by_their_summed_lengths(runs):
    """Overlapping runs count twice: the sum bounds the arrays built before they are merged."""
    text = ",".join("%d-%d" % (a, a + n) if n else str(a) for a, n in runs)
    _refused_at(sum(n + 1 for _, n in runs), lambda: parse_runs(text))


def test_file_roundtrip(tmp_path):
    vs = VertexSet.from_iterable([3, 4, 5, 9])
    p = tmp_path / "set.txt"
    p.write_text(format_runs(vs) + "\n")
    assert load_vertex_set(str(p)).elements == vs.elements
    q = tmp_path / "lines.txt"
    q.write_text("# comment\n5\n2\n11\n")
    assert load_vertex_set(str(q)).elements == (2, 5, 11)
    assert parse_notation("file:" + str(p), None).elements == vs.elements


def test_every_report_is_strict_json_keyed_by_its_fields():
    """Each result type, built by the library, turns into strict JSON whose
    keys are its dataclass fields: no tuple, vertex set or NaN is left."""
    o = EdgeOracle(1)
    emb = embed_target(o, path(3), VertexSet.interval(1, 64))
    reports = [
        contains_induced(o, VertexSet.interval(1, 20), path(3)),
        contains_induced(o, VertexSet.interval(1, 3), complete(4)),
        emb,
        emb.steps[0],
        construct_thick_edgeless(o, 2, 10**4),
        construct_thick_copy(o, empty_graph(3), 2, 10**4),
        construct_pi02_member(o, substantial_family(), 2, 10**5),
        density_profile(VertexSet((2, 4, 6), 8), [2, 8]),
    ]
    assert {type(r) for r in reports} == {
        SearchResult, Embedding, StepRecord, ThickResult, ThickCopyResult, Pi02Result, DensityReport
    }
    for r in reports:
        js = r.to_json()
        assert set(js) == {f.name for f in fields(r)}
        assert json.loads(json.dumps(js, allow_nan=False)) == js
    # unrounded: only the CLI rounds floats, when it prints them
    thirds = density_profile(VertexSet((2, 4, 6), 8), [3, 8]).to_json()
    assert thirds["densities"] == [1 / 3, 3 / 8]
