"""Property tests of the array-native fast paths against pure-Python
references written here: VertexSet against a tuple-backed set, thickness
and run notation against element loops.  The induced-pattern matcher (the
induced-copy search, anchored or not and listing every copy, and the
Monte Carlo estimate built on it) is checked
against exhaustive search, and so are greedy and exact pattern-free
growth.  Also pins the names the benchmark tracer wraps by name, every
radolab name the benchmark reads, that every library name has a caller,
that every limit is defined once, in radolab.limits, and listed in the
README with its value, that only the oracle turns a stream value into
a coin, that each give-up carries its own exit-3 record, and that argparse
converts with nothing but Python's int and float."""

import argparse
import ast
import importlib.util
import inspect
import pathlib
import re
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import bad_subsets, contains_induced_copy, from_upper_mask, greedy_gfree, induced, subset_code

import radolab.cli  # noqa: F401  (the tracer wraps every layer, cli included)
from radolab import limits
from radolab.audit import _exact_gfree, _greedy_gfree
from radolab.graphs import FiniteGraph, canonical_form, empty_graph, enumerate_unlabeled, find_induced
from radolab.largeness import WeightFunction, pi02_force, substantial_family, thickness
from radolab.mc import _trial_graph_bits, mc_gfree_probability
from radolab.oracle import EdgeOracle, GiveUp
from radolab.sets import VertexSet, format_runs, parse_runs


class TupleSet:
    """Reference: the tuple-backed set, validated element by element."""

    def __init__(self, elements, prefix_bound):
        prev = 0
        for e in elements:
            if e <= prev:
                raise ValueError("elements must be strictly increasing and >= 1")
            prev = e
        if elements and elements[-1] > prefix_bound:
            raise ValueError("element %d exceeds prefix bound %d" % (elements[-1], prefix_bound))
        if prefix_bound < 0:
            raise ValueError("prefix bound must be non-negative")
        self.elements = tuple(elements)
        self.prefix_bound = prefix_bound


def ref_runs(elems):
    runs = []
    for e in elems:
        if runs and runs[-1][1] + 1 == e:
            runs[-1][1] = e
        else:
            runs.append([e, e])
    return runs


def outcome(make):
    try:
        return make().elements
    except ValueError as exc:
        return str(exc)


raw_lists = st.lists(st.integers(-3, 60), max_size=12)
bounds = st.integers(-2, 70)
sets_ = st.builds(lambda xs, extra: VertexSet.from_iterable(xs, max(xs, default=0) + extra),
                  st.sets(st.integers(1, 80), max_size=30), st.integers(0, 5))


@given(raw_lists, bounds)
def test_construction_matches_reference(xs, bound):
    assert outcome(lambda: VertexSet(tuple(xs), bound)) == outcome(lambda: TupleSet(tuple(xs), bound))
    assert outcome(lambda: VertexSet(np.array(xs, dtype=np.int64), bound)) == outcome(lambda: TupleSet(tuple(xs), bound))


def test_construction_rejects_out_of_range_and_nested_input():
    with pytest.raises(ValueError):
        VertexSet((1, 2**70), 2**71)
    with pytest.raises(ValueError):
        VertexSet(((1, 2), (3, 4)), 5)
    with pytest.raises(ValueError):
        parse_runs("1-99999999999999999999")


@given(st.lists(st.integers(1, 40), max_size=30))
@example([])
@example([5, 3, 5, 1, 3])
def test_from_iterable_matches_reference(xs):
    got = VertexSet.from_iterable(xs)
    assert got.elements == tuple(sorted(set(xs)))
    assert got.prefix_bound == max(xs, default=0)
    assert VertexSet.from_iterable(np.array(xs, dtype=np.int64), 50).elements == got.elements


@given(sets_, sets_)
def test_union_matches_reference(a, b):
    got = a.union(b)
    assert got.elements == tuple(sorted(set(a.elements) | set(b.elements)))
    assert got.prefix_bound == max(a.prefix_bound, b.prefix_bound)


@given(sets_, st.lists(st.integers(-5, 90), max_size=20))
def test_minus_matches_reference(a, drop):
    want = tuple(e for e in a.elements if e not in set(drop))
    assert a.minus(drop).elements == want
    assert a.minus(VertexSet.from_iterable([d for d in drop if d >= 1])).elements == want
    assert a.minus(drop).prefix_bound == a.prefix_bound


@given(sets_, st.integers(-5, 90), st.integers(-5, 90))
def test_restrict_and_count_match_reference(a, lo, hi):
    assert a.restrict(lo, hi).elements == tuple(e for e in a.elements if lo <= e <= hi)
    assert a.count_upto(hi) == sum(e <= hi for e in a.elements)


@given(sets_, st.integers(-5, 90))
def test_membership_matches_reference(a, v):
    assert (v in a) == (v in a.elements)
    assert (2**70 in a) is False


@given(sets_, sets_)
def test_equality_and_hash_match_reference(a, b):
    same = (a.elements, a.prefix_bound) == (b.elements, b.prefix_bound)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)
    copy = VertexSet(a.elements, a.prefix_bound)
    assert copy == a and hash(copy) == hash(a) and len({a, copy}) == 1


def test_immutable():
    vs = VertexSet((1, 3), 5)
    with pytest.raises(AttributeError):
        vs.prefix_bound = 9
    with pytest.raises(ValueError):
        vs.as_array[0] = 2
    assert vs.elements == (1, 3) and all(type(e) is int for e in vs.elements)


@given(sets_)
def test_thickness_matches_reference(a):
    runs = ref_runs(a.elements)
    want = (0, 0)
    for lo, hi in runs:  # strict > keeps the leftmost longest run
        if hi - lo + 1 > want[1]:
            want = (lo, hi - lo + 1)
    got = thickness(a)
    assert got == want and all(type(x) is int for x in got)


@given(sets_)
def test_format_and_parse_runs_match_reference(a):
    text = ",".join(str(lo) if lo == hi else "%d-%d" % (lo, hi) for lo, hi in ref_runs(a.elements))
    assert format_runs(a) == text
    assert parse_runs(text, a.prefix_bound) == a


def graphs_on(n_min, n_max):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(lambda m: from_upper_mask(n, m))
    )


@settings(max_examples=200, deadline=None)
@given(graphs_on(0, 9), graphs_on(1, 4))
def test_find_induced_matches_exhaustive_search(g, pattern):
    full = (1 << g.order) - 1
    images, nodes = find_induced(g.rows, full, pattern)
    assert (images is not None) == contains_induced_copy(g, pattern)
    if images is not None:
        assert len(set(images)) == pattern.order
        assert induced(g, images) == pattern
        # a budget one short of the nodes used stops the search at budget + 1
        if nodes > 1:
            assert find_induced(g.rows, full, pattern, nodes - 1) == (None, nodes)
    else:
        assert find_induced(g.rows, full, pattern, max(nodes, 1)) == (None, nodes)


@settings(max_examples=150, deadline=None)
@given(graphs_on(1, 10),
       st.one_of(graphs_on(1, 5), st.integers(1, 5).flatmap(lambda k: st.sampled_from(enumerate_unlabeled(k)))),
       st.integers(0, 9), st.integers(0, 2**10 - 1))
@example(from_upper_mask(9, 0), empty_graph(4), 8, 0)
@example(from_upper_mask(10, 0x2B5A5A5A5A5), FiniteGraph.from_edges(5, [(0, 1), (2, 3)]), 3, 0x155)
def test_anchored_find_induced_matches_the_subset_scan(g, pattern, anchor, within):
    """Anchored listing gives every bad set of the r-subset scan, once per
    automorphism of the pattern; an anchored search finds a copy exactly
    when one inside ``within`` uses the anchor, and its copy does."""
    n, r = g.order, pattern.order
    bads = bad_subsets(g.rows, n, pattern)
    automorphisms = sum(induced(pattern, perm) == pattern for perm in permutations(range(r)))
    listed = []
    for v in range(n):
        copies = []
        assert find_induced(g.rows, (2 << v) - 1, pattern, anchor=v, copies=copies)[0] is None
        assert all(m.bit_length() - 1 == v for m in copies)
        listed += copies
    assert sorted(set(listed)) == sorted(bads) and len(listed) == len(bads) * automorphisms

    anchor %= n
    within = within & ((1 << n) - 1) | 1 << anchor
    images, _ = find_induced(g.rows, within, pattern, anchor=anchor)
    assert (images is not None) == any(m & within == m and m >> anchor & 1 for m in bads)
    if images is not None:
        assert anchor in images and len(set(images)) == r and all(within >> q & 1 for q in images)
        assert induced(g, images) == pattern


@settings(max_examples=200, deadline=None)
@given(graphs_on(0, 14), graphs_on(1, 4))
def test_greedy_gfree_matches_subset_scan(g, pattern):
    assert _greedy_gfree(list(g.rows), g.order, pattern) == greedy_gfree(g.rows, g.order, pattern)


@settings(max_examples=100, deadline=None)
@given(graphs_on(1, 10), graphs_on(1, 4))
def test_exact_gfree_is_the_lexicographically_largest_maximum(g, pattern):
    """Among the maximum-size pattern-free subsets, the one whose indicator
    (index 0 first) is lexicographically largest: the search takes each
    index before it leaves it out."""
    n, form = g.order, canonical_form(pattern)
    bad = [sum(1 << v for v in sub) for sub in combinations(range(n), pattern.order)
           if canonical_form(induced(g, sub)) == form]
    free = [m for m in range(1 << n) if not any(b & m == b for b in bad)]
    top = max(m.bit_count() for m in free)
    want = max((m for m in free if m.bit_count() == top), key=lambda m: [m >> v & 1 for v in range(n)])
    assert _exact_gfree(list(g.rows), n, pattern) == [v for v in range(n) if want >> v & 1]


@given(graphs_on(1, 9), st.data())
def test_subset_code_matches_induced_subgraph(g, data):
    sub = data.draw(st.lists(st.integers(0, g.order - 1), unique=True))
    h = induced(g, sub)
    want = 0
    for b in range(len(sub)):
        for a in range(b):
            if h.has_edge(a, b):
                want |= 1 << (b * (b - 1) // 2 + a)
    assert subset_code(g.rows, sub) == want


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.sampled_from(enumerate_unlabeled(k))),
       st.integers(0, 2**64 - 1))
def test_mc_gfree_matches_brute_force_at_n7(pattern, seed):
    n, trials = 7, 40
    pairs = [(i, j) for j in range(n) for i in range(j)]
    free = 0
    for bits in _trial_graph_bits(seed, trials, len(pairs)):
        g = FiniteGraph.from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])
        free += not contains_induced_copy(g, pattern)
    assert mc_gfree_probability(pattern, n, trials, seed)["estimate"] == free / trials


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, 0.5, 0.25]), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0),
       st.integers(1, 20000), st.integers(0, 10**6))
def test_weighted_force_matches_one_full_cumsum(exponent, seed, density, horizon, pick):
    n = 20000
    rng = np.random.default_rng(seed)
    prefix = VertexSet(np.flatnonzero(rng.random(n) < density) + 1, n)
    family = substantial_family() if exponent == 1.0 else WeightFunction(exponent)
    # reference: one cumsum over the whole restricted prefix
    within = prefix.restrict(1, horizon).as_array
    sums = np.cumsum(WeightFunction(exponent).weights(within))
    levels = [0, 1, 3]
    if len(sums):
        # exact partial sums as thresholds, at chunk edges too: an ulp of drift would move the crossing
        levels += [int(sums[-1]), int(sums[-1]) + 1]
        levels += [sums[i] for i in (pick % len(sums), 1023, 1024, 3071) if i < len(sums)]
    for level in levels:
        hits = np.flatnonzero(sums > level)
        assert pi02_force(family, level, prefix, horizon) == (int(within[hits[0]]) if len(hits) else None)


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _tracing_module():
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_names_the_tracer_wraps_still_exist():
    tracing = _tracing_module()
    # the tracer counts oracle.edge_evals only through the EdgeOracle methods
    # it wraps by name, so every public one must be among them
    public = {name for name, obj in vars(EdgeOracle).items() if callable(obj) and not name.startswith("_")}
    assert public == set(tracing._EDGE_METHODS)
    for name in tracing._SET_METHODS:
        assert name in vars(VertexSet)
    for name in ("from_iterable", "interval", "empty"):
        assert isinstance(vars(VertexSet)[name], classmethod)
    assert list(inspect.signature(VertexSet.__init__).parameters)[1] == "elements"
    tracer, original = tracing.Tracer(), vars(VertexSet)["__init__"]
    with tracer:
        VertexSet.interval(1, 10).restrict(3, 7)
        EdgeOracle(1).edge_many(1, np.arange(2, 12))
    snap = tracer.snapshot()
    assert snap["sets.elements_built"] == 15 and snap["oracle.edge_evals"] == 10
    assert vars(VertexSet)["__init__"] is original


def test_names_the_benchmark_reads_still_exist():
    """Every ``from radolab.<m> import <n>`` and every ``<alias>.<n>`` on
    ``import radolab.<m> as <alias>`` in bench/, and every layer and name
    that the tracer reads inclusive times from."""
    reads = [(layer, name.split("[")[0]) for layer, name in _tracing_module()._INCLUSIVE.values()]
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radolab."):
                reads += [(node.module[len("radolab."):], a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                aliases.update({a.asname: a.name[len("radolab."):] for a in node.names
                                if a.asname and a.name.startswith("radolab.")})
        reads += [
            (aliases[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
        ]
    assert {("oracle", "stream_values"), ("largeness", "substantial_family")} <= set(reads)  # both import forms
    missing = [(m, n) for m, n in reads if not hasattr(importlib.import_module("radolab." + m), n)]
    assert missing == []


def _limits_named(tree) -> list:
    """The second argument of every ``check_limit`` call in ``tree`` (None
    where a call has none): the limit the call refuses through, by name."""
    return [node.args[1] if len(node.args) > 1 else None for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "check_limit"]


def _names_read(path) -> set:
    """The names a module reads: as an ``ast.Name``, an ``ast.Attribute``,
    an import or the limit a ``check_limit`` call names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = {a.value for a in _limits_named(tree) if isinstance(a, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            reads.update(a.name for a in node.names)
    return reads


def test_every_library_name_has_a_caller():
    """Each top-level function, class and assigned name of a radolab module
    is read (an ``ast.Name``, an ``ast.Attribute``, an import or a limit
    named in a ``check_limit`` call) somewhere in src/radolab or bench/,
    outside the package's __init__.py."""
    package = pathlib.Path(radolab.cli.__file__).parent
    reads = set()
    for path in [p for p in package.glob("*.py") if p.name != "__init__.py"] + list(BENCH.glob("*.py")):
        reads |= _names_read(path)
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [e.id for t in targets for e in ast.walk(t) if isinstance(e, ast.Name)]
            else:
                names = []
            unread += ["%s.%s" % (path.stem, name) for name in names if name not in reads]
    assert unread == []


def test_the_package_root_binds_only_its_version():
    """``radolab/__init__.py`` re-exports nothing: the caller lint above
    skips it, so a name bound there would be a surface no caller rule sees."""
    init = pathlib.Path(radolab.cli.__file__).with_name("__init__.py")
    bound = [n for n in ast.parse(init.read_text(encoding="utf-8")).body if not isinstance(n, ast.Expr)]
    assert [ast.unparse(n) for n in bound] == ["__version__ = '0.1.0'"]


LIMIT_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(CAP|LIMIT|MAX_ORDER|BITS)")
OLD_REFUSALS = ("capped at", "supported up to", "supports at most", "hold at most", "bound exceeded")


def test_every_limit_is_defined_once_in_the_limits_table():
    """No module but limits.py assigns a *_CAP, *_LIMIT, *_MAX_ORDER or
    *_BITS name; no string literal refuses in an old phrasing; every limit
    named in a string is in the table; and every ``check_limit`` call names
    its limit by a string literal that is a key of the table."""
    table = {k: v for k, v in vars(limits).items() if k.isupper()}
    assert table and all(type(v) is int for v in table.values())
    package = pathlib.Path(radolab.cli.__file__).parent
    assigned, phrased, named, misnamed = [], [], set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        misnamed += [(path.stem, a and ast.unparse(a)) for a in _limits_named(tree)
                     if not (isinstance(a, ast.Constant) and a.value in table)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and path.name != "limits.py":
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += ["%s.%s" % (path.stem, e.id) for t in targets for e in ast.walk(t)
                             if isinstance(e, ast.Name) and LIMIT_NAME.fullmatch(e.id)]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                phrased += [(path.stem, p) for p in OLD_REFUSALS if p in node.value]
                named.update(w for w in re.findall(r"[A-Z][A-Z0-9_]+", node.value) if LIMIT_NAME.fullmatch(w))
    assert assigned == [] and phrased == [] and misnamed == []
    assert sorted(named - set(table)) == []


# The pair order or pair count spelled out, rows packed by hand with numpy's
# packbits, and bitsets unpacked by hand with its unpackbits.
PAIR_ORDER_SPELLINGS = (
    r"tril_indices", r"np\.tri\(", r"for i in range\(j\)", r"\b(\w+) \* \(\1 - 1\) // 2", r"\bpackbits", r"\bunpackbits"
)
CODEC_HELPERS = {"_pairs": "np.tri(", "pack_rows": "np.packbits(", "FiniteGraph.__post_init__": "np.unpackbits("}


def test_the_pair_order_and_the_row_packer_are_written_once():
    """Outside the codec helpers graphs._pairs, graphs.pack_rows and
    FiniteGraph's unpacking, no module of radolab spells out the pair order
    or packs or unpacks rows itself."""
    package = pathlib.Path(radolab.cli.__file__).parent
    spelled = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "graphs.py":
            body = ast.parse(text).body
            defs = [("", n) for n in body]
            defs += [(c.name + ".", n) for c in body if isinstance(c, ast.ClassDef) for n in c.body]
            helpers = {prefix + n.name: ast.get_source_segment(text, n) for prefix, n in defs
                       if isinstance(n, ast.FunctionDef) and prefix + n.name in CODEC_HELPERS}
            assert all(CODEC_HELPERS[name] in helpers.get(name, "") for name in CODEC_HELPERS)
            for segment in helpers.values():
                text = text.replace(segment, "")
        spelled += [(path.stem, p) for p in PAIR_ORDER_SPELLINGS if re.search(p, text)]
    assert spelled == []


# The raw counter streams and the threshold of a coin: a stream value
# becomes a coin in oracle.stream_bits alone.
COIN_MAKERS = {"_stream_blocks", "_verdict_for", "probability_threshold"}


def test_only_the_oracle_turns_a_stream_value_into_a_coin():
    """No module of radolab but oracle.py reads _stream_blocks,
    _verdict_for or probability_threshold."""
    package = pathlib.Path(radolab.cli.__file__).parent
    read = {path.stem: sorted(_names_read(path) & COIN_MAKERS) for path in package.glob("*.py")}
    assert read.pop("oracle") and {stem: names for stem, names in read.items() if names} == {}


def test_readme_lists_every_limit_with_its_value():
    readme = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    table = {k: v for k, v in vars(limits).items() if k.isupper()}
    assert [k for k, v in table.items() if readme.count("| `%s` | %d |" % (k, v)) != 1] == []


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_every_give_up_builds_its_own_record():
    """cli.py reads no give-up class by name, and every GiveUp subclass of
    radolab assigns ``self.record`` in its own ``__init__``."""
    give_ups = [c for c in _subclasses(GiveUp) if c.__module__.startswith("radolab.")]
    names = {c.__name__ for c in give_ups}
    assert {"DeadEnd", "PrefixExhausted", "TypeClassEmpty", "ForcingFailed"} <= names
    assert _names_read(pathlib.Path(radolab.cli.__file__)) & names == set()
    recordless = [c.__name__ for c in give_ups if "__init__" not in vars(c)
                  or not re.search(r"^\s*self\.record = ", inspect.getsource(c.__init__), re.M)]
    assert recordless == []


def test_argparse_converts_with_int_and_float_only():
    """Every option of every subcommand has no ``type``, or ``int`` or
    ``float``: radolab's own readers (``parse_seed``, ``_fraction``) run
    inside ``main``, which refuses a bad value by name, never as argparse's
    ``invalid <type> value`` echo."""
    parser = radolab.cli.build_parser()
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers) == 1
    types = {(name, a.dest): a.type for name, sub in subparsers[0].choices.items() for a in sub._actions}
    assert {key: t for key, t in types.items() if t not in (None, int, float)} == {}
