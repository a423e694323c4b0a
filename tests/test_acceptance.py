"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Three criteria (4, 8, 9) run at stated parameters at which a first-moment
count shows that the requested object almost surely does not exist in a
fair-coin graph:

* criterion 4 embeds a 50-vertex empty graph, i.e. an induced independent
  set of size 50, into hosts of at most 16384 vertices; the expected number
  of independent 50-sets is C(n,50)·2^-1225 <= 2^-739;
* criterion 8 asks for 6 edgeless blocks in [1, 10^6]; their 21 vertices
  need 210 non-edges, and fewer than (10^6)^6 < 2^120 placements exist, so
  the expected number of solutions is below 2^-90;
* criterion 9 asks for level 3 of the divergent-reciprocal-sum family at
  N = 10^6; after level 2 (k_2 between 11 and 68 on seeds 1-10, union mass
  2.0006-2.0511) about 0.95 more must come from the class isolated from
  [1, k_2], whose expected mass is at most 2^-k_2·ln(N/k_2) <= 0.006.

These tests keep their stated seeds, hosts and bounds and report the
success count, but pass only when every outcome is certified: a success
re-verifies from raw ``edge``/``edge_pairs`` queries, and a give-up is
confirmed by a re-query written here, independent of the program's own
bookkeeping ("absence only from a completed search").  A give-up that the
re-query contradicts fails the test.

The surrounding machinery is exercised at feasible scale by companion
tests here and in the module suites.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from reference import complement
from test_audit import brute_max_gfree_size
from test_graphs import brute_unlabeled_count

from radolab.audit import ABSENT, max_gfree_subset, weak_universality
from radolab.constructions import (
    ForcingFailed,
    PrefixExhausted,
    TypeClassEmpty,
    construct_pi02_member,
    construct_thick_edgeless,
)
from radolab.embed import DeadEnd, embed_target, verify_embedding
from radolab.graphs import complete, cycle, empty_graph, enumerate_unlabeled, path, petersen
from radolab.largeness import substantial_family, thickness, weighted_sum
from radolab.mc import exact_gfree_count, mc_density_star, mc_gfree_probability, type_frequency_check
from radolab.oracle import EdgeOracle, TypeSpec, extension_check
from radolab.sets import VertexSet, format_runs

BASE = [sys.executable, "-m", "radolab"]


def report(num: str, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %-3s %s  %s" % (num, "PASS" if ok else "FAIL", detail), flush=True)


def run_cli(*args):
    env = dict(os.environ)
    env.pop("RADO_SEED", None)
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env)


def test_criterion_01_cli_determinism():
    """Ten spot checks: identical argv -> byte-identical output, < 1 s each."""
    invocations = [
        ("edge", "--seed", "7", "-u", "3", "-v", "5"),
        ("edge", "--seed", "0xdeadbeef", "-u", "10", "-v", "11"),
        ("adj", "--seed", "7", "--host", "1-12"),
        ("type", "--seed", "7", "--m", "10", "--base", "1-3"),
        ("extension", "--seed", "7", "--f", "1-2", "--bound", "64"),
        ("density", "--host", "even", "--prefix-bound", "256"),
        ("sum", "--host", "1,2,4"),
        ("thick", "--host", "5-9,20"),
        ("ap", "--host", "1,3,5,7"),
        ("sample-mup", "--seed", "1", "--p", "1/2", "--prefix-bound", "200"),
    ]
    ok = True
    worst = 0.0
    for argv in invocations:
        t0 = time.time()
        a = run_cli(*argv)
        dt_a = time.time() - t0
        b = run_cli(*argv)
        worst = max(worst, dt_a)
        ok = ok and a.returncode == b.returncode and a.stdout == b.stdout and dt_a < 1.0
    report("1", ok, "10 invocations byte-identical, worst runtime %.2fs" % worst)
    assert ok


def test_criterion_02_extension_property():
    """Seeds 1-5, |F| = 8, bound 4096: all 256 types witnessed."""
    t0 = time.time()
    passed = 0
    for seed in range(1, 6):
        rep = extension_check(EdgeOracle(seed), VertexSet.interval(1, 8), 4096)
        passed += rep["pass"]
    dt = time.time() - t0
    ok = passed == 5 and dt < 1.0 * 5
    report("2", ok, "%d/5 seeds witnessed all 256 types (%.2fs)" % (passed, dt))
    assert ok


def test_criterion_03_density_formula():
    """(k,n) in {(1,1),(2,2),(3,1)}: estimates within 3 stderr of targets."""
    t0 = time.time()
    ok = True
    details = []
    for k, n, target in [(1, 1, 0.5), (2, 2, 0.5625), (3, 1, 0.875)]:
        r = mc_density_star(1, k, n, 10**4, 20)
        z = abs(r["estimate"] - target) / r["stderr"]
        ok = ok and z <= 3 and abs(r["target"] - target) < 1e-12
        details.append("k=%d n=%d z=%.2f" % (k, n, z))
    dt = time.time() - t0
    ok = ok and dt < 5
    report("3", ok, "; ".join(details) + " (%.2fs)" % dt)
    assert ok


EMBED_HOSTS = {
    "1-4096": VertexSet.interval(1, 4096),
    "even<=2^15": VertexSet(tuple(range(2, 2**15 + 1, 2)), 2**15),
    "ap:3,7<=1e5": VertexSet(tuple(range(3, 10**5 + 1, 7)), 10**5),
}


def _embed_grid(targets):
    wins = 0
    total = 0
    for tname, target in targets:
        for hname, host in EMBED_HOSTS.items():
            for seed in range(1, 21):
                total += 1
                try:
                    emb = embed_target(EdgeOracle(seed), target, host)
                except DeadEnd:
                    continue
                assert emb.verified
                wins += 1
    return wins, total


def test_criterion_04_embedding_feasible_targets():
    """Supporting evidence: the three satisfiable targets embed 180/180."""
    t0 = time.time()
    wins, total = _embed_grid([("K5", complete(5)), ("C5", cycle(5)), ("Petersen", petersen())])
    dt = time.time() - t0
    ok = wins == total == 180
    report("4a", ok, "%d/%d verified embeddings for K5/C5/Petersen x 3 hosts x seeds 1-20 (%.1fs)" % (wins, total, dt))
    assert ok


def _certify_empty_dead_end(oracle, host, exc):
    """None if a DeadEnd raised while embedding an empty graph is confirmed
    by raw queries, else the first condition that fails: the placed images
    are independent and every other host vertex has an edge into them, so
    no vertex of the required all-zero type remains."""
    base = np.asarray(exc.required.base, dtype=np.int64)
    if exc.required.mask != 0:
        return "step %d required type %s, not the all-zero type" % (exc.step, exc.required.bits)
    if len(base) != exc.step - 1:
        return "step %d has %d placed images" % (exc.step, len(base))
    iu, iv = np.triu_indices(len(base), k=1)
    if oracle.edge_pairs(base[iu], base[iv]).any():
        return "placed images %s are not independent" % list(base)
    rest = np.setdiff1d(host.as_array, base)
    if len(rest) != len(host) - len(base) or exc.pool_remaining != len(rest):
        return "pool_remaining %d, host minus placed images %d" % (exc.pool_remaining, len(rest))
    free = np.ones(len(rest), dtype=bool)
    for u in base:
        free &= ~oracle.edge_pairs(np.full(len(rest), u), rest)
    if free.any():
        return "host vertex %d has no edge into the placed images" % rest[free][0]
    return None


def test_criterion_04_embedding_with_empty50_as_stated():
    """The stated grid for the 50-vertex empty graph: E50 into the three
    hosts, seeds 1-20, every outcome certified.

    An induced empty graph on 50 vertices is an independent set of size 50,
    and the expected number of them in a host of n vertices is
    C(n,50)·2^-1225 (at most 2^-739 here), so the greedy recursion
    dead-ends once the all-zero type class over its placed images empties.
    A returned embedding must pass verify_embedding again; a DeadEnd must
    name the all-zero type over independent placed images, count the rest
    of the host as its pool, and every vertex of that pool must have an
    edge into the placed images by re-query.
    """
    t0 = time.time()
    target = empty_graph(50)
    wins = certified = total = 0
    steps = []
    problems = []
    for hname, host in EMBED_HOSTS.items():
        for seed in range(1, 21):
            oracle = EdgeOracle(seed)
            total += 1
            try:
                emb = embed_target(oracle, target, host)
            except DeadEnd as exc:
                problem = _certify_empty_dead_end(oracle, host, exc)
                steps.append(exc.step)
            else:
                verify_embedding(oracle, target, emb.images)
                problem = None if set(emb.images) <= set(host.elements) else "images outside the host"
                wins += problem is None
            if problem is None:
                certified += 1
            else:
                problems.append("%s seed %d: %s" % (hname, seed, problem))
    dt = time.time() - t0
    bound = max(math.log2(math.comb(len(host), 50)) - 1225 for host in EMBED_HOSTS.values())
    ok = certified == total == 60
    report(
        "4",
        ok,
        "empty-50 grid: %d/%d embeddings, %d/%d outcomes certified, dead ends at steps %s (%.1fs); "
        "expected independent 50-sets <= 2^%.1f" % (wins, total, certified, total, sorted(set(steps)), dt, bound),
    )
    assert ok, "uncertified outcomes: %s" % problems[:3]


def test_criterion_05_weak_universality():
    """Host [1,512], seeds 1-10, every class of order <= 4 witnessed; the
    enumeration counts match the independent brute-force oracle."""
    t0 = time.time()
    all_pass = True
    for seed in range(1, 11):
        rep = weak_universality(EdgeOracle(seed), VertexSet.interval(1, 512), 4)
        all_pass = all_pass and rep["verdict"] == "pass"
    counts = [len(enumerate_unlabeled(k)) for k in range(1, 6)]
    brute = [brute_unlabeled_count(k) for k in range(1, 6)]
    counts_ok = counts == brute == [1, 2, 4, 11, 34]
    dt = time.time() - t0
    ok = all_pass and counts_ok and dt < 30
    report("5", ok, "10/10 hosts pass; class counts %s == brute force (%.1fs)" % (counts, dt))
    assert ok


def test_criterion_06_exact_oracle_equivalence():
    """Exact pattern-free maxima equal exhaustive 2^16 enumeration on
    length-16 windows for K2, K3, P3, seeds 1-10."""
    t0 = time.time()
    cases = 0
    agree = 0
    for pattern in (complete(2), complete(3), path(3)):
        for seed in range(1, 11):
            o = EdgeOracle(seed)
            got = len(max_gfree_subset(o, (1, 16), pattern, "exact"))
            want = brute_max_gfree_size(o, 1, 16, pattern)
            cases += 1
            agree += got == want
    dt = time.time() - t0
    ok = agree == cases == 30 and dt < 60
    report("6", ok, "%d/%d exact matches over 30 cases (%.1fs)" % (agree, cases, dt))
    assert ok


def test_criterion_07_gfree_probabilities():
    """Closed form for K2; Monte Carlo within 3 stderr for K3 at n=5,6;
    complement symmetry for every order-<=4 pattern at n=5."""
    t0 = time.time()
    formula_ok = all(
        exact_gfree_count(complete(2), n)["probability"] == Fraction(1, 2 ** (n * (n - 1) // 2))
        for n in range(2, 7)
    )
    mc_ok = True
    for n in (5, 6):
        r = mc_gfree_probability(complete(3), n, 10**5, 1)
        mc_ok = mc_ok and abs(r["estimate"] - float(r["exact"])) <= 3 * r["stderr"]
    sym_ok = True
    for k in range(1, 5):
        for g in enumerate_unlabeled(k):
            sym_ok = sym_ok and (
                exact_gfree_count(g, 5)["probability"]
                == exact_gfree_count(complement(g), 5)["probability"]
            )
    dt = time.time() - t0
    ok = formula_ok and mc_ok and sym_ok and dt < 60
    report("7", ok, "formula %s, mc-3stderr %s, complement symmetry %s (%.1fs)" % (formula_ok, mc_ok, sym_ok, dt))
    assert ok


def _certify_thick_member(oracle, r, blocks):
    """None if a thick edgeless result re-verifies from raw queries: its
    intervals have lengths 1..blocks, run left to right, make up the union
    (so it holds a run of `blocks` consecutive vertices), and no pair of
    the union is an edge."""
    if [l for _, l in r.intervals] != list(range(1, blocks + 1)):
        return "interval lengths %s" % [l for _, l in r.intervals]
    union = [v for s, l in r.intervals for v in range(s, s + l)]
    if union != sorted(set(union)) or tuple(union) != r.union.elements:
        return "union is not the left-to-right concatenation of the intervals"
    verts = np.asarray(union, dtype=np.int64)
    iu, iv = np.triu_indices(len(verts), k=1)
    if oracle.edge_pairs(verts[iu], verts[iv]).any():
        return "the union has an edge"
    return None


def _certify_thick_give_up(oracle, exc, prefix_bound):
    """None if PrefixExhausted at block j is confirmed: blocks 1..j-1 are
    rebuilt, the reported per-candidate probability is 2^-(C(j,2) + j·|U|)
    for their union U, and a re-scan with edge_pairs of every start past U
    finds no window of length j that is edgeless and free of edges to U."""
    j = exc.block
    union = np.empty(0, dtype=np.int64)
    if j > 1:
        union = construct_thick_edgeless(oracle, j - 1, prefix_bound).union.as_array
    want = 2.0 ** -(j * (j - 1) // 2 + j * len(union))
    if exc.per_candidate_probability != want:
        return "block %d probability %r, want %r" % (j, exc.per_candidate_probability, want)
    start = int(union[-1]) + 1 if len(union) else 1
    ks = np.arange(start, prefix_bound - j + 2, dtype=np.int64)
    for d2 in range(j):
        for d1 in range(d2):
            ks = ks[~oracle.edge_pairs(ks + d1, ks + d2)]
    for u in union:
        for d in range(j):
            ks = ks[~oracle.edge_pairs(np.full(len(ks), u), ks + d)]
    if len(ks):
        return "block %d fits at [%d, %d]" % (j, ks[0], ks[0] + j - 1)
    return None


def test_criterion_08_thick_edgeless_as_stated():
    """m = 6 blocks within N = 10^6 on seeds 1-20, every outcome certified.

    The 6-block union has 21 vertices and needs all 210 of its pairs to be
    non-edges; fewer than (10^6)^6 < 2^120 placements exist, so the expected
    number of solutions is below 2^-90.  Block 4 alone (2^-30 per start)
    already expects about 9.3e-4 hits in the prefix.  A success must
    re-verify from raw queries; a PrefixExhausted at block j must survive
    the rebuild of blocks 1..j-1 and an exhaustive re-scan of the starts
    past them.
    """
    t0 = time.time()
    n = 10**6
    wins = certified = 0
    blocked_at = []
    problems = []
    for seed in range(1, 21):
        oracle = EdgeOracle(seed)
        try:
            r = construct_thick_edgeless(oracle, 6, n)
        except PrefixExhausted as exc:
            blocked_at.append(exc.block)
            problem = _certify_thick_give_up(oracle, exc, n)
        else:
            problem = _certify_thick_member(oracle, r, 6)
            wins += problem is None
        if problem is None:
            certified += 1
        else:
            problems.append("seed %d: %s" % (seed, problem))
    dt = time.time() - t0
    bound = 6 * math.log2(n) - 210
    ok = certified == 20
    report(
        "8",
        ok,
        "%d/20 successes, %d/20 outcomes certified; prefix exhausted at blocks %s (%.1fs); "
        "expected 6-block unions < 2^%.1f" % (wins, certified, sorted(set(blocked_at)), dt, bound),
    )
    assert ok, "uncertified outcomes: %s" % problems[:3]


def test_criterion_08_supporting_feasible_scale():
    """Companion at satisfiable scale: 3 blocks within 10^6 on all 20 seeds."""
    t0 = time.time()
    wins = 0
    for seed in range(1, 21):
        r = construct_thick_edgeless(EdgeOracle(seed), 3, 10**6)
        assert r.verified and thickness(r.union)[1] >= 3
        wins += 1
    dt = time.time() - t0
    ok = wins == 20
    report("8a", ok, "%d/20 verified 3-block constructions (%.1fs)" % (wins, dt))
    assert ok


def _certify_pi02_member(oracle, r, levels):
    """None if a family member re-verifies from raw queries: its reciprocal
    sum exceeds levels, and no vertex of block n lies outside
    (k_{n-1}, k_n] or has an edge into [1, k_{n-1}], which holds every
    earlier block."""
    if not r.verified or len(r.ks) != levels:
        return "unverified or %d levels" % len(r.ks)
    mass = math.fsum(1.0 / v for v in r.union)
    if mass <= levels:
        return "reciprocal sum %.6f" % mass
    k_prev = 0
    for n, (k, block) in enumerate(zip(r.ks, r.blocks), start=1):
        verts = np.asarray(block, dtype=np.int64)
        if len(verts) and (verts.min() <= k_prev or verts.max() > k):
            return "block %d leaves (%d, %d]" % (n, k_prev, k)
        for b in range(1, k_prev + 1):
            if oracle.edge_pairs(np.full(len(verts), b), verts).any():
                return "block %d has an edge to %d" % (n, b)
        k_prev = k
    return None


def _certify_pi02_give_up(oracle, two, exc, prefix_bound):
    """None if a level-3 give-up is confirmed against the isolation class of
    (k_2, N] over [1, k_2], recomputed with edge_pairs: TypeClassEmpty needs
    the class empty and expected == (N - k_2)·2^-k_2; ForcingFailed needs it
    non-empty with its mass plus the two-level union's mass at most 3."""
    if exc.level != 3:
        return "%s at level %d" % (type(exc).__name__, exc.level)
    k2 = two.ks[-1]
    cls = np.arange(k2 + 1, prefix_bound + 1, dtype=np.int64)
    for b in range(1, k2 + 1):
        cls = cls[~oracle.edge_pairs(np.full(len(cls), b), cls)]
    if isinstance(exc, TypeClassEmpty):
        if len(cls):
            return "TypeClassEmpty, but %d vertices are isolated from [1, %d]" % (len(cls), k2)
        if exc.expected != (prefix_bound - k2) * 2.0**-k2:
            return "expected %r for k_2 = %d" % (exc.expected, k2)
        return None
    if not len(cls):
        return "ForcingFailed on an empty isolation class"
    mass = math.fsum(1.0 / v for v in two.union) + math.fsum(1.0 / cls)
    if mass > 3:
        return "ForcingFailed with reciprocal mass %.6f > 3" % mass
    return None


def test_criterion_09_pi02_member_as_stated():
    """Substantial family, levels = 3, N = 10^6, seeds 1-10, every outcome
    certified.

    After level 2, k_2 lies between 11 and 68 and the union's reciprocal
    mass is 2.0006-2.0511, so level 3 needs about 0.95 more from the class of
    vertices isolated from [1, k_2]; its expected mass is at most
    2^-k_2·ln(N/k_2) <= 0.006.  A success must be verified, exceed mass 3
    and keep each block free of edges into [1, k_{n-1}] by raw queries; a
    give-up must be at level 3 and agree with the isolation class of
    (k_2, N] recomputed here.
    """
    t0 = time.time()
    n = 10**6
    fam = substantial_family()
    wins = certified = 0
    k2s = []
    failures = []
    problems = []
    for seed in range(1, 11):
        oracle = EdgeOracle(seed)
        two = construct_pi02_member(oracle, fam, 2, n)
        k2s.append(two.ks[-1])
        try:
            r = construct_pi02_member(oracle, fam, 3, n)
        except (TypeClassEmpty, ForcingFailed) as exc:
            failures.append(type(exc).__name__)
            problem = _certify_pi02_give_up(oracle, two, exc, n)
        else:
            problem = _certify_pi02_member(oracle, r, 3)
            wins += problem is None
        if problem is None:
            certified += 1
        else:
            problems.append("seed %d: %s" % (seed, problem))
    dt = time.time() - t0
    bound = max(2.0**-k * math.log(n / k) for k in k2s)
    ok = certified == 10
    report(
        "9",
        ok,
        "%d/10 successes, %d/10 outcomes certified; failures: %s; k_2 in [%d, %d] (%.1fs); "
        "expected isolation-class mass <= %.4f" % (wins, certified, sorted(set(failures)), min(k2s), max(k2s), dt, bound),
    )
    assert ok, "uncertified outcomes: %s" % problems[:3]


def test_criterion_09_supporting_feasible_scale():
    """Companion at satisfiable scale: two levels succeed on all of seeds
    1-10 with certificates and confined components."""
    t0 = time.time()
    fam = substantial_family()
    wins = 0
    for seed in range(1, 11):
        r = construct_pi02_member(EdgeOracle(seed), fam, 2, 10**6)
        assert r.verified and weighted_sum(r.union) > 2
        wins += 1
    dt = time.time() - t0
    ok = wins == 10
    report("9a", ok, "%d/10 verified 2-level members (%.1fs)" % (wins, dt))
    assert ok


def test_criterion_10_type_frequency():
    """|F| in {2,4}, N = 10^5, seeds 1-5: all 10 frequencies within 3 sigma."""
    t0 = time.time()
    in_band = 0
    for size in (2, 4):
        f = VertexSet.interval(1, size)
        t = TypeSpec(f.elements, (1 << size) - 1)
        for seed in range(1, 6):
            r = type_frequency_check(EdgeOracle(seed), f, t, 10**5)
            in_band += r["band_ok"]
    dt = time.time() - t0
    ok = in_band == 10 and dt < 10
    report("10", ok, "%d/10 runs within 3 sigma of 2^-|F| (%.2fs)" % (in_band, dt))
    assert ok


def test_criterion_11_negative_control():
    """Weak universality on a verified edgeless thick set: certified K2
    absence, exit code 2, completed search."""
    t0 = time.time()
    thick = construct_thick_edgeless(EdgeOracle(1), 3, 10**5)
    host_text = format_runs(thick.union)
    out = run_cli("audit-weak", "--seed", "1", "--host", host_text, "--kmax", "2")
    rep = json.loads(out.stdout)
    k2 = [p for p in rep["patterns"] if p["graph6"] == "A_"][0]
    dt = time.time() - t0
    ok = out.returncode == 2 and rep["verdict"] == "fail" and k2["status"] == ABSENT and dt < 5
    report("11", ok, "exit=%d verdict=%s K2=%s (%.2fs)" % (out.returncode, rep["verdict"], k2["status"], dt))
    assert ok
