"""Self-tests of the benchmark's checkers and tracer.

    python3 -m pytest -q bench/test_checks.py

Every checker must accept a correct result and reject a corrupted one, so
that a checker which passes everything cannot hide a regression.
"""

import contextlib
import io
import json
import sys
from itertools import combinations
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import radolab.audit as audit  # noqa: E402
import radolab.cli as cli  # noqa: E402
import radolab.constructions as constructions  # noqa: E402
import radolab.embed as embed  # noqa: E402
import radolab.graphs as graphs  # noqa: E402
import radolab.largeness as largeness  # noqa: E402
import radolab.mc as mc  # noqa: E402
from radolab.oracle import EdgeOracle, TypeSpec, extension_check, stream_values  # noqa: E402
from radolab.sets import VertexSet, format_runs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLI_ARGV, K3, P3, Inconclusive, check_cli, digest  # noqa: E402

O = EdgeOracle(7)


def rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


def test_reference_recipes_match_the_oracle():
    us = np.arange(1, 2001)
    vs = us * 37 + 5
    ref = checks.ref_edges(O.seed, us, vs)
    assert [O.edge(int(u), int(v)) for u, v in zip(us, vs)] == list(ref)
    assert np.array_equal(checks.ref_stream(5, [checks.TAG_MU_P], 1000)[0], stream_values(5, checks.TAG_MU_P, 1000))


def test_embedding_with_two_swapped_images_is_rejected():
    host = VertexSet.interval(1, 4096)
    target = graphs.petersen()
    emb = embed.embed_target(O, target, host)
    checks.check_embedding(O, emb.images, list(target.rows), host.elements)
    images = list(emb.images)
    # swap an adjacent and a non-adjacent image of vertex 0
    j = next(j for j in range(1, 10) if target.has_edge(0, j))
    k = next(k for k in range(1, 10) if not target.has_edge(0, k))
    images[j], images[k] = images[k], images[j]
    rejects(checks.check_embedding, O, images, list(target.rows), host.elements)


def test_gfree_subset_with_a_triangle_is_rejected():
    window = (1, 30)
    subset = audit.max_gfree_subset(O, window, graphs.complete(3), "exact")
    checks.check_gfree_subset(O, list(subset.elements), window, K3)
    rows = checks.scalar_rows(O, range(1, 31))
    tri = next(t for t in combinations(range(30), 3)
               if rows[t[0]] >> t[1] & 1 and rows[t[0]] >> t[2] & 1 and rows[t[1]] >> t[2] & 1)
    rejects(checks.check_gfree_subset, O, [v + 1 for v in tri], window, K3)


def test_non_maximal_greedy_subset_is_rejected():
    window = (1, 30)
    subset = audit.max_gfree_subset(O, window, graphs.path(3), "greedy")
    checks.check_gfree_subset(O, list(subset.elements), window, P3)
    rejects(checks.check_gfree_subset, O, list(subset.elements[:-1]), window, P3)


def test_dyadic_greedy_size_must_match_the_true_window():
    ks = range(5, 7)  # k = 6 is a 64-vertex greedy window
    report = audit.dyadic_audit(O, graphs.complete(3), 2, ks)
    checks.check_dyadic(O, report, K3, 2, ks, audit.EXACT_WINDOW_CAP)
    report["rows"][1]["size"] -= 1
    rejects(checks.check_dyadic, O, report, K3, 2, ks, audit.EXACT_WINDOW_CAP)


def test_weak_universality_with_a_wrong_witness_is_rejected():
    host = VertexSet.interval(1, 128)
    report = audit.weak_universality(O, host, 4)
    checks.check_weak_universality(O, report, host.elements, 4)
    entry = next(e for e in report["patterns"] if e["order"] == 3 and e["status"] == "found")
    other = next(e for e in report["patterns"] if e["order"] == 3 and e["graph6"] != entry["graph6"])
    entry["witness"] = other["witness"]
    rejects(checks.check_weak_universality, O, report, host.elements, 4)
    entry["witness"], entry["status"] = None, "budget"
    rejects(checks.check_weak_universality, O, report, host.elements, 4)


def test_extension_with_a_wrong_witness_is_rejected():
    f = VertexSet.interval(1, 4)
    report = extension_check(O, f, 512)
    checks.check_extension(O, report, [1, 2, 3, 4], 512)
    report["types"][3]["witness"] = report["types"][4]["witness"]
    rejects(checks.check_extension, O, report, [1, 2, 3, 4], 512)


def test_thick_union_with_an_edge_is_rejected():
    result = constructions.construct_thick_edgeless(O, 3, 10**5).to_json()
    checks.check_thick(O, result, 3, 10**5)
    start = next(s for s in range(result["intervals"][2][0], 10**5) if O.edge(result["union"][0], s))
    bad = {**result, "intervals": result["intervals"][:2] + [[start, 3]],
           "union": result["union"][:3] + [start, start + 1, start + 2]}
    rejects(checks.check_thick, O, bad, 3, 10**5)


def test_early_give_up_is_rejected():
    """A construction that stops before the reference does fails, and so
    does one that claims a result where the reference runs out."""
    with pytest.raises(constructions.PrefixExhausted) as exc:
        constructions.construct_thick_edgeless(O, 4, 10**5)
    exhausted = Inconclusive("PrefixExhausted", {"block": exc.value.block})
    checks.check_thick(O, exhausted, 4, 10**5)
    rejects(checks.check_thick, O, Inconclusive("PrefixExhausted", {"block": 3}), 4, 10**5)
    rejects(checks.check_thick, O, exhausted, 3, 10**5)
    family = largeness.substantial_family()
    gave_up = None
    for levels in (3, 4):
        try:
            constructions.construct_pi02_member(O, family, levels, 10**5)
        except (constructions.TypeClassEmpty, constructions.ForcingFailed) as exc:
            gave_up = Inconclusive(type(exc).__name__, {"level": exc.level})
            break
    checks.check_pi02(O, gave_up, levels, 10**5)
    other = "ForcingFailed" if gave_up.name == "TypeClassEmpty" else "TypeClassEmpty"
    rejects(checks.check_pi02, O, Inconclusive(other, gave_up.fields), levels, 10**5)
    rejects(checks.check_pi02, O, Inconclusive(gave_up.name, {"level": 2}), 2, 10**5)


def test_pi02_with_an_edge_between_blocks_is_rejected():
    result = constructions.construct_pi02_member(O, largeness.substantial_family(), 2, 10**5).to_json()
    checks.check_pi02(O, result, 2, 10**5)
    u = result["blocks"][0][0]
    v = next(v for v in range(result["ks"][0] + 1, result["ks"][1] + 1) if O.edge(u, v))
    blocks = [result["blocks"][0], sorted(set(result["blocks"][1]) | {v})]
    rejects(checks.check_pi02, O, {**result, "blocks": blocks, "union": blocks[0] + blocks[1]}, 2, 10**5)


def test_mu_sample_statistics_are_recounted():
    ref = checks.ref_mu_half(3, 10**4)
    sample = mc.sample_mu_p(Fraction(1, 2), 10**4, 3)
    checks.check_mu_sample(sample, ref, 10**4)
    checks.check_thickness(largeness.thickness(sample), ref)
    checks.check_weighted_sum(largeness.weighted_sum(sample), ref)
    rejects(checks.check_mu_sample, VertexSet(sample.elements[1:], 10**4), ref, 10**4)
    start, length = largeness.thickness(sample)
    rejects(checks.check_thickness, (start, length - 1), ref)
    rejects(checks.check_weighted_sum, largeness.weighted_sum(sample) * (1 + 1e-12), ref)


def test_typefreq_with_a_wrong_count_is_rejected():
    f = VertexSet.interval(1, 3)
    t = TypeSpec((1, 2, 3), 5)
    report = mc.type_frequency_check(O, f, t, 20000)
    checks.check_typefreq(O, report, [1, 2, 3], 5, 20000)
    report["count"] += 1
    rejects(checks.check_typefreq, O, report, [1, 2, 3], 5, 20000)


def test_monte_carlo_reports_are_recomputed():
    report = mc.mc_gfree_probability(graphs.complete(3), 7, 300, 4)
    checks.check_mc_gfree(report, K3, 7, 300, 4)
    rejects(checks.check_mc_gfree, {**report, "estimate": report["estimate"] + 1 / 300}, K3, 7, 300, 4)
    star = mc.mc_density_star(4, 2, 2, 2000, 2)
    checks.check_density_star(star, EdgeOracle, 4, 2, 2, 2000, 2)
    star["trial_values"][1] += 1 / 2000
    rejects(checks.check_density_star, star, EdgeOracle, 4, 2, 2, 2000, 2)


def test_mc_fn_estimate_below_the_greedy_count_is_rejected():
    rows = mc.mc_fn_bound(graphs.complete(3), [10], 2, 20, 4)
    checks.check_mc_fn(rows, K3, [10], 2, 20, 4)
    rejects(checks.check_mc_fn, [{**rows[0], "estimate": 0.0}], K3, [10], 2, 20, 4)


def cli_run(line: str):
    argv = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode("ascii")


def cli_entry(kind: str):
    return next(check for k, _, check in CLI_ARGV if k == kind)


def test_cli_reports_are_checked_field_by_field():
    code, stdout = cli_run("embed --seed 7 --target k:4 --host 1-4096")
    check_cli(cli_entry("embed"), 7, False, (code, stdout))
    report = json.loads(stdout)
    report["images"][0], report["images"][1] = report["images"][1], report["images"][2]
    rejects(check_cli, cli_entry("embed"), 7, False, (code, json.dumps(report).encode()))
    rejects(check_cli, cli_entry("embed"), 8, False, (code, stdout))  # another seed's report
    rejects(check_cli, cli_entry("embed"), 7, False, (1, b""))
    rejects(check_cli, cli_entry("embed"), 7, False, (0, b"Traceback (most recent call last):\n"))


def test_cli_exit_code_must_match_the_report():
    thick4 = cli_entry("construct-thick-4")
    code, stdout = cli_run("construct-thick --seed 7 --blocks 4 --prefix-bound 1000000")
    assert code == 3
    check_cli(thick4, 7, False, (code, stdout))
    rejects(check_cli, thick4, 7, False, (0, stdout))
    code, stdout = cli_run("construct-thick --seed 7 --blocks 3 --prefix-bound 200000")
    check_cli(cli_entry("construct-thick-3"), 7, False, (code, stdout))
    # exit 3 with an exhaustion report where the reference finds the blocks
    early = json.dumps({"seed": 7, "version": "x", "error": "prefix exhausted", "block": 3}).encode()
    rejects(check_cli, cli_entry("construct-thick-3"), 7, False, (3, early))


def test_cli_mu_sample_and_csv_are_recounted():
    code, stdout = cli_run("mc-gfree --seed 7 --pattern k:3 --n 5 --trials 100000 --format csv")
    check_cli(cli_entry("mc-gfree-csv"), 7, True, (code, stdout))
    header, row = stdout.decode().splitlines()
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    rejects(check_cli, cli_entry("mc-gfree-csv"), 7, True, (code, (header + "\n" + ",".join(cells) + "\n").encode()))
    ref = checks.ref_mu_half(7, 1000)
    report = {"count": len(ref), "elements": format_runs(mc.sample_mu_p(Fraction(1, 2), 1000, 7))}
    checks.check_mu_runs(report, ref)
    rejects(checks.check_mu_runs, {**report, "elements": report["elements"].replace("-", ",", 1)}, ref)


def test_adjacency_of_64_vertices_is_decoded():
    rows = checks.scalar_rows(O, range(1, 65))
    g = graphs.FiniteGraph(64, tuple(rows))
    report = {"order": 64, "edges": g.edge_count, "graph6": graphs.graph6_encode(g)}
    checks.check_adj(O, report, range(1, 65))
    rows[0] ^= 2
    rows[1] ^= 1
    bad = graphs.graph6_encode(graphs.FiniteGraph(64, tuple(rows)))
    rejects(checks.check_adj, O, {**report, "graph6": bad}, range(1, 65))


def test_digest_sees_inconclusive_fields():
    a = Inconclusive("DeadEnd", {"step": 12, "pool_remaining": 3})
    b = Inconclusive("DeadEnd", {"step": 13, "pool_remaining": 3})
    assert digest(a) == digest(Inconclusive("DeadEnd", {"pool_remaining": 3, "step": 12}))
    assert digest(a) != digest(b)


def test_tracer_rebinds_from_imports_and_restores_them():
    originals = (cli.weak_universality, mc._exact_gfree, constructions.pi02_force, EdgeOracle.edge)
    tracer = Tracer()
    with tracer:
        assert cli.weak_universality is audit.weak_universality is not originals[0]
        assert constructions.pi02_force is largeness.pi02_force is not originals[2]
        report = cli.weak_universality(O, VertexSet.interval(1, 64), 3)
        constructions.construct_pi02_member(O, largeness.substantial_family(), 1, 1000)
    assert (cli.weak_universality, mc._exact_gfree, constructions.pi02_force, EdgeOracle.edge) == originals
    snap = tracer.snapshot()
    assert snap["audit.search_nodes"] == sum(p["nodes"] for p in report["patterns"])
    assert snap["largeness.force_calls"] == 2  # forcing, then the certificate
    assert snap["oracle.scalar_calls"] > 0 and snap["oracle.edge_evals"] > snap["oracle.scalar_calls"]
    assert snap["graphs.canonical_forms"] == 7  # one per pattern of order <= 3


def test_tracer_counts_repeat_exactly():
    def counts():
        tracer = Tracer()
        with tracer:
            embed.embed_target(O, graphs.cycle(5), VertexSet.interval(1, 2048))
            mc.mc_fn_bound(graphs.complete(3), [10], 2, 10, 1)
        return {k: v for k, v in tracer.snapshot().items() if not k.endswith("_s")}

    assert counts() == counts()
