"""Mutation check: each row of MUTANTS breaks one guarded line of the
library, and the tests it names must then fail.

For every row the script copies ``src/`` to a temporary directory, replaces
the row's snippet (which must occur exactly once in its module) and runs the
named tests with ``-x`` against the copy.  A row whose snippet no longer
occurs fails the run, so a refactor has to update the table rather than skip
a row silently.  pytest does not collect this file; run it from anywhere:

    python tests/mutation.py
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/radolab
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


AP_BRUTE = "tests/test_largeness.py::test_thickness_and_ap_match_brute_force"
AP_EXAMPLES = "tests/test_largeness.py::test_longest_ap_examples"
REPORT_JSON = "tests/test_sets.py::test_every_report_is_strict_json_keyed_by_its_fields"
EMISSION = "tests/test_cli.py::test_emission_matches_the_rounded_reference"
EXTENSION_REF = "tests/test_oracle.py::test_extension_witnesses_match_the_least_witness_reference"
EDGE_GRID_REF = "tests/test_oracle.py::test_edge_grid_rows_below_above_and_across_chunks_match_edge_pairs"
TYPE_CLASS_REF = "tests/test_oracle.py::test_type_class_matches_type_keys_and_scalar_edges"
STREAM_BITS_REF = "tests/test_oracle.py::test_stream_bits_match_the_whole_stream_reference"

MUTANTS = [
    Mutant(
        "longest_ap: a row's tie-break prefers the larger difference",
        "largeness.py",
        "k = int(np.argmax(row))",
        "k = len(row) - 1 - int(np.argmax(row[::-1]))",
        (AP_BRUTE,),
    ),
    Mutant(
        "longest_ap: rows' tie-break prefers the larger difference",
        "largeness.py",
        "best = min(best, (-length, d, int(top[k]) - (length - 1) * d))\n    return (best[2], best[1], -best[0])",
        "best = min(best, (-length, -d, int(top[k]) - (length - 1) * d))\n    return (best[2], -best[1], -best[0])",
        (AP_BRUTE,),
    ),
    Mutant(
        "longest_ap: start counted back from top by length, not length - 1",
        "largeness.py",
        "int(top[k]) - (length - 1) * d",
        "int(top[k]) - length * d",
        (AP_EXAMPLES,),
    ),
    Mutant(
        "longest_ap: predecessor accepted without the equality test",
        "largeness.py",
        "np.where(vals[i] == prev, ap_len[i, j], 1)",
        "np.where(i < j, ap_len[i, j], 1)",
        (AP_EXAMPLES,),
    ),
    Mutant(
        "mc_density_star: the marked class drops its base's first edge",
        "mc.py",
        "(1 << k) - 1, pool)",
        "(1 << k) - 2, pool)",
        ("tests/test_mc.py::test_density_star_trial_values_match_type_keys",),
    ),
    Mutant(
        "type_frequency_check: a member block that ends the pool counted with two edges",
        "mc.py",
        "(int(members[-1]) == bound)",
        "(int(members[-1]) == bound + 1)",
        ("tests/test_mc.py::test_type_frequency_count_and_runs_match_the_indicator",),
    ),
    Mutant(
        "WeightFunction.crossing: >= instead of >",
        "largeness.py",
        "np.flatnonzero(sums > level)",
        "np.flatnonzero(sums >= level)",
        ("tests/test_largeness.py::test_force_least_crossing",
         "tests/test_properties.py::test_weighted_force_matches_one_full_cumsum"),
    ),
    Mutant(
        "construct_thick_copy: verification skips the last image",
        "constructions.py",
        "verify_embedding(oracle, target, tuple(images))",
        "verify_embedding(oracle, target, tuple(images[:-1]))",
        ("tests/test_constructions.py::test_thick_copy_verification_reads_the_last_pair",),
    ),
    Mutant(
        "verify_embedding: skips the pairs of neighbouring images",
        "embed.py",
        "for j in range(i + 1, len(images)):",
        "for j in range(i + 2, len(images)):",
        ("tests/test_constructions.py::test_thick_copy_verification_reads_the_last_pair",),
    ),
    Mutant(
        "_key_row: the split one pool vertex late, so the first larger vertex is keyed as the smaller",
        "oracle.py",
        "i = int(pool.searchsorted(np.uint64(c)))",
        "i = int(pool.searchsorted(np.uint64(c))) + 1",
        (EDGE_GRID_REF, TYPE_CLASS_REF),
    ),
    Mutant(
        "_key_row: the split one pool vertex early, so the last smaller vertex is keyed as the larger",
        "oracle.py",
        "i = int(pool.searchsorted(np.uint64(c)))",
        "i = max(int(pool.searchsorted(np.uint64(c))) - 1, 0)",
        (TYPE_CLASS_REF, EDGE_GRID_REF),
    ),
    Mutant(
        "type_class: the rejected side kept",
        "oracle.py",
        "oracle._edge_bits(key[:n], keep[:n], tmp[:n], want)",
        "oracle._edge_bits(key[:n], keep[:n], tmp[:n], not want)",
        (TYPE_CLASS_REF,),
    ),
    Mutant(
        "_key_row: a vertex of 2^32 or more keyed as v << 32",
        "oracle.py",
        "if i < len(pool) and pool[-1] >> _U32:",
        "if False:",
        ("tests/test_oracle.py::test_type_class_rows_below_inside_and_above_match_scalar_edges", EDGE_GRID_REF),
    ),
    Mutant(
        "_verdict_for: mix64's last step skipped where T is a multiple of 2^21 only",
        "oracle.py",
        "threshold % (1 << 22) == 0",
        "threshold % (1 << 21) == 0",
        ("tests/test_oracle.py::test_verdicts_at_the_threshold_match_scalar_edges",),
    ),
    Mutant(
        "_verdict_for: the threshold compared at the wrong scale",
        "oracle.py",
        "np.uint64((threshold << 11) - 1)",
        "np.uint64((threshold << 10) - 1)",
        ("tests/test_oracle.py::test_scalar_vector_agreement",),
    ),
    Mutant(
        "adjacency_rows: blocks overlap by one row",
        "oracle.py",
        "for lo in range(0, len(which), _ROW_BLOCK):",
        "for lo in range(0, len(which), _ROW_BLOCK - 1):",
        ("tests/test_oracle.py::test_adjacency_rows_span_several_blocks",),
    ),
    Mutant(
        "extension_check: key bit order reversed",
        "oracle.py",
        "np.left_shift(row, i, dtype=np.int64)",
        "np.left_shift(row, k - 1 - i, dtype=np.int64)",
        (EXTENSION_REF,),
    ),
    Mutant(
        "extension_check: stops before every type has a witness",
        "oracle.py",
        "if first.max() <= top:",
        "if first.min() <= top:",
        (EXTENSION_REF,),
    ),
    Mutant(
        "extension_check: a vertex of F kept in its chunk",
        "oracle.py",
        'np.searchsorted(gaps, candidates, side="right")',
        'np.searchsorted(gaps, candidates, side="left")',
        (EXTENSION_REF,),
    ),
    Mutant(
        "mix64: a shift changed",
        "oracle.py",
        "z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64",
        "z = ((z ^ (z >> 31)) * _MIX_MUL_1) & MASK64",
        ("tests/test_oracle.py::test_mix64_matches_published_splitmix_vectors",),
    ),
    Mutant(
        "_stream_blocks: tags shifted by one",
        "oracle.py",
        "_mix64_np(tags[r0 : r0 + rows] * _GOLDEN)",
        "_mix64_np((tags[r0 : r0 + rows] + np.uint64(1)) * _GOLDEN)",
        (STREAM_BITS_REF,),
    ),
    Mutant(
        "stream_bits: every block written at column 0",
        "oracle.py",
        "out=out[r0 : r0 + z.shape[0], lo : lo + z.shape[1]]",
        "out=out[r0 : r0 + z.shape[0], : z.shape[1]]",
        (STREAM_BITS_REF, "tests/test_mc.py::test_mu_p_members_match_the_whole_stream"),
    ),
    Mutant(
        "find_induced: a non-edge constraint dropped",
        "graphs.py",
        "cand = cand & row if adjacent else cand & ~row",
        "cand = cand & row if adjacent else cand",
        ("tests/test_properties.py::test_find_induced_matches_exhaustive_search",),
    ),
    Mutant(
        "canonical_form: the largest code, not the least",
        "graphs.py",
        "(_upper_bits(g) @ weights).min()",
        "(_upper_bits(g) @ weights).max()",
        ("tests/test_graphs.py::test_relabelling_table_matches_permutation_scan",),
    ),
    Mutant(
        "_pairs: the upper triangle read row by row",
        "graphs.py",
        "mask = np.tri(n, k=-1, dtype=bool)",
        "mask = np.tri(n, k=-1, dtype=bool).T",
        ("tests/test_graphs.py::test_graph6_matches_the_reference_codec",),
    ),
    Mutant(
        "enumerate_unlabeled: repeated least codes kept",
        "graphs.py",
        "codes[np.r_[True, codes[1:] != codes[:-1]]]",
        "codes[np.r_[True, codes[1:] >= codes[:-1]]]",
        ("tests/test_graphs.py::test_enumerate_counts_match_brute_force",),
    ),
    Mutant(
        "_gfree_flags: a pattern-free class marks its representative's code only",
        "mc.py",
        "flags[(_upper_bits(g) @ weights).astype(np.intp)] = True",
        "flags[(_upper_bits(g) @ weights[:, :1]).astype(np.intp)] = True",
        ("tests/test_mc.py::test_catalog_table_matches_subset_scan",),
    ),
    Mutant(
        "mc_gfree_probability: n = EXACT_N_CAP searched per trial, so no exact value",
        "mc.py",
        "if n <= EXACT_N_CAP:",
        "if n < EXACT_N_CAP:",
        ("tests/test_mc.py::test_table_verdicts_match_a_search_of_every_trial",),
    ),
    Mutant(
        "VertexSet.from_iterable: repeated elements kept",
        "sets.py",
        "first[1:] = arr[1:] != arr[:-1]",
        "first[1:] = True",
        ("tests/test_properties.py::test_from_iterable_matches_reference",),
    ),
    Mutant(
        "_json_value: a tuple kept as a tuple",
        "sets.py",
        "return [v if type(v) in _PLAIN else _json_value(v, leaf) for v in value]",
        "return tuple(v if type(v) in _PLAIN else _json_value(v, leaf) for v in value)",
        (REPORT_JSON,),
    ),
    Mutant(
        "_json_value: a vertex set left unconverted",
        "sets.py",
        "return value.as_array.tolist()",
        "return value",
        (REPORT_JSON,),
    ),
    Mutant(
        "_json_value: a report's fields walked without the CLI leaf, so its floats print unrounded",
        "sets.py",
        "for f in fields(value)}, leaf)",
        "for f in fields(value)})",
        (EMISSION,),
    ),
    Mutant(
        "_printed: floats printed with 13 significant digits",
        "cli.py",
        'return float("%.12g" % value)',
        'return float("%.13g" % value)',
        ("tests/test_cli.py::test_floats_printed_with_12_significant_digits", EMISSION),
    ),
    Mutant(
        "_greedy_gfree: every vertex kept",
        "audit.py",
        "if find_induced(rows, taken | 1 << v, pattern, anchor=v)[0] is None:",
        "if True:",
        ("tests/test_properties.py::test_greedy_gfree_matches_subset_scan",),
    ),
    Mutant(
        "_verify_gfree: the last vertex left out of the search",
        "audit.py",
        "find_induced(rows, (1 << len(chosen)) - 1, pattern)",
        "find_induced(rows, (1 << len(chosen) - 1) - 1, pattern)",
        ("tests/test_audit.py::test_gfree_answer_is_reverified_through_its_last_vertex",),
    ),
    Mutant(
        "rank_candidates: a candidate's own entry not subtracted",
        "embed.py",
        "counts[keys[at[r]]] -= 1",
        "counts[keys[at[r]]] -= 0",
        ("tests/test_embed.py::test_step_scores_match_reference",),
    ),
    Mutant(
        "rank_candidates: the candidate's bit shifted by n, not n_placed",
        "embed.py",
        "row.astype(np.int64) << n_placed",
        "row.astype(np.int64) << n",
        ("tests/test_embed.py::test_step_scores_match_reference",),
    ),
    Mutant(
        "_scan: last_start one too small",
        "constructions.py",
        "last_start = prefix_bound - length + 1",
        "last_start = prefix_bound - length",
        ("tests/test_constructions.py::test_scan_yields_the_start_by_start_survivors",),
    ),
    Mutant(
        "_place_blocks: give-up probability counts C(j+1, 2) internal pairs",
        "constructions.py",
        "zeros = math.comb(j, 2) + j * offset - ones",
        "zeros = math.comb(j + 1, 2) + j * offset - ones",
        ("tests/test_constructions.py::test_empty_copy_gives_up_with_the_edgeless_probability",),
    ),
    Mutant(
        "cli: a give-up exits 2 instead of 3",
        "cli.py",
        "exc.record, EXIT_EXHAUSTED",
        "exc.record, EXIT_NEGATIVE",
        ("tests/test_cli.py::test_construct_thick_cli",),
    ),
    Mutant(
        "cmd_audit_weak: an inconclusive audit exits 2 instead of 3",
        "cli.py",
        '.get(report["verdict"], EXIT_EXHAUSTED)',
        '.get(report["verdict"], EXIT_NEGATIVE)',
        ("tests/test_cli.py::test_audit_weak_budget_give_up_exits_three",),
    ),
    Mutant(
        "DeadEnd: the record drops pool_remaining",
        "embed.py",
        '"required_type": required.bits, "pool_remaining": pool_remaining',
        '"required_type": required.bits',
        ("tests/test_golden.py",),
    ),
    Mutant(
        "main: the fixed-coin check skipped for the commands that query no edges",
        "cli.py",
        "if row.coin and args.probability",
        "if row.coin == _MC_COIN and args.probability",
        ("tests/test_cli.py::test_set_commands_refuse_other_probabilities",),
    ),
    Mutant(
        "parse_notation: a keyword host counted one short",
        "sets.py",
        "len(range(a, prefix_bound + 1, d))",
        "len(range(a, prefix_bound, d))",
        ("tests/test_sets.py::test_keyword_hosts_are_counted_before_they_are_built",),
    ),
    Mutant(
        "parse_runs: a run counted one short",
        "sets.py",
        "int(b - a) + 1",
        "int(b - a)",
        ("tests/test_sets.py::test_runs_are_counted_by_their_summed_lengths",),
    ),
    Mutant(
        "check_limit: a value one above its cap accepted",
        "limits.py",
        "if value > cap:",
        "if value > cap + 1:",
        ("tests/test_cli.py::test_limits_accept_the_cap_and_refuse_one_above_it",),
    ),
]


def check(mutant: Mutant, tmp: pathlib.Path) -> str | None:
    """Apply the mutant to a fresh copy of src/ and run its tests there; the
    reason the mutant counts as not killed, or None."""
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "radolab" / mutant.module
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return "snippet occurs %d times in %s" % (text.count(mutant.snippet), mutant.module)
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    ids = [str(ROOT / t) for t in mutant.tests]
    # run from tmp so that no Hypothesis database or pytest cache lands in the repository
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    if result.returncode == 1:
        return None
    return "survived" if result.returncode == 0 else "pytest exit %d:\n%s" % (result.returncode, result.stdout[-2000:])


def main() -> int:
    rows = range(len(MUTANTS))
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="radolab-mutation-") as tmp:
        for i in rows:
            t = time.perf_counter()
            reason = check(MUTANTS[i], pathlib.Path(tmp))
            failed += reason is not None
            print("%2d %-8s %5.1fs  %s" % (i, "killed" if reason is None else "FAILED", time.perf_counter() - t,
                                          MUTANTS[i].name))
            if reason is not None:
                print("   " + reason)
    print("%d of %d mutants killed in %.0f s" % (len(rows) - failed, len(rows), time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
