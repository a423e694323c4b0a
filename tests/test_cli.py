import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radolab import limits
from radolab.audit import SearchResult
from radolab.cli import _commands, emit, main
from radolab.embed import Embedding, StepRecord
from radolab.graphs import empty_graph, graph6_decode, graph6_encode
from radolab.largeness import DensityReport
from radolab.oracle import EdgeOracle
from radolab.sets import Report, VertexSet
from reference import rounded

BASE = [sys.executable, "-m", "radolab"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("RADO_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=env)


def test_edge_deterministic_json():
    a = run("edge", "--seed", "7", "-u", "3", "-v", "5")
    b = run("edge", "--seed", "7", "-u", "3", "-v", "5")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["seed"] == 7 and isinstance(payload["edge"], bool)
    assert payload["version"] and payload["config"]["command"] == "edge"
    sym = run("edge", "--seed", "7", "-u", "5", "-v", "3")
    assert json.loads(sym.stdout)["edge"] == payload["edge"]


def test_hex_seed_and_env_fallback():
    hexrun = run("edge", "--seed", "0xff", "-u", "1", "-v", "2")
    decrun = run("edge", "--seed", "255", "-u", "1", "-v", "2")
    assert json.loads(hexrun.stdout)["edge"] == json.loads(decrun.stdout)["edge"]
    envrun = run("edge", "-u", "1", "-v", "2", env_extra={"RADO_SEED": "255"})
    assert json.loads(envrun.stdout)["edge"] == json.loads(decrun.stdout)["edge"]


def test_usage_errors_exit_one():
    assert run("no-such-command").returncode == 1
    assert run("edge", "--seed", "7", "-u", "3").returncode == 1
    assert run("edge", "--seed", "zzz", "-u", "1", "-v", "2").returncode == 1
    assert run("sum", "--host", "even").returncode == 1  # needs prefix bound


def test_exit_code_taxonomy():
    # certified negative: edgeless host cannot contain K2
    neg = run("contains", "--seed", "1", "--host", "1,10,3042", "--pattern", "k:2")
    assert neg.returncode == 2
    # budget exhaustion is distinct
    bud = run("contains", "--seed", "3", "--host", "1-64", "--pattern", "k:5", "--budget", "3")
    assert bud.returncode == 3
    # found
    ok = run("contains", "--seed", "7", "--host", "1-512", "--pattern", "c:5")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["witness"] == [1, 2, 3, 4, 51]


def test_embed_cli_and_dead_end():
    ok = run("embed", "--seed", "7", "--target", "k:4", "--host", "1-4096")
    assert ok.returncode == 0
    payload = json.loads(ok.stdout)
    assert payload["images"] == [35, 63, 89, 7] and payload["verified"]
    dead = run("embed", "--seed", "1", "--target", "k:3", "--host", "1,10,3042")
    assert dead.returncode == 3
    assert json.loads(dead.stdout)["error"] == "dead end"


def test_audit_weak_cli():
    ok = run("audit-weak", "--seed", "7", "--host", "1-512", "--kmax", "4")
    assert ok.returncode == 0
    rep = json.loads(ok.stdout)
    assert rep["verdict"] == "pass" and len(rep["patterns"]) == 18
    neg = run("audit-weak", "--seed", "1", "--host", "1,10,11,3042,3043,3044", "--kmax", "2")
    assert neg.returncode == 2


def test_audit_weak_budget_give_up_exits_three():
    code, out, err = run_main("audit-weak --seed 1 --host 1-64 --kmax 3 --budget 1".split())
    rep = json.loads(out)
    assert (code, err, rep["verdict"]) == (3, "", "inconclusive")
    assert [p["status"] for p in rep["patterns"]] == ["found"] + ["budget"] * 6


def test_construct_thick_cli():
    ok = run("construct-thick", "--seed", "1", "--blocks", "3", "--prefix-bound", "100000")
    assert ok.returncode == 0
    rep = json.loads(ok.stdout)
    assert rep["verified"] and rep["intervals"] == [[1, 1], [10, 2], [3042, 3]]
    ex = run("construct-thick", "--seed", "1", "--blocks", "4", "--prefix-bound", "10000")
    assert ex.returncode == 3


def test_construct_pi02_cli():
    ok = run("construct-pi02", "--seed", "1", "--levels", "1", "--prefix-bound", "10000")
    assert ok.returncode == 0
    rep = json.loads(ok.stdout)
    assert rep["verified"] and rep["blocks"] == [[1, 2]]
    bad = run("construct-pi02", "--seed", "1", "--levels", "2", "--prefix-bound", "16")
    assert bad.returncode == 3
    rep = json.loads(bad.stdout)
    assert rep["error"] == "forcing failed at level 2 within prefix bound 16" and rep["level"] == 2


def test_mc_density_csv_shape():
    out = run("mc-density", "--seed", "1", "--k", "2", "--n", "2", "--pool", "1000", "--trials", "5", "--format", "csv")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,estimate,stderr,exact_if_available,envelope"
    cells = lines[1].split(",")
    assert cells[0] == "2" and cells[3] == "0.5625" and cells[4] == ""


def test_mc_gfree_csv_has_exact():
    out = run("mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "2000", "--format", "csv")
    lines = out.stdout.strip().splitlines()
    cells = lines[1].split(",")
    assert cells[0] == "5" and abs(float(cells[3]) - 388 / 1024) < 1e-9


def test_mc_fn_rows():
    out = run("mc-fn", "--seed", "1", "--pattern", "k:2", "--n-list", "4,8", "--n-param", "1", "--trials", "20", "--format", "csv")
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 3


def test_typefreq_cli():
    ok = run("typefreq", "--seed", "1", "--f", "1-4", "--bound", "100000")
    assert ok.returncode == 0
    rep = json.loads(ok.stdout)
    assert rep["band_ok"] and abs(rep["expected"] - 0.0625) < 1e-12


def test_sample_mup_runs_notation():
    out = run("sample-mup", "--seed", "1", "--p", "1/2", "--prefix-bound", "100")
    rep = json.loads(out.stdout)
    assert out.returncode == 0 and 20 <= rep["count"] <= 80
    assert isinstance(rep["elements"], str)


def test_density_dyadic_checkpoints():
    out = run("density", "--host", "even", "--prefix-bound", "64")
    rep = json.loads(out.stdout)
    assert rep["checkpoints"] == [2, 4, 8, 16, 32, 64]
    assert rep["densities"] == [0.5] * 6


def test_density_explicit_checkpoints():
    out = run("density", "--host", "1-100", "--checkpoints", "10,50,100")
    rep = json.loads(out.stdout)
    assert rep["checkpoints"] == [10, 50, 100] and rep["sup_density"] == 1.0


def test_density_refuses_checkpoint_zero_by_name():
    for points in ("0", "0,5"):
        out = run("density", "--host", "1-10", "--checkpoints", points)
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr == "error: checkpoints must be >= 1, not 0\n"


def test_gfree_max_cli():
    out = run("gfree-max", "--seed", "7", "--window", "1-16", "--pattern", "k:2")
    rep = json.loads(out.stdout)
    assert out.returncode == 0 and rep["size"] == len(rep["elements"])


def test_dyadic_audit_cli_exit_codes():
    viol = run("dyadic-audit", "--seed", "1", "--pattern", "k:2", "--n-param", "0", "--k-from", "2", "--k-to", "3")
    assert viol.returncode == 2
    ok = run("dyadic-audit", "--seed", "1", "--pattern", "k:2", "--n-param", "99", "--k-from", "2", "--k-to", "3")
    assert ok.returncode == 0


def test_extension_negative_exit():
    out = run("extension", "--seed", "1", "--f", "1-12", "--bound", "16")
    assert out.returncode == 2


def test_adj_graph6_output():
    out = run("adj", "--seed", "7", "--host", "1-5")
    rep = json.loads(out.stdout)
    assert rep["order"] == 5 and rep["graph6"].startswith("D")


def test_output_to_file(tmp_path):
    target = tmp_path / "out.json"
    run("edge", "--seed", "7", "-u", "3", "-v", "5", "--output", str(target))
    assert json.loads(target.read_text())["seed"] == 7


def test_host_file_notation(tmp_path):
    p = tmp_path / "host.txt"
    p.write_text("1-16\n")
    out = run("thick", "--host", "file:" + str(p))
    assert json.loads(out.stdout)["interval"] == [1, 16]


def test_an_edge_list_file_is_the_graph_it_lists(tmp_path):
    c5 = tmp_path / "c5.txt"
    c5.write_text("# C5, 0-based\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="ascii")
    argv = ["contains", "--seed", "1", "--host", "1-64", "--pattern"]
    code, out, err = run_main([*argv, "file:%s" % c5])
    want_code, want, _ = run_main([*argv, "c:5"])
    got, want = json.loads(out), json.loads(want)
    assert got["config"].pop("pattern") == "file:%s" % c5 and want["config"].pop("pattern") == "c:5"
    assert (code, err, got) == (want_code, "", want)
    assert got["witness"] == [1, 2, 6, 9, 33] and got["nodes"] == 5


def test_ap_on_a_sparse_host_needs_no_table_sized_by_its_top():
    # a lookup table as long as the largest element needed 7.28 TiB here
    out = run("ap", "--host", "1,1000000000000")
    assert out.returncode == 0
    assert json.loads(out.stdout)["ap"] == [1, 999999999999, 2]


def test_ap_on_5000_elements_without_3_term_ap_stays_small(tmp_path):
    # the first 5000 numbers with base-3 digits 0 and 1 only (n in binary, read
    # in base 3): no 3-term AP
    host = [int(format(n, "b"), 3) for n in range(1, 5001)]
    assert len(host) == 5000 and host[-1] == 559899
    p = tmp_path / "host.txt"
    p.write_text("\n".join(map(str, host)) + "\n")
    # the child reports its own VmHWM: on Linux its ru_maxrss, even RUSAGE_SELF,
    # starts at the RSS of the process that spawned it, here the test runner
    child = (
        "import sys\n"
        "from radolab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(l for l in status if l.startswith('VmHWM:')).split()[1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = subprocess.run([sys.executable, "-c", child, "ap", "--host", "file:" + str(p)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert json.loads(out.stdout)["ap"] == [3, 1, 2]
    peak_kb = int(out.stderr.split()[-1])  # kB
    assert peak_kb < 150 * 1024, "the child peaked at %.1f MB" % (peak_kb / 1024)


def test_common_commands_never_import_numpy_ma():
    # numpy's first np.unique call imports numpy.ma, about 20 ms of a fresh process
    child = (
        "import contextlib, io, sys\n"
        "from radolab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv.split()) for argv in sys.argv[1:]]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    argvs = [
        "mc-gfree --seed 7 --pattern k:3 --n 5 --trials 1000",
        "embed --seed 7 --target k:4 --host 1-4096",
        "audit-weak --seed 7 --host 1-512 --kmax 4",
        "extension --seed 7 --f 1-8 --bound 4096",
    ]
    out = subprocess.run([sys.executable, "-c", child, *argvs], capture_output=True, text=True, timeout=60)
    assert out.stdout == "[0, 0, 0, 0] False\n", out.stderr


def test_floats_printed_with_12_significant_digits():
    out = run("sum", "--host", "1-3")
    rep = json.loads(out.stdout)
    assert rep["sum"] == float("%.12g" % (1 + 0.5 + 1 / 3))


def _reports_to_json(value):
    """Every report as its ``to_json()`` and every vertex set as a list."""
    if isinstance(value, Report):
        return value.to_json()
    if isinstance(value, VertexSet):
        return list(value)
    if isinstance(value, dict):
        return {k: _reports_to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reports_to_json(v) for v in value]
    return value


FLOATS = st.one_of(st.floats(), st.sampled_from([5e-324, 1e-300, -1 / 3, -2.5e17, 1e300]))
NUMPY_SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
)
VERTEX_SETS = st.lists(st.integers(1, 10**12), max_size=4).map(VertexSet.from_iterable)
STEPS = st.builds(StepRecord, st.integers(0, 9), st.text(max_size=3), st.integers(1, 99), st.integers(0, 9))
REPORTS = st.one_of(
    st.builds(SearchResult, st.text(max_size=3), st.none() | VERTEX_SETS, st.integers(0, 99)),
    st.builds(Embedding, st.lists(st.integers(1, 99), max_size=3).map(tuple), st.lists(STEPS, max_size=2).map(tuple),
              st.booleans()),
    st.builds(DensityReport, st.lists(st.integers(), max_size=3).map(tuple), st.lists(FLOATS, max_size=3).map(tuple),
              FLOATS, NUMPY_SCALARS),
)
LEAVES = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text(max_size=4), FLOATS, st.fractions(),
    NUMPY_SCALARS, VERTEX_SETS, REPORTS,
)
PAYLOADS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=3), kids, max_size=3),
), max_leaves=12)
FIELDS = st.dictionaries(st.text(max_size=3), PAYLOADS, max_size=4)


@given(FIELDS, st.one_of(FIELDS, REPORTS))
@example({"config": {"probability": Fraction(1, 3), "c": 0.1 + 0.2}}, DensityReport((3,), (1 / 3,), 1 / 3, 1 / 3))
@example({"seed": np.uint64(7)}, {"runs": [{"z": np.float64(2 / 3)}], "in": (DensityReport((3,), (), 0.1 + 0.2, 0),)})
def test_emission_matches_the_rounded_reference(header, result):
    """One walk prints every report the way that converting the reports with
    ``to_json`` and then rounding value by value prints it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(argparse.Namespace(), header, result)
    expected = rounded({**_reports_to_json(header), **_reports_to_json(result)})
    assert out.getvalue() == json.dumps(expected, sort_keys=True) + "\n"


def test_negative_exponents_parse_with_and_without_an_equals_sign():
    argv = ["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "10"]
    for value in ("-1e-3", "-2.5E+1", "-.5e1", "-inf"):
        assert run_main([*argv, "--c", value]) == run_main([*argv, "--c=" + value])
    code, out, err = run_main([*argv, "--c", "-1e-3"])
    assert (code, err) == (0, "") and json.loads(out)["config"]["c"] == -0.001


def test_adj_beyond_64_vertices_matches_scalar_edges():
    out = run("adj", "--seed", "1", "--host", "1-80")
    assert out.returncode == 0 and "Traceback" not in out.stderr
    rep = json.loads(out.stdout)
    g = graph6_decode(rep["graph6"])
    o = EdgeOracle(1)
    assert g.order == rep["order"] == 80
    assert all(g.has_edge(i, j) == o.edge(i + 1, j + 1) for i in range(80) for j in range(i + 1, 80))


def test_typefreq_rejects_bad_masks():
    for mask in ("10", "1010", "1x1", ""):
        out = run("typefreq", "--seed", "1", "--f", "1-3", "--mask", mask, "--bound", "1000")
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("error: type bits") and "Traceback" not in out.stderr


def test_missing_prefix_bound_is_a_usage_error():
    for argv in (
        ["construct-thick", "--blocks", "3"],
        ["construct-thick-copy", "--target", "k:3", "--blocks", "2"],
        ["construct-pi02", "--levels", "2"],
        ["sample-mup", "--p", "1/2"],
    ):
        out = run(*argv)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr == "error: %s needs --prefix-bound\n" % argv[0]


def test_failed_reverification_exits_four(monkeypatch, capsys):
    edge = EdgeOracle.edge
    monkeypatch.setattr(EdgeOracle, "edge", lambda self, u, v: not edge(self, u, v))
    assert main(["contains", "--seed", "1", "--host", "1-64", "--pattern", "k:3"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: embedding verification failed on pair (1, 2)\n"


def test_pattern_free_answer_is_verified_from_scalar_edges(monkeypatch, capsys):
    # the solver works on edge_grid rows; only the scalar re-verification sees the flip
    edge = EdgeOracle.edge
    monkeypatch.setattr(EdgeOracle, "edge", lambda self, u, v: not edge(self, u, v))
    assert main(["gfree-max", "--seed", "1", "--window", "1-16", "--pattern", "k:2"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: pattern-free verification failed\n"


def test_malformed_window_is_a_usage_error():
    for window in ("5", "1-", "a-b", "1-2-3"):
        out = run("gfree-max", "--window", window, "--pattern", "k:3")
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
        assert out.stderr.startswith("error: --window must be an inclusive interval a-b")


def test_oversized_input_is_a_usage_error():
    out = run("extension", "--seed", "1", "--f", "1-45", "--bound", "100")
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr == "error: extension base size 45 exceeds EXTENSION_BASE_CAP = 20\n"
    # before NOTATION_SET_CAP each host below asked numpy for 36-73 TiB
    for host, size in (("all", 10**13), ("1-10000000000000", 10**13), ("even", 5 * 10**12), ("ap:1,1", 10**13)):
        start = time.perf_counter()
        assert run_main(["density", "--host", host, "--prefix-bound", "10000000000000", "--seed", "1"]) == (
            1, "", "error: host set of %d elements exceeds NOTATION_SET_CAP = 134217728\n" % size
        )
        assert time.perf_counter() - start < 1


def test_mc_commands_refuse_other_probabilities():
    for argv in (
        ["mc-density", "--k", "2", "--n", "2", "--pool", "100", "--trials", "2"],
        ["mc-gfree", "--pattern", "k:3", "--n", "5", "--trials", "100"],
        ["mc-fn", "--pattern", "k:3", "--n-list", "8", "--n-param", "1", "--trials", "5"],
    ):
        out = run(*argv, "--seed", "1", "--probability", "1/4")
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
        assert out.stderr == "error: %s samples at probability 1/2 only, not 1/4\n" % argv[0]
        assert run(*argv, "--seed", "1", "--probability", "0.5").returncode == 0


def run_main(argv, rado_seed=None):
    """``main`` in process, with RADO_SEED set to the given value or unset."""
    env = {k: v for k, v in os.environ.items() if k != "RADO_SEED"}
    if rado_seed is not None:
        env["RADO_SEED"] = rado_seed
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_set_commands_refuse_other_probabilities():
    """density, sum, thick, ap and sample-mup query no edges, so a
    --probability they would ignore is a usage error."""
    for argv in (
        ["density", "--host", "1-10"],
        ["sum", "--host", "1-10"],
        ["thick", "--host", "1-10"],
        ["ap", "--host", "1-10"],
        ["sample-mup", "--p", "1/2", "--prefix-bound", "100"],
    ):
        assert run_main([*argv, "--seed", "7", "--probability", "1/3"]) == (
            1, "", "error: %s queries no edges, so --probability must be 1/2, not 1/3\n" % argv[0]
        )
        for p in ("1/2", "0.5"):
            assert run_main([*argv, "--seed", "7", "--probability", p])[0] == 0


def test_bad_rado_seed_is_a_usage_error():
    for value in ("zz", "", "-1", str(1 << 64)):
        assert run_main(["edge", "-u", "1", "-v", "2"], rado_seed=value) == (1, "", "bad RADO_SEED value %r\n" % value)
    assert run_main(["edge", "-u", "1", "-v", "2"], rado_seed="0xff")[0] == 0


def test_mc_fn_needs_a_trial():
    for trials in ("0", "-1"):
        argv = ["mc-fn", "--pattern", "k:3", "--n-list", "5", "--n-param", "1", "--trials", trials]
        assert run_main(argv) == (1, "", "error: need at least one trial\n")


def test_audit_weak_refuses_a_negative_order():
    # --kmax -1 swept no order at all and passed
    assert run_main(["audit-weak", "--host", "1-10", "--kmax", "-1"]) == (1, "", "error: k_max must be >= 0, not -1\n")
    code, out, err = run_main(["audit-weak", "--host", "1-10", "--kmax", "0"])
    assert (code, err) == (0, "") and json.loads(out)["patterns"] == []


def test_dyadic_audit_refuses_an_empty_k_range():
    # --k-from above --k-to audited no window and passed
    argv = ["dyadic-audit", "--pattern", "k:2", "--n-param", "1", "--k-from", "4", "--k-to", "3"]
    assert run_main(argv) == (1, "", "error: k range 4 to 3 is empty\n")


def test_type_needs_a_positive_vertex():
    for m in ("0", "-3"):
        code, out, err = run_main(["type", "--m", m, "--base", "1-5"])
        assert (code, out) == (1, "") and err == "error: type_of requires a vertex m >= 1, not %s\n" % m


def test_vertices_beyond_64_bits_are_usage_errors():
    # 2^64 + 7 used to answer for {3, 7}, and m = 2^64 + 3 for the pseudo-pair {3, 3}
    for argv in (
        ["edge", "--seed", "1", "-u", "3", "-v", "18446744073709551623"],
        ["type", "--seed", "1", "--m", "18446744073709551619", "--base", "1-3"],
    ):
        code, out, err = run_main(argv)
        assert (code, out) == (1, "") and "2^64" in err


def test_greedy_pattern_free_growth_scales_past_k4():
    # one induced-copy search per vertex; enumerating every 4-subset of the
    # taken set per vertex, as greedy growth once did, takes over 40 s here
    r = subprocess.run(
        BASE + ["gfree-max", "--seed", "1", "--window", "1-2000", "--pattern", "k:5", "--mode", "greedy"],
        capture_output=True, text=True, timeout=20,
    )
    assert r.returncode == 0 and json.loads(r.stdout)["size"] > 0


def test_zero_denominators_and_overflow_are_usage_errors():
    for argv in (
        ["edge", "-u", "1", "-v", "2", "--probability", "1/0"],
        ["sample-mup", "--p", "1/0", "--prefix-bound", "100"],
        ["thick", "--host", "mup:1/0", "--prefix-bound", "100"],
        ["mc-gfree", "--pattern", "k:3", "--n", "5", "--trials", "10", "--c", "-1000"],
        ["gfree-max", "--window", "%d-%d" % (10**23, 10**23), "--pattern", "k:3"],
    ):
        code, out, err = run_main(argv)
        assert (code, out) == (1, "") and err


def test_graph_orders_above_the_cap_are_usage_errors(tmp_path):
    # building and checking E30000 alone takes minutes: the cap must act first
    r = subprocess.run(
        BASE + ["embed", "--seed", "1", "--target", "e:30000", "--host", "1-10"],
        capture_output=True, text=True, timeout=10,
    )
    assert (r.returncode, r.stdout) == (1, "") and "PATTERN_ORDER_CAP = 1024" in r.stderr
    edges = tmp_path / "far.txt"
    edges.write_text("0 1\n1 1024\n", encoding="ascii")
    for target in ("k:1025", "c:1025", "p:1025", "e:1025", "file:%s" % edges):
        code, out, err = run_main(["embed", "--target", target, "--host", "1-10"])
        assert (code, out) == (1, "") and err == "error: graph order 1025 exceeds PATTERN_ORDER_CAP = 1024\n"


def test_graph6_patterns_are_held_to_the_order_cap(tmp_path):
    for n in (1024, 1025):
        text = graph6_encode(empty_graph(n))
        line = tmp_path / ("e%d.g6" % n)
        line.write_text(text + "\n", encoding="ascii")
        for target in ("g6:" + text, "file:%s" % line):
            code, out, err = run_main(["embed", "--seed", "1", "--target", target, "--host", "1-3"])
            if n == 1024:
                assert code == 3 and json.loads(out)["error"] == "dead end" and err == ""
            else:
                assert (code, out, err) == (1, "", "error: graph order 1025 exceeds PATTERN_ORDER_CAP = 1024\n")


def test_an_envelope_a_float_cannot_hold_is_refused_before_any_trial():
    argv = ["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "10", "--c"]
    with mock.patch("radolab.mc._trial_graph_bits") as trials:
        assert run_main([*argv, "-1000"]) == (
            1, "", "error: envelope 2^(-c n^2) = 2^25000 at c = -1000, n = 5 exceeds the largest float\n"
        )
    trials.assert_not_called()
    code, out, err = run_main([*argv, "1000"])  # underflows to 0.0
    assert (code, err) == (0, "") and json.loads(out)["envelope"] == 0.0



def test_order_zero_patterns_are_refused_by_name():
    for argv in (
        ["gfree-max", "--window", "1-10", "--pattern", "e:0"],
        ["gfree-max", "--window", "1-10", "--pattern", "e:0", "--mode", "greedy"],
        ["dyadic-audit", "--pattern", "e:0", "--n-param", "1", "--k-from", "1", "--k-to", "3"],
        ["mc-fn", "--pattern", "e:0", "--n-list", "8", "--n-param", "1", "--trials", "5"],
        ["mc-gfree", "--pattern", "e:0", "--n", "3"],
        ["mc-gfree", "--pattern", "e:0", "--n", "8"],
    ):
        assert run_main([*argv, "--seed", "1"]) == (
            1, "", "error: a pattern-free subset needs a pattern with at least one vertex\n"
        )


def test_pattern_free_solvers_refuse_order_eight_by_name():
    for argv in (
        ["gfree-max", "--window", "1-20", "--pattern", "k:8"],
        ["gfree-max", "--window", "1-20", "--pattern", "k:8", "--mode", "greedy"],
        ["mc-fn", "--pattern", "k:8", "--n-list", "12", "--n-param", "1", "--trials", "2"],
    ):
        assert run_main([*argv, "--seed", "1"]) == (
            1, "", "error: pattern order 8 exceeds GFREE_PATTERN_ORDER_CAP = 7\n"
        )


def test_mc_density_work_above_the_cap_is_refused_fast():
    # the trial loop ran until a 10 s timeout before the cap
    for argv in (
        ["--k", "2", "--n", "2", "--pool", "10", "--trials", "99999999999999999999999"],
        ["--k", "1", "--n", "1", "--pool", "10000001", "--trials", "2"],
    ):
        r = subprocess.run(BASE + ["mc-density", "--seed", "1", *argv], capture_output=True, text=True, timeout=2)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: trials * n * k * pool exceeds MC_DENSITY_EDGE_CAP = 20000000\n"


def test_pattern_free_windows_above_the_cap_are_usage_errors():
    # both ran into a multi-GiB adjacency grid, or for hours, before the cap
    for argv in (
        ["gfree-max", "--seed", "1", "--window", "1-100000", "--pattern", "k:3", "--mode", "greedy"],
        ["dyadic-audit", "--seed", "1", "--pattern", "k:2", "--n-param", "1", "--k-from", "1",
         "--k-to", "99999999999999999999999"],
    ):
        r = subprocess.run(BASE + argv, capture_output=True, text=True, timeout=10)
        assert (r.returncode, r.stdout) == (1, "") and "GFREE_WINDOW_CAP = 16384" in r.stderr


def test_construction_prefix_bounds_above_the_scan_cap_are_refused_fast():
    # the first two scanned for hours, or asked numpy for 7.28 TiB, before the cap
    for argv in (
        ["construct-pi02", "--seed", "4", "--levels", "3", "--prefix-bound", str(10**12)],
        ["construct-thick", "--blocks", "4", "--prefix-bound", str(10**12)],
        ["construct-thick", "--blocks", "2", "--prefix-bound", str(2**64 - 1)],
        ["construct-thick-copy", "--target", "petersen", "--blocks", "3", "--prefix-bound", "2000000001"],
    ):
        r = subprocess.run(BASE + argv, capture_output=True, text=True, timeout=2)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: prefix bound %s exceeds SCAN_PREFIX_CAP = 2000000000\n" % argv[-1]


@pytest.mark.parametrize("argv, what", [
    (["mc-gfree", "--pattern", "k:2", "--n", "2", "--trials", "134217729"], "trial-graph stream of 134217729 entries"),
    (["mc-gfree", "--pattern", "k:3", "--n", "5", "--trials", "1000000000"], "trial-graph stream of 10000000000 entries"),
    (["mc-fn", "--pattern", "k:3", "--n-list", "8", "--n-param", "1", "--trials", "4793491"],
     "trial-graph stream of 134217748 entries"),
    (["sample-mup", "--p", "1/2", "--prefix-bound", "134217729"], "mu_p stream of 134217729 entries"),
    (["sample-mup", "--p", "1/2", "--prefix-bound", "2000000000"], "mu_p stream of 2000000000 entries"),
])
def test_counter_streams_above_the_cap_are_refused_fast(argv, what):
    # before the cap, 10^9 trials asked numpy for 7.45 GiB of tags and 2 * 10^9 values for 14.9 GiB
    start = time.perf_counter()
    assert run_main([*argv, "--seed", "1"]) == (1, "", "error: %s exceeds STREAM_ENTRIES_CAP = 134217728\n" % what)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, pool", [
    (["extension", "--f", "1-3"], 10**12 - 3),
    (["typefreq", "--f", "1-4"], 10**12 - 4),
])
def test_pools_above_the_cap_are_refused_fast(argv, pool):
    # before the cap both asked numpy for 7.28 TiB of candidates
    start = time.perf_counter()
    assert run_main([*argv, "--bound", "1000000000000", "--seed", "1"]) == (
        1, "", "error: pool of %d vertices exceeds NOTATION_SET_CAP = 134217728\n" % pool
    )
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, at_cap, above, what, name", [
    (["mc-gfree", "--pattern", "k:3", "--trials", "10", "--n"], "32", "33", "n 33", "MC_N_CAP"),
    (["contains", "--host", "1-64", "--budget", "1000", "--pattern"], "k:10", "k:11", "pattern order 11",
     "CONTAINS_ORDER_CAP"),
    (["mc-gfree", "--n", "7", "--trials", "10", "--pattern"], "k:7", "k:8", "pattern order 8",
     "GFREE_PATTERN_ORDER_CAP"),
    (["extension", "--f", "1-3", "--bound"], "134217731", "134217732", "pool of 134217729 vertices",
     "NOTATION_SET_CAP"),
])
def test_limits_accept_the_cap_and_refuse_one_above_it(argv, at_cap, above, what, name):
    code, out, err = run_main([*argv, at_cap, "--seed", "1"])
    assert code != 1 and out and err == ""
    assert run_main([*argv, above, "--seed", "1"]) == (
        1, "", "error: %s exceeds %s = %d\n" % (what, name, getattr(limits, name))
    )


@pytest.mark.parametrize("argv", [
    "construct-thick --blocks 2 --prefix-bound -5",
    "construct-thick-copy --target k:3 --blocks 2 --prefix-bound -5",
    "construct-pi02 --levels 1 --prefix-bound -5",
    "sample-mup --p 1/2 --prefix-bound -2",
    "density --host mup:1/2 --prefix-bound -1",
])
def test_negative_prefix_bounds_are_refused_by_name(argv):
    assert run_main([*argv.split(), "--seed", "1"]) == (1, "", "error: prefix bound must be non-negative\n")


@pytest.mark.parametrize("argv, message", [
    ("density --host ap:x --prefix-bound 100", "bad arithmetic-progression notation 'ap:x'"),
    ("density --host ap:0,3 --prefix-bound 100", "ap start and difference must be >= 1"),
    ("contains --host 1-10 --pattern c:2", "a cycle needs at least 3 vertices"),
    ("sum --host 1-10 --weight x", "weight must be 'reciprocal' or 'power:EPS'"),
])
def test_malformed_inputs_are_refused_by_name(argv, message):
    assert run_main([*argv.split(), "--seed", "1"]) == (1, "", "error: %s\n" % message)


def test_an_empty_graph_file_is_refused_by_name(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n\n", encoding="ascii")
    argv = ["contains", "--seed", "1", "--host", "1-10", "--pattern", "file:%s" % empty]
    assert run_main(argv) == (1, "", "error: empty graph file %s\n" % empty)


# One working argv per subcommand, without a common option or with the
# prefix bound it needs.  Where a command queries no edge, a mup: host makes
# the seed matter; even and mup: hosts make the prefix bound matter.
HONOURED = {
    "edge": "-u 5 -v 6",
    "adj": "--host mup:1/2 --prefix-bound 40",
    "type": "--m 100 --base even --prefix-bound 20",
    "extension": "--f even --prefix-bound 8 --bound 300",
    "embed": "--target k:3 --host mup:1/2 --prefix-bound 300",
    "audit-weak": "--host mup:1/2 --prefix-bound 512 --kmax 3",
    "contains": "--host mup:1/2 --prefix-bound 64 --pattern c:5",
    "gfree-max": "--window 1-16 --pattern k:3",
    "dyadic-audit": "--pattern k:2 --n-param 3 --k-from 2 --k-to 5",
    "density": "--host mup:1/2 --prefix-bound 1000",
    "sum": "--host mup:1/2 --prefix-bound 1000",
    "thick": "--host mup:1/2 --prefix-bound 1000",
    "ap": "--host mup:1/2 --prefix-bound 1000",
    "construct-thick": "--blocks 3 --prefix-bound 200000",
    "construct-thick-copy": "--target petersen --blocks 3 --prefix-bound 100000",
    "construct-pi02": "--levels 2 --prefix-bound 100000",
    "mc-density": "--k 2 --n 3 --pool 500 --trials 5",
    "mc-gfree": "--pattern k:3 --n 8 --trials 200",
    "mc-fn": "--pattern k:3 --n-list 12 --n-param 2 --trials 20",
    "sample-mup": "--p 1/2 --prefix-bound 2000",
    "typefreq": "--f even --prefix-bound 8 --bound 100000",
}
AWAY_FROM_DEFAULT = {"--seed": "1", "--probability": "1/3", "--prefix-bound": "12", "--format": "csv"}


def _report(code, out):
    """A run's exit code and report without ``config`` and ``seed``, which echo every option."""
    try:
        fields = json.loads(out)
    except ValueError:
        return code, out  # CSV
    return code, {k: v for k, v in fields.items() if k not in ("config", "seed")}


@pytest.mark.parametrize("name", [row.name for row in _commands()])
def test_every_common_option_a_command_accepts_is_honoured(name, tmp_path):
    """Every common option set away from its default changes the report
    outside the config echo, or exits 1 naming the option; --output moves
    the same report from stdout to its file."""
    argv = [name, *HONOURED[name].split()]
    code, out, err = run_main(argv)
    assert code != 1 and out and err == ""
    for flag, value in AWAY_FROM_DEFAULT.items():
        got = run_main([*argv, flag, value])
        if got[0] == 1:
            assert got[1] == "" and flag.lstrip("-") in got[2], (flag, got[2])
        else:
            assert _report(*got[:2]) != _report(code, out), "%s %s is echoed but not read" % (flag, value)
    target = tmp_path / "report"
    assert run_main([*argv, "--output", str(target)]) == (code, "", "")
    assert target.read_text(encoding="ascii") == out


# Bounded argv for every subcommand: valid flag values, then at most one
# flag dropped or replaced by a malformed value.  Sizes stay small: prefix
# bound <= 10^4 (<= 300 where a whole host becomes an adjacency matrix),
# window <= 20, trials <= 50, |F| <= 8 (extension tabulates 2^|F| types),
# and --output is never set.
MALFORMED = st.sampled_from(
    ["-1", "0", "x", "", "1/0", "2.5", "5-3", "1-", "mup:1/0", "mup:2", "g6:~", "k:-1", "power:2", "file:missing"]
)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def words(*choices):
    return st.sampled_from(choices)


def maybe(strategy):
    return st.one_of(st.none(), strategy)


HOST = words("1-40", "1,10,3042", "even", "odd", "all", "ap:3,7", "mup:1/2", "mup:1/3")
F_SET = words("1-3", "2,5,9", "1-8", "7")
MC_PATTERN = words("k:1", "k:3", "c:4", "p:3", "e:2", "g6:Bw")
PATTERN = st.one_of(MC_PATTERN, words("e:12", "petersen"))
BOUND = ints(1, 10**4)
SMALL_BOUND = ints(1, 300)
TRIALS = ints(1, 50)
MC = {"--format": maybe(words("json", "csv")), "--trials": TRIALS}
COMMANDS = {
    "edge": {"-u": ints(-2, 2**70), "-v": ints(-2, 2**70)},
    "adj": {"--host": HOST, "--prefix-bound": SMALL_BOUND},
    "type": {"--m": ints(-3, 10**4), "--base": HOST},
    "extension": {"--f": F_SET, "--bound": BOUND},
    "embed": {
        "--target": PATTERN, "--host": HOST, "--candidate-cap": maybe(ints(0, 64)),
        "--score-horizon": maybe(ints(0, 64)), "--backtrack": maybe(st.just(True)),
    },
    "audit-weak": {"--host": HOST, "--kmax": ints(-3, 4), "--budget": ints(0, 5000), "--prefix-bound": SMALL_BOUND},
    "contains": {"--host": HOST, "--pattern": PATTERN, "--budget": ints(0, 5000), "--prefix-bound": SMALL_BOUND},
    "gfree-max": {
        "--window": st.tuples(st.integers(0, 40), st.integers(0, 20)).map(lambda t: "%d-%d" % (t[0], t[0] + t[1])),
        "--pattern": PATTERN, "--mode": maybe(words("exact", "greedy")),
    },
    "dyadic-audit": {"--pattern": PATTERN, "--n-param": ints(0, 3), "--k-from": ints(0, 5), "--k-to": ints(0, 5)},
    "density": {"--host": HOST, "--checkpoints": maybe(words("10,50", "64"))},
    "sum": {"--host": HOST, "--weight": maybe(words("reciprocal", "power:0.5"))},
    "thick": {"--host": HOST},
    "ap": {"--host": HOST},
    "construct-thick": {"--blocks": ints(1, 6)},
    "construct-thick-copy": {"--target": PATTERN, "--blocks": ints(1, 4)},
    "construct-pi02": {"--levels": ints(1, 3), "--family": maybe(words("substantial", "power:0.5"))},
    "mc-density": {"--k": ints(1, 4), "--n": ints(1, 4), "--pool": ints(1, 10**4), **MC},
    "mc-gfree": {"--pattern": MC_PATTERN, "--n": ints(1, 12), "--c": maybe(words("0.1", "-1000", "nan", "inf")), **MC},
    "mc-fn": {
        "--pattern": MC_PATTERN, "--n-param": ints(0, 2), **MC,
        "--n-list": st.lists(st.integers(1, 20), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    },
    "sample-mup": {"--p": words("1/2", "1/3", "0.9")},
    "typefreq": {"--f": F_SET, "--bound": BOUND, "--mask": maybe(words("1", "101", "111", "000"))},
}
# Every command draws the common options, and refuses those it does not read.
COMMON = {
    "--seed": ints(0, 2**64 - 1), "--probability": maybe(words("1/2", "0.5", "1/3", "1")),
    "--prefix-bound": maybe(BOUND),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {**COMMON, **COMMANDS[name]}
    values = {flag: draw(strategy) for flag, strategy in flags.items()}
    broken = draw(maybe(st.sampled_from(sorted(flags))))
    if broken is not None:
        values[broken] = draw(maybe(MALFORMED))
    argv = [name]
    for flag, value in values.items():
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    return argv


@settings(max_examples=300)
@given(argvs(), st.sampled_from([None, "7", "zz", "-1"]))
@example(["edge", "-u", "1", "-v", "2"], "zz")
@example(["mc-fn", "--pattern", "k:3", "--n-list", "5", "--n-param", "1", "--trials", "0"], None)
@example(["embed", "--seed", "1", "--target", "e:30000", "--host", "1-10"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "10", "--c", "nan"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "10", "--c", "-1000"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "10", "--c", "-1e-3"], None)
@example(["edge", "-u", "1", "-v", "2", "--prefix-bound", "7"], None)
@example(["gfree-max", "--window", "1-10", "--pattern", "k:3", "--prefix-bound", "7"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:7", "--n", "7", "--trials", "10"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:8", "--n", "8", "--trials", "10"], None)
@example(["mc-gfree", "--seed", "1", "--pattern", "k:3", "--n", "5", "--trials", "1000000000"], None)
@example(["mc-fn", "--seed", "1", "--pattern", "k:3", "--n-list", "8", "--n-param", "1", "--trials", "1000000000"], None)
@example(["sample-mup", "--seed", "1", "--p", "1/2", "--prefix-bound", "2000000000"], None)
@example(["extension", "--seed", "1", "--f", "1-3", "--bound", "1000000000000"], None)
@example(["typefreq", "--seed", "1", "--f", "1-4", "--bound", "1000000000000"], None)
def test_argv_fuzz_finds_no_traceback(argv, rado_seed):
    """No argv ends in a traceback, and every report is strict JSON: no NaN
    or Infinity."""
    code, out, err = run_main(argv, rado_seed)
    assert code in range(5) and "Traceback" not in err
    if code in (0, 2, 3) and "csv" not in argv:
        json.loads(out, parse_constant=_not_json)


def _not_json(constant):
    raise ValueError("%s is not JSON" % constant)
