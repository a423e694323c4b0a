import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from radolab.cli import main
from radolab.graphs import graph6_decode
from radolab.oracle import EdgeOracle

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


def test_floats_printed_with_12_significant_digits():
    out = run("sum", "--host", "1-3")
    rep = json.loads(out.stdout)
    assert rep["sum"] == float("%.12g" % (1 + 0.5 + 1 / 3))


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
    assert out.out == "" and out.err == "error: witness failed re-verification\n"


def test_malformed_window_is_a_usage_error():
    for window in ("5", "1-", "a-b", "1-2-3"):
        out = run("gfree-max", "--window", window, "--pattern", "k:3")
        assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
        assert out.stderr.startswith("error: --window must be an inclusive interval a-b")


def test_oversized_input_is_a_usage_error():
    out = run("extension", "--seed", "1", "--f", "1-45", "--bound", "100")
    assert out.returncode == 1 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.startswith("error: input too large") and "TiB" in out.stderr


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


def test_bad_rado_seed_is_a_usage_error():
    for value in ("zz", "", "-1", str(1 << 64)):
        assert run_main(["edge", "-u", "1", "-v", "2"], rado_seed=value) == (1, "", "bad RADO_SEED value %r\n" % value)
    assert run_main(["edge", "-u", "1", "-v", "2"], rado_seed="0xff")[0] == 0


def test_mc_fn_needs_a_trial():
    for trials in ("0", "-1"):
        argv = ["mc-fn", "--pattern", "k:3", "--n-list", "5", "--n-param", "1", "--trials", trials]
        assert run_main(argv) == (1, "", "error: need at least one trial\n")


def test_type_needs_a_positive_vertex():
    for m in ("0", "-3"):
        code, out, err = run_main(["type", "--m", m, "--base", "1-5"])
        assert (code, out) == (1, "") and err == "error: type_of requires a vertex m >= 1, not %s\n" % m


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
    "type": {"--m": ints(-3, 10**4), "--base": HOST, "--prefix-bound": BOUND},
    "extension": {"--f": F_SET, "--bound": BOUND},
    "embed": {
        "--target": PATTERN, "--host": HOST, "--prefix-bound": BOUND, "--candidate-cap": maybe(ints(0, 64)),
        "--score-horizon": maybe(ints(0, 64)), "--backtrack": maybe(st.just(True)),
    },
    "audit-weak": {"--host": HOST, "--kmax": ints(0, 4), "--budget": ints(0, 5000), "--prefix-bound": SMALL_BOUND},
    "contains": {"--host": HOST, "--pattern": PATTERN, "--budget": ints(0, 5000), "--prefix-bound": SMALL_BOUND},
    "gfree-max": {
        "--window": st.tuples(st.integers(0, 40), st.integers(0, 20)).map(lambda t: "%d-%d" % (t[0], t[0] + t[1])),
        "--pattern": PATTERN, "--mode": maybe(words("exact", "greedy")),
    },
    "dyadic-audit": {"--pattern": PATTERN, "--n-param": ints(0, 3), "--k-from": ints(0, 5), "--k-to": ints(0, 5)},
    "density": {"--host": HOST, "--prefix-bound": BOUND, "--checkpoints": maybe(words("10,50", "64"))},
    "sum": {"--host": HOST, "--prefix-bound": BOUND, "--weight": maybe(words("reciprocal", "power:0.5"))},
    "thick": {"--host": HOST, "--prefix-bound": BOUND},
    "ap": {"--host": HOST, "--prefix-bound": BOUND},
    "construct-thick": {"--blocks": ints(1, 6), "--prefix-bound": BOUND},
    "construct-thick-copy": {"--target": PATTERN, "--blocks": ints(1, 4), "--prefix-bound": BOUND},
    "construct-pi02": {
        "--levels": ints(1, 3), "--family": maybe(words("substantial", "power:0.5")), "--prefix-bound": BOUND,
    },
    "mc-density": {"--k": ints(1, 4), "--n": ints(1, 4), "--pool": ints(1, 10**4), **MC},
    "mc-gfree": {"--pattern": MC_PATTERN, "--n": ints(1, 12), "--c": maybe(words("0.1", "-1000", "nan", "inf")), **MC},
    "mc-fn": {
        "--pattern": MC_PATTERN, "--n-param": ints(0, 2), **MC,
        "--n-list": st.lists(st.integers(1, 20), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    },
    "sample-mup": {"--p": words("1/2", "1/3", "0.9"), "--prefix-bound": BOUND},
    "typefreq": {"--f": F_SET, "--bound": BOUND, "--mask": maybe(words("1", "101", "111", "000"))},
}
COMMON = {"--seed": ints(0, 2**64 - 1), "--probability": maybe(words("1/2", "0.5", "1/3", "1"))}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {**COMMANDS[name], **COMMON}
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
def test_argv_fuzz_finds_no_traceback(argv, rado_seed):
    code, _, err = run_main(argv, rado_seed)
    assert code in range(5) and "Traceback" not in err
