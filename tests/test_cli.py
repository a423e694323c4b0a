import json
import os
import subprocess
import sys

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
    from radolab.cli import main

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
