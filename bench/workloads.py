"""The benchmark workloads.

Each workload turns the benchmark seed into inputs (oracle seeds, base
sets, windows, CLI argument lists) and a fixed list of operations, one
"pass".  A run repeats the pass, so every operation meets the same inputs
each time and its output digest must not change.  ``ops()`` builds fresh
oracles and small inputs for every pass, so that memoising on those
objects cannot read as a speed-up; hosts are built and warmed in set-up.
Calls go through the radolab module attributes at call time, so the
tracer's wrappers see them.

Every check pins the outcome kind: it fails a documented give-up
(``DeadEnd``, ``PrefixExhausted``, ...) unless the reference construction
gives up in the same place, or, where there is no reference, unless the
operation gave up on every seed tried when the benchmark was written.

Why each workload exists:

* prefix-scan - array work over prefixes up to 10^6: batched oracle
  kernels, tuple conversion in sets/constructions, largeness scans.
  Its arrays (8 MB per 10^6 uint64) exceed a 4 MiB L2.
* embed - per-row ``edge_grid`` calls on pools of 4k-16k vertices, scalar
  re-verification and the Python scoring loop of ``embed_target``.
* search - small-graph combinatorial search: audit DFS and branch and
  bound, graphs, exact Monte Carlo.  The order-7 catalog is set-up work,
  paid once per process by library users.
* cli - one fresh ``python -m radolab`` per operation: interpreter and
  numpy import, argparse, cold lazy caches, report emission.
* defects - the known defects as ``python -m radolab`` invocations; every
  operation fails until its defect is fixed, so it is run by hand.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

import radolab.audit as audit
import radolab.cli as cli
import radolab.constructions as constructions
import radolab.embed as embed
import radolab.graphs as graphs
import radolab.largeness as largeness
import radolab.mc as mc
import radolab.oracle as oracle
import radolab.sets as sets

PREFIX = 10**6
K3 = [0b110, 0b101, 0b011]
P3 = [0b010, 0b101, 0b010]  # path 0-1-2
K4 = [0b1110, 0b1101, 0b1011, 0b0111]
_CATALOG = graphs.enumerate_unlabeled  # the cached original, for cache_clear


def derive(seed: int, *labels) -> int:
    """A 64-bit value determined by the benchmark seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class Inconclusive:
    """A documented inconclusive outcome (exit 3 in the CLI taxonomy)."""

    name: str
    fields: dict

    def to_json(self):
        return [self.name, self.fields]


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expecting(call: Callable[[], object], *documented: type) -> Callable[[], object]:
    """Run call; a documented inconclusive exception becomes an outcome."""

    def run():
        try:
            return call()
        except documented as exc:
            fields = {k: v for k, v in vars(exc).items() if isinstance(v, (int, float, str))}
            return Inconclusive(type(exc).__name__, fields)

    return run


def _plain(obj):
    if isinstance(obj, sets.VertexSet):
        data = np.fromiter(obj.elements, dtype=np.int64, count=len(obj.elements)).tobytes()
        return ["VertexSet", obj.prefix_bound, hashlib.sha256(data).hexdigest()]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def digest(outcome) -> str:
    """A stable fingerprint of an operation's output."""
    text = json.dumps(_plain(outcome), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _is(outcome, *names: str) -> bool:
    return isinstance(outcome, Inconclusive) and outcome.name in names


def _json(outcome):
    """A construction's result in its JSON form; a give-up as it is."""
    return outcome if isinstance(outcome, Inconclusive) else outcome.to_json()


def _graph(rows: list[int]):
    return graphs.FiniteGraph(len(rows), tuple(rows))


class Workload:
    name = ""
    subseeds = 1
    subprocesses = False  # an operation runs in a child process

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build inputs and warm lazy caches; called several times."""

    def ops(self) -> list[Op]:
        return [op for i in range(self.subseeds) for op in self.subseed_ops(i, derive(self.seed, self.name, i))]

    def subseed_ops(self, i: int, s: int) -> list[Op]:
        raise NotImplementedError


class PrefixScan(Workload):
    name = "prefix-scan"
    subseeds = 2

    def setup(self) -> None:
        self.inputs = {}
        for i in range(self.subseeds):
            rng = np.random.default_rng(derive(self.seed, self.name, i, "inputs"))
            f12 = sorted(int(v) for v in rng.choice(np.arange(1, 4001), 12, replace=False))
            f4 = sorted(int(v) for v in rng.choice(np.arange(1, 1001), 4, replace=False))
            mask = int(rng.integers(0, 16))
            self.inputs[i] = (f12, f4, mask)
        self.family = largeness.substantial_family()
        self.checkpoints = [2**e for e in range(1, 20)] + [PREFIX]

    def subseed_ops(self, i: int, s: int) -> list[Op]:
        o = oracle.EdgeOracle(s)
        f12_list, f4_list, mask = self.inputs[i]
        f12 = sets.VertexSet.from_iterable(f12_list, 10**5)
        f4 = sets.VertexSet.from_iterable(f4_list, PREFIX)
        t4 = oracle.TypeSpec(tuple(f4_list), mask)
        state = {}
        ref = {}

        def mu_ref():
            if "mu" not in ref:
                ref["mu"] = checks.ref_mu_half(s, PREFIX)
            return ref["mu"]

        def pi02(levels):
            return expecting(
                lambda: constructions.construct_pi02_member(o, self.family, levels, PREFIX),
                constructions.TypeClassEmpty,
                constructions.ForcingFailed,
            )

        def check_pi02(levels):
            return lambda out: checks.check_pi02(o, _json(out), levels, PREFIX)

        def thick(blocks):
            return expecting(lambda: constructions.construct_thick_edgeless(o, blocks, PREFIX), constructions.PrefixExhausted)

        def check_thick(blocks):
            return lambda out: checks.check_thick(o, _json(out), blocks, PREFIX)

        def sample():
            state["mu"] = mc.sample_mu_p(Fraction(1, 2), PREFIX, s)
            return state["mu"]

        tag = "s%d" % i
        return [
            Op("pi02_L2", tag, pi02(2), check_pi02(2)),
            Op("thick_3", tag, thick(3), check_thick(3)),
            Op("thick_4", tag, thick(4), check_thick(4)),
            Op("extension_12", tag, lambda: oracle.extension_check(o, f12, 10**5),
               lambda out: checks.check_extension(o, out, f12_list, 10**5)),
            Op("typefreq_4", tag, lambda: mc.type_frequency_check(o, f4, t4, PREFIX),
               lambda out: checks.check_typefreq(o, out, f4_list, mask, PREFIX)),
            Op("sample_mu_p", tag, sample, lambda out: checks.check_mu_sample(out, mu_ref(), PREFIX)),
            Op("thickness", tag, lambda: largeness.thickness(state["mu"]), lambda out: checks.check_thickness(out, mu_ref())),
            Op("weighted_sum", tag, lambda: largeness.weighted_sum(state["mu"]),
               lambda out: checks.check_weighted_sum(out, mu_ref())),
            Op("density_profile", tag, lambda: largeness.density_profile(state["mu"], self.checkpoints),
               lambda out: checks.check_density(out.to_json(), mu_ref(), self.checkpoints)),
            Op("mc_density_star", tag, lambda: mc.mc_density_star(s, 4, 4, 10**5, 2),
               lambda out: checks.check_density_star(out, oracle.EdgeOracle, s, 4, 4, 10**5, 2)),
        ]


EMBED_HOSTS = (("1-4096", None), ("even", 2**15), ("ap:3,7", 10**5))


class Embed(Workload):
    name = "embed"
    subseeds = 2

    def setup(self) -> None:
        self.hosts = []
        for text, bound in EMBED_HOSTS:
            host = sets.parse_notation(text, bound)
            host.as_array  # the cached array every embedding scans
            self.hosts.append((text, host))
        self.targets = [(name, g, list(g.rows)) for name, g in (
            ("K5", graphs.complete(5)), ("C5", graphs.cycle(5)), ("petersen", graphs.petersen()),
            ("E50", graphs.empty_graph(50)))]

    def subseed_ops(self, i: int, s: int) -> list[Op]:
        o = oracle.EdgeOracle(s)
        ops = []
        for tname, target, rows in self.targets:
            for hname, host in self.hosts:
                def check(out, rows=rows, host=host, dead_end=tname == "E50"):
                    if dead_end:  # a type over 10+ earlier images is rarer than the pool is large
                        checks.require(_is(out, "DeadEnd") and 2 <= out.fields["step"] <= len(rows), "expected a dead end: %s", out)
                    else:
                        checks.require(not isinstance(out, Inconclusive), "gave up: %s", out)
                        checks.check_embedding(o, out.images, rows, host.elements)

                run = expecting(lambda target=target, host=host: embed.embed_target(o, target, host), embed.DeadEnd)
                ops.append(Op("embed_" + tname, "s%d %s" % (i, hname), run, check))
        return ops


class Search(Workload):
    name = "search"
    subseeds = 2

    def setup(self) -> None:
        _CATALOG.cache_clear()
        for k in range(1, 8):
            graphs.enumerate_unlabeled(k)
        self.hosts = {}
        for text in ("1-256", "1-512"):
            host = sets.parse_notation(text)
            host.as_array
            self.hosts[text] = host
        self.windows = {}
        for i in range(self.subseeds):
            rng = np.random.default_rng(derive(self.seed, self.name, i, "windows"))
            self.windows[i] = [int(lo) for lo in rng.integers(1, 2001, 2)]

    def subseed_ops(self, i: int, s: int) -> list[Op]:
        o = oracle.EdgeOracle(s)
        tag = "s%d" % i

        def weak(text, k_max):
            host = self.hosts[text]
            return Op("weak_universality_" + text, tag, lambda: audit.weak_universality(o, host, k_max),
                      lambda out: checks.check_weak_universality(o, out, host.elements, k_max))

        def gfree(name, rows, lo):
            window = (lo, lo + 29)
            return Op("gfree_exact_" + name, tag, lambda: audit.max_gfree_subset(o, window, _graph(rows), "exact"),
                      lambda out: checks.check_gfree_subset(o, list(out.elements), window, rows))

        ks = range(2, 9)
        fn_list = [10, 13, 16]
        lo_k3, lo_p3 = self.windows[i]
        return [
            weak("1-256", 7),
            weak("1-512", 6),
            gfree("K3", K3, lo_k3),
            gfree("P3", P3, lo_p3),
            Op("dyadic_audit", tag, lambda: audit.dyadic_audit(o, _graph(K3), 2, ks),
               lambda out: checks.check_dyadic(o, out, K3, 2, ks, audit.EXACT_WINDOW_CAP)),
            Op("mc_fn_bound", tag, lambda: mc.mc_fn_bound(_graph(K3), fn_list, 2, 40, s),
               lambda out: checks.check_mc_fn(out, K3, fn_list, 2, 40, s)),
            Op("mc_gfree_dfs", tag, lambda: mc.mc_gfree_probability(_graph(K4), 9, 2000, s),
               lambda out: checks.check_mc_gfree(out, K4, 9, 2000, s)),
        ]


def _cli_thick(blocks: int, bound: int):
    def check(o, seed, report):
        exhausted = "error" in report
        outcome = Inconclusive("PrefixExhausted", {"block": report["block"]}) if exhausted else report
        checks.check_thick(o, outcome, blocks, bound)
        return 3 if exhausted else 0

    return check


def _cli_pi02(levels: int):
    def check(o, seed, report):
        outcome = report
        if "error" in report:
            name = "TypeClassEmpty" if report["error"].startswith("type class empty") else "ForcingFailed"
            outcome = Inconclusive(name, {"level": report["level"]})
        checks.check_pi02(o, outcome, levels, PREFIX)
        return 3 if "error" in report else 0

    return check


def _cli_weak(k_max: int):
    def check(o, seed, report):
        checks.check_weak_universality(o, report, range(1, 513), k_max)
        return 0

    return check


def _cli_dyadic(pattern: list[int], n_param: int, ks: range):
    def check(o, seed, report):
        checks.check_dyadic(o, report, pattern, n_param, ks, audit.EXACT_WINDOW_CAP)
        return 2 if report["violations"] else 0

    return check


def _cli_gfree(o, seed, report):
    checks.require(report["window"] == [1, 16] and report["size"] == len(report["elements"]), "window or size")
    checks.check_gfree_subset(o, report["elements"], (1, 16), K3)
    return 0


def _cli_mc_gfree(o, seed, rows):
    checks.require(len(rows) == 1 and rows[0]["n"] == 5 and rows[0]["envelope"] is None, "CSV rows %s", rows)
    row = rows[0]
    report = {"trials": 100000, "estimate": row["estimate"], "stderr": row["stderr"], "exact": row["exact_if_available"]}
    checks.check_mc_gfree(report, K3, 5, 100000, seed, checks.round12)
    return 0


def _cli_typefreq(o, seed, report):
    checks.check_typefreq(o, report, [1, 2, 3, 4], 0b1111, 100000)
    return 0 if report["band_ok"] else 2


def _cli_extension(o, seed, report):
    checks.check_extension(o, report, list(range(1, 9)), 4096)
    return 0 if report["pass"] else 2


def _cli_edge(o, seed, report):
    checks.require(report["edge"] == o.edge(3, 5), "edge(3, 5) printed as %s", report["edge"])
    return 0


def _cli_embed(o, seed, report):
    checks.require("error" not in report, "dead end: %s", report.get("error"))
    checks.check_embedding(o, report["images"], list(graphs.complete(4).rows), range(1, 4097))
    return 0


def _cli_sample(o, seed, report):
    checks.check_mu_runs(report, checks.ref_mu_half(seed, PREFIX))
    return 0


def _cli_density(o, seed, report):
    checks.check_density(report, checks.ref_mu_half(seed, PREFIX), DYADIC, checks.round12)
    return 0


def _cli_adj(o, seed, report):
    checks.check_adj(o, report, range(1, 65))
    return 0


DYADIC = [2**e for e in range(1, 20)] + [PREFIX]

# The README examples, then the cold-catalog, exhaustion and large-output
# cases.  "{seed}" is filled from the benchmark seed.  Each check verifies
# the printed report independently and returns the exit code that report
# must come with.
CLI_ARGV = (
    ("edge", "edge --seed {seed} -u 3 -v 5", _cli_edge),
    ("extension", "extension --seed {seed} --f 1-8 --bound 4096", _cli_extension),
    ("embed", "embed --seed {seed} --target k:4 --host 1-4096", _cli_embed),
    ("audit-weak-k4", "audit-weak --seed {seed} --host 1-512 --kmax 4", _cli_weak(4)),
    ("gfree-max", "gfree-max --seed {seed} --window 1-16 --pattern k:3", _cli_gfree),
    ("dyadic-audit", "dyadic-audit --seed {seed} --pattern k:2 --n-param 3 --k-from 2 --k-to 6",
     _cli_dyadic([0b10, 0b01], 3, range(2, 7))),
    ("construct-thick-3", "construct-thick --seed {seed} --blocks 3 --prefix-bound 200000", _cli_thick(3, 200000)),
    ("construct-pi02", "construct-pi02 --seed {seed} --family substantial --levels 2 --prefix-bound 1000000", _cli_pi02(2)),
    ("mc-gfree-csv", "mc-gfree --seed {seed} --pattern k:3 --n 5 --trials 100000 --format csv", _cli_mc_gfree),
    ("typefreq", "typefreq --seed {seed} --f 1-4 --bound 100000", _cli_typefreq),
    ("audit-weak-k6", "audit-weak --seed {seed} --host 1-512 --kmax 6", _cli_weak(6)),
    ("construct-thick-4", "construct-thick --seed {seed} --blocks 4 --prefix-bound 1000000", _cli_thick(4, PREFIX)),
    ("sample-mup", "sample-mup --seed {seed} --p 1/2 --prefix-bound 1000000", _cli_sample),
    ("density-mup", "density --seed {seed} --host mup:1/2 --prefix-bound 1000000", _cli_density),
)

# An oracle seed on which level 3 of construct_pi02_member succeeds, so that
# its all-pairs cross-block check runs over a union of some 13000 vertices
# and exhausts the benchmark's 2 GiB address-space cap.  About one seed in a
# hundred does this; this is derive(1302, "prefix-scan", 0).
PI02_L3_SEED = 1887390739360951667

# The known defects (bench/README.md), one invocation each; they fail at
# the commit that added them.  "{seed}" is filled from the benchmark seed
# except where the defect needs a particular oracle seed.
DEFECT_ARGV = (
    ("adj-64", "adj --seed {seed} --host 1-64", _cli_adj),
    ("dyadic-audit-k3", "dyadic-audit --seed {seed} --pattern k:3 --n-param 2 --k-from 2 --k-to 8",
     _cli_dyadic(K3, 2, range(2, 9))),
    ("construct-pi02-L3",
     "construct-pi02 --seed %d --family substantial --levels 3 --prefix-bound 1000000" % PI02_L3_SEED, _cli_pi02(3)),
)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("RADO_SEED", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_cli(check, seed: int, csv: bool, out) -> None:
    """A documented exit code, a parsed report with this seed, the report's
    own check, and exactly the exit code that report implies."""
    code, stdout = out
    checks.require(code in (0, 2, 3), "exit code %d", code)
    report = checks.parse_cli(stdout, csv)
    if not csv:
        checks.require(report["seed"] == seed, "report seed %s", report["seed"])
    want = check(oracle.EdgeOracle(seed), seed, report)
    checks.require(code == want, "exit code %d, the report implies %d", code, want)


class Cli(Workload):
    name = "cli"
    argv_table = CLI_ARGV
    subprocesses = True

    def __init__(self, seed: int, root: str, src: str):
        super().__init__(seed)
        self.root = root
        self.env = cli_env(src)

    def setup(self) -> None:
        self.argvs = []
        for i, (kind, line, check) in enumerate(self.argv_table):
            s = derive(self.seed, self.name, i)
            argv = line.format(seed=s).split()
            s = int(argv[argv.index("--seed") + 1])
            self.argvs.append((kind, s, argv, check))

    def _ops(self, runner) -> list[Op]:
        return [
            Op("cli_" + kind, " ".join(argv), lambda argv=argv: runner(argv),
               functools.partial(check_cli, check, s, "csv" in argv))
            for kind, s, argv, check in self.argvs
        ]

    def ops(self) -> list[Op]:
        return self._ops(self._subprocess)

    def inprocess_ops(self) -> list[Op]:
        """The same argument lists through ``cli.main`` in this process, with
        the catalog cache cleared first as in a fresh process."""
        return self._ops(self._inprocess)

    def _subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "radolab", *argv], cwd=self.root, env=self.env,
                              capture_output=True, timeout=150)
        return proc.returncode, proc.stdout

    @staticmethod
    def _inprocess(argv):
        _CATALOG.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except Exception:  # an uncaught exception exits the interpreter with 1
                code = 1
        return code, out.getvalue().encode("ascii")


class Defects(Cli):
    """The known defects as CLI invocations: run by hand, not gated, because
    every one of its operations fails until its defect is fixed."""

    name = "defects"
    argv_table = DEFECT_ARGV
