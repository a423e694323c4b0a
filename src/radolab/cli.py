"""Command-line surface: every operation behind one dispatcher, with seeds,
JSON/CSV reports, and a fixed exit-code taxonomy.

Each subcommand is declared once, as a ``Command`` row of the table in
``_commands``.  A command gets only the common options its row reads, so
argparse refuses any option that the report's ``config`` would echo
unread, and ``main`` refuses a --probability other than 1/2 for a
fixed-coin row.  Each ``cmd_*`` handler only computes and returns
``(result, code)``: the library's result as it is, and the exit code.
``main`` is the one report path: it emits the run header and the result,
and maps exceptions to exit codes: a ``GiveUp`` prints its own exit-3
``record``.

Exit codes: 0 verified success, 1 usage error, 2 certified negative
finding (a completed search or check that failed), 3 budget or prefix
exhaustion (inconclusive), 4 internal verification failure (a result that
did not re-verify from raw oracle queries: a defect, not a finding).
Identical invocations produce byte-identical output; floats are printed
with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .audit import (
    ABSENT,
    BUDGET,
    FOUND,
    contains_induced,
    dyadic_audit,
    max_gfree_subset,
    weak_universality,
)
from .constructions import construct_pi02_member, construct_thick_copy, construct_thick_edgeless
from .embed import EmbedConfig, embed_target
from .graphs import (
    FiniteGraph,
    complete,
    cycle,
    empty_graph,
    graph6_decode,
    graph6_encode,
    path,
    petersen,
)
from .largeness import (
    WeightFunction,
    density_profile,
    dyadic_checkpoints,
    longest_ap,
    thickness,
    weighted_sum,
)
from .limits import DEFAULT_NODE_BUDGET, PATTERN_ORDER_CAP, check_limit
from .mc import (
    mc_density_star,
    mc_fn_bound,
    mc_gfree_probability,
    sample_mu_p,
    type_frequency_check,
)
from .oracle import EdgeOracle, GiveUp, TypeSpec, VerificationError, extension_check, induced_subgraph, type_of
from .sets import VertexSet, _json_value, format_runs, parse_notation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_EXHAUSTED = 3
EXIT_VERIFICATION = 4


def parse_seed(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_probability(text: str) -> Fraction:
    frac = _fraction(text)
    if not 0 < frac <= 1:
        raise argparse.ArgumentTypeError("probability must lie in (0, 1]")
    return frac


def parse_pattern(text: str) -> FiniteGraph:
    if text == "petersen":
        return petersen()
    m = re.fullmatch(r"(k|c|p|e):(\d+)", text)
    if m:
        n = int(m.group(2))
        check_limit(n, PATTERN_ORDER_CAP, "PATTERN_ORDER_CAP", "graph order %d" % n)
        return {"k": complete, "c": cycle, "p": path, "e": empty_graph}[m.group(1)](n)
    if not text.startswith(("g6:", "file:")):
        raise ValueError("bad graph notation %r (use g6:, k:, c:, p:, e:, petersen, file:)" % text)
    g = graph6_decode(text[3:]) if text.startswith("g6:") else load_graph_file(text[5:])  # text length bounds it
    check_limit(g.order, PATTERN_ORDER_CAP, "PATTERN_ORDER_CAP", "graph order %d" % g.order)
    return g


def load_graph_file(path_: str) -> FiniteGraph:
    """Graph file: either one graph6 line, or 0-based 'u v' edge lines."""
    with open(path_, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file %s" % path_)
    if len(lines) == 1 and " " not in lines[0]:
        return graph6_decode(lines[0])
    edges = []
    top = -1
    for ln in lines:
        u, v = (int(x) for x in ln.split())
        edges.append((u, v))
        top = max(top, u, v)
    check_limit(top + 1, PATTERN_ORDER_CAP, "PATTERN_ORDER_CAP", "graph order %d" % (top + 1))
    return FiniteGraph.from_edges(top + 1, edges)


def _host(args, text: str) -> VertexSet:
    """A host set from notation; ``mup:p`` samples the prefix with the run seed."""
    if text.startswith("mup:"):
        if args.prefix_bound is None:
            raise ValueError("mup: notation needs --prefix-bound")
        return sample_mu_p(_fraction(text[4:]), args.prefix_bound, args.seed)
    return parse_notation(text, args.prefix_bound)


def _printed(value):
    """A report leaf as printed: floats to 12 significant digits, Fractions as text."""
    if isinstance(value, float):
        return float("%.12g" % value)
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "item"):  # numpy scalars
        return _printed(value.item())
    return value


def _cell(v) -> str:
    return "" if v is None else "%.12g" % v if isinstance(v, (float, Fraction)) else str(v)


def _csv(fields: dict) -> str:
    """The mc report, or each of its ``rows``, as one CSV row; the exact
    value is the report's ``exact`` or analytic ``target``."""
    lines = ["n,estimate,stderr,exact_if_available,envelope"]
    for row in fields.get("rows", [fields]):
        cells = (row["n"], row["estimate"], row["stderr"], row.get("exact", row.get("target")), row.get("envelope"))
        lines.append(",".join(map(_cell, cells)))
    return "\n".join(lines) + "\n"


def emit(args, header: dict, result) -> None:
    """Print the header and the result: both walked once into JSON, or the raw result as CSV."""
    if getattr(args, "format", "json") == "csv":
        text = _csv(result)
    else:
        text = json.dumps({**_json_value(header, _printed), **_json_value(result, _printed)}, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("row", "output", "format") and v is not None}
    return {"seed": args.seed, "version": __version__, "config": cfg}


def _oracle(args) -> EdgeOracle:
    return EdgeOracle(args.seed, args.probability)


def _prefix_bound(args) -> int:
    if args.prefix_bound is None:
        raise ValueError("%s needs --prefix-bound" % args.command)
    return args.prefix_bound


# --- handlers: each returns (result, exit code) ------------------------------

def cmd_edge(args) -> tuple[dict, int]:
    return {"edge": bool(_oracle(args).edge(args.u, args.v))}, EXIT_OK


def cmd_adj(args) -> tuple[dict, int]:
    g = induced_subgraph(_oracle(args), _host(args, args.host))
    return {"order": g.order, "edges": g.edge_count, "graph6": graph6_encode(g)}, EXIT_OK


def cmd_type(args) -> tuple[dict, int]:
    base = _host(args, args.base)
    return {"base": base, "mask": type_of(_oracle(args), args.m, base).bits}, EXIT_OK


def cmd_extension(args) -> tuple[dict, int]:
    report = extension_check(_oracle(args), _host(args, args.f), args.bound)
    return report, EXIT_OK if report["pass"] else EXIT_NEGATIVE


def cmd_embed(args) -> tuple[dict, int]:
    host, target = _host(args, args.host), parse_pattern(args.target)
    cfg = EmbedConfig(candidate_cap=args.candidate_cap, score_horizon=args.score_horizon, fail_fast=not args.backtrack)
    return embed_target(_oracle(args), target, host, cfg), EXIT_OK


def cmd_audit_weak(args) -> tuple[dict, int]:
    report = weak_universality(_oracle(args), _host(args, args.host), args.kmax, args.budget)
    return report, {"pass": EXIT_OK, "fail": EXIT_NEGATIVE}.get(report["verdict"], EXIT_EXHAUSTED)


def cmd_contains(args) -> tuple[dict, int]:
    host, pattern = _host(args, args.host), parse_pattern(args.pattern)
    result = contains_induced(_oracle(args), host, pattern, args.budget)
    return result, {FOUND: EXIT_OK, ABSENT: EXIT_NEGATIVE, BUDGET: EXIT_EXHAUSTED}[result.status]


def cmd_gfree_max(args) -> tuple[dict, int]:
    m = re.fullmatch(r"(\d+)-(\d+)", args.window)
    if not m:
        raise ValueError("--window must be an inclusive interval a-b, not %r" % args.window)
    lo, hi = int(m.group(1)), int(m.group(2))
    subset = max_gfree_subset(_oracle(args), (lo, hi), parse_pattern(args.pattern), args.mode)
    return {"window": [lo, hi], "mode": args.mode, "size": len(subset), "elements": subset}, EXIT_OK


def cmd_dyadic_audit(args) -> tuple[dict, int]:
    pattern = parse_pattern(args.pattern)
    report = dyadic_audit(_oracle(args), pattern, args.n_param, range(args.k_from, args.k_to + 1))
    return report, EXIT_NEGATIVE if report["violations"] else EXIT_OK


def cmd_density(args) -> tuple[dict, int]:
    host, dyadic = _host(args, args.host), args.checkpoints == "dyadic"
    points = dyadic_checkpoints(host.prefix_bound) if dyadic else [int(x) for x in args.checkpoints.split(",")]
    return density_profile(host, points), EXIT_OK


def _weight(text: str, name: str, default: str) -> WeightFunction:
    """The reciprocal weights for the default name, else those of 'power:EPS'."""
    if text == default:
        return WeightFunction()
    m = re.fullmatch(r"power:([0-9.]+)", text)
    if not m:
        raise ValueError("%s must be '%s' or 'power:EPS'" % (name, default))
    return WeightFunction(float(m.group(1)))


def cmd_sum(args) -> tuple[dict, int]:
    host = _host(args, args.host)
    return {"sum": weighted_sum(host, _weight(args.weight, "weight", "reciprocal"))}, EXIT_OK


def cmd_thick(args) -> tuple[dict, int]:
    return {"interval": thickness(_host(args, args.host))}, EXIT_OK


def cmd_ap(args) -> tuple[dict, int]:
    return {"ap": longest_ap(_host(args, args.host))}, EXIT_OK


def cmd_construct_thick(args) -> tuple[dict, int]:
    return construct_thick_edgeless(_oracle(args), args.blocks, _prefix_bound(args)), EXIT_OK


def cmd_construct_thick_copy(args) -> tuple[dict, int]:
    target = parse_pattern(args.target)
    return construct_thick_copy(_oracle(args), target, args.blocks, _prefix_bound(args)), EXIT_OK


def cmd_construct_pi02(args) -> tuple[dict, int]:
    family = _weight(args.family, "family", "substantial")
    return construct_pi02_member(_oracle(args), family, args.levels, _prefix_bound(args)), EXIT_OK


def cmd_mc_density(args) -> tuple[dict, int]:
    return mc_density_star(args.seed, args.k, args.n, args.pool, args.trials), EXIT_OK


def cmd_mc_gfree(args) -> tuple[dict, int]:
    return mc_gfree_probability(parse_pattern(args.pattern), args.n, args.trials, args.seed, args.c), EXIT_OK


def cmd_mc_fn(args) -> tuple[dict, int]:
    pattern = parse_pattern(args.pattern)
    n_list = [int(x) for x in args.n_list.split(",")]
    return {"rows": mc_fn_bound(pattern, n_list, args.n_param, args.trials, args.seed)}, EXIT_OK


def cmd_sample_mup(args) -> tuple[dict, int]:
    vs = sample_mu_p(_fraction(args.p), _prefix_bound(args), args.seed)
    return {"count": len(vs), "elements": format_runs(vs)}, EXIT_OK


def cmd_typefreq(args) -> tuple[dict, int]:
    f = _host(args, args.f)
    t = TypeSpec.from_bits(f.elements, args.mask if args.mask is not None else "1" * len(f))
    report = type_frequency_check(_oracle(args), f, t, args.bound)
    return report, EXIT_OK if report["band_ok"] else EXIT_NEGATIVE


# --- the command table ------------------------------------------------------

class Command(NamedTuple):
    """One subcommand: its own options as (flag, add_argument keywords)
    pairs, the common options it reads besides --seed, --probability and
    --output, and, for a fixed-coin command, why --probability must be 1/2."""

    name: str
    run: Callable[[argparse.Namespace], tuple]
    help: str
    args: tuple = ()
    common: tuple = ()
    coin: str = ""


# The mc trial streams draw every edge at p = 1/2; the set commands query no edge at all.
_MC_COIN = "samples at probability 1/2 only"
_SET_COIN = "queries no edges, so --probability must be 1/2"
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_PREFIX_BOUND = ("--prefix-bound",)
_FORMAT = ("--format",)


def _commands() -> tuple:
    """The table, built when the parser is: each row reaches its handler
    through the module-level ``cmd_*`` name at that moment."""
    host, pattern, target = ("--host", _REQUIRED), ("--pattern", _REQUIRED), ("--target", _REQUIRED)
    budget = ("--budget", {"type": int, "default": DEFAULT_NODE_BUDGET})
    return (
        Command("edge", cmd_edge, "query one ambient edge", (("-u", _REQUIRED_INT), ("-v", _REQUIRED_INT))),
        Command("adj", cmd_adj, "materialize the induced subgraph on a host set", (host,), _PREFIX_BOUND),
        Command("type", cmd_type, "the type of a vertex over a base set",
                (("--m", _REQUIRED_INT), ("--base", _REQUIRED)), _PREFIX_BOUND),
        Command("extension", cmd_extension, "witness every type over F below a bound",
                (("--f", _REQUIRED), ("--bound", _REQUIRED_INT)), _PREFIX_BOUND),
        Command("embed", cmd_embed, "embed a target graph into a host set", (
            target, host, ("--candidate-cap", {"type": int, "default": EmbedConfig.candidate_cap}),
            ("--score-horizon", {"type": int}),
            ("--backtrack", {"action": "store_true", "help": "retry next-best candidates on dead ends"}),
        ), _PREFIX_BOUND),
        Command("audit-weak", cmd_audit_weak, "witness every unlabeled graph up to an order",
                (host, ("--kmax", _REQUIRED_INT), budget), _PREFIX_BOUND),
        Command("contains", cmd_contains, "search a host for one induced pattern",
                (host, pattern, budget), _PREFIX_BOUND),
        Command("gfree-max", cmd_gfree_max, "largest pattern-free subset of a window", (
            ("--window", {"required": True, "help": "inclusive interval a-b"}), pattern,
            ("--mode", {"choices": ("exact", "greedy"), "default": "exact"}),
        )),
        Command("dyadic-audit", cmd_dyadic_audit, "pattern-free sizes over dyadic windows vs k*N", (
            pattern, ("--n-param", _REQUIRED_INT), ("--k-from", _REQUIRED_INT), ("--k-to", _REQUIRED_INT),
        )),
        Command("density", cmd_density, "prefix densities at checkpoints",
                (host, ("--checkpoints", {"default": "dyadic"})), _PREFIX_BOUND, _SET_COIN),
        Command("sum", cmd_sum, "weighted sum over a host set",
                (host, ("--weight", {"default": "reciprocal"})), _PREFIX_BOUND, _SET_COIN),
        Command("thick", cmd_thick, "longest contained interval", (host,), _PREFIX_BOUND, _SET_COIN),
        Command("ap", cmd_ap, "longest contained arithmetic progression", (host,), _PREFIX_BOUND, _SET_COIN),
        Command("construct-thick", cmd_construct_thick, "edgeless union of growing intervals",
                (("--blocks", _REQUIRED_INT),), _PREFIX_BOUND),
        Command("construct-thick-copy", cmd_construct_thick_copy, "interval blocks inducing a target",
                (target, ("--blocks", _REQUIRED_INT)), _PREFIX_BOUND),
        Command("construct-pi02", cmd_construct_pi02, "family member with finite components",
                (("--family", {"default": "substantial"}), ("--levels", _REQUIRED_INT)), _PREFIX_BOUND),
        Command("mc-density", cmd_mc_density, "type-avoiding density vs the analytic formula", (
            ("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT), ("--pool", {"type": int, "default": 10**4}),
            ("--trials", {"type": int, "default": 20}),
        ), _FORMAT, _MC_COIN),
        Command("mc-gfree", cmd_mc_gfree, "pattern-free probability of random graphs", (
            pattern, ("--n", _REQUIRED_INT), ("--trials", {"type": int, "default": 10**4}),
            ("--c", {"type": float, "help": "envelope constant for 2^(-c n^2)"}),
        ), _FORMAT, _MC_COIN),
        Command("mc-fn", cmd_mc_fn, "probability of a log-sized pattern-free subset", (
            pattern, ("--n-list", {"required": True, "help": "comma-separated n values"}),
            ("--n-param", _REQUIRED_INT), ("--trials", {"type": int, "default": 200}),
        ), _FORMAT, _MC_COIN),
        Command("sample-mup", cmd_sample_mup, "product-measure sample of the integers",
                (("--p", _REQUIRED),), _PREFIX_BOUND, _SET_COIN),
        Command("typefreq", cmd_typefreq, "empirical type frequency with 3-sigma band", (
            ("--f", _REQUIRED), ("--bound", _REQUIRED_INT),
            ("--mask", {"help": "type mask bits, first base vertex leftmost"}),
        ), _PREFIX_BOUND),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radolab",
        description="Deterministic experiments on seeded random graphs over the positive integers.",
    )
    parser.add_argument("--version", action="version", version="radolab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = {
        "--seed": {"type": parse_seed, "help": "decimal or 0x-hex 64-bit seed"},
        "--probability": {"type": parse_probability, "default": Fraction(1, 2), "help": "ambient edge probability"},
        "--prefix-bound": {"type": int, "help": "materialization bound for host notation"},
        "--output": {"help": "write the report here instead of stdout"},
        "--format": {"choices": ("json", "csv"), "default": "json"},
    }
    for row in _commands():
        p = sub.add_parser(row.name, help=row.help)
        # argparse's private negative-number pattern (3.11) has no exponent or infinity, so it took "--c -1e-3"'s
        # value for an option where "--c=-1e-3" parses; this one has both
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
        p.set_defaults(row=row)
        for flag in ("--seed", "--probability", *row.common, "--output"):
            p.add_argument(flag, **common[flag])
        for flag, keywords in row.args:
            p.add_argument(flag, **keywords)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.seed is None:
        env = os.environ.get("RADO_SEED")
        try:
            args.seed = parse_seed(env) if env is not None else 0
        except (argparse.ArgumentTypeError, ValueError):
            print("bad RADO_SEED value %r" % env, file=sys.stderr)
            return EXIT_USAGE
    row = args.row
    try:
        if row.coin and args.probability != Fraction(1, 2):
            raise ValueError("%s %s, not %s" % (row.name, row.coin, args.probability))
        try:
            result, code = row.run(args)
        except GiveUp as exc:
            result, code = exc.record, EXIT_EXHAUSTED
        emit(args, _header(args), result)
        return code
    except (ValueError, OSError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print("error: input too large: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
