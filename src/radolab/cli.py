"""Command-line surface: every operation behind one dispatcher, with seeds,
JSON/CSV reports, and a fixed exit-code taxonomy.

Each ``cmd_*`` handler only computes and returns ``(fields, code)``: the
report fields and the exit code.  ``main`` is the one report path: it adds
the run header, emits the report, and maps exceptions to exit codes, each
give-up to its exit-3 record through ``GIVE_UPS``.

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
from .constructions import (
    ForcingFailed,
    PrefixExhausted,
    TypeClassEmpty,
    construct_pi02_member,
    construct_thick_copy,
    construct_thick_edgeless,
)
from .embed import DeadEnd, EmbedConfig, embed_target
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
    power_family,
    substantial_family,
    thickness,
    weighted_sum,
)
from .mc import (
    mc_density_star,
    mc_fn_bound,
    mc_gfree_probability,
    sample_mu_p,
    type_frequency_check,
)
from .oracle import EdgeOracle, TypeSpec, VerificationError, extension_check, induced_subgraph, type_of
from .sets import VertexSet, format_runs, parse_notation

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


# Larger graph notation is refused before any quadratic-time graph build;
# no command needs it (construct-thick-copy only beyond 44 blocks).
PATTERN_ORDER_CAP = 1024


def _capped_order(n: int) -> int:
    if n > PATTERN_ORDER_CAP:
        raise ValueError("graph order %d exceeds PATTERN_ORDER_CAP = %d" % (n, PATTERN_ORDER_CAP))
    return n


def parse_pattern(text: str) -> FiniteGraph:
    if text.startswith("g6:"):
        return graph6_decode(text[3:])
    if text == "petersen":
        return petersen()
    m = re.fullmatch(r"(k|c|p|e):(\d+)", text)
    if m:
        n = _capped_order(int(m.group(2)))
        return {"k": complete, "c": cycle, "p": path, "e": empty_graph}[m.group(1)](n)
    if text.startswith("file:"):
        return load_graph_file(text[5:])
    raise ValueError("bad graph notation %r (use g6:, k:, c:, p:, e:, petersen, file:)" % text)


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
    return FiniteGraph.from_edges(_capped_order(top + 1), edges)


def _host(args, text: str) -> VertexSet:
    """A host set from notation; ``mup:p`` samples the prefix with the run seed."""
    if text.startswith("mup:"):
        if args.prefix_bound is None:
            raise ValueError("mup: notation needs --prefix-bound")
        return sample_mu_p(_fraction(text[4:]), args.prefix_bound, args.seed)
    return parse_notation(text, args.prefix_bound)


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if hasattr(obj, "item"):  # numpy scalars
        return _rounded(obj.item())
    return obj


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


def emit(args, payload: dict) -> None:
    csv = getattr(args, "format", "json") == "csv"
    text = _csv(payload) if csv else json.dumps(_rounded(payload), sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args) -> dict:
    cfg = {
        k: (str(v) if isinstance(v, Fraction) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output", "format") and v is not None
    }
    return {"seed": args.seed, "version": __version__, "config": cfg}


def _fair_coin(args) -> None:
    """The mc trial streams draw every edge at p = 1/2; refuse another p."""
    if args.probability != Fraction(1, 2):
        raise ValueError("%s samples at probability 1/2 only, not %s" % (args.command, args.probability))


def _oracle(args) -> EdgeOracle:
    return EdgeOracle(args.seed, getattr(args, "probability", Fraction(1, 2)))


def _prefix_bound(args) -> int:
    if args.prefix_bound is None:
        raise ValueError("%s needs --prefix-bound" % args.command)
    return args.prefix_bound


# --- handlers: each returns (report fields, exit code) ----------------------

def cmd_edge(args) -> tuple[dict, int]:
    return {"edge": bool(_oracle(args).edge(args.u, args.v))}, EXIT_OK


def cmd_adj(args) -> tuple[dict, int]:
    g = induced_subgraph(_oracle(args), _host(args, args.host))
    return {"order": g.order, "edges": g.edge_count, "graph6": graph6_encode(g)}, EXIT_OK


def cmd_type(args) -> tuple[dict, int]:
    base = _host(args, args.base)
    return {"base": base.as_array.tolist(), "mask": type_of(_oracle(args), args.m, base).bits}, EXIT_OK


def cmd_extension(args) -> tuple[dict, int]:
    report = extension_check(_oracle(args), _host(args, args.f), args.bound)
    return report, EXIT_OK if report["pass"] else EXIT_NEGATIVE


def cmd_embed(args) -> tuple[dict, int]:
    host, target = _host(args, args.host), parse_pattern(args.target)
    cfg = EmbedConfig(candidate_cap=args.candidate_cap, score_horizon=args.score_horizon, fail_fast=not args.backtrack)
    return embed_target(_oracle(args), target, host, cfg).to_json(), EXIT_OK


def cmd_audit_weak(args) -> tuple[dict, int]:
    report = weak_universality(_oracle(args), _host(args, args.host), args.kmax, args.budget)
    return report, {"pass": EXIT_OK, "fail": EXIT_NEGATIVE}.get(report["verdict"], EXIT_EXHAUSTED)


def cmd_contains(args) -> tuple[dict, int]:
    host, pattern = _host(args, args.host), parse_pattern(args.pattern)
    result = contains_induced(_oracle(args), host, pattern, args.budget)
    return result.to_json(), {FOUND: EXIT_OK, ABSENT: EXIT_NEGATIVE, BUDGET: EXIT_EXHAUSTED}[result.status]


def cmd_gfree_max(args) -> tuple[dict, int]:
    m = re.fullmatch(r"(\d+)-(\d+)", args.window)
    if not m:
        raise ValueError("--window must be an inclusive interval a-b, not %r" % args.window)
    lo, hi = int(m.group(1)), int(m.group(2))
    subset = max_gfree_subset(_oracle(args), (lo, hi), parse_pattern(args.pattern), args.mode)
    return {"window": [lo, hi], "mode": args.mode, "size": len(subset), "elements": subset.as_array.tolist()}, EXIT_OK


def cmd_dyadic_audit(args) -> tuple[dict, int]:
    pattern = parse_pattern(args.pattern)
    report = dyadic_audit(_oracle(args), pattern, args.n_param, range(args.k_from, args.k_to + 1))
    return report, EXIT_NEGATIVE if report["violations"] else EXIT_OK


def cmd_density(args) -> tuple[dict, int]:
    host, dyadic = _host(args, args.host), args.checkpoints == "dyadic"
    points = dyadic_checkpoints(host.prefix_bound) if dyadic else [int(x) for x in args.checkpoints.split(",")]
    return density_profile(host, points).to_json(), EXIT_OK


def _power_eps(text: str, name: str, default: str) -> "float | None":
    """None for the default name, else EPS of 'power:EPS'."""
    if text == default:
        return None
    m = re.fullmatch(r"power:([0-9.]+)", text)
    if not m:
        raise ValueError("%s must be '%s' or 'power:EPS'" % (name, default))
    return float(m.group(1))


def cmd_sum(args) -> tuple[dict, int]:
    host, eps = _host(args, args.host), _power_eps(args.weight, "weight", "reciprocal")
    weight = WeightFunction.reciprocal() if eps is None else WeightFunction.power(eps)
    return {"sum": weighted_sum(host, weight)}, EXIT_OK


def cmd_thick(args) -> tuple[dict, int]:
    return {"interval": list(thickness(_host(args, args.host)))}, EXIT_OK


def cmd_ap(args) -> tuple[dict, int]:
    return {"ap": list(longest_ap(_host(args, args.host)))}, EXIT_OK


def cmd_construct_thick(args) -> tuple[dict, int]:
    return construct_thick_edgeless(_oracle(args), args.blocks, _prefix_bound(args)).to_json(), EXIT_OK


def cmd_construct_thick_copy(args) -> tuple[dict, int]:
    target = parse_pattern(args.target)
    return construct_thick_copy(_oracle(args), target, args.blocks, _prefix_bound(args)).to_json(), EXIT_OK


def cmd_construct_pi02(args) -> tuple[dict, int]:
    eps = _power_eps(args.family, "family", "substantial")
    family = substantial_family() if eps is None else power_family(eps)
    return construct_pi02_member(_oracle(args), family, args.levels, _prefix_bound(args)).to_json(), EXIT_OK


def cmd_mc_density(args) -> tuple[dict, int]:
    _fair_coin(args)
    return mc_density_star(args.seed, args.k, args.n, args.pool, args.trials), EXIT_OK


def cmd_mc_gfree(args) -> tuple[dict, int]:
    _fair_coin(args)
    return mc_gfree_probability(parse_pattern(args.pattern), args.n, args.trials, args.seed, args.c), EXIT_OK


def cmd_mc_fn(args) -> tuple[dict, int]:
    _fair_coin(args)
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


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radolab",
        description="Deterministic experiments on seeded random graphs over the positive integers.",
    )
    parser.add_argument("--version", action="version", version="radolab " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=handler)
        p.add_argument("--seed", type=parse_seed, default=None, help="decimal or 0x-hex 64-bit seed")
        p.add_argument("--probability", type=parse_probability, default=Fraction(1, 2), help="ambient edge probability")
        p.add_argument("--prefix-bound", type=int, default=None, help="materialization bound for host notation")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        return p

    p = command("edge", cmd_edge, "query one ambient edge")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)

    p = command("adj", cmd_adj, "materialize the induced subgraph on a host set")
    p.add_argument("--host", required=True)

    p = command("type", cmd_type, "the type of a vertex over a base set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--base", required=True)

    p = command("extension", cmd_extension, "witness every type over F below a bound")
    p.add_argument("--f", required=True)
    p.add_argument("--bound", type=int, required=True)

    p = command("embed", cmd_embed, "embed a target graph into a host set")
    p.add_argument("--target", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--candidate-cap", type=int, default=64)
    p.add_argument("--score-horizon", type=int, default=None)
    p.add_argument("--backtrack", action="store_true", help="retry next-best candidates on dead ends")

    p = command("audit-weak", cmd_audit_weak, "witness every unlabeled graph up to an order")
    p.add_argument("--host", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)

    p = command("contains", cmd_contains, "search a host for one induced pattern")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget", type=int, default=10**6)

    p = command("gfree-max", cmd_gfree_max, "largest pattern-free subset of a window")
    p.add_argument("--window", required=True, help="inclusive interval a-b")
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")

    p = command("dyadic-audit", cmd_dyadic_audit, "pattern-free sizes over dyadic windows vs k*N")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-param", type=int, required=True)
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)

    p = command("density", cmd_density, "prefix densities at checkpoints")
    p.add_argument("--host", required=True)
    p.add_argument("--checkpoints", default="dyadic")

    p = command("sum", cmd_sum, "weighted sum over a host set")
    p.add_argument("--host", required=True)
    p.add_argument("--weight", default="reciprocal")

    p = command("thick", cmd_thick, "longest contained interval")
    p.add_argument("--host", required=True)

    p = command("ap", cmd_ap, "longest contained arithmetic progression")
    p.add_argument("--host", required=True)

    p = command("construct-thick", cmd_construct_thick, "edgeless union of growing intervals")
    p.add_argument("--blocks", type=int, required=True)

    p = command("construct-thick-copy", cmd_construct_thick_copy, "interval blocks inducing a target")
    p.add_argument("--target", required=True)
    p.add_argument("--blocks", type=int, required=True)

    p = command("construct-pi02", cmd_construct_pi02, "family member with finite components")
    p.add_argument("--family", default="substantial")
    p.add_argument("--levels", type=int, required=True)

    p = command("mc-density", cmd_mc_density, "type-avoiding density vs the analytic formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pool", type=int, default=10**4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("mc-gfree", cmd_mc_gfree, "pattern-free probability of random graphs")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10**4)
    p.add_argument("--c", type=float, default=None, help="envelope constant for 2^(-c n^2)")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("mc-fn", cmd_mc_fn, "probability of a log-sized pattern-free subset")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--n-param", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("sample-mup", cmd_sample_mup, "product-measure sample of the integers")
    p.add_argument("--p", required=True)

    p = command("typefreq", cmd_typefreq, "empirical type frequency with 3-sigma band")
    p.add_argument("--f", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--mask", default=None, help="type mask bits, first base vertex leftmost")

    return parser


# Give-ups (inconclusive outcomes) -> the fields of their exit-3 record.
GIVE_UPS = {
    DeadEnd: lambda e: {
        "error": "dead end", "step": e.step, "required_type": e.required.bits, "pool_remaining": e.pool_remaining
    },
    PrefixExhausted: lambda e: {"error": str(e), "block": e.block},
    TypeClassEmpty: lambda e: {"error": str(e), "level": e.level},
    ForcingFailed: lambda e: {"error": str(e), "level": e.level},
}


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
    try:
        try:
            fields, code = args.func(args)
        except tuple(GIVE_UPS) as exc:
            fields, code = GIVE_UPS[type(exc)](exc), EXIT_EXHAUSTED
        emit(args, {**_header(args), **fields})
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
