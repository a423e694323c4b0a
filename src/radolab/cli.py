"""Command-line surface: every operation behind one dispatcher, with seeds,
JSON/CSV reports, and a fixed exit-code taxonomy.

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
from .sets import format_runs, parse_notation

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


def parse_probability(text: str) -> Fraction:
    frac = Fraction(text)
    if not 0 < frac <= 1:
        raise argparse.ArgumentTypeError("probability must lie in (0, 1]")
    return frac


def parse_pattern(text: str) -> FiniteGraph:
    if text.startswith("g6:"):
        return graph6_decode(text[3:])
    if text == "petersen":
        return petersen()
    m = re.fullmatch(r"(k|c|p|e):(\d+)", text)
    if m:
        n = int(m.group(2))
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
    return FiniteGraph.from_edges(top + 1, edges)


def parse_host(text: str, prefix_bound: int | None, seed: int) -> VertexSet:
    if text.startswith("mup:"):
        if prefix_bound is None:
            raise ValueError("mup: notation needs --prefix-bound")
        return sample_mu_p(Fraction(text[4:]), prefix_bound, seed)
    return parse_notation(text, prefix_bound)


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


def emit(args, payload: dict, csv_rows: "list[dict] | None" = None) -> None:
    if getattr(args, "format", "json") == "csv":
        cols = ["n", "estimate", "stderr", "exact_if_available", "envelope"]
        lines = [",".join(cols)]
        for row in csv_rows or []:
            cells = []
            for col in cols:
                v = row.get(col)
                cells.append("" if v is None else ("%.12g" % v if isinstance(v, float) else str(v)))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_rounded(payload), sort_keys=True) + "\n"
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


# --- handlers ---------------------------------------------------------------

def cmd_edge(args) -> int:
    value = _oracle(args).edge(args.u, args.v)
    emit(args, {**_header(args), "edge": bool(value)})
    return EXIT_OK


def cmd_adj(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    g = induced_subgraph(_oracle(args), host)
    emit(args, {**_header(args), "order": g.order, "edges": g.edge_count, "graph6": graph6_encode(g)})
    return EXIT_OK


def cmd_type(args) -> int:
    base = parse_host(args.base, args.prefix_bound, args.seed)
    t = type_of(_oracle(args), args.m, base)
    emit(args, {**_header(args), "base": base.as_array.tolist(), "mask": t.bits})
    return EXIT_OK


def cmd_extension(args) -> int:
    f = parse_host(args.f, args.prefix_bound, args.seed)
    report = extension_check(_oracle(args), f, args.bound)
    emit(args, {**_header(args), **report})
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


def cmd_embed(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    target = parse_pattern(args.target)
    cfg = EmbedConfig(
        candidate_cap=args.candidate_cap,
        score_horizon=args.score_horizon,
        fail_fast=not args.backtrack,
    )
    try:
        emb = embed_target(_oracle(args), target, host, cfg)
    except DeadEnd as dead:
        emit(
            args,
            {
                **_header(args),
                "error": "dead end",
                "step": dead.step,
                "required_type": dead.required.bits,
                "pool_remaining": dead.pool_remaining,
            },
        )
        return EXIT_EXHAUSTED
    emit(args, {**_header(args), **emb.to_json()})
    return EXIT_OK


def cmd_audit_weak(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    report = weak_universality(_oracle(args), host, args.kmax, args.budget)
    emit(args, {**_header(args), **report})
    return {"pass": EXIT_OK, "fail": EXIT_NEGATIVE}.get(report["verdict"], EXIT_EXHAUSTED)


def cmd_contains(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    pattern = parse_pattern(args.pattern)
    result = contains_induced(_oracle(args), host, pattern, args.budget)
    emit(args, {**_header(args), **result.to_json()})
    return {FOUND: EXIT_OK, ABSENT: EXIT_NEGATIVE, BUDGET: EXIT_EXHAUSTED}[result.status]


def cmd_gfree_max(args) -> int:
    m = re.fullmatch(r"(\d+)-(\d+)", args.window)
    if not m:
        raise ValueError("--window must be an inclusive interval a-b, not %r" % args.window)
    lo, hi = int(m.group(1)), int(m.group(2))
    pattern = parse_pattern(args.pattern)
    subset = max_gfree_subset(_oracle(args), (lo, hi), pattern, args.mode)
    emit(
        args,
        {
            **_header(args),
            "window": [lo, hi],
            "mode": args.mode,
            "size": len(subset),
            "elements": subset.as_array.tolist(),
        },
    )
    return EXIT_OK


def cmd_dyadic_audit(args) -> int:
    pattern = parse_pattern(args.pattern)
    report = dyadic_audit(_oracle(args), pattern, args.n_param, range(args.k_from, args.k_to + 1))
    emit(args, {**_header(args), **report})
    return EXIT_NEGATIVE if report["violations"] else EXIT_OK


def cmd_density(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    if args.checkpoints == "dyadic":
        points = dyadic_checkpoints(host.prefix_bound)
    else:
        points = [int(x) for x in args.checkpoints.split(",")]
    report = density_profile(host, points)
    emit(args, {**_header(args), **report.to_json()})
    return EXIT_OK


def _weight(text: str) -> WeightFunction:
    if text == "reciprocal":
        return WeightFunction.reciprocal()
    m = re.fullmatch(r"power:([0-9.]+)", text)
    if not m:
        raise ValueError("weight must be 'reciprocal' or 'power:EPS'")
    return WeightFunction.power(float(m.group(1)))


def cmd_sum(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    emit(args, {**_header(args), "sum": weighted_sum(host, _weight(args.weight))})
    return EXIT_OK


def cmd_thick(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    start, length = thickness(host)
    emit(args, {**_header(args), "interval": [start, length]})
    return EXIT_OK


def cmd_ap(args) -> int:
    host = parse_host(args.host, args.prefix_bound, args.seed)
    start, diff, length = longest_ap(host)
    emit(args, {**_header(args), "ap": [start, diff, length]})
    return EXIT_OK


def cmd_construct_thick(args) -> int:
    try:
        result = construct_thick_edgeless(_oracle(args), args.blocks, _prefix_bound(args))
    except PrefixExhausted as exc:
        emit(args, {**_header(args), "error": str(exc), "block": exc.block})
        return EXIT_EXHAUSTED
    emit(args, {**_header(args), **result.to_json()})
    return EXIT_OK


def cmd_construct_thick_copy(args) -> int:
    target = parse_pattern(args.target)
    try:
        result = construct_thick_copy(_oracle(args), target, args.blocks, _prefix_bound(args))
    except PrefixExhausted as exc:
        emit(args, {**_header(args), "error": str(exc), "block": exc.block})
        return EXIT_EXHAUSTED
    emit(args, {**_header(args), **result.to_json()})
    return EXIT_OK


def _family(text: str):
    if text == "substantial":
        return substantial_family()
    m = re.fullmatch(r"power:([0-9.]+)", text)
    if not m:
        raise ValueError("family must be 'substantial' or 'power:EPS'")
    return power_family(float(m.group(1)))


def cmd_construct_pi02(args) -> int:
    try:
        result = construct_pi02_member(
            _oracle(args), _family(args.family), args.levels, _prefix_bound(args)
        )
    except (TypeClassEmpty, ForcingFailed) as exc:
        emit(args, {**_header(args), "error": str(exc), "level": exc.level})
        return EXIT_EXHAUSTED
    emit(args, {**_header(args), **result.to_json()})
    return EXIT_OK


def cmd_mc_density(args) -> int:
    _fair_coin(args)
    report = mc_density_star(args.seed, args.k, args.n, args.pool, args.trials)
    payload = {**_header(args), **report}
    emit(
        args,
        payload,
        csv_rows=[
            {
                "n": report["n"],
                "estimate": report["estimate"],
                "stderr": report["stderr"],
                "exact_if_available": report["target"],
                "envelope": None,
            }
        ],
    )
    return EXIT_OK


def cmd_mc_gfree(args) -> int:
    _fair_coin(args)
    pattern = parse_pattern(args.pattern)
    report = mc_gfree_probability(pattern, args.n, args.trials, args.seed, args.c)
    payload = {**_header(args), **report}
    exact = report.get("exact")
    emit(
        args,
        payload,
        csv_rows=[
            {
                "n": report["n"],
                "estimate": report["estimate"],
                "stderr": report["stderr"],
                "exact_if_available": float(exact) if exact is not None else None,
                "envelope": report.get("envelope"),
            }
        ],
    )
    return EXIT_OK


def cmd_mc_fn(args) -> int:
    _fair_coin(args)
    pattern = parse_pattern(args.pattern)
    rows = mc_fn_bound(pattern, [int(x) for x in args.n_list.split(",")], args.n_param, args.trials, args.seed)
    emit(
        args,
        {**_header(args), "rows": rows},
        csv_rows=[
            {
                "n": r["n"],
                "estimate": r["estimate"],
                "stderr": r["stderr"],
                "exact_if_available": None,
                "envelope": r["envelope"],
            }
            for r in rows
        ],
    )
    return EXIT_OK


def cmd_sample_mup(args) -> int:
    vs = sample_mu_p(Fraction(args.p), _prefix_bound(args), args.seed)
    emit(args, {**_header(args), "count": len(vs), "elements": format_runs(vs)})
    return EXIT_OK


def cmd_typefreq(args) -> int:
    f = parse_host(args.f, args.prefix_bound, args.seed)
    mask = args.mask if args.mask is not None else "1" * len(f)
    t = TypeSpec.from_bits(f.elements, mask)
    report = type_frequency_check(_oracle(args), f, t, args.bound)
    emit(args, {**_header(args), **report})
    return EXIT_OK if report["band_ok"] else EXIT_NEGATIVE


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
        except argparse.ArgumentTypeError:
            print("bad RADO_SEED value %r" % env, file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
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
