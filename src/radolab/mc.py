"""Monte Carlo and exhaustive verification of the probability bounds:
density of type-avoiding vertices, pattern-free probability decay, the
log-sized pattern-free-subset bound, and product-measure statistics.

Trial graphs come from a counter-based bit stream keyed by (seed, trial,
pair-index), independent of the ambient edge oracle: the sampled-graph
statements quantify over fresh random graphs, not the fixed ambient one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .audit import _check_gfree_pattern, _exact_gfree, _greedy_gfree
from .graphs import FiniteGraph, _relabelings, _upper_bits, enumerate_unlabeled, find_induced, rows_from_upper_bits
from .limits import EXACT_N_CAP, FN_EXACT_CAP, check_limit
from .oracle import (
    MASK64,
    TAG_MU_P,
    TAG_TRIAL_GRAPHS,
    EdgeOracle,
    TypeSpec,
    stream_bits,
    type_class,
)
from .sets import VertexSet


def mc_density_star(seed: int, k: int, n: int, pool_size: int, trials: int) -> dict:
    """Estimate the density of vertices avoiding n fixed types over disjoint
    size-k bases, against the analytic target (1 - p^k)^n.

    Trial t uses ambient seed (seed + t); the bases are the first n*k
    vertices split consecutively, each with the all-ones type, and the
    pool is the next pool_size vertices.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if pool_size < 1:
        raise ValueError("pool too small")
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    check_limit(trials * n * k * pool_size, "MC_DENSITY_EDGE_CAP", "trials * n * k * pool")
    start = n * k + 1
    pool = range(start, start + pool_size)
    fractions = []
    for t in range(trials):
        oracle = EdgeOracle((seed + t) & MASK64)
        marked = np.zeros(pool_size, dtype=bool)
        for i in range(n):  # mark the pool vertices of base i's all-ones class
            marked[type_class(oracle, range(i * k + 1, (i + 1) * k + 1), (1 << k) - 1, pool) - start] = True
        fractions.append((pool_size - np.count_nonzero(marked)) / pool_size)
    arr = np.asarray(fractions)
    target = (1 - 0.5**k) ** n
    return {
        "k": k,
        "n": n,
        "pool_size": pool_size,
        "trials": trials,
        "estimate": float(arr.mean()),
        "stderr": float(arr.std(ddof=1) / math.sqrt(trials)),
        "target": target,
        "trial_values": fractions,
    }


@lru_cache(maxsize=None)
def _gfree_flags(pattern: FiniteGraph, n: int) -> np.ndarray:
    """Read-only table over all labeled graphs on n vertices, indexed by
    their codes (the first pair most significant), shared per (pattern,
    n): True where the graph has no induced copy of the pattern.

    One ``find_induced`` per isomorphism class of the catalog decides the
    class; a pattern-free class marks the codes of all its relabellings.
    """
    weights = _relabelings(n)
    flags = np.zeros(1 << len(weights), dtype=bool)
    for g in enumerate_unlabeled(n):
        if find_induced(g.rows, (1 << n) - 1, pattern)[0] is None:
            flags[(_upper_bits(g) @ weights).astype(np.intp)] = True
    flags.flags.writeable = False
    return flags


def exact_gfree_count(pattern: FiniteGraph, n: int) -> dict:
    """Exact probability that a uniform labeled n-vertex graph is pattern-free."""
    check_limit(n, "EXACT_N_CAP", "exact-table order %d" % n)
    if not 1 <= pattern.order <= n:
        raise ValueError("pattern order must lie in [1, n]")
    flags = _gfree_flags(pattern, n)
    count = int(flags.sum())
    total = len(flags)
    return {"n": n, "count": count, "total": total, "probability": Fraction(count, total)}


def _trial_graph_bits(seed: int, trials: int, npairs: int) -> np.ndarray:
    entries = trials * npairs
    check_limit(entries, "STREAM_ENTRIES_CAP", "trial-graph stream of %d entries" % entries)
    tags = TAG_TRIAL_GRAPHS + np.arange(trials, dtype=np.uint64)
    return stream_bits(seed, tags, npairs, Fraction(1, 2))


def mc_gfree_probability(
    pattern: FiniteGraph,
    n: int,
    trials: int,
    seed: int,
    c: float | None = None,
) -> dict:
    """Monte Carlo estimate of the pattern-free probability for uniform
    labeled n-vertex graphs, with the 2^(-c n^2) envelope when c is given."""
    _check_gfree_pattern(pattern)
    if n < pattern.order:
        raise ValueError("n must be at least the pattern order")
    check_limit(n, "MC_N_CAP", "n %d" % n)
    if trials < 1:
        raise ValueError("need at least one trial")
    if c is not None and not math.isfinite(c):
        raise ValueError("c must be finite, not %r" % c)
    if c is not None and -c * n * n >= 1024:
        raise ValueError("envelope 2^(-c n^2) = 2^%g at c = %g, n = %d exceeds the largest float" % (-c * n * n, c, n))
    bits = _trial_graph_bits(seed, trials, math.comb(n, 2))
    out = {"n": n, "trials": trials}
    if n <= EXACT_N_CAP:  # a trial's code is that of its identity relabelling
        hits = _gfree_flags(pattern, n)[(bits @ _relabelings(n)[:, 0]).astype(np.intp)]
        out["exact"] = exact_gfree_count(pattern, n)["probability"]
    else:
        rows = rows_from_upper_bits(bits, n)
        hits = np.array([find_induced(rows[t : t + n], (1 << n) - 1, pattern)[0] is None for t in range(0, len(rows), n)])
    est = float(hits.mean())
    out.update(estimate=est, stderr=float(math.sqrt(est * (1 - est) / trials)))
    if c is not None:
        out["envelope"] = 2.0 ** (-c * n * n)
    return out


def fn_size(n: int, n_param: int) -> int:
    """ceil(N * log2 n), the pattern-free subset size the bound tracks, in
    integers: the least m with 2^m >= n^N.  An n^N of more than
    FN_POWER_BITS_CAP bits is refused."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_param < 0:
        raise ValueError("n_param must be >= 0")
    bits = n_param * (n.bit_length() - 1)
    check_limit(bits, "FN_POWER_BITS_CAP", "n^N = %d^%d" % (n, n_param), " bits")
    return (n**n_param - 1).bit_length()


def mc_fn_bound(
    pattern: FiniteGraph,
    n_list: list[int],
    n_param: int,
    trials: int,
    seed: int,
) -> list[dict]:
    """Per n: the probability that a uniform n-vertex graph contains a
    pattern-free induced subgraph of size f(n) = ceil(N log2 n).

    Exact subset search decides each trial up to n = 16; beyond that a
    greedy witness search gives a lower-bound estimate only.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows_out = []
    for n in n_list:
        f = fn_size(n, n_param)
        row = {"n": n, "f": f, "envelope": float(n) ** (-2 * f) if n > 1 else 1.0}
        if f == 0:
            row.update(estimate=1.0, stderr=0.0, mode="degenerate")
        elif f > n:
            row.update(estimate=0.0, stderr=0.0, mode="degenerate")
        else:
            _check_gfree_pattern(pattern)
            rows = rows_from_upper_bits(_trial_graph_bits(seed, trials, math.comb(n, 2)), n)
            wins = 0
            for t in range(0, len(rows), n):
                g_rows = rows[t : t + n]
                if n <= FN_EXACT_CAP:
                    ok = len(_exact_gfree(g_rows, n, pattern, stop_at=f)) >= f
                else:
                    ok = len(_greedy_gfree(g_rows, n, pattern)) >= f
                wins += ok
            est = wins / trials
            row.update(
                estimate=est,
                stderr=math.sqrt(est * (1 - est) / trials),
                mode="exact" if n <= FN_EXACT_CAP else "greedy-lower-bound",
            )
        rows_out.append(row)
    return rows_out


def sample_mu_p(p, bound: int, seed: int) -> VertexSet:
    """Include each n <= bound independently with probability p."""
    frac = Fraction(p) if not isinstance(p, Fraction) else p
    if not 0 < frac < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if bound < 0:
        raise ValueError("prefix bound must be non-negative")
    check_limit(bound, "STREAM_ENTRIES_CAP", "mu_p stream of %d entries" % bound)
    members = np.flatnonzero(stream_bits(seed, [TAG_MU_P], bound, frac)[0])
    members += 1
    return VertexSet(members, bound)


def type_frequency_check(oracle: EdgeOracle, f: VertexSet, t: TypeSpec, bound: int) -> dict:
    """Empirical frequency of type-t vertices in (max F, bound], with the
    3-sigma binomial band around p^{|F|} and a runs-test for independence.
    A pool of more than NOTATION_SET_CAP vertices is refused before any of
    it is built."""
    if tuple(t.base) != tuple(f.elements):
        raise ValueError("type must be over the given base set")
    start = (int(f.as_array[-1]) if len(f) else 0) + 1
    pool = range(start, bound + 1)
    total = len(pool)
    check_limit(total, "NOTATION_SET_CAP", "pool of %d vertices" % total)
    if total == 0:
        raise ValueError("no vertices beyond the base within the bound")
    members = type_class(oracle, f.as_array, t.mask, pool)
    count = len(members)
    freq = count / total
    # class probability is a product over mask bits (2^-|F| at p = 1/2)
    pe = float(oracle.edge_probability)
    p = 1.0
    for i in range(len(f)):
        p *= pe if t.mask >> i & 1 else (1 - pe)
    sigma = math.sqrt(p * (1 - p) / total) if 0 < p < 1 else 0.0
    z = (freq - p) / sigma if sigma else 0.0
    n1 = count
    n0 = total - count
    # the runs of members and non-members along the pool: 1 + every edge of
    # a block of consecutive members that lies strictly inside the pool
    runs = 1
    if count:
        blocks = 1 + int(np.count_nonzero(np.diff(members) > 1))
        runs += 2 * blocks - (int(members[0]) == start) - (int(members[-1]) == bound)
    runs_expected = 1 + 2 * n1 * n0 / total
    runs_var = (runs_expected - 1) * (runs_expected - 2) / (total - 1) if total > 1 else 0.0
    runs_z = (runs - runs_expected) / math.sqrt(runs_var) if runs_var > 0 else 0.0
    return {
        "f": f.as_array.tolist(),
        "mask": t.bits,
        "bound": bound,
        "total": total,
        "count": count,
        "frequency": freq,
        "expected": p,
        "sigma": sigma,
        "z": z,
        "band_ok": abs(freq - p) <= 3 * sigma if sigma else freq == p,
        "runs": {"observed": runs, "expected": runs_expected, "z": runs_z},
    }
