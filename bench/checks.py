"""Independent output checks for the benchmark.

Claims about edges among a result's vertices (embedding images, thick
unions, extension witnesses, pattern-free subsets, universality witnesses,
Pi02 blocks) are re-derived from raw scalar ``EdgeOracle.edge`` queries.
Bulk counts over pools of 10^5 to 10^6 vertices, and the leftmost-first
thick and Pi02 constructions, are recomputed with this module's own NumPy
implementation of the normative edge and stream recipes (README,
"Determinism contract"); every such recomputation is first anchored to
scalar ``edge`` on sampled pairs.  A construction's documented give-up is
accepted only where the reference construction gives up in the same place.
Nothing here calls radolab's verifiers, its kernels or its graph
algorithms.

Each ``check_*`` function returns nothing and raises ``CheckError`` when
the result is wrong.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
HALF_53 = 1 << 52  # (h >> 11) < 2^52  iff  the top 53 bits of h read below 1/2
TAG_TRIAL_GRAPHS = 1 << 40  # stream tags fixed by the determinism contract
TAG_MU_P = 2 << 40
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)  # unlabeled graphs on n vertices
ANCHOR_SAMPLES = 64
CHUNK = 1 << 16
REL = 1e-11  # float fields: the CLI prints 12 significant digits


class CheckError(Exception):
    """A result disagrees with the raw oracle or with its own report."""


def require(cond, message: str, *args) -> None:
    if not cond:
        raise CheckError(message % args if args else message)


# --- reference recipes -------------------------------------------------------

def _mix(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def ref_edges(seed: int, us, vs) -> np.ndarray:
    """Fair-coin edge bits for paired vertex arrays, from the normative recipe."""
    us = np.asarray(us, dtype=np.uint64)
    vs = np.asarray(vs, dtype=np.uint64)
    a, b = np.minimum(us, vs), np.maximum(us, vs)
    key = (a * np.uint64(GOLDEN)) ^ ((b << np.uint64(32)) | (b >> np.uint64(32)))
    h = _mix(np.uint64(seed) ^ _mix(key))
    return (h >> np.uint64(11)) < np.uint64(HALF_53)


def ref_stream(seed: int, tags, count: int) -> np.ndarray:
    """53-bit counter-based uniforms, shape (len(tags), count)."""
    tags = np.atleast_1d(np.asarray(tags, dtype=np.uint64))
    keys = _mix(np.uint64(seed) ^ _mix(tags * np.uint64(GOLDEN)))
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix(keys[:, None] + idx[None, :] * np.uint64(GOLDEN)) >> np.uint64(11)


def anchor(oracle, us, vs) -> None:
    """The reference recipe agrees with scalar ``edge`` on sampled pairs."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    pick = np.linspace(0, len(us) - 1, min(len(us), ANCHOR_SAMPLES)).astype(np.int64)
    pick = pick[us[pick] != vs[pick]]
    ref = ref_edges(oracle.seed, us[pick], vs[pick])
    for i, bit in zip(pick, ref):
        require(oracle.edge(int(us[i]), int(vs[i])) == bit, "reference recipe disagrees with edge(%d, %d)", us[i], vs[i])


def ref_type_keys(oracle, base, pool: np.ndarray) -> np.ndarray:
    """Type masks over base (bit i = adjacent to base[i]) for every pool
    vertex.  Chunked, so the check's memory stays small next to the
    program's and does not set the run's peak RSS."""
    keys = np.zeros(len(pool), dtype=np.int64)
    for i, b in enumerate(base):
        anchor(oracle, np.full(len(pool), b, dtype=np.int64), pool)
        for lo in range(0, len(pool), CHUNK):
            part = pool[lo : lo + CHUNK]
            keys[lo : lo + CHUNK] |= ref_edges(oracle.seed, np.full(len(part), b), part).astype(np.int64) << i
    return keys


# --- small graphs as bitmask rows ---------------------------------------------

def scalar_rows(oracle, verts) -> list[int]:
    """Adjacency rows among verts (by position), from scalar edge queries."""
    verts = [int(v) for v in verts]
    rows = [0] * len(verts)
    for j in range(len(verts)):
        for i in range(j):
            if oracle.edge(verts[i], verts[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def sub_rows(rows: list[int], sub) -> list[int]:
    out = []
    for a in sub:
        r = 0
        for q, b in enumerate(sub):
            if rows[a] >> b & 1:
                r |= 1 << q
        out.append(r)
    return out


def isomorphic(g: list[int], h: list[int]) -> bool:
    """Backtracking isomorphism test for small graphs given as rows."""
    n = len(g)
    if n != len(h):
        return False
    dg = [r.bit_count() for r in g]
    dh = [r.bit_count() for r in h]
    if sorted(dg) != sorted(dh):
        return False
    order = sorted(range(n), key=lambda v: -dg[v])
    img = [-1] * n

    def extend(depth: int, used: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for w in range(n):
            if used >> w & 1 or dh[w] != dg[v]:
                continue
            if all((g[v] >> u & 1) == (h[w] >> img[u] & 1) for u in order[:depth]):
                img[v] = w
                if extend(depth + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def decode_graph6(text: str) -> list[int]:
    """Rows of a graph6 string with at most 258047 vertices."""
    data = [ord(c) - 63 for c in text]
    if data[0] == 63:
        require(len(data) >= 4 and data[1] < 63, "graph6 %r: unsupported size", text[:8])
        n, data = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    else:
        n, data = data[0], data[1:]
    bits = [x >> s & 1 for x in data for s in range(5, -1, -1)]
    require(len(bits) >= n * (n - 1) // 2, "graph6 %r: too short for %d vertices", text[:8], n)
    rows = [0] * n
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            p += 1
    return rows


@functools.lru_cache(maxsize=None)
def labelled_codes(pattern: tuple[int, ...]) -> frozenset[int]:
    """Upper-triangle codes (bit b(b-1)/2 + a for positions a < b) of every
    labelling of a small pattern."""
    r = len(pattern)
    return frozenset(_code(sub_rows(list(pattern), perm), range(r)) for perm in permutations(range(r)))


def _code(rows: list[int], sub) -> int:
    code = 0
    for b in range(1, len(sub)):
        for a in range(b):
            if rows[sub[a]] >> sub[b] & 1:
                code |= 1 << (b * (b - 1) // 2 + a)
    return code


def _induces(rows: list[int], sub, pattern: list[int]) -> bool:
    return _code(rows, sub) in labelled_codes(tuple(pattern))


def _joins_pattern(rows: list[int], chosen: list[int], v: int, pattern: list[int]) -> bool:
    """Whether v together with some (r-1)-subset of chosen induces the pattern."""
    r = len(pattern)
    return any(_induces(rows, (*rest, v), pattern) for rest in combinations(chosen, r - 1))


def ref_greedy(rows: list[int], pattern: list[int]) -> list[int]:
    """Ascending greedy pattern-free subset: keep v unless it completes a copy."""
    chosen: list[int] = []
    for v in range(len(rows)):
        if not _joins_pattern(rows, chosen, v, pattern):
            chosen.append(v)
    return chosen


def check_pattern_free(rows: list[int], chosen: list[int], pattern: list[int], maximal: bool) -> None:
    """chosen induces no copy of the pattern; with maximal, no vertex can join."""
    for sub in combinations(chosen, len(pattern)):
        require(not _induces(rows, sub, pattern), "subset induces the pattern on positions %s", sub)
    if maximal:
        inside = set(chosen)
        for v in range(len(rows)):
            if v not in inside:
                require(_joins_pattern(rows, chosen, v, pattern), "subset is not maximal: position %d can join", v)


# --- prefix-scan --------------------------------------------------------------

def ref_isolated(oracle, base_hi: int, lo: int, hi: int) -> np.ndarray:
    """Vertices of [lo, hi] with no edge into [1, base_hi]."""
    parts = [np.zeros(0, dtype=np.int64)]
    for start in range(lo, hi + 1, CHUNK):
        surv = np.arange(start, min(start + CHUNK, hi + 1), dtype=np.int64)
        if start == lo and base_hi:
            anchor(oracle, np.full(len(surv), base_hi), surv)
        for b in range(1, base_hi + 1):
            if not len(surv):
                break
            surv = surv[~ref_edges(oracle.seed, np.full(len(surv), b), surv)]
        parts.append(surv)
    return np.concatenate(parts)


def ref_pi02(oracle, levels: int, prefix_bound: int):
    """The leftmost Pi02 construction for the substantial family: level n
    keeps the earlier blocks plus every vertex beyond k_{n-1} with no edge
    into [1, k_{n-1}], and closes at the least vertex where the reciprocal
    sum of that set exceeds n.  Returns (ks, blocks, give_up), give_up being
    None or the documented (exception name, level)."""
    ks: list[int] = []
    blocks: list[list[int]] = []
    earlier = np.zeros(0, dtype=np.int64)
    k_prev = 0
    for n in range(1, levels + 1):
        cands = ref_isolated(oracle, k_prev, k_prev + 1, prefix_bound)
        if not len(cands):
            return ks, blocks, ("TypeClassEmpty", n)
        members = np.concatenate((earlier, cands))
        hits = np.flatnonzero(np.cumsum(1.0 / members.astype(np.float64)) > n)
        if not len(hits):
            return ks, blocks, ("ForcingFailed", n)
        k_n = max(int(members[hits[0]]), k_prev + 1)
        block = members[(members > k_prev) & (members <= k_n)]
        ks.append(k_n)
        blocks.append([int(v) for v in block])
        earlier = np.concatenate((earlier, block))
        k_prev = k_n
    return ks, blocks, None


def check_pi02(oracle, outcome, levels: int, prefix_bound: int) -> None:
    """The outcome is the reference construction's: the same horizons and
    blocks, or the same documented give-up.  A returned member is also
    re-queried: every vertex of block n has no edge into [1, k_{n-1}],
    which holds all earlier blocks, so no edge joins two blocks."""
    ref_ks, ref_blocks, give_up = ref_pi02(oracle, levels, prefix_bound)
    if give_up is not None:
        require(_kind(outcome) == give_up, "outcome %s, the reference gives up with %s", _kind(outcome), give_up)
        return
    require(_kind(outcome) is None, "outcome %s, the reference construction succeeds", _kind(outcome))
    ks, blocks = list(outcome["ks"]), [list(b) for b in outcome["blocks"]]
    require(ks == ref_ks, "horizons %s, reference %s", ks, ref_ks)
    require(blocks == ref_blocks, "blocks differ from the reference")
    require(list(outcome["union"]) == [v for b in blocks for v in b], "union is not the concatenated blocks")
    k_prev = 0
    for n, (k, block) in enumerate(zip(ks, blocks), start=1):
        for v in block:
            require(not any(oracle.edge(b, v) for b in range(1, k_prev + 1)), "vertex %d of block %d has an edge into [1, %d]", v, n, k_prev)
        k_prev = k


def ref_thick(oracle, blocks: int, prefix_bound: int):
    """The leftmost thick edgeless construction: interval j has length j,
    starts beyond interval j - 1, and has no edge inside or to the earlier
    intervals.  Returns (intervals, block that found no room or None)."""
    intervals: list[tuple[int, int]] = []
    union: list[int] = []
    scan_from = 1
    for j in range(1, blocks + 1):
        found = None
        for lo in range(scan_from, prefix_bound - j + 2, CHUNK):
            ks = np.arange(lo, min(lo + CHUNK, prefix_bound - j + 2), dtype=np.int64)
            if lo == scan_from and j > 1:
                anchor(oracle, ks, ks + 1)
            for d2 in range(j):
                for d1 in range(d2):
                    ks = ks[~ref_edges(oracle.seed, ks + d1, ks + d2)]
            for u in union:
                for d in range(j):
                    ks = ks[~ref_edges(oracle.seed, np.full(len(ks), u), ks + d)]
            if len(ks):
                found = int(ks[0])
                break
        if found is None:
            return intervals, j
        intervals.append((found, j))
        union.extend(range(found, found + j))
        scan_from = found + j
    return intervals, None


def check_thick(oracle, outcome, blocks: int, prefix_bound: int) -> None:
    """The reference construction's intervals, whose union has no edges by
    scalar queries; or, when the reference runs out of prefix, the same
    exhausted block."""
    ref_intervals, exhausted = ref_thick(oracle, blocks, prefix_bound)
    if exhausted is not None:
        require(_kind(outcome) == ("PrefixExhausted", exhausted), "outcome %s, the reference exhausts the prefix at block %d", _kind(outcome), exhausted)
        return
    require(_kind(outcome) is None, "outcome %s, the reference construction succeeds", _kind(outcome))
    intervals = [tuple(iv) for iv in outcome["intervals"]]
    require(intervals == ref_intervals, "intervals %s, reference %s", intervals, ref_intervals)
    union = [v for start, length in intervals for v in range(start, start + length)]
    require(list(outcome["union"]) == union, "union is not the concatenated intervals")
    for u, v in combinations(union, 2):
        require(not oracle.edge(u, v), "thick union has edge %d-%d", u, v)


def _kind(outcome):
    """(name, level or block) of a documented give-up, None for a result."""
    if isinstance(outcome, dict):
        return None
    return (outcome.name, outcome.fields.get("level", outcome.fields.get("block")))


def check_extension(oracle, report: dict, f: list[int], bound: int) -> None:
    """Each witness is the least vertex <= bound outside F realising its type."""
    k = len(f)
    require(len(report["types"]) == 1 << k, "expected %d types", 1 << k)
    cands = np.setdiff1d(np.arange(1, bound + 1, dtype=np.int64), np.asarray(f, dtype=np.int64))
    keys = ref_type_keys(oracle, f, cands)
    least = np.full(1 << k, -1, dtype=np.int64)
    first = np.unique(keys, return_index=True)
    least[first[0]] = cands[first[1]]
    for mask, entry in enumerate(report["types"]):
        require(entry["mask"] == "".join("1" if mask >> i & 1 else "0" for i in range(k)), "type %d has mask %s", mask, entry["mask"])
        w = entry["witness"]
        want = int(least[mask]) if least[mask] >= 0 else None
        require(w == want, "type %s: witness %s, least is %s", entry["mask"], w, want)
        if w is not None:
            for i, b in enumerate(f):
                require(oracle.edge(w, b) == bool(mask >> i & 1), "witness %d does not realise type %s", w, entry["mask"])
    require(report["pass"] == all(e["witness"] is not None for e in report["types"]), "pass flag is inconsistent")


def check_typefreq(oracle, report: dict, f: list[int], mask: int, bound: int) -> None:
    pool = np.arange(f[-1] + 1, bound + 1, dtype=np.int64)
    indicator = ref_type_keys(oracle, f, pool) == mask
    count = int(indicator.sum())
    total = len(pool)
    require(report["total"] == total and report["count"] == count, "count %d/%d, reference %d/%d", report["count"], report["total"], count, total)
    expected = 0.5 ** len(f)
    sigma = math.sqrt(expected * (1 - expected) / total)
    require(math.isclose(report["frequency"], count / total, rel_tol=REL), "frequency is not count/total")
    require(math.isclose(report["expected"], expected, rel_tol=REL), "expected frequency is not 2^-|F|")
    require(report["band_ok"] == (abs(count / total - expected) <= 3 * sigma), "band verdict is inconsistent")
    runs = 1 + int((indicator[1:] != indicator[:-1]).sum())
    require(report["runs"]["observed"] == runs, "runs %d, reference %d", report["runs"]["observed"], runs)


def ref_mu_half(seed: int, bound: int) -> np.ndarray:
    """Elements of the product-measure sample at p = 1/2."""
    key = _mix(np.uint64(seed) ^ _mix(np.array([TAG_MU_P], dtype=np.uint64) * np.uint64(GOLDEN)))
    parts = []
    for lo in range(1, bound + 1, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, bound + 1), dtype=np.uint64)
        parts.append(idx[(_mix(key + idx * np.uint64(GOLDEN)) >> np.uint64(11)) < np.uint64(HALF_53)])
    return np.concatenate(parts).astype(np.int64)


def check_mu_sample(vs, ref: np.ndarray, bound: int) -> None:
    require(vs.prefix_bound == bound, "prefix bound %d", vs.prefix_bound)
    got = np.fromiter(vs.elements, dtype=np.int64, count=len(vs.elements))
    require(np.array_equal(got, ref), "sample differs from the reference stream")


def check_thickness(result, ref: np.ndarray) -> None:
    breaks = np.flatnonzero(np.diff(ref) != 1)
    starts = np.concatenate(([0], breaks + 1))
    lengths = np.diff(np.concatenate((starts, [len(ref)])))
    best = int(np.argmax(lengths))  # argmax returns the leftmost maximum
    want = (int(ref[starts[best]]), int(lengths[best]))
    require(tuple(result) == want, "thickness %s, reference %s", tuple(result), want)


def check_weighted_sum(result: float, ref: np.ndarray) -> None:
    want = math.fsum(1.0 / ref.astype(np.float64))
    require(result == want, "reciprocal sum %r, reference %r", result, want)


def round12(x: float) -> float:
    """A float as the CLI prints it."""
    return float("%.12g" % x)


def check_density(report: dict, ref: np.ndarray, checkpoints: list[int], rounded=lambda x: x) -> None:
    want = [rounded(int(np.searchsorted(ref, n, side="right")) / n) for n in checkpoints]
    require(list(report["checkpoints"]) == list(checkpoints), "checkpoints %s", report["checkpoints"][:4])
    require(list(report["densities"]) == want, "prefix densities differ from the reference counts")
    require(report["sup_density"] == max(want) and report["final_density"] == want[-1], "sup/final density")


def check_density_star(report: dict, make_oracle, seed: int, k: int, n: int, pool_size: int, trials: int) -> None:
    """Each trial's avoiding fraction, recounted with the reference recipe."""
    pool = np.arange(n * k + 1, n * k + pool_size + 1, dtype=np.int64)
    require(len(report["trial_values"]) == trials, "expected %d trial values", trials)
    for t, got in enumerate(report["trial_values"]):
        trial = make_oracle((seed + t) & MASK64)
        avoid = np.ones(pool_size, dtype=bool)
        for i in range(n):
            keys = ref_type_keys(trial, range(i * k + 1, (i + 1) * k + 1), pool)
            avoid &= keys != (1 << k) - 1
        require(got == int(avoid.sum()) / pool_size, "trial %d: fraction %r, reference %r", t, got, avoid.mean())
    require(math.isclose(report["estimate"], float(np.mean(report["trial_values"])), rel_tol=1e-12), "estimate is not the trial mean")
    require(math.isclose(report["target"], (1 - 0.5**k) ** n, rel_tol=1e-12), "analytic target")


# --- embed --------------------------------------------------------------------

def check_embedding(oracle, images: list[int], target_rows: list[int], host_elements) -> None:
    images = list(images)
    require(len(images) == len(target_rows) == len(set(images)), "images are not %d distinct vertices", len(target_rows))
    host = set(host_elements)
    require(all(v in host for v in images), "an image lies outside the host")
    for i, j in combinations(range(len(images)), 2):
        want = bool(target_rows[i] >> j & 1)
        require(oracle.edge(images[i], images[j]) == want, "images %d,%d of target pair (%d,%d) disagree", images[i], images[j], i, j)


# --- search -------------------------------------------------------------------

def check_weak_universality(oracle, report: dict, host_elements, k_max: int) -> None:
    """Every order has its full class count and every class is found, by a
    witness that induces its pattern in the host.  The workloads' hosts
    hold every graph of their orders, so an absent or budget status is an
    early give-up, not a documented outcome."""
    host = set(host_elements)
    by_order = [0] * (k_max + 1)
    seen = set()
    for entry in report["patterns"]:
        by_order[entry["order"]] += 1
        require(entry["graph6"] not in seen, "pattern %s listed twice", entry["graph6"])
        seen.add(entry["graph6"])
        require(entry["status"] == "found", "pattern %s has status %s", entry["graph6"], entry["status"])
        witness = entry["witness"]
        require(len(witness) == entry["order"] and all(v in host for v in witness), "witness %s is not in the host", witness)
        require(isomorphic(scalar_rows(oracle, witness), decode_graph6(entry["graph6"])), "witness %s does not induce %s", witness, entry["graph6"])
    require(by_order[1:] == list(A000088[1 : k_max + 1]), "class counts %s", by_order[1:])
    require(report["verdict"] == "pass", "verdict %s with every pattern found", report["verdict"])


def check_gfree_subset(oracle, elements: list[int], window: tuple[int, int], pattern: list[int]) -> None:
    """A pattern-free subset of the window, maximal by inclusion and at least
    as large as the ascending greedy one."""
    lo, hi = window
    verts = list(range(lo, hi + 1))
    rows = scalar_rows(oracle, verts)
    require(all(lo <= v <= hi for v in elements) and len(set(elements)) == len(elements), "subset leaves the window")
    chosen = sorted(v - lo for v in elements)
    check_pattern_free(rows, chosen, pattern, maximal=True)
    greedy = len(ref_greedy(rows, pattern))
    require(len(chosen) >= greedy, "exact size %d below the greedy size %d", len(chosen), greedy)


def check_dyadic(oracle, report: dict, pattern: list[int], n_param: int, ks: range, exact_cap: int) -> None:
    """Greedy rows match the ascending greedy on the true window; exact rows
    are at least that large."""
    require([r["k"] for r in report["rows"]] == list(ks), "rows cover k = %s", [r["k"] for r in report["rows"]])
    for row in report["rows"]:
        k = row["k"]
        lo, hi = 2**k, 2 ** (k + 1) - 1
        require(row["window"] == [lo, hi], "row %d window %s", k, row["window"])
        mode = "exact" if hi - lo + 1 <= exact_cap else "greedy"
        require(row["mode"] == mode, "row %d mode %s", k, row["mode"])
        greedy = len(ref_greedy(scalar_rows(oracle, range(lo, hi + 1)), pattern))
        if mode == "greedy":
            require(row["size"] == greedy, "k=%d: greedy size %d, ascending greedy on the true window gives %d", k, row["size"], greedy)
        else:
            require(row["size"] >= greedy, "k=%d: exact size %d below greedy %d", k, row["size"], greedy)
        require(row["bound"] == k * n_param, "row %d bound", k)
        require(row["violation"] == (row["size"] >= max(k * n_param, 1)), "row %d violation flag", k)
    require(report["violations"] == [r["k"] for r in report["rows"] if r["violation"]], "violation list")
    m = min(ks)
    head = float(sum(Fraction(1, i) for i in range(1, 2**m)))
    require(math.isclose(report["majorant"]["total"], n_param * (2 * m + 2) / 2**m + head, rel_tol=REL), "majorant")


def ref_trial_bits(seed: int, trials: int, n: int) -> np.ndarray:
    """Monte Carlo trial graphs as (trial, pair) edge bits, pairs in
    column-major upper-triangle order."""
    npairs = n * (n - 1) // 2
    return ref_stream(seed, TAG_TRIAL_GRAPHS + np.arange(trials, dtype=np.uint64), npairs) < np.uint64(HALF_53)


def ref_trial_rows(seed: int, trials: int, n: int) -> list[list[int]]:
    """Monte Carlo trial graphs as adjacency rows."""
    bits = ref_trial_bits(seed, trials, n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    out = []
    for t in range(trials):
        rows = [0] * n
        for p in np.flatnonzero(bits[t]):
            i, j = pairs[p]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        out.append(rows)
    return out


def pattern_free(bits: np.ndarray, pattern: list[int], n: int) -> np.ndarray:
    """Which graphs, given as (graph, pair) edge bits in column-major
    upper-triangle order, induce no copy of the pattern."""
    trials = len(bits)
    r = len(pattern)
    codes = np.zeros(1 << (r * (r - 1) // 2), dtype=bool)
    codes[list(labelled_codes(tuple(pattern)))] = True
    contains = np.zeros(trials, dtype=bool)
    for sub in combinations(range(n), r):
        code = np.zeros(trials, dtype=np.int64)
        for b in range(1, r):
            for a in range(b):
                j, i = sub[b], sub[a]
                code |= bits[:, j * (j - 1) // 2 + i].astype(np.int64) << (b * (b - 1) // 2 + a)
        contains |= codes[code]
    return ~contains


def check_mc_gfree(report: dict, pattern: list[int], n: int, trials: int, seed: int, rounded=lambda x: x) -> None:
    """The estimate equals the brute-force pattern-free share of the trial
    graphs; for n <= 6 the exact probability is recounted over all graphs."""
    free = int(pattern_free(ref_trial_bits(seed, trials, n), pattern, n).sum())
    est = free / trials
    require(report["trials"] == trials and report["estimate"] == rounded(est), "estimate %r, reference %r", report["estimate"], est)
    require(report["stderr"] == rounded(math.sqrt(est * (1 - est) / trials)), "stderr %r", report["stderr"])
    if n <= 6:
        npairs = n * (n - 1) // 2
        every = (np.arange(1 << npairs)[:, None] >> np.arange(npairs)) & 1
        exact = Fraction(int(pattern_free(every, pattern, n).sum()), 1 << npairs)
        got = report["exact"]
        same = Fraction(got) == exact if isinstance(got, (str, Fraction)) else got == rounded(float(exact))
        require(same, "exact probability %r, reference %s", got, exact)


def check_mc_fn(rows_out: list[dict], pattern: list[int], n_list: list[int], n_param: int, trials: int, seed: int) -> None:
    """Sizes f(n) = ceil(N log2 n); each estimate counts at least the trials in
    which the ascending greedy already reaches f(n)."""
    require([r["n"] for r in rows_out] == n_list, "rows for n = %s", [r["n"] for r in rows_out])
    for row in rows_out:
        n = row["n"]
        f = math.ceil(n_param * math.log2(n)) if n > 1 else 0
        require(row["f"] == f, "n=%d: f=%d, want %d", n, row["f"], f)
        if f == 0 or f > n:
            require(row["mode"] == "degenerate", "n=%d should be degenerate", n)
            continue
        wins = row["estimate"] * trials
        require(row["mode"] == "exact" and abs(wins - round(wins)) < 1e-9, "n=%d: estimate %r is not a count over %d trials", n, row["estimate"], trials)
        greedy_wins = sum(len(ref_greedy(g, pattern)) >= f for g in ref_trial_rows(seed, trials, n))
        require(round(wins) >= greedy_wins, "n=%d: %d wins, but greedy alone reaches f in %d trials", n, round(wins), greedy_wins)


# --- cli ----------------------------------------------------------------------

CSV_HEADER = "n,estimate,stderr,exact_if_available,envelope"


def parse_cli(stdout: bytes, csv: bool):
    """The report an invocation printed: a JSON object with the seed and
    version header or, for CSV, its rows as dicts of numbers (None for an
    empty cell)."""
    text = stdout.decode("ascii", errors="replace")
    if csv:
        lines = text.splitlines()
        require(lines and lines[0] == CSV_HEADER, "CSV header %r", lines[:1])
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            require(len(cells) == 5 and all(_is_number(c) for c in cells if c), "CSV row %r", line)
            rows.append({k: float(c) if c else None for k, c in zip(CSV_HEADER.split(","), cells)})
        return rows
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    require(isinstance(report, dict) and "seed" in report and "version" in report, "stdout is not a JSON report")
    return report


def parse_runs(text: str) -> np.ndarray:
    """Run-length notation "1-4,7,9-12" as a sorted array."""
    parts = []
    for run in text.split(","):
        lo, _, hi = run.partition("-")
        parts.append(np.arange(int(lo), int(hi or lo) + 1, dtype=np.int64))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def check_mu_runs(report: dict, ref: np.ndarray) -> None:
    """A printed mu_p sample: its count and its runs are the reference's."""
    require(report["count"] == len(ref), "count %d, reference %d", report["count"], len(ref))
    require(np.array_equal(parse_runs(report["elements"]), ref), "printed sample differs from the reference stream")


def check_adj(oracle, report: dict, verts) -> None:
    """The printed induced subgraph is the one scalar queries give."""
    rows = scalar_rows(oracle, verts)
    require(report["order"] == len(rows), "order %d", report["order"])
    require(report["edges"] == sum(r.bit_count() for r in rows) // 2, "edge count %d", report["edges"])
    require(decode_graph6(report["graph6"]) == rows, "graph6 differs from the scalar adjacency")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
