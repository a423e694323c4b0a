"""Every limit of radolab, defined once, with its unit, what it bounds and why.

An input above a limit is refused before the work it would start, with
the one message ``<what> <value> exceeds <NAME> = <cap>`` (``check_limit``);
the CLI prints it as ``error: ...`` and exits 1.
"""

DEFAULT_NODE_BUDGET = 10**6  # search nodes per induced-copy search (--budget): a spent budget is exit 3, not absence
PATTERN_ORDER_CAP = 1024  # vertices of k:n, c:n, p:n, e:n, g6: and file: graphs (quadratic builds); no command needs more
CONTAINS_ORDER_CAP = 10  # pattern vertices of contains: the induced-copy search is exponential in them
GFREE_PATTERN_ORDER_CAP = 7  # pattern vertices of the pattern-free solvers and mc-gfree: copies per anchor grow as n^(order-1)
GFREE_WINDOW_CAP = 1 << 14  # window vertices of gfree-max and dyadic-audit: refused before any adjacency row is built
EXACT_WINDOW_CAP = 40  # window vertices of exact pattern-free search, bounded only by size + vertices left
CANONICAL_MAX_ORDER = 8  # vertices of a canonical form: n! relabellings, and codes below 2^28 stay exact in float64
CATALOG_MAX_ORDER = 7  # order of the unlabeled catalog (audit-weak --kmax): order 8 needs ~1.5e11 relabelling products
GRAPH6_MAX_ORDER = 258047  # vertices graph6_encode writes: the largest order of graph6's four-byte size header
AP_SIZE_LIMIT = 5000  # elements of a longest_ap input (ap): its dynamic program is quadratic in them
SCAN_PREFIX_CAP = 2 * 10**9  # prefix bound of the construct-* scans: linear, about a minute at 25 ns per start
EXTENSION_BASE_CAP = 20  # vertices of extension's base F: 2^20 types are about a million entries, 8 MiB of witnesses; its keys fit an int64
MC_N_CAP = 32  # vertices of an mc-gfree trial graph: above EXACT_N_CAP each trial is one induced-copy search
EXACT_N_CAP = 7  # vertices up to which mc-gfree reads all 2^21 labelled graphs' exact table, 2 MiB (and reports exact)
FN_EXACT_CAP = 16  # vertices up to which mc-fn decides each trial exactly; above it a row is a greedy lower bound
FN_POWER_BITS_CAP = 1 << 16  # bits of n^N in mc-fn: a refused row has f > 2^16, so needs trials of n > 2^16 vertices
MC_DENSITY_EDGE_CAP = 2 * 10**7  # edge evaluations of mc-density, at most trials * n * k * pool: ~1 s; it builds no grid
STREAM_ENTRIES_CAP = 1 << 27  # entries of one counter stream (trials * C(n, 2) trial-graph pairs, sample-mup's bound): one byte per verdict, 128 MiB
NOTATION_SET_CAP = 1 << 27  # elements of a host set in notation (all, even, odd, ap:, runs) or of an extension or typefreq pool, counted before any of it is built: 1 GiB of int64


def check_limit(value, cap: int, name: str, what: str, unit: str = "") -> None:
    """Refuse a ``value`` above ``cap``, the limit called ``name``, with a
    ValueError whose message is ``what`` (the refused quantity and, as a
    rule, its value), "exceeds" and ``NAME = cap`` plus ``unit``."""
    if value > cap:
        raise ValueError("%s exceeds %s = %d%s" % (what, name, cap, unit))
