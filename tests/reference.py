"""Brute-force references that the tests compare the library against."""

from itertools import combinations

from radolab.graphs import FiniteGraph, pattern_orbit_table, rows_from_upper_bits, subset_code


def from_upper_mask(n: int, mask: int) -> FiniteGraph:
    """The n-vertex graph whose column-major upper-triangle pair p is bit p of mask."""
    bits = [mask >> p & 1 for p in range(n * (n - 1) // 2)]
    return FiniteGraph(n, tuple(rows_from_upper_bits(bits, n)))


def complement(g: FiniteGraph) -> FiniteGraph:
    full = (1 << g.order) - 1
    return FiniteGraph(g.order, tuple((~r & full & ~(1 << i)) for i, r in enumerate(g.rows)))


def contains_induced_copy(g: FiniteGraph, pattern: FiniteGraph) -> bool:
    """Exhaustive check that g has an induced copy of the pattern."""
    r = pattern.order
    if r > g.order:
        return False
    table = pattern_orbit_table(pattern)
    return any(table[subset_code(g.rows, sub)] for sub in combinations(range(g.order), r))


def greedy_gfree(rows, n: int, pattern: FiniteGraph) -> list[int]:
    """Take each index in turn unless it completes a pattern copy with r - 1
    indices already taken, found by scanning every such (r - 1)-subset."""
    table = pattern_orbit_table(pattern)
    chosen: list[int] = []
    for v in range(n):
        if not any(table[subset_code(rows, (*rest, v))] for rest in combinations(chosen, pattern.order - 1)):
            chosen.append(v)
    return chosen
