"""Finite vertex sets below a prefix bound, and the JSON rule of the reports that hold them."""

from __future__ import annotations

import re
from dataclasses import fields
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .limits import DECIMAL_DIGITS_CAP, check_limit

_PLAIN = frozenset((str, int, bool, type(None)))  # kept as they are by every JSON form, tested by exact type


def _int64_array(values) -> np.ndarray:
    """The given integers as an int64 array: an int64 array as it is, anything else copied."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("vertices must fit in a signed 64-bit integer") from None


class VertexSet:
    """A finite set A of positive integers, materialized up to ``prefix_bound``.

    Elements are strictly increasing, all >= 1 and <= prefix_bound.  The
    prefix bound records how much of the ambient graph was inspected, which
    matters for density and sampling semantics.

    The elements live in a read-only sorted int64 array, ``as_array``: an
    int64 array handed in becomes it, read-only, and anything else is copied.
    The tuple of Python ints, ``elements``, is built on first access only.
    Instances are immutable.
    """

    def __init__(self, elements, prefix_bound: int):
        arr = _int64_array(elements)
        if arr.ndim != 1:
            raise ValueError("elements must form a flat sequence")
        # neighbours are compared directly: np.diff can wrap on int64 input
        if len(arr) and (arr[0] < 1 or not (arr[1:] > arr[:-1]).all()):
            raise ValueError("elements must be strictly increasing and >= 1")
        if len(arr) and int(arr[-1]) > prefix_bound:
            raise ValueError("element %d exceeds prefix bound %d" % (arr[-1], prefix_bound))
        if prefix_bound < 0:
            raise ValueError("prefix bound must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "as_array", arr)
        object.__setattr__(self, "prefix_bound", prefix_bound)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    __delattr__ = __setattr__

    @classmethod
    def from_iterable(cls, it: Iterable[int], prefix_bound: int | None = None) -> "VertexSet":
        arr = np.sort(_int64_array(it), axis=None)
        first = np.ones(len(arr), dtype=bool)
        first[1:] = arr[1:] != arr[:-1]
        arr = arr[first]
        if prefix_bound is None:
            prefix_bound = int(arr[-1]) if len(arr) else 0
        return cls(arr, prefix_bound)

    @classmethod
    def interval(cls, lo: int, hi: int, prefix_bound: int | None = None) -> "VertexSet":
        """The inclusive interval [lo, hi]."""
        if hi < lo:
            return cls((), prefix_bound if prefix_bound is not None else 0)
        return cls(np.arange(lo, hi + 1, dtype=np.int64), prefix_bound if prefix_bound is not None else hi)

    @classmethod
    def empty(cls) -> "VertexSet":
        return cls((), 0)

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.as_array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.prefix_bound == other.prefix_bound and np.array_equal(self.as_array, other.as_array)

    def __hash__(self) -> int:
        return hash((self.as_array.tobytes(), self.prefix_bound))

    def __repr__(self) -> str:
        return "VertexSet(elements=%r, prefix_bound=%r)" % (self.elements, self.prefix_bound)

    def __len__(self) -> int:
        return len(self.as_array)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, v: int) -> bool:
        i = self.as_array.searchsorted(v)
        return bool(i < len(self.as_array) and self.as_array[i] == v)

    def count_upto(self, n: int) -> int:
        """|A ∩ [1, n]|."""
        return int(self.as_array.searchsorted(n, side="right"))

    def minus(self, other: Iterable[int]) -> "VertexSet":
        drop = other.as_array if isinstance(other, VertexSet) else _int64_array(other)
        return VertexSet(self.as_array[~np.isin(self.as_array, drop)], self.prefix_bound)

    def union(self, other: "VertexSet") -> "VertexSet":
        bound = max(self.prefix_bound, other.prefix_bound)
        return VertexSet.from_iterable(np.concatenate([self.as_array, other.as_array]), bound)

    def restrict(self, lo: int, hi: int) -> "VertexSet":
        """Elements within the inclusive interval [lo, hi]."""
        i = self.as_array.searchsorted(lo)
        j = self.as_array.searchsorted(hi, side="right")
        return VertexSet(self.as_array[i:j], self.prefix_bound)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last element of every maximal run of consecutive
        elements, in ascending order."""
        arr = self.as_array
        if len(arr) == 0:
            return arr, arr
        breaks = np.flatnonzero(np.diff(arr) != 1)
        return arr[np.append(0, breaks + 1)], arr[np.append(breaks, len(arr) - 1)]


def _json_value(value, leaf=None):
    """A result in JSON form, in one walk: a report becomes the dict of its
    fields, a vertex set or a tuple a list; a value that is not ``_PLAIN``
    goes through ``leaf``, if given."""
    if isinstance(value, dict):
        return {k: v if type(v) in _PLAIN else _json_value(v, leaf) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _PLAIN else _json_value(v, leaf) for v in value]
    if isinstance(value, Report):
        return _json_value({f.name: getattr(value, f.name) for f in fields(value)}, leaf)
    if isinstance(value, VertexSet):
        return value.as_array.tolist()
    return value if leaf is None else leaf(value)


class Report:
    """Base of the result dataclasses: a report's JSON keys are its fields."""

    def to_json(self) -> dict:
        return _json_value(self)


def format_runs(vs: VertexSet) -> str:
    """Compact run-length notation: "1-4,7,9-12"."""
    starts, ends = vs.runs()
    return ",".join(
        str(a) if a == b else "%d-%d" % (a, b) for a, b in zip(starts.tolist(), ends.tolist())
    )


def _check_set_size(n: int) -> None:
    check_limit(n, "NOTATION_SET_CAP", "host set of %d elements" % n)


def parse_runs(text: str, prefix_bound: int | None = None) -> VertexSet:
    """Parse run-length notation "a-b,c,d-e" into a VertexSet; the run
    lengths are summed and checked before any array is built."""
    runs = []
    text = text.strip()
    if text:
        for part in text.split(","):
            part = part.strip()
            m = re.fullmatch(r"(\d+)(?:-(\d+))?", part)
            if not m:
                raise ValueError("bad vertex-set token %r" % part)
            a, b = (parse_integer(x, "vertex") for x in (m[1], m[2] or m[1]))
            if b < a:
                raise ValueError("descending interval %r" % part)
            runs.append(_int64_array((a, b)))
    _check_set_size(sum(int(b - a) + 1 for a, b in runs))
    parts = [np.append(np.arange(a, b), b) for a, b in runs]
    return VertexSet.from_iterable(np.concatenate(parts) if parts else (), prefix_bound)


def read_lines(path: str) -> list[str]:
    """The data lines of a ``file:`` input, stripped: every line but the
    blank ones and those that start with '#'."""
    with open(path, "r", encoding="ascii") as fh:
        return [ln.strip() for ln in fh.read().splitlines() if ln.strip() and not ln.startswith("#")]


def load_vertex_set(path: str) -> VertexSet:
    """Read a set file: newline-separated decimals, or one run-length line."""
    lines = read_lines(path)
    if len(lines) == 1 and ("," in lines[0] or "-" in lines[0]):
        return parse_runs(lines[0])
    return VertexSet.from_iterable(parse_integer(ln, "set file %s: line" % path) for ln in lines)


def check_digits(text: str, what: str) -> None:
    """Refuse a text of more than DECIMAL_DIGITS_CAP decimal digits, Python's
    own ``int`` bound, by their count, before any number is read from it."""
    if len(text) > DECIMAL_DIGITS_CAP:  # a shorter text holds no more digits, so the common case costs one len()
        digits = sum(map(str.isdecimal, text))
        check_limit(digits, "DECIMAL_DIGITS_CAP", "%s of %d digits" % (what, digits))


def parse_integer(text: str, what: str) -> int:
    """``int(text)``, or a ValueError naming ``what`` the text is: the one
    reader of a decimal in notation, a ``file:`` line or a comma-list item."""
    check_digits(text, what)
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s %r is not an integer" % (what, text)) from None


_KEYWORD_APS = {"all": (1, 1), "even": (2, 2), "odd": (1, 2)}  # (start, difference) of each keyword's progression


def parse_notation(text: str, prefix_bound: int | None = None) -> VertexSet:
    """Parse host-set notation: all, even, odd, ap:a,d, file:PATH, or runs.

    The unbounded keywords (all/even/odd/ap) require a prefix bound; a
    set of more than NOTATION_SET_CAP elements is refused before it is built.
    """
    text = text.strip()
    if text.startswith("file:"):
        return load_vertex_set(text[5:])
    if text in _KEYWORD_APS or text.startswith("ap:"):
        if prefix_bound is None:
            raise ValueError("notation %r needs a prefix bound" % text)
        if text in _KEYWORD_APS:
            a, d = _KEYWORD_APS[text]
        else:
            m = re.fullmatch(r"ap:(\d+),(\d+)", text)
            if not m:
                raise ValueError("bad arithmetic-progression notation %r" % text)
            a, d = (parse_integer(x, "ap term") for x in m.groups())
            if a < 1 or d < 1:
                raise ValueError("ap start and difference must be >= 1")
        _check_set_size(len(range(a, prefix_bound + 1, d)))
        return VertexSet(np.arange(a, prefix_bound + 1, d), prefix_bound)
    return parse_runs(text, prefix_bound)
