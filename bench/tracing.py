"""Per-layer tracing of radolab from outside the package.

``Tracer.install()`` replaces the public functions of every radolab module
(and the public methods of ``EdgeOracle`` and ``VertexSet``) with timing
wrappers, then rebinds every module attribute that still points at an
original function.  The rebinding is what catches the names that ``cli``,
``audit``, ``mc``, ``constructions`` and the package ``__init__`` imported
with ``from ... import``.  ``uninstall()`` puts the originals back.  Nothing
under ``src/`` is edited.

Attribution: a wrapped call's self time is its wall time minus the wall
time of the wrapped calls made inside it.  Private helpers and unwrapped
methods (``FiniteGraph``, ``TypeSpec``, report dataclasses) are not
wrapped, so their time counts toward the public function that called them.
The SplitMix64 primitives ``mix64`` and ``rotl64`` run once or twice per
scalar edge; wrapping them would cost more than the work they do, so they
count toward their caller too.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("oracle", "sets", "graphs", "largeness", "embed", "audit", "constructions", "mc", "cli")
_UNWRAPPED = {("oracle", "mix64"), ("oracle", "rotl64")}
_EDGE_METHODS = ("edge", "edge_many", "edge_pairs", "edge_grid")
_SET_METHODS = ("__init__", "from_iterable", "interval", "empty", "count_upto", "minus", "union", "restrict")
_EXHAUSTED = ("PrefixExhausted", "TypeClassEmpty", "ForcingFailed")


class _Record:
    __slots__ = ("layer", "name", "calls", "self_s", "incl_s", "depth")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.depth = 0


def _edge_pairs_of(name: str, args: tuple) -> int:
    """Vertex pairs an EdgeOracle method evaluates, from its argument sizes."""
    if name == "edge":
        return 1
    if name == "edge_grid":
        return len(args[0]) * len(args[1])
    return len(args[1])  # edge_many(u, vs) and edge_pairs(us, vs)


class Tracer:
    """Wraps radolab's public functions and accumulates per-layer spans."""

    def __init__(self):
        self.records: dict[tuple[str, str], _Record] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []
        self._edge_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- accounting -------------------------------------------------------

    def reset(self) -> None:
        for rec in self.records.values():
            rec.calls = 0
            rec.self_s = rec.incl_s = 0.0
        self.counts.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, layer: str, name: str, fn, on_return=None, on_raise=None):
        rec = self.records.setdefault((layer, name), _Record(layer, name))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            rec.depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, t0)
                if on_raise is not None:
                    on_raise(exc, args, kwargs)
                raise
            self._close(rec, t0)
            if on_return is not None:
                on_return(out, args, kwargs)
            return out

        return wrapper

    def _close(self, rec: _Record, t0: float) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        rec.depth -= 1
        rec.calls += 1
        rec.self_s += dt - child
        if rec.depth == 0:
            rec.incl_s += dt
        if self._stack:
            self._stack[-1] += dt

    def _wrap_edge_method(self, name: str, fn):
        timed = self._wrap("oracle", "EdgeOracle." + name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # edge_many calls edge_pairs: count pairs at the outermost call only
            if self._edge_depth == 0:
                self.count("oracle.edge_evals", _edge_pairs_of(name, args[1:]))
                if name == "edge":
                    self.count("oracle.scalar_calls")
            self._edge_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._edge_depth -= 1

        return wrapper

    def _hooks(self, layer: str, name: str):
        """Counters read from a call's arguments, result or exception."""
        on_return = on_raise = None
        if layer == "audit" and name == "contains_induced":
            on_return = lambda out, a, k: self.count("audit.search_nodes", out.nodes)
        elif layer == "graphs" and name == "canonical_form":
            on_return = lambda out, a, k: self.count("graphs.canonical_forms")
        elif layer == "largeness" and name == "pi02_force":
            on_return = lambda out, a, k: self.count("largeness.force_calls")
        elif layer == "mc" and name in ("mc_density_star", "mc_gfree_probability"):
            on_return = lambda out, a, k: self.count("mc.trials", out["trials"])
        elif layer == "mc" and name == "mc_fn_bound":
            on_return = lambda out, a, k: self.count(
                "mc.trials", _arg(a, k, 3, "trials") * sum(r["mode"] != "degenerate" for r in out)
            )
        elif layer == "embed" and name == "embed_target":
            on_raise = lambda exc, a, k: type(exc).__name__ == "DeadEnd" and self.count("embed.dead_ends")
        elif layer == "constructions":
            on_raise = lambda exc, a, k: type(exc).__name__ in _EXHAUSTED and self.count("constructions.exhausted")
        return on_return, on_raise

    def _wrap_gfree(self, fn):
        exact = self._wrap("audit", "max_gfree_subset[exact]", fn)
        greedy = self._wrap("audit", "max_gfree_subset[greedy]", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mode = _arg(args, kwargs, 3, "mode", "exact")
            return (greedy if mode == "greedy" else exact)(*args, **kwargs)

        return wrapper

    def _wrap_set_init(self, fn):
        timed = self._wrap("sets", "VertexSet.__init__", fn)

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            self.count("sets.elements_built", len(_arg(args, kwargs, 0, "elements")))
            return timed(self_, *args, **kwargs)

        return wrapper

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer and rebind the names other modules imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules["radolab." + layer] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer, name) in _UNWRAPPED or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if (layer, name) == ("audit", "max_gfree_subset"):
                    wrapper = self._wrap_gfree(obj)
                else:
                    wrapper = self._wrap(layer, name, obj, *self._hooks(layer, name))
                replaced[id(obj)] = wrapper
        oracle_cls = modules["oracle"].EdgeOracle
        for name in _EDGE_METHODS:
            self._patch(oracle_cls, name, self._wrap_edge_method(name, vars(oracle_cls)[name]))
        set_cls = modules["sets"].VertexSet
        for name in _SET_METHODS:
            raw = vars(set_cls)[name]
            if name == "__init__":
                self._patch(set_cls, name, self._wrap_set_init(raw))
            elif isinstance(raw, classmethod):
                self._patch(set_cls, name, classmethod(self._wrap("sets", "VertexSet." + name, raw.__func__)))
            else:
                self._patch(set_cls, name, self._wrap("sets", "VertexSet." + name, raw))
        for mod in [m for key, m in sys.modules.items() if key == "radolab" or key.startswith("radolab.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    self._patch(mod, name, replaced[id(obj)])

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- report -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Layer totals recorded so far: counters, self time and calls per
        layer, and the inclusive times the layer metrics are built from."""
        out = dict(self.counts)
        for layer in LAYERS:
            recs = [r for r in self.records.values() if r.layer == layer]
            out[layer + ".self_s"] = sum(r.self_s for r in recs)
            out[layer + ".calls"] = sum(r.calls for r in recs)
        out["oracle.kernel_s"] = sum(r.self_s for r in self.records.values() if r.name.startswith("EdgeOracle."))
        out["cli.handlers_s"] = sum(r.incl_s for r in self.records.values() if r.layer == "cli" and r.name.startswith("cmd_"))
        for key, (layer, name) in _INCLUSIVE.items():
            rec = self.records.get((layer, name))
            out[key] = rec.incl_s if rec else 0.0
        return out


_INCLUSIVE = {
    "embed.verify_s": ("embed", "verify_embedding"),
    "audit.contains_s": ("audit", "contains_induced"),
    "audit.exact_s": ("audit", "max_gfree_subset[exact]"),
    "audit.greedy_s": ("audit", "max_gfree_subset[greedy]"),
    "graphs.catalog_s": ("graphs", "enumerate_unlabeled"),
    "cli.main_s": ("cli", "main"),
    "cli.emit_s": ("cli", "emit"),
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)
