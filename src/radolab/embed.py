"""Greedy type-based embedding of a finite target graph into a host set.

Vertices are placed one at a time.  Each step needs a host vertex whose
type over the placed images matches the target's adjacency pattern for
the next vertex; among such candidates the one keeping every type class
largest (max of the minimum class count) wins, so that all future
patterns stay realizable for as long as possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import FiniteGraph
from .oracle import EdgeOracle, TypeSpec, VerificationError
from .sets import VertexSet


@dataclass(frozen=True)
class EmbedConfig:
    candidate_cap: int = 64
    score_horizon: int | None = None  # None = full host
    fail_fast: bool = True

    def __post_init__(self):
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be >= 1")
        if self.score_horizon is not None and self.score_horizon < 1:
            raise ValueError("score_horizon must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    index: int
    required_type: str
    chosen: int
    score: int

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "required_type": self.required_type,
            "chosen": self.chosen,
            "score": self.score,
        }


@dataclass(frozen=True)
class Embedding:
    target: FiniteGraph
    images: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    verified: bool

    def to_json(self) -> dict:
        return {
            "images": list(self.images),
            "verified": self.verified,
            "steps": [s.to_json() for s in self.steps],
        }


class DeadEnd(RuntimeError):
    """No host vertex of the required type remains at some step."""

    def __init__(self, step: int, required: TypeSpec, pool_remaining: int):
        super().__init__(
            "dead end at step %d: no vertex of type %s among %d remaining"
            % (step, required.bits or "<empty>", pool_remaining)
        )
        self.step = step
        self.required = required
        self.pool_remaining = pool_remaining


def required_type(target: FiniteGraph, placed: tuple[int, ...], next_index: int) -> TypeSpec:
    """The type over the placed images that the next image must realize."""
    if next_index != len(placed) + 1:
        raise ValueError("next_index must be one past the placed vertices")
    if next_index > target.order:
        raise ValueError("target has no vertex %d" % next_index)
    mask = 0
    for i in range(len(placed)):
        if target.has_edge(next_index - 1, i):
            mask |= 1 << i
    return TypeSpec(placed, mask)


def verify_embedding(oracle: EdgeOracle, target: FiniteGraph, images: tuple[int, ...]) -> None:
    """Hard re-verification of an embedding from raw oracle queries."""
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if oracle.edge(images[i], images[j]) != target.has_edge(i, j):
                raise VerificationError(
                    "embedding verification failed on pair (%d, %d)" % (images[i], images[j])
                )


class _Step:
    """Mutable search state for one placement step."""

    __slots__ = ("ranked", "next_rank", "required")

    def __init__(self, ranked: list[tuple[int, int]], required: TypeSpec):
        self.ranked = ranked  # (vertex, score), best first
        self.next_rank = 0
        self.required = required


def embed_target(
    oracle: EdgeOracle,
    target: FiniteGraph,
    host: VertexSet,
    cfg: EmbedConfig = EmbedConfig(),
) -> Embedding:
    """Embed the target into the host, verifying every pair before returning.

    Deterministic: among required-type candidates the first candidate_cap
    (ascending) are scored, the maximum score wins, and ties go to the
    smallest vertex.  With fail_fast off, a dead end retries the next-best
    candidate one step up, at most candidate_cap times.
    """
    if target.order > 0 and len(host) == 0:
        raise ValueError("host must be nonempty for a positive-order target")
    pool = host.as_array
    npool = len(pool)
    alive = np.ones(npool, dtype=bool)
    # bits[:, i] = adjacency of every host vertex to the i-th placed image
    bits = np.zeros((npool, target.order), dtype=bool)
    placed: list[int] = []
    steps: list[_Step] = []
    records: list[StepRecord] = []

    def rank_candidates(step_index: int) -> tuple[TypeSpec, list[tuple[int, int]]]:
        req = required_type(target, tuple(placed), step_index)
        n_placed = len(placed)
        cand_mask = alive.copy()
        for i in range(n_placed):
            want = bool(req.mask >> i & 1)
            cand_mask &= bits[:, i] == want
        cands = pool[cand_mask][: cfg.candidate_cap]
        if len(cands) == 0:
            return req, []
        n = n_placed + 1
        scoring_pool_mask = alive
        scoring_pool = pool[scoring_pool_mask]
        if cfg.score_horizon is not None:
            scoring_pool = scoring_pool[: cfg.score_horizon]
        if (1 << n) > len(scoring_pool):
            # pigeonhole: every candidate starves some class within the pool
            return req, [(int(c), 0) for c in cands]
        base_keys = np.zeros(len(scoring_pool), dtype=np.int64)
        for i in range(n_placed):
            col = bits[scoring_pool_mask, i]
            if cfg.score_horizon is not None:
                col = col[: cfg.score_horizon]
            base_keys |= col.astype(np.int64) << i
        # one grid call covers every (candidate, pool vertex) pair
        ext_bits = oracle.edge_grid(cands, scoring_pool)
        scored: list[tuple[int, int]] = []
        for ci, c in enumerate(cands):
            not_self = scoring_pool != c
            ext = base_keys[not_self] | (ext_bits[ci, not_self].astype(np.int64) << n_placed)
            score = int(np.bincount(ext, minlength=1 << n).min())
            scored.append((int(c), score))
        scored.sort(key=lambda vs: (-vs[1], vs[0]))
        return req, scored

    def place(vertex: int) -> None:
        i = len(placed)
        placed.append(vertex)
        alive[np.searchsorted(pool, vertex)] = False
        bits[:, i] = oracle.edge_grid([vertex], pool)[0]

    def unplace() -> None:
        vertex = placed.pop()
        alive[np.searchsorted(pool, vertex)] = True
        records.pop()

    while len(placed) < target.order:
        step_index = len(placed) + 1
        req, ranked = rank_candidates(step_index)
        if ranked:
            steps.append(_Step(ranked, req))
            v, score = ranked[0]
            steps[-1].next_rank = 1
            place(v)
            records.append(StepRecord(step_index, req.bits, v, score))
            continue
        # dead end at step_index
        dead = DeadEnd(step_index, req, int(alive.sum()))
        if cfg.fail_fast or len(steps) == 0:
            raise dead
        # depth-1 backtrack: advance the previous step to its next candidate
        prev = steps[-1]
        if prev.next_rank >= min(len(prev.ranked), cfg.candidate_cap):
            raise dead
        unplace()
        v, score = prev.ranked[prev.next_rank]
        prev.next_rank += 1
        place(v)
        records.append(StepRecord(len(placed), prev.required.bits, v, score))

    images = tuple(placed)
    verify_embedding(oracle, target, images)
    return Embedding(target=target, images=images, steps=tuple(records), verified=True)
