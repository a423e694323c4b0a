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
from .oracle import EdgeOracle, GiveUp, TypeSpec, VerificationError
from .sets import Report, VertexSet


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
class StepRecord(Report):
    index: int
    required_type: str
    chosen: int
    score: int


@dataclass(frozen=True)
class Embedding(Report):
    images: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    verified: bool


class DeadEnd(GiveUp):
    """No host vertex of the required type remains at some step."""

    def __init__(self, step: int, required: TypeSpec, pool_remaining: int):
        super().__init__(
            "dead end at step %d: no vertex of type %s among %d remaining"
            % (step, required.bits or "<empty>", pool_remaining)
        )
        self.step = step
        self.required = required
        self.pool_remaining = pool_remaining
        self.record = {
            "error": "dead end", "step": step, "required_type": required.bits, "pool_remaining": pool_remaining
        }


def required_type(target: FiniteGraph, placed: tuple[int, ...]) -> TypeSpec:
    """The type over the placed images that the next image must realize."""
    if len(placed) >= target.order:
        raise ValueError("target has no vertex %d" % (len(placed) + 1))
    return TypeSpec(placed, target.rows[len(placed)] & ((1 << len(placed)) - 1))


def verify_embedding(oracle: EdgeOracle, target: FiniteGraph, images: tuple[int, ...]) -> None:
    """Hard re-verification of an embedding from raw oracle queries."""
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if oracle.edge(images[i], images[j]) != target.has_edge(i, j):
                raise VerificationError(
                    "embedding verification failed on pair (%d, %d)" % (images[i], images[j])
                )


def embed_target(
    oracle: EdgeOracle,
    target: FiniteGraph,
    host: VertexSet,
    cfg: EmbedConfig = EmbedConfig(),
) -> Embedding:
    """Embed the target into the host, verifying every pair before returning.

    Deterministic: among required-type candidates the first candidate_cap
    (ascending) are scored, the maximum score wins, and ties go to the
    smallest vertex.  A candidate is scored on the available vertices other
    than itself, or on the first score_horizon of them.  With fail_fast off,
    a dead end retries the next-best candidate one step up, at most
    candidate_cap times.
    """
    if target.order > 0 and len(host) == 0:
        raise ValueError("host must be nonempty for a positive-order target")
    pool = host.as_array
    alive = np.ones(len(pool), dtype=bool)
    # bits[:, i] = adjacency of every host vertex to the i-th placed image
    bits = np.zeros((len(pool), 0), dtype=bool)
    placed: list[int] = []
    records: list[StepRecord] = []

    def rank_candidates() -> list[tuple[int, int]]:
        """(vertex, score) of the capped candidates of the next required type, best first."""
        n_placed = len(placed)
        want = target.matrix[n_placed, :n_placed]
        cands = pool[alive & (bits == want).all(axis=1)][: cfg.candidate_cap]
        # one vertex beyond the horizon stands in for a candidate outside it
        scoring_pool = pool[alive]
        if cfg.score_horizon is not None:
            scoring_pool = scoring_pool[: cfg.score_horizon + 1]
        n = n_placed + 1
        if (1 << n) >= len(scoring_pool):
            # pigeonhole: every candidate starves some class within the pool
            return [(int(c), 0) for c in cands]
        base_keys = bits[alive][: len(scoring_pool)] @ (1 << np.arange(n_placed))
        at = np.minimum(np.searchsorted(scoring_pool, cands), len(scoring_pool) - 1)
        scores = np.zeros(len(cands), dtype=np.int64)
        for r, row in enumerate(oracle.edge_grid(cands, scoring_pool)):
            # the type keys over placed + [cands[r]], the candidate's bit on top
            keys = base_keys | row.astype(np.int64) << n_placed
            counts = np.bincount(keys, minlength=1 << n)
            counts[keys[at[r]]] -= 1
            scores[r] = counts.min()
        order = np.argsort(-scores, kind="stable")
        return list(zip(cands[order].tolist(), scores[order].tolist()))

    def place(vertex: int, score: int, req: TypeSpec) -> None:
        nonlocal bits
        bits = np.column_stack((bits, oracle.edge_grid([vertex], pool)[0]))
        placed.append(vertex)
        alive[np.searchsorted(pool, vertex)] = False
        records.append(StepRecord(len(placed), req.bits, vertex, score))

    # the last placed step's untried candidates and its required type
    alternatives, last_req = iter(()), None
    while len(placed) < target.order:
        req = required_type(target, tuple(placed))
        ranked = rank_candidates()
        if ranked:
            alternatives, last_req = iter(ranked[1:]), req
            place(*ranked[0], req)
            continue
        retry = None if cfg.fail_fast else next(alternatives, None)
        if retry is None:
            raise DeadEnd(len(placed) + 1, req, int(alive.sum()))
        # depth-1 backtrack: replace the previous image by its next-best candidate
        alive[np.searchsorted(pool, placed.pop())] = True
        records.pop()
        bits = bits[:, :-1]
        place(*retry, last_req)

    images = tuple(placed)
    verify_embedding(oracle, target, images)
    return Embedding(images=images, steps=tuple(records), verified=True)
