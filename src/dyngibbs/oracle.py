"""Brute-force ground truth for tests: exact Gibbs law, TV, marginals, and a
naive reference simulator. Everything here is guarded to desk scale.

The simulator starts from ``initial_config``, the engine's edge-free start
rule written out again, so the two stay independent twins."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleInstance, SpaceMismatch, TooLarge
from .mrf import NEG_INF, MrfInstance
from .rng import categorical, make_stream, uniform_index

_GUARD = 10**6


def encode_config(ids: Sequence[int], q: int, config: Mapping[int, int]) -> int:
    """Base-q code of a configuration; digit j is the spin of the j-th
    smallest vertex id (little-endian)."""
    code = 0
    for j, v in enumerate(ids):
        code += config[v] * q**j
    return code


def decode_config(ids: Sequence[int], q: int, code: int) -> dict[int, int]:
    out = {}
    for v in ids:
        out[v] = code % q
        code //= q
    return out


@dataclass(frozen=True)
class ExactDistribution:
    """Gibbs law as a sparse map from configuration code to probability."""

    ids: tuple[int, ...]
    q: int
    probs: dict[int, float]

    def prob(self, config: Mapping[int, int]) -> float:
        return self.probs.get(encode_config(self.ids, self.q, config), 0.0)


def exact_gibbs(inst: MrfInstance) -> ExactDistribution:
    """Enumerate Q^V and normalize exp(H) in log-space; q^n capped at 10^6."""
    q, ids = inst.q, inst.vertex_ids()
    n = len(ids)
    size = q**n
    if size > _GUARD:
        raise TooLarge(f"q^n = {size} exceeds {_GUARD}")
    codes = np.arange(size, dtype=np.int64)
    spins: dict[int, np.ndarray] = {}
    for j, v in enumerate(ids):
        spins[v] = ((codes // q**j) % q).astype(np.int8)
    logw = np.zeros(size, dtype=np.float64)
    for v in ids:
        logw += np.asarray(inst.vertex_potential(v).weights)[spins[v]]
    for u, v in inst.edge_keys():
        mat = np.asarray(inst.edge_potential(u, v).weights)
        logw += mat[spins[u], spins[v]]
    m = logw.max()
    if m == NEG_INF:
        raise InfeasibleInstance("every configuration has zero weight")
    w = np.exp(logw - m)
    w /= w.sum()
    support = np.flatnonzero(w)
    return ExactDistribution(ids, q, {int(i): float(w[i]) for i in support})


def exact_tv(p: ExactDistribution, r: ExactDistribution) -> float:
    if p.ids != r.ids or p.q != r.q:
        raise SpaceMismatch(f"({p.ids}, q={p.q}) vs ({r.ids}, q={r.q})")
    keys = p.probs.keys() | r.probs.keys()
    return 0.5 * sum(abs(p.probs.get(k, 0.0) - r.probs.get(k, 0.0)) for k in keys)


def exact_marginal(dist: ExactDistribution, subset: Sequence[int]) -> list[float]:
    """Marginal law over the subset, indexed by the same base-q encoding
    restricted to the subset's ascending ids."""
    sub = tuple(sorted(subset))
    if not set(sub) <= set(dist.ids):
        raise SpaceMismatch(f"{subset} not within {dist.ids}")
    q = dist.q
    out = [0.0] * q ** len(sub)
    for code, prob in dist.probs.items():
        full = decode_config(dist.ids, q, code)
        out[encode_config(sub, q, full)] += prob
    return out


def initial_config(inst: MrfInstance) -> dict[int, int]:
    """The start of every chain: each vertex at the lowest spin of positive
    weight under its own potential. Edges are not consulted, so the start
    may be improper (a colouring starts at colour 0 everywhere)."""
    config: dict[int, int] = {}
    for v in inst.vertex_ids():
        allowed = [c for c, w in enumerate(inst.vertex_potential(v).weights)
                   if w != NEG_INF]
        if not allowed:
            raise InfeasibleInstance(f"vertex {v}: no spin of positive weight")
        config[v] = min(allowed)
    return config


def reference_chain(
    inst: MrfInstance, T: int, seed: int, stream: int = 0
) -> dict[int, int]:
    """Plain dict-based Gibbs run; bit-exact twin of the engine's sampler.

    Starts from ``initial_config``, the edge-free start the engine uses.
    Per step: one uniform picks the vertex (ascending-id order), one uniform
    picks the spin by inverse CDF over the conditional weights.
    """
    rng = make_stream(seed, stream)
    ids = inst.vertex_ids()
    config = initial_config(inst)
    q = inst.q
    for _ in range(T):
        v = ids[uniform_index(len(ids), rng.random())]
        scores = list(inst.vertex_potential(v).weights)
        for u in inst.neighbors(v):
            row = inst.edge_potential(u, v).weights[config[u]]
            for c in range(q):
                scores[c] += row[c]
        m = max(scores)
        if m == NEG_INF:
            raise InfeasibleInstance(f"vertex {v}: no feasible spin mid-run")
        weights = [math.exp(s - m) for s in scores]
        config[v] = categorical(weights, rng.random())
    return config
