"""Static Gibbs sampling into an execution log, plus length adjustment.

The per-step randomness contract, shared with the reference simulator and the
dynamic updater: one uniform picks the vertex (uniform over ascending ids),
one uniform picks the spin (inverse CDF over the conditional weights). A chain
is fully determined by (instance, seed, stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GraphMismatch, InfeasibleInstance
from .execlog import ExecutionLog
from .mrf import NEG_INF, MrfInstance, _CompiledInstance
from .rng import categorical, make_stream, uniform_index


@dataclass(frozen=True)
class ChainParams:
    """Sampling controls: Dobrushin gap delta, accuracy family eps_fn, seed.

    length_override pins the chain length directly (tests and benchmarks);
    otherwise mixing_length derives it from (n, delta, eps_fn).
    """

    delta: float
    eps_fn: Callable[[int], float]
    seed: int
    length_override: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0,1], got {self.delta}")
        if self.length_override is not None and self.length_override < 1:
            raise ValueError(f"length_override must be positive, got {self.length_override}")


def mixing_length(n: int, params: ChainParams) -> int:
    """ceil((n/delta) * ln(n/eps(n))), or the override when present."""
    if params.length_override is not None:
        return params.length_override
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    eps = params.eps_fn(n)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps_fn({n}) = {eps} outside (0,1)")
    return math.ceil((n / params.delta) * math.log(n / eps))


def _greedy_initial_dense(comp: _CompiledInstance) -> list[int]:
    # Ascending-id scan; earlier-indexed neighbors are already assigned.
    cfg = [0] * len(comp.ids)
    for j in range(len(comp.ids)):
        chosen = -1
        for c in range(comp.q):
            if comp.phis[j][c] == NEG_INF:
                continue
            ok = True
            for u_pos, mat in zip(comp.nbr_idx[j], comp.mats[j]):
                if u_pos < j and mat[cfg[u_pos]][c] == NEG_INF:
                    ok = False
                    break
            if ok:
                chosen = c
                break
        if chosen < 0:
            raise InfeasibleInstance(f"no feasible start at vertex {comp.ids[j]}")
        cfg[j] = chosen
    return cfg


def _advance(
    comp: _CompiledInstance,
    cfg: list[int],
    steps: int,
    rng: np.random.Generator,
    verts: list[int],
    spins: list[int],
) -> None:
    """Apply `steps` Gibbs transitions to cfg in place, recording them."""
    rand = rng.random
    ids = comp.ids
    n = len(ids)
    q = comp.q
    phis, nbr, mats = comp.phis, comp.nbr_idx, comp.mats
    exp = math.exp
    qrange = range(q)
    for _ in range(steps):
        j = uniform_index(n, rand())
        scores = phis[j][:]
        for u_pos, mat in zip(nbr[j], mats[j]):
            row = mat[cfg[u_pos]]
            for c in qrange:
                scores[c] += row[c]
        m = max(scores)
        if m == NEG_INF:
            raise InfeasibleInstance(f"vertex {ids[j]}: every spin excluded")
        c = categorical([exp(s - m) for s in scores], rand())
        cfg[j] = c
        verts.append(ids[j])
        spins.append(c)


def fresh_run(
    inst: MrfInstance, T: int, rng: np.random.Generator
) -> tuple[dict[int, int], list[int], list[int]]:
    """A fresh T-step chain for the instance: its initial configuration and
    its vertex and spin columns.

    X0 is the greedy feasible assignment (all-unoccupied for the occupancy
    model, since the empty spin is always compatible).
    """
    comp = inst.compiled()
    cfg = _greedy_initial_dense(comp)
    initial = dict(zip(comp.ids, cfg))
    verts: list[int] = []
    spins: list[int] = []
    _advance(comp, cfg, T, rng, verts, spins)
    return initial, verts, spins


def run_chain(inst: MrfInstance, params: ChainParams, stream: int = 0) -> ExecutionLog:
    """Generate a fresh chain of the mixing length on the stream's draws."""
    T = mixing_length(inst.n, params)
    return ExecutionLog.from_run(*fresh_run(inst, T, make_stream(params.seed, stream)))


def length_fix(
    inst: MrfInstance, log: ExecutionLog, new_T: int, rng: np.random.Generator
) -> None:
    """Truncate or extend the log in place to exactly new_T transitions.

    Truncation drops the tail; extension continues the chain from its final
    configuration with fresh draws from rng.
    """
    if new_T < 0:
        raise ValueError(f"new_T must be nonnegative, got {new_T}")
    if set(log.vertex_ids()) != set(inst.vertex_ids()):
        raise GraphMismatch("log vertex set differs from instance vertex set")
    cur = log.length
    if new_T < cur:
        for t in range(cur, new_T, -1):
            log.remove(t)
        return
    if new_T == cur:
        return
    comp = inst.compiled()
    final = log.final_config()
    cfg = [final[v] for v in comp.ids]
    verts: list[int] = []
    spins: list[int] = []
    _advance(comp, cfg, new_T - cur, rng, verts, spins)
    for v, c in zip(verts, spins):
        log.insert(log.length + 1, v, c)
