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
from .mrf import NEG_INF, MrfInstance, local_restriction, start_spin
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


def _advance(
    inst: MrfInstance,
    cfg: dict[int, int],
    steps: int,
    rng: np.random.Generator,
    verts: list[int],
    spins: list[int],
) -> None:
    """Apply `steps` Gibbs transitions to cfg (vertex id -> spin) in place,
    recording them. Each step reads only the local view of the vertex it
    picks, so a short extension costs its steps, not the instance's size."""
    rand = rng.random
    ids = inst.vertex_ids()
    n = len(ids)
    qrange = range(inst.q)
    exp = math.exp
    for _ in range(steps):
        v = ids[uniform_index(n, rand())]
        view = local_restriction(inst, v)
        scores = list(view.phi)
        # edge_phi is keyed in neighbour order: the sums run as in conditional.
        for u, mat in view.edge_phi.items():
            row = mat[cfg[u]]
            for c in qrange:
                scores[c] += row[c]
        m = max(scores)
        if m == NEG_INF:
            raise InfeasibleInstance(f"vertex {v}: every spin excluded")
        c = categorical([exp(s - m) for s in scores], rand())
        cfg[v] = c
        verts.append(v)
        spins.append(c)


def fresh_run(
    inst: MrfInstance, T: int, rng: np.random.Generator
) -> tuple[dict[int, int], list[int], list[int]]:
    """A fresh T-step chain for the instance: its initial configuration and
    its vertex and spin columns.

    X0 puts every vertex at the first spin its own potential allows
    (``mrf.start_spin``), whatever the edges, so an edge edit never moves
    it: all zeros for the two-spin and occupancy models, colour 0 everywhere
    for a colouring. A chain too short to visit every vertex can therefore
    end improper; at the mixing length the chance is at most
    n (eps/n)^(1/delta) <= eps, inside the promised accuracy, and fresh and
    updated logs share the law.
    """
    initial = {v: start_spin(inst.vertex_potential(v).weights)
               for v in inst.vertex_ids()}
    verts: list[int] = []
    spins: list[int] = []
    _advance(inst, dict(initial), T, rng, verts, spins)
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
    if log.vertex_ids() != inst.vertex_ids():
        raise GraphMismatch("log vertex set differs from instance vertex set")
    cur = log.length
    if new_T < cur:
        for t in range(cur, new_T, -1):
            log.remove(t)
        return
    if new_T == cur:
        return
    verts: list[int] = []
    spins: list[int] = []
    _advance(inst, log.final_config(), new_T - cur, rng, verts, spins)
    for v, c in zip(verts, spins):
        log.insert(log.length + 1, v, c)
