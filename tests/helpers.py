"""Shared test utilities: a numpy-backed linear-scan twin of the execution
log, random local-neighborhood generators, and small statistical helpers."""

from __future__ import annotations

import math

import numpy as np

from dyngibbs.mrf import LocalView, NEG_INF


class LinearLog:
    """Array twin of ExecutionLog: plain lists plus numpy scans per query.

    Deliberately structure-free so it cannot share a bug with the real thing.
    """

    def __init__(self, initial):
        self.initial = dict(initial)
        self.verts: list[int] = []
        self.spins: list[int] = []

    @property
    def length(self):
        return len(self.verts)

    def insert(self, t, v, c):
        self.verts.insert(t - 1, v)
        self.spins.insert(t - 1, c)

    def remove(self, t):
        del self.verts[t - 1]
        del self.spins[t - 1]

    def change(self, t, c):
        self.spins[t - 1] = c

    def at(self, t):
        return self.verts[t - 1], self.spins[t - 1]

    def evaluate(self, t, v):
        if t:
            hits = np.nonzero(np.asarray(self.verts[:t]) == v)[0]
            if len(hits):
                return self.spins[hits[-1]]
        return self.initial[v]

    def successor(self, t, v):
        tail = np.nonzero(np.asarray(self.verts[t:]) == v)[0]
        return int(tail[0]) + t + 1 if len(tail) else None

    def steps_of(self, v):
        return tuple(int(i) + 1 for i in np.nonzero(np.asarray(self.verts) == v)[0])

    def final_config(self):
        out = dict(self.initial)
        for v, c in zip(self.verts, self.spins):
            out[v] = c
        return out


def random_local_pair(rng, q=None, deg=None, hardcore_bias=0.15):
    """A (old, new) LocalView pair at the same site, occasionally with
    blocked entries shaped like occupancy exclusion so zero-probability
    corners get exercised too."""
    q = q if q is not None else rng.choice([2, 3])
    deg = deg if deg is not None else rng.randrange(0, 4)
    nbrs = tuple(range(1, deg + 1))

    def vert():
        return tuple(rng.uniform(-2.0, 2.0) for _ in range(q))

    def mat(blocked):
        m = [[0.0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                m[a][b] = m[b][a] = rng.uniform(-1.5, 1.5)
        if blocked and q >= 2:
            m[q - 1][q - 1] = NEG_INF
        return tuple(tuple(row) for row in m)

    def view():
        blocked = rng.random() < hardcore_bias
        phi = vert()
        if blocked:
            # spin 0 stays finite so every boundary keeps a feasible spin
            phi = (0.0,) + phi[1:]
        return LocalView(0, q, phi, nbrs, {u: mat(blocked) for u in nbrs})

    return view(), view()


def all_boundaries(q, nbrs):
    from itertools import product

    for spins in product(range(q), repeat=len(nbrs)):
        yield dict(zip(nbrs, spins))


def tv(counts_a, counts_b):
    na, nb = sum(counts_a), sum(counts_b)
    return 0.5 * sum(abs(a / na - b / nb) for a, b in zip(counts_a, counts_b))


def chi2_two_sample(counts_a, counts_b):
    """Two-sample chi-square p-value on pooled cells; sparse cells merged."""
    from scipy.stats import chi2

    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    keep = (a + b) >= 10
    if not np.all(keep):
        a = np.append(a[keep], a[~keep].sum())
        b = np.append(b[keep], b[~keep].sum())
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    live = pooled > 0
    a, b, pooled = a[live], b[live], pooled[live]
    stat = float(np.sum((a - na * pooled) ** 2 / (na * pooled))
                 + np.sum((b - nb * pooled) ** 2 / (nb * pooled)))
    dof = len(pooled) - 1
    if dof <= 0:
        return 1.0
    return float(chi2.sf(stat, dof))


def config_code(config, ids, q):
    code = 0
    for v in reversed(ids):
        code = code * q + config[v]
    return code


def exact_final_law(inst, T):
    """Distribution of the chain state after exactly T steps from the
    edge-free start, by dense transition-matrix power. Only for q^n <= a
    few hundred."""
    from dyngibbs.mrf import local_restriction
    from dyngibbs.oracle import decode_config, encode_config, initial_config

    ids = inst.vertex_ids()
    q = inst.q
    K = q ** len(ids)
    P = np.zeros((K, K))
    views = {v: local_restriction(inst, v) for v in ids}
    for code in range(K):
        cfg = decode_config(ids, q, code)
        for v in ids:
            view = views[v]
            mu = view.conditional({u: cfg[u] for u in view.neighbors})
            for c in range(q):
                cfg2 = dict(cfg)
                cfg2[v] = c
                P[code, encode_config(ids, q, cfg2)] += mu[c] / len(ids)
    start = np.zeros(K)
    start[encode_config(ids, q, initial_config(inst))] = 1.0
    return start @ np.linalg.matrix_power(P, T)
