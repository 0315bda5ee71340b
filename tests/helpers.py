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


def exact_log_law(inst, T):
    """Law of the whole log of a T-step run from the edge-free start, as a
    map from (X0, steps) to its probability: X0 as sorted (vertex, spin)
    pairs, steps as the T (vertex, spin) transitions. Each step picks one of
    the n vertices with probability 1/n and its spin from the conditional
    under the current boundary. Only for (n q)^T up to a few thousand."""
    from dyngibbs.mrf import local_restriction
    from dyngibbs.oracle import initial_config

    ids = inst.vertex_ids()
    views = {v: local_restriction(inst, v) for v in ids}
    x0 = initial_config(inst)
    start = tuple(sorted(x0.items()))
    law = {}

    def walk(cfg, steps, prob):
        if len(steps) == T:
            law[(start, steps)] = prob
            return
        for v in ids:
            view = views[v]
            mu = view.conditional({u: cfg[u] for u in view.neighbors})
            for c, m in enumerate(mu):
                if m > 0.0:
                    walk({**cfg, v: c}, steps + ((v, c),), prob * m / len(ids))

    walk(x0, (), 1.0)
    return law


def chi2_goodness_of_fit(counts, law):
    """Chi-square p-value of observed counts (a map from outcome to count)
    against an exact law (a map from outcome to probability). Cells under 5
    expected are merged into one; an outcome outside the law's support
    gives 0."""
    from scipy.stats import chi2

    if any(k not in law for k in counts):
        return 0.0
    total = sum(counts.values())
    obs, exp = [], []
    rest_obs = rest_exp = 0.0
    for k, p in law.items():
        e = p * total
        if e < 5.0:
            rest_obs += counts.get(k, 0)
            rest_exp += e
        else:
            obs.append(counts.get(k, 0))
            exp.append(e)
    if rest_exp > 0.0:
        if rest_exp < 5.0 and exp:
            # Too small on its own: fold it into the smallest kept cell.
            i = exp.index(min(exp))
            obs[i] += rest_obs
            exp[i] += rest_exp
        else:
            obs.append(rest_obs)
            exp.append(rest_exp)
    obs, exp = np.asarray(obs, dtype=float), np.asarray(exp, dtype=float)
    dof = len(exp) - 1
    if dof <= 0:
        return 1.0
    return float(chi2.sf(np.sum((obs - exp) ** 2 / exp), dof))
