"""Seeded workload generator for the dyngibbs benchmark.

Every workload is written in the command line's own formats (instance JSON,
updates JSONL, queries JSON), so `dyngibbs run` can replay any benchmark run
from the files the benchmark leaves in its work directory. The same
(workload, seed, batch count) always produces byte-identical files, and a
longer stream extends a shorter one: queries, then batches, are drawn in
sequence from one `random.Random` keyed by workload name and seed.

All three workloads use the Ising or hardcore model on a ring plus a perfect
matching (the instance family of acceptance criteria 5 and 6), with the
chain length T pinned through `--length-override`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

ISING_BETA = 0.1
HARDCORE_FUGACITY = 0.2
EPS_SCHEDULE = "0.1:0:0"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "ising" or "hardcore"
    n: int
    n_schedule: str  # N part of the --schedule string, a:b:c
    T: int
    delta: str
    queries: str  # "marginal" or "mixed"
    n_queries: int

    @property
    def schedule(self) -> str:
        return f"N={self.n_schedule},eps={EPS_SCHEDULE}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="edit-n10k",
            model="ising",
            n=10_000,
            n_schedule="32:0:0",
            T=30_000,
            delta="given:1.0",
            queries="marginal",
            n_queries=8,
        ),
        Workload(
            name="replay-n1k",
            model="ising",
            n=1_000,
            n_schedule="64:0:0",
            T=30_000,
            delta="given:1.0",
            queries="mixed",
            n_queries=64,
        ),
        Workload(
            name="churn-hardcore",
            model="hardcore",
            n=2_000,
            n_schedule="0.004:1:0",
            T=20_000,
            delta="check",
            queries="marginal",
            n_queries=8,
        ),
    )
}


# ---------------------------------------------------------------------------
# Potentials in the file format ("-inf" marks a forbidden spin or pair)
# ---------------------------------------------------------------------------

def _ising_vertex(h: float) -> list:
    return [h, -h]


def _ising_edge(beta: float) -> list:
    return [[beta, -beta], [-beta, beta]]


def _hardcore_vertex() -> list:
    return [0.0, math.log(HARDCORE_FUGACITY)]


def _hardcore_edge() -> list:
    return [[0.0, 0.0], [0.0, "-inf"]]


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def ring_plus_matching(n: int) -> list[tuple[int, int]]:
    edges = [_key(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + n // 2) for i in range(n // 2)]
    return edges


def instance_doc(w: Workload) -> dict:
    if w.model == "ising":
        vphi, ephi = _ising_vertex(0.0), _ising_edge(ISING_BETA)
    else:
        vphi, ephi = _hardcore_vertex(), _hardcore_edge()
    return {
        "q": 2,
        "vertices": [{"id": v, "phi": vphi} for v in range(w.n)],
        "edges": [{"u": u, "v": v, "phi": ephi} for u, v in ring_plus_matching(w.n)],
    }


# ---------------------------------------------------------------------------
# Update streams
# ---------------------------------------------------------------------------

def _potential_ops(rng: random.Random, n: int, n_vertices: int, edge) -> list:
    ops = [
        {"op": "set_vertex_phi", "v": v, "phi": _ising_vertex(rng.uniform(-0.1, 0.1))}
        for v in rng.sample(range(n), n_vertices)
    ]
    ops.append(
        {"op": "set_edge_phi", "u": edge[0], "v": edge[1],
         "phi": _ising_edge(rng.uniform(0.05, 0.15))}
    )
    return ops


def _edit_stream(rng: random.Random, w: Workload, count: int):
    n = w.n
    edges = ring_plus_matching(n)
    present = set(edges)
    partner = {}
    for i in range(n // 2):
        partner[i] = i + n // 2
        partner[i + n // 2] = i
    for k in range(1, count + 1):
        dels, adds = [], []
        if k % 4 == 0:
            # Swap the partners of two matching edges: a real net edge change
            # that keeps the matching perfect and every degree at 3.
            while True:
                a, c = rng.sample(range(n), 2)
                pa, pc = partner[a], partner[c]
                if c == pa:
                    continue
                new1, new2 = _key(a, pc), _key(c, pa)
                if new1 in present or new2 in present:
                    continue
                break
            dels = [_key(a, pa), _key(c, pc)]
            adds = [new1, new2]
        while True:
            edge = edges[rng.randrange(len(edges))]
            if edge not in dels:
                break
        ops = _potential_ops(rng, n, 4, edge)
        ops += [{"op": "del_edge", "u": u, "v": v} for u, v in dels]
        ops += [{"op": "add_edge", "u": u, "v": v, "phi": _ising_edge(ISING_BETA)}
                for u, v in adds]
        if dels:
            for old, new in zip(dels, adds):
                edges[edges.index(old)] = new
                present.discard(old)
                present.add(new)
            partner[a], partner[pc] = pc, a
            partner[c], partner[pa] = pa, c
        yield ops


def _replay_stream(rng: random.Random, w: Workload, count: int):
    edges = ring_plus_matching(w.n)
    for _ in range(count):
        yield _potential_ops(rng, w.n, 16, edges[rng.randrange(len(edges))])


def _churn_stream(rng: random.Random, w: Workload, count: int):
    next_id = w.n
    for k in range(count):
        if k % 2 == 0:
            v, anchor = next_id, rng.randrange(w.n)
            next_id += 1
            yield [
                {"op": "add_vertex", "v": v, "phi": _hardcore_vertex()},
                {"op": "add_edge", "u": v, "v": anchor, "phi": _hardcore_edge()},
            ]
        else:
            yield [
                {"op": "del_edge", "u": v, "v": anchor},
                {"op": "del_vertex", "v": v},
            ]


_STREAMS = {
    "edit-n10k": _edit_stream,
    "replay-n1k": _replay_stream,
    "churn-hardcore": _churn_stream,
}


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _queries(rng: random.Random, w: Workload) -> list[dict]:
    out = []
    for i in range(w.n_queries):
        kind = "marginal" if w.queries == "marginal" else ("marginal", "posterior", "map")[i % 3]
        if kind == "marginal":
            a = rng.sample(range(w.n), rng.randint(1, 3))
            out.append({"id": f"m{i}", "kind": kind, "a": a})
        else:
            picks = rng.sample(range(w.n), 4)
            a, b = picks[: rng.randint(1, 2)], picks[2: 2 + rng.randint(1, 2)]
            rec = {"id": f"{kind[0]}{i}", "kind": kind, "a": a, "b": b}
            if kind == "posterior":
                rec["tau_b"] = [rng.randrange(2) for _ in b]
            out.append(rec)
    return out


def write_workload(w: Workload, seed: int, count: int, out: Path) -> dict:
    """Write instance.json, updates.jsonl, queries.json and workload.json into
    `out`; return the paths and the matching `dyngibbs run` arguments."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{w.name}/{seed}")
    queries = _queries(rng, w)
    files = {
        "instance": out / "instance.json",
        "updates": out / "updates.jsonl",
        "queries": out / "queries.json",
    }
    files["instance"].write_text(json.dumps(instance_doc(w)) + "\n")
    files["queries"].write_text(json.dumps(queries) + "\n")
    with files["updates"].open("w") as fh:
        for ops in _STREAMS[w.name](rng, w, count):
            fh.write(json.dumps({"ops": ops}) + "\n")
    run_args = [
        "run",
        "--instance", str(files["instance"]),
        "--updates", str(files["updates"]),
        "--queries", str(files["queries"]),
        "--schedule", w.schedule,
        "--delta", w.delta,
        "--seed", str(seed),
        "--length-override", str(w.T),
    ]
    (out / "workload.json").write_text(
        json.dumps({"workload": asdict(w), "seed": seed, "batches": count,
                    "dyngibbs_args": run_args}, indent=2) + "\n"
    )
    return {"files": files, "run_args": run_args}
