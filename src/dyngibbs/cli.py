"""Command-line harness: file formats, the run/bench/verify commands, and
update-stream ingestion.

Formats
  instance (JSON):  {"q": int, "vertices": [{"id": int, "phi": [w, ...]}],
                     "edges": [{"u": int, "v": int, "phi": [[w, ...], ...]}]}
                    where w is a number or the string "-inf".
  updates (JSONL):  one batch per line, {"ops": [{"op": NAME, ...}, ...]},
                    NAME in set_vertex_phi | set_edge_phi | add_vertex |
                    del_vertex | add_edge | del_edge.
  queries (JSON):   [{"id": str, "kind": "marginal"|"posterior"|"map",
                      "a": [v,...], "b": [v,...], "tau_b": [c,...]}, ...]

Exit codes: 0 ok, 1 usage, 2 parse, 3 infeasible or regime violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .engine import ChainParams, run_chain
from .errors import (
    AsymmetricEdge,
    BadArity,
    DegreeTooLarge,
    DynGibbsError,
    EmptyPosteriorCondition,
    InfeasibleInstance,
    InfeasibleNeighborhood,
    InvalidBatch,
    ModelMismatch,
    ParseError,
    RegimeViolation,
)
from .inference import (
    PowerLogFn,
    Query,
    ScheduleFns,
    estimate,
    incremental_apply,
    rebuild,
    schedule_check,
)
from .models import MODEL_KINDS, model_delta
from .mrf import (
    NEG_INF,
    AddEdge,
    AddVertex,
    DeleteEdge,
    DeleteVertex,
    EdgePotential,
    MrfInstance,
    SetEdgePotential,
    SetVertexPotential,
    SpinDomain,
    UpdateBatch,
    VertexPotential,
    _check_id,
    dobrushin_check,
    validate_feasibility,
)
from .rng import (
    BENCH_STREAM_OFFSET,
    VERIFY_FRESH_STREAM_OFFSET,
    VERIFY_UPDATE_STREAM_OFFSET,
)
from .updater import apply_update_multi, new_chain_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4

_SPEEDUP_TARGET = 0.2


# ---------------------------------------------------------------------------
# Instance format
# ---------------------------------------------------------------------------

def _weight(x, where: str) -> float:
    if x == "-inf":
        return NEG_INF
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"weight must be a number or \"-inf\"", field=where)
    return float(x)


def _weight_out(w: float):
    return "-inf" if w == NEG_INF else w


def parse_instance(path) -> MrfInstance:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    q = doc.get("q")
    if not isinstance(q, int) or q < 2:
        raise ParseError("q must be an integer >= 2", field="q")
    vertices = {}
    for rec in doc.get("vertices", ()):
        if not isinstance(rec, dict):
            raise ParseError("vertex record must be a JSON object", field="vertices")
        v = rec.get("id")
        try:
            _check_id(v)
        except (TypeError, ValueError) as e:
            raise ParseError(str(e), field="vertices.id") from None
        if v in vertices:
            raise ParseError(f"duplicate vertex id {v}", field="vertices.id")
        phi = rec.get("phi")
        if not isinstance(phi, list) or len(phi) != q:
            raise BadArity(f"vertex {v}: phi needs exactly {q} entries")
        vertices[v] = VertexPotential(
            _weight(w, f"vertices[{v}].phi") for w in phi
        )
    edges = {}
    for rec in doc.get("edges", ()):
        if not isinstance(rec, dict):
            raise ParseError("edge record must be a JSON object", field="edges")
        u, v = rec.get("u"), rec.get("v")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (u, v)):
            raise ParseError("edge endpoints must be integers", field="edges")
        if u == v:
            raise ParseError(f"self-loop at {u}", field="edges")
        if u not in vertices or v not in vertices:
            raise ParseError(f"edge ({u},{v}) references unknown vertex", field="edges")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge ({u},{v})", field="edges")
        m = rec.get("phi")
        if (
            not isinstance(m, list)
            or len(m) != q
            or any(not isinstance(row, list) or len(row) != q for row in m)
        ):
            raise BadArity(f"edge ({u},{v}): phi needs a {q}x{q} matrix")
        rows = [
            [_weight(w, f"edges[{u},{v}].phi") for w in row] for row in m
        ]
        for a in range(q):
            for b in range(a + 1, q):
                if rows[a][b] != rows[b][a]:
                    raise AsymmetricEdge(
                        f"edge ({u},{v}): phi[{a}][{b}] != phi[{b}][{a}]"
                    )
        if u > v:
            rows = [[rows[b][a] for b in range(q)] for a in range(q)]
        edges[key] = EdgePotential(rows)
    return MrfInstance(SpinDomain(q), vertices, edges)


def serialize_instance(inst: MrfInstance) -> dict:
    return {
        "q": inst.q,
        "vertices": [
            {"id": v, "phi": [_weight_out(w) for w in inst.vertex_potential(v).weights]}
            for v in inst.vertex_ids()
        ],
        "edges": [
            {
                "u": u,
                "v": v,
                "phi": [
                    [_weight_out(w) for w in row]
                    for row in inst.edge_potential(u, v).weights
                ],
            }
            for u, v in sorted(inst.edge_keys())
        ],
    }


# ---------------------------------------------------------------------------
# Update-stream and query formats
# ---------------------------------------------------------------------------

def _parse_op(rec: dict, line: int):
    if not isinstance(rec, dict):
        raise ParseError("op must be a JSON object", line=line)
    op = rec.get("op")
    try:
        for key in ("u", "v"):
            if key in rec:
                _check_id(rec[key])
        if op == "set_vertex_phi":
            return SetVertexPotential(
                rec["v"], VertexPotential(_weight(w, "phi") for w in rec["phi"])
            )
        if op == "add_vertex":
            return AddVertex(
                rec["v"], VertexPotential(_weight(w, "phi") for w in rec["phi"])
            )
        if op == "del_vertex":
            return DeleteVertex(rec["v"])
        if op == "set_edge_phi":
            return SetEdgePotential(
                rec["u"],
                rec["v"],
                EdgePotential(
                    [[_weight(w, "phi") for w in row] for row in rec["phi"]]
                ),
            )
        if op == "add_edge":
            return AddEdge(
                rec["u"],
                rec["v"],
                EdgePotential(
                    [[_weight(w, "phi") for w in row] for row in rec["phi"]]
                ),
            )
        if op == "del_edge":
            return DeleteEdge(rec["u"], rec["v"])
    except KeyError as e:
        raise ParseError(f"op {op!r} missing field {e}", line=line) from None
    except TypeError as e:
        raise ParseError(f"op {op!r}: {e}", line=line) from None
    except ValueError as e:
        raise ParseError(str(e), line=line) from None
    raise ParseError(f"unknown op {op!r}", line=line)


def parse_update_stream(path) -> list[UpdateBatch]:
    batches = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        text = raw.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", line=lineno) from None
        ops = rec.get("ops") if isinstance(rec, dict) else None
        if not isinstance(ops, list):
            raise ParseError("batch line needs an \"ops\" array", line=lineno)
        batches.append(UpdateBatch(_parse_op(o, lineno) for o in ops))
    return batches


def _check_spin(c, q: Optional[int] = None) -> int:
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"spin must be an int, got {type(c).__name__}")
    if c < 0:
        raise ValueError(f"spin {c} is negative")
    if q is not None and c >= q:
        raise ValueError(f"spin {c} outside 0..{q - 1}")
    return c


def parse_queries(path, q: Optional[int] = None) -> list[tuple[str, Query]]:
    """Parse a JSON array of queries. Spins must be non-negative, and below q
    when q is given."""
    try:
        docs = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(docs, list):
        raise ParseError("queries document must be a JSON array")
    out = []
    for i, rec in enumerate(docs):
        if not isinstance(rec, dict):
            raise ParseError(f"query {i} must be a JSON object")
        qid = rec.get("id", f"q{i}")
        try:
            query = Query(
                rec.get("kind"),
                tuple(_check_id(v) for v in rec.get("a", ())),
                tuple(_check_id(v) for v in rec.get("b", ())),
                tuple(_check_spin(c, q) for c in rec["tau_b"]) if "tau_b" in rec else None,
                cap=rec.get("cap", 3),
            )
        except (TypeError, ValueError) as e:
            raise ParseError(f"query {qid}: {e}") from None
        out.append((str(qid), query))
    return out


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    instance: Optional[str]
    updates: Optional[str]
    schedule: Optional[str]
    delta: Optional[str]
    seed: int
    queries: Optional[str]
    out: Optional[str]
    length_override: Optional[int] = None


def _parse_powerlog(text: str, name: str) -> PowerLogFn:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} needs a:b:c, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{name}: non-numeric coefficient in {text!r}") from None
    return PowerLogFn(a, b, c)


def parse_schedule(text: str) -> ScheduleFns:
    """Format: N=a:b:c,eps=a:b:c for the family a * n^b * (ln n + 1)^c."""
    fields = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        fields[key.strip()] = val.strip()
    if set(fields) != {"N", "eps"}:
        raise ValueError(f"schedule needs N=...,eps=..., got {text!r}")
    fns = ScheduleFns(
        n_samples=_parse_powerlog(fields["N"], "N"),
        eps=_parse_powerlog(fields["eps"], "eps"),
    )
    rep = schedule_check(fns, 2, 4096)
    if not rep.ok:
        raise ValueError(
            f"schedule fails the smoothness check: C1={rep.c1:.3g} C2={rep.c2:.3g} "
            f"eps_in_range={rep.eps_in_range} (bound {rep.bound})"
        )
    return fns


def resolve_delta(inst: MrfInstance, source: str) -> float:
    if source.startswith("given:"):
        val = float(source[6:])
        if not 0.0 < val <= 1.0:
            raise ValueError(f"given delta must lie in (0,1], got {val}")
        return val
    if source == "check":
        rep = dobrushin_check(inst)
        if not rep.satisfied:
            raise RegimeViolation(
                f"influence check failed: delta = {rep.delta:.6g} <= 0"
            )
        return min(rep.delta, 1.0)
    if source.startswith("model:"):
        kind = source[6:]
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model {kind!r}")
        return model_delta(inst, kind)
    raise ValueError(f"delta source must be given:X, check, or model:NAME, got {source!r}")


def _load_feasible_instance(cfg: RunConfig) -> MrfInstance:
    inst = parse_instance(cfg.instance)
    rep = validate_feasibility(inst)
    if not rep.ok:
        raise InfeasibleInstance(
            f"vertex {rep.vertex} admits no spin under some boundary"
        )
    return inst


def _prepare(cfg: RunConfig):
    """Set-up shared by run and bench: the checked instance, its schedule,
    the chain parameters with delta resolved, the batches and the output
    directory."""
    inst = _load_feasible_instance(cfg)
    delta = resolve_delta(inst, cfg.delta)
    sched = parse_schedule(cfg.schedule)
    params = ChainParams(
        delta=delta,
        eps_fn=sched.eps_value,
        seed=cfg.seed,
        length_override=cfg.length_override,
    )
    batches = parse_update_stream(cfg.updates) if cfg.updates else []
    out = Path(cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return inst, sched, params, batches, out


def _refresh_delta(cs, source: str) -> None:
    """Re-resolve delta on the pool's updated instance; raises
    RegimeViolation once an update leaves the regime."""
    if not source.startswith("given:"):
        cs.params = replace(cs.params, delta=resolve_delta(cs.inst, source))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _emit_estimates(fh, step: int, states: dict) -> None:
    for qid in states:
        state = states[qid]
        try:
            vec = estimate(state)
            rec = {"step": step, "query": qid, "kind": state.query.kind, "vector": vec}
        except (EmptyPosteriorCondition, ValueError) as e:
            rec = {
                "step": step,
                "query": qid,
                "kind": state.query.kind,
                "vector": None,
                "error": str(e),
            }
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_run(cfg: RunConfig) -> int:
    inst, sched, params, batches, out = _prepare(cfg)
    queries = parse_queries(cfg.queries, inst.q) if cfg.queries else []
    cs = new_chain_set(inst, params, sched)
    states = {qid: rebuild(cs.samples(), query, inst.q) for qid, query in queries}
    with (out / "estimates.jsonl").open("w") as fh:
        _emit_estimates(fh, 0, states)
        for step, batch in enumerate(batches, 1):
            diff, _metrics = apply_update_multi(cs, batch)
            _refresh_delta(cs, cfg.delta)
            for state in states.values():
                incremental_apply(state, diff)
            _emit_estimates(fh, step, states)
    samples = {
        "n_chains": len(cs.logs),
        "configs": [
            {str(v): c for v, c in sorted(log.final_config().items())}
            for log in cs.logs
        ],
    }
    (out / "samples.json").write_text(json.dumps(samples) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(cfg: RunConfig) -> int:
    inst, sched, params, batches, out = _prepare(cfg)
    t0 = time.perf_counter()
    cs = new_chain_set(inst, params, sched)
    setup_s = time.perf_counter() - t0
    rows = []
    bench_stream = BENCH_STREAM_OFFSET
    total_dyn = total_base = 0.0
    for step, batch in enumerate(batches, 1):
        stream = cs.next_stream
        t0 = time.perf_counter()
        diff, metrics = apply_update_multi(cs, batch)
        dyn = time.perf_counter() - t0
        fresh = cs.next_stream - stream
        _refresh_delta(cs, cfg.delta)
        t0 = time.perf_counter()
        for _ in range(len(cs.logs)):
            run_chain(cs.inst, cs.params, stream=bench_stream)
            bench_stream += 1
        base = time.perf_counter() - t0
        total_dyn += dyn
        total_base += base
        rows.append(
            {
                "batch": step,
                "dynamic_s": dyn,
                "baseline_s": base,
                "ratio": dyn / base if base > 0 else None,
                "r_ham": sum(m.r_ham for m in metrics),
                "r_graph": sum(m.r_graph for m in metrics),
                "filter_size": sum(m.filter_size for m in metrics),
                "diff_d": diff.d,
                "regenerated_chains": sum(1 for m in metrics if m.regenerated),
                "restored_chains": len(diff.added_chains) - fresh,
                "fresh_chains": fresh,
                "parked_chains": len(cs.parked),
                "chains": len(cs.logs),
                "chain_length": cs.logs[0].length if cs.logs else 0,
                "n": cs.inst.n,
            }
        )
    ratio = (total_dyn / total_base) if total_base > 0 else None
    report = {
        "n_initial": inst.n,
        "chains_initial": len(cs.logs),
        "setup_s": setup_s,
        "updates": rows,
        "totals": {
            "dynamic_s": total_dyn,
            "baseline_s": total_base,
            "ratio": ratio,
            "speedup_target": _SPEEDUP_TARGET,
            "speedup_ok": ratio is not None and ratio <= _SPEEDUP_TARGET,
        },
    }
    (out / "bench.json").write_text(json.dumps(report, indent=2) + "\n")
    if ratio is not None and ratio > _SPEEDUP_TARGET:
        print(
            f"warning: dynamic/baseline ratio {ratio:.3f} exceeds {_SPEEDUP_TARGET}",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_execlog(rng) -> tuple[bool, str]:
    from .execlog import ExecutionLog

    initial = {v: 0 for v in range(6)}
    log = ExecutionLog(initial)
    verts: list[int] = []
    spins: list[int] = []
    ops = 0
    for _ in range(20_000):
        ops += 1
        L = len(verts)
        r = rng.random()
        if r < 0.45 or L == 0:
            t = rng.randrange(1, L + 2)
            v = rng.randrange(6)
            c = rng.randrange(3)
            log.insert(t, v, c)
            verts.insert(t - 1, v)
            spins.insert(t - 1, c)
        elif r < 0.65:
            t = rng.randrange(1, L + 1)
            log.remove(t)
            del verts[t - 1]
            del spins[t - 1]
        elif r < 0.85:
            t = rng.randrange(1, L + 1)
            c = rng.randrange(3)
            log.change(t, c)
            spins[t - 1] = c
        else:
            t = rng.randrange(0, L + 1)
            v = rng.randrange(6)
            want = initial[v]
            for i in range(t):
                if verts[i] == v:
                    want = spins[i]
            if log.evaluate(t, v) != want:
                return False, f"evaluate mismatch after {ops} ops"
    want_final = dict(initial)
    for v, c in zip(verts, spins):
        want_final[v] = c
    if log.final_config() != want_final:
        return False, "final_config mismatch"
    return True, f"{ops} mixed operations match the linear-scan oracle"


def _verify_coupling(rng) -> tuple[bool, str]:
    from itertools import product

    from .coupling import correction_kernel, p_up
    from .mrf import LocalView

    worst = 0.0
    for trial in range(40):
        q = rng.choice([2, 3])
        deg = rng.choice([1, 2])
        nbrs = tuple(range(1, deg + 1))

        def rand_phi():
            return tuple(rng.uniform(-1.5, 1.5) for _ in range(q))

        def rand_mat():
            m = [[0.0] * q for _ in range(q)]
            for a in range(q):
                for b in range(a, q):
                    m[a][b] = m[b][a] = rng.uniform(-1.0, 1.0)
            return tuple(tuple(row) for row in m)

        old = LocalView(0, q, rand_phi(), nbrs, {u: rand_mat() for u in nbrs})
        new = LocalView(0, q, rand_phi(), nbrs, {u: rand_mat() for u in nbrs})
        for tau_spins in product(range(q), repeat=deg):
            tau = dict(zip(nbrs, tau_spins))
            mu = old.conditional(tau)
            mu_new = new.conditional(tau)
            kern = correction_kernel(old, new, tau)
            bound = p_up(old, new)
            if max(kern.p) > bound + 1e-12:
                return False, f"p exceeds p_up on trial {trial}"
            for c in range(q):
                redrawn = mu[c] * (1 - kern.p[c])
                if kern.nu is not None:
                    redrawn += sum(mu[x] * kern.p[x] for x in range(q)) * kern.nu[c]
                worst = max(worst, abs(redrawn - mu_new[c]))
    ok = worst <= 1e-12
    return ok, f"max corrected-law error {worst:.2e} over 40 local pairs"


def _verify_law(rng) -> tuple[bool, str]:
    from .models import coloring_edge, coloring_instance, ising_instance
    from .oracle import encode_config
    from .updater import execute_update, plan_update
    from .rng import make_stream

    reps = 15_000
    params = ChainParams(delta=0.5, eps_fn=lambda n: 0.1, seed=17, length_override=6)
    # (name, instance, records, TV limit). Scenario k offsets its run, update
    # and fresh stream ids by k * reps. The colouring edge add is a
    # hard-constraint edit; a start that depended on the edges put it at 0.26.
    # The forced colour is feasible only through its own batch's edge deletion.
    scenarios = [
        ("ising potentials", ising_instance(3, [(0, 1), (1, 2)], 0.35, field=0.1),
         [SetVertexPotential(1, VertexPotential((-0.4, 0.4))),
          SetEdgePotential(0, 1, EdgePotential(((-0.6, 0.6), (0.6, -0.6))))], 0.05),
        ("colouring edge add", coloring_instance(3, [(0, 1), (1, 2)], 4),
         [AddEdge(0, 2, coloring_edge(4))], 0.1),
        ("colouring forced colour, own edge deleted",
         coloring_instance(3, [(0, 1), (0, 2)], 3),
         [SetVertexPotential(1, VertexPotential((0.0, NEG_INF, NEG_INF))),
          DeleteEdge(0, 1)], 0.05),
    ]
    ok, parts = True, []
    for k, (name, old, records, limit) in enumerate(scenarios):
        plan = plan_update(old, UpdateBatch(records), params)
        ids, q = plan.final.vertex_ids(), plan.final.q
        counts = [[0] * q ** len(ids) for _ in range(2)]
        for i in range(k * reps, (k + 1) * reps):
            log = run_chain(old, params, stream=i)
            execute_update(
                plan, log, make_stream(params.seed, VERIFY_UPDATE_STREAM_OFFSET + i)
            )
            fresh = run_chain(plan.final, params, stream=VERIFY_FRESH_STREAM_OFFSET + i)
            for c, chain in zip(counts, (log, fresh)):
                c[encode_config(ids, q, chain.final_config())] += 1
        tv = sum(abs(a - b) for a, b in zip(*counts)) / (2 * reps)
        ok = ok and tv <= limit
        parts.append(f"{name} {tv:.4f} (limit {limit})")
    return ok, f"TV(updated, fresh) over {reps} runs each: " + "; ".join(parts)


def _verify_estimators(rng) -> tuple[bool, str]:
    from .inference import incremental_apply as apply_diff
    from .inference import rebuild as rebuild_state
    from .inference import sample_diff

    verts = list(range(6))
    q = 3
    for trial in range(100):
        cur = {
            i: {v: rng.randrange(q) for v in verts}
            for i in range(rng.randrange(1, 8))
        }
        query = Query("marginal", tuple(rng.sample(verts, 2)))
        state = rebuild_state(cur, query, q)
        for _ in range(4):
            nxt = {
                i: {
                    v: (rng.randrange(q) if rng.random() < 0.4 else c)
                    for v, c in cfg.items()
                }
                for i, cfg in cur.items()
                if rng.random() > 0.1
            }
            if rng.random() < 0.4:
                nxt[max(cur, default=-1) + 1] = {v: rng.randrange(q) for v in verts}
            apply_diff(state, sample_diff(cur, nxt))
            fresh = rebuild_state(nxt, query, q)
            if state.counts != fresh.counts or state.total != fresh.total:
                return False, f"divergence on stream {trial}"
            cur = nxt
    return True, "100 diff streams match full rebuilds exactly"


def _verify_determinism(tmp: Path) -> tuple[bool, str]:
    inst = {
        "q": 2,
        "vertices": [{"id": v, "phi": [0.0, 0.1]} for v in range(5)],
        "edges": [
            {"u": i, "v": i + 1, "phi": [[0.3, -0.3], [-0.3, 0.3]]} for i in range(4)
        ],
    }
    (tmp / "inst.json").write_text(json.dumps(inst))
    (tmp / "updates.jsonl").write_text(
        '{"ops":[{"op":"set_vertex_phi","v":2,"phi":[0.2,-0.2]}]}\n'
        '{"ops":[{"op":"del_edge","u":3,"v":4},'
        '{"op":"add_edge","u":2,"v":4,"phi":[[0.2,-0.2],[-0.2,0.2]]}]}\n'
    )
    (tmp / "queries.json").write_text('[{"id":"m0","kind":"marginal","a":[0,2]}]')
    outputs = []
    for rep in range(2):
        out = tmp / f"out{rep}"
        cfg = RunConfig(
            instance=str(tmp / "inst.json"),
            updates=str(tmp / "updates.jsonl"),
            schedule="N=8:0:0,eps=0.2:0:0",
            delta="given:0.5",
            seed=99,
            queries=str(tmp / "queries.json"),
            out=str(out),
            length_override=120,
        )
        code = cmd_run(cfg)
        if code != EXIT_OK:
            return False, f"cmd_run exited {code}"
        outputs.append(
            (out / "estimates.jsonl").read_bytes()
            + (out / "samples.json").read_bytes()
        )
    ok = outputs[0] == outputs[1]
    return ok, "repeated cmd_run outputs are byte-identical" if ok else "outputs differ"


def cmd_verify(cfg: RunConfig) -> int:
    import random
    import tempfile

    checks = [
        ("exec-log oracle", lambda: _verify_execlog(random.Random(101))),
        ("coupling exactness", lambda: _verify_coupling(random.Random(202))),
        ("update law preservation", lambda: _verify_law(random.Random(303))),
        ("estimator increments", lambda: _verify_estimators(random.Random(404))),
    ]
    failed = 0
    def report(name, fn):
        nonlocal failed
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1

    for name, fn in checks:
        report(name, fn)
    with tempfile.TemporaryDirectory() as tmp:
        report("determinism", lambda: _verify_determinism(Path(tmp)))
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dyngibbs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_io in (("run", True), ("bench", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--instance", required=needs_io, help="instance JSON file")
        p.add_argument("--updates", help="update-stream JSONL file")
        p.add_argument(
            "--schedule",
            required=needs_io,
            help="N=a:b:c,eps=a:b:c for a * n^b * (ln n + 1)^c",
        )
        p.add_argument(
            "--delta",
            required=needs_io,
            help="given:X | check | model:ising|hardcore|coloring",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--queries", help="queries JSON file")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument(
            "--length-override",
            type=int,
            help="pin the chain length (benchmark/testing knob)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        instance=args.instance,
        updates=args.updates,
        schedule=args.schedule,
        delta=args.delta,
        seed=args.seed,
        queries=args.queries,
        out=args.out,
        length_override=args.length_override,
    )
    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        return cmd_verify(cfg)
    except (ParseError, InvalidBatch) as e:
        print(f"dyngibbs: parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (
        InfeasibleInstance,
        InfeasibleNeighborhood,
        RegimeViolation,
        ModelMismatch,
        DegreeTooLarge,
    ) as e:
        print(f"dyngibbs: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as e:
        print(f"dyngibbs: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DynGibbsError as e:
        print(f"dyngibbs: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
