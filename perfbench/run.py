"""Closed-loop benchmark for dyngibbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else. One client sends update batches back to
back with no think time. Per batch the loop does what `dyngibbs run` does,
in the same order and through public calls: `apply_update_multi` with the
library's default threads, `validate_feasibility`, `cli.resolve_delta`
unless the delta source is `given:`, then `incremental_apply` and
`estimate` for every query. A batch's latency runs from its arrival until
every query has been re-estimated, counted in CPU time of this process:
the loop runs on one thread and does no I/O, so that is its latency on an
idle core, without the time the OS gives other processes. The run itself
lasts --seconds of wall time.

After each batch, outside the timed region, the loop checks that every log
has the pinned length and the instance's vertex set and that the pool has
`schedule.sample_count(n)` chains; at the end every estimator must equal a
fresh `rebuild`. A failed check fails its batch. A raised exception fails
its batch and every later one, since the pool may be partly rewritten.

--trace 0 prints the end-to-end metrics. --trace 1 traces blocks of four
batches, alternating with untraced blocks, and prints the per-layer metrics
together with the tracing overhead (traced against untraced batch median).
The last line of standard output is one JSON object; a readable summary goes
to standard error. Inputs and the trace are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORKLOADS, write_workload

SETUP_REPEATS = 3
BATCHES_PER_SECOND = 100  # update stream generated per measured second
TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
TRACE_BLOCK = 4
WORK_DIR = ".perfbench_out"


def _no_span(_name):
    return nullcontext()


def import_library(root: Path):
    """Import dyngibbs from root/src, refusing any other installed copy."""
    pkg = root / "src" / "dyngibbs"
    if not (pkg / "__init__.py").is_file():
        raise RuntimeError(f"no dyngibbs sources under {pkg}")
    sys.path.insert(0, str(root / "src"))
    import dyngibbs

    if Path(dyngibbs.__file__).resolve().parent != pkg.resolve():
        raise RuntimeError(f"dyngibbs imported from {dyngibbs.__file__}, not {pkg}")
    return dyngibbs


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (VmHWM). Unlike
    ru_maxrss, it does not inherit the RSS a parent had when it forked."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# ---------------------------------------------------------------------------
# The run loop, step for step as `dyngibbs run`
# ---------------------------------------------------------------------------

def load(dg, w, seed: int, files: dict):
    """Parse the workload files and resolve parameters as `dyngibbs run` does."""
    from dyngibbs import cli

    inst = cli.parse_instance(files["instance"])
    if not dg.validate_feasibility(inst).ok:
        raise RuntimeError("generated instance is infeasible")
    sched = cli.parse_schedule(w.schedule)
    params = dg.ChainParams(
        delta=cli.resolve_delta(inst, w.delta),
        eps_fn=sched.eps_value,
        seed=seed,
        length_override=w.T,
    )
    batches = cli.parse_update_stream(files["updates"])
    queries = cli.parse_queries(files["queries"])
    return inst, params, sched, batches, queries


def setup(dg, inst, params, sched, queries, span=_no_span, rss=None):
    """A fresh pool plus every query's initial estimator; returns its
    seconds of CPU time."""
    t0 = process_time()
    with span("new_chain_set"):
        before = rss_bytes() if rss is not None else 0
        cs = dg.new_chain_set(inst, params, sched)
        if rss is not None:
            rss.append(rss_bytes() - before)
    with span("rebuild"):
        states = {qid: dg.rebuild(cs.samples(), q, inst.q) for qid, q in queries}
    return cs, states, process_time() - t0


def answer(dg, state):
    try:
        return dg.estimate(state)
    except (dg.errors.EmptyPosteriorCondition, ValueError):
        return None  # `dyngibbs run` reports these as an answer with no vector


def run_batch(dg, cs, states, batch, delta_src: str, span=_no_span):
    from dyngibbs import cli

    with span("apply_update_multi"):
        diff, metrics = dg.apply_update_multi(cs, batch)
    with span("validate_feasibility"):
        feasible = dg.validate_feasibility(cs.inst).ok
    if not feasible:
        raise dg.errors.InfeasibleInstance("update made the instance infeasible")
    if not delta_src.startswith("given:"):
        with span("resolve_delta"):
            delta = cli.resolve_delta(cs.inst, delta_src)
        cs.params = replace(cs.params, delta=delta)
    with span("incremental_apply"):
        for state in states.values():
            dg.incremental_apply(state, diff)
    with span("estimate"):
        answers = {qid: answer(dg, state) for qid, state in states.items()}
    return diff, metrics, answers


def pool_ok(cs, T: int) -> bool:
    ids = cs.inst.vertex_ids()
    return len(cs.logs) == cs.schedule.sample_count(cs.inst.n) and all(
        log.length == T and log.vertex_ids() == ids for log in cs.logs
    )


def estimators_ok(dg, cs, states) -> bool:
    samples = cs.samples()
    for state in states.values():
        fresh = dg.rebuild(samples, state.query, cs.inst.q)
        if fresh.counts != state.counts or fresh.total != state.total:
            return False
    return True


def footprint(batch) -> int:
    touched = set()
    for rec in batch:
        if hasattr(rec, "vertex"):
            touched.add(rec.vertex)
        else:
            touched.update((rec.u, rec.v))
    return len(touched)


def closed_loop(dg, cs, states, batches, w, deadline=None, tracer=None):
    """Send batches back to back until the deadline or the stream ends."""
    out = {
        "latency": [], "traced": [], "untraced": [], "attempted": 0,
        "failed": 0, "answers": None, "visits": 0, "envelope": 0.0,
        "filter_size": 0, "regenerated": 0, "diff_entries": 0,
    }
    for k, batch in enumerate(batches):
        if deadline is not None and perf_counter() >= deadline:
            break
        traced = tracer is not None and (k // TRACE_BLOCK) % 2 == 0
        span = tracer.span if traced else _no_span
        chains, n = len(cs.logs), cs.inst.n
        if traced:
            tracer.batch = k
            tracer.install()
        t0 = process_time()
        try:
            with span("batch"):
                diff, metrics, answers = run_batch(dg, cs, states, batch, w.delta, span)
        except Exception:  # the pool may be partly rewritten: stop here
            traceback.print_exc()
            out["attempted"] += len(batches) - k
            out["failed"] += len(batches) - k
            break
        finally:
            if traced:
                tracer.uninstall()
                tracer.batch = -1
        dt = process_time() - t0
        out["latency"].append(dt)
        if tracer is not None:
            out["traced" if traced else "untraced"].append(dt)
        out["attempted"] += 1
        if not pool_ok(cs, w.T):
            out["failed"] += 1
        out["answers"] = answers
        out["visits"] += sum(m.r_ham + m.r_graph for m in metrics)
        out["envelope"] += chains * w.T * footprint(batch) / n
        out["filter_size"] += sum(m.filter_size for m in metrics)
        out["regenerated"] += sum(1 for m in metrics if m.regenerated)
        out["diff_entries"] += diff.d
    if out["attempted"] and not out["failed"] and not estimators_ok(dg, cs, states):
        out["failed"] += 1
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latency: list[float]) -> tuple[float, float]:
    """The highest latency with at least TAIL_BEYOND samples above it, and
    its percentile; the maximum when there are too few samples."""
    xs = sorted(latency)
    i = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(loop: dict, setup_times: list[float]) -> tuple[dict, dict]:
    lat = loop["latency"]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "batch_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "batch_tail_ms": (tail_s * 1e3, "ms"),
        "batches_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "batch_fail_frac": loop["failed"] / loop["attempted"],
        "batch_tail_percentile": tail_pct,
        "batch_samples": len(lat),
        "setup_runs_s": setup_times,
    }
    return metrics, extra


# per-layer metric -> the traced names it needs; the loop's own spans
# always exist
LAYER_NEEDS = {
    "updater.plan_ms": ("updater.plan_update",),
    "updater.filter_ms": ("updater.build_filter",),
    "updater.potentials_ms": ("updater.update_hamiltonian",),
    "updater.edges_ms": ("updater.update_edge",),
    "updater.add_vertices_ms": ("updater.add_vertices",),
    "updater.delete_vertices_ms": ("updater.delete_vertices",),
    "updater.resize_ms": ("updater.run_chain",),
    "engine.ns_per_step": ("updater.run_chain",),
    "engine.length_fix_ms": ("updater.length_fix",),
    "execlog.rank_edits": ("ExecutionLog.insert", "ExecutionLog.remove"),
    "execlog.rank_edit_ms": ("ExecutionLog.insert", "ExecutionLog.remove"),
    "execlog.compact_ms": ("ExecutionLog.compact",),
    "execlog.spin_changes": ("ExecutionLog.change",),
    "coupling.maximal_couple_calls": ("updater.maximal_couple_conditional",),
    "coupling.correction_kernel_calls": ("updater.correction_kernel",),
    "mrf.apply_batch_calls": ("MrfInstance.apply_batch",),
    "mrf.apply_batch_ms": ("MrfInstance.apply_batch",),
    "mrf.local_restriction_calls": ("updater.local_restriction",),
    "mrf.dobrushin_ms": ("cli.dobrushin_check",),
}


def per_layer(loop: dict, tracer, rss_growth: int,
              pool_transitions: int) -> tuple[dict, dict]:
    nb = len(loop["traced"])
    done = len(loop["latency"])
    ms = 1e3 / nb
    c, t = tracer.counts, tracer.times
    run_chain_s = tracer.inclusive("updater.run_chain") + tracer.inclusive(
        "updater.run_chain", batches=False)
    batch_spans = [s for s in tracer.spans if s[0] == "batch"]
    own = tracer.self_times()
    batch_time = sum(s[2] - s[1] for s in batch_spans)
    root_self = sum(own[i] for i, s in enumerate(tracer.spans) if s[0] == "batch")
    traced_p50 = statistics.median(loop["traced"])
    untraced_p50 = statistics.median(loop["untraced"] or [math.nan])
    values = {
        "updater.plan_ms": (tracer.inclusive("updater.plan_update") * ms, "ms"),
        "updater.filter_ms": (tracer.inclusive("updater.build_filter") * ms, "ms"),
        "updater.potentials_ms": (tracer.inclusive("updater.update_hamiltonian") * ms, "ms"),
        "updater.edges_ms": (tracer.inclusive("updater.update_edge") * ms, "ms"),
        "updater.add_vertices_ms": (tracer.inclusive("updater.add_vertices") * ms, "ms"),
        "updater.delete_vertices_ms": (tracer.inclusive("updater.delete_vertices") * ms, "ms"),
        "updater.resize_ms": (tracer.inclusive("updater.run_chain") * ms, "ms"),
        "updater.visits": (loop["visits"] / done, "count"),
        "updater.filter_size": (loop["filter_size"] / done, "count"),
        "updater.regenerated_chains": (loop["regenerated"] / done, "count"),
        "updater.diff_entries": (loop["diff_entries"] / done, "count"),
        "updater.visits_per_envelope": (loop["visits"] / loop["envelope"], "ratio"),
        "engine.ns_per_step": (run_chain_s / tracer.steps * 1e9, "ns"),
        "engine.length_fix_ms": (tracer.inclusive("updater.length_fix") * ms, "ms"),
        "execlog.rank_edits": (
            (c["ExecutionLog.insert"] + c["ExecutionLog.remove"]) / nb, "count"),
        "execlog.rank_edit_ms": (
            (t["ExecutionLog.insert"] + t["ExecutionLog.remove"]) * ms, "ms"),
        "execlog.compact_ms": (t["ExecutionLog.compact"] * ms, "ms"),
        "execlog.spin_changes": (c["ExecutionLog.change"] / nb, "count"),
        "execlog.bytes_per_transition": (rss_growth / pool_transitions, "B"),
        "coupling.maximal_couple_calls": (
            c["updater.maximal_couple_conditional"] / nb, "count"),
        "coupling.correction_kernel_calls": (c["updater.correction_kernel"] / nb, "count"),
        "mrf.apply_batch_calls": (c["MrfInstance.apply_batch"] / nb, "count"),
        "mrf.apply_batch_ms": (t["MrfInstance.apply_batch"] * ms, "ms"),
        "mrf.local_restriction_calls": (c["updater.local_restriction"] / nb, "count"),
        "mrf.feasibility_ms": (tracer.inclusive("validate_feasibility") * ms, "ms"),
        "mrf.dobrushin_ms": (tracer.inclusive("cli.dobrushin_check") * ms, "ms"),
        "inference.fold_ms": (tracer.inclusive("incremental_apply") * ms, "ms"),
        "inference.estimate_ms": (tracer.inclusive("estimate") * ms, "ms"),
        "inference.rebuild_ms": (tracer.inclusive("rebuild", batches=False) * 1e3, "ms"),
        "cli.resolve_delta_ms": (tracer.inclusive("resolve_delta") * ms, "ms"),
        "trace.traced_p50_ms": (traced_p50 * 1e3, "ms"),
        "trace.untraced_p50_ms": (untraced_p50 * 1e3, "ms"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
        "trace.coverage_frac": (1.0 - root_self / batch_time, "ratio"),
    }
    dropped = {}
    for metric, needs in LAYER_NEEDS.items():
        gone = [name for name in needs if name not in tracer.names]
        if gone:
            dropped[metric] = f"{', '.join(gone)} no longer exists"
            del values[metric]
    if not loop["untraced"]:
        for metric in ("trace.untraced_p50_ms", "trace.overhead_frac"):
            dropped[metric] = "the run ended before an untraced batch"
            del values[metric]
    return values, dropped


def self_time_table(tracer, nb: int) -> list[tuple[str, float, float]]:
    """(span name, inclusive ms per traced batch, self ms per traced batch)."""
    own = tracer.self_times()
    incl, self_ms = {}, {}
    for s, o in zip(tracer.spans, own):
        if s[4] < 0:
            continue
        incl[s[0]] = incl.get(s[0], 0.0) + (s[2] - s[1]) * 1e3 / nb
        self_ms[s[0]] = self_ms.get(s[0], 0.0) + o * 1e3 / nb
    return sorted(((k, incl[k], self_ms[k]) for k in incl), key=lambda r: -r[2])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        dg = import_library(root)
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{w.name}-s{args.seed}"
    count = max(64, math.ceil(args.seconds * BATCHES_PER_SECOND))
    files = write_workload(w, args.seed, count, work)["files"]
    inst, params, sched, batches, queries = load(dg, w, args.seed, files)

    tracer = None
    rss_growth: list[int] = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        for name in tracer.missing:
            print(f"perfbench: {name} not found; its metrics are dropped",
                  file=sys.stderr)
        origin = perf_counter()
        tracer.install()
        try:
            cs, states, setup_s = setup(dg, inst, params, sched, queries,
                                        tracer.span, rss_growth)
        finally:
            tracer.uninstall()
        setup_times = [setup_s]
        tracer.counts.clear()
        tracer.times.clear()
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            cs = states = None
            gc.collect()
            cs, states, setup_s = setup(dg, inst, params, sched, queries)
            setup_times.append(setup_s)
    pool_transitions = len(cs.logs) * w.T

    t0 = perf_counter()
    loop = closed_loop(dg, cs, states, batches, w, t0 + args.seconds, tracer)
    wall = perf_counter() - t0
    done = len(loop["latency"])
    correct = loop["failed"] == 0 and done > 0

    if not done:
        metrics, extra = {}, {}
    elif tracer is None:
        metrics, extra = end_to_end(loop, setup_times)
    else:
        metrics, dropped = per_layer(loop, tracer, rss_growth[0], pool_transitions)
        extra = {"dropped": dropped, "traced_batches": len(loop["traced"])}
        tracer.write_jsonl(work / "trace.jsonl", origin)
        print(f"{'span':28s} {'incl ms/batch':>14s} {'self ms/batch':>14s}",
              file=sys.stderr)
        for name, incl, own in self_time_table(tracer, len(loop["traced"])):
            print(f"{name:28s} {incl:14.3f} {own:14.3f}", file=sys.stderr)
        for metric, why in dropped.items():
            print(f"perfbench: dropped {metric}: {why}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(loop["attempted"], 1),
        "failed": loop["failed"] if loop["attempted"] else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stream_ran_out = done == len(batches) and wall < args.seconds
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({**result, "extra": extra, "wall_s": wall,
                    "stream_ran_out": stream_ran_out}, indent=2) + "\n")
    for k, (v, u) in metrics.items():
        print(f"{w.name} {k} = {v:.6g} {u}", file=sys.stderr)
    for k, v in extra.items():
        print(f"{w.name} {k} = {v}", file=sys.stderr)
    if stream_ran_out:
        print(f"perfbench: the {len(batches)}-batch stream ended after {wall:.1f} s",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
