"""Dynamic updates: transform an execution log for one instance into a log
for a modified instance, touching only the transitions that can tell the two
apart.

The log is rewritten in place through a sequence of phases, each taking the
chain law from one instance to the next:

    potentials -> added vertices -> deleted edges -> added edges
               -> deleted vertices -> length correction

The potential phase and both edge phases run one coupled replay: the
recorded chain (X) is advanced alongside the target chain (Y), and only the
ranks where the two can disagree are visited. Disagreements are tracked in a
set D. A rank needs a visit iff its vertex was touched (an endpoint of a
changed edge, redrawn fresh from the new law), it is a pre-sampled
correction rank of the potential phase, its vertex's boundary intersects D,
or its vertex itself sits in D. At an untouched vertex the recorded draw is
coupled maximally with a draw under Y's boundary, then corrected at a filter
rank. Everything else is provably identical on both chains and is skipped.

Cost model. An edit costs its footprint, not the size of the model. The plan
is built once per batch from the batch's own records: O(|batch| * Δ) plus
C-level copies of the instance maps a phase changes; every intermediate
instance is derived from the one before it, so each phase's precondition
check compares only the items the batch named. Each chain then costs
O(visits): the replays take the instance's adjacency mapping by reference
and do no work proportional to n or m. A vertex phase rewrites each log
once, O(n + T) per chain: it builds the new columns and reloads them, with
no inner rank edits (see execlog). The feasibility of the planned
instance is decided before any chain is touched, from the answer carried
forward from the current instance, in O(|touched|).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Optional

from .coupling import correction_kernel, maximal_couple_conditional, p_up
from .engine import ChainParams, fresh_run, length_fix, mixing_length, run_chain
from .errors import (
    GraphMismatch,
    InfeasibleInstance,
    NotIsolated,
    SharedPotentialMismatch,
    VertexSetMismatch,
)
from .execlog import ExecutionLog
from .inference import DiffEntry, SampleDiff, ScheduleFns
from .mrf import (
    NEG_INF,
    AddEdge,
    AddVertex,
    DeleteEdge,
    DeleteVertex,
    LocalView,
    MrfInstance,
    SetEdgePotential,
    SetVertexPotential,
    UpdateBatch,
    instance_delta,
    instance_diff,
    local_restriction,
    validate_feasibility,
)
from .rng import (
    BASELINE_STREAM_OFFSET,
    categorical,
    geometric_skip,
    make_stream,
    uniform_index,
    update_stream,
)


# ---------------------------------------------------------------------------
# Correction filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterSet:
    """Pre-sampled correction ranks plus the per-vertex probability bounds
    they were thinned with."""

    steps: tuple[int, ...]
    pbar: Mapping[int, float]

    def __len__(self) -> int:
        return len(self.steps)


def build_filter(
    log: ExecutionLog, pbar: Mapping[int, float], rng
) -> FilterSet:
    """Mark each transition of vertex v independently with probability
    pbar[v], by skip-sampling over its rank list. Vertices ascending, so the
    draw order is reproducible."""
    steps: list[int] = []
    for v in sorted(pbar):
        p = pbar[v]
        if p <= 0.0:
            continue
        rs = log.steps_of(v)
        if p >= 1.0:
            steps.extend(rs)
            continue
        i = -1
        while True:
            i += geometric_skip(p, rng.random())
            if i >= len(rs):
                break
            steps.append(rs[i])
    steps.sort()
    return FilterSet(steps=tuple(steps), pbar=dict(pbar))


# ---------------------------------------------------------------------------
# Coupled replay
# ---------------------------------------------------------------------------

class _Replay:
    """Disagreement set and event queue for one coupled replay pass.

    d_x / d_y hold both chains' values wherever they differ; everywhere else
    the log itself is correct for both. The heap holds candidate ranks, one
    chain of entries per watched vertex: an entry at or behind the frontier
    re-arms to the vertex's next transition when popped, and an entry for a
    vertex that is no longer watched is dropped. Duplicate entries are
    harmless, so joins arm unconditionally.
    """

    __slots__ = ("log", "adj", "extra", "d_x", "d_y", "heap", "frontier")

    def __init__(self, log: ExecutionLog, adj: Mapping[int, tuple[int, ...]],
                 extra=()):
        self.log = log
        self.adj = adj
        self.extra = frozenset(extra)
        self.d_x: dict[int, int] = {}
        self.d_y: dict[int, int] = {}
        self.heap: list[tuple[int, int]] = []
        self.frontier = 0
        for u in sorted(self.extra):
            self.arm(u, 0)

    def watched(self, u: int) -> bool:
        if u in self.extra or u in self.d_x:
            return True
        d_x = self.d_x
        for w in self.adj[u]:
            if w in d_x:
                return True
        return False

    def arm(self, u: int, t: int) -> None:
        s = self.log.successor(t, u)
        if s is not None:
            heappush(self.heap, (s, u))

    def next_event(self) -> Optional[int]:
        heap = self.heap
        while heap:
            t, u = heap[0]
            if not self.watched(u):
                heappop(heap)
            elif t <= self.frontier:
                heappop(heap)
                self.arm(u, self.frontier)
            else:
                return t
        return None

    def xval(self, t: int, u: int) -> int:
        if u in self.d_x:
            return self.d_x[u]
        return self.log.evaluate(t, u)

    def yval(self, t: int, u: int) -> int:
        if u in self.d_y:
            return self.d_y[u]
        return self.log.evaluate(t, u)

    def record(self, v: int, x: int, y: int) -> None:
        # Call with frontier already at the visited rank: join arms start there.
        if x != y:
            joined = v not in self.d_x
            self.d_x[v] = x
            self.d_y[v] = y
            if joined:
                self.arm(v, self.frontier)
                for u in self.adj[v]:
                    self.arm(u, self.frontier)
        else:
            self.d_x.pop(v, None)
            self.d_y.pop(v, None)


def _view(cache: dict, inst: MrfInstance, v: int) -> LocalView:
    view = cache.get(v)
    if view is None:
        view = cache[v] = local_restriction(inst, v)
    return view


def _replay(
    old: MrfInstance,
    new: MrfInstance,
    log: ExecutionLog,
    rng,
    touched=frozenset(),
    filt: Optional[FilterSet] = None,
) -> int:
    """Replay the log from old's law to new's, in place; returns the number
    of ranks visited.

    A touched vertex is redrawn fresh from the new conditional under the Y
    boundary at each of its transitions (always one uniform: the product
    coupling). Any other vertex couples the recorded draw maximally with a
    draw from the old law under the Y boundary when the two boundaries
    differ, and at a filter rank then draws a correction coin (always one
    uniform) that decides whether Y is redrawn from the kernel mapping the
    old conditional onto the new one.
    """
    adj = old.adjacency()
    rp = _Replay(log, adj, extra=touched)
    touched = rp.extra
    d_x = rp.d_x
    fsteps = filt.steps if filt is not None else ()
    pbar = filt.pbar if filt is not None else {}
    nf = len(fsteps)
    fi = 0
    old_views: dict[int, LocalView] = {}
    new_views: dict[int, LocalView] = {}
    visits = 0
    rand = rng.random
    while True:
        while fi < nf and fsteps[fi] <= rp.frontier:
            fi += 1
        fe = fsteps[fi] if fi < nf else None
        t = rp.next_event()
        if t is None or (fe is not None and fe < t):
            t = fe
        if t is None:
            break
        tr = log.at(t)
        v = tr.vertex
        x_new = tr.spin
        tp = t - 1
        if v in touched:
            view_n = _view(new_views, new, v)
            tau = {u: rp.yval(tp, u) for u in view_n.neighbors}
            y = categorical(view_n.conditional(tau), rand())
        else:
            nbrs = adj[v]
            tau = None
            if any(u in d_x for u in nbrs):
                view_o = _view(old_views, old, v)
                sigma = {u: rp.xval(tp, u) for u in nbrs}
                tau = {u: rp.yval(tp, u) for u in nbrs}
                y = maximal_couple_conditional(
                    view_o.conditional(sigma), view_o.conditional(tau), x_new, rng
                )
            else:
                # Boundaries agree, so the maximal coupling is the identity.
                y = x_new
            if t == fe:
                if tau is None:
                    tau = {u: rp.yval(tp, u) for u in nbrs}
                kern = correction_kernel(
                    _view(old_views, old, v), _view(new_views, new, v), tau
                )
                coin = rand()
                if kern.nu is not None and coin * pbar[v] < kern.p[y]:
                    y = categorical(kern.nu, rand())
        rp.frontier = t
        rp.record(v, x_new, y)
        if y != x_new:
            log.change(t, y)
        visits += 1
    return visits


def update_hamiltonian(
    old_inst: MrfInstance,
    new_inst: MrfInstance,
    log: ExecutionLog,
    filt: FilterSet,
    rng,
) -> int:
    """Replay the log from old_inst's law to new_inst's; same graph, changed
    potentials. Returns the number of ranks visited.

    At a visited rank the recorded draw is coupled maximally with a draw from
    the old law under the Y boundary; at a filter rank a correction coin
    (always one uniform) decides whether Y is redrawn from the kernel that
    maps the old conditional onto the new one.
    """
    dv, de = instance_delta(old_inst, new_inst)
    if _presence_changes(old_inst, new_inst, dv, de):
        raise GraphMismatch("potential phase requires identical graphs")
    return _replay(old_inst, new_inst, log, rng, filt=filt)


def update_edge(
    old_inst: MrfInstance,
    new_inst: MrfInstance,
    log: ExecutionLog,
    rng,
) -> int:
    """Replay the log across an edge-set change; same vertices and vertex
    potentials, shared edges unchanged. Returns the number of ranks visited.

    Endpoints of changed edges are redrawn fresh from the new conditional at
    every one of their transitions (always one uniform: the product
    coupling). Other vertices only react to disagreement reaching their
    boundary, through the maximal coupling of two old-law conditionals, which
    is sound because no edge incident to them changed.
    """
    dv, de = instance_delta(old_inst, new_inst)
    if _presence_changes(old_inst, new_inst, dv, ()):
        raise VertexSetMismatch("edge phase cannot change the vertex set")
    _check_shared_potentials(old_inst, new_inst, dv, de)
    touched = set()
    for e in _presence_changes(old_inst, new_inst, (), de):
        touched.update(e)
    return _replay(old_inst, new_inst, log, rng, touched=touched)


# ---------------------------------------------------------------------------
# Vertex-set phases
# ---------------------------------------------------------------------------

def _presence_changes(before: MrfInstance, after: MrfInstance, dv, de) -> list:
    """The vertices of dv, then the edges of de, present in exactly one of
    the two instances; ascending."""
    out = [v for v in sorted(dv) if before.has_vertex(v) != after.has_vertex(v)]
    out += [e for e in sorted(de) if before.has_edge(*e) != after.has_edge(*e)]
    return out


def _check_shared_potentials(before: MrfInstance, after: MrfInstance, dv, de) -> None:
    """Raise on the first item of dv, then de, present in both instances with
    different potentials; ascending, as a full scan would meet them."""
    for v in sorted(dv):
        if before.has_vertex(v) and after.has_vertex(v):
            if before.vertex_potential(v) != after.vertex_potential(v):
                raise SharedPotentialMismatch(f"vertex {v} potential differs")
    for e in sorted(de):
        if before.has_edge(*e) and after.has_edge(*e):
            if before.edge_potential(*e) != after.edge_potential(*e):
                raise SharedPotentialMismatch(f"edge {e} potential differs")


def _check_vertex_phase(before: MrfInstance, after: MrfInstance, dv, de) -> None:
    # Shared vertex potentials, then the edge set, then shared edge potentials.
    _check_shared_potentials(before, after, dv, ())
    if _presence_changes(before, after, (), de):
        raise GraphMismatch("edge set must not change in a vertex phase")
    _check_shared_potentials(before, after, (), de)


def _isolated_initial(inst: MrfInstance, v: int) -> int:
    for c, w in enumerate(inst.vertex_potential(v).weights):
        if w > NEG_INF:
            return c
    raise InfeasibleInstance(f"vertex {v}: every spin excluded")


def add_vertices(
    before: MrfInstance, after: MrfInstance, log: ExecutionLog, rng
) -> None:
    """Splice isolated new vertices into the log without changing its length.

    The sites going to new vertices are chosen Bernoulli(s / (s + n)) per
    rank; the tail of the old run is dropped to make room, then each chosen
    site gets a uniform new vertex and a spin from its own potential. The
    result is distributed as a fresh run of the enlarged instance. The log
    is rewritten once: new columns from the kept prefix, one reload.
    """
    dv, de = instance_delta(before, after)
    changed = _presence_changes(before, after, dv, ())
    if any(before.has_vertex(v) for v in changed):
        raise GraphMismatch("additions only: vertices missing from the target")
    added = changed
    for a in added:
        if after.degree(a):
            raise NotIsolated(f"vertex {a} must be added isolated")
    _check_vertex_phase(before, after, dv, de)
    if not added:
        return
    T = log.length
    s = len(added)
    p = s / (s + before.n)
    marks: list[int] = []
    pos = 0
    while True:
        pos += geometric_skip(p, rng.random())
        if pos > T:
            break
        marks.append(pos)
    initial = log.initial_config()
    for a in added:
        initial[a] = _isolated_initial(after, a)
    verts, spins = (col[:T - len(marks)] for col in log.columns())
    exp = math.exp
    weights: dict[int, list[float]] = {}
    for r in marks:
        u = added[uniform_index(s, rng.random())]
        w = weights.get(u)
        if w is None:
            phi = after.vertex_potential(u).weights
            m = max(phi)
            w = [exp(x - m) for x in phi]
            weights[u] = w
        verts.insert(r - 1, u)
        spins.insert(r - 1, categorical(w, rng.random()))
    log.load_run(initial, verts, spins)


def delete_vertices(
    before: MrfInstance, after: MrfInstance, log: ExecutionLog, rng
) -> None:
    """Remove isolated vertices and every transition touching them, then
    extend the tail back to the original length under the shrunk instance.
    The log is rewritten once: filtered columns, one reload."""
    dv, de = instance_delta(before, after)
    changed = _presence_changes(before, after, dv, ())
    if any(after.has_vertex(v) for v in changed):
        raise GraphMismatch("deletions only: unexpected new vertices")
    removed = changed
    for v in removed:
        if before.degree(v):
            raise NotIsolated(f"vertex {v} must be isolated before deletion")
    _check_vertex_phase(before, after, dv, de)
    if not removed:
        return
    T = log.length
    initial = log.initial_config()
    for v in removed:
        del initial[v]
    verts, spins = (col[:] for col in log.columns())
    for r in sorted((r for v in removed for r in log.steps_of(v)), reverse=True):
        del verts[r - 1], spins[r - 1]
    log.load_run(initial, verts, spins)
    length_fix(after, log, T, rng)


# ---------------------------------------------------------------------------
# Full update pipeline
# ---------------------------------------------------------------------------

@dataclass
class UpdateMetrics:
    """Work accounting for one chain's update."""

    r_ham: int = 0
    r_graph: int = 0
    filter_size: int = 0
    regenerated: bool = False
    wall_time: float = 0.0
    phase_wall: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _UpdatePlan:
    # Instance pipeline shared by every chain; drawing stays per chain.
    final: MrfInstance
    target: int
    regenerate: bool
    pbar: Mapping[int, float]
    phases: tuple  # (name, before_inst, after_inst) triples, in order


def plan_update(
    inst: MrfInstance, batch: UpdateBatch, params: ChainParams
) -> _UpdatePlan:
    """Resolve the batch into the phase pipeline; no randomness involved, so
    one plan serves every chain.

    Everything is read off the batch's own records: the net change of each
    named vertex and edge gives the potential records and the phase lists,
    and every intermediate instance is derived from the one before it, so
    the plan costs O(|batch| * Δ) plus C-level copies of the maps each phase
    changes, and each phase's precondition check costs O(|batch|).
    """
    final = inst.apply_batch(batch)
    target = mixing_length(final.n, params)
    dv, de = instance_delta(inst, final)
    recs = []
    added, doomed, adds, dels = [], [], [], []
    for v in sorted(dv):
        was, now = inst.has_vertex(v), final.has_vertex(v)
        if was and now:
            pv = final.vertex_potential(v)
            if pv != inst.vertex_potential(v):
                recs.append(SetVertexPotential(v, pv))
        elif now:
            added.append(v)
        elif was:
            doomed.append(v)
    for u, w in sorted(de):
        was, now = inst.has_edge(u, w), final.has_edge(u, w)
        if was and now:
            pe = final.edge_potential(u, w)
            if pe != inst.edge_potential(u, w):
                recs.append(SetEdgePotential(u, w, pe))
        elif now:
            adds.append((u, w))
        elif was:
            dels.append((u, w))
    mid = inst.apply_batch(UpdateBatch(recs)) if recs else inst
    if math.isinf(instance_diff(inst, mid).d_ham):
        # A shared potential flipped between finite and -inf: the correction
        # bound is useless, regenerate the whole run instead.
        return _UpdatePlan(final, target, True, {}, ())
    phases = []
    pbar: dict[int, float] = {}
    if recs:
        affected = set()
        for r in recs:
            if isinstance(r, SetVertexPotential):
                affected.add(r.vertex)
            else:
                affected.add(r.u)
                affected.add(r.v)
        for v in sorted(affected):
            pv = p_up(local_restriction(inst, v), local_restriction(mid, v))
            if pv > 0.0:
                pbar[v] = pv
        phases.append(("potentials", inst, mid))
    cur = mid
    steps = (
        ("add_vertices", [AddVertex(a, final.vertex_potential(a)) for a in added]),
        ("delete_edges", [DeleteEdge(u, w) for u, w in dels]),
        ("add_edges", [AddEdge(u, w, final.edge_potential(u, w)) for u, w in adds]),
        ("delete_vertices", [DeleteVertex(v) for v in doomed]),
    )
    for name, records in steps:
        if records:
            nxt = cur.apply_batch(UpdateBatch(records))
            phases.append((name, cur, nxt))
            cur = nxt
    # cur equals final by value; it is the instance the last phase updates
    # the logs to, so it becomes the pool's instance.
    return _UpdatePlan(cur if phases else final, target, False, pbar, tuple(phases))


def execute_update(plan: _UpdatePlan, log: ExecutionLog, rng) -> UpdateMetrics:
    """Run the planned phases against one chain's log, in place."""
    t0 = time.perf_counter()
    m = UpdateMetrics()
    if plan.regenerate:
        log.load_run(*fresh_run(plan.final, plan.target, rng))
        m.regenerated = True
        m.wall_time = time.perf_counter() - t0
        return m
    for name, before, after in plan.phases:
        p0 = time.perf_counter()
        if name == "potentials":
            filt = build_filter(log, plan.pbar, rng)
            m.filter_size = len(filt)
            m.r_ham = update_hamiltonian(before, after, log, filt, rng)
        elif name == "add_vertices":
            add_vertices(before, after, log, rng)
        elif name in ("delete_edges", "add_edges"):
            m.r_graph += update_edge(before, after, log, rng)
        else:
            delete_vertices(before, after, log, rng)
        m.phase_wall[name] = time.perf_counter() - p0
    if log.length != plan.target:
        length_fix(plan.final, log, plan.target, rng)
    m.wall_time = time.perf_counter() - t0
    return m


def apply_update(
    inst: MrfInstance,
    batch: UpdateBatch,
    log: ExecutionLog,
    params: ChainParams,
    rng,
) -> tuple[MrfInstance, UpdateMetrics]:
    """Update one chain's log from inst to inst.apply_batch(batch)."""
    plan = plan_update(inst, batch, params)
    return plan.final, execute_update(plan, log, rng)


# ---------------------------------------------------------------------------
# Chain pools
# ---------------------------------------------------------------------------

@dataclass
class ChainSet:
    """The maintained pool of independent chains for one evolving instance.

    Chain identity is positional: resizing only ever pops from or appends to
    the tail, so surviving chains keep their indices across updates. Stream
    ids never repeat: fresh chains take consecutive baseline streams, update
    draws take (epoch, chain)-keyed streams from a disjoint range.
    """

    inst: MrfInstance
    logs: list[ExecutionLog]
    params: ChainParams
    schedule: ScheduleFns
    next_stream: int
    epoch: int = 0

    def samples(self) -> dict[int, dict[int, int]]:
        return {i: log.final_config() for i, log in enumerate(self.logs)}


def new_chain_set(
    inst: MrfInstance, params: ChainParams, schedule: ScheduleFns
) -> ChainSet:
    count = schedule.sample_count(inst.n)
    logs = [
        run_chain(inst, params, BASELINE_STREAM_OFFSET + i) for i in range(count)
    ]
    return ChainSet(
        inst=inst,
        logs=logs,
        params=params,
        schedule=schedule,
        next_stream=BASELINE_STREAM_OFFSET + count,
    )


def _update_one_chain(plan, log, seed, epoch, i):
    rng = make_stream(seed, update_stream(epoch, i))
    log.begin_final_journal()
    met = execute_update(plan, log, rng)
    journal = log.take_final_journal()
    T = log.length
    entries = []
    for v in sorted(journal):
        old = journal[v]
        new = log.evaluate(T, v) if log.has_vertex(v) else None
        if old != new:
            entries.append(DiffEntry(i, v, old, new))
    return entries, met


def apply_update_multi(
    cs: ChainSet, batch: UpdateBatch
) -> tuple[SampleDiff, list[UpdateMetrics]]:
    """Update every chain in the pool and resize it to the new sample count.

    All or nothing on infeasible batches: the planned instance's feasibility
    is checked, in O(|touched|) with the answer carried forward from cs.inst,
    before any chain is touched, and InfeasibleInstance leaves the pool, its
    instance, epoch and stream counter as they were. So does DegreeTooLarge,
    raised when a vertex the check must enumerate is over the cap.

    Costs O(|batch| * Δ) for the plan plus, per chain, O(visits) and
    O(n + T) for each vertex phase, which rewrites the log once. Returns the
    exact diff of the pool's sample set, assembled from each log's
    final-config journal, so downstream estimators never rescan whole
    configurations.
    Chains are updated one after another in chain order.
    """
    plan = plan_update(cs.inst, batch, cs.params)
    rep = validate_feasibility(plan.final)
    if not rep.ok:
        raise InfeasibleInstance(
            f"updated instance is infeasible at vertex {rep.vertex} under "
            f"boundary {dict(rep.boundary)}"
        )
    entries: list[DiffEntry] = []
    metrics: list[UpdateMetrics] = []
    seed, epoch = cs.params.seed, cs.epoch
    for i, log in enumerate(cs.logs):
        chain_entries, met = _update_one_chain(plan, log, seed, epoch, i)
        entries.extend(chain_entries)
        metrics.append(met)
    cs.inst = plan.final
    cs.epoch += 1
    count = cs.schedule.sample_count(plan.final.n)
    removed: list[int] = []
    added: list[int] = []
    while len(cs.logs) > count:
        dead = cs.logs.pop()
        i = len(cs.logs)
        removed.append(i)
        for v, c in sorted(dead.final_config().items()):
            entries.append(DiffEntry(i, v, c, None))
    while len(cs.logs) < count:
        i = len(cs.logs)
        fresh = run_chain(plan.final, cs.params, cs.next_stream)
        cs.next_stream += 1
        cs.logs.append(fresh)
        added.append(i)
        for v, c in sorted(fresh.final_config().items()):
            entries.append(DiffEntry(i, v, None, c))
    return (
        SampleDiff(
            entries=tuple(entries),
            added_chains=tuple(added),
            removed_chains=tuple(sorted(removed)),
        ),
        metrics,
    )
