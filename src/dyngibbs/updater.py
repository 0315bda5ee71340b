"""Dynamic updates: transform an execution log for one instance into a log
for a modified instance, touching only the transitions that can tell the two
apart.

The log is rewritten in place through at most three phases, each taking the
chain law from one instance to the next:

    added vertices -> coupled replay -> deleted vertices -> length correction

The added vertices enter isolated with their final potentials, the replay
carries every potential edit and every edge deletion and addition at once,
and the deleted vertices leave isolated, with the potentials they had. The
replay advances the recorded chain (X) alongside the target chain (Y) and
visits only the ranks where the two can disagree. Disagreements are tracked
in a set D. A rank needs a visit iff its vertex was touched (an endpoint of
an edge whose presence changes, redrawn fresh from the new law), it is a
pre-sampled correction rank of a vertex whose potentials changed, its
vertex's boundary intersects D, or its vertex itself sits in D. At an
untouched vertex the recorded draw is coupled maximally with a draw under
Y's boundary, then corrected at a filter rank. Everything else is provably
identical on both chains and is skipped.

Every chain starts with each vertex at the first spin its own potential
allows, whatever the edges, so only a potential edit moves X0: at a vertex
whose first allowed spin changes, which enters D at rank 0. A weight flipped
between finite and -inf is replayed like any other potential edit; no chain
is ever regenerated.

Cost model. An edit costs its footprint, not the size of the model. The plan
resolves each phase once per batch, from the batch's own records, into a
record every chain shares: its instance pair, the touched endpoints, the
moved starts, the filter bounds or the vertex ids. That costs
O(|batch| * Δ) plus C-level copies of the instance maps a phase changes,
and a phase is valid by construction, so no chain re-checks it. The chains
then only draw: a replay costs O(visits) and takes the instance's adjacency
mapping by reference. Each instance caches its local views, so a view is
built once per instance, on its first visit, for the whole pool. A vertex
phase rewrites each log once, O(n + T) per chain: it builds the new columns
and reloads them, with no inner rank edits (see execlog). A pool that shrinks
parks its tail chains and restores them when it grows again, so a fresh
O(T) run is drawn only when no parked chain is left (see ChainSet).

Only the final instance is checked for feasibility, in O(|touched|) from
the answer carried forward from the current instance. The replay's ends add
only isolated vertices, each with a potential that allows a spin, to the
current and the final instance, so they are feasible when those are.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, Optional

from .coupling import correction_kernel, maximal_couple_conditional, p_up
from .engine import ChainParams, length_fix, mixing_length, run_chain
from .errors import InfeasibleInstance
from .execlog import ExecutionLog
from .inference import DiffEntry, SampleDiff, ScheduleFns
from .mrf import (
    AddVertex,
    MrfInstance,
    UpdateBatch,
    instance_delta,
    local_restriction,
    start_spin,
    validate_feasibility,
)
from .rng import (
    BASELINE_STREAM_OFFSET,
    categorical,
    geometric_skip,
    make_stream,
    rekey,
    uniform_index,
    update_stream,
)


# ---------------------------------------------------------------------------
# Correction filter
# ---------------------------------------------------------------------------

def build_filter(
    log: ExecutionLog, pbar: Mapping[int, float], rng
) -> tuple[int, ...]:
    """Mark each transition of vertex v independently with probability
    pbar[v], by skip-sampling over its rank list; returns the marked ranks,
    ascending. Vertices ascending, so the draw order is reproducible."""
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
    return tuple(steps)


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
                 extra: frozenset):
        self.log = log
        self.adj = adj
        self.extra = extra
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


def _replay(phase: _Phase, log: ExecutionLog, rng, fsteps) -> int:
    """Replay the log from phase.before's law to phase.after's, in place;
    returns the number of ranks visited.

    Each (v, y0) of phase.starts moves Y0's spin at v to y0, and v enters
    the disagreement set at rank 0 holding X0's spin.

    A touched vertex is redrawn fresh from the new conditional under the Y
    boundary at each of its transitions (always one uniform: the product
    coupling). Any other vertex couples the recorded draw maximally with a
    draw from the old law under the Y boundary when the two boundaries
    differ, and at a filter rank (fsteps, ascending) then draws a
    correction coin (always one uniform) that decides whether Y is redrawn
    from the kernel mapping the old conditional onto the new one.
    """
    old, new = phase.before, phase.after
    touched, pbar = phase.touched, phase.pbar
    adj = old.adjacency()
    rp = _Replay(log, adj, touched)
    for v, y0 in phase.starts:
        x0 = log.evaluate(0, v)
        log.set_initial(v, y0)
        rp.record(v, x0, y0)
    d_x = rp.d_x
    nf = len(fsteps)
    fi = 0
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
            view_n = local_restriction(new, v)
            tau = {u: rp.yval(tp, u) for u in view_n.neighbors}
            y = categorical(view_n.conditional(tau), rand())
        else:
            nbrs = adj[v]
            tau = None
            if any(u in d_x for u in nbrs):
                view_o = local_restriction(old, v)
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
                    local_restriction(old, v), local_restriction(new, v), tau
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


def update_hamiltonian(phase: _Phase, log: ExecutionLog, fsteps, rng) -> int:
    """Replay the log across a replay phase that changes only potentials,
    with fsteps the filter ranks build_filter marked with phase.pbar.
    Returns the number of ranks visited. A weight flipped between finite and
    -inf gets p_up 1, so every transition of the vertices it touches is a
    filter rank."""
    return _replay(phase, log, rng, fsteps)


def update_edge(phase: _Phase, log: ExecutionLog, fsteps, rng) -> int:
    """Replay the log across a replay phase that deletes or adds edges, and
    may change potentials too. Returns the number of ranks visited.

    phase.touched, the endpoints of the changed edges, are redrawn fresh
    from the new conditional at every one of their transitions. Any other
    vertex keeps its neighbour set, so its potential edits are corrected at
    the filter ranks fsteps as in update_hamiltonian.
    """
    return _replay(phase, log, rng, fsteps)


# ---------------------------------------------------------------------------
# Vertex-set phases
# ---------------------------------------------------------------------------

def add_vertices(phase: _Phase, log: ExecutionLog, rng) -> None:
    """Splice phase.vertices, added isolated, into the log without changing
    its length.

    The sites going to new vertices are chosen Bernoulli(s / (s + n)) per
    rank; the tail of the old run is dropped to make room, then each chosen
    site gets a uniform new vertex and a spin from its own potential. The
    result is distributed as a fresh run of the enlarged instance. The log
    is rewritten once: new columns from the kept prefix, one reload.
    """
    added, after = phase.vertices, phase.after
    T = log.length
    s = len(added)
    p = s / (s + phase.before.n)
    marks: list[int] = []
    pos = 0
    while True:
        pos += geometric_skip(p, rng.random())
        if pos > T:
            break
        marks.append(pos)
    initial = log.initial_config()
    for a in added:
        initial[a] = start_spin(after.vertex_potential(a).weights)
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


def delete_vertices(phase: _Phase, log: ExecutionLog) -> None:
    """Remove phase.vertices, isolated, and every transition touching them.
    The log gets shorter; execute_update's length correction extends it
    under the shrunk instance. The log is rewritten once: filtered columns,
    one reload."""
    removed = phase.vertices
    initial = log.initial_config()
    for v in removed:
        del initial[v]
    verts, spins = (col[:] for col in log.columns())
    for r in sorted((r for v in removed for r in log.steps_of(v)), reverse=True):
        del verts[r - 1], spins[r - 1]
    log.load_run(initial, verts, spins)


# ---------------------------------------------------------------------------
# Full update pipeline
# ---------------------------------------------------------------------------

@dataclass
class UpdateMetrics:
    """Work accounting for one chain's update: the replay's visits in r_ham
    when it changes only potentials, in r_graph when it changes edges, and
    its filter size. regenerated is always False (no chain is regenerated);
    it stays because the benchmark reports it."""

    r_ham: int = 0
    r_graph: int = 0
    filter_size: int = 0
    regenerated: bool = False
    wall_time: float = 0.0
    phase_wall: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Phase:
    """One planned phase: its instance pair and everything about it that is
    the same for every chain, so a chain's phase only draws.

    touched: the endpoints of the edges whose presence changes (replay).
    starts: (v, y0) for each vertex whose first allowed spin moves,
        ascending (replay).
    pbar: the filter bounds of the vertices named by potential edits, less
        the touched ones, which are redrawn fresh anyway (replay).
    vertices: the ids added or removed, ascending (vertex phases).

    The local views come from before and after themselves, which cache them,
    so every chain's replay shares them.
    """

    name: str
    before: MrfInstance
    after: MrfInstance
    touched: frozenset = frozenset()
    starts: tuple = ()
    pbar: Mapping[int, float] = field(default_factory=dict)
    vertices: tuple = ()


@dataclass(frozen=True)
class _UpdatePlan:
    # Everything chain-independent about a batch; drawing stays per chain.
    final: MrfInstance
    target: int
    phases: tuple[_Phase, ...]


def plan_update(
    inst: MrfInstance, batch: UpdateBatch, params: ChainParams
) -> _UpdatePlan:
    """Resolve the batch into its phases; no randomness involved, so one plan
    serves every chain.

    Everything is read off the batch's own records: the net change of each
    named vertex and edge gives the added and doomed vertices, the touched
    endpoints and the vertices whose potentials change. The last phase leads
    to the batch's own final instance, and an earlier one to an instance
    derived in one step: the current one plus the added vertices, isolated,
    or the final one plus the doomed vertices, isolated with their old
    potentials. So the plan costs O(|batch| * Δ) plus C-level copies of the
    maps each phase changes, and each phase is valid by construction: no
    chain re-checks it. A vertex potential that excludes every spin raises
    InfeasibleInstance.
    """
    final = inst.apply_batch(batch)
    target = mixing_length(final.n, params)
    dv, de = instance_delta(inst, final)
    added, doomed, starts = [], [], []
    named: set[int] = set()
    for v in sorted(dv):
        was, now = inst.has_vertex(v), final.has_vertex(v)
        if was and now:
            pv = final.vertex_potential(v)
            if pv != inst.vertex_potential(v):
                named.add(v)
                try:
                    y0 = start_spin(pv.weights)
                    moved = y0 != start_spin(inst.vertex_potential(v).weights)
                except InfeasibleInstance:
                    raise InfeasibleInstance(f"vertex {v}: every spin excluded") from None
                if moved:
                    starts.append((v, y0))
        elif now:
            added.append(v)
        elif was:
            doomed.append(v)
    touched: set[int] = set()
    for u, w in de:
        was, now = inst.has_edge(u, w), final.has_edge(u, w)
        if was != now:
            touched.update((u, w))
        elif was and final.edge_potential(u, w) != inst.edge_potential(u, w):
            named.update((u, w))
    replay = bool(touched or named)
    # The replay runs from start to end. The last phase ends at final
    # itself; an earlier one ends at an instance derived in one step.
    start, end = inst, final
    if added:
        start = final if not (replay or doomed) else inst.apply_batch(
            UpdateBatch(AddVertex(a, final.vertex_potential(a)) for a in added))
    if doomed:
        end = start if not replay else final.apply_batch(
            UpdateBatch(AddVertex(v, inst.vertex_potential(v)) for v in doomed))
    phases = []
    if added:
        phases.append(_Phase("add_vertices", inst, start, vertices=tuple(added)))
    if replay:
        pbar: dict[int, float] = {}
        for v in sorted(named - touched):
            pv = p_up(local_restriction(start, v), local_restriction(end, v))
            if pv > 0.0:
                pbar[v] = pv
        phases.append(_Phase("replay", start, end, touched=frozenset(touched),
                             starts=tuple(starts), pbar=pbar))
    if doomed:
        phases.append(_Phase("delete_vertices", end, final, vertices=tuple(doomed)))
    return _UpdatePlan(final, target, tuple(phases))


def execute_update(plan: _UpdatePlan, log: ExecutionLog, rng) -> UpdateMetrics:
    """Run the planned phases against one chain's log, in place.

    The phase functions are called through this module's globals, so a
    wrapper set on them sees every phase: perfbench/tracing.py does that to
    split the per-phase times.
    """
    t0 = time.perf_counter()
    m = UpdateMetrics()
    for phase in plan.phases:
        p0 = time.perf_counter()
        name = phase.name
        if name == "add_vertices":
            add_vertices(phase, log, rng)
        elif name == "delete_vertices":
            delete_vertices(phase, log)
        else:
            fsteps = build_filter(log, phase.pbar, rng)
            m.filter_size = len(fsteps)
            # One replay under two names, so a tracer can tell the replays
            # that change edges from those that change only potentials.
            if phase.touched:
                m.r_graph = update_edge(phase, log, fsteps, rng)
            else:
                m.r_ham = update_hamiltonian(phase, log, fsteps, rng)
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

# At most this many chains stay parked after a shrink; apply_update_multi
# drops the highest indices beyond it. A parked chain is updated with every
# batch, so a pool that shrinks and never grows back pays for this many extra
# chains per batch for good.
MAX_PARKED = 1


@dataclass
class ChainSet:
    """The maintained pool of independent chains for one evolving instance.

    Chain identity is positional: resizing only ever pops from or appends to
    the tail, so surviving chains keep their indices across updates. A chain
    popped on a shrink is parked, not discarded: parked[k] holds chain index
    len(logs) + k, so the parked chains continue the tail without gaps. A
    parked chain is updated with every batch like an active one, is never in
    samples(), and is restored, lowest index first, when the count grows.

    Stream ids never repeat: fresh chains take consecutive baseline streams,
    update draws take (epoch, chain)-keyed streams from a disjoint range. A
    parked chain keeps drawing on its own index's keys, so it is bit for bit
    the chain that a pool whose count never dropped would hold at that index.
    """

    inst: MrfInstance
    logs: list[ExecutionLog]
    params: ChainParams
    schedule: ScheduleFns
    next_stream: int
    epoch: int = 0
    parked: list[ExecutionLog] = field(default_factory=list)

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


def _update_one_chain(plan, log, rng, seed, epoch, i):
    rekey(rng, seed, update_stream(epoch, i))
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
    """Update every chain in the pool, active and parked, and resize it to
    the new sample count.

    All or nothing on infeasible batches: the planned instance is checked
    in O(|touched|) with the answer carried forward from cs.inst, before any
    chain is touched, and InfeasibleInstance leaves the pool (its parked
    chains included), its instance, epoch and stream counter as they were.
    So does DegreeTooLarge, raised when a vertex the check must enumerate is
    over the cap. Every phase's instance is feasible when cs.inst and the
    planned one are (see the module docstring), so a batch is accepted
    whenever its end is feasible, -inf potential edits that rely on an edge
    deletion of the same batch included.

    Costs O(|batch| * Δ) for the plan plus, per chain, parked ones
    included, O(visits) and O(n + T) for each vertex phase, which rewrites
    the log once. One Philox generator serves the pool: each chain re-keys
    it to its own update stream, which draws what a new generator would.
    Chains are updated one after another in index order, so the parked ones
    come last, and metrics holds one entry per updated chain in that order.

    Then the pool is resized. A shrink parks the popped tail chains, keeping
    at most MAX_PARKED of them, lowest indices first, so parking adds at
    most that many chain updates to every batch. A growth restores parked
    chains first, which costs no steps and leaves next_stream alone, and
    runs a fresh run_chain (O(T)) on the next baseline stream only for each
    index no parked chain is left for. The
    count's changes depend only on n, never on a chain's draws, so a
    restored chain is distributed as a fresh run, like every other chain.

    Returns the exact diff of the active pool's sample set, assembled from
    each active log's final-config journal, which holds only the vertices
    whose final spin changed, so downstream estimators never rescan whole
    configurations. A parked or restored chain enters it as a removal or
    addition of its whole final configuration. The influence
    check under ``--delta check`` is not part of this call: the caller runs
    it on cs.inst afterwards, and it costs O(|touched|) there (see
    mrf.dobrushin_check).
    """
    plan = plan_update(cs.inst, batch, cs.params)
    rep = validate_feasibility(plan.final)
    if not rep.ok:
        raise InfeasibleInstance(
            "instance after the batch is infeasible at vertex "
            f"{rep.vertex} under boundary {dict(rep.boundary)}"
        )
    entries: list[DiffEntry] = []
    metrics: list[UpdateMetrics] = []
    seed, epoch = cs.params.seed, cs.epoch
    rng = make_stream(seed)  # one generator, re-keyed for each chain
    for i, log in enumerate(cs.logs):
        chain_entries, met = _update_one_chain(plan, log, rng, seed, epoch, i)
        entries.extend(chain_entries)
        metrics.append(met)
    # A parked chain is in no sample, so it keeps no journal.
    for i, log in enumerate(cs.parked, len(cs.logs)):
        rekey(rng, seed, update_stream(epoch, i))
        metrics.append(execute_update(plan, log, rng))
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
        cs.parked.insert(0, dead)
    del cs.parked[MAX_PARKED:]
    while len(cs.logs) < count:
        i = len(cs.logs)
        if cs.parked:
            log = cs.parked.pop(0)
        else:
            log = run_chain(plan.final, cs.params, cs.next_stream)
            cs.next_stream += 1
        cs.logs.append(log)
        added.append(i)
        for v, c in sorted(log.final_config().items()):
            entries.append(DiffEntry(i, v, None, c))
    return (
        SampleDiff(
            entries=tuple(entries),
            added_chains=tuple(added),
            removed_chains=tuple(sorted(removed)),
        ),
        metrics,
    )
