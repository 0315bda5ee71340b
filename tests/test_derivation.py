"""Derived instances against from-scratch ones, and the batch-derived plan
against a full-scan reference plan.

``apply_batch`` derives a child from its parent by sharing or C-level copying
the parent's maps and touching only what the batch names; ``plan_update``
reads its records and phases off the batch. The references below rebuild
every instance from scratch and compare whole vertex and edge sets, as the
library did before derivation; both must agree on every observable.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyngibbs.coupling import p_up
from dyngibbs.engine import ChainParams, mixing_length
from dyngibbs.errors import DegreeTooLarge, InfeasibleInstance, InvalidBatch
from dyngibbs.mrf import (
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
    edge_key,
    local_restriction,
    start_spin,
    validate_feasibility,
)
from dyngibbs.updater import plan_update

WEIGHTS = (0.0, 0.4, -0.7, 1.1, NEG_INF)
IDS = range(9)


# ---------------------------------------------------------------------------
# Full-scan references
# ---------------------------------------------------------------------------

def reference_apply(inst: MrfInstance, batch) -> MrfInstance:
    """Copy every map, apply the records in order, rebuild from scratch."""
    q = inst.q
    vertices = {v: inst.vertex_potential(v) for v in inst.vertex_ids()}
    edges = {k: inst.edge_potential(*k) for k in inst.edge_keys()}
    adj = {v: set(inst.neighbors(v)) for v in inst.vertex_ids()}
    for rec in batch:
        if isinstance(rec, AddVertex):
            if rec.vertex in vertices:
                raise InvalidBatch(f"add_vertex: {rec.vertex} already present")
            if len(rec.potential) != q:
                raise InvalidBatch(f"vertex potential length {len(rec.potential)} != q={q}")
            vertices[rec.vertex] = rec.potential
            adj[rec.vertex] = set()
        elif isinstance(rec, DeleteVertex):
            if rec.vertex not in vertices:
                raise InvalidBatch(f"del_vertex: {rec.vertex} not present")
            if adj[rec.vertex]:
                raise InvalidBatch(f"del_vertex: {rec.vertex} is not isolated")
            del vertices[rec.vertex]
            del adj[rec.vertex]
        elif isinstance(rec, AddEdge):
            key = edge_key(rec.u, rec.v)
            if rec.u == rec.v:
                raise InvalidBatch(f"add_edge: self-loop on {rec.u}")
            if rec.u not in vertices or rec.v not in vertices:
                raise InvalidBatch(f"add_edge: missing endpoint in {key}")
            if key in edges:
                raise InvalidBatch(f"add_edge: {key} already present")
            if len(rec.potential) != q:
                raise InvalidBatch(f"edge potential size {len(rec.potential)} != q={q}")
            edges[key] = rec.potential
            adj[rec.u].add(rec.v)
            adj[rec.v].add(rec.u)
        elif isinstance(rec, DeleteEdge):
            key = edge_key(rec.u, rec.v)
            if key not in edges:
                raise InvalidBatch(f"del_edge: {key} not present")
            del edges[key]
            adj[rec.u].discard(rec.v)
            adj[rec.v].discard(rec.u)
        elif isinstance(rec, SetVertexPotential):
            if rec.vertex not in vertices:
                raise InvalidBatch(f"set_vertex_phi: {rec.vertex} not present")
            if len(rec.potential) != q:
                raise InvalidBatch(f"vertex potential length {len(rec.potential)} != q={q}")
            vertices[rec.vertex] = rec.potential
        elif isinstance(rec, SetEdgePotential):
            key = edge_key(rec.u, rec.v)
            if key not in edges:
                raise InvalidBatch(f"set_edge_phi: {key} not present")
            if len(rec.potential) != q:
                raise InvalidBatch(f"edge potential size {len(rec.potential)} != q={q}")
            edges[key] = rec.potential
    return MrfInstance(inst.domain, vertices, edges)


def _support(view):
    """Which weights of a local view are -inf."""
    rows = [view.phi] + [r for u in view.neighbors for r in view.edge_phi[u]]
    return [[w == NEG_INF for w in row] for row in rows]


def reference_plan(inst: MrfInstance, batch, params):
    """(final, target, phases) by whole-set comparison, each phase as
    (name, before, after, touched, starts, pbar, vertices): added vertices
    isolated, one replay of every potential and edge change, deleted
    vertices isolated. A weight flipped between finite and -inf gives its
    vertices pbar 1."""
    final = reference_apply(inst, batch)
    target = mixing_length(final.n, params)
    v_old, v_new = set(inst.vertex_ids()), set(final.vertex_ids())
    e_old, e_new = set(inst.edge_keys()), set(final.edge_keys())
    born, dead = sorted(v_new - v_old), sorted(v_old - v_new)
    touched = frozenset(x for e in e_old ^ e_new for x in e)
    named, starts = set(), []
    for v in sorted(v_old & v_new):
        if final.vertex_potential(v) != inst.vertex_potential(v):
            named.add(v)
            y0 = start_spin(final.vertex_potential(v).weights)
            if y0 != start_spin(inst.vertex_potential(v).weights):
                starts.append((v, y0))
    for u, w in e_old & e_new:
        if final.edge_potential(u, w) != inst.edge_potential(u, w):
            named.update((u, w))
    start = reference_apply(inst, [AddVertex(a, final.vertex_potential(a)) for a in born])
    end = reference_apply(final, [AddVertex(v, inst.vertex_potential(v)) for v in dead])
    pbar = {}
    for v in sorted(named - touched):
        a, b = local_restriction(start, v), local_restriction(end, v)
        pv = 1.0 if _support(a) != _support(b) else p_up(a, b)
        if pv > 0.0:
            pbar[v] = pv
    phases = []
    if born:
        phases.append(("add_vertices", inst, start, frozenset(), (), {}, tuple(born)))
    if touched or named:
        phases.append(("replay", start, end, touched, tuple(starts), pbar, ()))
    if dead:
        phases.append(("delete_vertices", end, final, frozenset(), (), {}, tuple(dead)))
    return final, target, tuple(phases)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def vertex_potentials(q):
    return st.lists(st.sampled_from(WEIGHTS), min_size=q, max_size=q).map(VertexPotential)


def edge_potentials(q):
    @st.composite
    def build(draw):
        m = [[0.0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                m[a][b] = m[b][a] = draw(st.sampled_from(WEIGHTS))
        return EdgePotential(m)
    return build()


@st.composite
def instances(draw):
    q = draw(st.sampled_from((2, 3)))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=7, unique=True))
    vertices = {v: draw(vertex_potentials(q)) for v in ids}
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    return MrfInstance(SpinDomain(q), vertices, {p: draw(edge_potentials(q)) for p in chosen})


@st.composite
def batches(draw, inst: MrfInstance):
    """Mostly valid records against inst, sometimes invalid ones. Half the
    potential edits and edge additions name present vertices, so enough
    batches are valid to reach every phase."""
    q = inst.q
    present = set(inst.vertex_ids())
    edges = set(inst.edge_keys())
    recs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ("set_v", "set_e", "add_v", "del_v", "add_e", "del_e")))
        v = draw(st.sampled_from(IDS))
        u = draw(st.sampled_from(IDS))
        if kind == "set_v":
            if present and draw(st.booleans()):
                v = draw(st.sampled_from(sorted(present)))
            recs.append(SetVertexPotential(v, draw(vertex_potentials(q))))
        elif kind == "add_v":
            recs.append(AddVertex(v, draw(vertex_potentials(q))))
            present.add(v)
        elif kind == "del_v":
            # detach first, so deletions are mostly valid
            for e in sorted(e for e in edges if v in e):
                recs.append(DeleteEdge(*e))
                edges.discard(e)
            recs.append(DeleteVertex(v))
            present.discard(v)
        elif kind == "add_e":
            if len(present) > 1 and draw(st.booleans()):
                u, v = draw(st.lists(st.sampled_from(sorted(present)),
                                     min_size=2, max_size=2, unique=True))
            recs.append(AddEdge(u, v, draw(edge_potentials(q))))
            edges.add(edge_key(u, v))
        elif kind == "del_e" and edges:
            e = draw(st.sampled_from(sorted(edges)))
            recs.append(DeleteEdge(*e))
            edges.discard(e)
        elif kind == "set_e" and edges:
            e = draw(st.sampled_from(sorted(edges)))
            recs.append(SetEdgePotential(*e, draw(edge_potentials(q))))
    return UpdateBatch(recs)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def feasibility(inst, cap):
    try:
        return validate_feasibility(inst, degree_cap=cap)
    except DegreeTooLarge as e:
        return ("DegreeTooLarge", str(e))


def snapshot(inst):
    return (
        inst.vertex_ids(),
        inst.edge_keys(),
        {v: inst.neighbors(v) for v in inst.vertex_ids()},
        {v: inst.vertex_potential(v) for v in inst.vertex_ids()},
        {k: inst.edge_potential(*k) for k in inst.edge_keys()},
    )


def compiled_lists(inst):
    c = inst.compiled()
    return (c.q, c.ids, c.index, c.phis, c.nbr_ids, c.nbr_idx, c.mats)


def assert_same_instance(got, want, cap):
    assert got == want
    assert got.n == want.n and got.edge_count() == want.edge_count()
    assert got.vertex_ids() == want.vertex_ids()
    assert got.edge_keys() == want.edge_keys()
    assert list(got.edge_keys()) == sorted(got.edge_keys())
    for v in want.vertex_ids():
        assert got.neighbors(v) == want.neighbors(v)
    assert compiled_lists(got) == compiled_lists(want)
    assert feasibility(got, cap) == feasibility(want, cap)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_derived_instance_equals_rebuilt_one(data):
    inst = data.draw(instances())
    cap = data.draw(st.sampled_from((1, 2, 8)))
    if data.draw(st.booleans()):
        feasibility(inst, cap)  # give the root a checked answer to carry
    for _ in range(data.draw(st.integers(1, 4))):
        batch = data.draw(batches(inst))
        before = snapshot(inst)
        try:
            want = reference_apply(inst, batch)
        except InvalidBatch as e:
            with pytest.raises(InvalidBatch) as got:
                inst.apply_batch(batch)
            assert str(got.value) == str(e)
            assert snapshot(inst) == before, "a refused batch left its parent changed"
            continue
        got = inst.apply_batch(batch)
        assert snapshot(inst) == before
        if data.draw(st.booleans()):
            assert_same_instance(got, want, cap)
        inst = got
    assert_same_instance(inst, MrfInstance(
        inst.domain,
        {v: inst.vertex_potential(v) for v in inst.vertex_ids()},
        {k: inst.edge_potential(*k) for k in inst.edge_keys()},
    ), cap)


@given(st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_plan_equals_full_scan_plan(data):
    inst = data.draw(instances())
    params = ChainParams(delta=0.5, eps_fn=lambda n: 0.1, seed=0, length_override=10)
    for _ in range(data.draw(st.integers(1, 3))):
        batch = data.draw(batches(inst))
        try:
            want = reference_plan(inst, batch, params)
        except (InvalidBatch, InfeasibleInstance) as e:
            # A vertex potential that excludes every spin has no start.
            with pytest.raises(type(e)):
                plan_update(inst, batch, params)
            continue
        plan = plan_update(inst, batch, params)
        final, target, phases = want
        assert plan.final == final
        assert plan.target == target
        assert tuple(
            (p.name, p.before, p.after, p.touched, p.starts, p.pbar, p.vertices)
            for p in plan.phases
        ) == phases
        inst = plan.final
