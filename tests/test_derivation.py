"""Derived instances against from-scratch ones, and the batch-derived plan
against a full-scan reference plan.

``apply_batch`` derives a child from its parent by sharing or C-level copying
the parent's maps and touching only what the batch names; ``plan_update``
reads its records and phases off the batch. The references below rebuild
every instance from scratch and compare whole vertex and edge sets, as the
library did before derivation; both must agree on every observable.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyngibbs.coupling import p_up
from dyngibbs.engine import ChainParams, mixing_length
from dyngibbs.errors import DegreeTooLarge, InvalidBatch
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


def _l1(a, b):
    total = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        if x == NEG_INF or y == NEG_INF:
            return math.inf
        total += abs(x - y)
    return total


def reference_d_ham(a: MrfInstance, b: MrfInstance) -> float:
    """L1 potential distance over every shared vertex and edge."""
    d = 0.0
    for v in set(a.vertex_ids()) & set(b.vertex_ids()):
        d += _l1(a.vertex_potential(v).weights, b.vertex_potential(v).weights)
    for k in set(a.edge_keys()) & set(b.edge_keys()):
        for ra, rb in zip(a.edge_potential(*k).weights, b.edge_potential(*k).weights):
            d += _l1(ra, rb)
    return d


def reference_plan(inst: MrfInstance, batch, params):
    """(final, target, regenerate, pbar, phases) by whole-set comparison."""
    final = reference_apply(inst, batch)
    target = mixing_length(final.n, params)
    recs = []
    for v in inst.vertex_ids():
        if final.has_vertex(v) and final.vertex_potential(v) != inst.vertex_potential(v):
            recs.append(SetVertexPotential(v, final.vertex_potential(v)))
    for u, w in inst.edge_keys():
        if final.has_edge(u, w) and final.edge_potential(u, w) != inst.edge_potential(u, w):
            recs.append(SetEdgePotential(u, w, final.edge_potential(u, w)))
    mid = reference_apply(inst, recs) if recs else inst
    if math.isinf(reference_d_ham(inst, mid)):
        return final, target, True, {}, ()
    phases, pbar = [], {}
    if recs:
        affected = set()
        for r in recs:
            affected.update((r.vertex,) if isinstance(r, SetVertexPotential) else (r.u, r.v))
        for v in sorted(affected):
            pv = p_up(local_restriction(inst, v), local_restriction(mid, v))
            if pv > 0.0:
                pbar[v] = pv
        phases.append(("potentials", inst, mid))
    cur = mid
    v_old, v_new = set(inst.vertex_ids()), set(final.vertex_ids())
    e_old, e_new = set(inst.edge_keys()), set(final.edge_keys())
    for name, records in (
        ("add_vertices",
         [AddVertex(a, final.vertex_potential(a)) for a in sorted(v_new - v_old)]),
        ("delete_edges", [DeleteEdge(u, w) for u, w in sorted(e_old - e_new)]),
        ("add_edges",
         [AddEdge(u, w, final.edge_potential(u, w)) for u, w in sorted(e_new - e_old)]),
        ("delete_vertices", [DeleteVertex(v) for v in sorted(v_old - v_new)]),
    ):
        if records:
            nxt = reference_apply(cur, records)
            phases.append((name, cur, nxt))
            cur = nxt
    return final, target, False, pbar, tuple(phases)


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
    """Mostly valid records against inst, sometimes invalid ones."""
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
        except InvalidBatch:
            with pytest.raises(InvalidBatch):
                plan_update(inst, batch, params)
            continue
        plan = plan_update(inst, batch, params)
        final, target, regenerate, pbar, phases = want
        assert plan.final == final
        assert plan.target == target
        assert plan.regenerate == regenerate
        assert plan.pbar == pbar
        assert [p[0] for p in plan.phases] == [p[0] for p in phases]
        for (_, b, a), (_, wb, wa) in zip(plan.phases, phases):
            assert b == wb and a == wa
        inst = plan.final
