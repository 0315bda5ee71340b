"""Instance model: potentials, batches, feasibility, influence."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyngibbs import mrf
from dyngibbs.errors import (
    DegreeTooLarge,
    InfeasibleNeighborhood,
    InvalidBatch,
    MissingBoundary,
    UnknownVertex,
)
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
    dobrushin_check,
    local_restriction,
    validate_feasibility,
)
from dyngibbs.models import (
    hardcore_edge,
    hardcore_instance,
    hardcore_vertex,
    ising_edge,
    ising_instance,
    ising_vertex,
)


def tiny(q=2):
    return MrfInstance(
        SpinDomain(q),
        {0: VertexPotential([0.1] * q), 1: VertexPotential([0.0] * q),
         2: VertexPotential([0.0] * q)},
        {(0, 1): EdgePotential([[0.2] * q] * q), (1, 2): EdgePotential([[0.0] * q] * q)},
    )


class TestPotentials:
    def test_vertex_weights_are_tuples(self):
        p = VertexPotential([1.0, 2.0])
        assert p.weights == (1.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            VertexPotential([0.0, float("nan")])
        with pytest.raises(ValueError):
            EdgePotential([[0.0, float("nan")], [float("nan"), 0.0]])

    def test_edge_must_be_square_and_symmetric(self):
        with pytest.raises(ValueError):
            EdgePotential([[0.0, 1.0]])
        with pytest.raises(ValueError):
            EdgePotential([[0.0, 1.0], [2.0, 0.0]])

    def test_neg_inf_allowed(self):
        e = EdgePotential([[0.0, NEG_INF], [NEG_INF, 0.0]])
        assert e.weights[0][1] == NEG_INF

    def test_equality_by_value(self):
        assert VertexPotential([0.5, 0.5]) == VertexPotential((0.5, 0.5))


class TestInstance:
    def test_basic_accessors(self):
        inst = tiny()
        assert inst.n == 3
        assert inst.q == 2
        assert set(inst.vertex_ids()) == {0, 1, 2}
        assert inst.neighbors(1) == (0, 2)
        assert inst.max_degree() == 2
        assert inst.has_edge(1, 0) and not inst.has_edge(0, 2)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            tiny().vertex_potential(7)
        with pytest.raises(UnknownVertex):
            tiny().neighbors(7)

    def test_edge_lookup_symmetric(self):
        inst = tiny()
        assert inst.edge_potential(1, 0) == inst.edge_potential(0, 1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            MrfInstance(SpinDomain(3), {0: VertexPotential([0.0, 0.0])}, {})


class TestBatches:
    def test_set_vertex_potential(self):
        inst = tiny()
        out = inst.apply_batch(UpdateBatch([SetVertexPotential(0, VertexPotential([5.0, 5.0]))]))
        assert out.vertex_potential(0).weights == (5.0, 5.0)
        assert inst.vertex_potential(0).weights == (0.1, 0.1), "input untouched"

    def test_add_and_delete_edge(self):
        inst = tiny()
        out = inst.apply_batch(UpdateBatch([
            AddEdge(0, 2, EdgePotential([[1.0, 0.0], [0.0, 1.0]])),
            DeleteEdge(0, 1),
        ]))
        assert out.has_edge(0, 2) and not out.has_edge(0, 1)

    def test_add_and_delete_vertex(self):
        inst = tiny()
        out = inst.apply_batch(UpdateBatch([AddVertex(9, VertexPotential([0.0, 0.0]))]))
        assert out.has_vertex(9) and out.neighbors(9) == ()
        back = out.apply_batch(UpdateBatch([DeleteVertex(9)]))
        assert not back.has_vertex(9)

    def test_delete_vertex_requires_isolation(self):
        with pytest.raises(InvalidBatch):
            tiny().apply_batch(UpdateBatch([DeleteVertex(1)]))

    def test_duplicate_add_rejected(self):
        inst = tiny()
        with pytest.raises(InvalidBatch):
            inst.apply_batch(UpdateBatch([AddVertex(0, VertexPotential([0.0, 0.0]))]))
        with pytest.raises(InvalidBatch):
            inst.apply_batch(UpdateBatch([AddEdge(0, 1, EdgePotential([[0.0] * 2] * 2))]))

    def test_missing_targets_rejected(self):
        inst = tiny()
        for record in (SetVertexPotential(9, VertexPotential([0.0, 0.0])),
                       DeleteEdge(0, 2), DeleteVertex(9),
                       SetEdgePotential(0, 2, EdgePotential([[0.0] * 2] * 2))):
            with pytest.raises(InvalidBatch):
                inst.apply_batch(UpdateBatch([record]))

    def test_batch_applies_in_order(self):
        inst = tiny()
        out = inst.apply_batch(UpdateBatch([
            AddVertex(9, VertexPotential([0.0, 0.0])),
            AddEdge(9, 0, EdgePotential([[0.3, 0.0], [0.0, 0.3]])),
            DeleteEdge(9, 0),
            DeleteVertex(9),
        ]))
        assert not out.has_vertex(9)


class TestConditional:
    def test_matches_brute_force(self):
        inst = MrfInstance(
            SpinDomain(2),
            {0: VertexPotential([0.3, -0.2]), 1: VertexPotential([0.0, 0.0])},
            {(0, 1): EdgePotential([[0.7, -0.7], [-0.7, 0.7]])},
        )
        view = local_restriction(inst, 0)
        mu = view.conditional({1: 1})
        w0 = math.exp(0.3 - 0.7)
        w1 = math.exp(-0.2 + 0.7)
        assert mu[0] == pytest.approx(w0 / (w0 + w1), abs=1e-12)
        assert sum(mu) == pytest.approx(1.0, abs=1e-12)

    def test_missing_boundary(self):
        with pytest.raises(MissingBoundary):
            local_restriction(tiny(), 1).conditional({0: 0})

    def test_infeasible_neighborhood(self):
        inst = MrfInstance(
            SpinDomain(2),
            {0: VertexPotential([NEG_INF, 0.0]), 1: VertexPotential([0.0, 0.0])},
            {(0, 1): EdgePotential([[0.0, 0.0], [0.0, NEG_INF]])},
        )
        with pytest.raises(InfeasibleNeighborhood):
            local_restriction(inst, 0).conditional({1: 1})

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_normalized_for_any_weights(self, weights, boundary_spin):
        q = len(weights)
        inst = MrfInstance(
            SpinDomain(q),
            {0: VertexPotential(weights), 1: VertexPotential([0.0] * q)},
            {(0, 1): EdgePotential([[0.1] * q] * q)},
        )
        mu = local_restriction(inst, 0).conditional({1: boundary_spin % q})
        assert sum(mu) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for p in mu)


class TestFeasibility:
    def test_soft_instance_ok(self):
        assert validate_feasibility(tiny()).ok

    def test_blocked_pair_detected(self):
        inst = MrfInstance(
            SpinDomain(2),
            {0: VertexPotential([0.0, NEG_INF]), 1: VertexPotential([NEG_INF, 0.0])},
            {(0, 1): EdgePotential([[NEG_INF, NEG_INF], [NEG_INF, 0.0]])},
        )
        rep = validate_feasibility(inst)
        assert not rep.ok and rep.vertex in (0, 1)

    def test_degree_cap(self):
        hub = {0: VertexPotential([0.0, NEG_INF])}
        edges = {}
        for i in range(1, 11):
            hub[i] = VertexPotential([0.0, 0.0])
            edges[(0, i)] = EdgePotential([[0.0, NEG_INF], [NEG_INF, 0.0]])
        inst = MrfInstance(SpinDomain(2), hub, edges)
        with pytest.raises(DegreeTooLarge):
            validate_feasibility(inst, degree_cap=8)


class TestDobrushin:
    def test_two_spin_pair_influence_is_tanh(self):
        # One Ising edge: the worst-case influence of u on v is tanh(beta).
        beta = 0.4
        inst = MrfInstance(
            SpinDomain(2),
            {0: VertexPotential([0.0, 0.0]), 1: VertexPotential([0.0, 0.0])},
            {(0, 1): EdgePotential([[beta, -beta], [-beta, beta]])},
        )
        rep = dobrushin_check(inst)
        assert rep.satisfied
        assert rep.delta == pytest.approx(1.0 - math.tanh(beta), abs=1e-12)

    def test_isolated_vertices_trivially_satisfied(self):
        inst = MrfInstance(SpinDomain(3), {0: VertexPotential([0.0, 1.0, 2.0])}, {})
        rep = dobrushin_check(inst)
        assert rep.satisfied and rep.delta == 1.0

    def test_incremental_check_is_bit_identical_to_a_full_scan(self):
        # Every third batch goes unchecked, so touched vertices pile up as
        # pending across batches before the next check.
        for family, n in (("hardcore", 24), ("ising", 24)):
            rnd = random.Random(family)
            ring = [(i, i + 1) for i in range(n - 1)]
            if family == "hardcore":
                inst = hardcore_instance(n, ring, 0.2)
                vertex = lambda: hardcore_vertex(rnd.uniform(0.05, 0.4))
                edge = hardcore_edge
            else:
                inst = ising_instance(n, ring, 0.2)
                vertex = lambda: ising_vertex(rnd.uniform(-0.3, 0.3))
                edge = lambda: ising_edge(rnd.uniform(0.05, 0.3))
            dobrushin_check(inst)
            checked = 0
            for k, inst in enumerate(_churn(inst, vertex, edge, 100, rnd)):
                if k % 3 == 2:
                    continue
                got, want = dobrushin_check(inst), dobrushin_check(_rebuilt(inst))
                assert got.delta == want.delta, (family, k)
                assert dict(got.row_sums) == dict(want.row_sums), (family, k)
                assert dict(want.row_sums) == _full_scan_rows(inst), (family, k)
                checked += 1
            assert checked == 67

    def test_checking_a_child_leaves_the_parent_report_alone(self):
        parent = ising_instance(6, [(i, i + 1) for i in range(5)], 0.2)
        rep = dobrushin_check(parent)
        rows, delta = dict(rep.row_sums), rep.delta
        child = parent.apply_batch(UpdateBatch([
            SetEdgePotential(2, 3, EdgePotential([[0.9, -0.9], [-0.9, 0.9]])),
            AddEdge(0, 5, EdgePotential([[0.5, -0.5], [-0.5, 0.5]]))]))
        assert dobrushin_check(child).delta < delta
        again = dobrushin_check(parent)
        assert again is rep
        assert dict(again.row_sums) == rows and again.delta == delta
        with pytest.raises(TypeError):
            rep.row_sums[0] = 0.0  # read-only: the cache stays intact

    def test_over_cap_child_raises_and_a_later_fix_recovers(self):
        n = 12
        inst = hardcore_instance(n, [(i, i + 1) for i in range(n - 1)], 0.1)
        dobrushin_check(inst, degree_cap=4)
        hub = inst.apply_batch(UpdateBatch(
            [AddEdge(0, v, hardcore_edge()) for v in range(2, 7)]))
        with pytest.raises(DegreeTooLarge):
            dobrushin_check(hub, degree_cap=4)
        fixed = hub.apply_batch(UpdateBatch([DeleteEdge(0, 6), DeleteEdge(0, 5)]))
        got = dobrushin_check(fixed, degree_cap=4)
        want = dobrushin_check(_rebuilt(fixed), degree_cap=4)
        assert got.delta == want.delta
        assert dict(got.row_sums) == dict(want.row_sums)


def _rebuilt(inst):
    """A freshly constructed copy, which carries no influence state."""
    return MrfInstance(
        inst.domain,
        {v: inst.vertex_potential(v) for v in inst.vertex_ids()},
        {k: inst.edge_potential(*k) for k in inst.edge_keys()},
    )


def _full_scan_rows(inst):
    """Row sums accumulated as a one-pass scan adds them: centres v in
    ascending order, each adding A(u, v) to the row of every neighbour u."""
    rows = dict.fromkeys(inst.vertex_ids(), 0.0)
    for v in inst.vertex_ids():
        for u, a in zip(inst.neighbors(v), mrf._influences(inst, v)):
            rows[u] += a
    return rows


def _churn(inst, vertex, edge, count, rnd):
    """The instances derived by count random batches, one after another: a
    vertex added and attached, a vertex detached and deleted, potential
    edits, or an edge added or deleted, with no degree above 5."""
    fresh = max(inst.vertex_ids()) + 1
    for _ in range(count):
        ids = inst.vertex_ids()
        kind = rnd.randrange(4)
        if kind == 0:
            anchor = rnd.choice([v for v in ids if inst.degree(v) < 5])
            recs = [AddVertex(fresh, vertex()), AddEdge(fresh, anchor, edge())]
            fresh += 1
        elif kind == 1:
            v = rnd.choice(ids)
            recs = [DeleteEdge(v, u) for u in inst.neighbors(v)] + [DeleteVertex(v)]
        elif kind == 2:
            recs = [SetVertexPotential(rnd.choice(ids), vertex())]
            if inst.edge_keys():
                recs.append(SetEdgePotential(*rnd.choice(inst.edge_keys()), edge()))
        else:
            u, w = rnd.sample(ids, 2)
            if inst.has_edge(u, w):
                recs = [DeleteEdge(u, w)]
            elif inst.degree(u) < 5 and inst.degree(w) < 5:
                recs = [AddEdge(u, w, edge())]
            else:
                recs = [SetVertexPotential(u, vertex())]
        inst = inst.apply_batch(UpdateBatch(recs))
        yield inst
