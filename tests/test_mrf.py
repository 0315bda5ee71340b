"""Instance model: potentials, batches, feasibility, influence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
