"""Brute-force references: exact stationary law, marginals, mirror sampler."""

import math

import pytest

from dyngibbs.models import coloring_instance, hardcore_instance, ising_instance
from dyngibbs.mrf import NEG_INF, SetVertexPotential, UpdateBatch, VertexPotential
from dyngibbs.oracle import (
    decode_config,
    encode_config,
    exact_gibbs,
    exact_marginal,
    exact_tv,
    initial_config,
    reference_chain,
)


def test_codes_round_trip():
    ids = (2, 5, 9)
    for code in range(27):
        cfg = decode_config(ids, 3, code)
        assert encode_config(ids, 3, cfg) == code


def test_single_edge_ising_by_hand():
    beta = 0.5
    inst = ising_instance(2, [(0, 1)], beta)
    dist = exact_gibbs(inst)
    z = 2 * math.exp(beta) + 2 * math.exp(-beta)
    assert dist.prob({0: 0, 1: 0}) == pytest.approx(math.exp(beta) / z, rel=1e-12)
    assert dist.prob({0: 0, 1: 1}) == pytest.approx(math.exp(-beta) / z, rel=1e-12)


def test_blocked_states_get_zero_mass():
    inst = hardcore_instance(2, [(0, 1)], 1.0)
    dist = exact_gibbs(inst)
    assert dist.prob({0: 1, 1: 1}) == 0.0
    # remaining three states uniform at fugacity 1
    assert dist.prob({0: 0, 1: 0}) == pytest.approx(1 / 3, rel=1e-12)


def test_marginal_sums_to_one():
    inst = ising_instance(3, [(0, 1), (1, 2)], 0.3, field=0.2)
    dist = exact_gibbs(inst)
    marg = exact_marginal(dist, [1])
    assert sum(marg) == pytest.approx(1.0, abs=1e-12)
    pair = exact_marginal(dist, [0, 2])
    assert len(pair) == 4
    assert sum(pair) == pytest.approx(1.0, abs=1e-12)


def test_tv_properties():
    a = exact_gibbs(ising_instance(2, [(0, 1)], 0.1))
    b = exact_gibbs(ising_instance(2, [(0, 1)], 0.9))
    assert exact_tv(a, a) == pytest.approx(0.0, abs=1e-15)
    d = exact_tv(a, b)
    assert 0.0 < d < 1.0
    assert d == pytest.approx(exact_tv(b, a), abs=1e-15)


def test_initial_config_ignores_edges():
    # every vertex at the first spin its own potential allows: a colouring
    # triangle starts at colour 0 everywhere, with or without its edges
    triangle = coloring_instance(3, [(0, 1), (1, 2), (0, 2)], 3)
    assert initial_config(triangle) == {0: 0, 1: 0, 2: 0}
    assert initial_config(coloring_instance(3, [], 3)) == {0: 0, 1: 0, 2: 0}
    forbid = triangle.apply_batch(UpdateBatch(
        [SetVertexPotential(1, VertexPotential((NEG_INF, 0.0, 0.0)))]))
    assert initial_config(forbid) == {0: 0, 1: 1, 2: 0}


def test_reference_chain_is_deterministic():
    inst = ising_instance(3, [(0, 1), (1, 2)], 0.25)
    a = reference_chain(inst, 200, seed=13, stream=2)
    b = reference_chain(inst, 200, seed=13, stream=2)
    assert a == b
