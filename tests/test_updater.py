"""Reconciliation pipeline: law preservation against exact step laws,
work accounting, and the chain pool."""

import hashlib
import math
import random
import sys

import numpy as np
import pytest

from dyngibbs import updater
from dyngibbs.engine import ChainParams, run_chain
from dyngibbs.errors import DegreeTooLarge, InfeasibleInstance
from dyngibbs.inference import PowerLogFn, ScheduleFns, sample_diff
from dyngibbs.models import (
    coloring_edge,
    coloring_instance,
    coloring_vertex,
    hardcore_edge,
    hardcore_instance,
    hardcore_vertex,
    ising_edge,
    ising_instance,
    ising_vertex,
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
    validate_feasibility,
)
from dyngibbs.rng import make_stream, update_stream
from dyngibbs.updater import (
    apply_update,
    apply_update_multi,
    build_filter,
    execute_update,
    new_chain_set,
    plan_update,
)
from helpers import chi2_goodness_of_fit, exact_final_law, exact_log_law
from dyngibbs.oracle import encode_config


def params(T, seed=0, delta=0.5):
    return ChainParams(delta=delta, eps_fn=lambda n: 0.1, seed=seed,
                       length_override=T)


def updated_law_tv(old, batch, T, reps, seed=0):
    """TV between the empirical law of dynamically updated finals and the
    exact T-step law of the new instance."""
    p = params(T, seed=seed)
    plan = plan_update(old, batch, p)
    ids = plan.final.vertex_ids()
    q = plan.final.q
    K = q ** len(ids)
    counts = np.zeros(K)
    for i in range(reps):
        log = run_chain(old, p, stream=i)
        execute_update(plan, log, make_stream(seed, update_stream(1, i)))
        assert log.length == T
        counts[encode_config(ids, q, log.final_config())] += 1
    want = exact_final_law(plan.final, T)
    return 0.5 * float(np.abs(counts / reps - want).sum())


class TestLawPreservation:
    REPS = 6000

    def test_potential_change(self):
        old = ising_instance(3, [(0, 1), (1, 2)], 0.3, field=0.1)
        batch = UpdateBatch([
            SetVertexPotential(1, VertexPotential((-0.5, 0.5))),
            SetEdgePotential(0, 1, EdgePotential(((0.7, -0.7), (-0.7, 0.7)))),
        ])
        assert updated_law_tv(old, batch, 15, self.REPS) < 0.05

    def test_edge_add_and_delete(self):
        old = ising_instance(4, [(0, 1), (1, 2), (2, 3)], 0.25)
        batch = UpdateBatch([
            DeleteEdge(1, 2),
            AddEdge(0, 3, EdgePotential(((0.4, -0.4), (-0.4, 0.4)))),
        ])
        assert updated_law_tv(old, batch, 16, self.REPS) < 0.05

    def test_vertex_add_and_delete(self):
        old = hardcore_instance(3, [(0, 1), (1, 2)], 1.2)
        batch = UpdateBatch([
            AddVertex(7, VertexPotential((0.0, math.log(1.2)))),
            AddEdge(7, 0, hardcore_instance(2, [(0, 1)], 1.2).edge_potential(0, 1)),
            DeleteEdge(1, 2),
            DeleteVertex(2),
        ])
        assert updated_law_tv(old, batch, 14, self.REPS) < 0.05

    # Weights flipped between finite and -inf are replayed with every
    # transition of the vertices they touch as a correction rank. Colouring
    # edges are hard constraints too, and a start that consulted the edges
    # would leave an edited colouring log with the wrong X0. Forbidding
    # colour 0 moves the start.
    COLORING = coloring_instance(3, [(0, 1), (1, 2)], 4)
    NO_ZERO = VertexPotential((NEG_INF, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("old, records, T", [
        pytest.param(ising_instance(3, [(0, 1), (1, 2)], 0.2),
                     [SetVertexPotential(2, VertexPotential((0.0, NEG_INF)))],
                     12, id="ising-forbid-1"),
        pytest.param(COLORING, [AddEdge(0, 2, coloring_edge(4))], 6,
                     id="coloring-add-edge"),
        pytest.param(COLORING, [DeleteEdge(0, 1)], 6,
                     id="coloring-delete-edge"),
        pytest.param(COLORING, [SetVertexPotential(1, NO_ZERO)], 6,
                     id="coloring-forbid-0"),
        pytest.param(COLORING, [SetVertexPotential(0, NO_ZERO),
                                AddEdge(0, 2, coloring_edge(4))], 6,
                     id="coloring-forbid-0-add-edge"),
        pytest.param(hardcore_instance(3, [(0, 1), (1, 2)], 1.2),
                     [SetEdgePotential(0, 1, EdgePotential(((0.0, 0.0), (0.0, -1.0))))],
                     12, id="hardcore-soft-edge"),
    ])
    def test_hard_constraint_flips(self, old, records, T):
        assert updated_law_tv(old, UpdateBatch(records), T, self.REPS) < 0.05


def _law_cases():
    """(id, instance, batches, T) for the whole-log law gate. Every record
    kind appears, across Ising, hardcore and colouring, and two cases run 2-3
    batches in a row, so a log updated once is updated again."""
    path = ising_instance(3, [(0, 1), (1, 2)], 0.3, field=0.1)
    no_zero = MrfInstance(SpinDomain(3), {
        0: VertexPotential((NEG_INF, 0.0, 0.0)),
        1: coloring_vertex(3), 2: coloring_vertex(3),
    }, {(0, 1): coloring_edge(3), (1, 2): coloring_edge(3)})
    return [
        ("ising-mixed-edit", path, [[
            SetVertexPotential(1, VertexPotential((-0.5, 0.5))),
            SetEdgePotential(0, 1, ising_edge(-0.6)),
            DeleteEdge(1, 2), AddEdge(0, 2, ising_edge(0.5))]], 4),
        ("ising-field-on-rewired-endpoint", path, [[
            SetVertexPotential(0, VertexPotential((1.0, -1.0))),
            DeleteEdge(0, 1), AddEdge(0, 2, ising_edge(0.4))]], 4),
        # Refused while potentials were replayed before edge deletions.
        ("coloring-force-with-own-edge-deletion",
         coloring_instance(3, [(0, 1), (0, 2)], 3), [[
             SetVertexPotential(1, VertexPotential((0.0, NEG_INF, NEG_INF))),
             DeleteEdge(0, 1)]], 3),
        # The relaxed potential moves the start of a touched vertex.
        ("coloring-add-edge-relax-potential", no_zero, [[
            AddEdge(0, 2, coloring_edge(3)),
            SetVertexPotential(0, coloring_vertex(3))]], 3),
        ("hardcore-vertex-churn-with-potentials",
         hardcore_instance(3, [(0, 1), (1, 2)], 1.2), [
            [AddVertex(3, hardcore_vertex(0.8)), AddEdge(3, 0, hardcore_edge()),
             SetVertexPotential(2, hardcore_vertex(2.0))],
            [DeleteEdge(3, 0), DeleteVertex(3),
             SetVertexPotential(1, hardcore_vertex(0.5))]], 4),
        ("ising-three-batches", path, [
            [SetVertexPotential(2, VertexPotential((0.25, -0.1))), DeleteEdge(0, 1)],
            [AddEdge(0, 2, ising_edge(-0.5)), SetEdgePotential(1, 2, ising_edge(0.7))],
            [SetVertexPotential(0, VertexPotential((-0.4, 0.4))),
             SetEdgePotential(0, 2, ising_edge(0.2)), DeleteEdge(1, 2)]], 4),
        # Vertex 3 is edited but untouched, so only its filter ranks can
        # correct its law; vertex 0's rewire runs in the same replay.
        ("ising-4-path-untouched-field-and-coupling",
         ising_instance(4, [(0, 1), (1, 2), (2, 3)], 0.2), [[
             SetVertexPotential(3, VertexPotential((1.5, -1.5))),
             SetEdgePotential(2, 3, ising_edge(-0.8)),
             DeleteEdge(0, 1), AddEdge(0, 2, ising_edge(0.4))]], 3),
    ]


class TestWholeLogLaw:
    # Updated logs, X0 and every transition, against the exact law of a
    # fresh T-step log on the new instance, by chi-square goodness of fit
    # after every batch of a case, with a Bonferroni threshold over all of
    # them. A vertex deletion hides the marks add_vertices drew, so the
    # check after each batch is needed to see them.
    REPS = 20_000
    ALPHA = 0.01
    CHECKS = sum(len(c[2]) for c in _law_cases())

    @pytest.mark.parametrize("name, old, batches, T", _law_cases(),
                             ids=[c[0] for c in _law_cases()])
    def test_updated_logs_follow_the_fresh_log_law(self, name, old, batches, T):
        p = params(T, seed=31)
        plans, inst = [], old
        for records in batches:
            plans.append(plan_update(inst, UpdateBatch(records), p))
            inst = plans[-1].final
        counts = [{} for _ in plans]
        for i in range(self.REPS):
            log = run_chain(old, p, stream=i)
            for epoch, (plan, seen) in enumerate(zip(plans, counts), 1):
                execute_update(plan, log, make_stream(31, update_stream(epoch, i)))
                key = (tuple(sorted(log.initial_config().items())),
                       tuple((t.vertex, t.spin) for t in log.transitions()))
                seen[key] = seen.get(key, 0) + 1
        for k, (plan, seen) in enumerate(zip(plans, counts), 1):
            pval = chi2_goodness_of_fit(seen, exact_log_law(plan.final, T))
            assert pval > self.ALPHA / self.CHECKS, f"{name}, batch {k}: p = {pval:.2e}"


class TestDeterminism:
    def test_same_seeds_same_result(self):
        old = ising_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0.3)
        batch = UpdateBatch([SetVertexPotential(2, VertexPotential((0.3, -0.3)))])
        finals = []
        for _ in range(2):
            log = run_chain(old, params(400, seed=21), stream=5)
            _, met = apply_update(old, batch, log, params(400, seed=21),
                                  make_stream(21, update_stream(1, 5)))
            finals.append((log.final_config(),
                           [log.at(t) for t in range(1, 401, 37)], met.r_ham))
        assert finals[0] == finals[1]


class TestWorkAccounting:
    def test_localized_change_touches_few_steps(self):
        n, T = 40, 4000
        edges = [(i, i + 1) for i in range(n - 1)]
        old = ising_instance(n, edges, 0.15)
        batch = UpdateBatch([SetVertexPotential(7, VertexPotential((0.05, -0.05)))])
        log = run_chain(old, params(T, seed=3), stream=0)
        _, met = apply_update(old, batch, log, params(T, seed=3),
                              make_stream(3, update_stream(1, 0)))
        assert not met.regenerated
        assert met.r_graph == 0
        assert met.r_ham < T * 0.1, f"visited {met.r_ham} of {T}"

    def test_empty_batch_is_free(self):
        old = ising_instance(4, [(0, 1), (2, 3)], 0.2)
        log = run_chain(old, params(200, seed=4), stream=0)
        before = log.final_config()
        new, met = apply_update(old, UpdateBatch([]), log, params(200, seed=4),
                                make_stream(4, update_stream(1, 0)))
        assert new is not old or new == old
        assert log.final_config() == before
        assert met.r_ham == 0 and met.r_graph == 0 and met.filter_size == 0

    def test_filter_marks_only_changed_vertices(self):
        old = ising_instance(6, [(i, i + 1) for i in range(5)], 0.2)
        log = run_chain(old, params(600, seed=5), stream=0)
        marks = set(build_filter(log, {2: 0.5}, make_stream(5, 77)))
        assert marks <= set(log.steps_of(2))
        # roughly half of vertex 2's steps, binomial slack
        occ = len(log.steps_of(2))
        assert 0.2 * occ < len(marks) < 0.8 * occ

    def test_plan_derives_an_instance_only_between_phases(self, monkeypatch):
        # The last phase leads to the batch's own final instance, so only a
        # vertex phase with another phase after it derives one more.
        derived = []
        derive = MrfInstance.apply_batch

        def counted(inst, batch):
            derived.append(batch)
            return derive(inst, batch)

        monkeypatch.setattr(MrfInstance, "apply_batch", counted)
        old = ising_instance(6, [(i, i + 1) for i in range(5)], 0.2)
        rewire = [SetVertexPotential(0, ising_vertex(0.1)),
                  SetEdgePotential(1, 2, ising_edge(0.3)),
                  DeleteEdge(2, 3), AddEdge(2, 4, ising_edge(0.1))]
        attach = [AddVertex(9, ising_vertex(0.0)), AddEdge(9, 0, ising_edge(0.2))]
        detach = [DeleteEdge(4, 5), DeleteVertex(5)]
        for records, count in ((rewire, 1), (attach, 2), (detach, 2),
                               (attach + detach, 3)):
            derived.clear()
            plan_update(old, UpdateBatch(records), params(50))
            assert len(derived) == count, [len(b) for b in derived]

    def test_metrics_wall_time_populated(self):
        old = ising_instance(4, [(0, 1), (1, 2)], 0.2)
        batch = UpdateBatch([SetVertexPotential(0, VertexPotential((0.1, -0.1)))])
        log = run_chain(old, params(100, seed=6), stream=0)
        _, met = apply_update(old, batch, log, params(100, seed=6),
                              make_stream(6, update_stream(1, 0)))
        assert met.wall_time > 0


class TestChainPool:
    def schedule(self, count):
        return ScheduleFns(n_samples=PowerLogFn(float(count), 0.0, 0.0),
                           eps=PowerLogFn(0.2, 0.0, 0.0))

    def test_pool_size_follows_schedule(self):
        inst = ising_instance(4, [(0, 1), (1, 2)], 0.2)
        cs = new_chain_set(inst, params(80), self.schedule(5))
        assert len(cs.logs) == 5
        assert set(cs.samples()) == {0, 1, 2, 3, 4}

    def test_multi_update_diff_matches_brute_force(self):
        inst = ising_instance(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0.25)
        cs = new_chain_set(inst, params(300, seed=11), self.schedule(6))
        # (batch, vertices with old=None entries, vertices with new=None
        # entries). The pool size stays 6, so every chain survives the
        # vertex phases and carries such entries itself.
        cases = [
            (UpdateBatch([
                SetVertexPotential(1, VertexPotential((0.3, -0.3))),
                DeleteEdge(2, 3),
            ]), set(), set()),
            (UpdateBatch([AddVertex(7, ising_vertex(0.2)),
                          AddEdge(7, 2, ising_edge(0.25))]), {7}, set()),
            (UpdateBatch([DeleteEdge(3, 4), DeleteVertex(4)]), set(), {4}),
        ]
        for epoch, (batch, born, gone) in enumerate(cases, 1):
            before = cs.samples()
            diff, metrics = apply_update_multi(cs, batch)
            after = cs.samples()
            want = sample_diff(before, after)
            got = {(e.chain, e.vertex): (e.old, e.new) for e in diff.entries}
            expect = {(e.chain, e.vertex): (e.old, e.new) for e in want.entries}
            assert got == expect
            assert diff.added_chains == want.added_chains
            assert diff.removed_chains == want.removed_chains
            assert len(metrics) == 6
            assert cs.epoch == epoch
            assert {(i, v) for (i, v), (old, _) in got.items() if old is None} \
                == {(i, v) for i in range(6) for v in born}
            assert {(i, v) for (i, v), (_, new) in got.items() if new is None} \
                == {(i, v) for i in range(6) for v in gone}

    def test_resize_on_vertex_growth(self):
        # sample count follows n; adding vertices appends fresh tail chains
        inst = ising_instance(4, [(0, 1), (1, 2)], 0.2)
        sched = ScheduleFns(n_samples=PowerLogFn(1.0, 1.0, 0.0),
                            eps=PowerLogFn(0.2, 0.0, 0.0))
        cs = new_chain_set(inst, params(120, seed=12), sched)
        assert len(cs.logs) == 4
        grow = UpdateBatch([AddVertex(9, VertexPotential((0.0, 0.0))),
                            AddVertex(10, VertexPotential((0.0, 0.0)))])
        diff, _ = apply_update_multi(cs, grow)
        assert len(cs.logs) == 6
        assert diff.added_chains == (4, 5)
        shrink = UpdateBatch([DeleteVertex(9), DeleteVertex(10)])
        diff, _ = apply_update_multi(cs, shrink)
        assert len(cs.logs) == 4
        assert diff.removed_chains == (4, 5)

    def test_infeasible_batch_leaves_pool_untouched(self):
        # A 3-colouring star whose centre gets a third neighbour: some
        # boundary then excludes every colour at the centre. The batch used to
        # rewrite the chains whose replay got there first, then raise.
        inst = coloring_instance(4, [(0, 1), (0, 2)], 3)
        cs = new_chain_set(inst, params(60, seed=7), self.schedule(40))

        def state():
            return [(list(log.transitions()), log.initial_config(),
                     log.final_config()) for log in cs.logs]

        before = state()
        inst_before, epoch, stream = cs.inst, cs.epoch, cs.next_stream
        for batch in (
            UpdateBatch([AddEdge(0, 3, coloring_edge(3))]),
            UpdateBatch([AddVertex(9, coloring_vertex(3)),
                         AddEdge(0, 9, coloring_edge(3))]),
        ):
            with pytest.raises(InfeasibleInstance):
                apply_update_multi(cs, batch)
            assert state() == before
            assert cs.inst is inst_before
            assert (cs.epoch, cs.next_stream) == (epoch, stream)

    def test_batch_feasible_only_through_its_own_edge_deletion(self):
        # Forcing vertex 1 of a 3-colouring star to colour 0 is feasible only
        # once its edge to the centre is gone. The replay carries both edits
        # at once, so only the end of the batch has to be feasible.
        inst = coloring_instance(3, [(0, 1), (0, 2)], 3)
        cs = new_chain_set(inst, params(60, seed=7), self.schedule(40))
        forced = VertexPotential((0.0, NEG_INF, NEG_INF))
        batch = UpdateBatch([SetVertexPotential(1, forced), DeleteEdge(0, 1)])
        apply_update_multi(cs, batch)
        assert cs.inst == inst.apply_batch(batch)
        assert cs.epoch == 1
        for log in cs.logs:
            assert log.length == 60
            assert log.initial_config()[1] == 0
            assert all(t.spin == 0 for t in log.transitions() if t.vertex == 1)

    def test_over_cap_batch_leaves_pool_untouched(self):
        # The centre's not-equal edge leaves it no permissive spin, yet every
        # boundary stays feasible; a ninth neighbour takes its degree past the
        # enumeration cap, so the planned instance cannot be decided.
        centre = 0
        edges = {(centre, 1): EdgePotential(((NEG_INF, 0.0), (0.0, NEG_INF)))}
        edges.update({(centre, u): ising_edge(0.1) for u in range(2, 9)})
        inst = MrfInstance(SpinDomain(2),
                           {v: ising_vertex(0.0) for v in range(10)}, edges)
        assert validate_feasibility(inst).ok
        cs = new_chain_set(inst, params(60, seed=8), self.schedule(5))
        before = [(list(log.transitions()), log.final_config()) for log in cs.logs]
        inst_before, epoch, stream = cs.inst, cs.epoch, cs.next_stream
        with pytest.raises(DegreeTooLarge):
            apply_update_multi(cs, UpdateBatch([AddEdge(centre, 9, ising_edge(0.1))]))
        assert [(list(log.transitions()), log.final_config())
                for log in cs.logs] == before
        assert cs.inst is inst_before
        assert (cs.epoch, cs.next_stream) == (epoch, stream)


def _ring_plus_matching(n):
    h = n // 2
    ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return ring + [(i, i + h) for i in range(h)]


def _update_call_counts(n):
    """Python call events, line events and replay visits of each of two
    fixed batches, each with the feasibility check that follows it, on one
    pool over a ring plus a matching with T = 3n and 4 chains. The second
    batch flips weights to -inf: a vertex potential, which moves that
    vertex's start, and one entry of an edge potential."""
    h = n // 2
    inst = ising_instance(n, _ring_plus_matching(n), 0.1)
    validate_feasibility(inst)  # as `dyngibbs run` does on loading
    sched = ScheduleFns(n_samples=PowerLogFn(4.0, 0.0, 0.0),
                        eps=PowerLogFn(0.1, 0.0, 0.0))
    cs = new_chain_set(inst, params(3 * n, seed=5, delta=1.0), sched)
    batches = [
        UpdateBatch(
            [SetVertexPotential(v, ising_vertex(0.05)) for v in (5, 17, 101, 333)]
            + [SetEdgePotential(7, 8, ising_edge(0.12)),
               DeleteEdge(10, 10 + h), DeleteEdge(20, 20 + h),
               AddEdge(10, 20 + h, ising_edge(0.1)),
               AddEdge(20, 10 + h, ising_edge(0.1))]),
        UpdateBatch([
            SetVertexPotential(200, VertexPotential((NEG_INF, 0.0))),
            SetEdgePotential(50, 51, EdgePotential(((0.1, -0.1), (-0.1, NEG_INF)))),
        ]),
    ]
    calls = lines = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    out = []
    for batch in batches:
        calls = lines = 0
        sys.setprofile(count)
        sys.settrace(count_lines)
        try:
            _, metrics = apply_update_multi(cs, batch)
            validate_feasibility(cs.inst)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
        out.append((calls, lines, sum(m.r_ham + m.r_graph for m in metrics)))
    return out


def test_update_cost_follows_footprint_not_n():
    # T/n is fixed, so the expected visits are the same at both sizes; the
    # Python work of planning, checking and replaying must not grow with n.
    # Line events count too, so a loop over n that makes no calls shows.
    for k, (small, large) in enumerate(
            zip(_update_call_counts(1_000), _update_call_counts(10_000))):
        small_calls, small_lines, small_visits = small
        large_calls, large_lines, large_visits = large
        assert small_visits > 0 and large_visits > 0
        assert large_calls < 2 * small_calls, (
            f"batch {k}: {large_calls} calls at n=10^4 vs {small_calls} at "
            f"n=10^3 ({large_visits} vs {small_visits} visits)")
        assert large_lines < 2 * small_lines, (
            f"batch {k}: {large_lines} line events at n=10^4 vs {small_lines} "
            f"at n=10^3 ({large_visits} vs {small_visits} visits)")


def _edit_batches(n, count, rng):
    """Batches shaped like the edit benchmark's: four vertex fields, one edge
    coupling and a 2-edge rewire of the perfect matching each."""
    h = n // 2
    partner = {i: i + h for i in range(h)}
    partner.update({i + h: i for i in range(h)})
    ring = [(i, i + 1) for i in range(n - 1)]
    for _ in range(count):
        while True:
            a, c = rng.sample(range(n), 2)
            pa, pc = partner[a], partner[c]
            # The new matching edges must not coincide with ring edges.
            if c != pa and abs(a - pc) not in (1, n - 1) \
                    and abs(c - pa) not in (1, n - 1):
                break
        recs = [SetVertexPotential(v, ising_vertex(rng.uniform(-0.1, 0.1)))
                for v in rng.sample(range(n), 4)]
        u, w = ring[rng.randrange(len(ring))]
        recs.append(SetEdgePotential(u, w, ising_edge(rng.uniform(0.05, 0.15))))
        recs += [DeleteEdge(a, pa), DeleteEdge(c, pc),
                 AddEdge(a, pc, ising_edge(0.1)), AddEdge(c, pa, ising_edge(0.1))]
        partner[a], partner[pc] = pc, a
        partner[c], partner[pa] = pa, c
        yield UpdateBatch(recs)


class TestReplayBytes:
    # sha256 over every batch's per-chain (r_ham, r_graph, filter_size) and
    # transitions. Each batch edits potentials and rewires edges in one
    # replay, with correction-kernel redraws, fresh redraws of the rewired
    # endpoints and residual redraws of the maximal coupling. The first
    # batch also shifts one vertex potential by a constant: its conditionals
    # do not change, so its filter ranks draw a correction coin but have no
    # kernel to redraw from.
    SHA256 = "77dd32c13a3fa547a8a23a371f0b62d63f9d6c4534483274006f89f7477f1c5e"

    def test_edit_batches_at_scale(self, monkeypatch):
        # The plan builds each phase's local views once for the whole pool:
        # no batch asks twice for the same (instance, vertex).
        asked = []
        build = updater.local_restriction

        def counted(inst, v):
            asked.append((id(inst), v))
            return build(inst, v)

        monkeypatch.setattr(updater, "local_restriction", counted)
        n = 400
        inst = ising_instance(n, _ring_plus_matching(n), 0.1)
        sched = ScheduleFns(n_samples=PowerLogFn(6.0, 0.0, 0.0),
                            eps=PowerLogFn(0.1, 0.0, 0.0))
        cs = new_chain_set(inst, params(4000, seed=17, delta=1.0), sched)
        batches = list(_edit_batches(n, 4, random.Random(17)))
        shift = SetVertexPotential(n - 1, VertexPotential((0.1, 0.1)))
        assert all(getattr(r, "vertex", None) != n - 1 for r in batches[0])
        batches[0] = UpdateBatch(list(batches[0]) + [shift])
        digest = hashlib.sha256()
        for batch in batches:
            asked.clear()
            _, metrics = apply_update_multi(cs, batch)
            assert asked and len(set(asked)) == len(asked)
            for m, log in zip(metrics, cs.logs):
                digest.update(repr((m.r_ham, m.r_graph, m.filter_size)).encode())
                digest.update(repr([(t.vertex, t.spin)
                                    for t in log.transitions()]).encode())
        assert digest.hexdigest() == self.SHA256


class TestVertexPhaseBytes:
    # sha256 over every batch's diff entries, added and removed chains,
    # per-chain (r_ham, r_graph, filter_size, regenerated), and each log's
    # transitions, initial and final configurations. The batches alternate
    # as the churn benchmark's do: add a vertex and attach it, then detach
    # it and delete it. ceil(0.02 n) flips between 6 and 7 as n flips
    # between 300 and 301, so the pool also resizes on every batch.
    SHA256 = "ea52fb4d8afd0b07e8ebc53a841cf7be2366cee6e57b13b6ca7ac2e30aa395e4"

    def test_vertex_churn_batches(self):
        n = 300
        inst = hardcore_instance(n, _ring_plus_matching(n), 0.2)
        sched = ScheduleFns(n_samples=PowerLogFn(0.02, 1.0, 0.0),
                            eps=PowerLogFn(0.1, 0.0, 0.0))
        cs = new_chain_set(inst, params(10 * n, seed=23, delta=1.0), sched)
        rng = random.Random(23)
        digest = hashlib.sha256()
        for k in range(12):
            if k % 2 == 0:
                v, anchor = n + k // 2, rng.randrange(n)
                batch = UpdateBatch([AddVertex(v, hardcore_vertex(0.2)),
                                     AddEdge(v, anchor, hardcore_edge())])
            else:
                batch = UpdateBatch([DeleteEdge(v, anchor), DeleteVertex(v)])
            pool = len(cs.logs)
            diff, metrics = apply_update_multi(cs, batch)
            assert len(cs.logs) != pool
            digest.update(repr([(e.chain, e.vertex, e.old, e.new)
                                for e in diff.entries]).encode())
            digest.update(repr((diff.added_chains, diff.removed_chains)).encode())
            for m in metrics:
                digest.update(repr((m.r_ham, m.r_graph, m.filter_size,
                                    m.regenerated)).encode())
            for log in cs.logs:
                digest.update(repr([(t.vertex, t.spin)
                                    for t in log.transitions()]).encode())
                digest.update(repr(sorted(log.initial_config().items())).encode())
                digest.update(repr(sorted(log.final_config().items())).encode())
        assert digest.hexdigest() == self.SHA256
