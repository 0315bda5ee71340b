"""Execution log: rank edits, point queries and journals, checked against
the structure-free linear twin."""

import random

import pytest

from dyngibbs import updater
from dyngibbs.engine import ChainParams
from dyngibbs.errors import RankOutOfRange, UnknownVertex
from dyngibbs.execlog import ExecutionLog
from dyngibbs.models import ising_instance, ising_vertex
from dyngibbs.mrf import AddVertex, DeleteVertex, UpdateBatch
from dyngibbs.rng import make_stream
from helpers import LinearLog


def small_log():
    log = ExecutionLog({0: 0, 1: 1, 2: 0})
    for t, (v, c) in enumerate([(0, 1), (1, 0), (0, 0), (2, 1)], 1):
        log.insert(t, v, c)
    return log


class TestBasics:
    def test_initial_and_final(self):
        log = small_log()
        assert log.length == 4
        assert log.initial_config() == {0: 0, 1: 1, 2: 0}
        assert log.final_config() == {0: 0, 1: 0, 2: 1}

    def test_evaluate_walks_prefix(self):
        log = small_log()
        assert log.evaluate(0, 0) == 0
        assert log.evaluate(1, 0) == 1
        assert log.evaluate(3, 0) == 0
        assert log.evaluate(4, 1) == 0

    def test_at_and_successor(self):
        log = small_log()
        assert (log.at(1).vertex, log.at(1).spin) == (0, 1)
        assert log.successor(0, 0) == 1
        assert log.successor(1, 0) == 3
        assert log.successor(3, 0) is None

    def test_steps_of(self):
        assert small_log().steps_of(0) == (1, 3)
        assert small_log().steps_of(1) == (2,)

    def test_rank_bounds(self):
        log = small_log()
        with pytest.raises(RankOutOfRange):
            log.at(0)
        with pytest.raises(RankOutOfRange):
            log.at(5)
        with pytest.raises(RankOutOfRange):
            log.insert(6, 0, 0)
        with pytest.raises(RankOutOfRange):
            log.remove(0)

    def test_unknown_vertex(self):
        log = small_log()
        with pytest.raises(UnknownVertex):
            log.evaluate(2, 9)
        with pytest.raises(UnknownVertex):
            log.insert(1, 9, 0)


class TestEdits:
    def test_insert_shifts_ranks(self):
        log = small_log()
        log.insert(2, 2, 0)
        assert log.length == 5
        assert (log.at(2).vertex, log.at(2).spin) == (2, 0)
        assert log.at(3).vertex == 1

    def test_remove_shifts_back(self):
        log = small_log()
        log.remove(2)
        assert log.length == 3
        assert log.at(2).vertex == 0
        assert log.final_config()[1] == 1, "vertex 1 falls back to initial"

    def test_change_keeps_rank(self):
        log = small_log()
        log.change(1, 0)
        assert (log.at(1).vertex, log.at(1).spin) == (0, 0)
        assert log.evaluate(2, 0) == 0


class TestJournal:
    """The journal maps each touched vertex to its pre-journal final spin
    (None when it was absent); new values are read back from the log."""

    def test_tracks_final_spin_changes(self):
        log = small_log()
        log.begin_final_journal()
        log.change(4, 0)     # vertex 2 final: 1 -> 0
        log.change(1, 0)     # vertex 0 final unchanged (rank 3 shadows rank 1)
        journal = log.take_final_journal()
        assert journal == {2: 1}
        assert log.final_config()[2] == 0

    def test_records_vertex_membership(self):
        # a reload that adds vertex 7 journals it as absent before
        log = small_log()
        log.begin_final_journal()
        log.load_run({0: 0, 1: 1, 2: 0, 7: 1}, [0, 1, 0, 2], [1, 0, 0, 1])
        journal = log.take_final_journal()
        assert journal[7] is None
        assert log.evaluate(4, 7) == 1
        assert {v for v in journal if journal[v] != log.final_config()[v]} == {7}

    def test_remove_records_old_spin(self):
        # a reload that drops vertex 7 journals its old final spin
        log = ExecutionLog({0: 0, 7: 1})
        log.begin_final_journal()
        log.load_run({0: 0}, [], [])
        journal = log.take_final_journal()
        assert journal[7] == 1
        assert log.final_config() == {0: 0}
        with pytest.raises(UnknownVertex):
            log.evaluate(0, 7)

    def test_set_initial_journals_only_untouched_vertices(self):
        # X0 is also the final spin of a vertex with no transitions, and only
        # such a vertex gets a journal entry
        log = ExecutionLog.from_run({0: 0, 1: 0, 2: 1}, [0, 1], [1, 1])
        log.begin_final_journal()
        log.set_initial(0, 2)
        log.set_initial(2, 0)
        journal = log.take_final_journal()
        assert journal == {2: 1}
        assert log.initial_config() == {0: 2, 1: 0, 2: 0}
        assert log.final_config() == {0: 1, 1: 1, 2: 0}
        assert [log.evaluate(0, v) for v in (0, 1, 2)] == [2, 0, 0]
        with pytest.raises(UnknownVertex):
            log.set_initial(7, 0)

    # Final spins: 0 -> 2 (rank 5), 1 -> 0 (rank 8), 2 -> 1 (rank 9), 3 -> 0
    # (rank 3, its only transition; initial 2).
    INITIAL = {0: 0, 1: 0, 2: 0, 3: 2}
    VERTS = [0, 1, 3, 2, 0, 1, 2, 1, 2]
    SPINS = [1, 2, 0, 1, 2, 1, 2, 0, 1]

    @pytest.mark.parametrize("edits, changed", [
        # inner insert that becomes vertex 0's last transition
        ([("insert", 6, 0, 1)], {0}),
        # removing vertex 1's last transition falls back to an earlier spin
        ([("remove", 8)], {1}),
        # removing vertex 3's only transition falls back to its initial spin
        ([("remove", 3)], {3}),
        # removing an earlier transition leaves the final spin alone
        ([("remove", 4)], set()),
        # all of them under one journal, each rank as the log then stands
        ([("insert", 6, 0, 1), ("remove", 9), ("remove", 3), ("remove", 3)],
         {0, 1, 3}),
    ])
    def test_inner_rank_edits(self, edits, changed):
        log = ExecutionLog.from_run(self.INITIAL, self.VERTS, self.SPINS)
        twin = LinearLog(self.INITIAL)
        twin.verts, twin.spins = list(self.VERTS), list(self.SPINS)
        before = twin.final_config()
        log.begin_final_journal()
        for op, *args in edits:
            assert args[0] < twin.length, "inner ranks only"
            getattr(log, op)(*args)
            getattr(twin, op)(*args)
        journal = log.take_final_journal()
        after = twin.final_config()
        assert log.final_config() == after
        assert {v for v in before if before[v] != after[v]} == changed
        assert changed <= set(journal)
        assert all(journal[v] == before[v] for v in journal)


def assert_agrees(log, twin):
    """log and twin agree on every query at every rank."""
    L = twin.length
    assert log.length == L
    for t in range(1, L + 1):
        tr = log.at(t)
        assert (tr.vertex, tr.spin) == twin.at(t), f"at({t})"
    for v in twin.initial:
        assert log.steps_of(v) == twin.steps_of(v), f"steps_of({v})"
        for t in range(L + 1):
            assert log.evaluate(t, v) == twin.evaluate(t, v), f"evaluate({t}, {v})"
            assert log.successor(t, v) == twin.successor(t, v), f"successor({t}, {v})"
    assert log.final_config() == twin.final_config()


class TestInnerRankEdits:
    def test_vertex_phase_burst_agrees_with_linear(self):
        # The vertex phases rewrite the columns and reload the log; its rank
        # lists and final configuration must then answer every query as a
        # linear scan of the same columns does.
        rng = random.Random(11)
        verts = [rng.randrange(4) for _ in range(200)]
        spins = [rng.randrange(2) for _ in range(200)]
        initial = {v: rng.randrange(2) for v in range(4)}
        log = ExecutionLog.from_run(initial, verts, spins)
        draws = make_stream(11, 0)

        def twin_of(log):
            twin = LinearLog(log.initial_config())
            twin.verts, twin.spins = (list(col) for col in log.columns())
            return twin

        base = ising_instance(4, [(0, 2), (2, 3)], 0.2)
        params = ChainParams(delta=0.5, eps_fn=lambda n: 0.1, seed=0,
                             length_override=200)
        (grow,) = updater.plan_update(base, UpdateBatch(
            [AddVertex(a, ising_vertex(0.1)) for a in (4, 5)]), params).phases
        assert (grow.name, grow.vertices) == ("add_vertices", (4, 5))
        updater.add_vertices(grow, log, draws)
        twin = twin_of(log)
        assert_agrees(log, twin)
        kept = [(v, c) for v, c in zip(twin.verts, twin.spins) if v < 4]
        assert 0 < len(kept) < 200
        assert kept == list(zip(verts, spins))[:len(kept)]
        assert {v: twin.initial[v] for v in range(4)} == initial

        doomed = (1, 4)
        (shrink,) = updater.plan_update(grow.after, UpdateBatch(
            [DeleteVertex(v) for v in doomed]), params).phases
        assert (shrink.name, shrink.vertices) == ("delete_vertices", doomed)
        survivors = [(v, c) for v, c in zip(twin.verts, twin.spins)
                     if v not in doomed]
        updater.delete_vertices(shrink, log)
        twin = twin_of(log)
        assert_agrees(log, twin)
        assert list(zip(twin.verts, twin.spins))[:len(survivors)] == survivors
        assert set(twin.initial) == {0, 2, 3, 5}


class TestFuzzAgainstLinear:
    def test_mixed_operations(self):
        rng = random.Random(77)
        initial = {v: rng.randrange(3) for v in range(5)}
        log = ExecutionLog(initial)
        twin = LinearLog(initial)
        for step in range(3000):
            L = twin.length
            r = rng.random()
            if r < 0.40 or L == 0:
                t, v, c = rng.randrange(1, L + 2), rng.randrange(5), rng.randrange(3)
                log.insert(t, v, c)
                twin.insert(t, v, c)
            elif r < 0.55:
                t = rng.randrange(1, L + 1)
                log.remove(t)
                twin.remove(t)
            elif r < 0.70:
                t, c = rng.randrange(1, L + 1), rng.randrange(3)
                log.change(t, c)
                twin.change(t, c)
            elif r < 0.80:
                t, v = rng.randrange(0, L + 1), rng.randrange(5)
                assert log.evaluate(t, v) == twin.evaluate(t, v), f"step {step}"
            elif r < 0.90:
                t = rng.randrange(1, L + 1)
                tr = log.at(t)
                assert (tr.vertex, tr.spin) == twin.at(t)
            else:
                t, v = rng.randrange(0, L + 1), rng.randrange(5)
                assert log.successor(t, v) == twin.successor(t, v)
        assert log.final_config() == twin.final_config()
        for v in range(5):
            assert log.steps_of(v) == twin.steps_of(v)

    def test_fuzz_with_periodic_compact(self):
        rng = random.Random(78)
        initial = {v: 0 for v in range(3)}
        log = ExecutionLog(initial)
        twin = LinearLog(initial)
        for step in range(1500):
            L = twin.length
            if rng.random() < 0.5 or L == 0:
                t, v, c = rng.randrange(1, L + 2), rng.randrange(3), rng.randrange(2)
                log.insert(t, v, c)
                twin.insert(t, v, c)
            else:
                t = rng.randrange(1, L + 1)
                log.remove(t)
                twin.remove(t)
            if step % 400 == 399:
                log.compact()
        assert log.final_config() == twin.final_config()


class TestLoadRun:
    def test_replaces_content_in_place(self):
        log = small_log()
        log.load_run({0: 1, 5: 0}, [5, 0], [1, 0])
        assert log.length == 2
        assert set(log.vertex_ids()) == {0, 5}
        assert log.final_config() == {0: 0, 5: 1}

    def test_journal_spans_reload(self):
        # old finals {0:0, 1:0, 2:1}; reload drops 2, keeps 0 at 0, flips 1
        log = small_log()
        log.begin_final_journal()
        log.load_run({0: 1, 1: 0}, [0, 1], [0, 1])
        journal = log.take_final_journal()
        assert journal[2] == 1
        assert journal.get(1) == 0
        assert log.final_config() == {0: 0, 1: 1}
