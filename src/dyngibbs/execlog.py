"""Execution log: an initial configuration plus an editable transition sequence.

The log stores X0 and the ordered transitions <v_t, c_t> of one chain and
answers point-in-time queries:

  evaluate(t, v)   spin of v after the first t transitions
  successor(t, v)  next rank > t whose transition touches v
  at(t)            the transition occupying rank t

One representation backs it: two rank-ordered columns (vertex, spin) plus,
per vertex, the ascending list of ranks whose transition touches it. With n
vertices, T transitions and k ranks on the queried vertex:

  at, change, length, columns       O(1)
  set_initial                       O(1)
  evaluate, successor               O(log k), one bisect
  steps_of                          O(k)
  insert at T + 1, remove at T      O(1)
  insert / remove at an inner rank  O(n + T): the columns shift at C level,
                                    and every vertex's later ranks move by one
  load_run                          O(n + T): every rank list is rebuilt

Spin changes dominate the dynamic updates and never move a rank. The updater
makes no inner rank edits: a vertex phase copies the columns, edits the copies
at C level and reloads the log once through load_run, O(n + T) per chain, and
the length correction only appends or pops at the tail.

A log also keeps the final configuration X_T as an explicit dict, updated
incrementally by every mutation, so sample extraction is O(n) copying.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import RankOutOfRange, UnknownVertex


@dataclass(frozen=True)
class Transition:
    vertex: int
    spin: int


class ExecutionLog:
    def __init__(self, initial: Mapping[int, int]):
        self._initial: dict[int, int] = dict(initial)
        self._final: dict[int, int] = dict(self._initial)
        self._verts: list[int] = []
        self._spins: list[int] = []
        self._ranks: dict[int, list[int]] = {v: [] for v in self._initial}
        self._journal: dict[int, int | None] | None = None

    # Every write to the final-config cache funnels through these two, so an
    # open journal sees the first pre-change value of each touched vertex.

    def _jset(self, v: int, c: int) -> None:
        j = self._journal
        if j is not None and v not in j:
            j[v] = self._final.get(v)
        self._final[v] = c

    def _jdel(self, v: int) -> None:
        j = self._journal
        if j is not None and v not in j:
            j[v] = self._final.get(v)
        del self._final[v]

    def begin_final_journal(self) -> None:
        """Start recording final-config changes; one journal at a time."""
        self._journal = {}

    def take_final_journal(self) -> dict[int, int | None]:
        """Stop recording; return vertex -> pre-journal spin (None = absent)."""
        j = self._journal
        if j is None:
            raise RuntimeError("no journal in progress")
        self._journal = None
        return j

    @classmethod
    def from_run(
        cls, initial: Mapping[int, int], verts: list[int], spins: list[int]
    ) -> "ExecutionLog":
        """Bulk constructor for a freshly generated chain (no validation);
        the columns are copied."""
        log = cls({})  # load_run builds every field once
        log.load_run(initial, list(verts), list(spins))
        return log

    def load_run(
        self, initial: Mapping[int, int], verts: list[int], spins: list[int]
    ) -> None:
        """Replace the whole log with the given run, in place; O(n + T).

        The log takes ownership of the two column lists; the caller must not
        use them afterwards. Journal-aware: an open journal sees every
        final-config change, so a reload still yields a correct sample diff.
        """
        old_vertices = set(self._initial)
        self._initial = dict(initial)
        self._verts = verts
        self._spins = spins
        self._ranks = {v: [] for v in self._initial}
        for i, v in enumerate(verts):
            self._ranks[v].append(i + 1)
        for v in old_vertices - set(self._initial):
            self._jdel(v)
        for v, c0 in self._initial.items():
            rs = self._ranks[v]
            self._jset(v, spins[rs[-1] - 1] if rs else c0)

    # -- size and iteration ---------------------------------------------------

    @property
    def length(self) -> int:
        return len(self._verts)

    def __len__(self) -> int:
        return self.length

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._initial))

    def has_vertex(self, v: int) -> bool:
        return v in self._initial

    def initial_config(self) -> dict[int, int]:
        return dict(self._initial)

    def final_config(self) -> dict[int, int]:
        """X at the end of the log; maintained incrementally, O(n) to copy."""
        return dict(self._final)

    def columns(self) -> tuple[list[int], list[int]]:
        """The vertex and spin columns in rank order, by reference; do not
        mutate."""
        return self._verts, self._spins

    def transitions(self) -> Iterator[Transition]:
        for v, c in zip(self._verts, self._spins):
            yield Transition(v, c)

    def steps_of(self, v: int) -> tuple[int, ...]:
        """All ranks whose transition touches v, ascending."""
        if v not in self._initial:
            raise UnknownVertex(f"vertex {v}")
        return tuple(self._ranks[v])

    # -- queries ---------------------------------------------------------------

    def at(self, t: int) -> Transition:
        if not 1 <= t <= self.length:
            raise RankOutOfRange(f"rank {t} outside 1..{self.length}")
        return Transition(self._verts[t - 1], self._spins[t - 1])

    def evaluate(self, t: int, v: int) -> int:
        """Spin of v after the first t transitions; t past the end clamps."""
        if v not in self._initial:
            raise UnknownVertex(f"vertex {v}")
        if t < 0:
            raise RankOutOfRange(f"rank {t} is negative")
        if t >= self.length:
            return self._final[v]
        rs = self._ranks[v]
        i = bisect_right(rs, t)
        return self._initial[v] if i == 0 else self._spins[rs[i - 1] - 1]

    def successor(self, t: int, v: int):
        """Smallest rank > t whose transition touches v, or None."""
        if v not in self._initial:
            raise UnknownVertex(f"vertex {v}")
        if t < 0:
            raise RankOutOfRange(f"rank {t} is negative")
        rs = self._ranks[v]
        i = bisect_right(rs, t)
        return rs[i] if i < len(rs) else None

    # -- mutations ---------------------------------------------------------------

    def insert(self, t: int, v: int, c: int) -> None:
        """Put <v, c> at rank t; the transitions from t on move up one rank."""
        n = self.length
        if not 1 <= t <= n + 1:
            raise RankOutOfRange(f"rank {t} outside 1..{n + 1}")
        if v not in self._initial:
            raise UnknownVertex(f"vertex {v}")
        rs = self._ranks[v]
        if t == n + 1:
            i = len(rs)
        else:
            self._shift_ranks(t, 1)
            i = bisect_left(rs, t)
        self._verts.insert(t - 1, v)
        self._spins.insert(t - 1, c)
        rs.insert(i, t)
        if i == len(rs) - 1:
            self._jset(v, c)

    def remove(self, t: int) -> None:
        """Drop the transition at rank t; the later ones move down one rank."""
        n = self.length
        if not 1 <= t <= n:
            raise RankOutOfRange(f"rank {t} outside 1..{n}")
        v = self._verts.pop(t - 1)
        del self._spins[t - 1]
        rs = self._ranks[v]
        i = len(rs) - 1 if t == n else bisect_left(rs, t)
        del rs[i]
        if t < n:
            self._shift_ranks(t + 1, -1)
        if i == len(rs):
            self._jset(v, self._spins[rs[-1] - 1] if rs else self._initial[v])

    def _shift_ranks(self, t: int, d: int) -> None:
        # Add d to every recorded rank >= t: one check per vertex, then a
        # bisect and a slice assignment where the vertex has such ranks.
        for rs in self._ranks.values():
            if rs and rs[-1] >= t:
                i = bisect_left(rs, t)
                rs[i:] = [r + d for r in rs[i:]]

    def set_initial(self, v: int, c: int) -> None:
        """Set v's spin in X0. It is also v's final spin when v has no
        transitions, and only then does an open journal see a change."""
        if v not in self._initial:
            raise UnknownVertex(f"vertex {v}")
        self._initial[v] = c
        if not self._ranks[v]:
            self._jset(v, c)

    def change(self, t: int, c: int) -> None:
        if not 1 <= t <= self.length:
            raise RankOutOfRange(f"rank {t} outside 1..{self.length}")
        v = self._verts[t - 1]
        self._spins[t - 1] = c
        if self._ranks[v][-1] == t:
            self._jset(v, c)

    def compact(self) -> None:
        """No-op: the log has one representation, so there is nothing to
        compact. Kept because the benchmark's tracer still wraps it."""
