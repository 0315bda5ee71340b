"""Markov random field instances and their local numerical operations.

An instance is a simple undirected graph with a log-potential on every vertex
(length-q vector) and every edge (symmetric q x q matrix). Minus infinity is a
legal log-weight and encodes hard constraints; exp(-inf) is exactly zero. All
probability computations happen in log-space with max-subtraction.

Vertex ids are opaque 64-bit integers. Everywhere the package iterates over
vertices or edges, it does so in ascending id order, which is what makes
seeded runs reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DegreeTooLarge,
    InfeasibleInstance,
    InfeasibleNeighborhood,
    InvalidBatch,
    MissingBoundary,
    UnknownVertex,
)

NEG_INF = float("-inf")
INF = float("inf")

_ID_BOUND = 1 << 63


def _check_id(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex id must be an int, got {type(v).__name__}")
    if not (-_ID_BOUND <= v < _ID_BOUND):
        raise ValueError(f"vertex id {v} outside 64-bit range")
    return v


def _check_weight(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("potential weights may not be NaN")
    if x == INF:
        raise ValueError("potential weights may not be +inf")
    return x


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalized unordered edge key (smaller id first)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SpinDomain:
    """The spin alphabet {0, ..., q-1}."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"spin domain needs q >= 2, got {self.q!r}")

    def spins(self) -> range:
        return range(self.q)


@dataclass(frozen=True)
class VertexPotential:
    """Log-weights phi_v(c) for c in 0..q-1; -inf allowed, NaN/+inf rejected."""

    weights: tuple[float, ...]

    def __init__(self, weights: Iterable[float]):
        object.__setattr__(self, "weights", tuple(_check_weight(w) for w in weights))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, c: int) -> float:
        return self.weights[c]


@dataclass(frozen=True)
class EdgePotential:
    """Symmetric log-weight matrix phi_e(a, b); stored row-major as tuples."""

    weights: tuple[tuple[float, ...], ...]

    def __init__(self, weights: Iterable[Iterable[float]]):
        rows = tuple(tuple(_check_weight(w) for w in row) for row in weights)
        q = len(rows)
        if any(len(row) != q for row in rows):
            raise ValueError("edge potential must be a square matrix")
        for a in range(q):
            for b in range(a + 1, q):
                wa, wb = rows[a][b], rows[b][a]
                if wa != wb and not (wa == NEG_INF and wb == NEG_INF):
                    raise ValueError(
                        f"edge potential not symmetric at ({a},{b}): {wa} vs {wb}"
                    )
        object.__setattr__(self, "weights", rows)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, a: int) -> tuple[float, ...]:
        return self.weights[a]


# ---------------------------------------------------------------------------
# Update batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AddVertex:
    vertex: int
    potential: VertexPotential


@dataclass(frozen=True)
class DeleteVertex:
    vertex: int


@dataclass(frozen=True)
class AddEdge:
    u: int
    v: int
    potential: EdgePotential


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class SetVertexPotential:
    vertex: int
    potential: VertexPotential


@dataclass(frozen=True)
class SetEdgePotential:
    u: int
    v: int
    potential: EdgePotential


UpdateRecord = Union[
    AddVertex, DeleteVertex, AddEdge, DeleteEdge, SetVertexPotential, SetEdgePotential
]


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered list of update records, applied sequentially.

    Validity (existing ids, isolation before DeleteVertex, arity against q) is
    checked when the batch is applied to a concrete instance.
    """

    records: tuple[UpdateRecord, ...]

    def __init__(self, records: Iterable[UpdateRecord]):
        object.__setattr__(self, "records", tuple(records))

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

class MrfInstance:
    """Immutable MRF instance.

    The constructor validates everything it is given, since that is outside
    input, and copies the given mappings; potential objects themselves are
    shared (they are immutable).

    ``apply_batch`` derives a child from a validated parent in time
    proportional to the batch: every map the batch leaves alone is shared as
    the same object, the others are copied at C level, and only the vertices
    and edges the batch names are validated and have their adjacency
    re-sorted. The child remembers which items its batch named, but keeps no
    reference to its parent; ``instance_delta`` reads that record to compare a
    parent with its child in O(1).

    Two checks keep their answers on the instance, and ``apply_batch`` hands
    them to the child by reference with the touched vertices (the named ones
    plus the endpoints of named edges) marked pending, so the child
    re-checks only those: ``validate_feasibility`` its set of violating
    vertices, and ``dobrushin_check`` its influence entries A(u, v), one
    tuple per centre v, and its row sums. Nothing is copied until the child
    is checked.

    Each instance caches the local views ``local_restriction`` builds, one per
    vertex on first ask. A derived instance starts with none: a view is built
    only where something reads it.
    """

    __slots__ = (
        "domain", "_vertices", "_edges", "_adj", "_ids", "_ekeys", "_views",
        "_token", "_origin", "_feas", "_dob",
    )

    def __init__(
        self,
        domain: SpinDomain,
        vertices: Mapping[int, VertexPotential],
        edges: Mapping[tuple[int, int], EdgePotential] = (),
    ):
        q = domain.q
        vdict: dict[int, VertexPotential] = {}
        for v, phi in vertices.items():
            _check_id(v)
            if not isinstance(phi, VertexPotential):
                phi = VertexPotential(phi)
            if len(phi) != q:
                raise ValueError(f"vertex {v}: potential length {len(phi)} != q={q}")
            vdict[v] = phi

        edict: dict[tuple[int, int], EdgePotential] = {}
        adj: dict[int, set[int]] = {v: set() for v in vdict}
        eitems = edges.items() if isinstance(edges, Mapping) else edges
        for (u, v), phi in eitems:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in vdict or v not in vdict:
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            key = edge_key(u, v)
            if key in edict:
                raise ValueError(f"duplicate edge {key}")
            if not isinstance(phi, EdgePotential):
                phi = EdgePotential(phi)
            if len(phi) != q:
                raise ValueError(f"edge {key}: potential size {len(phi)} != q={q}")
            edict[key] = phi
            adj[u].add(v)
            adj[v].add(u)

        self.domain = domain
        self._vertices = vdict
        self._edges = edict
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        self._ids = tuple(sorted(vdict))
        self._ekeys = tuple(sorted(edict))
        self._views = {}
        self._token = object()
        self._origin = None
        self._feas = None
        self._dob = None

    # -- read access ---------------------------------------------------------

    @property
    def q(self) -> int:
        return self.domain.q

    @property
    def n(self) -> int:
        return len(self._vertices)

    def vertex_ids(self) -> tuple[int, ...]:
        ids = self._ids
        if ids is None:
            ids = self._ids = tuple(sorted(self._vertices))
        return ids

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def vertex_potential(self, v: int) -> VertexPotential:
        try:
            return self._vertices[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v}") from None

    def edge_keys(self) -> tuple[tuple[int, int], ...]:
        keys = self._ekeys
        if keys is None:
            keys = self._ekeys = tuple(sorted(self._edges))
        return keys

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edges

    def edge_potential(self, u: int, v: int) -> EdgePotential:
        try:
            return self._edges[edge_key(u, v)]
        except KeyError:
            raise UnknownVertex(f"edge ({u},{v}) not present") from None

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v}") from None

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Vertex -> ascending neighbour tuple, by reference; do not mutate."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(nb) for nb in self._adj.values()), default=0)

    def edge_count(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MrfInstance):
            return NotImplemented
        return (
            self.domain == other.domain
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    __hash__ = None  # type: ignore[assignment]  # mutable-compare semantics

    def __repr__(self) -> str:
        return f"MrfInstance(q={self.q}, n={self.n}, m={len(self._edges)})"

    # -- batch application ----------------------------------------------------

    def apply_batch(self, batch: UpdateBatch) -> "MrfInstance":
        """Apply an ordered batch, validating every record; returns a new instance.

        Costs O(|batch| * Δ) plus a C-level copy of each map the batch
        changes. An invalid batch raises InvalidBatch and leaves self as it
        was. The child carries self's feasibility answer and influence
        entries forward, with the touched vertices marked for re-checking.
        """
        q = self.q
        # Maps are copied on their first write, so untouched ones are shared.
        vertices = self._vertices
        edges = self._edges
        adj = self._adj
        ids_changed = keys_changed = False
        nbrs: dict[int, set[int]] = {}  # working neighbour sets, touched vertices
        named_v: set[int] = set()
        named_e: set[tuple[int, int]] = set()

        def _arity_v(phi: VertexPotential):
            if len(phi) != q:
                raise InvalidBatch(f"vertex potential length {len(phi)} != q={q}")

        def _arity_e(phi: EdgePotential):
            if len(phi) != q:
                raise InvalidBatch(f"edge potential size {len(phi)} != q={q}")

        def _nbrs(v: int) -> set[int]:
            s = nbrs.get(v)
            if s is None:
                s = nbrs[v] = set(adj[v])
            return s

        for rec in batch:
            if isinstance(rec, AddVertex):
                if rec.vertex in vertices:
                    raise InvalidBatch(f"add_vertex: {rec.vertex} already present")
                _check_id(rec.vertex)
                _arity_v(rec.potential)
                if vertices is self._vertices:
                    vertices = dict(vertices)
                vertices[rec.vertex] = rec.potential
                nbrs[rec.vertex] = set()
                named_v.add(rec.vertex)
                ids_changed = True
            elif isinstance(rec, DeleteVertex):
                if rec.vertex not in vertices:
                    raise InvalidBatch(f"del_vertex: {rec.vertex} not present")
                if _nbrs(rec.vertex):
                    raise InvalidBatch(f"del_vertex: {rec.vertex} is not isolated")
                if vertices is self._vertices:
                    vertices = dict(vertices)
                del vertices[rec.vertex]
                del nbrs[rec.vertex]
                named_v.add(rec.vertex)
                ids_changed = True
            elif isinstance(rec, AddEdge):
                key = edge_key(rec.u, rec.v)
                if rec.u == rec.v:
                    raise InvalidBatch(f"add_edge: self-loop on {rec.u}")
                if rec.u not in vertices or rec.v not in vertices:
                    raise InvalidBatch(f"add_edge: missing endpoint in {key}")
                if key in edges:
                    raise InvalidBatch(f"add_edge: {key} already present")
                _arity_e(rec.potential)
                if edges is self._edges:
                    edges = dict(edges)
                edges[key] = rec.potential
                _nbrs(rec.u).add(rec.v)
                _nbrs(rec.v).add(rec.u)
                named_e.add(key)
                keys_changed = True
            elif isinstance(rec, DeleteEdge):
                key = edge_key(rec.u, rec.v)
                if key not in edges:
                    raise InvalidBatch(f"del_edge: {key} not present")
                if edges is self._edges:
                    edges = dict(edges)
                del edges[key]
                _nbrs(rec.u).discard(rec.v)
                _nbrs(rec.v).discard(rec.u)
                named_e.add(key)
                keys_changed = True
            elif isinstance(rec, SetVertexPotential):
                if rec.vertex not in vertices:
                    raise InvalidBatch(f"set_vertex_phi: {rec.vertex} not present")
                _arity_v(rec.potential)
                if vertices is self._vertices:
                    vertices = dict(vertices)
                vertices[rec.vertex] = rec.potential
                named_v.add(rec.vertex)
            elif isinstance(rec, SetEdgePotential):
                key = edge_key(rec.u, rec.v)
                if key not in edges:
                    raise InvalidBatch(f"set_edge_phi: {key} not present")
                _arity_e(rec.potential)
                if edges is self._edges:
                    edges = dict(edges)
                edges[key] = rec.potential
                named_e.add(key)
            else:
                raise InvalidBatch(f"unknown record type {type(rec).__name__}")

        if nbrs or ids_changed:
            adj = dict(adj)
            for v in named_v:
                if v not in vertices:
                    adj.pop(v, None)
            for v, s in nbrs.items():
                adj[v] = tuple(sorted(s))

        child = MrfInstance.__new__(MrfInstance)
        child.domain = self.domain
        child._vertices = vertices
        child._edges = edges
        child._adj = adj
        child._ids = None if ids_changed else self._ids
        child._ekeys = None if keys_changed else self._ekeys
        child._views = {}
        child._token = object()
        # The parent's token, not the parent: no instance keeps its parent alive.
        child._origin = (self._token, frozenset(named_v), frozenset(named_e))
        child._feas = child._dob = None
        feas, dob = self._feas, self._dob
        if feas is not None or dob is not None:
            touched = set(named_v)
            for u, v in named_e:
                touched.add(u)
                touched.add(v)
            if feas is not None:
                cap, bad, pending = feas
                child._feas = (
                    cap,
                    {v: s for v, s in bad.items() if v not in touched},
                    pending | touched,
                )
            if dob is not None:
                cap, entries, rows, pending, _ = dob
                child._dob = (cap, entries, rows, pending | touched, None)
        return child


# ---------------------------------------------------------------------------
# Local views and conditional marginals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalView:
    """Read-only restriction of an instance to one inclusive neighborhood;
    edge_phi is keyed by neighbour, in the ascending order of neighbors."""

    vertex: int
    q: int
    phi: tuple[float, ...]
    neighbors: tuple[int, ...]
    edge_phi: Mapping[int, tuple[tuple[float, ...], ...]]

    def conditional(self, boundary: Mapping[int, int]) -> list[float]:
        """Conditional marginal of the center vertex given the boundary."""
        scores = list(self.phi)
        q = self.q
        for u in self.neighbors:
            try:
                xu = boundary[u]
            except KeyError:
                raise MissingBoundary(
                    f"vertex {self.vertex}: neighbor {u} unassigned"
                ) from None
            row = self.edge_phi[u][xu]
            for c in range(q):
                scores[c] += row[c]
        m = max(scores)
        if m == NEG_INF:
            raise InfeasibleNeighborhood(
                f"vertex {self.vertex}: all spins have zero weight"
            )
        weights = [math.exp(s - m) for s in scores]
        total = sum(weights)
        return [w / total for w in weights]


def local_restriction(inst: MrfInstance, v: int) -> LocalView:
    """The restriction of the instance to v's inclusive neighborhood.

    Built on first ask and cached on the instance, so every ask returns the
    same object; do not mutate it (its edge_phi is a plain dict).
    """
    view = inst._views.get(v)
    if view is None:
        if not inst.has_vertex(v):
            raise UnknownVertex(f"vertex {v}")
        nbrs = inst.neighbors(v)
        view = inst._views[v] = LocalView(
            vertex=v,
            q=inst.q,
            phi=inst.vertex_potential(v).weights,
            neighbors=nbrs,
            edge_phi={u: inst.edge_potential(u, v).weights for u in nbrs},
        )
    return view


def start_spin(weights: Sequence[float]) -> int:
    """The spin a chain starts a vertex at: the first one its own potential
    allows. Edges play no part, so an edge edit never moves the start."""
    for c, w in enumerate(weights):
        if w > NEG_INF:
            return c
    raise InfeasibleInstance("every spin excluded by the vertex potential")


# ---------------------------------------------------------------------------
# Instance difference
# ---------------------------------------------------------------------------

def _l1(a: Sequence[float], b: Sequence[float]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue  # covers the (-inf, -inf) pair
        if x == NEG_INF or y == NEG_INF:
            return INF
        total += abs(x - y)
    return total


def _l1_matrix(a, b) -> float:
    total = 0.0
    for ra, rb in zip(a, b):
        t = _l1(ra, rb)
        if t == INF:
            return INF
        total += t
    return total


def instance_delta(
    before: MrfInstance, after: MrfInstance
) -> tuple[frozenset, frozenset]:
    """The vertex ids and edge keys named by the batch that derived `after`
    from `before`, in O(1): outside them the two instances agree, on
    presence and on potential. They may include items that came back to
    their old state. `after` must be a child of `before` by one
    ``apply_batch``.
    """
    origin = after._origin
    if origin is None or origin[0] is not before._token:
        raise ValueError("instance_delta takes an instance and its own child")
    return origin[1], origin[2]


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    vertex: int | None = None
    boundary: tuple[tuple[int, int], ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _has_permissive_spin(inst: MrfInstance, v: int) -> bool:
    # A spin whose vertex weight and all incident edge columns are finite is
    # compatible with every boundary.
    phi = inst.vertex_potential(v).weights
    for c in range(inst.q):
        if phi[c] == NEG_INF:
            continue
        if all(
            all(row[c] > NEG_INF for row in inst.edge_potential(u, v).weights)
            for u in inst.neighbors(v)
        ):
            return True
    return False


_OVER_CAP = "over the enumeration cap"


def _violation(inst: MrfInstance, v: int, degree_cap: int):
    """None when every boundary of v leaves some spin possible; otherwise the
    first violating boundary, or _OVER_CAP when v would need an enumeration
    over more than degree_cap neighbours."""
    if _has_permissive_spin(inst, v):
        return None
    nbrs = inst.neighbors(v)
    if len(nbrs) > degree_cap:
        return _OVER_CAP
    q = inst.q
    view = local_restriction(inst, v)
    phi = view.phi
    rows = [view.edge_phi[u] for u in nbrs]
    for sigma in itertools.product(range(q), repeat=len(nbrs)):
        ok = False
        for c in range(q):
            if phi[c] == NEG_INF:
                continue
            if all(rows[i][xu][c] > NEG_INF for i, xu in enumerate(sigma)):
                ok = True
                break
        if not ok:
            return tuple(zip(nbrs, sigma))
    return None


def _violations(inst: MrfInstance, degree_cap: int) -> dict:
    finite_everywhere = all(
        w > NEG_INF for phi in inst._vertices.values() for w in phi.weights
    ) and all(
        w > NEG_INF for phi in inst._edges.values() for row in phi.weights for w in row
    )
    if finite_everywhere:
        return {}
    bad = {}
    for v in inst.vertex_ids():
        s = _violation(inst, v, degree_cap)
        if s is not None:
            bad[v] = s
    return bad


def validate_feasibility(inst: MrfInstance, *, degree_cap: int = 8) -> FeasibilityReport:
    """Check that every boundary of every vertex leaves some spin possible.

    Returns a report rather than raising; the first violating (vertex,
    boundary) pair in ascending vertex order is named. Enumeration is
    exponential in degree, so the first vertex that cannot be short-circuited
    and has degree > degree_cap raises DegreeTooLarge, unless a violation
    comes before it.

    The answer is kept on the instance as the set of violating vertices, and
    ``apply_batch`` carries it forward to the child with the touched vertices
    marked. On an instance derived from a checked one this costs
    O(|touched| * q^Δ) instead of a scan of every vertex and edge.
    """
    feas = inst._feas
    if feas is not None and feas[0] == degree_cap:
        _, bad, pending = feas
        for v in pending:
            s = _violation(inst, v, degree_cap) if v in inst._vertices else None
            if s is None:
                bad.pop(v, None)
            else:
                bad[v] = s
        if pending:
            inst._feas = (degree_cap, bad, frozenset())
    else:
        bad = _violations(inst, degree_cap)
        inst._feas = (degree_cap, bad, frozenset())
    if not bad:
        return FeasibilityReport(True)
    v = min(bad)
    s = bad[v]
    if s is _OVER_CAP:
        raise DegreeTooLarge(
            f"vertex {v}: degree {inst.degree(v)} exceeds enumeration cap {degree_cap}"
        )
    return FeasibilityReport(False, v, s)


# ---------------------------------------------------------------------------
# Dobrushin-Shlosman influence check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DobrushinReport:
    row_sums: Mapping[int, float]
    delta: float
    satisfied: bool


def _tv(p: Sequence[float], r: Sequence[float]) -> float:
    return 0.5 * sum(abs(x - y) for x, y in zip(p, r))


def _influences(inst: MrfInstance, v: int) -> tuple[float, ...]:
    """A(u, v) for each neighbour u of v, in the order of inst.neighbors(v)."""
    nbrs = inst.neighbors(v)
    if not nbrs:
        return ()
    q = inst.q
    view = local_restriction(inst, v)
    out = []
    for i, u in enumerate(nbrs):
        others = nbrs[:i] + nbrs[i + 1 :]
        a_uv = 0.0
        for rest in itertools.product(range(q), repeat=len(others)):
            base = dict(zip(others, rest))
            conds = []
            for xu in range(q):
                base[u] = xu
                try:
                    conds.append(view.conditional(base))
                except InfeasibleNeighborhood:
                    conds.append(None)  # boundary excluded by hard constraints
            for x in range(q):
                if conds[x] is None:
                    continue
                for y in range(x + 1, q):
                    if conds[y] is None:
                        continue
                    d = _tv(conds[x], conds[y])
                    if d > a_uv:
                        a_uv = d
        out.append(a_uv)
    return tuple(out)


def dobrushin_check(inst: MrfInstance, *, degree_cap: int = 8) -> DobrushinReport:
    """Exact influence-matrix check.

    A(u, v) is the maximum total-variation distance between conditional
    marginals at v over boundary pairs differing only at u; the condition
    holds when every row sum stays strictly below 1. Exponential in degree,
    guarded by degree_cap: the first vertex in ascending order with more
    than degree_cap neighbours raises DegreeTooLarge.

    Incremental and cached. The entries and row sums are kept on the
    instance, and ``apply_batch`` carries them to the child with the touched
    vertices pending. A check re-enumerates only the pending centres, which
    are every vertex on a fresh instance, and rebuilds the row sums of the
    pending vertices and their neighbours, adding A(u, v) in ascending v as
    a full scan does. So delta and row_sums are bit-identical to a full
    scan, and on a derived instance the check costs O(|touched| * Δ * q^Δ)
    plus C-level copies of two n-sized maps. A second check of the same
    instance returns the same report in O(1). row_sums is read-only.
    """
    dob = inst._dob
    if dob is not None and dob[0] == degree_cap:
        _, entries, rows, pending, report = dob
        if report is not None:
            return report
        # Copies, so the parent's report and entries stay as they were.
        entries, rows = dict(entries), dict(rows)
    else:
        entries, rows, pending = {}, {}, inst.vertex_ids()
    adj = inst._adj
    affected = set()
    for v in sorted(pending):
        nbrs = adj.get(v)
        if nbrs is None:  # deleted since the last check
            entries.pop(v, None)
            rows.pop(v, None)
            continue
        if len(nbrs) > degree_cap:
            raise DegreeTooLarge(
                f"vertex {v}: degree {len(nbrs)} exceeds enumeration cap {degree_cap}"
            )
        entries[v] = _influences(inst, v)
        affected.add(v)
        affected.update(nbrs)
    for u in affected:
        total = 0.0
        for v in adj[u]:
            total += entries[v][adj[v].index(u)]
        rows[u] = total
    delta = 1.0 - max(rows.values(), default=0.0)
    report = DobrushinReport(
        row_sums=MappingProxyType(rows), delta=delta, satisfied=delta > 0.0
    )
    inst._dob = (degree_cap, entries, rows, frozenset(), report)
    return report
