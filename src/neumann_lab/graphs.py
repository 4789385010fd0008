"""Weighted graphs over discrete measure spaces, and their exhaustions.

A graph here is a countable vertex set X with a strictly positive measure m,
symmetric nonnegative edge weights b with zero diagonal and finite row sums,
and a nonnegative killing term c.  Vertices are opaque integer ids; models
that need structured indices (e.g. a two-dimensional comb) attach a label map.

Every graph keeps one store per vertex: its neighbour row (positive weights
only), its measure and its killing.  A finite graph fills the store at
construction and writes each undirected edge into both endpoints' rows, so
the symmetry b(x,y) = b(y,x) holds by construction.  An infinite graph is
described by neighbour/measure/killing callbacks and is only ever
materialized through an :class:`Exhaustion`; it fills the store from its
callbacks on a vertex's first use, with the same checks (m > 0, c >= 0), so
every truncation reads the stored values without re-evaluating the
callbacks.  A vertex's degree is the sum of its row.  An :class:`Exhaustion`
is checked once, when built, and keeps the row store its restrictions read.

Weights may be ``int``, :class:`~fractions.Fraction`, or ``float``.  Exact
rational weights survive untouched until operator assembly, which matters for
models whose weights span hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError

__all__ = [
    "WeightedGraph",
    "Exhaustion",
    "VertexFunction",
    "formal_laplacian",
    "weighted_degree",
    "vertex_boundary",
    "hop_distances",
    "is_connected",
    "parse_graph_file",
    "write_graph_file",
]


def _as_number(x):
    """Accept int/Fraction/float weights, reject everything else."""
    if isinstance(x, (int, Fraction, float)):
        return x
    raise InputError(f"unsupported numeric type {type(x).__name__}")


def _checked_measure(x: int, m):
    if not m > 0:  # also rejects nan
        raise InputError(f"nonpositive measure m({x}) = {m}")
    return m


def _checked_killing(x: int, c):
    if c < 0:
        raise InputError(f"negative killing c({x}) = {c}")
    return c


class WeightedGraph:
    """Immutable weighted graph with one per-vertex store.

    The store holds each vertex's neighbour row ``{y: b(x,y)}`` (positive
    weights only), its measure and its killing.  :meth:`from_data` fills it
    completely for a finite graph; a lazy graph (:meth:`lazy`) fills it from
    its callbacks the first time a vertex is used.
    """

    def __init__(self, *, _rows=None, _measures=None, _killings=None,
                 _neighbor_fn=None, _measure_fn=None, _killing_fn=None,
                 _label_fn=None, name=""):
        self.name = name
        self._rows: dict[int, dict[int, object]] = {} if _rows is None else _rows
        self._measures: dict[int, object] = {} if _measures is None else _measures
        self._killings: dict[int, object] = {} if _killings is None else _killings
        self._neighbor_fn = _neighbor_fn
        self._measure_fn = _measure_fn
        self._killing_fn = _killing_fn
        self._label_fn = _label_fn

    # -- construction ---------------------------------------------------

    @classmethod
    def from_data(cls, edges: Mapping[tuple[int, int], object],
                  measure: Mapping[int, object],
                  killing: Mapping[int, object] | None = None,
                  name: str = "") -> "WeightedGraph":
        """Build a finite graph from one-entry-per-edge data.

        ``edges`` maps unordered pairs to positive weights; supplying the
        same pair twice (in either orientation) is rejected, as are loops,
        nonpositive measures and negative weights.  Each edge is stored in
        both endpoints' rows, so b(x,y) = b(y,x) holds by construction.
        """
        killing = dict(killing or {})
        canon: dict[tuple[int, int], object] = {}
        for (x, y), b in edges.items():
            if x == y:
                raise InputError(f"loop edge at vertex {x}")
            b = _as_number(b)
            if b < 0:
                raise InputError(f"negative edge weight b({x},{y}) = {b}")
            if b == 0:
                continue
            key = (x, y) if x < y else (y, x)
            if key in canon:
                raise InputError(f"duplicate edge {key}")
            canon[key] = b
        m = {x: _checked_measure(x, _as_number(mx)) for x, mx in measure.items()}
        rows: dict[int, dict[int, object]] = {x: {} for x in m}
        for (x, y), b in canon.items():
            if x not in m or y not in m:
                raise InputError(f"edge ({x},{y}) touches unknown vertex")
            rows[x][y] = b
            rows[y][x] = b
        for x, cx in killing.items():
            _checked_killing(x, _as_number(cx))
            if x not in m:
                raise InputError(f"killing on unknown vertex {x}")
        return cls(_rows=rows, _measures=m, _killings=killing, name=name)

    @classmethod
    def lazy(cls, neighbor_fn: Callable[[int], Mapping[int, object]],
             measure_fn: Callable[[int], object],
             killing_fn: Callable[[int], object] | None = None,
             label_fn: Callable[[int], object] | None = None,
             name: str = "") -> "WeightedGraph":
        """Build a lazily enumerated (typically infinite) graph.

        ``neighbor_fn(x)`` returns ``{y: b(x,y)}`` for the locally finite
        neighborhood of ``x``; the degree of ``x`` is the sum of that row.

        The callbacks must be pure functions of the vertex: the neighbor
        row (positive weights only), the measure and the killing of each
        vertex are stored on first use, after the same checks
        :meth:`from_data` makes (m > 0, c >= 0).  A callback or check that
        raises stores nothing.
        """
        return cls(_neighbor_fn=neighbor_fn, _measure_fn=measure_fn,
                   _killing_fn=killing_fn, _label_fn=label_fn, name=name)

    # -- queries ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        """True for graphs from :meth:`from_data`, whose store is complete."""
        return self._neighbor_fn is None

    def vertices(self) -> Iterable[int]:
        if not self.is_finite:
            raise InputError("lazy graph has no global vertex enumeration")
        return sorted(self._measures)

    def __len__(self) -> int:
        if not self.is_finite:
            raise InputError("lazy graph has no size")
        return len(self._measures)

    def _row(self, x: int) -> dict[int, object]:
        """Neighbor map {y: b(x,y)} with positive weights; callers must not
        mutate it (it is the graph's own storage)."""
        row = self._rows.get(x)
        if row is None:
            if self.is_finite:
                return {}
            row = self._rows[x] = {y: b for y, b in self._neighbor_fn(x).items() if b > 0}
        return row

    def neighbors(self, x: int) -> dict[int, object]:
        """Neighbor map {y: b(x,y)} with positive weights only."""
        return dict(self._row(x))

    def edge_weight(self, x: int, y: int):
        """b(x,y); 0 for non-edges and on the diagonal."""
        return 0 if x == y else self._row(x).get(y, 0)

    def measure(self, x: int):
        m = self._measures.get(x)
        if m is None:
            if self.is_finite:
                raise InputError(f"unknown vertex {x}")
            m = self._measures[x] = _checked_measure(x, self._measure_fn(x))
        return m

    def killing(self, x: int):
        c = self._killings.get(x)
        if c is None:
            if self._killing_fn is None:
                return 0
            c = self._killings[x] = _checked_killing(x, self._killing_fn(x))
        return c

    def row_sum(self, x: int):
        """Total degree sum_y b(x,y) of the full (unrestricted) graph."""
        return sum(self._row(x).values())

    def label(self, x: int):
        if self._label_fn is None:
            return x
        return self._label_fn(x)


# -- vertex functions ------------------------------------------------------


@dataclass(frozen=True)
class VertexFunction:
    """Finitely supported function on vertices.

    ``values`` omits zeros; evaluation outside the stored support returns 0.
    Norms are measure-weighted: ``norm(g, p)**p == sum |f|^p m`` and
    ``norm(g, inf) == sup |f|``.
    """

    values: Mapping[int, object]

    def __call__(self, x: int):
        return self.values.get(x, 0)

    def norm(self, graph: WeightedGraph, p: float = 2) -> float:
        if p == math.inf:
            return max((abs(float(v)) for v in self.values.values()), default=0.0)
        if p <= 0:
            raise InputError(f"invalid norm order {p}")
        total = 0.0
        for x, v in self.values.items():
            total += abs(float(v)) ** p * float(graph.measure(x))
        return total ** (1.0 / p)

    @staticmethod
    def indicator(x: int) -> "VertexFunction":
        return VertexFunction({x: 1})

    @staticmethod
    def delta(graph: WeightedGraph, x: int) -> "VertexFunction":
        """Point mass normalized to unit l1(m) norm: 1_x / m(x)."""
        m = graph.measure(x)
        if isinstance(m, (int, Fraction)):
            return VertexFunction({x: Fraction(1, 1) / Fraction(m)})
        return VertexFunction({x: 1.0 / m})


# -- exhaustions -----------------------------------------------------------


@dataclass(frozen=True)
class Exhaustion:
    """Nested nonempty finite connected vertex sets X_0 <= X_1 <= ... of a graph.

    The per-set vertex order is the insertion order: X_{k+1} lists X_k's
    vertices first, then the new ones, so extension-by-zero embeddings are
    index-stable across levels and set k is a prefix of the largest set.
    ``_store`` is (that set, its rows as far as ``operators.restrict`` has
    read them), and every slice ``ex[i:j]`` shares it.
    """

    graph: WeightedGraph
    sets: tuple[tuple[int, ...], ...]
    _store: tuple = field(repr=False, compare=False)

    @staticmethod
    def build(graph: WeightedGraph, sets: Sequence[Sequence[int]]) -> "Exhaustion":
        """Check and order the sets; no restriction checks them again."""
        if not sets:
            raise InputError("exhaustion needs at least one set")
        canon: list[tuple[int, ...]] = []
        prev: list[int] = []
        prev_set: set[int] = set()
        for k, raw in enumerate(sets):
            raw = list(raw)
            raw_set = set(raw)
            if not raw:
                raise InputError(f"exhaustion set {k} is empty")
            if len(raw) != len(raw_set):
                raise InputError(f"duplicate vertices in exhaustion set {k}")
            if not prev_set <= raw_set:
                raise InputError(f"exhaustion set {k} does not contain set {k - 1}")
            new = [x for x in raw if x not in prev_set]
            ordered = prev + new
            if not is_connected(graph, ordered):
                raise InputError(f"exhaustion set {k} induces a disconnected subgraph")
            canon.append(tuple(ordered))
            prev, prev_set = ordered, raw_set
        return Exhaustion(graph, tuple(canon), (canon[-1], []))

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, k):
        """Set k, or for a slice the exhaustion of those sets."""
        if not isinstance(k, slice):
            return self.sets[k]
        if not self.sets[k]:
            raise InputError(f"empty slice of a {len(self)}-set exhaustion")
        return Exhaustion(self.graph, self.sets[k], self._store)


# -- pointwise operations --------------------------------------------------


def formal_laplacian(g: WeightedGraph, f: VertexFunction, x: int):
    """(1/m) sum_y b(x,y)(f(x) - f(y)) + (c/m) f(x) at a single vertex.

    Requires sum_y b(x,y)|f(y)| < infinity, which holds automatically for
    finitely supported f on locally finite graphs.
    """
    fx = f(x)
    acc = 0
    for y, b in g.neighbors(x).items():
        acc += b * (fx - f(y))
    m = g.measure(x)
    return (acc + g.killing(x) * fx) / m


def weighted_degree(g: WeightedGraph, x: int):
    """(sum_y b(x,y) + c(x)) / m(x)."""
    return (g.row_sum(x) + g.killing(x)) / g.measure(x)


def vertex_boundary(g: WeightedGraph, subset: Iterable[int]) -> set[int]:
    """Vertices of the subset carrying an edge that leaves it."""
    inside = set(subset)
    out = set()
    for x in inside:
        for y in g._row(x):
            if y not in inside:
                out.add(x)
                break
    return out


def hop_distances(g: WeightedGraph, subset: Iterable[int], source: int) -> dict[int, int]:
    """BFS hop distance from the source within the induced subset."""
    inside = set(subset)
    if source not in inside:
        raise InputError("source vertex not inside the subset")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        step = dist[x] + 1
        for y in g._row(x):
            if y in inside and y not in dist:
                dist[y] = step
                queue.append(y)
    return dist


def is_connected(g: WeightedGraph, subset: Iterable[int]) -> bool:
    """True iff the subgraph induced on the finite subset is connected: a BFS
    from any of its vertices reaches all of them."""
    inside = set(subset)
    return not inside or len(hop_distances(g, inside, next(iter(inside)))) == len(inside)


# -- file format -------------------------------------------------------------
#
#   # comment
#   V <id> <m> <c>
#   E <id1> <id2> <b>
#
# Values are parsed as Fractions when they contain '/' or are integers,
# as floats otherwise; nan, inf and floats that overflow are rejected.


def _parse_value(tok: str):
    if "/" in tok:
        return Fraction(tok)
    try:
        return int(tok)
    except ValueError:
        value = float(tok)
    if not math.isfinite(value):
        shown = tok if len(tok) <= 24 else tok[:20] + "..."
        raise InputError(f"value {shown!r} is not a finite number")
    return value


def parse_graph_file(text: str, name: str = "file") -> WeightedGraph:
    """Parse the line-oriented graph format; duplicate edges, nonpositive m,
    negative b or c and non-finite values are rejected."""
    measure: dict[int, object] = {}
    killing: dict[int, object] = {}
    edges: dict[tuple[int, int], object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "V":
                if len(parts) != 4:
                    raise InputError("V line needs: V <id> <m> <c>")
                x = int(parts[1])
                if x in measure:
                    raise InputError(f"duplicate vertex {x}")
                m = _parse_value(parts[2])
                c = _parse_value(parts[3])
                if m <= 0:
                    raise InputError(f"nonpositive measure at vertex {x}")
                if c < 0:
                    raise InputError(f"negative killing at vertex {x}")
                measure[x] = m
                if c != 0:
                    killing[x] = c
            elif parts[0] == "E":
                if len(parts) != 4:
                    raise InputError("E line needs: E <id1> <id2> <b>")
                x, y = int(parts[1]), int(parts[2])
                b = _parse_value(parts[3])
                if b < 0:
                    raise InputError(f"negative edge weight ({x},{y})")
                key = (x, y) if x < y else (y, x)
                if key in edges:
                    raise InputError(f"duplicate edge {key}")
                edges[key] = b
            else:
                raise InputError(f"unknown record {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as ex:
            raise InputError(f"line {lineno}: {ex}") from ex
        except InputError as ex:
            raise InputError(f"line {lineno}: {ex}") from None
    return WeightedGraph.from_data(edges, measure, killing, name=name)


def write_graph_file(g: WeightedGraph) -> str:
    """Serialize a finite graph back to the text format."""
    if not g.is_finite:
        raise InputError("only finite graphs can be serialized")
    lines = []
    for x in g.vertices():
        lines.append(f"V {x} {g.measure(x)} {g.killing(x)}")
    done = set()
    for x in g.vertices():
        for y, b in sorted(g.neighbors(x).items()):
            key = (x, y) if x < y else (y, x)
            if key not in done:
                done.add(key)
                lines.append(f"E {key[0]} {key[1]} {b}")
    return "\n".join(lines) + "\n"
