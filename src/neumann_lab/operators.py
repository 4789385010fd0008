"""Finite-matrix restrictions of the graph Laplacian on exhaustion sets.

Two restrictions of the Laplacian to a finite connected subset are supported:

* Dirichlet: edges leaving the subset act as extra killing on the diagonal,
  so ``(Lf)(x) = (1/m) sum_{y in K} b(x,y)(f(x)-f(y)) + ((b_out(x)+c(x))/m) f(x)``.
* Neumann: the Laplacian of the induced subgraph; outgoing edges are ignored.

Operators keep their defining data exact (weights as int/Fraction/float),
so the residual certificate sees entries without rounding.  Assembly also
builds the float rows every solver runs on: the off-diagonal ratios b/m, the
excess (killing mass)/m and the diagonal.  One rounding helper,
:func:`_float_guard`, rounds every ratio: exact operands become one integer
ratio, rounded by one correctly rounded division, and a ratio beyond the
float cap is refused, so an operator beyond the cap fails at assembly;
:func:`fits` tells ahead of assembly whether a vertex stays below it.
Every exact sum of integer ratios is one :func:`_running_sums`.
Every restriction is read off the row store of an :class:`Exhaustion`
(:func:`restrict`), which converts an interior row once for both kinds and
every larger set and a boundary row per set; :func:`assemble_dirichlet` and
:func:`assemble_neumann` are the one-set case.  The dense float matrix is
materialized lazily from the float rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError, OverflowCapError
from .graphs import Exhaustion, VertexFunction, WeightedGraph

__all__ = [
    "OperatorKind",
    "RestrictedOperator",
    "assemble_dirichlet",
    "assemble_neumann",
    "dump_matrix",
    "fits",
    "restrict",
]

# float64 overflows at 2^1024; pivot row sums add at most a couple of bits
FLOAT_EXP_CAP = 1000

DENSE_SIZE_CAP = 4096


class OperatorKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


def _float_guard(num, what: str, den=1):
    """num/den (den > 0) rounded to a float, refusing a ratio beyond the cap.

    A float operand divides as floats; exact operands (int or Fraction) become
    one integer ratio n/d, and ``n / d`` rounds it correctly to a float."""
    if isinstance(num, float) or isinstance(den, float):
        try:
            v = float(num / den)
            if math.isfinite(v):
                return v
        except OverflowError:  # an exact operand beyond float range
            pass
        raise OverflowCapError(f"{what} is not float-representable")
    n, d = num.numerator * den.denominator, num.denominator * den.numerator
    # |n/d| < 2^(bits(n) - bits(d) + 1): the exact comparison only near the cap
    if n.bit_length() - d.bit_length() >= FLOAT_EXP_CAP - 1 and abs(n) >= d << FLOAT_EXP_CAP:
        g = math.gcd(n, d)
        bits = (abs(n) // g).bit_length() - (d // g).bit_length()
        raise OverflowCapError(f"{what} ~ 2^{bits} exceeds the float cap "
                               f"2^{FLOAT_EXP_CAP}; use a smaller truncation")
    return n / d


def _running_sums(terms):
    """Yield the exact partial sums of integer-ratio terms (n, d), d > 0, as
    pairs (numerator, denominator).  The denominator is the lcm of the
    terms' denominators so far, so the numerators stay integers and no sum
    needs a gcd."""
    num, den = 0, 1
    for n, d in terms:
        if den % d:
            lcm = math.lcm(den, d)
            num, den = num * (lcm // den), lcm
        num += n * (den // d)
        yield num, den


def fits(g: WeightedGraph, x: int) -> bool:
    """Whether the measure of x and its whole-graph weighted degree
    (row sum + killing)/m pass :func:`_float_guard`.  The two bound every
    value that a restriction of either kind rounds at x, so ``models``
    decides its caps with this predicate alone; the guards in
    :func:`restrict` stay the backstop for custom chains whose degrees are
    not monotone."""
    m = g.measure(x)
    try:
        _float_guard(m, "measure")
        _float_guard(g.row_sum(x) + g.killing(x), "degree", m)
    except OverflowCapError:
        return False
    return True


@dataclass(frozen=True)
class RestrictedOperator:
    """Matrix realization of a Dirichlet or Neumann restriction.

    ``weights[i][j]`` holds the restricted edge weight b(x_i, x_j) for local
    indices, ``killing_mass[i]`` the diagonal mass c(x_i) plus, for the
    Dirichlet kind, the total weight of edges leaving the subset.  The local
    index order is the subset's insertion order, fixed at assembly.

    The float rows are built from that exact data at assembly:
    ``offdiag[i][j] = b(x_i, x_j)/m(x_i)``, ``excess[i] = killing_mass[i]/m(x_i)``
    and ``diagonal[i] = (sum_j b(x_i, x_j) + killing_mass[i])/m(x_i)``, each
    the float nearest to the exact ratio (a float division where an operand
    is a float).
    """

    kind: OperatorKind
    graph: WeightedGraph
    vertices: tuple[int, ...]
    weights: tuple[dict[int, object], ...]
    killing_mass: tuple[object, ...]
    measures: tuple[object, ...]
    offdiag: tuple[dict[int, float], ...] = field(compare=False)
    excess: np.ndarray = field(compare=False)
    diagonal: np.ndarray = field(compare=False)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.vertices)}

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense float matrix A with A[i,j] = -b/m(i) off the diagonal."""
        n = len(self.vertices)
        if n > DENSE_SIZE_CAP:
            raise InputError(f"dense matrix capped at {DENSE_SIZE_CAP} vertices (got {n})")
        A = np.zeros((n, n))
        for i, row in enumerate(self.offdiag):
            for j, v in row.items():
                A[i, j] = -v
        np.fill_diagonal(A, self.diagonal)
        return A

    @cached_property
    def measure_vector(self) -> np.ndarray:
        return np.array([_float_guard(m, "measure") for m in self.measures])

    def local_vector(self, f: VertexFunction) -> np.ndarray:
        """Restrict a vertex function to the subset; reject outside support."""
        vec = np.zeros(len(self.vertices))
        idx = self.index
        for x, v in f.values.items():
            if v == 0:
                continue
            if x not in idx:
                raise InputError(f"function supported outside the subset at vertex {x}")
            vec[idx[x]] = float(v)
        return vec

    def vertex_function(self, vec: np.ndarray) -> VertexFunction:
        return VertexFunction({x: float(v) for x, v in zip(self.vertices, vec) if v != 0.0})


def restrict(ex: Exhaustion, k: int, kind: OperatorKind) -> RestrictedOperator:
    """The restriction of ``kind`` to set k of the exhaustion: the first n_k
    rows of its row store (shared by its slices), with their entries below
    n_k.  A row is stored when a restriction first includes it, just before
    its conversion, so a measure, killing or overflow error comes at the
    first set holding it.  An interior row (all neighbours in the set) is the
    same for both kinds and every larger set, so its float row is converted
    once and its dicts are shared by every operator read; a boundary row is
    converted per set."""
    g, vertices, (top, store) = ex.graph, ex.sets[k], ex._store
    n = len(vertices)
    index = {x: i for i, x in enumerate(top)} if len(store) < n else None
    rows = []
    for i, x in enumerate(vertices):
        if i == len(store):
            # [entries {position in the largest set: b}, reach (the largest
            #  neighbour position), killing, measure, interior float row]
            nbrs = g._row(x)
            kill, mx = g.killing(x), g.measure(x)
            entries = {index[y]: b for y, b in nbrs.items() if y in index}
            reach = max(entries, default=-1) if len(entries) == len(nbrs) else math.inf
            store.append([entries, reach, kill, mx, None])
        entries, reach, kill, mx, floats = stored = store[i]
        interior = reach < n
        row = entries if interior else {j: b for j, b in entries.items() if j < n}
        if not interior or floats is None:
            inner = sum(row.values())
            if kind is OperatorKind.DIRICHLET and not interior:
                # boundary term = the vertex's degree minus its in-subset
                # part.  A row mixing Fraction and float weights can round
                # this difference a few ulps below 0; the true mass is >= 0.
                kill = kill + max(g.row_sum(x) - inner, 0)
            # the degree is the row's largest value, so an overflowing row
            # fails on it first
            degree = _float_guard(inner + kill, f"degree at vertex {x}", mx)
            floats = ({j: _float_guard(b, "entry", mx) for j, b in row.items()},
                      _float_guard(kill, "excess", mx), degree)
            if interior:
                stored[4] = floats
        rows.append((row, kill, mx, *floats))
    weights, killing_mass, measures, offdiag, excess, diagonal = zip(*rows)
    return RestrictedOperator(kind, g, vertices, weights, killing_mass, measures, offdiag,
                              _frozen_array(excess), _frozen_array(diagonal))


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def assemble_dirichlet(g: WeightedGraph, subset: Sequence[int]) -> RestrictedOperator:
    """Restriction keeping outgoing edges as diagonal killing."""
    return restrict(Exhaustion.build(g, [subset]), 0, OperatorKind.DIRICHLET)


def assemble_neumann(g: WeightedGraph, subset: Sequence[int]) -> RestrictedOperator:
    """Laplacian of the induced subgraph (outgoing edges dropped)."""
    return restrict(Exhaustion.build(g, [subset]), 0, OperatorKind.NEUMANN)


def dump_matrix(op: RestrictedOperator) -> str:
    """Row/col/value triples of the matrix from its rows, for external verification."""
    lines = [f"# kind={op.kind.value} n={len(op)}"]
    for i, row in enumerate(op.offdiag):
        entries = {j: -v for j, v in row.items()} | {i: float(op.diagonal[i])}
        lines.extend(f"{i} {j} {v!r}" for j, v in sorted(entries.items()) if v != 0.0)
    return "\n".join(lines) + "\n"
