"""Finite-matrix restrictions of the graph Laplacian on exhaustion sets.

Two restrictions of the Laplacian to a finite connected subset are supported:

* Dirichlet: edges leaving the subset act as extra killing on the diagonal,
  so ``(Lf)(x) = (1/m) sum_{y in K} b(x,y)(f(x)-f(y)) + ((b_out(x)+c(x))/m) f(x)``.
* Neumann: the Laplacian of the induced subgraph; outgoing edges are ignored.

Operators keep their defining data exact (weights as int/Fraction/float),
so the residual certificate sees entries without rounding.  Assembly also
builds the float rows every solver runs on: the off-diagonal ratios b/m, the
excess (killing mass)/m and the diagonal, each value converted behind the
overflow guard, so an operator beyond the float cap fails at assembly.
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
from fractions import Fraction
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
    "restrict",
]

# float64 overflows at 2^1024; pivot row sums add at most a couple of bits
FLOAT_EXP_CAP = 1000
_FLOAT_CAP_VALUE = 2 ** FLOAT_EXP_CAP

DENSE_SIZE_CAP = 4096


class OperatorKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


def _float_guard(value, what: str):
    """Exact-to-float conversion that refuses values beyond the cap."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        # |value| < 2^(bits(num) - bits(den) + 1) <= 2^(FLOAT_EXP_CAP - 1): no
        # exact comparison needed, and int / int rounds as float(value) does
        if num.bit_length() - den.bit_length() < FLOAT_EXP_CAP - 1:
            return num / den
    if isinstance(value, (Fraction, int)):
        if abs(value) >= _FLOAT_CAP_VALUE:
            num = abs(Fraction(value))
            bits = num.numerator.bit_length() - num.denominator.bit_length()
            raise OverflowCapError(
                f"{what} ~ 2^{bits} exceeds the float cap 2^{FLOAT_EXP_CAP}; "
                f"use a smaller truncation")
        return float(value)
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        raise OverflowCapError(f"{what} is not float-representable")
    return v


def _exact_ratio(num, den):
    """num / den, exact unless an operand is a float, so that ``_float_guard``
    sees the true size: int / int raises a bare OverflowError beyond 2^1024."""
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    return Fraction(num, den)


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
            degree = _float_guard(_exact_ratio(inner + kill, mx), f"degree at vertex {x}")
            floats = ({j: _float_guard(_exact_ratio(b, mx), f"entry ({x},{vertices[j]})")
                       for j, b in row.items()},
                      _float_guard(_exact_ratio(kill, mx), "excess"), degree)
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
