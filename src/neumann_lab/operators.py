"""Finite-matrix restrictions of the graph Laplacian on exhaustion sets.

Two restrictions of the Laplacian to a finite connected subset are supported:

* Dirichlet: edges leaving the subset act as extra killing on the diagonal,
  so ``(Lf)(x) = (1/m) sum_{y in K} b(x,y)(f(x)-f(y)) + ((b_out(x)+c(x))/m) f(x)``.
* Neumann: the Laplacian of the induced subgraph; outgoing edges are ignored.

Operators keep their defining data exact (weights as int/Fraction/float) so
residual certificates and the mpmath reference see entries without rounding.
The dense float matrix is materialized lazily behind an overflow guard.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError, OverflowCapError
from .graphs import VertexFunction, WeightedGraph, is_connected

__all__ = [
    "OperatorKind",
    "RestrictedOperator",
    "assemble_dirichlet",
    "assemble_neumann",
    "evaluate_form",
    "laplacian_identity_check",
    "dump_matrix",
]

# float64 overflows at 2^1024; pivot row sums add at most a couple of bits
FLOAT_EXP_CAP = 1000

DENSE_SIZE_CAP = 4096


class OperatorKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


def _float_guard(value, what: str):
    """Exact-to-float conversion that refuses values beyond the cap."""
    if isinstance(value, (Fraction, int)):
        num = Fraction(value)
        if num != 0 and abs(num) >= Fraction(2) ** FLOAT_EXP_CAP:
            bits = abs(num).numerator.bit_length() - abs(num).denominator.bit_length()
            raise OverflowCapError(
                f"{what} ~ 2^{bits} exceeds the float cap 2^{FLOAT_EXP_CAP}; "
                f"use a smaller truncation")
        return float(num)
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
    """

    kind: OperatorKind
    graph: WeightedGraph
    vertices: tuple[int, ...]
    weights: tuple[dict[int, object], ...]
    killing_mass: tuple[object, ...]
    measures: tuple[object, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.vertices)}

    @cached_property
    def scale(self) -> float:
        """Largest diagonal entry of the matrix (weighted degree scale)."""
        best = 0.0
        for i in range(len(self.vertices)):
            d = _exact_ratio(sum(self.weights[i].values()) + self.killing_mass[i],
                             self.measures[i])
            best = max(best, _float_guard(d, f"degree at vertex {self.vertices[i]}"))
        return best

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense float matrix A with A[i,j] = -b/m(i) off the diagonal."""
        n = len(self.vertices)
        if n > DENSE_SIZE_CAP:
            raise InputError(f"dense matrix capped at {DENSE_SIZE_CAP} vertices (got {n})")
        A = np.zeros((n, n))
        for i in range(n):
            mi = self.measures[i]
            diag = _exact_ratio(sum(self.weights[i].values()) + self.killing_mass[i], mi)
            A[i, i] = _float_guard(diag, f"diagonal at {self.vertices[i]}")
            for j, b in self.weights[i].items():
                A[i, j] = -_float_guard(_exact_ratio(b, mi), f"entry ({i},{j})")
        return A

    @cached_property
    def measure_vector(self) -> np.ndarray:
        return np.array([_float_guard(m, "measure") for m in self.measures])

    @cached_property
    def symmetrized(self) -> np.ndarray:
        """S = M^{1/2} A M^{-1/2}: symmetric, same spectrum as A."""
        sqm = np.sqrt(self.measure_vector)
        return self.matrix * sqm[:, None] / sqm[None, :]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

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


def _assemble(kind: OperatorKind, g: WeightedGraph, subset: Sequence[int]) -> RestrictedOperator:
    vertices = tuple(subset)
    if not vertices:
        raise InputError("empty subset")
    if len(set(vertices)) != len(vertices):
        raise InputError("subset contains duplicates")
    if not is_connected(g, vertices):
        raise InputError("subset induces a disconnected subgraph")
    index = {x: i for i, x in enumerate(vertices)}
    weights = []
    killing_mass = []
    measures = []
    for x in vertices:
        nbrs = g.neighbors(x)
        row = {index[y]: b for y, b in nbrs.items() if y in index}
        kill = g.killing(x)
        if kill < 0:
            raise InputError(f"negative killing at {x}")
        if kind is OperatorKind.DIRICHLET:
            # boundary term = full row sum minus the in-subset part, which
            # avoids enumerating the (possibly infinite) complement
            outside = g.row_sum(x) - sum(nbrs[y] for y in nbrs if y in index)
            if outside < 0:
                if float(abs(outside)) > 1e-12 * float(g.row_sum(x)):
                    raise InputError(f"inconsistent row sum at vertex {x}")
                outside = 0
            kill = kill + outside
        mx = g.measure(x)
        if not mx > 0:
            raise InputError(f"nonpositive measure m({x}) = {mx}")
        weights.append(row)
        killing_mass.append(kill)
        measures.append(mx)
    return RestrictedOperator(kind, g, vertices, tuple(weights),
                              tuple(killing_mass), tuple(measures))


def assemble_dirichlet(g: WeightedGraph, subset: Sequence[int]) -> RestrictedOperator:
    """Restriction keeping outgoing edges as diagonal killing."""
    return _assemble(OperatorKind.DIRICHLET, g, subset)


def assemble_neumann(g: WeightedGraph, subset: Sequence[int]) -> RestrictedOperator:
    """Laplacian of the induced subgraph (outgoing edges dropped)."""
    return _assemble(OperatorKind.NEUMANN, g, subset)


def evaluate_form(op: RestrictedOperator, f: VertexFunction) -> float:
    """Energy of f under the operator's quadratic form.

    Neumann: (1/2) sum_{x,y in K} b(x,y)(f(x)-f(y))^2 + sum c f^2.
    Dirichlet: same plus the boundary mass, i.e. the energy of the
    extension of f by zero.  Agrees with <Lf, f>_m up to rounding.
    """
    vec = op.local_vector(f)
    total = 0.0
    for i in range(len(op)):
        for j, b in op.weights[i].items():
            if j > i:
                total += float(b) * (vec[i] - vec[j]) ** 2
        total += float(op.killing_mass[i]) * vec[i] ** 2
    return total


def laplacian_identity_check(g: WeightedGraph, subset: Sequence[int],
                             f: VertexFunction) -> float:
    """Max deviation in the identity linking the Neumann restriction to the
    formal Laplacian: L_K f = (Delta of f extended by 0) - f * (Delta 1_K).

    The killing term enters both Delta evaluations, so the f*(c/m) part of
    the subtrahend must be added back; otherwise the identity only holds for
    c = 0 (single vertex with killing is a counterexample).  Returns the
    worst absolute mismatch over the subset; algebraically zero.
    """
    from .graphs import formal_laplacian

    op = assemble_neumann(g, subset)
    vec = op.local_vector(f)
    applied = op.apply(vec)
    ones = VertexFunction({x: 1 for x in subset})
    ext = VertexFunction({x: f(x) for x in subset if f(x) != 0})
    worst = 0.0
    for i, x in enumerate(op.vertices):
        kill = float(g.killing(x)) / float(g.measure(x))
        rhs = (float(formal_laplacian(g, ext, x))
               - vec[i] * (float(formal_laplacian(g, ones, x)) - kill))
        worst = max(worst, abs(applied[i] - rhs))
    return worst


def dump_matrix(op: RestrictedOperator) -> str:
    """Row/col/value triples of the dense matrix, for external verification."""
    A = op.matrix
    lines = [f"# kind={op.kind.value} n={len(op)}"]
    for i in range(len(op)):
        for j in range(len(op)):
            if A[i, j] != 0.0:
                lines.append(f"{i} {j} {float(A[i, j])!r}")
    return "\n".join(lines) + "\n"
