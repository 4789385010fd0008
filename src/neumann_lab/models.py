"""Generators for the lab's graph families and their canonical exhaustions.

Families:

* ``comb``: the two-dimensional half-grid with an exponentially weighted
  base row and geometrically accelerating teeth; vertex (k, n) has measure
  2^{-n} on the base (k = 0) and 1 elsewhere, tooth edges carry weight
  2^{n k} and base edges 4^{n+2}.  Weights are exact big integers;
  converting them to floats is guarded and caps the usable truncation.
* ``bd``: birth-death chains on 0, 1, 2, ... given by rate and measure
  sequences, either closed-form presets or restricted arithmetic
  expressions in r evaluated exactly in rational arithmetic.
* ``path`` / ``random``: finite unit-weight paths and seeded random
  connected graphs for the invariant corpus.
* ``file``: a finite graph read from the line-oriented graph format.

A :class:`Model` names its family, and this module owns the family rules:
the exhaustion (growing rectangles {(k, n): k <= 2j, n <= j} for the comb,
prefixes for chains (``bd``), hop balls around the origin otherwise), its
default parameters, its reference continuation and its float cap.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .birth_death import BdChain, convergent, divergent
from .errors import InputError, OverflowCapError
from .graphs import Exhaustion, WeightedGraph, hop_distances, parse_graph_file
from .operators import fits

__all__ = [
    "Model",
    "make_comb",
    "comb_vertex_id",
    "comb_vertex_label",
    "comb_rectangle",
    "make_bd_chain",
    "make_finite_path",
    "make_random_connected",
    "make_exhaustion",
    "default_indices",
    "reference_indices",
    "parse_sequence_expr",
    "build_model",
    "PRESETS",
]


@dataclass(frozen=True)
class Model:
    """A graph plus the metadata experiments need to address it."""

    graph: WeightedGraph
    family: str               # "comb" | "bd" | "path" | "random" | "file"
    origin: int = 0
    chain: BdChain | None = None

    @property
    def name(self) -> str:
        return self.graph.name


# -- comb ---------------------------------------------------------------------


def comb_vertex_id(k: int, n: int) -> int:
    """Pairing (k, n) -> id enumerating diagonals; invertible without state."""
    if k < 0 or n < 0:
        raise InputError(f"comb indices must be nonnegative, got ({k},{n})")
    s = k + n
    return s * (s + 1) // 2 + n


def comb_vertex_label(v: int) -> tuple[int, int]:
    s = int((math.isqrt(8 * v + 1) - 1) // 2)
    n = v - s * (s + 1) // 2
    return s - n, n


def _comb_measure(v: int) -> Fraction | int:
    k, n = comb_vertex_label(v)
    return Fraction(1, 2 ** n) if k == 0 else 1


def _comb_neighbors(v: int) -> dict[int, int]:
    """Tooth edge (k, n) - (k+1, n) weighs 2^{nk}, base edge (0, n) - (0, n+1) 4^{n+2}."""
    k, n = comb_vertex_label(v)
    out = {comb_vertex_id(k + 1, n): 2 ** (n * k)}
    if k > 0:
        out[comb_vertex_id(k - 1, n)] = 2 ** (n * (k - 1))
    else:
        out[comb_vertex_id(0, n + 1)] = 4 ** (n + 2)
        if n > 0:
            out[comb_vertex_id(0, n - 1)] = 4 ** (n + 1)
    return out


def make_comb() -> WeightedGraph:
    """The infinite comb as a lazy graph over pairing-function vertex ids."""
    return WeightedGraph.lazy(neighbor_fn=_comb_neighbors, measure_fn=_comb_measure, name="comb")


def comb_rectangle(j: int) -> list[int]:
    """Vertex ids of {(k, n): k <= 2j, n <= j}, new-level ordering by (n, k):
    vertex (k, n) is new at level max(ceil(k/2), n)."""
    if j < 0:
        raise InputError("rectangle index must be nonnegative")
    _check_cap(_preset_comb(), j)
    cells = sorted((max((k + 1) // 2, n), n, k) for n in range(j + 1) for k in range(2 * j + 1))
    return [comb_vertex_id(k, n) for _, n, k in cells]


# -- expression-driven chains -------------------------------------------------

# deeper expressions are rejected, so evaluating one (a recursion per level)
# stays far below Python's recursion limit
MAX_EXPR_DEPTH = 100

# a power b**e is computed only while |e| * (bit length of b) stays below
# this many bits; float-representable rates need about 2^10 bits, and the
# classifier's log domain handles rates well beyond 2^1000
MAX_POWER_BITS = 2 ** 24


def parse_sequence_expr(expr: str) -> Callable[[int], Fraction]:
    """Compile a restricted arithmetic expression in r to an exact sequence.

    Allowed: integer literals, the variable r, + - * / and ** with an
    integer-valued exponent, parentheses, unary minus.  Everything is
    evaluated in rational arithmetic, so e.g. ``2**(-r)`` and
    ``1/(r+1)**2`` stay exact at every index.  Expressions nested deeper
    than ``MAX_EXPR_DEPTH`` and powers beyond ``MAX_POWER_BITS`` bits are
    rejected with ``InputError``.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError) as ex:
        raise InputError(f"cannot parse expression {expr!r}: {ex}") from None
    except (RecursionError, MemoryError):
        raise InputError("expression is nested too deeply to parse") from None

    def divide(left: Fraction, right: Fraction, r: int) -> Fraction:
        if right == 0:
            raise InputError(f"division by zero in {expr!r} at r={r}")
        return left / right

    def power(left: Fraction, right: Fraction, r: int) -> Fraction:
        if right.denominator != 1:
            raise InputError(f"non-integer exponent in {expr!r} at r={r}")
        if left == 0 and right < 0:
            raise InputError(f"zero to a negative power in {expr!r} at r={r}")
        bits = max(left.numerator.bit_length(), left.denominator.bit_length())
        if abs(int(right)) * bits > MAX_POWER_BITS:
            raise InputError(
                f"power in {expr!r} at r={r} would exceed {MAX_POWER_BITS} bits")
        return left ** int(right)

    binops = {ast.Add: lambda a, b, r: a + b, ast.Sub: lambda a, b, r: a - b,
              ast.Mult: lambda a, b, r: a * b, ast.Div: divide, ast.Pow: power}

    # each node is checked before its operands, the left before the right,
    # so parse errors come in reading order and the depth bounds the recursion
    def compile_node(node: ast.AST, depth: int) -> Callable[[int], Fraction]:
        if depth > MAX_EXPR_DEPTH:
            raise InputError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in binops:
            op = binops[type(node.op)]
            left = compile_node(node.left, depth + 1)
            right = compile_node(node.right, depth + 1)
            return lambda r: op(left(r), right(r), r)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = compile_node(node.operand, depth + 1)
            return (lambda r: -operand(r)) if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                raise InputError(
                    f"only integer literals are allowed in {expr!r} "
                    f"(write rationals as fractions like 1/2)")
            value = Fraction(node.value)
            return lambda r: value
        if isinstance(node, ast.Name):
            if node.id != "r":
                raise InputError(f"unknown variable {node.id!r} in {expr!r}")
            return lambda r: Fraction(r)
        raise InputError(f"disallowed syntax {type(node).__name__} in {expr!r}")

    return compile_node(tree.body, 1)


def make_bd_chain(rate, measure, name: str = "bd", *, measure_total=None,
                  certificates: dict | None = None) -> Model:
    """Birth-death chain model; rate/measure as expressions or callables.

    The chain graph and the analytic view share the same sequences.
    Positive finite data are checked on a prefix and lazily afterwards.
    """
    rate_fn = parse_sequence_expr(rate) if isinstance(rate, str) else rate
    measure_fn = parse_sequence_expr(measure) if isinstance(measure, str) else measure
    chain = BdChain(rate=rate_fn, measure=measure_fn, name=name,
                    measure_total=measure_total, certificates=certificates or {})
    for r in range(64):
        chain.rate_at(r), chain.measure_at(r)

    def neighbors(v: int) -> dict:
        out = {v + 1: chain.rate_at(v)}
        if v > 0:
            out[v - 1] = chain.rate_at(v - 1)
        return out

    graph = WeightedGraph.lazy(
        neighbor_fn=neighbors,
        measure_fn=chain.measure_at,
        name=name,
    )
    return Model(graph=graph, family="bd", chain=chain)


# -- finite families ----------------------------------------------------------


def make_finite_path(n: int) -> Model:
    """Path 0 - 1 - ... - n-1 with unit weights and measure, no killing."""
    if n < 1:
        raise InputError("path needs at least one vertex")
    edges = {(i, i + 1): 1 for i in range(n - 1)}
    g = WeightedGraph.from_data(edges, {i: 1 for i in range(n)}, name=f"path-{n}")
    return Model(graph=g, family="path")


def make_random_connected(seed: int, max_vertices: int = 60,
                          with_killing: bool = False) -> Model:
    """Seeded random connected graph: spanning tree plus extra edges,
    b in [0.1, 3], m in [0.5, 2], optional sparse killing in [0, 0.5]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_vertices + 1))
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.1, 3.0))
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)))
    measure = {v: float(rng.uniform(0.5, 2.0)) for v in range(n)}
    killing = {}
    if with_killing:
        for v in range(n):
            if rng.random() < 0.3:
                killing[v] = float(rng.uniform(0.0, 0.5))
    g = WeightedGraph.from_data(edges, measure, killing, name=f"random-{seed}")
    return Model(graph=g, family="random")


# -- exhaustions --------------------------------------------------------------


def make_exhaustion(model: Model, count: int,
                    indices: Sequence[int] | None = None) -> Exhaustion:
    """Family-appropriate nested connected sets.

    ``indices`` overrides the default 0..count-1 parameter range: rectangle
    indices for the comb, prefix lengths for chains, hop radii otherwise.
    """
    if count < 1 and not indices:
        raise InputError("count must be >= 1")
    g = model.graph
    if model.family == "comb":
        idx = list(indices) if indices is not None else list(range(count))
        sets = [comb_rectangle(j) for j in idx]
    elif model.family == "bd":
        sizes = list(indices) if indices is not None else list(range(1, count + 1))
        if any(s < 1 for s in sizes):
            raise InputError("prefix sizes must be >= 1")
        _check_cap(model, max(sizes))
        sets = [list(range(s)) for s in sizes]
    else:
        dist = hop_distances(g, g.vertices(), model.origin)
        order = sorted(dist, key=lambda v: (dist[v], v))  # the balls' common order
        radii = list(indices) if indices is not None else list(range(count))
        sets = [[v for v in order if dist[v] <= r] for r in radii]
    return Exhaustion.build(g, sets)


def default_indices(model: Model) -> list[int]:
    """Rectangles 2..8 for the comb, prefixes 10..200 for chains, else the
    hop radii 0..ecc+1 of the (finite) graph, ecc the origin's eccentricity:
    each distinct ball once, then the whole graph a second time, so the
    last pair of sets gives a zero increment."""
    if model.family == "comb":
        return list(range(2, 9))
    if model.family == "bd":
        return list(range(10, 201, 10))
    g = model.graph
    ecc = max(hop_distances(g, g.vertices(), model.origin).values())
    return list(range(ecc + 2))


def reference_indices(model: Model, indices: Sequence[int]) -> list[int]:
    """Continue an exhaustion so the reference exceeds the largest iterate
    by ~4x in vertex count (capped by float representability)."""
    top = max(indices)
    if model.family not in ("comb", "bd"):
        return list(indices)
    comb = model.family == "comb"
    # vertex count of rectangle j grows ~2j^2, so doubling j gives ~4x
    goal = 2 * top + 1 if comb else 4 * top
    try:
        _check_cap(model, goal)
    except OverflowCapError as ex:
        goal = max(ex.usable_cap, top)
    step = 1 if comb else max(1, (goal - top) // 12)
    return list(range(top, goal + 1, step))


def _check_cap(model: Model, top: int):
    """Raise ``OverflowCapError``, carrying the largest usable parameter,
    unless parameter ``top`` fits: its probe vertex fits (``operators.fits``),
    the vertex (2p, p) of largest degree in comb rectangle p or the last row
    p - 1 of chain prefix p.  The probes' degrees grow with p, so the search
    doubles p and then bisects, and no probe passes twice the cap (a comb row
    there has 2p^2-bit weights).  When even the smallest parameter fails,
    the restriction's own guard names the value."""
    comb = model.family == "comb"

    def fit(p):
        return fits(model.graph, comb_vertex_id(2 * p, p) if comb else p - 1)

    lo = 0 if comb else 1
    if not fit(lo):
        return
    hi = lo + 1
    while hi <= top and fit(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, top + 1)  # lo fits; hi does not, or lies past top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fit(mid) else (lo, mid)
    if lo < top:
        noun = "comb rectangle" if comb else "chain prefix"
        raise OverflowCapError(f"{noun} {top} is beyond the float cap; the largest "
                               f"usable {noun} is {lo}", usable_cap=lo)


# -- presets -------------------------------------------------------------------


def _square_tail(n: int) -> float:
    """sum_{k >= n} 1/k^2 to a few ulps, n >= 1.

    Terms n <= k < N = max(n, 64) are summed directly, then the
    Euler-Maclaurin remainder
    sum_{k >= N} 1/k^2 = 1/N + 1/(2N^2) + sum_j B_{2j}/N^{2j+1}
    is added through the B_8 term; the first omitted term, B_10/N^11, is
    below 1e-19 of the tail.
    """
    cut = max(n, 64)
    x = 1.0 / cut
    x2 = x * x
    remainder = x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x2 * (
        -1.0 / 30.0 + x2 * (1.0 / 42.0 - x2 / 30.0)))))
    return math.fsum([1.0 / (k * k) for k in range(n, cut)] + [remainder])


def _tail_rate_chain() -> Model:
    """Chain with m(r) = (r+1)^{-2} and b(r, r+1) equal to the tail mass
    m(B_r^c); both classification series then diverge while m(X) is finite."""
    def measure(r: int) -> Fraction:
        return Fraction(1, (r + 1) ** 2)

    def tail(r: int) -> float:
        return _square_tail(r + 2)

    return make_bd_chain(
        rate=tail, measure=measure, name="bd:tail",
        measure_total=math.pi ** 2 / 6,
        certificates={
            "measure": "finite",
            "inv_b": divergent("1/b(r) grows like r", power=-1.0),
            "tail": divergent("terms are identically 1", power=0.0),
            "hamburger": divergent("summands grow like r^2", power=-2.0),
        },
    )


def _preset_comb() -> Model:
    return Model(graph=make_comb(), family="comb", origin=comb_vertex_id(0, 0))


PRESETS: dict[str, Callable[[], Model]] = {
    "comb": _preset_comb,
    "bd:unit": lambda: make_bd_chain(
        "1", "1", name="bd:unit",
        certificates={
            "measure": divergent("constant measure", power=0.0),
            "inv_b": divergent("constant terms", power=0.0),
            "hamburger": divergent("summands grow like r^2", power=-2.0),
        }),
    "bd:geo": lambda: make_bd_chain(
        "2**r", "2**(-r)", name="bd:geo",
        measure_total=Fraction(2),
        certificates={
            "measure": "finite",
            "inv_b": convergent("geometric", ratio=0.5),
            "tail": convergent("terms 4^{-r}", ratio=0.25),
            "hamburger": convergent("summands shrink like 2^{-r}", ratio=0.5),
        }),
    "bd:explosive": lambda: make_bd_chain(
        "4**r", "1", name="bd:explosive",
        certificates={
            "measure": divergent("constant measure", power=0.0),
            "inv_b": convergent("geometric", ratio=0.25),
            "hamburger": divergent("summands approach (4/3)^2", power=0.0),
        }),
    "bd:tail": _tail_rate_chain,
}


def _model_size(name: str, text: str, least: int) -> int:
    try:
        size = int(text)
    except ValueError:
        raise InputError(f"{name!r}: the size {text!r} is not an integer") from None
    if size < least:
        raise InputError(f"{name!r}: the size must be at least {least}")
    return size


def build_model(name: str, seed: int | None = None) -> Model:
    """Resolve a model name: preset, ``random[:n]``, ``path:n`` or ``file:path``."""
    if name in PRESETS:
        return PRESETS[name]()
    if name.startswith("file:"):
        path = name[5:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise InputError(f"cannot read graph file {path!r}: {ex}") from ex
        g = parse_graph_file(text, name=path)
        return Model(graph=g, family="file", origin=min(g.vertices()))
    if name.startswith("path:"):
        return make_finite_path(_model_size(name, name[5:], 1))
    if name.startswith("random"):
        size = _model_size(name, name.split(":", 1)[1], 2) if ":" in name else 60
        if seed is None:
            raise InputError("random model needs --seed")
        return make_random_connected(seed, max_vertices=size)
    if name.startswith("bd:"):
        raise InputError(
            f"unknown chain preset {name!r}; available: bd:unit, bd:geo, "
            f"bd:explosive, bd:tail, or use make_bd_chain with expressions")
    raise InputError(f"unknown model {name!r}")
