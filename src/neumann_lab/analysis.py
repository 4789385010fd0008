"""Heat-vanishing-at-infinity diagnostics and auxiliary estimates.

Numerics cannot certify asymptotic properties like C0-conservativity from a
single truncation; the estimators here report decay profiles and verdict
hints, leaving theorem-grade claims to the closed-form birth-death
classifiers.  What can be checked exactly at desk scale are inequalities:
the uniform l1 bound over a time window, the edge-condition constant, and
the nonnegativity of the Neumann-minus-Dirichlet semigroup gap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .convergence import (
    DEFAULT_REFERENCE_TOL,
    GAP_FLOOR_ABSOLUTE,
    _check_exhaustions,
    _l1,
    _layout,
    _neumann_gate,
    _truncation,
    dirichlet_reference,
    dirichlet_resolvent_reference,
)
from .errors import InputError, NeumannLabError, checked
from .graphs import (Exhaustion, VertexFunction, WeightedGraph, formal_laplacian,
                     hop_distances)
from .operators import _float_guard, assemble_dirichlet, assemble_neumann
from .semigroup import SemigroupEngine

__all__ = [
    "FellerReport",
    "UniformL1Result",
    "feller_estimate",
    "semigroup_gap",
    "ec_constant",
    "uniform_l1_check",
    "hop_distances",
]

GAP_NEGATIVITY_SLACK = 1e-10


@dataclass(frozen=True)
class FellerReport:
    """Decay profile of a resolvent applied to a normalized point mass.

    ``sup_outside[i]`` is the supremum of the reference resolvent outside
    the hop ball of radius ``ball_radii[i]`` around the source.  The
    verdict is a hint, never a theorem: decay invisible at this truncation
    may appear at larger ones and vice versa.
    """

    alpha: float
    source: int
    ball_radii: list[int]
    sup_outside: list[float]
    verdict_hint: str  # "decay-observed" | "floor-observed"
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"schema": 1, "experiment": "feller", **asdict(self)}


@dataclass(frozen=True)
class UniformL1Result:
    """Value and bound for the uniform-in-time l1 estimate."""

    value: float
    bound: float
    horizon: float
    grid_size: int
    kind: str


def feller_estimate(g: WeightedGraph, exhaustion: Exhaustion, alpha: float,
                    x: int, kind: str = "dirichlet",
                    tol: float = DEFAULT_REFERENCE_TOL,
                    self_tol: float = 1e-6) -> FellerReport:
    """Resolvent decay profile of delta_x = 1_x/m(x) outside nested hop balls.

    The Dirichlet variant takes the monotone truncation limit as reference;
    the Neumann variant accepts the largest truncation after a
    self-consistency check against the previous one.
    """
    _check_exhaustions(g, exhaustion)
    checked(tol, "tol")
    checked(self_tol, "self_tol")
    if x not in exhaustion.sets[0]:
        raise InputError("source vertex must lie in the smallest exhaustion set")
    delta = VertexFunction.delta(g, x)
    if kind == "dirichlet":
        ref, info = dirichlet_resolvent_reference(g, exhaustion, alpha, delta, tol)
        support = list(ref.values)  # the limit's nonzero entries
        values = np.fromiter(ref.values.values(), dtype=float)
    elif kind == "neumann":
        if len(exhaustion.sets) < 2:
            raise InputError("neumann variant needs at least two exhaustion sets")
        vecs = [engine.resolvent_vec(alpha, vec) for _, engine, vec
                in (_truncation(exhaustion, k, delta) for k in (-2, -1))]
        support, values = exhaustion.sets[-1], vecs[-1]
        info = {"self_distance": _neumann_gate(vecs, _layout(g, support, ())[2], self_tol,
                                               "neumann resolvent reference")}
    else:
        raise InputError(f"unknown kind {kind!r}")

    dist = hop_distances(g, support, x)
    radius = np.array([dist.get(v, math.inf) for v in support])
    radii = list(range(max(dist.values(), default=0) + 1))
    sup_outside = [float(np.abs(values[radius > r]).max(initial=0.0)) for r in radii]
    threshold = max(10 * tol, GAP_FLOOR_ABSOLUTE)
    # on an infinite graph the largest ball's empty exterior is an artifact
    # of the truncation, so judge decay on the farthest nonvacuous shell; a
    # fully covered finite graph genuinely has nothing outside
    covers_all = g.is_finite and set(support) >= set(g.vertices())
    if covers_all or len(sup_outside) < 2:
        hint_value = sup_outside[-1]
    else:
        hint_value = sup_outside[-2]
    hint = "decay-observed" if hint_value <= threshold else "floor-observed"
    return FellerReport(
        alpha=alpha,
        source=x,
        ball_radii=radii,
        sup_outside=sup_outside,
        verdict_hint=hint,
        metadata={"graph": g.name, "kind": kind, "tol": tol,
                  "threshold": threshold, "reference_info": info},
    )


def semigroup_gap(g: WeightedGraph, exhaustion: Exhaustion, t: float, x: int,
                  tol: float = DEFAULT_REFERENCE_TOL,
                  self_tol: float = 1e-6):
    """Gap function u_t = (P_t^(Neumann,ref) - P_t^(Dirichlet,ref)) 1_x.

    Nonnegative up to 1e-10 by semigroup domination; strict positivity
    everywhere is evidence that the two forms differ.  Returns
    (VertexFunction, info) where info records the max gap, the references'
    convergence data and the positivity clamps of both references.
    """
    _check_exhaustions(g, exhaustion)
    checked(t, "t")
    checked(self_tol, "self_tol")
    if len(exhaustion.sets) < 2:
        raise InputError("need at least two exhaustion sets")
    one_x = VertexFunction.indicator(x)
    d_ref, d_info = dirichlet_reference(g, exhaustion, t, one_x, tol)
    engines = [_truncation(exhaustion, k, one_x)[1:] for k in (-2, -1)]
    n_vecs = [engine.heat_vec(t, vec) for engine, vec in engines]
    n_clamps = sum(engine.telemetry.clamped_entries for engine, _ in engines)
    top = exhaustion.sets[-1]
    index, d_vec, mass = _layout(g, top, d_ref.values.items())
    self_dist = _neumann_gate(n_vecs, mass, self_tol, "neumann heat reference")
    gap = n_vecs[-1] - d_vec
    below = np.flatnonzero(gap < -GAP_NEGATIVITY_SLACK)
    if below.size:
        i = below[0]
        raise NeumannLabError(
            f"semigroup domination violated at vertex {top[i]}: gap {gap[i].item()!r}")
    gap = np.where(gap < 0.0, 0.0, gap)
    info = {
        "gap_at_source": float(gap[index[x]]),
        "max_gap": float(gap.max()),
        "self_distance": self_dist,
        "dirichlet_info": d_info,
        "tol": tol,
        "clamped_entries": d_info["clamped_entries"] + n_clamps,
    }
    return VertexFunction(dict(zip(top, gap.tolist()))), info


def ec_constant(g: WeightedGraph, window: Sequence[int]) -> float:
    """max b(x,y) / (m(x) m(y)) over pairs in the window (0 if edgeless).

    A uniform bound over the sets of an exhaustion is the edge condition;
    an unbounded sequence of constants certifies its failure.  The ratios
    are compared exactly and the largest is rounded once; a maximum beyond
    the float cap raises ``OverflowCapError``.
    """
    inside = set(window)
    ratios = [(b, g.measure(v) * g.measure(w)) for v in inside
              for w, b in g.neighbors(v).items() if w in inside]
    b, d = max(ratios, key=lambda r: Fraction(r[0]) / Fraction(r[1]), default=(0, 1))
    return _float_guard(b, "edge-condition constant", d)


def uniform_l1_check(g: WeightedGraph, subset: Sequence[int], horizon: float,
                     phi: VertexFunction, grid: int = 64,
                     kind: str = "neumann") -> UniformL1Result:
    """|| max over a time grid of P_t phi  -  phi ||_1 <= T ||Delta phi||_1.

    Any finite grid in [0, T] is dominated by the true running sup, so the
    bound must hold with 1e-9 slack; a violation raises.  phi must be
    supported, together with its neighbors, inside the subset so that the
    restricted operator agrees with the formal Laplacian on the support.
    """
    checked(horizon, "horizon", positive=False)
    if grid < 1:
        raise InputError("grid must have at least one time")
    if kind not in ("dirichlet", "neumann"):
        raise InputError(f"unknown kind {kind!r}")
    inside = set(subset)
    support = [v for v, val in phi.values.items() if val != 0]
    for v in support:
        if v not in inside:
            raise InputError(f"phi supported outside the subset at {v}")
        for w in g.neighbors(v):
            if w not in inside:
                raise InputError(
                    f"phi's neighborhood leaves the subset at {w}; enlarge the subset")
    assemble = assemble_neumann if kind == "neumann" else assemble_dirichlet
    op = assemble(g, subset)
    engine = SemigroupEngine(op)
    vec = op.local_vector(phi)
    times = np.linspace(0.0, horizon, max(2, grid)) if horizon > 0 else np.array([0.0])
    running = vec.copy()
    for t in times[1:]:
        running = np.maximum(running, engine.heat_vec(float(t), vec))
    value = _l1(running - vec, op.measure_vector)
    # ||Delta phi||_1 over the support's closed neighborhood, on the parent graph
    closed = set(support)
    for v in support:
        closed.update(g.neighbors(v))
    delta_l1 = math.fsum(abs(float(formal_laplacian(g, phi, v))) * float(g.measure(v))
                         for v in closed)
    bound = horizon * delta_l1
    if value > bound + 1e-9:
        raise NeumannLabError(
            f"uniform l1 value {value!r} exceeds the bound {bound!r}")
    return UniformL1Result(value=value, bound=bound, horizon=horizon,
                           grid_size=len(times), kind=kind)

