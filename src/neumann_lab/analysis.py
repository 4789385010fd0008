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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .convergence import (
    DEFAULT_REFERENCE_TOL,
    GAP_FLOOR_ABSOLUTE,
    _extended,
    _self_consistent,
    _truncation,
    dirichlet_reference,
    dirichlet_resolvent_reference,
)
from .errors import InputError, NeumannLabError
from .graphs import (Exhaustion, VertexFunction, WeightedGraph, formal_laplacian,
                     hop_distances)
from .operators import _exact_ratio, _float_guard, assemble_dirichlet, assemble_neumann
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
        return {
            "schema": 1,
            "experiment": "feller",
            "alpha": self.alpha,
            "source": self.source,
            "ball_radii": self.ball_radii,
            "sup_outside": self.sup_outside,
            "verdict_hint": self.verdict_hint,
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class UniformL1Result:
    """Value and bound for the uniform-in-time l1 estimate."""

    value: float
    bound: float
    horizon: float
    grid_size: int
    kind: str


def _largest_two(g: WeightedGraph, exhaustion: Exhaustion, f: VertexFunction, action):
    """``action(engine, vec)`` on the Neumann restrictions to the two largest
    exhaustion sets, each extended by zero, and the two engines' clamps."""
    outs, clamps = [], 0
    for subset in exhaustion.sets[-2:]:
        op, engine, vec = _truncation(g, subset, f)
        outs.append(_extended(op, action(engine, vec)))
        clamps += engine.telemetry.clamped_entries
    return outs, clamps


def feller_estimate(g: WeightedGraph, exhaustion: Exhaustion, alpha: float,
                    x: int, kind: str = "dirichlet",
                    tol: float = DEFAULT_REFERENCE_TOL,
                    self_tol: float = 1e-6) -> FellerReport:
    """Resolvent decay profile of delta_x = 1_x/m(x) outside nested hop balls.

    The Dirichlet variant takes the monotone truncation limit as reference;
    the Neumann variant accepts the largest truncation after a
    self-consistency check against the previous one.
    """
    if x not in exhaustion.sets[0]:
        raise InputError("source vertex must lie in the smallest exhaustion set")
    delta = VertexFunction.delta(g, x)
    if kind == "dirichlet":
        ref, info = dirichlet_resolvent_reference(g, exhaustion, alpha, delta, tol)
        ref_map = ref.values
    elif kind == "neumann":
        if len(exhaustion.sets) < 2:
            raise InputError("neumann variant needs at least two exhaustion sets")
        (prev, ref_map), _ = _largest_two(
            g, exhaustion, delta, lambda engine, vec: engine.resolvent_vec(alpha, vec))
        info = {"self_distance": _self_consistent(
            g, [prev, ref_map], self_tol, "neumann resolvent reference")}
    else:
        raise InputError(f"unknown kind {kind!r}")

    support = list(ref_map)
    dist = hop_distances(g, support, x)
    max_radius = max(dist.values(), default=0)
    radii = list(range(max_radius + 1))
    sup_outside = []
    for r in radii:
        outside = [abs(v) for vert, v in ref_map.items() if dist.get(vert, math.inf) > r]
        sup_outside.append(max(outside, default=0.0))
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
    if t <= 0:
        raise InputError("t must be positive")
    if len(exhaustion.sets) < 2:
        raise InputError("need at least two exhaustion sets")
    one_x = VertexFunction.indicator(x)
    d_ref, d_info = dirichlet_reference(g, exhaustion, t, one_x, tol)
    (prev, n_map), n_clamps = _largest_two(g, exhaustion, one_x,
                                           lambda engine, vec: engine.heat_vec(t, vec))
    self_dist = _self_consistent(g, [prev, n_map], self_tol, "neumann heat reference")
    d_map = d_ref.values
    gap = {}
    for v in set(n_map) | set(d_map):
        value = n_map.get(v, 0.0) - d_map.get(v, 0.0)
        if value < -GAP_NEGATIVITY_SLACK:
            raise NeumannLabError(
                f"semigroup domination violated at vertex {v}: gap {value!r}")
        gap[v] = max(value, 0.0)
    info = {
        "gap_at_source": gap.get(x, 0.0),
        "max_gap": max(gap.values(), default=0.0),
        "self_distance": self_dist,
        "dirichlet_info": d_info,
        "tol": tol,
        "clamped_entries": d_info["clamped_entries"] + n_clamps,
    }
    return VertexFunction(gap), info


def ec_constant(g: WeightedGraph, window: Sequence[int]) -> float:
    """max b(x,y) / (m(x) m(y)) over pairs in the window (0 if edgeless).

    A uniform bound over the sets of an exhaustion is the edge condition;
    an unbounded sequence of constants certifies its failure.  The ratios
    are exact on exact data; a maximum beyond the float cap raises
    ``OverflowCapError``.
    """
    inside = set(window)
    best = 0
    for v in inside:
        mv = g.measure(v)
        for w, b in g.neighbors(v).items():
            if w in inside:
                best = max(best, _exact_ratio(b, mv * g.measure(w)))
    return _float_guard(best, "edge-condition constant")


def uniform_l1_check(g: WeightedGraph, subset: Sequence[int], horizon: float,
                     phi: VertexFunction, grid: int = 64,
                     kind: str = "neumann") -> UniformL1Result:
    """|| max over a time grid of P_t phi  -  phi ||_1 <= T ||Delta phi||_1.

    Any finite grid in [0, T] is dominated by the true running sup, so the
    bound must hold with 1e-9 slack; a violation raises.  phi must be
    supported, together with its neighbors, inside the subset so that the
    restricted operator agrees with the formal Laplacian on the support.
    """
    if horizon < 0:
        raise InputError("horizon must be nonnegative")
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
    value = float((np.abs(running - vec) * op.measure_vector).sum())
    # ||Delta phi||_1 over the support's closed neighborhood, on the parent graph
    delta_l1 = 0.0
    closed = set(support)
    for v in support:
        closed.update(g.neighbors(v))
    for v in closed:
        delta_l1 += abs(float(formal_laplacian(g, phi, v))) * float(g.measure(v))
    bound = horizon * delta_l1
    if value > bound + 1e-9:
        raise NeumannLabError(
            f"uniform l1 value {value!r} exceeds the bound {bound!r}")
    return UniformL1Result(value=value, bound=bound, horizon=horizon,
                           grid_size=len(times), kind=kind)

