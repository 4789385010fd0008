"""Exhaustion experiments: Neumann convergence curves, Dirichlet-gap
diagnostics and l1 mass-defect runs.

The infinite-graph heat operators are approximated by large truncations.
The Dirichlet side enjoys domain monotonicity (truncations increase
entrywise for nonnegative data), so its reference is a monotone limit with
an increment stopping rule.  The Neumann side has no monotonicity; when no
explicit reference is supplied, the largest truncation is accepted only
after a self-consistency check (distance between the two largest iterates
below tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NeumannLabError, TruncationInsufficientError
from .graphs import Exhaustion, VertexFunction, WeightedGraph
# the assemble_* names are not called here; the benchmark's tracer patches them
from .operators import OperatorKind, _float_guard, assemble_dirichlet, assemble_neumann, restrict
from .semigroup import SemigroupEngine, heat_vecs

__all__ = [
    "ConvergenceReport",
    "dirichlet_reference",
    "dirichlet_resolvent_reference",
    "neumann_convergence_experiment",
    "dirichlet_gap_experiment",
    "l1_defect_experiment",
    "DEFAULT_REFERENCE_TOL",
]

DEFAULT_REFERENCE_TOL = 1e-8

# entrywise slack for the Dirichlet monotonicity assertion
MONOTONE_SLACK = 1e-11

PAIRING_SLACK = 1e-10

GAP_FLOOR_ABSOLUTE = 1e-6

# a gap whose log-log slope is at or below this decays and is no floor
GAP_SLOPE_FLOOR = -0.1


def _worker_count(n_tasks: int) -> int:
    """Truncations run one at a time (``bench/run.py`` records this width)."""
    return 1


def _ordered_map(fn: Callable, items: Sequence) -> list:
    """The per-truncation loop, as one function so it can be wrapped and traced."""
    return [fn(x) for x in items]


def _extended(op, vec) -> dict[int, float]:
    return {x: float(v) for x, v in zip(op.vertices, vec)}


def _truncation(ex: Exhaustion, k: int, f: VertexFunction, kind=OperatorKind.NEUMANN):
    """One truncation step: the restriction to set k, its engine and f as a
    local vector (``local_vector`` rejects f supported outside)."""
    op = restrict(ex, k, kind)
    return op, SemigroupEngine(op), op.local_vector(f)


def _masses(g: WeightedGraph, maps) -> dict[int, float]:
    """m(x) as a float for every vertex of the maps, each converted once."""
    return {x: _float_guard(g.measure(x), "measure") for x in set().union(*maps)}


def _distance(a: dict[int, float], b: dict[int, float], mass: dict[int, float], probe):
    """l1(m), l2(m) and |a - b| at the probe, both extended by zero; ``mass``
    holds m(x) as a float for every vertex of a or b."""
    diff = {x: a.get(x, 0.0) - b.get(x, 0.0) for x in set(a) | set(b)}
    l1 = sum(abs(v) * mass[x] for x, v in diff.items())
    l2 = math.sqrt(sum(v * v * mass[x] for x, v in diff.items()))
    return l1, l2, abs(diff.get(probe, 0.0))


def _curve(maps, ref_map: dict[int, float], g: WeightedGraph, probe):
    """The l1, l2 and pointwise distance lists of each map to the reference."""
    mass = _masses(g, maps + [ref_map])
    rows = [_distance(m, ref_map, mass, probe) for m in maps]
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def _self_consistent(g: WeightedGraph, maps: list[dict[int, float]], tol: float,
                     what: str) -> float:
    """Gate for a Neumann reference taken from the largest truncation, which
    has no monotonicity: its l2(m) distance to the previous iterate (the
    last two of ``maps``) must not exceed tol.  Returns that distance; the
    error carries the l2 distances between all consecutive ``maps``."""
    mass = _masses(g, maps)
    _, dist, _ = _distance(maps[-1], maps[-2], mass, None)
    if dist > tol:
        raise TruncationInsufficientError(
            f"{what} not self-consistent: l2 distance {dist:.3e} above {tol:.3e}",
            last_increment=dist,
            increments=[_distance(b, a, mass, None)[1] for a, b in zip(maps, maps[1:])])
    return dist


def _loglog_slope(sizes, distances) -> float | None:
    """Least-squares slope of log(distance) against log(size) over the
    larger half of the sizes; None when a distance there is 0 or the sizes
    there do not vary."""
    half = len(sizes) // 2
    if min(distances[half:]) <= 0.0 or len(set(sizes[half:])) < 2:
        return None
    xs = [math.log(s) for s in sizes[half:]]
    ys = [math.log(d) for d in distances[half:]]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _check_phi(phi: VertexFunction):
    if any(float(v) < 0 for v in phi.values.values()):
        raise InputError("phi must be nonnegative")
    if all(float(v) == 0 for v in phi.values.values()):
        raise InputError("phi must be nonzero")


@dataclass
class ConvergenceReport:
    """Per-truncation distance curves plus experiment metadata.

    ``sizes[i]`` is |X_k| for the i-th truncation; the distance lists are
    measured against the reference named by ``reference_kind``.  The
    resolvent pairing column, when present, is checked nonincreasing at
    construction time (it decreases exactly in theory).
    """

    experiment: str
    reference_kind: str
    t: float
    sizes: list[int]
    l1_distance: list[float]
    l2_distance: list[float]
    pointwise_distance: list[float]
    alpha: float | None = None
    quadratic_pairings: list[float] | None = None
    l1_bounds: list[float] | None = None
    stochastic_defect: float | None = None
    gap_floor: float | None = None
    floor_threshold: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.sizes)
        for name in ("l1_distance", "l2_distance", "pointwise_distance"):
            if len(getattr(self, name)) != n:
                raise InputError(f"{name} length mismatch")
        if any(d < 0 for d in self.l1_distance + self.l2_distance + self.pointwise_distance):
            raise InputError("distances must be nonnegative")
        if self.quadratic_pairings is not None:
            for a, b in zip(self.quadratic_pairings, self.quadratic_pairings[1:]):
                if b > a + PAIRING_SLACK:
                    raise NeumannLabError(
                        f"resolvent pairings must be nonincreasing, got {a!r} -> {b!r}")

    # fixed CSV column order, one row per truncation
    CSV_COLUMNS = ("k", "size", "l1", "l2", "pointwise", "pairing", "bound")

    def rows(self) -> list[dict]:
        out = []
        for i, size in enumerate(self.sizes):
            out.append({
                "k": i,
                "size": size,
                "l1": self.l1_distance[i],
                "l2": self.l2_distance[i],
                "pointwise": self.pointwise_distance[i],
                "pairing": None if self.quadratic_pairings is None else self.quadratic_pairings[i],
                "bound": None if self.l1_bounds is None else self.l1_bounds[i],
            })
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "experiment": self.experiment,
            "reference_kind": self.reference_kind,
            "t": self.t,
            "alpha": self.alpha,
            "sizes": self.sizes,
            "l1_distance": self.l1_distance,
            "l2_distance": self.l2_distance,
            "pointwise_distance": self.pointwise_distance,
            "quadratic_pairings": self.quadratic_pairings,
            "l1_bounds": self.l1_bounds,
            "stochastic_defect": self.stochastic_defect,
            "gap_floor": self.gap_floor,
            "floor_threshold": self.floor_threshold,
            "metadata": self.metadata,
        }


def _monotone_limit(exhaustion: Exhaustion, tol: float, f: VertexFunction, action, what: str):
    """Shared monotone-truncation loop for Dirichlet heat and resolvents.

    ``action(engine, vec)`` applied to f on each Dirichlet truncation must
    give entrywise nondecreasing extensions by zero (the previous vector is
    a prefix).  Stops when the l1 increment drops below tol and returns the
    last extension (float values, zeros dropped) with an info dict; raises
    with every increment when the exhaustion ends first.  A single set gives
    no increment at all, so it is rejected before any solve.
    """
    if len(exhaustion.sets) < 2:
        raise InputError(f"{what} needs at least two exhaustion sets")
    prev: list[float] | None = None
    increments = []
    clamps = 0
    for k in range(len(exhaustion)):
        op, engine, vec = _truncation(exhaustion, k, f, OperatorKind.DIRICHLET)
        current = action(engine, vec).tolist()
        clamps += engine.telemetry.clamped_entries
        if prev is not None:
            for x, v_old, v_new in zip(op.vertices, prev, current):
                if v_new < v_old - MONOTONE_SLACK:
                    raise NeumannLabError(
                        f"{what}: truncation monotonicity violated at vertex {x}: "
                        f"{v_old!r} -> {v_new!r}")
            prev += [0.0] * (len(current) - len(prev))
            increment = sum(abs(v_new - v_old) * m for v_new, v_old, m
                            in zip(current, prev, op.measure_vector.tolist()))
            increments.append(increment)
            if increment < tol:
                limit = VertexFunction({x: v for x, v in zip(op.vertices, current) if v})
                return limit, {"sets_used": k + 1, "last_increment": increment,
                               "clamped_entries": clamps}
        prev = current
    raise TruncationInsufficientError(
        f"{what}: increment {increment:.3e} still above tol {tol:.3e} "
        f"after {len(exhaustion)} truncations", last_increment=increment, increments=increments)


def dirichlet_reference(g: WeightedGraph, exhaustion: Exhaustion, t: float,
                        phi: VertexFunction, tol: float = DEFAULT_REFERENCE_TOL):
    """Monotone-limit proxy for the full-space Dirichlet heat action.

    Runs P_{t,k} phi (extended by zero) up the exhaustion until the l1
    increment falls below tol; increments are entrywise nonnegative by
    domain monotonicity, which is asserted along the way.  Returns
    (VertexFunction, info dict).
    """
    if t < 0:
        raise InputError("t must be nonnegative")
    if any(float(v) < 0 for v in phi.values.values()):
        raise InputError("phi must be nonnegative")
    return _monotone_limit(exhaustion, tol, phi,
                           lambda engine, vec: engine.heat_vec(t, vec),
                           "dirichlet heat reference")


def dirichlet_resolvent_reference(g: WeightedGraph, exhaustion: Exhaustion,
                                  alpha: float, f: VertexFunction,
                                  tol: float = DEFAULT_REFERENCE_TOL):
    """Monotone-limit proxy for the full-space Dirichlet resolvent."""
    if alpha <= 0:
        raise InputError("alpha must be positive")
    if any(float(v) < 0 for v in f.values.values()):
        raise InputError("f must be nonnegative")
    return _monotone_limit(exhaustion, tol, f,
                           lambda engine, vec: engine.resolvent_vec(alpha, vec),
                           "dirichlet resolvent reference")


def neumann_convergence_experiment(g: WeightedGraph, exhaustion: Exhaustion,
                                   t: float, phi: VertexFunction,
                                   reference: VertexFunction | None = None,
                                   alpha: float | None = None,
                                   probe: int | None = None,
                                   self_tol: float = 1e-6,
                                   ref_exhaustion: Exhaustion | None = None) -> ConvergenceReport:
    """Distance curves of Neumann truncations against a Neumann reference.

    The reference is explicit when ``reference`` is given, or when
    ``ref_exhaustion`` is: then it is the Neumann heat on its last set, whose
    clamps are counted with the iterates'.  An explicit reference must cover
    the largest iterate set.  Without either, the last exhaustion set
    provides the reference and must pass the self-consistency gate: its
    distance to the previous iterate must fall below ``self_tol`` (no
    monotonicity on the Neumann side).  When ``alpha`` is given, the
    resolvent pairings <R_alpha phi, phi>_m are recorded per truncation.
    """
    if reference is not None and ref_exhaustion is not None:
        raise InputError("give an explicit reference or a reference exhaustion, not both")
    explicit = reference is not None or ref_exhaustion is not None
    sets = exhaustion.sets
    if not explicit and len(sets) < 3:
        raise InputError("self-consistent reference needs at least 3 exhaustion sets")
    iterate_sets = sets if explicit else sets[:-1]
    probe = probe if probe is not None else sets[0][0]

    def one(ex, k, alpha=alpha):
        op, engine, vec = _truncation(ex, k, phi)
        heat = _extended(op, engine.heat_vec(t, vec))
        pairing = None
        if alpha is not None:
            u = engine.resolvent_vec(alpha, vec)
            pairing = float((u * vec * op.measure_vector).sum())
        return heat, pairing, engine.telemetry.clamped_entries

    results = _ordered_map(lambda k: one(exhaustion, k), range(len(iterate_sets)))
    heats = [heat for heat, _, _ in results]

    if reference is None:
        # the reference set has no pairing row, so it skips the resolvent
        ref_map, _, ref_clamps = one(ref_exhaustion or exhaustion, -1, alpha=None)
    else:
        ref_map = {x: float(v) for x, v in reference.values.items()}
        ref_clamps = 0
    if explicit:
        if not set(iterate_sets[-1]) <= set(ref_map):
            raise InputError("reference does not cover the largest iterate set")
        ref_kind = "explicit-reference"
    else:
        _self_consistent(g, heats + [ref_map], self_tol, "neumann reference")
        ref_kind = "neumann-self-consistent"

    l1s, l2s, points = _curve(heats, ref_map, g, probe)
    return ConvergenceReport(
        experiment="neumann-convergence",
        reference_kind=ref_kind,
        t=t,
        sizes=[len(s) for s in iterate_sets],
        l1_distance=l1s,
        l2_distance=l2s,
        pointwise_distance=points,
        alpha=alpha,
        quadratic_pairings=None if alpha is None else [p for _, p, _ in results],
        metadata={"graph": g.name, "probe": probe,
                  "clamped_entries": sum(c for _, _, c in results) + ref_clamps,
                  "self_tol": self_tol},
    )


def dirichlet_gap_experiment(g: WeightedGraph, exhaustion: Exhaustion, t: float,
                             phi: VertexFunction,
                             ref_exhaustion: Exhaustion | None = None,
                             tol: float = DEFAULT_REFERENCE_TOL,
                             probe: int | None = None) -> ConvergenceReport:
    """Distances of Neumann truncations to the Dirichlet monotone limit.

    A floor that persists across truncations is evidence (never proof) that
    the Dirichlet and Neumann forms differ; decay toward zero is evidence
    of uniqueness.  ``floor_is_evidence`` needs both: the last l2 distance
    above the threshold max(10 tol, 1e-6), recorded with the report, and
    ``gap_slope``, the log-log slope of the l2 distances over the larger
    half of the sizes, above GAP_SLOPE_FLOOR.  A gap decaying like n^{-1/2}
    (D = N with a stochastic defect) is thus not read as a floor.
    """
    _check_phi(phi)
    ref, ref_info = dirichlet_reference(g, ref_exhaustion or exhaustion, t, phi, tol)
    probe = probe if probe is not None else exhaustion.sets[0][0]

    def one(k):
        op, engine, vec = _truncation(exhaustion, k, phi)
        return _extended(op, engine.heat_vec(t, vec)), engine.telemetry.clamped_entries

    results = _ordered_map(one, range(len(exhaustion)))
    l1s, l2s, points = _curve([heat for heat, _ in results], ref.values, g, probe)
    clamps = ref_info["clamped_entries"] + sum(c for _, c in results)
    threshold = max(10 * tol, GAP_FLOOR_ABSOLUTE)
    sizes = [len(s) for s in exhaustion.sets]
    slope = _loglog_slope(sizes, l2s)
    return ConvergenceReport(
        experiment="dirichlet-gap",
        reference_kind="dirichlet-limit",
        t=t,
        sizes=sizes,
        l1_distance=l1s,
        l2_distance=l2s,
        pointwise_distance=points,
        gap_floor=l2s[-1],
        floor_threshold=threshold,
        metadata={"graph": g.name, "probe": probe,
                  "clamped_entries": clamps, "tol": tol,
                  "reference_info": ref_info,
                  "gap_slope": slope,
                  "floor_is_evidence": (l2s[-1] > threshold and slope is not None
                                        and slope > GAP_SLOPE_FLOOR)},
    )


def l1_defect_experiment(g: WeightedGraph, exhaustion: Exhaustion, t: float,
                         phi: VertexFunction,
                         ref_exhaustion: Exhaustion | None = None,
                         tol: float = DEFAULT_REFERENCE_TOL,
                         probe: int | None = None) -> ConvergenceReport:
    """l1 distances d_k = |P_N phi - P_D(ref) phi|_1 with the two-sided
    theoretical envelope.

    Per truncation the upper bound 2(|phi|_1 - |P_D_k phi|_1) and the lower
    bound |phi|_1 - |P_D(ref) phi|_1 (the stochastic mass defect) are
    asserted to within 1e-9; both are exact inequalities for the
    truncation proxies.  Requires a killing-free graph.  The Dirichlet and
    Neumann restrictions of a truncation differ only in the boundary mass
    on the diagonal, so one factorization serves both heat actions
    (``heat_vecs``).
    """
    ref_ex = ref_exhaustion or exhaustion
    for x in exhaustion.sets[-1] + ref_ex.sets[-1]:
        if g.killing(x) != 0:
            raise InputError(
                "stochastic-completeness experiment requires killing c = 0 "
                f"(violated at vertex {x})")
    _check_phi(phi)
    ref, ref_info = dirichlet_reference(g, ref_ex, t, phi, tol)
    ref_map = ref.values
    phi_l1 = phi.norm(g, 1)
    mass = _masses(g, [ref_map])
    defect = phi_l1 - sum(abs(v) * mass[x] for x, v in ref_map.items())
    probe = probe if probe is not None else exhaustion.sets[0][0]

    def one(k):
        d_op, d_engine, vec = _truncation(exhaustion, k, phi, OperatorKind.DIRICHLET)
        op, engine, _ = _truncation(exhaustion, k, phi)
        d_heat, heat = heat_vecs([d_engine, engine], t, vec)
        d_l1 = float((np.abs(d_heat) * d_op.measure_vector).sum())
        clamped = d_engine.telemetry.clamped_entries + engine.telemetry.clamped_entries
        return _extended(op, heat), 2.0 * (phi_l1 - d_l1), clamped

    results = _ordered_map(one, range(len(exhaustion)))
    l1s, l2s, points = _curve([heat for heat, _, _ in results], ref_map, g, probe)
    bounds = [bound for _, bound, _ in results]
    clamps = ref_info["clamped_entries"] + sum(c for _, _, c in results)
    for l1, bound in zip(l1s, bounds):
        if l1 > bound + 1e-9:
            raise NeumannLabError(
                f"l1 distance {l1!r} exceeds its theoretical bound {bound!r}")
        if l1 < defect - 1e-9:
            raise NeumannLabError(
                f"l1 distance {l1!r} fell below the stochastic defect {defect!r}")
    return ConvergenceReport(
        experiment="l1-defect",
        reference_kind="dirichlet-limit",
        t=t,
        sizes=[len(s) for s in exhaustion.sets],
        l1_distance=l1s,
        l2_distance=l2s,
        pointwise_distance=points,
        l1_bounds=bounds,
        stochastic_defect=defect,
        metadata={"graph": g.name, "probe": probe,
                  "clamped_entries": clamps, "tol": tol,
                  "reference_info": ref_info},
    )
