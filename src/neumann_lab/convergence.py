"""Exhaustion experiments: Neumann convergence curves, Dirichlet-gap
diagnostics and l1 mass-defect runs.

The infinite-graph heat operators are approximated by large truncations.
The Dirichlet side enjoys domain monotonicity (truncations increase
entrywise for nonnegative data), so its reference is a monotone limit with
an increment stopping rule.  The Neumann side has no monotonicity; when no
explicit reference is supplied, the largest truncation is accepted only
after one gate (``_neumann_gate``): its l2 distance to the previous iterate
must fall below tolerance.  Every distance is measured on one layout
(``_layout``): the iterates' largest set, of which each iterate is a
prefix, then any reference vertex outside it, as zero-padded float64 arrays
(``_distances``).  Every l1(m) quantity (distance, increment, bound,
defect) is summed by ``_l1``, one correctly rounded ``fsum``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NeumannLabError, TruncationInsufficientError, checked
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


def _truncation(ex: Exhaustion, k: int, f: VertexFunction, kind=OperatorKind.NEUMANN):
    """One truncation step: the restriction to set k, its engine and f as a
    local vector (``local_vector`` rejects f supported outside)."""
    op = restrict(ex, k, kind)
    return op, SemigroupEngine(op), op.local_vector(f)


def _layout(g: WeightedGraph, top: Sequence[int], ref_items):
    """The one vertex order of a run's distances: the iterates' largest set
    ``top``, then the reference's vertices outside it in the reference's
    order.  Returns it as {vertex: position}, the reference ((vertex, value)
    pairs) zero-padded on it, and the float masses on it."""
    index = {x: i for i, x in enumerate(top)}
    placed = {index.setdefault(x, len(index)): float(v) for x, v in ref_items}
    ref = np.zeros(len(index))
    ref[list(placed)] = list(placed.values())
    return index, ref, np.array([_float_guard(g.measure(x), "measure") for x in index])


def _l1(vec, mass: np.ndarray) -> float:
    """The l1(m) norm sum |vec| m by ``fsum``: correctly rounded, in any order."""
    return math.fsum((np.abs(vec) * mass).tolist())


def _distances(vectors, ref: np.ndarray, mass: np.ndarray, probe: int | None):
    """The l1(m), l2(m) and pointwise distance lists of each vector, a
    prefix of the layout extended by zero, to ``ref`` (``probe``: a position,
    or None off the layout).  l1 is ``_l1``; l2 scales d by max |d| before
    squaring, as BLAS nrm2 does, so a difference whose square underflows
    still counts."""
    l1s, l2s, points = [], [], []
    for vec in vectors:
        d = np.abs(ref - np.pad(vec, (0, len(ref) - len(vec))))
        scale = float(d.max(initial=0.0))
        l1s.append(_l1(d, mass))
        l2s.append(scale * math.sqrt(math.fsum(((d / scale) ** 2 * mass).tolist()))
                   if scale else 0.0)
        points.append(0.0 if probe is None else float(d[probe]))
    return l1s, l2s, points


def _neumann_gate(vectors, mass: np.ndarray, tol: float, what: str) -> float:
    """Gate for a Neumann reference taken from the last of ``vectors``, each
    a prefix of it with masses ``mass`` (no monotonicity on the Neumann
    side): its l2(m) distance to the one before must not exceed tol.  Returns
    that distance; the error carries every consecutive l2 distance."""
    def step(a, b):
        return _distances([a], b, mass[:len(b)], None)[1][0]

    dist = step(*vectors[-2:])
    if dist > tol:
        raise TruncationInsufficientError(
            f"{what} not self-consistent: l2 distance {dist:.3e} above {tol:.3e}",
            last_increment=dist,
            increments=[step(a, b) for a, b in zip(vectors, vectors[1:])])
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


def _check_exhaustions(g: WeightedGraph, exhaustion: Exhaustion,
                       ref_exhaustion: Exhaustion | None = None):
    """Reject an exhaustion of another graph than g (the distances read g's
    masses, the restrictions the exhaustion's own graph) and a reference
    exhaustion whose last set does not cover the iterates' last set."""
    for ex in (exhaustion, ref_exhaustion):
        if ex is not None and ex.graph is not g:
            raise InputError(f"the exhaustion belongs to another graph "
                             f"({ex.graph.name!r}, not {g.name!r})")
    if ref_exhaustion is not None and not set(exhaustion[-1]) <= set(ref_exhaustion[-1]):
        raise InputError("reference does not cover the largest iterate set")


def _check_phi(phi: VertexFunction):
    if any(float(v) < 0 for v in phi.values.values()):
        raise InputError("phi must be nonnegative")
    if all(float(v) == 0 for v in phi.values.values()):
        raise InputError("phi must be nonzero")


@dataclass(kw_only=True)
class ConvergenceReport:
    """Per-truncation distance curves plus experiment metadata.

    ``sizes[i]`` is |X_k| for the i-th truncation; the distance lists are
    measured against the reference named by ``reference_kind``.  The
    resolvent pairing column, when present, is checked nonincreasing at
    construction time (it decreases exactly in theory).  The fields are
    keyword-only, and their order is the order of the JSON keys.
    """

    experiment: str
    reference_kind: str
    t: float
    alpha: float | None = None
    sizes: list[int]
    l1_distance: list[float]
    l2_distance: list[float]
    pointwise_distance: list[float]
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
        if not all(d >= 0 for d in self.l1_distance + self.l2_distance + self.pointwise_distance):
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
        return {"schema": 1, **asdict(self)}


def _monotone_limit(exhaustion: Exhaustion, tol: float, f: VertexFunction, action, what: str):
    """Shared monotone-truncation loop for Dirichlet heat and resolvents.

    ``action(engine, vec)`` applied to f on each Dirichlet truncation must
    give entrywise nondecreasing extensions by zero (the previous vector is
    a prefix).  Stops when the l1 increment drops below tol and returns the
    last extension (float values, zeros dropped) with an info dict; raises
    with every increment when the exhaustion ends first.  A single set gives
    no increment at all, so it is rejected before any solve.
    """
    checked(tol, "tol")
    if len(exhaustion.sets) < 2:
        raise InputError(f"{what} needs at least two exhaustion sets")
    prev, increments, clamps = None, [], 0
    for k in range(len(exhaustion)):
        op, engine, vec = _truncation(exhaustion, k, f, OperatorKind.DIRICHLET)
        current = action(engine, vec)
        clamps += engine.telemetry.clamped_entries
        if prev is not None:
            fell = np.flatnonzero(current[:len(prev)] < prev - MONOTONE_SLACK)
            if fell.size:
                i = fell[0]
                raise NeumannLabError(
                    f"{what}: truncation monotonicity violated at vertex {op.vertices[i]}: "
                    f"{prev[i].item()!r} -> {current[i].item()!r}")
            increment = _l1(current - np.pad(prev, (0, len(current) - len(prev))),
                            op.measure_vector)
            increments.append(increment)
            if increment < tol:
                return op.vertex_function(current), {
                    "sets_used": k + 1, "last_increment": increment, "clamped_entries": clamps}
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
    _check_exhaustions(g, exhaustion)
    checked(t, "t", positive=False)
    if any(float(v) < 0 for v in phi.values.values()):
        raise InputError("phi must be nonnegative")
    return _monotone_limit(exhaustion, tol, phi,
                           lambda engine, vec: engine.heat_vec(t, vec),
                           "dirichlet heat reference")


def dirichlet_resolvent_reference(g: WeightedGraph, exhaustion: Exhaustion,
                                  alpha: float, f: VertexFunction,
                                  tol: float = DEFAULT_REFERENCE_TOL):
    """Monotone-limit proxy for the full-space Dirichlet resolvent."""
    _check_exhaustions(g, exhaustion)
    checked(alpha, "alpha")
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
    checked(self_tol, "self_tol")
    _check_exhaustions(g, exhaustion, ref_exhaustion)
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
        heat = engine.heat_vec(t, vec)
        pairing = None
        if alpha is not None:
            u = engine.resolvent_vec(alpha, vec)
            # a signed phi gives signed terms, so this is no l1 norm
            pairing = math.fsum((u * vec * op.measure_vector).tolist())
        return heat, pairing, engine.telemetry.clamped_entries

    results = _ordered_map(lambda k: one(exhaustion, k), range(len(iterate_sets)))
    heats = [heat for heat, _, _ in results]

    if reference is None:
        # the reference set has no pairing row, so it skips the resolvent
        ref_ex = ref_exhaustion or exhaustion
        heat, _, ref_clamps = one(ref_ex, -1, alpha=None)
        ref_items = list(zip(ref_ex.sets[-1], heat))
    else:
        ref_items, ref_clamps = list(reference.values.items()), 0
        for x, v in ref_items:
            if not math.isfinite(v):
                raise InputError(f"reference value at vertex {x} is not finite: {v}")
    index, ref, mass = _layout(g, iterate_sets[-1], ref_items)
    if explicit:
        if len(index) > len(ref_items):  # the layout added an iterate vertex
            raise InputError("reference does not cover the largest iterate set")
        ref_kind = "explicit-reference"
    else:
        _neumann_gate(heats + [ref], mass, self_tol, "neumann reference")
        ref_kind = "neumann-self-consistent"

    l1s, l2s, points = _distances(heats, ref, mass, index.get(probe))
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
    _check_exhaustions(g, exhaustion, ref_exhaustion)
    _check_phi(phi)
    ref, ref_info = dirichlet_reference(g, ref_exhaustion or exhaustion, t, phi, tol)
    probe = probe if probe is not None else exhaustion.sets[0][0]

    def one(k):
        _, engine, vec = _truncation(exhaustion, k, phi)
        return engine.heat_vec(t, vec), engine.telemetry.clamped_entries

    results = _ordered_map(one, range(len(exhaustion)))
    index, ref_vec, mass = _layout(g, exhaustion.sets[-1], ref.values.items())
    l1s, l2s, points = _distances([h for h, _ in results], ref_vec, mass, index.get(probe))
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
    _check_exhaustions(g, exhaustion, ref_exhaustion)
    ref_ex = ref_exhaustion or exhaustion
    for x in exhaustion.sets[-1] + ref_ex.sets[-1]:
        if g.killing(x) != 0:
            raise InputError(
                "stochastic-completeness experiment requires killing c = 0 "
                f"(violated at vertex {x})")
    _check_phi(phi)
    ref, ref_info = dirichlet_reference(g, ref_ex, t, phi, tol)
    phi_l1 = phi.norm(g, 1)
    probe = probe if probe is not None else exhaustion.sets[0][0]

    def one(k):
        d_op, d_engine, vec = _truncation(exhaustion, k, phi, OperatorKind.DIRICHLET)
        _, engine, _ = _truncation(exhaustion, k, phi)
        d_heat, heat = heat_vecs([d_engine, engine], t, vec)
        d_l1 = _l1(d_heat, d_op.measure_vector)
        clamped = d_engine.telemetry.clamped_entries + engine.telemetry.clamped_entries
        return heat, 2.0 * (phi_l1 - d_l1), clamped

    results = _ordered_map(one, range(len(exhaustion)))
    index, ref_vec, mass = _layout(g, exhaustion.sets[-1], ref.values.items())
    defect = phi_l1 - _l1(ref_vec, mass)
    l1s, l2s, points = _distances([h for h, _, _ in results], ref_vec, mass, index.get(probe))
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
