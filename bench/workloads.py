"""Workload inputs, operations and output checks for the benchmark.

Every operation is one call a researcher makes: a library experiment or a
``cli.main`` run.  ``Operation.run`` is the timed part; ``Operation.check``
runs afterwards, outside the timed region, and raises ``CheckFailed`` when
an output misses the acceptance-suite tolerance it is held to.

Library functions are reached through their modules (``operators.assemble_*``,
``convergence.*``), so the span recorder in ``spans.py`` sees every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from neumann_lab import analysis, cli, convergence, models, operators, semigroup
from neumann_lab.graphs import VertexFunction, WeightedGraph

# workloads whose inputs are fixed paper presets; the seed changes nothing
SEED_INDEPENDENT = ("stiff-sweep",)

BETA = (3.0 - math.sqrt(5.0)) / 2.0

# frozen defect floor of criterion 3 on the 4^r chain at t = 1
EXPLOSIVE_DEFECT_FLOOR = 0.3634

RESOLVENT_ALPHA = 1.5
RANDOM_GRAPHS = 20


class CheckFailed(Exception):
    """An operation returned, but its output missed its tolerance."""


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


# -- stiff-sweep ----------------------------------------------------------------


def _comb_convergence(comb, ex, ref_set, phi):
    def run():
        op = operators.assemble_neumann(comb.graph, ref_set)
        out = semigroup.SemigroupEngine(op).heat_vec(1.0, op.local_vector(phi))
        reference = VertexFunction({v: float(u) for v, u in zip(op.vertices, out)})
        return convergence.neumann_convergence_experiment(
            comb.graph, ex, 1.0, phi, reference=reference, alpha=1.0)

    def check(report):
        l2 = report.l2_distance
        expect(all(b < a for a, b in zip(l2[-4:], l2[-3:])),
               f"comb l2 steps not decreasing: {l2[-4:]}")
        pairs = report.quadratic_pairings
        expect(all(b <= a + 1e-10 for a, b in zip(pairs, pairs[1:])),
               f"comb resolvent pairings increase: {pairs}")

    return Operation("comb-convergence", run, check)


def _explosive_defect(chain, ex, ref_ex, phi):
    def run():
        return convergence.l1_defect_experiment(chain.graph, ex, 1.0, phi,
                                                ref_exhaustion=ref_ex)

    def check(report):
        defect = report.stochastic_defect
        expect(defect > EXPLOSIVE_DEFECT_FLOOR,
               f"explosive defect {defect!r} not above {EXPLOSIVE_DEFECT_FLOOR}")
        expect(all(d >= defect - 1e-9 for d in report.l1_distance),
               "an l1 distance fell below the stochastic defect")

    return Operation("explosive-l1-defect", run, check)


def _comb_uniform_l1(comb):
    """One stiff operator reused for 63 heat actions (uniform_l1_check).

    Rectangle 6 (n = 91) keeps the pass short: as a workload of its own this
    single-threaded operation was the least steady part of the benchmark.
    """
    subset = models.comb_rectangle(6)
    origin = models.comb_vertex_id(0, 0)
    phi = VertexFunction.indicator(origin)
    horizon = 1.0

    def run():
        return analysis.uniform_l1_check(comb.graph, subset, horizon, phi,
                                         grid=64, kind="neumann")

    def check(res):
        expect(res.value <= res.bound + 1e-9,
               f"uniform l1 value {res.value!r} above bound {res.bound!r}")
        expect(res.grid_size == 64, f"grid size {res.grid_size}")
        # Neumann mass at the window's end, from a fresh engine
        op = operators.assemble_neumann(comb.graph, subset)
        u = semigroup.SemigroupEngine(op).heat_vec(horizon, op.local_vector(phi))
        mass0 = float(comb.graph.measure(origin))
        mass = float((u * op.measure_vector).sum())
        expect(abs(mass - mass0) <= 1e-10 * mass0,
               f"Neumann mass {mass!r} drifted from {mass0!r}")

    return Operation("comb-uniform-l1", run, check)


def _stiff_sweep() -> list[Operation]:
    comb = models.PRESETS["comb"]()
    comb_ex = models.make_exhaustion(comb, 0, indices=list(range(2, 9)))
    comb_phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
    chain = models.PRESETS["bd:explosive"]()
    ex = models.make_exhaustion(chain, 0, indices=list(range(10, 201, 10)))
    ref_ex = models.make_exhaustion(chain, 0, indices=list(range(200, 481, 20)))
    return [
        _comb_convergence(comb, comb_ex, models.comb_rectangle(12), comb_phi),
        _explosive_defect(chain, ex, ref_ex, VertexFunction.indicator(0)),
        _comb_uniform_l1(comb),
    ]


# -- moderate-mix ---------------------------------------------------------------


def random_graph(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Connected graph on exactly n vertices: a random spanning tree plus
    n // 2 extra edges (elimination fill), b in [0.1, 3], m in [0.5, 2],
    killing in [0, 0.5] on about 30% of the vertices.

    The size is fixed by the caller so the seed changes the structure and
    the data, not the amount of work.
    """
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(0.1, 3.0))
    while len(edges) < (n - 1) + n // 2:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)))
    measure = {v: float(rng.uniform(0.5, 2.0)) for v in range(n)}
    killing = {v: float(rng.uniform(0.0, 0.5)) for v in range(n) if rng.random() < 0.3}
    return WeightedGraph.from_data(edges, measure, killing, name=f"bench-random-{n}")


def _resolvent(index: int, g: WeightedGraph, f: VertexFunction):
    verts = sorted(g.vertices())

    def run():
        op = operators.assemble_dirichlet(g, verts)
        res = semigroup.resolvent_apply(semigroup.SemigroupEngine(op), RESOLVENT_ALPHA, f)
        return op, res

    def check(out):
        op, res = out
        vec = op.local_vector(f)
        fnorm = math.sqrt(float((vec ** 2 * op.measure_vector).sum()))
        expect(res.residual_norm <= 1e-10 * fnorm,
               f"relative residual {res.residual_norm / fnorm:.3e} above 1e-10")
        dense = np.linalg.solve(op.matrix + RESOLVENT_ALPHA * np.eye(len(op)), vec)
        u = op.local_vector(res.solution)
        scale = float(np.max(np.abs(dense)))
        expect(float(np.max(np.abs(u - dense))) <= 1e-10 * scale,
               "resolvent disagrees with np.linalg.solve")

    return Operation(f"resolvent-{index:02d}", run, check)


def _cli(name: str, out_dir: Path, argv: list[str], check_payload) -> Operation:
    prefix = out_dir / name

    def run():
        return cli.main(argv + ["--out", str(prefix)])

    def check(code):
        expect(code == 0, f"cli exit code {code}")
        payload = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        expect(payload.get("status") == "ok", f"cli status {payload.get('status')!r}")
        check_payload(payload)

    return Operation(name, run, check)


def _check_unit_defect(payload):
    d = payload["l1_distance"]
    expect(d[-1] < 1e-3, f"bd:unit final l1 distance {d[-1]!r} not below 1e-3")
    expect(all(a <= b + 1e-9 for a, b in zip(d, payload["l1_bounds"])),
           "bd:unit l1 distance above its bound")


def _check_feller(payload):
    expect(payload["verdict_hint"] == "decay-observed",
           f"comb feller hint {payload['verdict_hint']!r}")


def _check_geo(payload):
    expect(payload["neumann_feller"] is False and
           payload["nontrivial_l1_harmonic_exists"] is True,
           "bd:geo must be non-Feller with an l1 harmonic function")


def _check_tail(payload):
    expect(payload["neumann_feller"] is True, "bd:tail must be Feller")
    expect(payload["hamburger"]["verdict"] == "divergent" and payload["ess_self_adjoint"],
           "bd:tail self-adjointness series must be certified divergent")


def _check_beta(payload):
    expect(abs(payload["beta"] - BETA) <= 1e-8, f"comb beta {payload['beta']!r}")


def _moderate_mix(seed: int, out_dir: Path) -> list[Operation]:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ops = [_cli("cli-unit-l1-defect", out_dir,
                ["--model", "bd:unit", "--experiment", "l1-defect"], _check_unit_defect)]
    for i in range(RANDOM_GRAPHS):
        g = random_graph(rng, 10 * (i + 1))
        f = VertexFunction({v: float(x) for v, x in enumerate(rng.normal(size=len(g)))})
        ops.append(_resolvent(i, g, f))
    ops += [
        _cli("cli-comb-feller", out_dir,
             ["--model", "comb", "--experiment", "feller", "--truncations", "2:18"],
             _check_feller),
        _cli("cli-geo-classify", out_dir,
             ["--model", "bd:geo", "--experiment", "classify", "--horizon", "1000"],
             _check_geo),
        _cli("cli-tail-classify", out_dir,
             ["--model", "bd:tail", "--experiment", "classify", "--horizon", "400"],
             _check_tail),
        _cli("cli-comb-beta", out_dir,
             ["--model", "comb", "--experiment", "comb-beta", "--depth", "40"],
             _check_beta),
    ]
    return ops


def make_operations(workload: str, seed: int, out_dir: Path) -> list[Operation]:
    """Generate the workload's inputs; the returned operations run on them."""
    if workload == "stiff-sweep":
        return _stiff_sweep()
    if workload == "moderate-mix":
        return _moderate_mix(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
