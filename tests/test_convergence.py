import math
import re
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from neumann_lab import convergence, graphs, models
from neumann_lab.analysis import feller_estimate, semigroup_gap
from neumann_lab.convergence import (
    ConvergenceReport,
    _monotone_limit,
    dirichlet_reference,
    dirichlet_resolvent_reference,
    dirichlet_gap_experiment,
    l1_defect_experiment,
    neumann_convergence_experiment,
)
from neumann_lab.errors import InputError, NeumannLabError, TruncationInsufficientError
from neumann_lab.graphs import Exhaustion, VertexFunction, WeightedGraph
from neumann_lab.operators import assemble_dirichlet, assemble_neumann
from neumann_lab.semigroup import SemigroupEngine

from conftest import path_graph


def full_exhaustion(g, pieces):
    """Exhaustion ending (twice) at the full vertex set, for exact limits."""
    verts = sorted(g.vertices())
    sets = [verts[:n] for n in pieces] + [verts, verts]
    return Exhaustion.build(g, sets)


class TestDirichletReference:
    def test_finite_graph_exact_at_full_truncation(self):
        g = path_graph(6)
        ex = full_exhaustion(g, [2, 4])
        phi = VertexFunction.indicator(0)
        ref, info = dirichlet_reference(g, ex, 1.0, phi, tol=1e-9)
        op = assemble_dirichlet(g, sorted(g.vertices()))
        exact = SemigroupEngine(op).heat_vec(1.0, op.local_vector(phi))
        for x, v in zip(op.vertices, exact):
            assert ref(x) == pytest.approx(v, abs=1e-13)
        assert info["last_increment"] < 1e-9

    def test_time_zero_returns_phi(self):
        g = path_graph(5)
        ex = full_exhaustion(g, [2, 3])
        phi = VertexFunction.indicator(0)
        ref, _ = dirichlet_reference(g, ex, 0.0, phi, tol=1e-9)
        assert ref(0) == 1.0
        assert all(ref(x) == 0.0 for x in range(1, 5))

    def test_unit_chain_increments_decay(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[5, 10, 15, 20, 25, 30, 40, 60])
        phi = VertexFunction.indicator(0)
        ref, info = dirichlet_reference(m.graph, ex, 1.0, phi, tol=1e-10)
        assert info["last_increment"] < 1e-10

    def test_insufficient_exhaustion_raises(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[2, 3, 4])
        phi = VertexFunction.indicator(0)
        with pytest.raises(TruncationInsufficientError) as exc:
            dirichlet_reference(m.graph, ex, 1.0, phi, tol=1e-12)
        assert exc.value.last_increment is not None
        assert exc.value.last_increment > 1e-12

    @pytest.mark.parametrize("reference", [dirichlet_reference, dirichlet_resolvent_reference])
    def test_single_set_rejected_before_any_solve(self, reference, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved on a single-set exhaustion")

        monkeypatch.setattr(SemigroupEngine, "heat_vec", no_solve)
        monkeypatch.setattr(SemigroupEngine, "resolvent_vec", no_solve)
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[10])
        with pytest.raises(InputError, match="at least two exhaustion sets"):
            reference(m.graph, ex, 1.0, VertexFunction.indicator(0))

    def test_rejects_signed_phi(self):
        g = path_graph(4)
        ex = full_exhaustion(g, [2])
        with pytest.raises(InputError, match="nonnegative"):
            dirichlet_reference(g, ex, 1.0, VertexFunction({0: -1.0}), tol=1e-6)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("reference,message", [
        (dirichlet_reference, "t must be nonnegative and finite"),
        (dirichlet_resolvent_reference, "alpha must be positive and finite"),
    ])
    def test_rejects_nonfinite_parameter(self, reference, message, value):
        g = path_graph(4)
        ex = full_exhaustion(g, [2])
        with pytest.raises(InputError, match=re.escape(f"{message}, got {value}")):
            reference(g, ex, value, VertexFunction.indicator(0))

    def test_resolvent_variant(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 40, 80])
        delta = VertexFunction.delta(m.graph, 0)
        ref, info = dirichlet_resolvent_reference(m.graph, ex, 1.0, delta, tol=1e-10)
        assert info["last_increment"] < 1e-10
        assert ref(0) > 0


def test_monotonicity_error_prints_plain_floats():
    g = path_graph(4)
    ex = Exhaustion.build(g, [[0, 1], [0, 1, 2]])
    values = iter([0.5, 0.25])

    def falling(engine, vec):
        return np.full(len(vec), next(values))

    with pytest.raises(NeumannLabError) as err:
        _monotone_limit(ex, 1e-8, VertexFunction.indicator(0), falling, "probe")
    assert str(err.value) == ("probe: truncation monotonicity violated at vertex 0: "
                              "0.5 -> 0.25")


@pytest.mark.parametrize("preset,indices", [("comb", [2, 3, 4, 5]),
                                            ("bd:explosive", [10, 30, 60, 100])])
def test_increments_are_the_vertexwise_sums(preset, indices):
    # each increment is the exactly rounded sum of |new - old| m(x) over the
    # larger set, the previous vector extended by zero and m(x) a float
    model = models.PRESETS[preset]()
    ex = models.make_exhaustion(model, 0, indices=indices)
    phi = VertexFunction.indicator(model.origin)
    with pytest.raises(TruncationInsufficientError) as err:
        dirichlet_reference(model.graph, ex, 1.0, phi, tol=1e-300)
    expected, prev = [], None
    for subset in ex.sets:
        op = assemble_dirichlet(model.graph, subset)
        heat = SemigroupEngine(op).heat_vec(1.0, op.local_vector(phi))
        current = {x: float(v) for x, v in zip(op.vertices, heat)}
        if prev is not None:
            terms = [abs(v - prev.get(x, 0.0)) * float(model.graph.measure(x))
                     for x, v in current.items()]
            expected.append(float(sum(map(Fraction, terms))))
        prev = current
    assert err.value.increments == expected


def test_increment_keeps_terms_below_an_ulp_of_the_largest():
    # summed left to right, each 1e-16 is lost against 1.0
    g = path_graph(11)
    ex = Exhaustion.build(g, [[0], list(range(11))])
    steps = iter([np.zeros(1), np.array([1.0] + [1e-16] * 10)])
    with pytest.raises(TruncationInsufficientError) as err:
        _monotone_limit(ex, 1e-8, VertexFunction.indicator(0),
                        lambda engine, vec: next(steps), "probe")
    assert err.value.increments == [1.000000000000001]


class TestNeumannConvergence:
    def test_finite_graph_distance_zero_at_full_set(self):
        g = path_graph(6)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:2], verts[:4], verts, verts])
        phi = VertexFunction.indicator(0)
        rep = neumann_convergence_experiment(g, ex, 1.0, phi, alpha=1.0)
        assert rep.l2_distance[-1] <= 1e-13
        assert rep.reference_kind == "neumann-self-consistent"

    def test_pairings_nonincreasing_on_comb(self):
        m = models.PRESETS["comb"]()
        ex = models.make_exhaustion(m, 0, indices=[2, 3, 4, 5, 6])
        phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
        ref_set = models.comb_rectangle(8)
        op = assemble_neumann(m.graph, ref_set)
        out = SemigroupEngine(op).heat_vec(1.0, op.local_vector(phi))
        reference = VertexFunction({v: float(u) for v, u in zip(op.vertices, out)})
        rep = neumann_convergence_experiment(m.graph, ex, 1.0, phi,
                                             reference=reference, alpha=1.0)
        pairs = rep.quadratic_pairings
        assert all(b <= a + 1e-10 for a, b in zip(pairs, pairs[1:]))
        # distances decrease on this instance
        assert all(b < a for a, b in zip(rep.l2_distance, rep.l2_distance[1:]))

    def test_reference_set_skips_the_resolvent(self, monkeypatch):
        calls = []
        solve = SemigroupEngine.resolvent_vec

        def counted(engine, alpha, vec):
            calls.append(len(engine.operator))
            return solve(engine, alpha, vec)

        monkeypatch.setattr(SemigroupEngine, "resolvent_vec", counted)
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30, 40, 50])
        rep = neumann_convergence_experiment(m.graph, ex, 1.0, VertexFunction.indicator(0),
                                             alpha=1.0)
        assert len(rep.quadratic_pairings) == 4
        assert calls == [10, 20, 30, 40]

    def test_reference_must_cover_iterates(self):
        g = path_graph(6)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:3], verts[:5]])
        phi = VertexFunction.indicator(0)
        small_ref = VertexFunction({0: 0.5, 1: 0.5})
        with pytest.raises(InputError, match="cover"):
            neumann_convergence_experiment(g, ex, 1.0, phi, reference=small_ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_reference_value_rejected(self, bad):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[5, 10])
        phi = VertexFunction.indicator(0)
        values = dict.fromkeys(ex.sets[-1], 0.5)
        with pytest.raises(InputError, match="reference value at vertex 7 is not finite"):
            neumann_convergence_experiment(m.graph, ex, 1.0, phi,
                                           reference=VertexFunction(values | {7: bad}))
        # phi is not sign-checked here, so neither is the reference
        rep = neumann_convergence_experiment(m.graph, ex, 1.0, phi,
                                             reference=VertexFunction(values | {7: -1.0}))
        assert rep.reference_kind == "explicit-reference"

    def test_reference_set_gives_the_reference_and_its_clamps(self):
        # the iterates and the reference are slices of one exhaustion, as in the CLI
        m = models.PRESETS["comb"]()
        full = models.make_exhaustion(m, 0, indices=[2, 3, 4, 5, 6, 9])
        ex = full[:5]
        phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
        ref_set = models.comb_rectangle(9)
        op = assemble_neumann(m.graph, ref_set)
        engine = SemigroupEngine(op)
        out = engine.heat_vec(1.0, op.local_vector(phi))
        reference = VertexFunction({v: float(u) for v, u in zip(op.vertices, out)})
        by_map = neumann_convergence_experiment(m.graph, ex, 1.0, phi,
                                                reference=reference, alpha=1.0)
        by_set = neumann_convergence_experiment(m.graph, ex, 1.0, phi,
                                                ref_exhaustion=full[4:], alpha=1.0)
        assert engine.telemetry.clamped_entries > 0
        expected = by_map.to_json_dict()
        expected["metadata"]["clamped_entries"] += engine.telemetry.clamped_entries
        assert by_set.to_json_dict() == expected
        assert by_set.reference_kind == "explicit-reference"

    def test_explicit_reference_beyond_the_iterates_matches_the_reference_set(self):
        # the rectangle-9 reference reaches past the iterates' rectangle 6:
        # its extra vertices are appended to the layout in the reference's
        # own order (here reversed), each with its own mass
        m = models.PRESETS["comb"]()
        full = models.make_exhaustion(m, 0, indices=[2, 3, 4, 5, 6, 9])
        origin = models.comb_vertex_id(0, 0)
        phi = VertexFunction.indicator(origin)
        op = assemble_neumann(m.graph, models.comb_rectangle(9))
        out = SemigroupEngine(op).heat_vec(1.0, op.local_vector(phi))
        reference = VertexFunction({v: float(u) for v, u in reversed(list(zip(op.vertices, out)))})
        by_map = neumann_convergence_experiment(m.graph, full[:5], 1.0, phi, probe=origin,
                                                reference=reference)
        by_set = neumann_convergence_experiment(m.graph, full[:5], 1.0, phi, probe=origin,
                                                ref_exhaustion=full[4:])
        assert len(full.sets[-1]) > len(full.sets[4])
        for name in ("l1_distance", "l2_distance", "pointwise_distance"):
            assert getattr(by_map, name) == pytest.approx(getattr(by_set, name), rel=1e-14)
        # the last distance summed vertex by vertex over the reference's support
        top = assemble_neumann(m.graph, full.sets[4])
        heat = dict(zip(top.vertices, SemigroupEngine(top).heat_vec(1.0, top.local_vector(phi))))
        expected = sum(abs(heat.get(v, 0.0) - u) * float(m.graph.measure(v))
                       for v, u in reference.values.items())
        assert by_set.l1_distance[-1] == pytest.approx(expected, rel=1e-13)

    def test_reference_set_must_cover_iterates_and_exclude_a_reference(self):
        g = path_graph(6)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:3], verts[:5]])
        phi = VertexFunction.indicator(0)
        with pytest.raises(InputError, match="cover"):
            neumann_convergence_experiment(g, ex, 1.0, phi,
                                           ref_exhaustion=Exhaustion.build(g, [verts[:4]]))
        with pytest.raises(InputError, match="not both"):
            neumann_convergence_experiment(g, ex, 1.0, phi,
                                           ref_exhaustion=Exhaustion.build(g, [verts]),
                                           reference=VertexFunction({0: 1.0}))

    def test_self_consistency_gate(self):
        # comb truncations are far apart at small rectangles: the gate trips
        m = models.PRESETS["comb"]()
        ex = models.make_exhaustion(m, 0, indices=[2, 3, 4])
        phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
        with pytest.raises(TruncationInsufficientError):
            neumann_convergence_experiment(m.graph, ex, 1.0, phi, self_tol=1e-8)

    def test_pairing_violation_raises_at_construction(self):
        with pytest.raises(NeumannLabError, match="nonincreasing"):
            ConvergenceReport(
                experiment="x", reference_kind="y", t=1.0, sizes=[1, 2],
                l1_distance=[0.0, 0.0], l2_distance=[0.0, 0.0],
                pointwise_distance=[0.0, 0.0], alpha=1.0,
                quadratic_pairings=[0.5, 0.7])


class TestDirichletGap:
    def test_finite_graph_gap_zero(self):
        g = path_graph(6)
        ex = full_exhaustion(g, [2, 4])
        phi = VertexFunction.indicator(0)
        rep = dirichlet_gap_experiment(g, ex, 1.0, phi, tol=1e-9)
        assert rep.l2_distance[-1] <= 1e-12
        assert rep.gap_floor <= rep.floor_threshold
        assert rep.metadata["floor_is_evidence"] is False

    def test_nonuniqueness_chain_shows_floor(self):
        # finite measure and summable 1/b: the classifier predicts distinct
        # forms, and the truncation curves keep a positive floor
        m = models.PRESETS["bd:geo"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30, 40])
        ref_ex = models.make_exhaustion(m, 0, indices=[40, 50, 60, 70, 80])
        phi = VertexFunction.indicator(0)
        rep = dirichlet_gap_experiment(m.graph, ex, 1.0, phi,
                                       ref_exhaustion=ref_ex, tol=1e-8)
        assert rep.gap_floor > rep.floor_threshold
        assert rep.metadata["floor_is_evidence"] is True

    def test_rejects_zero_phi(self):
        g = path_graph(4)
        ex = full_exhaustion(g, [2])
        with pytest.raises(InputError, match="nonzero"):
            dirichlet_gap_experiment(g, ex, 1.0, VertexFunction({}))


class TestL1Defect:
    def test_finite_graph_zero_defect(self):
        g = path_graph(6)
        ex = full_exhaustion(g, [3])
        phi = VertexFunction.indicator(0)
        rep = l1_defect_experiment(g, ex, 1.0, phi, tol=1e-10)
        assert abs(rep.stochastic_defect) <= 1e-12
        assert rep.l1_distance[-1] <= 1e-12

    def test_unit_chain_distances_vanish(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 40])
        ref_ex = models.make_exhaustion(m, 0, indices=[40, 60, 80, 120])
        phi = VertexFunction.indicator(0)
        rep = l1_defect_experiment(m.graph, ex, 1.0, phi, ref_exhaustion=ref_ex)
        assert rep.l1_distance[-1] < 1e-6
        assert abs(rep.stochastic_defect) < 1e-8
        assert all(d <= b + 1e-9 for d, b in zip(rep.l1_distance, rep.l1_bounds))

    def test_explosive_chain_keeps_defect(self):
        m = models.PRESETS["bd:explosive"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30])
        ref_ex = models.make_exhaustion(m, 0, indices=[30, 40, 50, 60])
        phi = VertexFunction.indicator(0)
        rep = l1_defect_experiment(m.graph, ex, 1.0, phi, ref_exhaustion=ref_ex)
        assert rep.stochastic_defect > 0.01
        assert all(d >= rep.stochastic_defect - 1e-9 for d in rep.l1_distance)

    def test_lazy_callbacks_run_once_per_vertex(self):
        # the 4^r chain: every truncation and the reference read the rows
        # and measures the graph stored on first use
        calls = Counter()

        def neighbors(v):
            calls["row", v] += 1
            out = {v + 1: Fraction(4) ** v}
            if v > 0:
                out[v - 1] = Fraction(4) ** (v - 1)
            return out

        def measure(v):
            calls["measure", v] += 1
            return 1

        g = WeightedGraph.lazy(neighbor_fn=neighbors, measure_fn=measure)
        ex = Exhaustion.build(g, [range(s) for s in range(10, 201, 10)])
        ref = Exhaustion.build(g, [range(s) for s in range(200, 481, 20)])
        report = l1_defect_experiment(g, ex, 1.0, VertexFunction.indicator(0),
                                      ref_exhaustion=ref)
        assert report.stochastic_defect > 0.36
        assert {v for _, v in calls} == set(range(480))
        assert max(calls.values()) == 1

    def test_rejects_killing(self):
        g = path_graph(4, c=0.5)
        ex = full_exhaustion(g, [2])
        with pytest.raises(InputError, match="killing"):
            l1_defect_experiment(g, ex, 1.0, VertexFunction.indicator(0))


def test_truncations_run_no_bfs(monkeypatch):
    # Exhaustion.build checks connectivity once; the experiments read every
    # truncation off the built exhaustion without a hop-distance search
    model = models.build_model("path:12")
    ex = models.make_exhaustion(model, 0, indices=models.default_indices(model))
    ref_ex = models.make_exhaustion(
        model, 0, indices=models.reference_indices(model, models.default_indices(model)))
    calls = []
    search = graphs.hop_distances

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(graphs, "hop_distances", counted)
    phi = VertexFunction.indicator(model.origin)
    neumann_convergence_experiment(model.graph, ex, 1.0, phi)
    dirichlet_gap_experiment(model.graph, ex, 1.0, phi, ref_exhaustion=ref_ex)
    l1_defect_experiment(model.graph, ex, 1.0, phi, ref_exhaustion=ref_ex)
    assert calls == []


class TestSupportOutsideTruncation:
    """phi supported outside the smallest truncation is bad input for every
    experiment; the first restriction rejects it."""

    @staticmethod
    def case():
        g = path_graph(6)
        return g, full_exhaustion(g, [2, 4]), VertexFunction.indicator(3)

    def test_dirichlet_reference(self):
        g, ex, phi = self.case()
        with pytest.raises(InputError, match="supported outside"):
            dirichlet_reference(g, ex, 1.0, phi)

    def test_neumann_convergence(self):
        g, ex, phi = self.case()
        with pytest.raises(InputError, match="supported outside"):
            neumann_convergence_experiment(g, ex, 1.0, phi)

    def test_dirichlet_gap(self):
        g, ex, phi = self.case()
        with pytest.raises(InputError, match="supported outside"):
            dirichlet_gap_experiment(g, ex, 1.0, phi)

    def test_l1_defect(self):
        g, ex, phi = self.case()
        with pytest.raises(InputError, match="supported outside"):
            l1_defect_experiment(g, ex, 1.0, phi)


class TestSandwich:
    def test_dirichlet_between_nothing_and_neumann(self):
        # P^D_k <= min(P^N_k, P^D_ref) entrywise for nonnegative data
        m = models.PRESETS["bd:unit"]()
        g = m.graph
        phi = VertexFunction.indicator(0)
        ref_ex = models.make_exhaustion(m, 0, indices=[40, 60, 80, 120])
        ref, _ = dirichlet_reference(g, ref_ex, 1.0, phi, tol=1e-10)
        for size in (10, 20, 30):
            subset = list(range(size))
            d_op = assemble_dirichlet(g, subset)
            n_op = assemble_neumann(g, subset)
            u_d = SemigroupEngine(d_op).heat_vec(1.0, d_op.local_vector(phi))
            u_n = SemigroupEngine(n_op).heat_vec(1.0, n_op.local_vector(phi))
            for i, x in enumerate(d_op.vertices):
                assert u_d[i] <= u_n[i] + 1e-10
                assert u_d[i] <= float(ref(x)) + 1e-10


class TestReportShape:
    def test_rows_and_json(self):
        g = path_graph(5)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:2], verts[:4], verts, verts])
        phi = VertexFunction.indicator(0)
        rep = neumann_convergence_experiment(g, ex, 0.5, phi, alpha=2.0)
        rows = rep.rows()
        assert [r["k"] for r in rows] == list(range(len(rep.sizes)))
        assert set(rows[0]) == set(ConvergenceReport.CSV_COLUMNS) - {"k"} | {"k"}
        payload = rep.to_json_dict()
        assert payload["schema"] == 1
        assert payload["experiment"] == "neumann-convergence"
        assert payload["metadata"]["graph"] == "path-5"

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="mismatch"):
            ConvergenceReport(
                experiment="x", reference_kind="y", t=1.0, sizes=[1, 2],
                l1_distance=[0.0], l2_distance=[0.0, 0.0],
                pointwise_distance=[0.0, 0.0])

    def test_nan_distance_rejected(self):
        with pytest.raises(InputError, match="nonnegative"):
            ConvergenceReport(
                experiment="x", reference_kind="y", t=1.0, sizes=[1],
                l1_distance=[math.nan], l2_distance=[0.0], pointwise_distance=[0.0])

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ConvergenceReport("x", "y", 1.0, [1], [0.0], [0.0], [0.0])


def _unit_prefixes():
    m = models.PRESETS["bd:unit"]()
    return m.graph, models.make_exhaustion(m, 0, indices=[10, 20, 30])


PHI = VertexFunction.indicator(0)


def _no_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(SemigroupEngine, "heat_vec", no_solve)
    monkeypatch.setattr(SemigroupEngine, "resolvent_vec", no_solve)
    monkeypatch.setattr(convergence, "heat_vecs", no_solve)


TOLERANCE_CALLS = {
    "reference": ("tol", lambda g, ex, v: dirichlet_reference(g, ex, 1.0, PHI, tol=v)),
    "resolvent-reference": (
        "tol", lambda g, ex, v: dirichlet_resolvent_reference(g, ex, 1.0, PHI, tol=v)),
    "dirichlet-gap": ("tol", lambda g, ex, v: dirichlet_gap_experiment(g, ex, 1.0, PHI, tol=v)),
    "l1-defect": ("tol", lambda g, ex, v: l1_defect_experiment(g, ex, 1.0, PHI, tol=v)),
    "neumann-convergence": (
        "self_tol", lambda g, ex, v: neumann_convergence_experiment(g, ex, 1.0, PHI,
                                                                    self_tol=v)),
    "feller": ("tol", lambda g, ex, v: feller_estimate(g, ex, 1.0, 0, tol=v)),
    "feller-neumann": (
        "tol", lambda g, ex, v: feller_estimate(g, ex, 1.0, 0, kind="neumann", tol=v)),
    "feller-self": (
        "self_tol", lambda g, ex, v: feller_estimate(g, ex, 1.0, 0, kind="neumann",
                                                     self_tol=v)),
    "gap": ("tol", lambda g, ex, v: semigroup_gap(g, ex, 1.0, 0, tol=v)),
    "gap-self": ("self_tol", lambda g, ex, v: semigroup_gap(g, ex, 1.0, 0, self_tol=v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("call", TOLERANCE_CALLS)
def test_tolerance_must_be_positive_and_finite(call, value, monkeypatch):
    # rejected before the first solve: unchecked, the reference loop reads
    # tol=nan as a truncation failure and tol=inf as convergence at set two
    _no_solve(monkeypatch)
    name, run = TOLERANCE_CALLS[call]
    g, ex = _unit_prefixes()
    with pytest.raises(InputError,
                       match=re.escape(f"{name} must be positive and finite, got {value}")):
        run(g, ex, value)


# every entry point that takes a graph and an exhaustion of it
ENTRY_POINTS = {
    "reference": lambda g, ex: dirichlet_reference(g, ex, 1.0, PHI),
    "resolvent-reference": lambda g, ex: dirichlet_resolvent_reference(g, ex, 1.0, PHI),
    "neumann-convergence": lambda g, ex, **kw: neumann_convergence_experiment(g, ex, 1.0, PHI,
                                                                             **kw),
    "dirichlet-gap": lambda g, ex, **kw: dirichlet_gap_experiment(g, ex, 1.0, PHI, **kw),
    "l1-defect": lambda g, ex, **kw: l1_defect_experiment(g, ex, 1.0, PHI, **kw),
    "feller": lambda g, ex: feller_estimate(g, ex, 1.0, 0),
    "gap": lambda g, ex: semigroup_gap(g, ex, 1.0, 0),
}
WITH_REFERENCE = ["neumann-convergence", "dirichlet-gap", "l1-defect"]


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_exhaustion_of_another_graph_rejected(call, monkeypatch):
    # unchecked, the distances read bd:geo's masses off the bd:unit restrictions
    _no_solve(monkeypatch)
    _, ex = _unit_prefixes()
    geo = models.PRESETS["bd:geo"]().graph
    with pytest.raises(InputError, match=re.escape(
            "the exhaustion belongs to another graph ('bd:unit', not 'bd:geo')")):
        ENTRY_POINTS[call](geo, ex)


@pytest.mark.parametrize("call", WITH_REFERENCE)
def test_reference_exhaustion_of_another_graph_rejected(call, monkeypatch):
    _no_solve(monkeypatch)
    g, ex = _unit_prefixes()
    geo = models.PRESETS["bd:geo"]()
    ref_ex = models.make_exhaustion(geo, 0, indices=[30, 40])
    with pytest.raises(InputError, match=re.escape(
            "the exhaustion belongs to another graph ('bd:geo', not 'bd:unit')")):
        ENTRY_POINTS[call](g, ex, ref_exhaustion=ref_ex)


@pytest.mark.parametrize("call", WITH_REFERENCE)
def test_reference_exhaustion_must_cover_the_iterates(call, monkeypatch):
    _no_solve(monkeypatch)
    m = models.PRESETS["bd:unit"]()
    ex = models.make_exhaustion(m, 0, indices=range(10, 81, 10))
    ref_ex = models.make_exhaustion(m, 0, indices=[20, 41])
    with pytest.raises(InputError, match="reference does not cover the largest iterate set"):
        ENTRY_POINTS[call](m.graph, ex, ref_exhaustion=ref_ex)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -600])
@pytest.mark.parametrize("preset", ["bd:unit", "bd:geo", "bd:explosive", "bd:tail", "comb",
                                    "random:60"])
def test_distances_match_exact_sums(preset, scale):
    # entries from 1e-200 to 1 (times 2^-600: every square underflows) on the
    # masses of a model's default exhaustion: l1 is the correctly rounded sum
    # of the float products |d| m, l2 is within 1e-15 of a 60-digit value,
    # and no permutation of the layout changes either by a bit
    model = models.build_model(preset, seed=3)
    top = models.make_exhaustion(model, 0, indices=models.default_indices(model)).sets[-1]
    n = len(top)
    mass = convergence._layout(model.graph, top, ())[2]
    rng = np.random.default_rng(n)
    ref = scale * 10.0 ** rng.uniform(-200, 0, n)
    vectors = [scale * 10.0 ** rng.uniform(-200, 0, k) for k in (1, n // 2, n)]
    probe = n // 3
    l1s, l2s, points = convergence._distances(vectors, ref, mass, probe)
    for vec, l1, l2, point in zip(vectors, l1s, l2s, points):
        d = ref.copy()
        d[:len(vec)] -= vec
        d = np.abs(d)
        assert l1 == float(sum(map(Fraction, (d * mass).tolist())))
        with mpmath.workdps(60):
            exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 * mpmath.mpf(w)
                                            for x, w in zip(d.tolist(), mass.tolist())))
            assert abs(mpmath.mpf(l2) - exact) <= 1e-15 * exact
        assert point == d[probe]
    perm = rng.permutation(n)
    padded = [np.concatenate([vec, np.zeros(n - len(vec))])[perm] for vec in vectors]
    shuffled = convergence._distances(padded, ref[perm], mass[perm],
                                      int(np.argsort(perm)[probe]))
    assert shuffled == (l1s, l2s, points)
