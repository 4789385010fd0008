import math

import numpy as np
import pytest

from neumann_lab import models
from neumann_lab.analysis import (
    ec_constant,
    feller_estimate,
    hop_distances,
    semigroup_gap,
    uniform_l1_check,
)
from neumann_lab.errors import InputError, OverflowCapError, TruncationInsufficientError
from neumann_lab.graphs import Exhaustion, VertexFunction, formal_laplacian
from neumann_lab.operators import assemble_dirichlet, assemble_neumann
from neumann_lab.semigroup import SemigroupEngine

from conftest import path_graph, random_connected_graph
from oracles import minimum_principle_lower_bound, resolvent_via_heat_quadrature


class TestFeller:
    def test_finite_graph_vacuous_outside(self):
        g = path_graph(5)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:3], verts, verts])
        rep = feller_estimate(g, ex, 1.0, 0, tol=1e-9)
        assert rep.sup_outside[-1] == 0.0
        assert rep.verdict_hint == "decay-observed"

    def test_comb_profile_below_scaled_majorant(self):
        # reference resolvent values sit below C * 2^{-nk} 4^{-n} with C
        # fitted at the origin
        m = models.PRESETS["comb"]()
        ex = models.make_exhaustion(m, 0, indices=list(range(8, 15)))
        origin = models.comb_vertex_id(0, 0)
        rep = feller_estimate(m.graph, ex, 1.0, origin, tol=1e-7)
        assert rep.verdict_hint == "decay-observed"
        assert rep.sup_outside[-2] <= 1e-9

    def test_transient_polynomial_chain_decays(self):
        m = models.make_bd_chain("(r+1)**3", "1", name="bd:cubic")
        ex = models.make_exhaustion(m, 0, indices=[500, 1000, 2000, 4000])
        rep = feller_estimate(m.graph, ex, 1.0, 0, tol=1e-4)
        assert rep.verdict_hint == "decay-observed"
        sups = rep.sup_outside
        assert sups[2] < sups[0]

    def test_neumann_variant_sees_floor_on_nonunique_chain(self):
        m = models.PRESETS["bd:geo"]()
        ex = models.make_exhaustion(m, 0, indices=[30, 40, 50])
        rep = feller_estimate(m.graph, ex, 1.0, 0, kind="neumann",
                              tol=1e-8, self_tol=1e-5)
        assert rep.verdict_hint == "floor-observed"
        assert rep.sup_outside[-2] > 0.1

    def test_neumann_gate_reports_its_distance(self):
        m = models.PRESETS["bd:geo"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30, 40, 50, 60])
        rep = feller_estimate(m.graph, ex, 1.0, 0, kind="neumann")
        dist = rep.metadata["reference_info"]["self_distance"]
        assert 0 < dist <= 1e-6
        with pytest.raises(TruncationInsufficientError, match="not self-consistent") as exc:
            feller_estimate(m.graph, ex, 1.0, 0, kind="neumann", self_tol=dist / 2)
        assert exc.value.last_increment == dist

    def test_source_must_be_in_first_set(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[3, 6])
        with pytest.raises(InputError, match="smallest"):
            feller_estimate(m.graph, ex, 1.0, 5)


class TestSemigroupGap:
    def test_finite_graph_gap_vanishes(self):
        g = path_graph(6)
        verts = sorted(g.vertices())
        ex = Exhaustion.build(g, [verts[:3], verts, verts])
        gap, info = semigroup_gap(g, ex, 1.0, 0, tol=1e-10, self_tol=1e-9)
        assert info["max_gap"] <= 1e-10

    def test_nonunique_chain_gap_positive(self):
        m = models.PRESETS["bd:geo"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30, 40, 50])
        gap, info = semigroup_gap(m.graph, ex, 1.0, 0, tol=1e-8)
        threshold = max(10 * 1e-8, 1e-6)
        assert info["gap_at_source"] > threshold
        # strictly positive on every vertex of the reference region
        assert min(gap.values[v] for v in range(30)) > 0

    def test_gap_solves_heat_equation(self):
        # (Delta + d/dt) u_t = 0 with central differences at step 1e-4,
        # checked near the source where truncation noise cannot pile up
        m = models.PRESETS["bd:geo"]()
        ex = models.make_exhaustion(m, 0, indices=[40, 50, 60, 70])
        h = 1e-4
        gaps = {}
        for t in (1 - h, 1.0, 1 + h):
            gaps[t], _ = semigroup_gap(m.graph, ex, t, 0, tol=1e-10, self_tol=1e-8)
        worst = 0.0
        for r in range(10):
            dudt = (gaps[1 + h](r) - gaps[1 - h](r)) / (2 * h)
            lap = float(formal_laplacian(m.graph, gaps[1.0], r))
            worst = max(worst, abs(lap + dudt))
        assert worst <= 1e-7


    def test_neumann_gate_reports_its_distance(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=list(range(10, 101, 10)))
        _, info = semigroup_gap(m.graph, ex, 1.0, 0)
        dist = info["self_distance"]
        assert 0 < dist <= 1e-6
        with pytest.raises(TruncationInsufficientError, match="not self-consistent") as exc:
            semigroup_gap(m.graph, ex, 1.0, 0, self_tol=dist / 2)
        assert exc.value.last_increment == dist

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_time_must_be_positive_and_finite(self, t):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 0, indices=[10, 20, 30])
        with pytest.raises(InputError, match=f"t must be positive and finite, got {t}"):
            semigroup_gap(m.graph, ex, t, 0)


class TestMinimumPrinciple:
    def test_time_zero(self):
        g = path_graph(3)
        assert minimum_principle_lower_bound(g, 0.0, 1) == 1.0

    def test_isolated_vertex(self):
        from neumann_lab.graphs import WeightedGraph
        g = WeightedGraph.from_data({}, {0: 1})
        assert minimum_principle_lower_bound(g, 5.0, 0) == 1.0

    def test_path_interior_value(self):
        g = path_graph(3)
        assert minimum_principle_lower_bound(g, 1.0, 1) == pytest.approx(math.exp(-2))

    @pytest.mark.parametrize("assemble", [assemble_dirichlet, assemble_neumann])
    def test_heat_dominates_bound(self, rng, assemble):
        for _ in range(5):
            g = random_connected_graph(rng, 25, with_killing=True)
            verts = sorted(g.vertices())
            op = assemble(g, verts)
            engine = SemigroupEngine(op)
            x = verts[int(rng.integers(len(verts)))]
            for t in (0.3, 1.0, 3.0):
                bound = minimum_principle_lower_bound(g, t, x)
                vec = op.local_vector(VertexFunction.indicator(x))
                val = engine.heat_vec(t, vec)[op.index[x]]
                assert val >= bound - 1e-10


class TestEdgeCondition:
    def test_unit_chain_constant_one(self):
        m = models.PRESETS["bd:unit"]()
        assert ec_constant(m.graph, range(20)) == 1.0

    def test_comb_base_constant_explodes(self):
        # base edge (0,n)-(0,n+1): b/(m m) = 4^{n+2} 2^{2n+1}, unbounded
        g = models.make_comb()
        values = []
        for n_max in (1, 2, 3, 4):
            window = [models.comb_vertex_id(0, n) for n in range(n_max + 1)]
            values.append(ec_constant(g, window))
        for a, b in zip(values, values[1:]):
            assert b > a
        # largest window: deepest edge has n = 3
        assert values[-1] == pytest.approx(4.0 ** 5 * 2.0 ** 7)

    def test_single_vertex_empty_max(self):
        from neumann_lab.graphs import WeightedGraph
        g = WeightedGraph.from_data({}, {0: 1})
        assert ec_constant(g, [0]) == 0.0

    def test_constant_beyond_the_float_cap_is_typed(self):
        # b(r, r+1)/(m(r) m(r+1)) = 2^r / 2^{-2r-1} = 2^{3r+1}: 2^595 on the
        # prefix of 200, 2^2995 on the prefix of 1000, where m(r) m(r+1)
        # alone is below the smallest float
        g = models.PRESETS["bd:geo"]().graph
        assert ec_constant(g, range(200)) == 2.0 ** (3 * 198 + 1)
        # the error names the largest ratio, not the first one past the cap
        with pytest.raises(OverflowCapError, match=r"~ 2\^2995 exceeds the float cap"):
            ec_constant(g, range(1000))


class TestUniformL1:
    def test_zero_horizon(self):
        g = path_graph(5)
        res = uniform_l1_check(g, sorted(g.vertices()), 0.0,
                               VertexFunction.indicator(2))
        assert res.value == 0.0

    def test_single_vertex_graph(self):
        from neumann_lab.graphs import WeightedGraph
        g = WeightedGraph.from_data({}, {0: 1})
        res = uniform_l1_check(g, [0], 1.0, VertexFunction.indicator(0))
        assert res.value == 0.0

    def test_path_bound_with_slack(self):
        g = path_graph(12)
        phi = VertexFunction.indicator(1)
        res = uniform_l1_check(g, sorted(g.vertices()), 1.0, phi, grid=64)
        assert res.value <= res.bound + 1e-9
        assert res.value < res.bound  # strict slack on this instance
        assert res.bound == pytest.approx(1.0 * 4.0)  # T * |Delta 1_1|_1

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_presets_within_bound(self, kind):
        for name in ("bd:unit", "bd:geo"):
            m = models.PRESETS[name]()
            subset = list(range(30))
            res = uniform_l1_check(m.graph, subset, 0.5,
                                   VertexFunction.indicator(0), grid=16, kind=kind)
            assert res.value <= res.bound + 1e-9

    def test_rejects_unknown_kind(self):
        m = models.PRESETS["bd:unit"]()
        with pytest.raises(InputError, match="unknown kind"):
            uniform_l1_check(m.graph, list(range(5)), 1.0,
                             VertexFunction.indicator(0), kind="neuman")

    @pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
    def test_horizon_must_be_nonnegative_and_finite(self, horizon):
        m = models.PRESETS["bd:unit"]()
        with pytest.raises(InputError,
                           match=f"horizon must be nonnegative and finite, got {horizon}"):
            uniform_l1_check(m.graph, list(range(5)), horizon, VertexFunction.indicator(0))

    def test_support_neighborhood_must_fit(self):
        m = models.PRESETS["bd:unit"]()
        with pytest.raises(InputError, match="neighborhood"):
            uniform_l1_check(m.graph, list(range(5)), 1.0,
                             VertexFunction.indicator(4))


class TestResolventIdentities:
    def test_laplace_quadrature_matches_direct(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, 30)
            op = assemble_neumann(g, sorted(g.vertices()))
            engine = SemigroupEngine(op)
            vec = np.abs(rng.normal(size=len(op)))
            for alpha in (0.7, 2.0):
                direct = engine.resolvent_vec(alpha, vec)
                quad = resolvent_via_heat_quadrature(engine, alpha, vec)
                assert np.max(np.abs(direct - quad)) <= 1e-6

    def test_resolvent_symmetry(self, rng):
        # R delta_x (y) == R delta_y (x): the normalized point masses make
        # the resolvent kernel symmetric; equivalently, with indicators the
        # measure weights appear: m(y) R 1_x (y) == m(x) R 1_y (x)
        for _ in range(5):
            g = random_connected_graph(rng, 30, with_killing=True)
            verts = sorted(g.vertices())
            op = assemble_dirichlet(g, verts)
            engine = SemigroupEngine(op)
            x, y = (int(v) for v in rng.choice(len(verts), size=2, replace=False))
            dx = engine.resolvent_vec(1.0, op.local_vector(VertexFunction.delta(g, verts[x])))
            dy = engine.resolvent_vec(1.0, op.local_vector(VertexFunction.delta(g, verts[y])))
            assert abs(dx[y] - dy[x]) <= 1e-10 * max(abs(dx[y]), abs(dy[x]), 1e-30)
            ix = engine.resolvent_vec(1.0, op.local_vector(VertexFunction.indicator(verts[x])))
            iy = engine.resolvent_vec(1.0, op.local_vector(VertexFunction.indicator(verts[y])))
            lhs = float(op.measure_vector[y]) * ix[y]
            rhs = float(op.measure_vector[x]) * iy[x]
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


class TestHopDistances:
    def test_path_distances(self):
        g = path_graph(5)
        d = hop_distances(g, range(5), 0)
        assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_source_must_be_inside(self):
        g = path_graph(5)
        with pytest.raises(InputError):
            hop_distances(g, range(3), 4)
