import math
from fractions import Fraction

import numpy as np
import pytest

from neumann_lab import models
from neumann_lab._expcf import CF_UNIFORM_ERROR, POLES, RESIDUES
from neumann_lab.errors import InputError, OverflowCapError
from neumann_lab.graphs import VertexFunction, WeightedGraph
from neumann_lab.operators import assemble_dirichlet, assemble_neumann
from neumann_lab.semigroup import SemigroupEngine, resolvent_apply

import oracles
from conftest import path_graph, random_connected_graph
from oracles import heat_apply, heat_oracle, rational_exp, variational_value


def two_vertex_engine():
    g = path_graph(2)
    return SemigroupEngine(assemble_neumann(g, [0, 1]))


class TestRationalExpTable:
    def test_uniform_error_on_half_line(self):
        xs = np.concatenate([np.linspace(0.0, 80.0, 20001),
                             np.logspace(1.9, 15.0, 500)])
        assert np.max(np.abs(rational_exp(xs) - np.exp(-xs))) <= CF_UNIFORM_ERROR

    def test_decay_at_huge_arguments(self):
        assert np.max(np.abs(rational_exp(np.array([1e30, 1e150, 1e300])))) < 1e-13

    def test_conjugate_pairs(self):
        # cf_heat solves one pole of each pair and takes the real part
        poles, resid = np.array(POLES), np.array(RESIDUES)
        assert np.array_equal(poles[1::2], np.conj(poles[::2]))
        assert np.all(np.abs(resid[1::2] - np.conj(resid[::2])) <= 1e-14 * np.abs(resid[::2]))


class TestHeat:
    def test_time_zero_identity(self, rng):
        g = random_connected_graph(rng, 20)
        op = assemble_neumann(g, list(g.vertices()))
        e = SemigroupEngine(op)
        f = VertexFunction({x: float(v) for x, v in zip(op.vertices, rng.normal(size=len(op)))})
        out = heat_apply(e, 0.0, f)
        for x in op.vertices:
            assert out(x) == pytest.approx(f(x))

    def test_single_vertex_stays_one(self):
        g = WeightedGraph.from_data({}, {0: 1})
        e = SemigroupEngine(assemble_neumann(g, [0]))
        for t in (0.0, 0.5, 3.0):
            assert heat_apply(e, t, VertexFunction({0: 1}))(0) == pytest.approx(1.0)

    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5])
    def test_two_vertex_closed_form(self, t):
        # eigenvalues 0 and 2: value (1+e^{-2t})/2 at the source, (1-e^{-2t})/2 across
        e = two_vertex_engine()
        out = heat_apply(e, t, VertexFunction.indicator(0))
        assert out(0) == pytest.approx((1 + math.exp(-2 * t)) / 2, abs=1e-13)
        assert out(1) == pytest.approx((1 - math.exp(-2 * t)) / 2, abs=1e-13)

    def test_negative_time_rejected(self):
        e = two_vertex_engine()
        with pytest.raises(InputError, match="negative time"):
            heat_apply(e, -1.0, VertexFunction.indicator(0))

    def test_semigroup_property(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 40, with_killing=True)
            op = assemble_dirichlet(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = rng.normal(size=len(op))
            t, s = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.05, 1.5))
            once = e.heat_vec(t + s, vec)
            twice = e.heat_vec(t, e.heat_vec(s, vec))
            assert np.max(np.abs(once - twice)) <= 1e-9 * max(np.max(np.abs(once)), 1e-30)

    def test_heat_symmetry_in_m(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 40)
            op = assemble_neumann(g, list(g.vertices()))
            e = SemigroupEngine(op)
            u, v = rng.normal(size=(2, len(op)))
            m = op.measure_vector
            a = float((e.heat_vec(0.7, u) * v * m).sum())
            b = float((u * e.heat_vec(0.7, v) * m).sum())
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)

    def test_positivity_improving_on_connected(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 25)
            op = assemble_neumann(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = np.zeros(len(op))
            vec[int(rng.integers(len(op)))] = 1.0
            out = e.heat_vec(0.3, vec)
            assert (out > 0).all()

    def test_mass_conservation_neumann(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 40)
            op = assemble_neumann(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = np.abs(rng.normal(size=len(op)))
            m = op.measure_vector
            before = float((vec * m).sum())
            after = float((e.heat_vec(1.3, vec) * m).sum())
            assert abs(after - before) <= 1e-10 * before

    def test_l2_contraction(self, rng):
        g = random_connected_graph(rng, 30, with_killing=True)
        op = assemble_dirichlet(g, list(g.vertices()))
        e = SemigroupEngine(op)
        m = op.measure_vector
        for _ in range(5):
            vec = rng.normal(size=len(op))
            n0 = float((vec**2 * m).sum())
            n1 = float((e.heat_vec(0.9, vec)**2 * m).sum())
            assert n1 <= n0 * (1 + 1e-12)

    def test_domination_dirichlet_below_neumann(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, 30)
            verts = list(g.vertices())
            sub = verts[: max(2, len(verts) // 2)]
            if not sub:
                continue
            from neumann_lab.graphs import is_connected
            if not is_connected(g, sub):
                continue
            d = SemigroupEngine(assemble_dirichlet(g, sub))
            n = SemigroupEngine(assemble_neumann(g, sub))
            vec = np.abs(rng.normal(size=len(sub)))
            for t in (0.2, 1.0):
                ud = d.heat_vec(t, vec)
                un = n.heat_vec(t, vec)
                assert (ud <= un + 1e-10).all()


class TestStiffEngineAgreesWithSpectral:
    def test_cross_engine_consistency(self, rng):
        # the elimination kernel against dense eigh and the mpmath reference
        for _ in range(5):
            g = random_connected_graph(rng, 25, with_killing=True)
            op = assemble_dirichlet(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = rng.normal(size=len(op))
            for t in (0.1, 1.0, 4.0):
                b = e.heat_vec(t, vec)
                for a in (oracles.dense_heat(op, t, vec), oracles.mp_heat(op, t, vec)):
                    assert np.max(np.abs(a - b)) <= 5e-12 * max(1.0, np.max(np.abs(a)))

    def test_stiff_two_vertex_closed_form(self):
        g = path_graph(2)
        e = SemigroupEngine(assemble_neumann(g, [0, 1]))
        out = e.heat_vec(1.0, np.array([1.0, 0.0]))
        assert out[0] == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-12)
        assert out[1] == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-12)

    def test_huge_range_chain_mass_conservation(self):
        # Neumann chain with rates 4^r spans ~36 orders of magnitude at r=60
        edges = {(r, r + 1): Fraction(4) ** r for r in range(59)}
        g = WeightedGraph.from_data(edges, {r: 1 for r in range(60)})
        op = assemble_neumann(g, list(range(60)))
        e = SemigroupEngine(op)
        vec = np.zeros(60)
        vec[0] = 1.0
        out = e.heat_vec(1.0, vec)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()


class TestPresetsAgainstMpmath:
    CASES = [("comb", 8, "neumann"), ("comb", 12, "neumann"), ("comb", 20, "neumann"),
             ("comb", 12, "dirichlet")] + [
        (name, n, kind) for name in ("bd:explosive", "bd:geo")
        for n in (200, 480) for kind in ("neumann", "dirichlet")]

    @pytest.mark.parametrize("name,size,kind", CASES,
                             ids=[f"{a}-{b}-{c}" for a, b, c in CASES])
    def test_heat_matches_mpmath(self, name, size, kind):
        # the float64 kernel on the stiffest presets, started from a point mass
        model = models.PRESETS[name]()
        subset = models.comb_rectangle(size) if name == "comb" else list(range(size))
        op = (assemble_neumann if kind == "neumann" else assemble_dirichlet)(model.graph, subset)
        e = SemigroupEngine(op)
        vec = np.zeros(len(op))
        vec[0] = 1.0
        u, ref = e.heat_vec(1.0, vec), oracles.mp_heat(op, 1.0, vec)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
        if kind == "neumann":
            m = op.measure_vector
            assert abs(float((u * m).sum()) - m[0]) <= 1e-12 * m[0]


class TestOverflowCap:
    @pytest.mark.parametrize("weight", [2 ** 1100, Fraction(2 ** 1100, 3)],
                             ids=["int", "fraction"])
    def test_engine_refuses_weights_beyond_cap(self, weight):
        g = WeightedGraph.from_data({(0, 1): weight}, {0: 1, 1: 1})
        for assemble in (assemble_neumann, assemble_dirichlet):
            with pytest.raises(OverflowCapError, match="float cap"):
                SemigroupEngine(assemble(g, [0, 1]))


class TestResolvent:
    def test_zero_operator(self):
        g = WeightedGraph.from_data({}, {0: 1})
        e = SemigroupEngine(assemble_neumann(g, [0]))
        res = resolvent_apply(e, 2.0, VertexFunction({0: 1}))
        assert res.solution(0) == pytest.approx(0.5)

    def test_two_vertex_dirichlet_solve(self):
        # [[2,-1],[-1,2]] u = (1,0)  =>  u = (2/3, 1/3)
        g = path_graph(2)
        e = SemigroupEngine(assemble_neumann(g, [0, 1]))
        res = resolvent_apply(e, 1.0, VertexFunction.indicator(0))
        assert res.solution(0) == pytest.approx(2 / 3, abs=1e-14)
        assert res.solution(1) == pytest.approx(1 / 3, abs=1e-14)

    def test_residual_certificate(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, 40, with_killing=True)
            op = assemble_dirichlet(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = rng.normal(size=len(op))
            f = VertexFunction(dict(zip(op.vertices, map(float, vec))))
            alpha = float(rng.uniform(0.1, 5.0))
            res = resolvent_apply(e, alpha, f)
            fnorm = math.sqrt(float((vec**2 * op.measure_vector).sum()))
            assert res.residual_norm <= 1e-10 * fnorm

    def test_residual_is_exact_on_float_data(self):
        # b/m rounded to a float would certify a nearby matrix instead
        g = WeightedGraph.from_data({(0, 1): 0.1, (1, 2): 0.7, (0, 2): 0.3},
                                    {0: 0.3, 1: 0.7, 2: 1.1}, {1: 0.2})
        op = assemble_neumann(g, [0, 1, 2])
        e = SemigroupEngine(op)
        f = np.array([1.0, 0.0, 0.0])
        u = e.resolvent_vec(1.0, f)
        total = Fraction(0)
        for i, (row, k, m) in enumerate(zip(op.weights, op.killing_mass, op.measures)):
            ui = Fraction(u[i])
            s = sum(Fraction(b) * (ui - Fraction(u[j])) for j, b in row.items())
            s += (Fraction(k) + Fraction(m)) * ui - Fraction(m) * Fraction(f[i])
            total += s * s / Fraction(m)
        assert e.resolvent_residual(1.0, u, f) == pytest.approx(float(total) ** 0.5,
                                                                 rel=1e-12, abs=0)

    def test_contraction_bound(self, rng):
        g = random_connected_graph(rng, 30)
        op = assemble_neumann(g, list(g.vertices()))
        e = SemigroupEngine(op)
        m = op.measure_vector
        for alpha in (0.5, 1.0, 3.0):
            vec = rng.normal(size=len(op))
            u = e.resolvent_vec(alpha, vec)
            assert math.sqrt(float((u**2 * m).sum())) <= math.sqrt(float((vec**2 * m).sum())) / alpha * (1 + 1e-12)

    def test_positivity(self, rng):
        g = random_connected_graph(rng, 30)
        op = assemble_dirichlet(g, list(g.vertices()))
        e = SemigroupEngine(op)
        u = e.resolvent_vec(1.0, np.abs(rng.normal(size=len(op))))
        assert (u >= 0).all()

    def test_alpha_must_be_positive(self):
        e = two_vertex_engine()
        with pytest.raises(InputError, match="positive"):
            e.resolvent_vec(0.0, np.array([1.0, 0.0]))

    def test_componentwise_accuracy_extreme_range(self):
        # closed form for a 2-vertex Dirichlet chain with one huge rate:
        # [[b+1, -b], [-b, b+c+1]] u = (1,0), c = boundary mass
        b = 2.0 ** 400
        g = WeightedGraph.from_data({(0, 1): Fraction(2) ** 400, (1, 2): Fraction(2) ** 410},
                                    {0: 1, 1: 1, 2: 1})
        op = assemble_dirichlet(g, [0, 1])
        e = SemigroupEngine(op)
        u = e.resolvent_vec(1.0, np.array([1.0, 0.0]))
        c = 2.0 ** 410
        det = (b + 1) * (b + c + 1) - b * b
        exact = np.array([(b + c + 1) / det, b / det])
        assert np.max(np.abs(u - exact) / exact) <= 1e-12


class TestHeatOracle:
    def test_time_zero(self):
        g = path_graph(3)
        op = assemble_neumann(g, [0, 1, 2])
        f = VertexFunction.indicator(1)
        out = heat_oracle(op, 0.0, f, steps=10)
        assert out(1) == 1.0

    def test_two_vertex_closed_form(self):
        g = path_graph(2)
        op = assemble_neumann(g, [0, 1])
        out = heat_oracle(op, 1.0, VertexFunction.indicator(0), steps=10_000)
        assert out(0) == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-10)
        assert out(1) == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-10)

    def test_cross_validates_heat_apply(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, 20, with_killing=True)
            op = assemble_dirichlet(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = rng.normal(size=len(op))
            f = VertexFunction(dict(zip(op.vertices, map(float, vec))))
            direct = heat_apply(e, 1.0, f)
            integ = heat_oracle(op, 1.0, f, steps=5000)
            worst = max(abs(direct(x) - integ(x)) for x in op.vertices)
            assert worst <= 1e-7

    def test_stability_guard(self):
        g = path_graph(2)
        op = assemble_neumann(g, [0, 1])
        with pytest.raises(InputError, match="step size"):
            heat_oracle(op, 100.0, VertexFunction.indicator(0), steps=10)


class TestVariational:
    def test_zero_data(self):
        g = path_graph(2)
        op = assemble_neumann(g, [0, 1])
        zero = VertexFunction({})
        assert variational_value(op, 1.0, zero, zero) == 0.0

    def test_value_at_resolvent_matches_pairing_identity(self, rng):
        # psi(R_alpha f) = ||f||^2/alpha - <R_alpha f, f>_m
        for _ in range(8):
            g = random_connected_graph(rng, 30, with_killing=True)
            op = assemble_neumann(g, list(g.vertices()))
            e = SemigroupEngine(op)
            vec = rng.normal(size=len(op))
            f = VertexFunction(dict(zip(op.vertices, map(float, vec))))
            alpha = float(rng.uniform(0.2, 3.0))
            u = e.resolvent_vec(alpha, vec)
            m = op.measure_vector
            value = variational_value(op, alpha, f,
                                      VertexFunction(dict(zip(op.vertices, map(float, u)))))
            expected = float((vec**2 * m).sum()) / alpha - float((u * vec * m).sum())
            assert abs(value - expected) <= 1e-9 * max(abs(expected), 1.0)

    def test_minimizer_is_strict(self, rng):
        g = random_connected_graph(rng, 20)
        op = assemble_neumann(g, list(g.vertices()))
        e = SemigroupEngine(op)
        vec = rng.normal(size=len(op))
        f = VertexFunction(dict(zip(op.vertices, map(float, vec))))
        alpha = 1.0
        u = e.resolvent_vec(alpha, vec)
        base = variational_value(op, alpha, f,
                                 VertexFunction(dict(zip(op.vertices, map(float, u)))))
        for _ in range(20):
            pert = u + rng.normal(size=len(op)) * 0.1
            val = variational_value(op, alpha, f,
                                    VertexFunction(dict(zip(op.vertices, map(float, pert)))))
            assert val > base


class TestSpectralInvariants:
    def test_reconstruction(self, rng):
        g = random_connected_graph(rng, 30, with_killing=True)
        op = assemble_dirichlet(g, list(g.vertices()))
        lam, U = oracles.spectral(op)
        S = oracles.symmetrized(op)
        recon = (U * lam) @ U.T
        assert np.linalg.norm(recon - S) <= 1e-9 * max(np.linalg.norm(S), 1e-300)

    def test_eigenvalues_nonnegative(self, rng):
        g = random_connected_graph(rng, 30)
        op = assemble_neumann(g, list(g.vertices()))
        lam, _ = oracles.spectral(op)
        assert lam.min() >= -1e-10 * max(lam.max(), 1e-300)

    def test_stiff_mode_has_no_spectral_data(self):
        edges = {(r, r + 1): Fraction(4) ** r for r in range(40)}
        g = WeightedGraph.from_data(edges, {r: 1 for r in range(41)})
        e = SemigroupEngine(assemble_neumann(g, list(range(41))))
        assert oracles.spectral(e.operator) is None


class TestClampTelemetry:
    def test_counts_are_recorded(self):
        # at t = 0.01 the far comb vertices carry rounding-level negatives
        # (about -2e-36) that the clamp must remove and count
        comb = models.PRESETS["comb"]()
        phi = VertexFunction.indicator(models.comb_vertex_id(0, 0))
        for assemble in (assemble_neumann, assemble_dirichlet):
            op = assemble(comb.graph, models.comb_rectangle(8))
            e = SemigroupEngine(op)
            out = e.heat_vec(0.01, op.local_vector(phi))
            assert e.telemetry.clamped_entries > 0
            assert (out >= 0).all()
