import math
from fractions import Fraction

import numpy as np
import pytest

from neumann_lab import models
from neumann_lab.errors import InputError, OverflowCapError
from neumann_lab.graphs import Exhaustion, VertexFunction, WeightedGraph
from neumann_lab.operators import (
    FLOAT_EXP_CAP,
    OperatorKind,
    _float_guard,
    assemble_dirichlet,
    assemble_neumann,
    dump_matrix,
    restrict,
)

import oracles
from conftest import path_graph, random_connected_graph, random_graph_data
from oracles import evaluate_form, laplacian_identity_check


def nested_subsets(rng, g):
    """Random hop-ball style nested subsets of a finite graph."""
    verts = list(g.vertices())
    start = verts[int(rng.integers(len(verts)))]
    order = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(g.neighbors(x)):
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    cuts = sorted({int(c) for c in rng.integers(1, len(order) + 1, size=3)} | {len(order)})
    return [order[:c] for c in cuts]


class TestDirichletAssembly:
    def test_path_prefix_matrix(self):
        g = path_graph(3)
        op = assemble_dirichlet(g, [0, 1])
        assert np.allclose(op.matrix, [[1.0, -1.0], [-1.0, 2.0]])

    def test_full_set_equals_plain_laplacian(self):
        g = path_graph(3)
        full = assemble_dirichlet(g, [0, 1, 2])
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.allclose(full.matrix, expected)
        assert np.allclose(full.matrix, assemble_neumann(g, [0, 1, 2]).matrix)

    def test_single_interior_vertex(self):
        g = path_graph(3)
        op = assemble_dirichlet(g, [1])
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == 2.0

    def test_rejects_disconnected(self):
        g = path_graph(3)
        with pytest.raises(InputError, match="disconnected"):
            assemble_dirichlet(g, [0, 2])

    @pytest.mark.parametrize("bad", [0, -1, Fraction(-1, 2), float("nan")])
    def test_rejects_nonpositive_lazy_measure(self, bad):
        # lazy graphs skip from_data's measure check
        read = []

        def measure(x):
            read.append(x)
            return bad if x == 1 else 1

        g = WeightedGraph.lazy(
            neighbor_fn=lambda x: ({1: 1} if x == 0 else {x - 1: 1, x + 1: 1}),
            measure_fn=measure)
        for assemble in (assemble_dirichlet, assemble_neumann):
            assemble(g, [0])
            with pytest.raises(InputError, match="nonpositive measure"):
                assemble(g, [0, 1])
        # on an exhaustion, the sets before vertex 1 never read its measure,
        # and the first set that holds it raises
        for kind in OperatorKind:
            ex = Exhaustion.build(g, [[0], [0, 1], [0, 1, 2]])
            read.clear()
            restrict(ex, 0, kind)
            assert 1 not in read
            with pytest.raises(InputError, match="nonpositive measure"):
                restrict(ex, 1, kind)


class TestNeumannAssembly:
    def test_path_prefix_matrix(self):
        g = path_graph(3)
        op = assemble_neumann(g, [0, 1])
        assert np.allclose(op.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_vertex_no_killing(self):
        g = path_graph(3)
        op = assemble_neumann(g, [1])
        assert op.matrix[0, 0] == 0.0

    def test_diagonal_domination(self, rng):
        # Dirichlet diagonal exceeds Neumann exactly by the outgoing mass
        for _ in range(10):
            g = random_connected_graph(rng, 30)
            subs = nested_subsets(rng, g)
            sub = subs[0]
            d = assemble_dirichlet(g, sub)
            n = assemble_neumann(g, sub)
            gap = np.diag(d.matrix) - np.diag(n.matrix)
            assert (gap >= -1e-14).all()
            inside = set(sub)
            for i, x in enumerate(d.vertices):
                out = sum(float(b) for y, b in g.neighbors(x).items() if y not in inside)
                assert gap[i] == pytest.approx(out / float(g.measure(x)), abs=1e-12)
                if out == 0:
                    assert gap[i] == 0.0


class TestMatrixInvariants:
    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_measure_symmetry(self, rng, kind):
        for _ in range(10):
            g = random_connected_graph(rng, 40, with_killing=True)
            sub = nested_subsets(rng, g)[0]
            op = (assemble_dirichlet if kind == "dirichlet" else assemble_neumann)(g, sub)
            MA = op.measure_vector[:, None] * op.matrix
            defect = np.max(np.abs(MA - MA.T))
            assert defect <= 1e-12 * max(np.max(np.abs(MA)), 1e-300)

    def test_positive_semidefinite_and_constants(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 30)
            sub = nested_subsets(rng, g)[0]
            for op in (assemble_dirichlet(g, sub), assemble_neumann(g, sub)):
                lam = np.linalg.eigvalsh(oracles.symmetrized(op))
                assert lam.min() >= -1e-10 * max(lam.max(), 1e-300)
            # Neumann with c = 0 annihilates constants
            n_op = assemble_neumann(g, sub)
            ones = np.ones(len(n_op))
            assert np.max(np.abs(n_op.matrix @ ones)) <= 1e-12 * oracles.scale(n_op)

    def test_neumann_form_monotone_in_k(self, rng):
        # energy of a fixed function can only grow as the subset grows
        for _ in range(10):
            g = random_connected_graph(rng, 40)
            subs = nested_subsets(rng, g)
            f_vals = {x: float(v) for x, v in
                      zip(subs[0], rng.normal(size=len(subs[0])))}
            f = VertexFunction(f_vals)
            energies = [evaluate_form(assemble_neumann(g, s), f) for s in subs]
            for a, b in zip(energies, energies[1:]):
                assert b >= a - 1e-12 * max(abs(a), 1.0)


class TestQuadraticForm:
    def test_constant_neumann_zero(self):
        g = path_graph(3)
        op = assemble_neumann(g, [0, 1])
        assert evaluate_form(op, VertexFunction({0: 1, 1: 1})) == 0

    def test_indicator_neumann(self):
        g = path_graph(2)
        op = assemble_neumann(g, [0, 1])
        assert evaluate_form(op, VertexFunction.indicator(0)) == 1.0

    def test_indicator_dirichlet_inside_longer_path(self):
        g = path_graph(3)
        op = assemble_dirichlet(g, [0, 1])
        assert evaluate_form(op, VertexFunction.indicator(0)) == 1.0

    def test_matches_operator_pairing(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 30, with_killing=True)
            sub = nested_subsets(rng, g)[0]
            for assemble in (assemble_dirichlet, assemble_neumann):
                op = assemble(g, sub)
                vec = rng.normal(size=len(op))
                f = VertexFunction(dict(zip(op.vertices, map(float, vec))))
                q = evaluate_form(op, f)
                pairing = float(vec @ (op.measure_vector * (op.matrix @ vec)))
                assert abs(q - pairing) <= 1e-10 * max(abs(q), abs(pairing), 1e-30)

    def test_rejects_outside_support(self):
        g = path_graph(3)
        op = assemble_neumann(g, [0, 1])
        with pytest.raises(InputError, match="outside"):
            evaluate_form(op, VertexFunction.indicator(2))


class TestLaplacianIdentity:
    def test_full_graph(self, rng):
        g = random_connected_graph(rng, 20, with_killing=True)
        vec = rng.normal(size=len(g))
        f = VertexFunction(dict(zip(g.vertices(), map(float, vec))))
        op = assemble_neumann(g, list(g.vertices()))
        assert laplacian_identity_check(g, list(g.vertices()), f) <= 1e-12 * oracles.scale(op)

    def test_path_prefix(self):
        g = path_graph(3)
        assert laplacian_identity_check(g, [0, 1], VertexFunction.indicator(1)) <= 1e-12

    def test_random_subsets(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 30, with_killing=True)
            sub = nested_subsets(rng, g)[0]
            vec = rng.normal(size=len(sub))
            f = VertexFunction(dict(zip(sub, map(float, vec))))
            op = assemble_neumann(g, sub)
            scale = max(oracles.scale(op) * float(np.max(np.abs(vec))), 1.0)
            assert laplacian_identity_check(g, sub, f) <= 1e-12 * scale


class TestDump:
    def test_triples(self):
        g = path_graph(2)
        out = dump_matrix(assemble_neumann(g, [0, 1]))
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 4
        assert rows[0].split() == ["0", "0", "1.0"]

    def test_rows_give_the_dense_scan(self):
        # the triples come from the float rows, in the dense scan's order
        # and with its float reprs, also for entries that underflow to 0
        ops = [assemble(models.make_comb(), models.comb_rectangle(j))
               for j in (1, 6) for assemble in (assemble_dirichlet, assemble_neumann)]
        explosive = models.PRESETS["bd:explosive"]().graph
        ops += [assemble(explosive, range(200)) for assemble in (assemble_dirichlet,
                                                                 assemble_neumann)]
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_connected_graph(rng, 40, with_killing=True)
            ops.append(assemble_dirichlet(g, list(g.vertices())))
        for op in ops:
            assert dump_matrix(op) == oracles.dense_triples(op)

    def test_sets_beyond_the_dense_cap_dump(self):
        op = assemble_neumann(path_graph(5000), range(5000))
        rows = dump_matrix(op).splitlines()
        assert rows[0] == "# kind=neumann n=5000"
        assert len(rows) == 1 + 3 * 5000 - 2


def reference_ratio(num, den):
    """num/den as the float rows define it: the float nearest the exact
    ratio of int/Fraction operands, float division when one is a float."""
    if isinstance(num, float) or isinstance(den, float):
        return float(num) / float(den)
    return float(Fraction(num) / Fraction(den))


def is_exact(*values):
    return not any(isinstance(v, float) for v in values)


def check_float_rows(op):
    """Compare the float rows built at assembly with values recomputed
    here from the operator's exact data and from the graph."""
    g = op.graph
    inside = set(op.vertices)
    for i, x in enumerate(op.vertices):
        row, kill, m = op.weights[i], op.killing_mass[i], op.measures[i]
        assert list(op.offdiag[i]) == list(row)    # same entries, same order
        for j, b in row.items():
            assert op.offdiag[i][j] == reference_ratio(b, m)
        assert op.excess[i] == reference_ratio(kill, m)
        assert op.diagonal[i] == reference_ratio(sum(row.values()) + kill, m)
        nbrs = g.neighbors(x)
        assert row == {op.index[y]: b for y, b in nbrs.items() if y in inside}
        expected_kill = g.killing(x)
        if op.kind is OperatorKind.DIRICHLET:
            expected_kill = expected_kill + (g.row_sum(x) - sum(row.values()))
        if is_exact(kill, expected_kill, *nbrs.values()):
            assert kill == expected_kill
            if op.kind is OperatorKind.DIRICHLET:
                # the Dirichlet degree is the full degree of the graph
                assert op.diagonal[i] == reference_ratio(g.row_sum(x) + g.killing(x), m)
        else:
            assert float(kill) == pytest.approx(float(expected_kill), rel=1e-15, abs=0)
    assert oracles.scale(op) == max(op.diagonal)


def bits(op):
    """Every field of the operator but its graph, floats by their exact bits
    and exact values with their types."""
    return (op.kind, op.vertices, repr(op.weights), repr(op.killing_mass),
            repr(op.measures), repr(op.offdiag), op.excess.tobytes(),
            op.diagonal.tobytes())


ASSEMBLE = {OperatorKind.DIRICHLET: assemble_dirichlet,
            OperatorKind.NEUMANN: assemble_neumann}


def assemble_in_turn(g, subsets):
    """Read both kinds of every set off one exhaustion of the nested
    subsets, with k increasing and, on a fresh exhaustion, decreasing, so
    later sets reuse the rows stored by earlier ones.  Each restriction
    equals the one-set assembly of its set bit for bit."""
    for order in (range(len(subsets)), range(len(subsets) - 1, -1, -1)):
        ex = Exhaustion.build(g, subsets)
        for k in order:
            for kind, assemble in ASSEMBLE.items():
                op = restrict(ex, k, kind)
                check_float_rows(op)
                assert op.graph is g
                assert bits(op) == bits(assemble(g, ex.sets[k]))


def slices_in_turn(g, subsets, m):
    """Read both kinds of every set of the slices ``full[:m]`` (iterates)
    and ``full[m-1:]`` (reference) of one exhaustion, in both orders of the
    slices.  Each restriction equals, bit for bit, the one read off a freshly
    built exhaustion of the slice's sets."""
    for reference_first in (False, True):
        full = Exhaustion.build(g, subsets)
        parts = [full[:m], full[m - 1:]]
        for part in reversed(parts) if reference_first else parts:
            assert part._store is full._store
            fresh = Exhaustion.build(g, part.sets)
            for k in range(len(part)):
                for kind in OperatorKind:
                    assert bits(restrict(part, k, kind)) == bits(restrict(fresh, k, kind))


class TestSlices:
    def test_comb_rectangles(self):
        g = models.make_comb()
        slices_in_turn(g, [models.comb_rectangle(j) for j in range(2, 14)], 5)

    def test_explosive_chain_to_480(self):
        g = models.PRESETS["bd:explosive"]().graph
        sizes = list(range(10, 201, 10)) + list(range(220, 481, 20))
        slices_in_turn(g, [list(range(s)) for s in sizes], 20)

    def test_random_graphs(self):
        rng = np.random.default_rng(20261019)
        for _ in range(10):
            g = random_connected_graph(rng, 40, with_killing=True)
            subsets = nested_subsets(rng, g)
            for m in range(1, len(subsets) + 1):
                slices_in_turn(g, subsets, m)

    @pytest.mark.parametrize("part", [slice(2, None), slice(1, 1), slice(5, 9)])
    def test_empty_slice_rejected(self, part):
        ex = Exhaustion.build(path_graph(4), [[0], [0, 1]])
        with pytest.raises(InputError, match="empty"):
            ex[part]


class TestFloatRows:
    def test_comb_rectangles(self):
        g = models.make_comb()
        assemble_in_turn(g, [models.comb_rectangle(j) for j in (1, 2, 5, 8, 9, 12)])

    @pytest.mark.parametrize("preset,top", [("bd:explosive", 480), ("bd:tail", 200),
                                            ("bd:geo", 300)])
    def test_chain_prefixes(self, preset, top):
        g = models.PRESETS[preset]().graph
        sizes = [1, 2, 3, 10, top // 2, top - 1, top]
        assemble_in_turn(g, [list(range(s)) for s in sizes])

    def test_random_float_graphs(self):
        rng = np.random.default_rng(20261018)
        for _ in range(20):
            g = random_connected_graph(rng, 40, with_killing=True)
            assemble_in_turn(g, nested_subsets(rng, g))

    def test_lazy_rows_with_killing(self):
        def neighbors(x):
            row = {x + 1: Fraction(1, x + 1)}
            if x > 0:
                row[x - 1] = Fraction(1, x)
            return row

        g = WeightedGraph.lazy(
            neighbor_fn=neighbors, measure_fn=lambda x: Fraction(x + 1, 3),
            killing_fn=lambda x: Fraction(1, x + 2))
        assemble_in_turn(g, [list(range(s)) for s in (1, 4, 8, 12)])
        d_op, n_op = assemble_dirichlet(g, range(8)), assemble_neumann(g, range(8))
        # only vertex 7 has an edge leaving {0, ..., 7}
        assert list(d_op.diagonal[:-1]) == list(n_op.diagonal[:-1])
        assert d_op.diagonal[-1] > n_op.diagonal[-1]

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_finite_and_lazy_graph_agree(self, exact):
        # the same data as a finite graph and as a lazy graph whose callbacks
        # list each vertex's neighbours in from_data's order
        rng = np.random.default_rng(7)
        for _ in range(10):
            edges, measure, killing = random_graph_data(rng, 30, with_killing=True)
            if exact:
                edges, measure, killing = ({k: Fraction(v).limit_denominator(50)
                                            for k, v in data.items()}
                                           for data in (edges, measure, killing))
            fin = WeightedGraph.from_data(edges, measure, killing)
            verts = list(fin.vertices())
            adj = {x: {} for x in verts}
            for (x, y), b in edges.items():
                adj[x][y] = b
                adj[y][x] = b
            lazy = WeightedGraph.lazy(neighbor_fn=adj.__getitem__,
                                      measure_fn=measure.__getitem__,
                                      killing_fn=lambda x: killing.get(x, 0))
            for x in verts:
                assert lazy.neighbors(x) == fin.neighbors(x)
                assert lazy.measure(x) == fin.measure(x)
                assert lazy.killing(x) == fin.killing(x)
                assert lazy.row_sum(x) == fin.row_sum(x)
                for y in verts:
                    assert lazy.edge_weight(x, y) == fin.edge_weight(x, y)
            subsets = nested_subsets(rng, fin)
            for subset in subsets:
                for assemble in (assemble_dirichlet, assemble_neumann):
                    assert bits(assemble(fin, subset)) == bits(assemble(lazy, subset))
            assemble_in_turn(fin, subsets)
            assemble_in_turn(lazy, subsets)

    def test_edge_leaving_the_subset_beyond_cap(self):
        # b(x, x+1) = 2^(1100 x): only the Dirichlet restriction to {0, 1}
        # carries the edge 1-2, which is beyond the float cap
        def neighbors(x):
            row = {x + 1: 2 ** (1100 * x)}
            if x > 0:
                row[x - 1] = 2 ** (1100 * (x - 1))
            return row

        g = WeightedGraph.lazy(neighbor_fn=neighbors, measure_fn=lambda x: 1)
        check_float_rows(assemble_neumann(g, [0, 1]))
        with pytest.raises(OverflowCapError, match="float cap"):
            assemble_dirichlet(g, [0, 1])
        # read off an exhaustion, the error comes at the same set, with the
        # same text, though row 1's edge to 2 lies inside the largest set
        ex = Exhaustion.build(g, [[0], [0, 1], [0, 1, 2]])
        check_float_rows(restrict(ex, 1, OperatorKind.NEUMANN))
        with pytest.raises(OverflowCapError) as err:
            restrict(ex, 1, OperatorKind.DIRICHLET)
        assert str(err.value) == ("degree at vertex 1 ~ 2^1100 exceeds the float cap "
                                  "2^1000; use a smaller truncation")


def exact_guard(value: Fraction, what: str):
    """The guard's exact comparison, taken for every Fraction."""
    if abs(value) >= Fraction(2) ** FLOAT_EXP_CAP:
        num = abs(value)
        bits = num.numerator.bit_length() - num.denominator.bit_length()
        raise OverflowCapError(f"{what} ~ 2^{bits} exceeds the float cap "
                               f"2^{FLOAT_EXP_CAP}; use a smaller truncation")
    return float(value)


def test_float_guard_fast_path_matches_the_exact_comparison():
    # Ratios between 2^995 and 2^1005, around the cap 2^1000, given as one
    # Fraction and as int and Fraction pairs sharing a large common factor:
    # the guard skips the exact comparison only where it cannot change the
    # outcome, and its error names the size of the reduced ratio
    rng = np.random.default_rng(20261019)
    outcomes = set()
    for _ in range(3000):
        den = int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 200))
        num = int(rng.integers(2 ** 61, 2 ** 62)) << (int(rng.integers(995, 1005))
                                                      + den.bit_length() - 62)
        value = Fraction(int(rng.choice([-1, 1])) * (num + int(rng.integers(0, 2 ** 20))), den)
        common = int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 300)) | 1
        scale = Fraction(int(rng.integers(1, 2 ** 62)), int(rng.integers(1, 2 ** 62)))
        pairs = [(value, 1), (value.numerator * common, value.denominator * common),
                 (value.numerator * common * scale, value.denominator * common * scale)]
        try:
            expected = exact_guard(value, "value")
        except OverflowCapError as err:
            for num, den in pairs:
                with pytest.raises(OverflowCapError) as got:
                    _float_guard(num, "value", den)
                assert str(got.value) == str(err)
            outcomes.add("error")
        else:
            assert all(_float_guard(num, "value", den) == expected for num, den in pairs)
            outcomes.add("float")
    assert outcomes == {"error", "float"}

    # int, Fraction and float operands below 2^600, away from the cap: the
    # guard equals the float nearest the exact ratio.  A float divides as
    # floats, so it is paired with floats and with ints that floats hold.
    def exact():
        big = int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 400))
        if rng.random() < 0.5:
            return big
        return Fraction(big, int(rng.integers(1, 2 ** 62)) << int(rng.integers(0, 400)))

    def floating():
        return math.ldexp(float(rng.uniform(0.5, 1.0)), int(rng.integers(-300, 300)))

    for _ in range(3000):
        if rng.random() < 0.5:
            num, den = exact(), exact()
        else:
            num, den = floating(), floating()
            small = int(rng.integers(1, 2 ** 53))
            num, den = [(num, den), (num, small), (small, den)][int(rng.integers(3))]
        num = num * int(rng.choice([-1, 1]))
        assert _float_guard(num, "value", den) == float(Fraction(num) / Fraction(den))
