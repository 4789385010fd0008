import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_lab.errors import InputError
from neumann_lab.graphs import (
    Exhaustion,
    VertexFunction,
    WeightedGraph,
    formal_laplacian,
    is_connected,
    parse_graph_file,
    vertex_boundary,
    weighted_degree,
    write_graph_file,
)

from conftest import path_graph, random_connected_graph


class TestFormalLaplacian:
    def test_single_vertex_constant(self):
        g = WeightedGraph.from_data({}, {0: 1})
        assert formal_laplacian(g, VertexFunction({0: 1}), 0) == 0

    def test_path_indicator_middle(self):
        # hand evaluation: (1/1)[1*(1-0) + 1*(1-0)] = 2 at the bump
        g = path_graph(3)
        f = VertexFunction.indicator(1)
        assert formal_laplacian(g, f, 1) == 2

    def test_constants_harmonic_without_killing(self):
        g = path_graph(3)
        one = VertexFunction({0: 1, 1: 1, 2: 1})
        for x in range(3):
            assert formal_laplacian(g, one, x) == 0

    def test_constant_gives_killing_over_measure(self, rng):
        g = random_connected_graph(rng, 30, with_killing=True)
        one = VertexFunction({x: 1 for x in g.vertices()})
        for x in g.vertices():
            expected = g.killing(x) / g.measure(x)
            assert math.isclose(float(formal_laplacian(g, one, x)), float(expected),
                                rel_tol=1e-12, abs_tol=1e-15)


class TestWeightedDegree:
    def test_isolated(self):
        g = WeightedGraph.from_data({}, {0: 1})
        assert weighted_degree(g, 0) == 0

    def test_path_middle(self):
        assert weighted_degree(path_graph(3), 1) == 2

    def test_killing_and_measure(self):
        g = WeightedGraph.from_data({(0, 1): 1}, {0: 2, 1: 1}, {0: 3})
        assert weighted_degree(g, 0) == 2  # (1 + 3) / 2


class TestVertexBoundary:
    def test_whole_set_empty_boundary(self):
        g = path_graph(4)
        assert vertex_boundary(g, [0, 1, 2, 3]) == set()

    def test_path_prefix(self):
        g = path_graph(4)
        assert vertex_boundary(g, [0, 1]) == {1}

    def test_star_center(self):
        g = WeightedGraph.from_data({(0, 1): 1, (0, 2): 1, (0, 3): 1},
                                    {v: 1 for v in range(4)})
        assert vertex_boundary(g, [0]) == {0}

    def test_subset_of_input(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 20)
            sub = [v for v in g.vertices() if rng.random() < 0.5]
            assert vertex_boundary(g, sub) <= set(sub)


class TestIsConnected:
    def test_singleton(self):
        assert is_connected(path_graph(3), [1])

    def test_gap(self):
        assert not is_connected(path_graph(3), [0, 2])

    def test_whole_path(self):
        assert is_connected(path_graph(3), [0, 1, 2])


class TestGreensFormula:
    def test_on_random_graphs(self, rng):
        # sum Delta f * g * m  ==  (1/2) sum b (f(x)-f(y))(g(x)-g(y)) + sum c f g
        for _ in range(20):
            g = random_connected_graph(rng, 40, with_killing=True)
            n = len(g)
            fv = {x: float(v) for x, v in zip(g.vertices(), rng.normal(size=n))}
            gv = {x: float(v) for x, v in zip(g.vertices(), rng.normal(size=n))}
            f, h = VertexFunction(fv), VertexFunction(gv)
            lhs = sum(float(formal_laplacian(g, f, x)) * gv[x] * float(g.measure(x))
                      for x in g.vertices())
            energy = 0.0
            for x in g.vertices():
                for y, b in g.neighbors(x).items():
                    energy += 0.5 * float(b) * (fv[x] - fv[y]) * (gv[x] - gv[y])
                energy += float(g.killing(x)) * fv[x] * gv[x]
            scale = max(abs(lhs), abs(energy), 1e-30)
            assert abs(lhs - energy) <= 1e-10 * scale


class TestSymmetryInvariant:
    def test_mirrored_reads(self, rng):
        g = random_connected_graph(rng, 30)
        for x in g.vertices():
            for y in g.neighbors(x):
                assert g.edge_weight(x, y) == g.edge_weight(y, x)


class TestConstruction:
    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            WeightedGraph.from_data({(0, 1): 1, (1, 0): 2}, {0: 1, 1: 1})

    def test_rejects_loop(self):
        with pytest.raises(InputError, match="loop"):
            WeightedGraph.from_data({(0, 0): 1}, {0: 1})

    def test_rejects_nonpositive_measure(self):
        with pytest.raises(InputError, match="measure"):
            WeightedGraph.from_data({}, {0: 0})
        with pytest.raises(InputError,
                           match=r"measure m\(0\) must be positive and finite, got nan"):
            WeightedGraph.from_data({}, {0: float("nan")})

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError, match="negative"):
            WeightedGraph.from_data({(0, 1): -1}, {0: 1, 1: 1})

    def test_exact_fraction_weights_survive(self):
        g = WeightedGraph.from_data({(0, 1): Fraction(1, 3)}, {0: Fraction(2), 1: 1})
        assert g.edge_weight(0, 1) == Fraction(1, 3)
        assert g.measure(0) == Fraction(2)


class TestExhaustion:
    def test_nesting_enforced(self):
        g = path_graph(4)
        with pytest.raises(InputError, match="contain"):
            Exhaustion.build(g, [[0, 1], [1, 2]])

    def test_connectivity_enforced(self):
        g = path_graph(4)
        with pytest.raises(InputError, match="disconnected"):
            Exhaustion.build(g, [[0], [0, 2]])

    @pytest.mark.parametrize("sets,k", [([[]], 0), ([[], [0, 1]], 0), ([[0], [0], []], 2)])
    def test_empty_set_rejected(self, sets, k):
        g = path_graph(4)
        with pytest.raises(InputError, match=f"exhaustion set {k} is empty"):
            Exhaustion.build(g, sets)

    def test_insertion_order_stable(self):
        g = path_graph(5)
        ex = Exhaustion.build(g, [[2], [2, 1, 3], [0, 1, 2, 3, 4]])
        assert ex[0] == (2,)
        assert ex[1] == (2, 1, 3)
        assert ex[2][:3] == (2, 1, 3)
        assert set(ex[2]) == {0, 1, 2, 3, 4}


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_build_rejects_at_the_first_disconnected_set(seed):
    """Exhaustion.build rejects exactly at the first set that is_connected
    rejects, and otherwise keeps each set's new vertices in input order."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=16)
    order = rng.permutation(len(g)).tolist()
    cuts = sorted(set(rng.integers(1, len(g) + 1, size=int(rng.integers(1, 6))).tolist()))
    sets = [rng.permutation(order[:c]).tolist() for c in cuts]
    first = next((k for k, s in enumerate(sets) if not is_connected(g, s)), None)
    if first is not None:
        with pytest.raises(InputError,
                           match=f"^exhaustion set {first} induces a disconnected subgraph$"):
            Exhaustion.build(g, sets)
        return
    ex = Exhaustion.build(g, sets)
    for k, s in enumerate(sets):
        old = set(sets[k - 1]) if k else set()
        assert ex[k] == (ex[k - 1] if k else ()) + tuple(x for x in s if x not in old)


class TestVertexFunctionNorms:
    def test_measure_weighted_norms(self):
        g = WeightedGraph.from_data({(0, 1): 1}, {0: 4, 1: 1})
        f = VertexFunction({0: 1, 1: -2})
        assert f.norm(g, 1) == 1 * 4 + 2 * 1
        assert f.norm(g, 2) == pytest.approx(math.sqrt(1 * 4 + 4 * 1))
        assert f.norm(g, math.inf) == 2

    def test_delta_normalized(self):
        g = WeightedGraph.from_data({(0, 1): 1}, {0: 4, 1: 1})
        d = VertexFunction.delta(g, 0)
        assert d.norm(g, 1) == 1.0


class TestFileFormat:
    def test_roundtrip(self, rng):
        g = random_connected_graph(rng, 15, with_killing=True)
        text = write_graph_file(g)
        h = parse_graph_file(text)
        assert sorted(h.vertices()) == sorted(g.vertices())
        for x in g.vertices():
            assert h.measure(x) == pytest.approx(g.measure(x))
            assert h.killing(x) == pytest.approx(g.killing(x))
            for y, b in g.neighbors(x).items():
                assert h.edge_weight(x, y) == pytest.approx(b)

    def test_comments_and_fractions(self):
        g = parse_graph_file("# a comb tooth\nV 0 1/2 0\nV 1 1 1/4\nE 0 1 16\n")
        assert g.measure(0) == Fraction(1, 2)
        assert g.killing(1) == Fraction(1, 4)
        assert g.edge_weight(0, 1) == 16

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_graph_file("V 0 1 0\nV 1 1 0\nE 0 1 1\nE 1 0 2\n")

    def test_rejects_bad_measure(self):
        with pytest.raises(InputError, match="measure"):
            parse_graph_file("V 0 0 0\n")
        with pytest.raises(InputError, match="^line 1: value '1/0' divides by zero$"):
            parse_graph_file("V 0 1/0 0\n")

    def test_rejects_negative_values(self):
        with pytest.raises(InputError):
            parse_graph_file("V 0 1 -1\n")
        with pytest.raises(InputError):
            parse_graph_file("V 0 1 0\nV 1 1 0\nE 0 1 -2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "9" * 5000],
                             ids=["nan", "inf", "-inf", "1e400", "5000-digit-int"])
    def test_rejects_non_finite_values(self, value):
        for text, line in ((f"V 0 {value} 0\n", 1),
                           (f"V 0 1 {value}\n", 1),
                           (f"V 0 1 0\nV 1 1 0\nE 0 1 {value}\n", 3)):
            with pytest.raises(InputError, match=f"line {line}: .* must be .* and finite, got "):
                parse_graph_file(text)


# tokens a graph file may hold, valid or not, including values that overflow
# float (1e400, a 5000-digit integer) or exceed int()'s digit limit
_TOKENS = st.sampled_from([
    "0", "1", "-1", "0.5", "-0.0", "3/4", "1/0", "-2/3", "1_000", "1e5", "1e-400",
    "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "9" * 5000, "1/" + "7" * 5000,
    "x", "0x10", "1.5/2", "#", "V", "E",
])
_IDS = st.integers(0, 3).map(str)
_LINES = st.one_of(
    st.tuples(st.just("V"), _IDS, _TOKENS, _TOKENS).map(" ".join),
    st.tuples(st.just("E"), _IDS, _IDS, _TOKENS).map(" ".join),
    st.lists(st.one_of(_TOKENS, _IDS), max_size=5).map(" ".join),
    st.text(max_size=12),
)


def _finite(value) -> bool:
    return isinstance(value, (int, Fraction)) or math.isfinite(value)


@settings(max_examples=300)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_parse_graph_file_fuzz(text):
    """Any text is rejected with InputError or gives finite, admissible data."""
    try:
        g = parse_graph_file(text)
    except InputError:
        return
    for x in g.vertices():
        m, c = g.measure(x), g.killing(x)
        assert _finite(m) and m > 0
        assert _finite(c) and c >= 0
        for b in g.neighbors(x).values():
            assert _finite(b) and b >= 0


class TestLazyGraph:
    def test_half_line(self):
        g = WeightedGraph.lazy(
            neighbor_fn=lambda x: ({1: 1} if x == 0 else {x - 1: 1, x + 1: 1}),
            measure_fn=lambda x: 1,
        )
        assert not g.is_finite
        assert g.edge_weight(3, 4) == 1
        assert g.row_sum(5) == 2
        assert weighted_degree(g, 0) == 1
        f = VertexFunction.indicator(2)
        assert formal_laplacian(g, f, 2) == 2

    @pytest.mark.parametrize("rows,message", [
        ({0: {1: 1}, 1: {0: 5, 2: 1}, 2: {1: 1}},
         r"asymmetric edge weight: b\(1,0\) = 5 but b\(0,1\) = 1"),
        ({0: {1: 1}, 1: {0: 1, 1: 1, 2: 1}, 2: {1: 1}}, "loop edge at vertex 1"),
    ], ids=["asymmetric", "loop"])
    def test_lazy_rows_must_be_symmetric_without_loops(self, rows, message):
        # unchecked, either path's Neumann heat leaves mass 1 as mass > 1
        g = WeightedGraph.lazy(neighbor_fn=rows.__getitem__, measure_fn=lambda x: 1)
        for _ in range(2):  # a rejected row is not stored
            with pytest.raises(InputError, match=message):
                Exhaustion.build(g, [[0], [0, 1, 2]])

    def test_bad_lazy_data_rejected_on_first_use(self):
        g = WeightedGraph.lazy(
            neighbor_fn=lambda x: ({1: 1} if x == 0 else {x - 1: 1, x + 1: 1}),
            measure_fn=lambda x: float("nan") if x == 3 else 1,
            killing_fn=lambda x: -1 if x == 2 else 0,
        )
        assert g.measure(2) == 1 and g.killing(3) == 0
        for _ in range(2):  # a rejected value is not stored
            with pytest.raises(InputError, match=r"measure m\(3\) must be positive"):
                g.measure(3)
            with pytest.raises(InputError, match=r"killing c\(2\) must be nonnegative"):
                g.killing(2)
        with pytest.raises(InputError, match=r"killing c\(2\) must be nonnegative"):
            formal_laplacian(g, VertexFunction.indicator(2), 2)
        with pytest.raises(InputError, match=r"measure m\(3\) must be positive"):
            VertexFunction.indicator(3).norm(g, 2)
