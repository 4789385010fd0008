"""Property tests of the float64 elimination kernel behind every heat action.

Graphs are trees, optionally with extra edges that force fill-in, with
exact power-of-two weights, killing and measures.  Weights span 2^-900 to
2^900.  The kernel is checked against the same rational approximation
solved in mpmath (so only rounding separates them), against dense ``eigh``
where the scale allows it, and against the semigroup's own invariants:
Neumann mass conservation and Dirichlet-below-Neumann domination.
"""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from neumann_lab.graphs import WeightedGraph
from neumann_lab.operators import assemble_dirichlet, assemble_neumann
from neumann_lab.semigroup import SemigroupEngine

from conftest import dense_heat, mp_heat

# derandomized, so the suite gives the same verdict on every run
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None, suppress_health_check=[HealthCheck.too_slow])

TIMES = st.sampled_from([1e-3, 0.01, 0.3, 1.0, 10.0])


@st.composite
def graphs(draw, max_exp=900, max_n=40, killing=True):
    """(graph, n): a tree on 0..n-1 whose every prefix is connected, plus
    optional extra edges, killing and nonuniform measures."""
    n = draw(st.integers(2, max_n))
    power = st.integers(-max_exp, max_exp).map(lambda k: Fraction(2) ** k)
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(power)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(power))
    measure = {v: Fraction(2) ** draw(st.integers(-4, 4)) for v in range(n)}
    killed = draw(st.sets(st.integers(0, n - 1), max_size=n // 3)) if killing else ()
    return WeightedGraph.from_data(edges, measure, {v: draw(power) for v in killed}), n


def nonneg_vector(n, seed):
    vec = np.random.default_rng(seed).random(n)
    vec[seed % n] = 1.0
    return vec


@PROPERTY_SETTINGS
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_agrees_with_mpmath(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    vec = nonneg_vector(n, seed)
    u, ref = e.heat_vec(t, vec), mp_heat(e, t, vec)
    # the pole terms are of the size of vec and cancel down to u, so rounding
    # is relative to max|vec|; where u has decayed far below vec it is not
    # relative to max|u|
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(vec)


@PROPERTY_SETTINGS
@given(graphs(max_exp=2), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_agrees_with_dense_eigh(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    assume(e.spectral is not None)
    # signed data: the rational approximation's own error is uniform in |vec|
    vec = np.random.default_rng(seed).normal(size=n)
    u = e.heat_vec(t, vec)
    assert np.max(np.abs(u - dense_heat(e, t, vec))) <= 1e-12 * np.max(np.abs(vec))


@PROPERTY_SETTINGS
@given(graphs(killing=False), TIMES, st.integers(0, 2 ** 32 - 1))
def test_neumann_mass_conserved(graph, t, seed):
    g, n = graph
    op = assemble_neumann(g, list(range(n)))
    vec = nonneg_vector(n, seed)
    m = op.measure_vector
    before = float((vec * m).sum())
    after = float((SemigroupEngine(op).heat_vec(t, vec) * m).sum())
    assert abs(after - before) <= 1e-12 * before


@PROPERTY_SETTINGS
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.data())
def test_dirichlet_below_neumann(graph, t, seed, data):
    g, n = graph
    subset = list(range(data.draw(st.integers(1, n))))
    vec = nonneg_vector(len(subset), seed)
    ud = SemigroupEngine(assemble_dirichlet(g, subset)).heat_vec(t, vec)
    un = SemigroupEngine(assemble_neumann(g, subset)).heat_vec(t, vec)
    assert (ud >= 0).all()
    assert (ud <= un + 1e-12 * np.max(vec)).all()
