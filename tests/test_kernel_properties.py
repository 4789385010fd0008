"""Property tests of the float64 elimination kernel behind every heat and
resolvent action.

Graphs are trees, optionally with extra edges that force fill-in, with
exact power-of-two weights and killing, and power-of-two or small-fraction
measures.  Weights span 2^-900 to 2^900.  The heat kernel is checked
against the same rational approximation solved in mpmath (so only rounding
separates them), against dense ``eigh`` where the scale allows it, and
against the semigroup's own invariants: Neumann mass conservation and
Dirichlet-below-Neumann domination.  The resolvent is checked against an
exact rational solve and through its exact residual certificate.  The
elimination's rounds are checked for independence and depth and against
the tuple-ordered rule in ``oracles``, the factors bit for bit against a
round-by-round elimination, several shifts and several restrictions
factored together against one at a time, and graphs whose elimination
fills densely (layered complete bipartite graphs) against mpmath; a
memory check bounds what a factorization allocates beyond the factors it
returns.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neumann_lab import _elim, models
from neumann_lab._expcf import POLES
from neumann_lab.graphs import WeightedGraph
from neumann_lab.operators import assemble_dirichlet, assemble_neumann
from neumann_lab.semigroup import SemigroupEngine, heat_vecs

import oracles
from conftest import antitree

TIMES = st.sampled_from([1e-3, 0.01, 0.3, 1.0, 10.0])


@st.composite
def graphs(draw, max_exp=900, max_n=40, killing=True, dyadic=True):
    """(graph, n): a tree on 0..n-1 whose every prefix is connected, plus
    optional extra edges, killing and nonuniform measures (powers of two,
    or with ``dyadic=False`` fractions p/q with p, q <= 12)."""
    n = draw(st.integers(2, max_n))
    power = st.integers(-max_exp, max_exp).map(lambda k: Fraction(2) ** k)
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(power)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(power))
    if dyadic:
        masses = st.integers(-4, 4).map(lambda k: Fraction(2) ** k)
    else:
        masses = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    measure = {v: draw(masses) for v in range(n)}
    killed = draw(st.sets(st.integers(0, n - 1), max_size=n // 3)) if killing else ()
    return WeightedGraph.from_data(edges, measure, {v: draw(power) for v in killed}), n


def nonneg_vector(n, seed):
    vec = np.random.default_rng(seed).random(n)
    vec[seed % n] = 1.0
    return vec


@settings(max_examples=25)
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_agrees_with_mpmath(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    vec = nonneg_vector(n, seed)
    u, ref = e.heat_vec(t, vec), oracles.mp_heat(op, t, vec)
    # the pole terms are of the size of vec and cancel down to u, so rounding
    # is relative to max|vec|; where u has decayed far below vec it is not
    # relative to max|u|
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(vec)


@settings(max_examples=25)
@given(graphs(max_exp=2), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_agrees_with_dense_eigh(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    assume(oracles.spectral(op) is not None)
    # signed data: the rational approximation's own error is uniform in |vec|
    vec = np.random.default_rng(seed).normal(size=n)
    u = e.heat_vec(t, vec)
    assert np.max(np.abs(u - oracles.dense_heat(op, t, vec))) <= 1e-12 * np.max(np.abs(vec))


@settings(max_examples=25)
@given(graphs(killing=False), TIMES, st.integers(0, 2 ** 32 - 1))
def test_neumann_mass_conserved(graph, t, seed):
    g, n = graph
    op = assemble_neumann(g, list(range(n)))
    vec = nonneg_vector(n, seed)
    m = op.measure_vector
    before = float((vec * m).sum())
    after = float((SemigroupEngine(op).heat_vec(t, vec) * m).sum())
    assert abs(after - before) <= 1e-12 * before


@settings(max_examples=25)
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.data())
def test_dirichlet_below_neumann(graph, t, seed, data):
    g, n = graph
    subset = list(range(data.draw(st.integers(1, n))))
    vec = nonneg_vector(len(subset), seed)
    ud = SemigroupEngine(assemble_dirichlet(g, subset)).heat_vec(t, vec)
    un = SemigroupEngine(assemble_neumann(g, subset)).heat_vec(t, vec)
    assert (ud >= 0).all()
    assert (ud <= un + 1e-12 * np.max(vec)).all()


ALPHAS = st.sampled_from([0.01, 0.5, 1.0, 10.0])


def exact_resolvent(op, alpha, vec):
    """(A + alpha)^{-1} vec by Gaussian elimination in Fractions, from the
    operator's exact weights, killing mass and measures.  A + alpha is
    strictly diagonally dominant by rows, so no pivoting is needed."""
    n = len(op)
    rows = []
    for i in range(n):
        mi = Fraction(op.measures[i])
        row = [Fraction(0)] * n + [Fraction(vec[i])]
        row[i] = (sum(map(Fraction, op.weights[i].values()))
                  + Fraction(op.killing_mass[i])) / mi + Fraction(alpha)
        for j, b in op.weights[i].items():
            row[j] = -Fraction(b) / mi
        rows.append(row)
    for k in range(n):
        for i in range(k + 1, n):
            if rows[i][k]:
                factor = rows[i][k] / rows[k][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    u = [Fraction(0)] * n
    for i in reversed(range(n)):
        acc = rows[i][n] - sum(rows[i][j] * u[j] for j in range(i + 1, n))
        u[i] = acc / rows[i][i]
    return u


@settings(max_examples=25)
@given(graphs(max_n=12, dyadic=False), ALPHAS, st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans())
def test_resolvent_agrees_with_exact_solve(graph, alpha, seed, neumann, signed):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n) if signed else nonneg_vector(n, seed)
    u = e.resolvent_vec(alpha, vec)
    exact = exact_resolvent(op, alpha, vec)
    err = [abs(Fraction(ui) - xi) for ui, xi in zip(u.tolist(), exact)]
    if signed:
        assert max(err) <= Fraction(1e-12) * Fraction(np.max(np.abs(vec)))
    else:
        # subtraction-free elimination is accurate in every component
        assert all(ei <= Fraction(1e-12) * xi for ei, xi in zip(err, exact))


@settings(max_examples=25)
@given(graphs(max_n=12, dyadic=False), ALPHAS, st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_resolvent_residual_is_small(graph, alpha, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    vec = np.random.default_rng(seed).normal(size=n)
    u = e.resolvent_vec(alpha, vec)
    # relative to the size of the terms the residual sums, |A + alpha| |u|
    # + |f|: rounding u to floats alone leaves a residual of eps times this
    terms = np.abs(vec) + (op.diagonal + alpha) * np.abs(u)
    for i, row in enumerate(op.offdiag):
        terms[i] += sum(v * abs(u[j]) for j, v in row.items())
    top = float(np.max(terms))
    size = top * float(np.sqrt(((terms / top) ** 2 * op.measure_vector).sum()))
    assert e.resolvent_residual(alpha, u, vec) <= 1e-10 * size


def _pattern(op):
    return [set(row) for row in op.offdiag]


@settings(max_examples=25)
@given(graphs())
def test_rounds_are_independent_sets_of_the_live_graph(graph):
    g, n = graph
    op = assemble_neumann(g, list(range(n)))
    live = _pattern(op)
    seen = []
    for rnd in _elim.elimination_order(_pattern(op)):
        assert rnd
        for i, nbrs in rnd.items():
            assert set(nbrs) == live[i]
            assert not live[i] & rnd.keys()
        # eliminate the round: its neighbours become a clique
        for i, nbrs in rnd.items():
            for a in nbrs:
                live[a] = (live[a] | live[i]) - {a, i}
        seen.extend(rnd)
    assert sorted(seen) == list(range(n))


@given(st.integers(1, 5000))
def test_path_needs_logarithmically_many_rounds(n):
    pattern = [{j for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)]
    assert len(_elim.elimination_order(pattern)) <= math.ceil(math.log2(n)) + 2


@settings(max_examples=25)
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_shifts_factored_together_equal_one_at_a_time(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    excess = op.excess[:, None] - np.asarray(POLES[::2]) / t
    vec = nonneg_vector(n, seed)
    together = _elim.gth_factor(op.offdiag, excess).solve_nonneg(vec)
    assert together.shape == (n, excess.shape[1])
    for k in range(excess.shape[1]):
        alone = _elim.gth_factor(op.offdiag, excess[:, k]).solve_nonneg(vec)
        assert alone.shape == (n,)
        assert np.array_equal(together[:, k], alone)


@st.composite
def layered_graphs(draw, max_n=40, max_exp=900):
    """(graph, n): consecutive layers joined completely, so eliminating a
    layer's vertex fills in the two layers next to it; power-of-two
    weights and measures."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=10))
    while sum(sizes) > max_n:
        sizes.pop()
    starts = np.cumsum([0] + sizes).tolist()
    power = st.integers(-max_exp, max_exp).map(lambda k: Fraction(2) ** k)
    edges = {(a, b): draw(power)
             for r in range(len(sizes) - 1)
             for a in range(starts[r], starts[r + 1])
             for b in range(starts[r + 1], starts[r + 2])}
    n = starts[-1]
    measure = {v: Fraction(2) ** draw(st.integers(-4, 4)) for v in range(n)}
    return WeightedGraph.from_data(edges, measure), n


@settings(max_examples=50)
@given(st.one_of(graphs(), layered_graphs()))
def test_rounds_equal_the_tuple_ordered_rounds(graph):
    g, n = graph
    op = assemble_neumann(g, list(range(n)))
    assert _elim.elimination_order(_pattern(op)) == oracles.elimination_order(_pattern(op))


@settings(max_examples=50)
@given(st.one_of(graphs(), layered_graphs()), TIMES, st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from([_elim._CHUNK, 1, 7]))
def test_factors_equal_the_round_by_round_elimination(graph, t, seed, neumann, chunk):
    # a small batch size splits rounds into chunks and groups into one round
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    vec = nonneg_vector(n, seed)
    for excess in (op.excess[:, None] - np.asarray(POLES[::2]) / t, op.excess + 0.5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_elim, "_CHUNK", chunk)
            out = _elim.gth_factor(op.offdiag, excess).solve_nonneg(vec)
        assert np.array_equal(out, oracles.gth_solve_by_rounds(op.offdiag, excess, vec))


@settings(max_examples=25)
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.data())
def test_restrictions_factored_together_equal_one_at_a_time(graph, t, seed, data):
    # the Dirichlet and Neumann restrictions to one subset share their
    # off-diagonal rows; a third, killing-free excess shares them too
    g, n = graph
    subset = list(range(data.draw(st.integers(1, n))))
    d_op, n_op = assemble_dirichlet(g, subset), assemble_neumann(g, subset)
    assert d_op.offdiag == n_op.offdiag
    excess = np.stack([d_op.excess, n_op.excess, np.zeros(len(subset))], axis=1)
    vec = nonneg_vector(len(subset), seed)
    together = _elim.cf_heat(n_op.offdiag, excess, t, vec)
    assert together.shape == excess.shape
    for j in range(excess.shape[1]):
        assert np.array_equal(together[:, j], _elim.cf_heat(n_op.offdiag, excess[:, j], t, vec))


@settings(max_examples=25)
@given(graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.data())
def test_heat_pair_equals_two_heat_actions(graph, t, seed, data):
    g, n = graph
    subset = list(range(data.draw(st.integers(1, n))))
    vec = nonneg_vector(len(subset), seed)
    pair = [SemigroupEngine(assemble(g, subset)) for assemble in (assemble_dirichlet,
                                                                  assemble_neumann)]
    alone = [SemigroupEngine(assemble(g, subset)) for assemble in (assemble_dirichlet,
                                                                   assemble_neumann)]
    outs = heat_vecs(pair, t, vec)
    for out, paired, single in zip(outs, pair, alone):
        assert np.array_equal(out, single.heat_vec(t, vec))
        assert paired.telemetry.clamped_entries == single.telemetry.clamped_entries


def test_heat_pair_counts_each_restrictions_clamps():
    # from the end of a 40-vertex unit chain the heat reaches the far end
    # as tiny negatives, which both restrictions clamp
    g = models.PRESETS["bd:unit"]().graph
    vec = np.zeros(40)
    vec[0] = 1.0
    pair = [SemigroupEngine(assemble(g, range(40))) for assemble in (assemble_dirichlet,
                                                                    assemble_neumann)]
    outs = heat_vecs(pair, 1.0, vec)
    for out, paired in zip(outs, pair):
        single = SemigroupEngine(paired.operator)
        assert np.array_equal(out, single.heat_vec(1.0, vec))
        assert paired.telemetry.clamped_entries == single.telemetry.clamped_entries > 0


@settings(max_examples=25)
@given(layered_graphs(), TIMES, st.integers(0, 2 ** 32 - 1), st.booleans())
def test_dense_fill_agrees_with_mpmath(graph, t, seed, neumann):
    g, n = graph
    op = (assemble_neumann if neumann else assemble_dirichlet)(g, list(range(n)))
    e = SemigroupEngine(op)
    vec = nonneg_vector(n, seed)
    u = e.heat_vec(t, vec)
    assert np.max(np.abs(u - oracles.mp_heat(op, t, vec))) <= 1e-12 * np.max(vec)
    if neumann:
        m = op.measure_vector
        assert abs(float((u * m).sum()) - float((vec * m).sum())) <= 1e-12 * float((vec * m).sum())


def test_factoring_allocates_little_beyond_the_factors():
    # spheres of 1..17 vertices: n = 153, and every round of the dense
    # middle fills in two whole spheres
    op = assemble_neumann(antitree([r + 1 for r in range(17)]), list(range(153)))
    excess = op.excess[:, None] - np.asarray(POLES[::2])
    tracemalloc.start()
    try:
        factors = _elim.gth_factor(op.offdiag, excess)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = factors.pivots.nbytes + sum(a.nbytes for rnd in factors.rounds for a in rnd)
    assert peak <= 3 * held + 2 ** 20
