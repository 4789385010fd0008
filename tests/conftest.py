import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from neumann_lab import _elim
from neumann_lab.graphs import WeightedGraph
from neumann_lab.operators import _exact_ratio

# one profile for every property test: derandomized, so the suite gives the
# same verdict on every run, and without deadlines, which slow hosts miss
settings.register_profile("neumann-lab", derandomize=True, database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("neumann-lab")


def random_graph_data(rng, n_max=60, with_killing=False):
    """Edges, measure and killing of a random connected weighted graph on
    2..n_max vertices.

    Spanning tree plus extra edges; b in [0.1, 3], m in [0.5, 2],
    optional killing c in [0, 0.5] on some vertices.
    """
    n = int(rng.integers(2, n_max + 1))
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.1, 3.0))
    extra = int(rng.integers(0, max(1, n)))
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)))
    measure = {v: float(rng.uniform(0.5, 2.0)) for v in range(n)}
    killing = {}
    if with_killing:
        for v in range(n):
            if rng.random() < 0.3:
                killing[v] = float(rng.uniform(0.0, 0.5))
    return edges, measure, killing


def random_connected_graph(rng, n_max=60, with_killing=False):
    """Finite graph on the data of :func:`random_graph_data`."""
    edges, measure, killing = random_graph_data(rng, n_max, with_killing)
    return WeightedGraph.from_data(edges, measure, killing, name=f"random-{len(measure)}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def path_graph(k, b=1, m=1, c=0):
    edges = {(i, i + 1): b for i in range(k - 1)}
    measure = {i: m for i in range(k)}
    killing = {i: c for i in range(k)} if c else None
    return WeightedGraph.from_data(edges, measure, killing, name=f"path-{k}")


def dense_heat(engine, t, vec):
    """e^{-tL} vec from the engine's on-demand dense eigendecomposition."""
    lam, U = engine.spectral
    sqm = np.sqrt(engine.operator.measure_vector)
    return U @ (np.exp(-t * np.maximum(lam, 0.0)) * (U.T @ (sqm * vec))) / sqm


def mp_heat(engine, t, vec):
    """The same rational approximation as the engine, solved in mpmath on
    the operator's exact ratios b/m and (killing mass)/m."""
    op = engine.operator
    offdiag = [{j: _exact_ratio(b, m) for j, b in row.items()}
               for row, m in zip(op.weights, op.measures)]
    excess = [_exact_ratio(k, m) for k, m in zip(op.killing_mass, op.measures)]
    return _elim.cf_heat_mp(offdiag, excess, t, vec, op.scale)


def antitree(sizes, weight=1.0):
    """Anti-tree with spheres of the given sizes: every vertex of sphere r is
    joined to every vertex of sphere r + 1 with ``weight``; unit measure.
    Vertices are numbered sphere by sphere from the root."""
    starts = np.cumsum([0] + list(sizes))
    edges = {(a, b): weight
             for r in range(len(sizes) - 1)
             for a in range(starts[r], starts[r + 1])
             for b in range(starts[r + 1], starts[r + 2])}
    measure = {v: 1.0 for v in range(int(starts[-1]))}
    return WeightedGraph.from_data(edges, measure, name=f"antitree-{int(starts[-1])}")
