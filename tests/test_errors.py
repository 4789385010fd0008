"""Every number the lab takes in passes ``errors.checked``: each entry point
below rejects each bad value with an InputError that names the value."""

import math

import numpy as np
import pytest

from neumann_lab import models
from neumann_lab.analysis import semigroup_gap, uniform_l1_check
from neumann_lab.birth_death import BdChain, classify, solve_alpha_harmonic
from neumann_lab.convergence import (
    dirichlet_reference,
    dirichlet_resolvent_reference,
    neumann_convergence_experiment,
)
from neumann_lab.errors import InputError
from neumann_lab.graphs import Exhaustion, VertexFunction, WeightedGraph, parse_graph_file
from neumann_lab.operators import assemble_dirichlet
from neumann_lab.semigroup import SemigroupEngine, heat_vecs

from conftest import path_graph

PHI = VertexFunction.indicator(0)
PATH = path_graph(4)
PATH_EX = Exhaustion.build(PATH, [[0, 1], [0, 1, 2], [0, 1, 2, 3]])


def _lazy(b=1, m=1, c=0):
    """The half line with unit data, but b(0,1) = b, m(1) = m and c(1) = c."""
    return WeightedGraph.lazy(
        neighbor_fn=lambda x: {1: b} if x == 0 else {x - 1: b if x == 1 else 1, x + 1: 1},
        measure_fn=lambda x: m if x == 1 else 1,
        killing_fn=lambda x: c if x == 1 else 0)


def _chain(rate=1, measure=1):
    """The unit chain, but b(70,71) = rate and m(70) = measure."""
    return BdChain(rate=lambda r: rate if r == 70 else 1,
                   measure=lambda r: measure if r == 70 else 1)


def _file(text):
    """A graph file's entry point: the value arrives as its token."""
    return lambda v: parse_graph_file(text.format(v))


# entry point -> (whether it takes 0, a call that feeds it the value)
ENTRY_POINTS = {
    "from_data weight": (True, lambda v: WeightedGraph.from_data({(0, 1): v}, {0: 1, 1: 1})),
    "from_data measure": (False, lambda v: WeightedGraph.from_data({}, {0: v})),
    "from_data killing": (True, lambda v: WeightedGraph.from_data({}, {0: 1}, {0: v})),
    "lazy weight": (True, lambda v: Exhaustion.build(_lazy(b=v), [[0], [0, 1]])),
    "lazy measure": (False, lambda v: _lazy(m=v).measure(1)),
    "lazy killing": (True, lambda v: _lazy(c=v).killing(1)),
    "file V measure": (False, _file("V 0 {} 0\n")),
    "file V killing": (True, _file("V 0 1 {}\n")),
    "file E weight": (True, _file("V 0 1 0\nV 1 1 0\nE 0 1 {}\n")),
    "classify rate": (False, lambda v: classify(_chain(rate=v), 100, {"measure": "infinite"})),
    "classify measure": (False, lambda v: classify(_chain(measure=v), 100,
                                                   {"measure": "infinite"})),
    "make_exhaustion rate": (False, lambda v: models.make_exhaustion(
        models.make_bd_chain(_chain(rate=v).rate, "1"), 0, indices=[60, 80])),
    "reference t": (True, lambda v: dirichlet_reference(PATH, PATH_EX, v, PHI)),
    "semigroup_gap t": (False, lambda v: semigroup_gap(PATH, PATH_EX, v, 0)),
    "heat_vecs t": (True, lambda v: heat_vecs(
        [SemigroupEngine(assemble_dirichlet(PATH, [0, 1]))], v, np.ones(2))),
    "resolvent reference alpha": (False, lambda v: dirichlet_resolvent_reference(
        PATH, PATH_EX, v, PHI)),
    "resolvent_vec alpha": (False, lambda v: SemigroupEngine(
        assemble_dirichlet(PATH, [0, 1])).resolvent_vec(v, np.ones(2))),
    "alpha-harmonic alpha": (False, lambda v: solve_alpha_harmonic(_chain(), v, 1, 10)),
    "alpha-harmonic u0": (True, lambda v: solve_alpha_harmonic(_chain(), 1, v, 10)),
    "reference tol": (False, lambda v: dirichlet_reference(PATH, PATH_EX, 1.0, PHI, tol=v)),
    "self_tol": (False, lambda v: neumann_convergence_experiment(
        PATH, PATH_EX, 1.0, PHI, self_tol=v)),
    "uniform-l1 horizon": (True, lambda v: uniform_l1_check(PATH, [0, 1, 2, 3], v, PHI)),
}

BAD = [math.nan, math.inf, -math.inf, -1, 0, "1"]

CASES = [(name, value) for name, (takes_zero, _) in ENTRY_POINTS.items() for value in BAD
         if not (value == 0 and takes_zero)
         # every token of a graph file is a string
         and not (name.startswith("file") and isinstance(value, str))]


@pytest.mark.parametrize("name,value", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_every_entry_point_rejects_every_bad_value(name, value):
    _, call = ENTRY_POINTS[name]
    shown = repr(value) if isinstance(value, str) else str(value)
    with pytest.raises(InputError, match=f"and finite, got {shown}$"):
        call(value)
