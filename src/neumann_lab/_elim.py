"""Sparse elimination behind the semigroup engine.

One subtraction-free elimination (Grassmann, Taksar & Heyman 1985) serves
every heat and resolvent action.  Its pivot rule does not depend on the
order, so it runs in rounds of pairwise non-adjacent low-degree vertices
(multiple elimination, Liu 1985), each round at once in numpy.

* :func:`gth_factor` eliminates A - s for a restricted Laplacian A and one
  shift s, or K shifts as the columns of one factorization.  Diagonals are
  never stored: a pivot is the row sum of the live off-diagonal entries
  plus an "excess" (killing mass over measure, minus s), and eliminating a
  vertex adds ``l_a * excess_i`` to each neighbour's excess.  For s = -alpha
  every update adds nonnegative terms, so (A + alpha) u = f is solved
  componentwise to machine precision for f >= 0 at any dynamic range;
  signed f is split by sign.
* :func:`cf_heat` applies exp(-tA) through the rational approximation in
  :mod:`._expcf` (Trefethen, Weideman & Schmelzer 2006).  A pole p needs
  (A - p/t)^{-1}, the same recursion with a complex excess; one pole per
  conjugate pair, 7 shifts, is factored together.  Pivots keep the row
  sums they carry, so the O(1) components on huge-degree vertices are not
  cancelled away and float64 suffices.
"""

from __future__ import annotations

import math
import threading
from itertools import chain

import numpy as np

from ._expcf import POLES, RESIDUES

__all__ = ["elimination_order", "GTHFactors", "gth_factor", "cf_heat"]

# unused here; kept only because bench/spans.py wraps it (ROADMAP item 3)
_MP_LOCK = threading.Lock()


def elimination_order(neighbor_sets: list[set[int]]) -> list[dict[int, list[int]]]:
    """Rounds of pairwise non-adjacent vertices, each vertex mapped to its
    live neighbours (fill included) when its round is eliminated.

    A round takes greedily, in (live degree, index) order, the live vertices
    of degree <= max(2, minimum live degree) that no vertex taken before is
    adjacent to.  On a path the live vertices halve per round, and on trees
    these eliminations never increase the number of nonzeros.
    """
    live = [set(s) for s in neighbor_sets]
    left = set(range(len(live)))
    rounds = []
    while left:
        by_degree = sorted((len(live[i]), i) for i in left)
        cap = max(2, by_degree[0][0])
        rnd, blocked = {}, set()
        for d, i in by_degree:
            if d > cap:
                break
            if i not in blocked:
                rnd[i] = sorted(live[i])
                blocked |= live[i]
        for i, nbrs in rnd.items():
            for a in nbrs:
                live[a] |= live[i]
                live[a] -= {a, i}
        left -= rnd.keys()
        rounds.append(rnd)
    return rounds


class GTHFactors:
    """LU-like factors from subtraction-free elimination, one round at a time.

    ``pivots`` has one row per vertex, and ``rounds`` holds per round the
    tuple (vertices, i, b, upper, mult, at_i, at_b): per entry (i, b) of a
    round vertex i and a neighbour b live at that round, ``upper`` is the
    coefficient of (i, b) and ``mult`` the multiplier of b's row, one column
    per shift, and ``at_i``/``at_b`` index i's and b's rows of a flattened
    (n, K) array.  ``shape`` is that of the excess: (n,) for one shift,
    (n, K) for K.  The dtype is float for real shifts, complex otherwise.
    """

    __slots__ = ("pivots", "rounds", "shape")

    def __init__(self, pivots, rounds, shape):
        self.pivots = pivots
        self.rounds = rounds
        self.shape = shape

    def solve_nonneg(self, f: np.ndarray) -> np.ndarray:
        """Forward/back substitution; all additions for f >= 0 and a real shift."""
        f = np.asarray(f, dtype=self.pivots.dtype)
        y = np.repeat(f[:, None], self.pivots.shape[1], axis=1)
        for _verts, i, _b, _upper, mult, _at_i, at_b in self.rounds:
            np.add.at(y.reshape(-1), at_b, (mult * y[i]).ravel())
        # back substitution in place: a round reads x only of later rounds
        for verts, _i, b, upper, _mult, at_i, _at_b in reversed(self.rounds):
            np.add.at(y.reshape(-1), at_i, (upper * y[b]).ravel())
            y[verts] /= self.pivots[verts]
        return y.reshape(self.shape)

    def solve(self, f: np.ndarray) -> np.ndarray:
        neg = np.minimum(f, 0.0)
        if not neg.any():
            return self.solve_nonneg(f)
        pos = np.maximum(f, 0.0)
        return self.solve_nonneg(pos) - self.solve_nonneg(-neg)


# fill operations applied per batch, so a round's products stay small
_CHUNK = 1 << 14


def gth_factor(offdiag: list[dict[int, float]], excess: np.ndarray) -> GTHFactors:
    """Eliminate the matrices with rows ``diag_i = sum_j offdiag[i][j] + excess_i``,
    off-diagonal entries ``-offdiag[i][j]``, in the rounds of
    :func:`elimination_order` of ``offdiag``'s pattern.

    ``offdiag`` values must be nonnegative, on a symmetric pattern.
    ``excess`` is (n,) for one shift or (n, K) for K shifts factored together.
    A real excess must be strictly positive (e.g. alpha plus killing mass
    over measure); a complex one is the excess of a complex shift, whose real
    part may be negative as long as the matrix stays nonsingular.
    """
    n = len(offdiag)
    exc = np.asarray(excess)
    dtype = np.dtype(complex) if np.iscomplexobj(exc) else np.dtype(float)
    shape = exc.shape
    k = math.prod(shape[1:])
    exc = exc.astype(dtype).reshape(n, k)
    order = elimination_order([set(r) for r in offdiag])
    # entry e pairs a vertex i with a neighbour b live at i's round, in
    # elimination order; every entry that is ever live is (i, b), kept in
    # coef[e], or (b, i), kept in coef[E + e] and turned into b's multiplier
    verts = np.fromiter(chain.from_iterable(order), int, n)
    nbrs = [v for rnd in order for v in rnd.values()]
    deg = np.fromiter(map(len, nbrs), int, n)
    nb = np.fromiter(chain.from_iterable(nbrs), int)
    src, span, first = verts.repeat(deg), deg.repeat(deg), (np.cumsum(deg) - deg).repeat(deg)
    vcut = np.cumsum([0] + [len(rnd) for rnd in order])
    ecut = np.append(0, np.cumsum(deg))[vcut]
    E, cols = len(nb), np.arange(k)
    at_i, at_b = ((x[:, None] * k + cols).ravel() for x in (src, nb))
    keys = np.concatenate([src * n + nb, nb * n + src])
    perm = np.argsort(keys)
    keys = keys[perm]
    rows = np.repeat(np.arange(n), [len(r) for r in offdiag])
    coef = np.zeros((2 * E, k), dtype)
    coef[perm[np.searchsorted(keys, rows * n + np.fromiter(chain.from_iterable(offdiag), int))]] = \
        np.fromiter(chain.from_iterable(r.values() for r in offdiag), float, len(rows))[:, None]
    pivots = np.zeros((n, k), dtype)
    rounds = []
    for v0, v1, e0, e1 in zip(vcut, vcut[1:], ecut, ecut[1:]):
        rv, ri, rb = verts[v0:v1], src[e0:e1], nb[e0:e1]
        upper, mult = coef[e0:e1], coef[E + e0:E + e1]
        ai, ab = at_i[e0 * k:e1 * k], at_b[e0 * k:e1 * k]
        # pivot = live row sum + excess, so no diagonal is ever differenced
        np.add.at(pivots.reshape(-1), ai, upper.ravel())
        pivots[rv] += exc[rv]
        mult /= pivots[ri]
        np.add.at(exc.reshape(-1), ab, (mult * exc[ri]).ravel())
        # fill (a, b) += mult_a * upper_b over the pairs of distinct entries
        # (i, a), (i, b) of one round vertex, one chunk of pairs at a time
        s = span[e0:e1]
        pa = np.repeat(np.arange(e0, e1), s)
        pb = first[pa] + np.arange(len(pa)) - np.repeat(np.cumsum(s) - s, s)
        keep = pa != pb
        pa, pb = pa[keep], pb[keep]
        for c in range(0, len(pa), _CHUNK):
            a, b = pa[c:c + _CHUNK], pb[c:c + _CHUNK]
            slot = perm[np.searchsorted(keys, nb[a] * n + nb[b])]
            np.add.at(coef.reshape(-1), (slot[:, None] * k + cols).ravel(),
                      (coef[E + a] * coef[b]).ravel())
        rounds.append((rv, ri, rb, upper, mult, ai, ab))
    return GTHFactors(pivots, rounds, shape)


def cf_heat(offdiag: list[dict[int, float]], excess: np.ndarray, t: float,
            vec: np.ndarray) -> np.ndarray:
    """u ~= exp(-tA) vec for A = diag(rowsum + excess) - offdiag, in float64.

    With x_k = (A - POLES[2k]/t)^{-1} vec, the sum over the conjugate pair
    (POLES[2k], POLES[2k+1]) is Re((RESIDUES[2k] + conj(RESIDUES[2k+1])) x_k)/t,
    so one factorization with the 7 shifts as columns covers the whole table.
    """
    vec = np.asarray(vec, dtype=float)
    if t == 0.0:
        return vec.copy()
    shifts = np.asarray(POLES[::2]) / t
    x = gth_factor(offdiag, np.asarray(excess, dtype=float)[:, None] - shifts)
    weights = (np.asarray(RESIDUES[::2]) + np.conj(RESIDUES[1::2])) / t
    return (x.solve_nonneg(vec) * weights).real.sum(axis=1)

