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
* A factorization has a symbolic and a numeric pass.  The symbolic pass
  orders the pattern and builds every index array once: rows are stored by
  position in the elimination order, so a round's pivots and excess are a
  slice, and the fill pairs and their slots are built for groups of
  consecutive rounds.  The numeric pass is then a short loop of numpy
  updates per round; a round's additions into one value run in entry order.
* :func:`cf_heat` applies exp(-tA) through the rational approximation in
  :mod:`._expcf` (Trefethen, Weideman & Schmelzer 2006).  A pole p needs
  (A - p/t)^{-1}, the same recursion with a complex excess; one pole per
  conjugate pair, 7 shifts, is factored together.  Matrices on one pattern
  (the Dirichlet and Neumann restrictions to one subset) are J columns of
  the excess, and their 7 J shifts are factored together too.  Pivots keep
  the row sums they carry, so the O(1) components on huge-degree vertices
  are not cancelled away and float64 suffices.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from itertools import accumulate, chain

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
    these eliminations never increase the number of nonzeros.  The order is
    that of the integer keys ``degree * n + index``.  The sets become the
    live neighbourhoods: they are updated in place, so pass sets to spare.
    """
    live = neighbor_sets
    n = len(live)
    left = set(range(n))
    rounds = []
    while left:
        keys = sorted([len(live[i]) * n + i for i in left])
        limit = (max(2, keys[0] // n) + 1) * n
        rnd, blocked = {}, set()
        for key in keys:
            if key >= limit:
                break
            i = key % n
            if i not in blocked:
                nbrs = live[i]
                rnd[i] = sorted(nbrs)
                blocked |= nbrs
        for i, nbrs in rnd.items():
            # eliminating i joins its neighbours into a clique; most of a
            # tree's vertices have one or two, which need no set union
            for a in nbrs:
                live[a].discard(i)
            if len(nbrs) == 2:
                a, c = nbrs
                live[a].add(c)
                live[c].add(a)
            elif len(nbrs) > 2:
                row = live[i]
                for a in nbrs:
                    others = live[a]
                    others |= row
                    others.discard(a)
        left -= rnd.keys()
        rounds.append(rnd)
    return rounds


class GTHFactors:
    """LU-like factors from subtraction-free elimination, one round at a time.

    Rows are stored by position, the order of elimination: ``order[p]`` is
    the vertex eliminated p-th, and round r holds the positions
    ``cuts[r]:cuts[r + 1]``.  ``pivots`` has one row per position, and
    ``rounds`` holds per round the tuple (i, b, upper, mult, at_i, at_b):
    per entry (i, b) of a round position i and a neighbour position b live
    at that round, ``upper`` is the coefficient of (i, b) and ``mult`` the
    multiplier of b's row, one column per shift, and ``at_i``/``at_b``
    index i's and b's rows of a flattened (n, K) array.  ``shape`` is that
    of the excess: (n,) for one shift, (n, K) or (n, J, 7) for K columns.
    The dtype is float for real shifts, complex otherwise.
    """

    __slots__ = ("pivots", "rounds", "shape", "order", "cuts")

    def __init__(self, pivots, rounds, shape, order, cuts):
        self.pivots = pivots
        self.rounds = rounds
        self.shape = shape
        self.order = order
        self.cuts = cuts

    def solve_nonneg(self, f: np.ndarray) -> np.ndarray:
        """Forward/back substitution; all additions for f >= 0 and a real shift."""
        f = np.asarray(f, dtype=self.pivots.dtype)
        y = np.repeat(f[self.order, None], self.pivots.shape[1], axis=1)
        flat = y.reshape(-1)
        for i, _b, _upper, mult, _at_i, at_b in self.rounds:
            np.add.at(flat, at_b, (mult * y[i]).ravel())
        # back substitution in place: a round reads x only of later rounds
        for r in reversed(range(len(self.rounds))):
            _i, b, upper, _mult, at_i, _at_b = self.rounds[r]
            v0, v1 = self.cuts[r], self.cuts[r + 1]
            np.add.at(flat, at_i, (upper * y[b]).ravel())
            y[v0:v1] /= self.pivots[v0:v1]
        out = np.empty_like(y)
        out[self.order] = y
        return out.reshape(self.shape)

    def solve(self, f: np.ndarray) -> np.ndarray:
        neg = np.minimum(f, 0.0)
        if not neg.any():
            return self.solve_nonneg(f)
        pos = np.maximum(f, 0.0)
        return self.solve_nonneg(pos) - self.solve_nonneg(-neg)


# fill pairs indexed per batch (a group of small rounds, or a chunk of one
# large round), so the index arrays (K flat slots per pair) and a round's
# products stay small next to the factors
_CHUNK = 1 << 12


def gth_factor(offdiag: list[dict[int, float]], excess: np.ndarray) -> GTHFactors:
    """Eliminate the matrices with rows ``diag_i = sum_j offdiag[i][j] + excess_i``,
    off-diagonal entries ``-offdiag[i][j]``, in the rounds of
    :func:`elimination_order` of ``offdiag``'s pattern.

    ``offdiag`` values must be nonnegative, on a symmetric pattern.
    ``excess`` is (n,) for one shift or (n, K) (or (n, J, 7)) for K shifts
    factored together, each column on its own: column k of the factors
    equals the factors of column k alone, bit for bit.  A real excess must
    be strictly positive (e.g. alpha plus killing mass over measure); a
    complex one is the excess of a complex shift, whose real part may be
    negative as long as the matrix stays nonsingular.

    A symbolic pass, once per factorization, builds every index array: the
    positions, the entries and their coefficient slots, and the fill pairs
    with their slots, for groups of consecutive rounds holding at most
    ``_CHUNK`` pairs (a larger round is a group of its own, filled chunk by
    chunk).  The numeric loop then only updates pivots, multipliers, excess
    and fill, round after round, on slices of those arrays.
    """
    n = len(offdiag)
    exc = np.asarray(excess)
    dtype = np.dtype(complex) if np.iscomplexobj(exc) else np.dtype(float)
    shape = exc.shape
    k = math.prod(shape[1:])
    order = elimination_order([set(r) for r in offdiag])
    # position p is the p-th vertex eliminated; entry e pairs a position i
    # with a neighbour position b > i live at i's round, in elimination
    # order; every entry that is ever live is (i, b), kept in coef[e], or
    # (b, i), kept in coef[E + e] and turned into b's multiplier
    verts = np.fromiter(chain.from_iterable(order), int, n)
    pos = np.empty(n, int)
    pos[verts] = np.arange(n)
    exc = exc.reshape(n, k)[verts].astype(dtype, copy=False)
    nbrs = [v for rnd in order for v in rnd.values()]
    deg = np.fromiter(map(len, nbrs), int, n)
    nb = pos[np.fromiter(chain.from_iterable(nbrs), int)]
    ends = np.cumsum(deg)
    src, span, first = np.arange(n).repeat(deg), deg.repeat(deg), (ends - deg).repeat(deg)
    cuts = [0, *accumulate(map(len, order))]
    ecut = np.append(0, ends)[cuts].tolist()
    # fill pairs per round: deg * (deg - 1) per vertex
    pcuts = np.append(0, np.cumsum(deg * (deg - 1)))[cuts].tolist()
    E, cols = len(nb), np.arange(k)
    at_i, at_b = ((x[:, None] * k + cols).ravel() for x in (src, nb))
    keys = np.concatenate([src * n + nb, nb * n + src])
    perm = np.argsort(keys)
    keys = keys[perm]
    rows = pos.repeat(list(map(len, offdiag)))
    coef = np.zeros((2 * E, k), dtype)
    coef[perm[np.searchsorted(keys, rows * n + pos[np.fromiter(
        chain.from_iterable(offdiag), int)])]] = np.fromiter(
        chain.from_iterable(map(dict.values, offdiag)), float, len(rows))[:, None]
    pivots = np.zeros((n, k), dtype)
    flat_piv, flat_exc, flat_coef = pivots.reshape(-1), exc.reshape(-1), coef.reshape(-1)
    rounds = []
    r, R = 0, len(order)
    while r < R:
        # the group: rounds r..r1-1 with at most _CHUNK pairs, or round r alone
        r1 = max(r + 1, bisect_right(pcuts, pcuts[r] + _CHUNK) - 1)
        g0, p0 = ecut[r], pcuts[r]
        # fill (a, b) += mult_a * upper_b over the pairs of distinct entries
        # (i, a), (i, b) of one round position i
        s = span[g0:ecut[r1]]
        pa = np.repeat(np.arange(g0, ecut[r1]), s)
        pb = first[pa] + np.arange(len(pa)) - np.repeat(np.cumsum(s) - s, s)
        keep = pa != pb
        pa, pb = pa[keep], pb[keep]
        slot = perm[np.searchsorted(keys, nb[pa] * n + nb[pb])]
        pa += E  # the multiplier of a
        whole = len(slot) <= _CHUNK
        if whole:
            slot = (slot[:, None] * k + cols).ravel()
        for q in range(r, r1):
            v0, v1, e0, e1 = cuts[q], cuts[q + 1], ecut[q], ecut[q + 1]
            ri = src[e0:e1]
            upper, mult = coef[e0:e1], coef[E + e0:E + e1]
            ai, ab = at_i[e0 * k:e1 * k], at_b[e0 * k:e1 * k]
            # pivot = live row sum + excess, so no diagonal is ever differenced
            np.add.at(flat_piv, ai, upper.ravel())
            pivots[v0:v1] += exc[v0:v1]
            mult /= pivots[ri]
            np.add.at(flat_exc, ab, (mult * exc[ri]).ravel())
            for c0 in range(pcuts[q] - p0, pcuts[q + 1] - p0, _CHUNK):
                c1 = min(c0 + _CHUNK, pcuts[q + 1] - p0)
                at = slot[c0 * k:c1 * k] if whole else (slot[c0:c1, None] * k + cols).ravel()
                np.add.at(flat_coef, at, (coef[pa[c0:c1]] * coef[pb[c0:c1]]).ravel())
            rounds.append((ri, nb[e0:e1], upper, mult, ai, ab))
        r = r1
    return GTHFactors(pivots, rounds, shape, verts, cuts)


# one pole per conjugate pair, and the residue weight of the pair
_POLES = np.asarray(POLES[::2])
_WEIGHTS = np.asarray(RESIDUES[::2]) + np.conj(RESIDUES[1::2])


def cf_heat(offdiag: list[dict[int, float]], excess: np.ndarray, t: float,
            vec: np.ndarray) -> np.ndarray:
    """u ~= exp(-tA) vec for A = diag(rowsum + excess) - offdiag, in float64.

    With x_k = (A - POLES[2k]/t)^{-1} vec, the sum over the conjugate pair
    (POLES[2k], POLES[2k+1]) is Re((RESIDUES[2k] + conj(RESIDUES[2k+1])) x_k)/t,
    so one factorization with the 7 shifts as columns covers the whole table.
    An excess of shape (n, J) holds J matrices on one pattern (say the
    Dirichlet and Neumann restrictions to one subset): their 7 J shifts are
    factored together, and column j of the (n, J) result equals the call
    with ``excess[:, j]`` alone, bit for bit.
    """
    vec = np.asarray(vec, dtype=float)
    excess = np.asarray(excess, dtype=float)
    if t == 0.0:
        return np.repeat(vec[:, None], excess.shape[1], axis=1) if excess.ndim > 1 else vec.copy()
    x = gth_factor(offdiag, excess[..., None] - _POLES / t)
    return (x.solve_nonneg(vec) * (_WEIGHTS / t)).real.sum(axis=-1)
