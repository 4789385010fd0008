"""Sparse elimination behind the semigroup engine.

One subtraction-free elimination (Grassmann, Taksar & Heyman 1985) serves
every heat and resolvent action, in a minimum-remaining-degree order (exact
leaf-first elimination on trees, hence fill-free for chains and combs).

* :func:`gth_factor` eliminates A - s for a restricted Laplacian A and a
  shift s.  Diagonals are never stored: a pivot is the row sum of the live
  off-diagonal entries plus an "excess" (killing mass over measure, minus
  s), and eliminating a vertex adds ``l_a * excess_i`` to each neighbour's
  excess.  For s = -alpha every update adds nonnegative terms, so
  (A + alpha) u = f is solved componentwise to machine precision for
  f >= 0 at any dynamic range; signed f is split by sign.
* :func:`cf_heat` applies exp(-tA) through the rational approximation in
  :mod:`._expcf` (Trefethen, Weideman & Schmelzer 2006).  A pole p needs
  (A - p/t)^{-1}: the same recursion with a complex excess.  Pivots keep the
  row sums they carry, so the O(1) components on huge-degree vertices are
  not cancelled away and float64 suffices.

:func:`cf_heat_mp` solves the same approximation by Gaussian elimination in
mpmath, at a precision scaled to the dynamic range.  It is the reference
that tests compare :func:`cf_heat` against; no engine calls it.
"""

from __future__ import annotations

import heapq
import math
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np

from ._expcf import POLES, RESIDUES

__all__ = ["elimination_order", "GTHFactors", "gth_factor", "cf_heat",
           "cf_heat_mp", "stiff_dps"]

# mpmath's precision state is process-global, so concurrent reference solves
# at different working precisions would corrupt each other
_MP_LOCK = threading.Lock()


def elimination_order(neighbor_sets: list[set[int]]) -> list[int]:
    """Minimum-remaining-degree elimination order with fill tracking."""
    n = len(neighbor_sets)
    live = [set(s) for s in neighbor_sets]
    heap = [(len(live[i]), i) for i in range(n)]
    heapq.heapify(heap)
    gone = [False] * n
    order = []
    while heap:
        d, i = heapq.heappop(heap)
        if gone[i] or d != len(live[i]):
            continue
        gone[i] = True
        order.append(i)
        nbrs = [a for a in live[i] if not gone[a]]
        for a in nbrs:
            live[a].discard(i)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                a, b = nbrs[ai], nbrs[bi]
                if b not in live[a]:
                    live[a].add(b)
                    live[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (len(live[a]), a))
    return order


class GTHFactors:
    """LU-like factors from subtraction-free elimination.

    ``order`` is the elimination sequence; per eliminated vertex we keep its
    pivot, its upper row (edges to then-live neighbors) and the multipliers
    of those neighbors' rows.  ``dtype`` is float for a real shift and
    complex for a complex one.
    """

    __slots__ = ("n", "order", "pivots", "rows", "mults", "dtype")

    def __init__(self, n, order, pivots, rows, mults, dtype):
        self.n = n
        self.order = order
        self.pivots = pivots
        self.rows = rows
        self.mults = mults
        self.dtype = dtype

    def solve_nonneg(self, f: np.ndarray) -> np.ndarray:
        """Forward/back substitution; all additions for f >= 0 and a real shift."""
        y = np.asarray(f, dtype=self.dtype).tolist()
        for i, mult in zip(self.order, self.mults):
            yi = y[i]
            if yi:
                for a, la in mult.items():
                    y[a] += la * yi
        x = [0.0] * self.n
        for pos in range(len(self.order) - 1, -1, -1):
            i = self.order[pos]
            acc = y[i]
            for j, coef in self.rows[pos].items():
                acc += coef * x[j]
            x[i] = acc / self.pivots[pos]
        return np.array(x, dtype=self.dtype)

    def solve(self, f: np.ndarray) -> np.ndarray:
        neg = np.minimum(f, 0.0)
        if not neg.any():
            return self.solve_nonneg(f)
        pos = np.maximum(f, 0.0)
        return self.solve_nonneg(pos) - self.solve_nonneg(-neg)


def gth_factor(offdiag: list[dict[int, float]], excess: np.ndarray,
               order: list[int] | None = None) -> GTHFactors:
    """Eliminate the matrix with rows ``diag_i = sum_j offdiag[i][j] + excess_i``,
    off-diagonal entries ``-offdiag[i][j]``, in ``order`` (by default the
    minimum-degree order of ``offdiag``'s pattern).

    ``offdiag`` values must be nonnegative.  A real ``excess`` must be
    strictly positive (e.g. alpha plus killing mass over measure); a
    complex one is the excess of a complex shift, whose real part may be
    negative as long as the matrix stays nonsingular.
    """
    n = len(offdiag)
    rows = [dict(r) for r in offdiag]
    exc = np.asarray(excess)
    dtype = np.dtype(complex) if np.iscomplexobj(exc) else np.dtype(float)
    exc = exc.astype(dtype).tolist()
    if order is None:
        order = elimination_order([set(r) for r in offdiag])
    pivots = []
    urows = []
    mults = []
    for i in order:
        row = rows[i]
        pivot = sum(row.values()) + exc[i]
        nbrs = list(row.items())
        mult = {}
        for a, _coef_ia in nbrs:
            la = rows[a].pop(i) / pivot
            mult[a] = la
            exc[a] += la * exc[i]
            arow = rows[a]
            for b, coef_ib in nbrs:
                if b != a:
                    arow[b] = arow.get(b, 0.0) + la * coef_ib
        pivots.append(pivot)
        urows.append(dict(nbrs))
        mults.append(mult)
        rows[i] = None
    return GTHFactors(n, order, pivots, urows, mults, dtype)


def cf_heat(offdiag: list[dict[int, float]], excess: np.ndarray, t: float,
            vec: np.ndarray) -> np.ndarray:
    """u ~= exp(-tA) vec for A = diag(rowsum + excess) - offdiag, in float64.

    With x_k = (A - POLES[2k]/t)^{-1} vec, the sum over the conjugate pair
    (POLES[2k], POLES[2k+1]) is Re((RESIDUES[2k] + conj(RESIDUES[2k+1])) x_k)/t,
    so one elimination order and one shifted factorization per pair cover
    the whole table.
    """
    vec = np.asarray(vec, dtype=float)
    if t == 0.0:
        return vec.copy()
    order = elimination_order([set(r) for r in offdiag])
    excess = np.asarray(excess, dtype=float)
    out = np.zeros(len(offdiag))
    for k in range(0, len(POLES), 2):
        x = gth_factor(offdiag, excess - POLES[k] / t, order).solve_nonneg(vec)
        weight = (RESIDUES[k] + RESIDUES[k + 1].conjugate()) / t
        out += (weight * x).real
    return out


def stiff_dps(scale: float, t: float = 1.0) -> int:
    """Working precision (decimal digits) for the high-precision heat path."""
    magnitude = max(scale * max(t, 1.0), 1.0)
    return 35 + max(0, int(math.log10(magnitude)))


def _to_mpf(value):
    """Exact lift of int/Fraction/float into the current mp precision."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    if isinstance(value, int):
        return mp.mpf(value)
    return mp.mpf(value)


def cf_heat_mp(offdiag_exact: list[dict[int, object]], excess_exact: list[object],
               t: float, vec: np.ndarray, scale: float) -> np.ndarray:
    """u ~= exp(-tA) vec for A = diag(rowsum + excess) - offdiag.

    Entries of ``offdiag_exact``/``excess_exact`` may be int, Fraction or
    float; they are lifted exactly into working precision chosen from
    ``scale``.  Cost is one shifted sparse solve per table pole.
    """
    n = len(offdiag_exact)
    if t == 0.0:
        return np.array(vec, dtype=float)
    order = elimination_order([set(r.keys()) for r in offdiag_exact])
    out = np.zeros(n)
    with _MP_LOCK, mp.workdps(stiff_dps(scale, t)):
        tt = mp.mpf(t)
        base_rows = []
        diag0 = []
        for i in range(n):
            row = {j: -tt * _to_mpf(b) for j, b in offdiag_exact[i].items()}
            base_rows.append(row)
            diag0.append(tt * (sum(_to_mpf(b) for b in offdiag_exact[i].values())
                               + _to_mpf(excess_exact[i])))
        acc = [mp.mpc(0)] * n
        for pole, resid in zip(POLES, RESIDUES):
            pm = mp.mpc(pole)
            rows = [dict(r) for r in base_rows]
            d = [diag0[i] - pm for i in range(n)]
            f = [mp.mpc(float(vec[i])) for i in range(n)]
            elim = []
            for i in order:
                nbrs = list(rows[i].items())
                elim.append((i, nbrs, d[i]))
                fi = f[i]
                di = d[i]
                for a, _ in nbrs:
                    mult = rows[a].pop(i) / di
                    f[a] -= mult * fi
                    arow = rows[a]
                    for bj, coef in nbrs:
                        if bj == a:
                            d[a] -= mult * coef
                        else:
                            arow[bj] = arow.get(bj, 0) - mult * coef
                rows[i] = None
            x = [None] * n
            for i, nbrs, di in reversed(elim):
                s = f[i]
                for j, coef in nbrs:
                    s -= coef * x[j]
                x[i] = s / di
            wm = mp.mpc(resid)
            for i in range(n):
                acc[i] += wm * x[i]
        for i in range(n):
            out[i] = float(mp.re(acc[i]))
    return out
