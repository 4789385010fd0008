"""Independent references that the tests check the package against.

They compute what the package computes by other routes: a dense
eigendecomposition, explicit RK4 integration, the elimination order on
(degree, index) tuples, the elimination one round at a time in vertex order
(the same arithmetic as the package's, in the same order), Gaussian elimination in mpmath at a precision scaled
to the dynamic range, the quadratic form and its
variational principle, the minimum-principle bound, the Laplace-transform
route to the resolvent (over the engine's heat action), and the pole/residue
sum of the rational approximation.  ``scale`` and ``heat_apply`` are
conveniences the tests share.  The references live with the tests so that
no package path can come to depend on them: the package must never import
this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Sequence

import mpmath as mp
import numpy as np

from neumann_lab._expcf import POLES, RESIDUES
from neumann_lab.errors import InputError, NeumannLabError
from neumann_lab.graphs import VertexFunction, WeightedGraph, formal_laplacian, weighted_degree
from neumann_lab.operators import (DENSE_SIZE_CAP, RestrictedOperator, _exact_ratio,
                                   assemble_neumann)
from neumann_lab.semigroup import SemigroupEngine

# above this weighted-degree scale, eigh eigenvalue errors (~eps * scale)
# would exceed the 1e-10 tolerances the experiments run at
SPECTRAL_SCALE_LIMIT = 1e5

PSD_TOLERANCE = 1e-10


# -- dense linear algebra on the operator's float matrix ----------------------


def scale(op: RestrictedOperator) -> float:
    """Largest diagonal entry of the matrix (weighted degree scale)."""
    return float(op.diagonal.max())


def dense_triples(op: RestrictedOperator) -> str:
    """``dump_matrix`` as a scan of the dense matrix for every (i, j)."""
    A = op.matrix
    lines = [f"# kind={op.kind.value} n={len(op)}"]
    for i in range(len(op)):
        for j in range(len(op)):
            if A[i, j] != 0.0:
                lines.append(f"{i} {j} {float(A[i, j])!r}")
    return "\n".join(lines) + "\n"


def symmetrized(op: RestrictedOperator) -> np.ndarray:
    """S = M^{1/2} A M^{-1/2}: symmetric, same spectrum as A."""
    sqm = np.sqrt(op.measure_vector)
    return op.matrix * sqm[:, None] / sqm[None, :]


def spectral(op: RestrictedOperator):
    """(eigenvalues, orthonormal eigenvectors of the symmetrized matrix) by
    dense ``eigh``.

    None when the weighted-degree scale exceeds ``SPECTRAL_SCALE_LIMIT``
    (the small eigenvalues would drown in rounding) or the operator exceeds
    ``DENSE_SIZE_CAP``.
    """
    if scale(op) > SPECTRAL_SCALE_LIMIT or len(op) > DENSE_SIZE_CAP:
        return None
    lam, U = np.linalg.eigh(symmetrized(op))
    radius = max(abs(lam[0]), abs(lam[-1]), 1e-300)
    if lam[0] < -PSD_TOLERANCE * radius:
        raise NeumannLabError(
            f"operator not positive semidefinite: min eigenvalue {lam[0]:.3e}")
    return lam, U


def dense_heat(op: RestrictedOperator, t: float, vec: np.ndarray) -> np.ndarray:
    """e^{-tL} vec from the dense eigendecomposition."""
    lam, U = spectral(op)
    sqm = np.sqrt(op.measure_vector)
    return U @ (np.exp(-t * np.maximum(lam, 0.0)) * (U.T @ (sqm * vec))) / sqm


# -- the elimination order ------------------------------------------------------


def elimination_order(neighbor_sets: list[set[int]]) -> list[dict[int, list[int]]]:
    """The package's round rule on (degree, index) tuples and fresh sets:
    rounds of pairwise non-adjacent vertices, each vertex mapped to its
    sorted live neighbours, taken greedily in (live degree, index) order
    among the vertices of degree <= max(2, minimum live degree)."""
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


def gth_solve_by_rounds(offdiag: list[dict[int, float]], excess: np.ndarray,
                        f: np.ndarray) -> np.ndarray:
    """The package's elimination solved for f >= 0, one round at a time,
    with the index work of each round done in that round and every array
    in vertex order.  It performs the package's floating-point operations
    in the package's order, so the two agree bit for bit."""
    n = len(offdiag)
    exc = np.asarray(excess)
    dtype = np.dtype(complex) if np.iscomplexobj(exc) else np.dtype(float)
    shape = exc.shape
    k = math.prod(shape[1:])
    exc = exc.astype(dtype).reshape(n, k)
    order = elimination_order([set(r) for r in offdiag])
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
        np.add.at(pivots.reshape(-1), ai, upper.ravel())
        pivots[rv] += exc[rv]
        mult /= pivots[ri]
        np.add.at(exc.reshape(-1), ab, (mult * exc[ri]).ravel())
        s = span[e0:e1]
        pa = np.repeat(np.arange(e0, e1), s)
        pb = first[pa] + np.arange(len(pa)) - np.repeat(np.cumsum(s) - s, s)
        keep = pa != pb
        pa, pb = pa[keep], pb[keep]
        slot = perm[np.searchsorted(keys, nb[pa] * n + nb[pb])]
        np.add.at(coef.reshape(-1), (slot[:, None] * k + cols).ravel(),
                  (coef[E + pa] * coef[pb]).ravel())
        rounds.append((rv, ri, rb, upper, mult, ai, ab))
    y = np.repeat(np.asarray(f, dtype=dtype)[:, None], k, axis=1)
    for _rv, ri, _rb, _upper, mult, _ai, ab in rounds:
        np.add.at(y.reshape(-1), ab, (mult * y[ri]).ravel())
    for rv, _ri, rb, upper, _mult, ai, _ab in reversed(rounds):
        np.add.at(y.reshape(-1), ai, (upper * y[rb]).ravel())
        y[rv] /= pivots[rv]
    return y.reshape(shape)


# -- the heat action by other routes ------------------------------------------


def heat_apply(engine: SemigroupEngine, t: float, f: VertexFunction) -> VertexFunction:
    """e^{-tL} f for f supported on the engine's subset."""
    op = engine.operator
    vec = op.local_vector(f)
    return op.vertex_function(engine.heat_vec(t, vec))


def heat_oracle(op: RestrictedOperator, t: float, v: VertexFunction,
                steps: int = 10_000) -> VertexFunction:
    """Classical 4th-order one-step integration of u' = -Lu with uniform
    steps.

    Requires (t/steps) * ||L|| < 0.5 (Gershgorin bound), otherwise the
    explicit scheme is unstable and a parameter error is raised.
    """
    if t < 0:
        raise InputError(f"negative time t = {t}")
    if steps < 1:
        raise InputError("steps must be >= 1")
    vec = op.local_vector(v)
    if t == 0.0:
        return op.vertex_function(vec)
    A = op.matrix
    norm_bound = 2.0 * scale(op)
    h = t / steps
    if h * norm_bound >= 0.5:
        raise InputError(
            f"step size {h:.3e} too large for operator norm ~{norm_bound:.3e}; "
            f"increase steps above {int(2 * t * norm_bound) + 1}")
    u = vec.copy()
    for _ in range(steps):
        k1 = A @ u
        k2 = A @ (u - 0.5 * h * k1)
        k3 = A @ (u - 0.5 * h * k2)
        k4 = A @ (u - h * k3)
        u = u - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return op.vertex_function(u)


def rational_exp(x) -> np.ndarray:
    """Evaluate the pole/residue sum of the package's table at nonnegative
    scalar or array x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for p, w in zip(POLES, RESIDUES):
        out = out + w / (x - p)
    return out.real


def stiff_dps(degree_scale: float, t: float = 1.0) -> int:
    """Working precision (decimal digits) for the mpmath heat path."""
    magnitude = max(degree_scale * max(t, 1.0), 1.0)
    return 35 + max(0, int(math.log10(magnitude)))


def _to_mpf(value):
    """Exact lift of int/Fraction/float into the current mp precision."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def cf_heat_mp(offdiag_exact: list[dict[int, object]], excess_exact: list[object],
               t: float, vec: np.ndarray, degree_scale: float) -> np.ndarray:
    """u ~= exp(-tA) vec for A = diag(rowsum + excess) - offdiag, by Gaussian
    elimination in mpmath, one shifted sparse solve per table pole.

    Entries of ``offdiag_exact``/``excess_exact`` may be int, Fraction or
    float; they are lifted exactly into a working precision chosen from
    ``degree_scale``.
    """
    n = len(offdiag_exact)
    if t == 0.0:
        return np.array(vec, dtype=float)
    order = elimination_order([set(r.keys()) for r in offdiag_exact])
    out = np.zeros(n)
    with mp.workdps(stiff_dps(degree_scale, t)):
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
            for i in chain.from_iterable(order):
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


def mp_heat(op: RestrictedOperator, t: float, vec: np.ndarray) -> np.ndarray:
    """The same rational approximation as the engine, solved in mpmath on
    the operator's exact ratios b/m and (killing mass)/m."""
    offdiag = [{j: _exact_ratio(b, m) for j, b in row.items()}
               for row, m in zip(op.weights, op.measures)]
    excess = [_exact_ratio(k, m) for k, m in zip(op.killing_mass, op.measures)]
    return cf_heat_mp(offdiag, excess, t, vec, scale(op))


def minimum_principle_lower_bound(g: WeightedGraph, t: float, x: int) -> float:
    """e^{-t Deg(x)}: the on-diagonal heat value can never fall below this."""
    if t < 0:
        raise InputError("t must be nonnegative")
    return math.exp(-t * float(weighted_degree(g, x)))


# -- quadratic form, variational principle, resolvent by quadrature -----------


def evaluate_form(op: RestrictedOperator, f: VertexFunction) -> float:
    """Energy of f under the operator's quadratic form.

    Neumann: (1/2) sum_{x,y in K} b(x,y)(f(x)-f(y))^2 + sum c f^2.
    Dirichlet: same plus the boundary mass, i.e. the energy of the
    extension of f by zero.  Agrees with <Lf, f>_m up to rounding.
    """
    vec = op.local_vector(f)
    total = 0.0
    for i in range(len(op)):
        for j, b in op.weights[i].items():
            if j > i:
                total += float(b) * (vec[i] - vec[j]) ** 2
        total += float(op.killing_mass[i]) * vec[i] ** 2
    return total


def laplacian_identity_check(g: WeightedGraph, subset: Sequence[int],
                             f: VertexFunction) -> float:
    """Max deviation in the identity linking the Neumann restriction to the
    formal Laplacian: L_K f = (Delta of f extended by 0) - f * (Delta 1_K).

    The killing term enters both Delta evaluations, so the f*(c/m) part of
    the subtrahend must be added back; otherwise the identity only holds for
    c = 0 (single vertex with killing is a counterexample).  Returns the
    worst absolute mismatch over the subset; algebraically zero.
    """
    op = assemble_neumann(g, subset)
    vec = op.local_vector(f)
    applied = op.matrix @ vec
    ones = VertexFunction({x: 1 for x in subset})
    ext = VertexFunction({x: f(x) for x in subset if f(x) != 0})
    worst = 0.0
    for i, x in enumerate(op.vertices):
        kill = float(g.killing(x)) / float(g.measure(x))
        rhs = (float(formal_laplacian(g, ext, x))
               - vec[i] * (float(formal_laplacian(g, ones, x)) - kill))
        worst = max(worst, abs(applied[i] - rhs))
    return worst


def variational_value(op: RestrictedOperator, alpha: float, f: VertexFunction,
                      v: VertexFunction) -> float:
    """Q(v) + alpha * || v - f/alpha ||_m^2, the functional whose unique
    minimizer over the subset is the resolvent (L+alpha)^{-1} f."""
    if alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    energy = evaluate_form(op, v)
    vvec = op.local_vector(v)
    fvec = op.local_vector(f)
    diff = vvec - fvec / alpha
    penalty = float(np.sum(diff * diff * op.measure_vector))
    return energy + alpha * penalty


def resolvent_via_heat_quadrature(engine: SemigroupEngine, alpha: float,
                                  vec: np.ndarray) -> np.ndarray:
    """Laplace-transform route to the resolvent: integral of e^{-alpha t} P_t v.

    Composite 8-point Gauss-Legendre on [0, 40/alpha] with 25 cubically
    graded panels (fine near t = 0, where stiff spectral components spike);
    the discarded tail is below e^{-40} ||v||.
    """
    if alpha <= 0:
        raise InputError("alpha must be positive")
    upper = 40.0 / alpha
    xs, ws = np.polynomial.legendre.leggauss(8)
    out = np.zeros_like(np.asarray(vec, dtype=float))
    edges = upper * (np.arange(26) / 25) ** 3
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for xi, wi in zip(xs, ws):
            t = mid + xi * half
            out = out + wi * half * math.exp(-alpha * t) * engine.heat_vec(t, vec)
    return out
