"""Heat semigroups e^{-tL} and resolvents (L+alpha)^{-1} of restricted operators.

One engine serves every operator, from unit weights to weighted degrees
near the float cap.  Both actions run through the subtraction-free sparse
elimination in :mod:`._elim`, in float64, one round of independent
vertices at a time:

* the heat action sums a uniform rational approximation of exp on
  [0, inf) whose shifted systems (tL - p) are complex-shift eliminations,
  all 7 factored together as the columns of one elimination;
* the resolvent is the same elimination with the one real shift -alpha,
  which is componentwise accurate for nonnegative data at any dynamic
  range; signed right-hand sides are split by sign.

Both actions read the float rows that operator assembly built once
(``offdiag``, ``excess``); the operator's exact data feeds only the residual
certificate.  The residual is certified on that data in integer arithmetic:
each row is exact and is rounded once, so the check itself cannot drown
in rounding, and the norm is within a few ulps of the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _elim
from .errors import InputError
from .graphs import VertexFunction
from .operators import RestrictedOperator, _running_sums

__all__ = [
    "SemigroupEngine",
    "ResolventResult",
    "heat_vecs",
    "resolvent_apply",
]

CLAMP_RELATIVE = 1e-12


@dataclass
class _Telemetry:
    """Counter for positivity clamps."""

    clamped_entries: int = 0


@dataclass(frozen=True)
class ResolventResult:
    """Solution of (L + alpha) u = f with its verified residual."""

    solution: VertexFunction
    alpha: float
    residual_norm: float


class SemigroupEngine:
    """Shared elimination data for heat and resolvent actions of one operator.

    The operator's float rows were built, behind the overflow guard, when it
    was assembled, so construction does no arithmetic.
    """

    def __init__(self, op: RestrictedOperator):
        self.operator = op
        self.telemetry = _Telemetry()

    @property
    def mode(self) -> str:
        """Always "elimination"; kept only because bench/spans.py reads it."""
        return "elimination"

    # -- heat -------------------------------------------------------------

    def heat_vec(self, t: float, vec: np.ndarray) -> np.ndarray:
        """e^{-tL} vec; clamps tiny negatives to 0 when vec >= 0."""
        return heat_vecs([self], t, vec)[0]

    # -- resolvent ----------------------------------------------------------

    def resolvent_vec(self, alpha: float, vec: np.ndarray) -> np.ndarray:
        """(L + alpha)^{-1} vec via subtraction-free elimination."""
        if not 0 < alpha < math.inf:
            raise InputError(f"resolvent parameter must be positive and finite, got {alpha}")
        op = self.operator
        fac = _elim.gth_factor(op.offdiag, op.excess + alpha)
        return fac.solve(np.asarray(vec, dtype=float))

    def resolvent_residual(self, alpha: float, u: np.ndarray, f: np.ndarray) -> float:
        """l2(m) norm of (L+alpha)u - f on the operator's exact data: exact
        rows, norm within a few ulps.

        Row i is s_i/m_i, s_i = sum_j b_ij (u_i - u_j) + (k_i + alpha m_i) u_i
        - m_i f_i.  Every operand is an integer ratio (floats are dyadic), so
        s_i is one exact integer over the lcm of its terms' denominators: the
        cancellation cannot drown in rounding.  Each s_i^2/m_i is rounded
        once, at one power-of-two scale shared by all rows so that nothing
        overflows, and the rounded terms are summed by ``fsum``.
        """
        op = self.operator
        us = [v.as_integer_ratio() for v in np.asarray(u, dtype=float).tolist()]
        fs = [v.as_integer_ratio() for v in np.asarray(f, dtype=float).tolist()]
        # u = U/q over one power of two q, so u_i - u_j = (U_i - U_j)/q
        q = math.lcm(*(d for _, d in us))
        U = [n * (q // d) for n, d in us]
        an, ad = alpha.as_integer_ratio()
        rows = []  # (S^2 md, D^2 mn) for each row with q s_i = S/D != 0
        for ui, (fn, fd), row, k, m in zip(U, fs, op.weights, op.killing_mass, op.measures):
            mn, md = m.as_integer_ratio()
            kn, kd = k.as_integer_ratio()
            terms = [(kn * ui, kd), (an * mn * ui, ad * md), (-mn * fn * q, md * fd)]
            for j, b in row.items():
                bn, bd = b.as_integer_ratio()
                terms.append((bn * (ui - U[j]), bd))
            *_, (num, den) = _running_sums(terms)
            if num:
                rows.append((num * num * md, den * den * mn))
        # s_i^2/m_i = S^2 md / (D^2 mn q^2); over 2^(2e) the largest is in (1/2, 4)
        e = max((n.bit_length() - d.bit_length() for n, d in rows), default=0) // 2
        total = math.fsum(n / (d << 2 * e) if e >= 0 else (n << -2 * e) / d for n, d in rows)
        return math.ldexp(math.sqrt(total), e - (q.bit_length() - 1))


def heat_vecs(engines: list[SemigroupEngine], t: float, vec: np.ndarray) -> list[np.ndarray]:
    """e^{-tL} vec for each engine's operator, from one factorization.

    The operators must share their off-diagonal rows, as the Dirichlet and
    Neumann restrictions to one subset do: they differ only in the excess,
    so ``cf_heat`` factors all their shifts together.  Each result equals
    the engine's own ``heat_vec`` bit for bit, and its tiny negatives are
    clamped to 0 (when vec >= 0) and counted in that engine's telemetry.
    """
    if not 0 <= t < math.inf:
        raise InputError(f"time t must be nonnegative and finite, got {t}")
    vec = np.asarray(vec, dtype=float)
    offdiag = engines[0].operator.offdiag
    if any(e.operator.offdiag != offdiag for e in engines[1:]):
        raise InputError("heat_vecs needs operators with the same off-diagonal rows")
    excess = np.stack([e.operator.excess for e in engines], axis=1)
    outs = list(_elim.cf_heat(offdiag, excess, t, vec).T)
    if (vec >= 0.0).all():
        thresh = CLAMP_RELATIVE * (np.max(np.abs(vec)) if vec.size else 0.0)
        for e, out in zip(engines, outs):
            small_neg = (out < 0.0) & (out > -thresh)
            e.telemetry.clamped_entries += int(np.count_nonzero(small_neg))
            out[small_neg] = 0.0
    return outs


def resolvent_apply(engine: SemigroupEngine, alpha: float, f: VertexFunction) -> ResolventResult:
    """(L + alpha)^{-1} f with an exact-arithmetic residual certificate."""
    op = engine.operator
    vec = op.local_vector(f)
    u = engine.resolvent_vec(alpha, vec)
    residual = engine.resolvent_residual(alpha, u, vec)
    return ResolventResult(op.vertex_function(u), alpha, residual)

