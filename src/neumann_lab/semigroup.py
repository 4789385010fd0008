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
certificate.  Residuals are verified in exact rational arithmetic on that
data, so the check itself cannot drown in rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _elim
from .errors import InputError
from .graphs import VertexFunction
from .operators import RestrictedOperator

__all__ = [
    "SemigroupEngine",
    "ResolventResult",
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
        if t < 0:
            raise InputError(f"negative time t = {t}")
        vec = np.asarray(vec, dtype=float)
        op = self.operator
        out = _elim.cf_heat(op.offdiag, op.excess, t, vec)
        if (vec >= 0.0).all():
            thresh = CLAMP_RELATIVE * (np.max(np.abs(vec)) if vec.size else 0.0)
            small_neg = (out < 0.0) & (out > -thresh)
            self.telemetry.clamped_entries += int(np.count_nonzero(small_neg))
            out[small_neg] = 0.0
        return out

    # -- resolvent ----------------------------------------------------------

    def resolvent_vec(self, alpha: float, vec: np.ndarray) -> np.ndarray:
        """(L + alpha)^{-1} vec via subtraction-free elimination."""
        if alpha <= 0:
            raise InputError(f"resolvent parameter must be positive, got {alpha}")
        op = self.operator
        fac = _elim.gth_factor(op.offdiag, op.excess + alpha)
        return fac.solve(np.asarray(vec, dtype=float))

    def resolvent_residual(self, alpha: float, u: np.ndarray, f: np.ndarray) -> float:
        """l2(m) norm of (L+alpha)u - f on the operator's exact data.

        Row i of (L+alpha)u - f is s_i/m_i with
        s_i = sum_j b_ij (u_i - u_j) + (k_i + alpha m_i) u_i - m_i f_i, so the
        squared norm is sum_i s_i^2/m_i.  Every operand is an integer ratio
        (floats are dyadic), so s_i is summed exactly over one common
        denominator and only its square enters a Fraction: the check itself
        cannot drown in rounding, for float and rational data alike.
        """
        op = self.operator
        us = [v.as_integer_ratio() for v in np.asarray(u, dtype=float).tolist()]
        fs = [v.as_integer_ratio() for v in np.asarray(f, dtype=float).tolist()]
        an, ad = Fraction(alpha).as_integer_ratio()
        total = Fraction(0)
        for (un, ud), (fn, fd), row, k, m in zip(us, fs, op.weights, op.killing_mass,
                                                  op.measures):
            mn, md = m.as_integer_ratio()
            kn, kd = k.as_integer_ratio()
            terms = [(kn * un, kd * ud), (an * mn * un, ad * md * ud), (-mn * fn, md * fd)]
            for j, b in row.items():
                bn, bd = b.as_integer_ratio()
                vn, vd = us[j]
                terms.append((bn * (un * vd - vn * ud), bd * ud * vd))
            num, den = 0, 1
            for n, d in terms:
                num, den = num * d + n * den, den * d
            total += Fraction(num * num * md, den * den * mn)
        try:
            return float(total) ** 0.5
        except OverflowError:
            # the squared norm is beyond float range while the norm is not:
            # halve the exponent exactly before converting
            half = (total.numerator.bit_length() - total.denominator.bit_length()) // 2
            return math.ldexp(float(total / (1 << 2 * half)) ** 0.5, half)


def resolvent_apply(engine: SemigroupEngine, alpha: float, f: VertexFunction) -> ResolventResult:
    """(L + alpha)^{-1} f with an exact-arithmetic residual certificate."""
    op = engine.operator
    vec = op.local_vector(f)
    u = engine.resolvent_vec(alpha, vec)
    residual = engine.resolvent_residual(alpha, u, vec)
    return ResolventResult(op.vertex_function(u), alpha, residual)

