"""Closed-form classification and recursion solvers for birth-death chains.

A birth-death chain lives on the half line 0, 1, 2, ... with edges exactly
between consecutive integers and no killing.  For this class the heat-
vanishing property of the Neumann semigroup has an exact characterization:

    Feller  <=>  m(X) = infinity,  or both
                 sum 1/b(r,r+1)  and  sum m(B_r^c)/b(r,r+1)  diverge,

where B_r^c is the tail {r+1, r+2, ...}.  Equivalently, no nontrivial
l1 alpha-harmonic function exists.  Feller also forces essential
self-adjointness, whose own exact criterion is the divergence of the
moment-type series  sum (sum_{k<=r} 1/b)^2 m(r+1).

Series divergence can never be read off finitely many partial sums, so
every boolean verdict requires a certificate: a comparison-style bound or
an explicit caller assertion.  Without one the verdict is undetermined.
The partial sums are reported as floats.  On exact data (every rate and
measure, and the total mass, an int or a Fraction) each series is summed
in integers over one running denominator, and every partial sum is the
exact sum rounded once; inexact data are summed in their own arithmetic.
The alpha-harmonic recursion is exact whenever the data are rational and
runs in a 17-digit ``decimal`` context otherwise.  The comb's tooth decay
rate is a Dirichlet resolvent, solved by the library's engine.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import KW_ONLY, asdict, dataclass, field, fields
from fractions import Fraction
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import InputError, NeumannLabError, TruncationInsufficientError
from .graphs import VertexFunction
from .operators import _running_sums, assemble_dirichlet
from .semigroup import SemigroupEngine

__all__ = [
    "BdChain",
    "SeriesCertificate",
    "SeriesRecord",
    "BdClassification",
    "classify",
    "HarmonicSolution",
    "solve_alpha_harmonic",
    "comb_beta_extraction",
    "CombBetaResult",
    "divergent",
    "convergent",
]

CERTIFICATE_KEYS = ("measure", "inv_b", "tail", "hamburger")


@dataclass(frozen=True)
class BdChain:
    """Birth-death chain data: positive finite rate(r) = b(r, r+1) and m(r).

    ``measure_total`` is the total mass when finite and known; the
    classifier reads the tail masses m({r+1, r+2, ...}) off it, so without
    it the tail series has no partial sums.  ``certificates`` carries
    default series certificates for the classifier (``CERTIFICATE_KEYS``).
    """

    rate: Callable[[int], object]
    measure: Callable[[int], object]
    name: str = "bd"
    measure_total: object | None = None
    certificates: dict = field(default_factory=dict)

    def rate_at(self, r: int):
        value = self.rate(r)
        if not 0 < value < math.inf:  # also rejects nan
            raise InputError(f"rate b({r},{r + 1}) = {value} must be positive and finite")
        return value

    def measure_at(self, r: int):
        value = self.measure(r)
        if not 0 < value < math.inf:
            raise InputError(f"measure m({r}) = {value} must be positive and finite")
        return value


@dataclass(frozen=True)
class SeriesCertificate:
    """Auditable justification for a divergence/convergence verdict.

    An asymptotic power ``term ~ r^-power`` or a geometric ``ratio`` makes
    it a "comparison" certificate and must be consistent with the claimed
    verdict; without either, ``method`` is "assertion" (caller-supplied).
    """

    verdict: str                  # "divergent" | "convergent"
    method: str = field(init=False)
    _: KW_ONLY
    note: str = ""
    power: float | None = None
    ratio: float | None = None

    def __post_init__(self):
        if self.verdict not in ("divergent", "convergent"):
            raise InputError(f"unknown verdict {self.verdict!r}")
        if self.power is not None:
            ok = (self.power <= 1) if self.verdict == "divergent" else (self.power > 1)
            if not ok:
                raise InputError(
                    f"power {self.power} inconsistent with verdict {self.verdict!r}")
        if self.ratio is not None:
            ok = (self.ratio >= 1) if self.verdict == "divergent" else (self.ratio < 1)
            if not ok:
                raise InputError(
                    f"ratio {self.ratio} inconsistent with verdict {self.verdict!r}")
        comparison = self.power is not None or self.ratio is not None
        object.__setattr__(self, "method", "comparison" if comparison else "assertion")


def divergent(note: str = "", *, power: float | None = None,
              ratio: float | None = None) -> SeriesCertificate:
    return SeriesCertificate("divergent", note=note, power=power, ratio=ratio)


def convergent(note: str = "", *, power: float | None = None,
               ratio: float | None = None) -> SeriesCertificate:
    return SeriesCertificate("convergent", note=note, power=power, ratio=ratio)


def _float_or_none(value) -> float | None:
    """float(value), or None for None or an exact value beyond float range
    (reports write it as JSON null and as an empty CSV cell)."""
    if value is None:
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _ratio_or_none(num: int, den: int) -> float | None:
    """num/den (den > 0) correctly rounded, as ``float(Fraction(num, den))``
    rounds it, or None beyond float range."""
    try:
        return num / den
    except OverflowError:
        return None


@dataclass(frozen=True)
class SeriesRecord:
    """Partial sums of a positive series plus its certified verdict.

    ``partial_sums`` holds floats: on exact data each is the exact partial
    sum rounded once, on inexact data the float of the sum in the data's
    arithmetic; None where the value is beyond float range.
    """

    name: str
    partial_sums: list[float | None]
    verdict: str                  # "divergent" | "convergent" | "undetermined"
    certificate: SeriesCertificate | None = None

    @property
    def last(self):
        """The last partial sum, or None for a series with no terms."""
        return self.partial_sums[-1] if self.partial_sums else None


@dataclass(frozen=True)
class BdClassification:
    """Exact classification of one chain at the given horizon.

    Booleans are None when the underlying series verdicts are undetermined;
    ``undetermined`` flags that state.  Invariants: the Feller flag matches
    the two-series/infinite-measure criterion, the l1-harmonic flag is its
    negation, and Feller implies essential self-adjointness.
    """

    chain: str
    horizon: int
    measure_total: object | None
    measure_verdict: str          # "finite" | "infinite" | "undetermined"
    measure_certificate: SeriesCertificate | None
    series_inv_b: SeriesRecord
    series_tail: SeriesRecord
    hamburger: SeriesRecord
    neumann_feller: bool | None
    nontrivial_l1_harmonic_exists: bool | None
    ess_self_adjoint: bool | None

    @property
    def undetermined(self) -> bool:
        return None in (self.neumann_feller, self.nontrivial_l1_harmonic_exists)

    def to_json_dict(self) -> dict:
        out = {"schema": 1, "experiment": "classify"}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SeriesRecord):
                value = {"name": value.name,
                         "last_partial_sum": value.last,
                         "verdict": value.verdict,
                         "certificate": (None if value.certificate is None
                                         else asdict(value.certificate))}
            elif isinstance(value, SeriesCertificate):
                value = asdict(value)
            out[f.name] = value
        out["measure_total"] = _float_or_none(self.measure_total)
        out["undetermined"] = self.undetermined
        return out


def _negative_tail(total, r: int) -> InputError:
    return InputError(f"measure_total {total} smaller than prefix mass at r={r}")


def _exact_series(rates, measures, total) -> tuple[list, list, list]:
    """Partial sums of the inv_b, tail and hamburger series on int/Fraction
    data, each the exact sum rounded once.  The tail series is empty
    without a total mass."""
    b = [v.as_integer_ratio() for v in rates]
    m = [v.as_integer_ratio() for v in measures]
    inv_b = list(_running_sums((bd, bn) for bn, bd in b))
    tail = []
    if total is not None:
        tn, td = total.as_integer_ratio()
        # the tail mass m({r+1, ...}) = total - prefix mass, over b(r, r+1)
        for r, ((pn, pd), (bn, bd)) in enumerate(zip(_running_sums(m), b)):
            rest = tn * pd - pn * td
            if rest < 0:
                raise _negative_tail(total, r)
            tail.append((rest * bd, td * pd * bn))
    hamburger = ((sn * sn * mn, sd * sd * md) for (sn, sd), (mn, md) in zip(inv_b, m[1:]))
    return tuple([_ratio_or_none(n, d) for n, d in sums]
                 for sums in (inv_b, _running_sums(tail), _running_sums(hamburger)))


def _inexact_series(rates, measures, total) -> tuple[list, list, list]:
    """The same partial sums in the arithmetic of the data (floats, mpf),
    each converted to a float."""
    inv_b = list(accumulate(Fraction(1) / b for b in rates))
    tail = []
    if total is not None:
        for r, prefix_mass in enumerate(accumulate(measures)):
            rest = total - prefix_mass
            if rest < 0:
                raise _negative_tail(total, r)
            tail.append(rest / rates[r])
    hamburger = accumulate(s ** 2 * m for s, m in zip(inv_b, measures[1:]))
    return tuple([_float_or_none(v) for v in sums]
                 for sums in (inv_b, accumulate(tail), hamburger))


def classify(chain: BdChain, horizon: int,
             certificates: dict | None = None) -> BdClassification:
    """Evaluate the classification series to the horizon and combine their
    certified verdicts into the Feller / l1-harmonic / self-adjointness
    booleans.

    ``certificates`` overrides the chain's defaults per key (one of
    ``CERTIFICATE_KEYS``); any other key is rejected.  The measure
    certificate may also be the string "finite" or "infinite", which stands
    for a bare convergent or divergent assertion about sum m(r); the report
    carries it as a SeriesCertificate.  A divergent one contradicts a
    ``measure_total`` and is rejected.  Missing certificates leave the
    corresponding verdicts (and dependent booleans) undetermined rather
    than guessing from partial sums.

    The partial sums are floats.  When every rate, every measure and the
    total mass are int or Fraction, they are summed exactly in integers and
    each partial sum is rounded once, so it equals ``float`` of the exact
    Fraction sum, or None where that is beyond float range.  Other data
    are summed in their own arithmetic.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    certs = {**chain.certificates, **(certificates or {})}
    for key in certs:
        if key not in CERTIFICATE_KEYS:
            raise InputError(f"unknown certificate key {key!r}")
    mcert = certs.get("measure")
    if mcert in ("finite", "infinite"):
        mcert = convergent() if mcert == "finite" else divergent()
    elif mcert is not None and not isinstance(mcert, SeriesCertificate):
        raise InputError("measure certificate must be 'finite', 'infinite' or a "
                         f"SeriesCertificate, got {mcert!r}")
    measure_verdict = ("undetermined" if mcert is None
                       else "infinite" if mcert.verdict == "divergent" else "finite")
    if chain.measure_total is not None:
        if measure_verdict == "infinite":
            raise InputError(f"a divergent measure certificate contradicts "
                             f"measure_total {chain.measure_total}")
        measure_verdict = "finite"

    rates = [chain.rate_at(r) for r in range(horizon + 1)]
    measures = [chain.measure_at(r) for r in range(horizon + 1)]
    total = chain.measure_total
    exact = all(isinstance(v, (int, Fraction))
                for v in (*rates, *measures, 0 if total is None else total))
    series = _exact_series if exact else _inexact_series
    inv_b_partials, tail_partials, hamb_partials = series(rates, measures, total)

    def record(name: str, partials: list, default_verdict: str | None = None) -> SeriesRecord:
        cert = certs.get(name)
        if cert is None:
            verdict = default_verdict or "undetermined"
            return SeriesRecord(name, partials, verdict, None)
        if not isinstance(cert, SeriesCertificate):
            raise InputError(f"certificate for {name!r} must be a SeriesCertificate")
        return SeriesRecord(name, partials, cert.verdict, cert)

    inv_b_rec = record("inv_b", inv_b_partials)
    # with infinite total mass every tail is infinite, so the tail series
    # diverges without further evidence
    tail_default = "divergent" if measure_verdict == "infinite" else None
    tail_rec = record("tail", tail_partials, tail_default)
    hamb_rec = record("hamburger", hamb_partials)

    if measure_verdict == "infinite":
        feller: bool | None = True
    elif measure_verdict == "finite":
        if inv_b_rec.verdict == "undetermined" or tail_rec.verdict == "undetermined":
            feller = None
        else:
            feller = (inv_b_rec.verdict == "divergent" and tail_rec.verdict == "divergent")
    else:
        feller = None

    exists = None if feller is None else (not feller)
    esa = {"divergent": True, "convergent": False, "undetermined": None}[hamb_rec.verdict]
    if feller is True and esa is False:
        raise NeumannLabError(
            "inconsistent certificates: Feller holds but the self-adjointness "
            "series is certified convergent")
    return BdClassification(
        chain=chain.name,
        horizon=horizon,
        measure_total=chain.measure_total,
        measure_verdict=measure_verdict,
        measure_certificate=mcert,
        series_inv_b=inv_b_rec,
        series_tail=tail_rec,
        hamburger=hamb_rec,
        neumann_feller=feller,
        nontrivial_l1_harmonic_exists=exists,
        ess_self_adjoint=esa,
    )


# -- alpha-harmonic recursion -------------------------------------------------


@dataclass(frozen=True)
class HarmonicSolution:
    """A solution of (Delta + alpha) u = 0 on a computed region.

    ``residual`` is the sup of |(Delta + alpha) u| over the interior where
    all neighbor values are known; ``partial_l1`` the running sums
    sum_{r <= horizon} u(r) m(r).  ``values`` and ``partial_l1`` hold exact
    Fractions on rational inputs and ``Decimal``s otherwise.
    ``lemma_lower_bounds``, when present, carry the running tail-sum lower
    bounds that l1 partial sums must dominate.
    """

    alpha: float
    values: VertexFunction
    residual: float
    partial_l1: list
    lemma_lower_bounds: list | None = None
    trivial: bool = False


# a binary64-class mantissa whose exponent can neither overflow nor underflow
_DECIMAL = decimal.Context(prec=17, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _decimal(value) -> decimal.Decimal:
    """value rounded once to nearest in ``_DECIMAL``, from its exact ratio."""
    try:
        num, den = value.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        raise InputError(f"cannot lift {value!r} of type {type(value).__name__}: "
                         "it has no finite as_integer_ratio()") from None
    return _DECIMAL.divide(num, den)


def solve_alpha_harmonic(chain: BdChain, alpha, u0, horizon: int) -> HarmonicSolution:
    """March the three-term recursion of (Delta + alpha) u = 0 from u(0).

    The step s(r) = u(r+1) - u(r) is carried, never recomputed from the
    values: b(r,r+1) s(r) = b(r-1,r) s(r-1) + alpha m(r) u(r), which is alpha
    times the l1 partial sum to r.  Every operation adds, multiplies or
    divides positive numbers, so a value carries at most about 3r roundings;
    for u0 > 0 every step is positive (asserted).  Rational inputs are solved
    exactly.  Any other input is rounded once into a 17-digit ``decimal``
    context with an unbounded exponent, so values, ratios and boundedness
    verdicts survive where floats would overflow or underflow; an input
    without ``as_integer_ratio`` raises InputError.  Returns partial l1 sums
    together with the running lower bounds alpha*u(0)*m(0) *
    sum_{k<r} (truncated tail)/b(k,k+1) that they must dominate.
    """
    if horizon < 2:
        raise InputError("horizon must be >= 2")
    if not 0 < alpha < math.inf:
        raise InputError(f"alpha must be positive and finite, got {alpha}")
    if not 0 <= u0 < math.inf:
        raise InputError(f"u0 must be nonnegative and finite, got {u0}")

    rates = [chain.rate_at(r) for r in range(horizon + 1)]
    measures = [chain.measure_at(r) for r in range(horizon + 1)]

    if u0 == 0:
        zero = VertexFunction({})
        return HarmonicSolution(alpha=float(alpha), values=zero, residual=0.0,
                                partial_l1=[0] * (horizon + 1),
                                lemma_lower_bounds=[0] * (horizon + 1),
                                trivial=True)

    exact = all(isinstance(v, (int, Fraction)) for v in (alpha, u0, *rates, *measures))
    lift = Fraction if exact else _decimal
    with decimal.localcontext(_DECIMAL):
        alpha_n = lift(alpha)
        rates = [lift(b) for b in rates]
        measures = [lift(m) for m in measures]
        values = [lift(u0)]
        partial_l1 = [values[0] * measures[0]]
        for r in range(horizon):
            step = alpha_n * partial_l1[r] / rates[r]
            if not step > 0:
                raise NeumannLabError(
                    f"alpha-harmonic solution failed to increase at r = {r}: step {step!r}")
            # the rounded values stop increasing once a step drops below an ulp
            values.append(values[r] + step)
            partial_l1.append(partial_l1[r] + values[r + 1] * measures[r + 1])

        # running lower bounds: alpha u(0) m(0) * sum_{k<H} (sum_{k<r<=H} m(r))/b(k)
        # computed as M(H) C(H) - sum_{k<H} M(k)/b(k), M and C the prefix sums
        # of m and 1/b
        alpha_tilde = alpha_n * values[0] * measures[0]
        masses = list(accumulate(measures))
        inv_prefix = accumulate(1 / b for b in rates[:horizon])
        weighted = accumulate(mass / b for mass, b in zip(masses, rates[:horizon]))
        bounds = [0] + [alpha_tilde * (mass * inv - w)
                        for mass, inv, w in zip(masses[1:], inv_prefix, weighted)]

        # residual of the three-term equation, independent of the carried
        # steps (exact arithmetic -> 0); normalized before leaving Decimal
        residual = 0.0
        if not exact:
            for r in range(1, horizon):
                lhs = (rates[r - 1] * (values[r] - values[r - 1])
                       + rates[r] * (values[r] - values[r + 1])) / measures[r] + alpha_n * values[r]
                scale = rates[r] * values[r] / measures[r]
                if scale != 0:
                    residual = max(residual, abs(float(lhs / scale)))

    vf = VertexFunction({r: v for r, v in enumerate(values)})
    return HarmonicSolution(alpha=float(alpha), values=vf, residual=residual,
                            partial_l1=partial_l1, lemma_lower_bounds=bounds,
                            trivial=False)


# -- comb tooth decay ---------------------------------------------------------

# the decaying root of x^2 - 3x + 1, the tooth's analytic decay rate
COMB_BETA = (3.0 - math.sqrt(5.0)) / 2.0

# deepest tooth whose window end k = 2*depth//3 keeps beta^k a normal float
MAX_COMB_DEPTH = (3 * int(math.log(np.finfo(float).tiny) / math.log(COMB_BETA)) + 2) // 2


@dataclass(frozen=True)
class CombBetaResult:
    """Fitted geometric decay rate along the comb's first tooth.  Its JSON is
    written key by key: it drops ``ratios`` and adds ``analytic_target``."""

    beta: float
    spread: float
    depth: int
    window: tuple[int, int]
    ratios: list[float]

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "experiment": "comb-beta",
            "beta": self.beta,
            "spread": self.spread,
            "depth": self.depth,
            "window": list(self.window),
            "analytic_target": COMB_BETA,
        }


def comb_beta_extraction(depth: int, spread_tol: float = 1e-9) -> CombBetaResult:
    """Decay rate of the 1-harmonic function along the comb's base tooth.

    Solves (Delta + 1) u = 0 on the tooth's vertices (k, 0), 1 <= k <= depth,
    with u(0,0) = 1 and u = 0 beyond the tooth's end.  Once u(0,0) is fixed
    the tooth has no edge to the rest of the comb, so this is the resolvent
    of the tooth's Dirichlet restriction applied to the origin's edge rate;
    then the ratio u(k+1,0)/u(k,0) is fitted over the middle third of the
    tooth.  The interior recursion 3u(k) = u(k-1) + u(k+1) drives the
    ratios to the decaying root of x^2 - 3x + 1 = 0; the window spread
    certifies stabilization.  Deeper than ``MAX_COMB_DEPTH`` the window's
    tooth values underflow, so such depths are rejected.
    """
    from . import models

    if depth < 6:
        raise InputError("depth must be >= 6")
    if depth > MAX_COMB_DEPTH:
        raise InputError(
            f"depth must be <= {MAX_COMB_DEPTH}: deeper, beta^k at the window end "
            f"k = 2*depth//3 falls below the smallest normal float")
    tooth_ids = [models.comb_vertex_id(k, 0) for k in range(1, depth + 1)]
    op = assemble_dirichlet(models.make_comb(), tooth_ids)
    # u(0,0) = 1 moves to the right-hand side: the only edge leaving the
    # tooth at (1, 0) goes to the origin, so its rate is that row's killing
    rhs = np.zeros(depth)
    rhs[0] = op.excess[0]
    tooth = [1.0] + SemigroupEngine(op).resolvent_vec(1.0, rhs).tolist()
    lo, hi = depth // 3, 2 * depth // 3
    ratios = [tooth[k + 1] / tooth[k] for k in range(lo, hi)]
    spread = max(ratios) - min(ratios)
    if spread > spread_tol:
        raise TruncationInsufficientError(
            f"tooth ratios did not stabilize: spread {spread:.3e} over window "
            f"[{lo},{hi})", last_increment=spread)
    beta = sum(ratios) / len(ratios)
    return CombBetaResult(beta=beta, spread=spread, depth=depth,
                          window=(lo, hi), ratios=ratios)
