import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from neumann_lab import models
from neumann_lab.birth_death import (
    BdChain,
    SeriesCertificate,
    classify,
    comb_beta_extraction,
    convergent,
    divergent,
    solve_alpha_harmonic,
)
from neumann_lab.errors import (
    InputError,
    NeumannLabError,
    TruncationInsufficientError,
)

import oracles

BETA_TARGET = (3.0 - math.sqrt(5.0)) / 2.0


class TestClassify:
    def test_unit_chain_feller_via_infinite_measure(self):
        m = models.PRESETS["bd:unit"]()
        c = classify(m.chain, 500)
        assert c.measure_verdict == "infinite"
        assert c.neumann_feller is True
        assert c.nontrivial_l1_harmonic_exists is False
        assert not c.undetermined

    def test_geo_chain_not_feller(self):
        # m(X) = 2 and sum 1/b = 2 both finite
        m = models.PRESETS["bd:geo"]()
        c = classify(m.chain, 200)
        assert c.measure_total == 2
        assert float(c.series_inv_b.last) == pytest.approx(2.0, abs=1e-12)
        assert c.neumann_feller is False
        assert c.nontrivial_l1_harmonic_exists is True
        assert c.ess_self_adjoint is False

    def test_tail_rate_chain_feller_with_finite_measure(self):
        m = models.PRESETS["bd:tail"]()
        c = classify(m.chain, 300)
        assert c.measure_verdict == "finite"
        assert c.measure_total == pytest.approx(math.pi ** 2 / 6)
        assert c.series_inv_b.verdict == "divergent"
        assert c.series_tail.verdict == "divergent"
        # tail series terms are identically 1, so partial sums count the horizon
        assert float(c.series_tail.last) == pytest.approx(301.0, rel=1e-9)
        assert c.neumann_feller is True

    def test_explosive_chain(self):
        m = models.PRESETS["bd:explosive"]()
        c = classify(m.chain, 100)
        assert c.neumann_feller is True          # infinite measure
        assert c.ess_self_adjoint is True

    def test_bare_partial_sums_are_undetermined(self):
        chain = BdChain(rate=lambda r: Fraction(1), measure=lambda r: Fraction(1))
        c = classify(chain, 50)
        assert c.measure_verdict == "undetermined"
        assert c.neumann_feller is None
        assert c.undetermined

    @pytest.mark.parametrize("mcert", [True, 3])
    def test_malformed_measure_certificate_rejected(self, mcert):
        chain = BdChain(rate=lambda r: Fraction(1), measure=lambda r: Fraction(1))
        with pytest.raises(InputError, match="measure certificate must be"):
            classify(chain, 10, {"measure": mcert})

    def test_unknown_certificate_key_rejected(self):
        chain = BdChain(rate=lambda r: Fraction(1), measure=lambda r: Fraction(1))
        with pytest.raises(InputError, match="unknown certificate key 'invb'"):
            classify(chain, 10, {"invb": divergent()})

    def test_certificate_overrides(self):
        chain = BdChain(rate=lambda r: Fraction(1), measure=lambda r: Fraction(1))
        c = classify(chain, 50, certificates={
            "measure": divergent("constant measure", power=0.0),
            "inv_b": divergent("constant terms", power=0.0),
            "hamburger": divergent("grows like r^2", power=-2.0),
        })
        assert c.neumann_feller is True

    def test_inconsistent_certificates_rejected(self):
        chain = BdChain(rate=lambda r: Fraction(1), measure=lambda r: Fraction(1))
        with pytest.raises(NeumannLabError, match="inconsistent"):
            classify(chain, 50, certificates={
                "measure": "infinite",
                "hamburger": convergent("wrong"),
            })

    @pytest.mark.parametrize("horizon", [2, 3, 1000])
    def test_total_below_a_prefix_mass_is_rejected_at_its_index(self, horizon):
        # prefix masses 1, 2, 3, ...: the first to exceed 5/2 is at r = 2
        chain = BdChain(rate=lambda r: 1, measure=lambda r: 1,
                        measure_total=Fraction(5, 2))
        with pytest.raises(InputError) as exc:
            classify(chain, horizon)
        assert str(exc.value) == "measure_total 5/2 smaller than prefix mass at r=2"

    def test_total_above_every_prefix_mass_gives_tail_sums(self):
        chain = BdChain(rate=lambda r: 1, measure=lambda r: 1,
                        measure_total=Fraction(5, 2))
        c = classify(chain, 1)
        assert c.series_tail.partial_sums == [1.5, 2.0]

    def test_comparison_certificate_consistency_checked(self):
        with pytest.raises(InputError, match="inconsistent"):
            divergent("bad", power=2.0)
        with pytest.raises(InputError, match="inconsistent"):
            convergent("bad", ratio=1.5)

    def test_certificate_power_checked_without_a_method(self):
        # power 5 certifies convergence, whatever the caller calls the method
        with pytest.raises(InputError, match="inconsistent"):
            SeriesCertificate("divergent", power=5.0)

    def test_certificate_method_is_derived(self):
        assert divergent("asserted").method == "assertion"
        assert convergent(ratio=0.5).method == "comparison"
        with pytest.raises(TypeError):
            SeriesCertificate("divergent", "assertion")

    def test_measure_certificate_in_use_is_reported(self):
        chain = BdChain(rate=lambda r: 1, measure=lambda r: 1)
        assert classify(chain, 5).measure_certificate is None
        assert classify(chain, 5, {"measure": "infinite"}).measure_certificate == divergent()
        assert classify(chain, 5, {"measure": "finite"}).measure_certificate == convergent()
        unit = classify(models.PRESETS["bd:unit"]().chain, 5)
        assert unit.measure_certificate == divergent("constant measure", power=0.0)
        note = divergent("caller")
        assert classify(models.PRESETS["bd:unit"]().chain, 5,
                        {"measure": note}).measure_certificate is note

    def test_divergent_measure_certificate_beside_a_total_is_rejected(self):
        # bd:geo has m(X) = 2, so sum m(r) cannot be certified divergent
        chain = models.PRESETS["bd:geo"]().chain
        for cert in ("infinite", divergent("caller")):
            with pytest.raises(InputError, match="contradicts measure_total 2"):
                classify(chain, 10, {"measure": cert})
        assert classify(chain, 10, {"measure": "finite"}).measure_verdict == "finite"

    def test_classifier_boolean_invariants_on_presets(self):
        for name in ("bd:unit", "bd:geo", "bd:explosive", "bd:tail"):
            c = classify(models.PRESETS[name]().chain, 150)
            assert c.nontrivial_l1_harmonic_exists == (not c.neumann_feller)
            if c.neumann_feller:
                assert c.ess_self_adjoint is True
                assert c.hamburger.verdict == "divergent"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_rates_are_rejected(self, value):
        bad = re.escape(f"rate b(70,71) must be positive and finite, got {value}")
        chain = BdChain(rate=lambda r: value if r == 70 else 1.0, measure=lambda r: 1.0)
        with pytest.raises(InputError, match=bad):
            classify(chain, 100, {"measure": "infinite"})
        # the chain graph reads the rate when it builds the set past r = 70
        model = models.make_bd_chain(chain.rate, chain.measure)
        with pytest.raises(InputError, match=bad):
            models.make_exhaustion(model, 0, indices=[60, 80])
        with pytest.raises(InputError,
                           match=re.escape(f"measure m(3) must be positive and finite, got {value}")):
            models.make_bd_chain("1", lambda r: value if r == 3 else 1.0)


def _rounded(value):
    """float(value), or None beyond float range."""
    try:
        return float(value)
    except OverflowError:
        return None


ORACLE_CHAINS = {
    "bd:unit": lambda: models.PRESETS["bd:unit"]().chain,
    "bd:geo": lambda: models.PRESETS["bd:geo"]().chain,
    "bd:explosive": lambda: models.PRESETS["bd:explosive"]().chain,
    # the hamburger partial sums pass 2^1024 near r = 512
    "overflow": lambda: models.make_bd_chain("1", "2**(2*r)").chain,
    # int data with an int total: the tail series is exact, not float-divided
    "int-total": lambda: BdChain(rate=lambda r: r + 1, measure=lambda r: 1 + r % 3,
                                 measure_total=3 * 10 ** 4),
    "fraction-total": lambda: BdChain(rate=lambda r: Fraction(r + 2, 3),
                                      measure=lambda r: Fraction(1, (r + 1) * (r + 2)),
                                      measure_total=Fraction(1)),
}


class TestSeriesOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CHAINS))
    def test_every_partial_sum_is_the_exact_sum_rounded_once(self, name):
        chain = ORACLE_CHAINS[name]()
        c = classify(chain, 1000)
        for record, exact in zip((c.series_inv_b, c.series_tail, c.hamburger),
                                 oracles.classification_partial_sums(chain, 1000)):
            assert record.partial_sums == [_rounded(v) for v in exact], record.name
        if name == "overflow":
            assert c.hamburger.partial_sums[-1] is None
            assert c.hamburger.partial_sums[500] is not None

    @pytest.mark.parametrize("total", [7, Fraction(15, 2)])
    def test_negative_tail_error_matches_oracle(self, total):
        chain = BdChain(rate=lambda r: 2, measure=lambda r: 1, measure_total=total)
        with pytest.raises(InputError) as want:
            oracles.classification_partial_sums(chain, 50)
        with pytest.raises(InputError) as got:
            classify(chain, 50)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("at r=7")

    def test_float_path_is_plain_float_arithmetic(self):
        # bd:tail has float rates and a float total, Fraction measures
        chain = models.PRESETS["bd:tail"]().chain
        horizon = 400
        c = classify(chain, horizon)
        inv_b, tail, hamburger = [], [], []
        s = t = h = 0.0
        prefix_mass = Fraction(0)
        for r in range(horizon + 1):
            b = chain.rate_at(r)
            prefix_mass += chain.measure_at(r)
            s += 1.0 / b
            t += (chain.measure_total - float(prefix_mass)) / b
            inv_b.append(s)
            tail.append(t)
            if r < horizon:
                h += s ** 2 * float(chain.measure_at(r + 1))
                hamburger.append(h)
        assert c.series_inv_b.partial_sums == inv_b
        assert c.series_tail.partial_sums == tail
        assert c.hamburger.partial_sums == hamburger


class TestAlphaHarmonic:
    def test_zero_start_is_trivial(self):
        m = models.PRESETS["bd:unit"]()
        sol = solve_alpha_harmonic(m.chain, 1, 0, 10)
        assert sol.trivial
        assert all(v == 0 for v in sol.partial_l1)

    def test_unit_chain_hand_recursion(self):
        # u(1) = 1*(1 + 1*1/1) = 2; u(2) = 2 + (1*(2-1) + 1*1*2)/1 = 5
        m = models.PRESETS["bd:unit"]()
        sol = solve_alpha_harmonic(m.chain, 1, 1, 5)
        assert sol.values(0) == 1
        assert sol.values(1) == 2
        assert sol.values(2) == 5
        assert sol.residual == 0.0  # exact rational path

    def test_strictly_increasing(self):
        m = models.PRESETS["bd:geo"]()
        sol = solve_alpha_harmonic(m.chain, Fraction(1, 2), Fraction(3), 40)
        vals = [sol.values(r) for r in range(41)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_l1_lower_bound_exact_at_every_horizon(self):
        # partial sums dominate alpha*u(0)*m(0) times the truncated tail series
        for name in ("bd:unit", "bd:geo", "bd:explosive"):
            chain = models.PRESETS[name]().chain
            sol = solve_alpha_harmonic(chain, Fraction(2, 3), Fraction(1, 2), 80)
            for s, b in zip(sol.partial_l1, sol.lemma_lower_bounds):
                assert s >= b  # exact Fraction comparison

    @pytest.mark.parametrize("rate,meas", [("1", "1"), ("r+1", "1/(r+1)")])
    def test_matches_tridiagonal_solve(self, rate, meas):
        # recursion vs direct linear solve of the interior equations,
        # on chains whose scales a generic dense solver resolves to 1e-10
        chain = models.make_bd_chain(rate, meas, name="xcheck").chain
        K = 30
        sol = solve_alpha_harmonic(chain, 1, 1, K + 1)
        alpha = 1.0
        b = [float(chain.rate_at(r)) for r in range(K + 1)]
        m = [float(chain.measure_at(r)) for r in range(K + 1)]
        A = np.zeros((K, K))
        rhs = np.zeros(K)
        for i, r in enumerate(range(1, K + 1)):
            diag = (b[r - 1] + b[r]) / m[r] + alpha
            A[i, i] = diag
            if i > 0:
                A[i, i - 1] = -b[r - 1] / m[r]
            else:
                rhs[i] += b[0] / m[r] * float(sol.values(0))
            if i < K - 1:
                A[i, i + 1] = -b[r] / m[r]
            else:
                rhs[i] += b[K] / m[K] * float(sol.values(K + 1))
        u = np.linalg.solve(A, rhs)
        for i, r in enumerate(range(1, K + 1)):
            expect = float(sol.values(r))
            assert abs(u[i] - expect) <= 1e-10 * abs(expect)

    def test_float_path_switches_beyond_overflow(self):
        # float rates, solution grows past 1e308: the decimal context's
        # unbounded exponent must keep values finite and increasing
        chain = BdChain(rate=lambda r: 1.0, measure=lambda r: 1.0, name="float-unit")
        sol = solve_alpha_harmonic(chain, 1.0, 1.0, 900)
        last = sol.values(900)
        assert last > 1e300
        assert sol.values(899) < last  # Decimal comparison, float() would overflow
        assert sol.residual <= 1e-9

    @pytest.mark.parametrize("name,horizon", [("bd:geo", 80), ("bd:explosive", 100)])
    def test_float_alpha_on_exact_chain_matches_exact_solve(self, name, horizon):
        # the solution converges, so its increments fall below an ulp of
        # u(r): the rounded values stop increasing while every increment
        # the recursion computes stays positive
        chain = models.PRESETS[name]().chain
        inexact = solve_alpha_harmonic(chain, 1.0, 1.0, horizon)
        exact = solve_alpha_harmonic(chain, 1, 1, horizon)
        assert inexact.values(horizon) == inexact.values(horizon - 1)
        for r in range(horizon + 1):
            want = float(exact.values(r))
            # forward rounding error of the recursion: 2.4e-15 on bd:geo
            assert abs(float(inexact.values(r)) - want) <= 5e-15 * want

    def test_float_alpha_beyond_float_rates(self):
        # rates 4^r pass 2^1024 from r = 512 on; the first 100 values agree
        # with the exact solve
        chain = models.PRESETS["bd:explosive"]().chain
        sol = solve_alpha_harmonic(chain, 1.0, 1.0, 600)
        exact = solve_alpha_harmonic(chain, 1, 1, 100)
        assert sol.residual <= 1e-15
        for r in range(101):
            want = float(exact.values(r))
            assert abs(float(sol.values(r)) - want) <= 5e-15 * want
        assert sol.values(600) == sol.values(100)

    def test_bounded_vs_divergent_partial_sums(self):
        # l1-harmonic existence <=> bounded partial sums (geo chain);
        # Feller chains diverge past any fixed multiple of that level
        geo = solve_alpha_harmonic(models.PRESETS["bd:geo"]().chain, 1, 1, 120)
        cauchy = float(geo.partial_l1[-1] - geo.partial_l1[-2])
        assert cauchy < 1e-8
        bounded_level = float(geo.partial_l1[-1])
        unit = solve_alpha_harmonic(models.PRESETS["bd:unit"]().chain, 1, 1, 120)
        assert float(unit.partial_l1[-1]) > 1e3 * bounded_level

    def test_parameter_validation(self):
        chain = models.PRESETS["bd:unit"]().chain
        with pytest.raises(InputError):
            solve_alpha_harmonic(chain, 0, 1, 10)
        with pytest.raises(InputError):
            solve_alpha_harmonic(chain, 1, 1, 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_and_start_rejected(self, value):
        chain = models.PRESETS["bd:geo"]().chain
        with pytest.raises(InputError,
                           match=re.escape(f"alpha must be positive and finite, got {value}")):
            solve_alpha_harmonic(chain, value, 1, 20)
        with pytest.raises(InputError,
                           match=re.escape(f"u0 must be nonnegative and finite, got {value}")):
            solve_alpha_harmonic(chain, 1, value, 20)

    def test_float_inputs_solve_and_mpf_inputs_are_rejected(self):
        chain = models.PRESETS["bd:geo"]().chain
        exact = solve_alpha_harmonic(chain, Fraction(1, 2), Fraction(3), 20)
        lifted = solve_alpha_harmonic(chain, 0.5, 3.0, 20)
        assert all(isinstance(v, Fraction) for v in exact.partial_l1)
        assert all(isinstance(lifted.values(r), Decimal) for r in range(21))
        for a, b in zip(exact.partial_l1, lifted.partial_l1):
            assert abs(float(b) - float(a)) <= 1e-15 * float(a)
        for r in range(21):
            want = float(exact.values(r))
            assert abs(float(lifted.values(r)) - want) <= 1e-15 * want
        # an mpf is no int, Fraction or float
        with pytest.raises(InputError, match="of type mpf"):
            solve_alpha_harmonic(chain, mpmath.mpf("0.5"), mpmath.mpf(3), 20)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_chain_data_is_input_error(self, value):
        chain = BdChain(rate=lambda r: value if r == 3 else 1.0, measure=lambda r: 1.0)
        # the chain rejects the value before the solver would lift it
        bad = re.escape(f"rate b(3,4) must be positive and finite, got {value}")
        with pytest.raises(InputError, match=bad):
            solve_alpha_harmonic(chain, 1.0, 1.0, 10)

    @pytest.mark.parametrize("name,horizon",
                             [("bd:tail", 20000), ("bd:explosive", 900), ("bd:geo", 400)])
    def test_inexact_values_within_a_linear_rounding_bound(self, name, horizon):
        # every operation of the carried recursion adds, multiplies or
        # divides positive numbers, so u(r) carries at most about 3(r+1)
        # roundings of 5e-17 (17 digits); the reference runs the step form
        # at 300 bits
        chain = models.PRESETS[name]().chain
        sol = solve_alpha_harmonic(chain, 1.0, 1.0, horizon)
        reference = oracles.alpha_harmonic_carried_mp(chain, 1.0, 1.0, horizon)
        with mpmath.workprec(300):
            for r, want in enumerate(reference):
                error = abs(mpmath.mpf(str(sol.values(r))) / want - 1)
                assert error <= 3 * (r + 1) * 5e-17, r

    @pytest.mark.parametrize("name", ["bd:unit", "bd:geo", "bd:explosive"])
    def test_exact_values_match_the_subtracting_recursion(self, name):
        chain = models.PRESETS[name]().chain
        sol = solve_alpha_harmonic(chain, Fraction(2, 3), Fraction(1, 2), 80)
        want = oracles.alpha_harmonic_subtracting(chain, Fraction(2, 3), Fraction(1, 2), 80)
        assert [sol.values(r) for r in range(81)] == want


class TestHamburger:
    def test_unit_chain_partial_sums(self):
        # terms (r+1)^2: partials 1, 5, 14, 30
        m = models.PRESETS["bd:unit"]()
        rec = classify(m.chain, 4).hamburger
        assert [int(p) for p in rec.partial_sums] == [1, 5, 14, 30]
        assert rec.verdict == "divergent"

    def test_single_term(self):
        chain = BdChain(rate=lambda r: Fraction(2), measure=lambda r: Fraction(3))
        rec = classify(chain, 1).hamburger
        assert rec.partial_sums == [0.75]  # (1/2)^2 * 3

    def test_geo_chain_certified_convergent(self):
        m = models.PRESETS["bd:geo"]()
        rec = classify(m.chain, 60).hamburger
        assert rec.verdict == "convergent"
        # summands shrink geometrically: partial sums nearly constant
        assert float(rec.partial_sums[-1] - rec.partial_sums[-2]) < 1e-12


class TestCombBeta:
    def test_depth_40_hits_closed_form(self):
        res = comb_beta_extraction(40)
        assert abs(res.beta - BETA_TARGET) <= 1e-8
        assert res.spread <= 1e-9

    def test_characteristic_equation_oracle(self):
        # interior tooth recursion 3u(k) = u(k-1) + u(k+1): decaying root of
        # x^2 - 3x + 1, computed independently of the linear solve
        roots = np.roots([1.0, -3.0, 1.0])
        decaying = min(abs(r) for r in roots)
        assert decaying == pytest.approx(BETA_TARGET, abs=1e-12)
        res = comb_beta_extraction(30)
        assert res.beta == pytest.approx(decaying, abs=1e-6)

    def test_tooth_ratios_match_independent_solve(self):
        # with u(0,0) = 1 fixed, tooth 0 is cut off from the other teeth, so
        # its values solve 3u_k - u_{k-1} - u_{k+1} = 0 with u_0 = 1 and the
        # decay closure u_{depth+1} = 0 exactly
        depth = 12
        res = comb_beta_extraction(depth, spread_tol=1)
        A = 3.0 * np.eye(depth) - np.eye(depth, k=1) - np.eye(depth, k=-1)
        rhs = np.zeros(depth)
        rhs[0] = 1.0
        tooth = np.concatenate(([1.0], np.linalg.solve(A, rhs)))
        lo, hi = res.window
        expected = [tooth[k + 1] / tooth[k] for k in range(lo, hi)]
        assert res.ratios == pytest.approx(expected, rel=1e-12)

    def test_too_shallow_reports_spread(self):
        with pytest.raises(TruncationInsufficientError) as exc:
            comb_beta_extraction(9)
        assert exc.value.last_increment is not None

    def test_matches_printed_constant(self):
        # the decaying ratio, as a plain decimal
        res = comb_beta_extraction(40)
        assert res.beta == pytest.approx(0.3819660113, abs=1e-8)
