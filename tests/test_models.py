import functools
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_lab.errors import InputError, OverflowCapError
from neumann_lab import models
from neumann_lab.graphs import is_connected
from neumann_lab.operators import OperatorKind, fits, restrict


class TestCombWeights:
    def test_closed_forms_at_origin(self):
        g = models.make_comb()
        v = models.comb_vertex_id
        assert g.edge_weight(v(0, 0), v(1, 0)) == 1          # 2^(0*0)
        assert g.edge_weight(v(0, 0), v(0, 1)) == 16         # 4^(0+2)
        assert g.measure(v(0, 3)) == Fraction(1, 8)          # 2^-3

    def test_closed_forms_everywhere_below_bound(self):
        g = models.make_comb()
        v = models.comb_vertex_id
        for n in range(6):
            for k in range(8):
                assert g.edge_weight(v(k, n), v(k + 1, n)) == Fraction(2) ** (n * k)
            assert g.edge_weight(v(0, n), v(0, n + 1)) == Fraction(4) ** (n + 2)
            assert g.measure(v(0, n)) == Fraction(1, 2 ** n)
            assert g.measure(v(3, n)) == 1

    def test_pairing_roundtrip(self):
        for k in range(20):
            for n in range(20):
                assert models.comb_vertex_label(models.comb_vertex_id(k, n)) == (k, n)


class TestExhaustions:
    def test_chain_prefixes(self):
        m = models.PRESETS["bd:unit"]()
        ex = models.make_exhaustion(m, 3)
        assert ex.sets == ((0,), (0, 1), (0, 1, 2))

    def test_comb_rectangle_j1_has_six_vertices(self):
        rect = models.comb_rectangle(1)
        labels = {models.comb_vertex_label(v) for v in rect}
        assert labels == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}

    def test_comb_rectangle_lists_each_level_in_turn(self):
        # level jj adds the cells of the jj-rectangle outside the (jj-1)-one,
        # sorted by (n, k); 22 is the largest index below the float cap
        for j in range(23):
            expected = []
            for jj in range(j + 1):
                fresh = sorted((n, k) for n in range(jj + 1) for k in range(2 * jj + 1)
                               if jj == 0 or k > 2 * (jj - 1) or n > jj - 1)
                expected += [models.comb_vertex_id(k, n) for n, k in fresh]
            assert models.comb_rectangle(j) == expected

    def test_comb_rectangles_nested_and_connected(self):
        m = models.PRESETS["comb"]()
        ex = models.make_exhaustion(m, 5)
        for a, b in zip(ex.sets, ex.sets[1:]):
            assert set(a) <= set(b)
        for s in ex.sets:
            assert is_connected(m.graph, s)

    def test_hop_balls_on_path_are_intervals(self):
        m = models.make_finite_path(7)
        ex = models.make_exhaustion(m, 4)
        assert [sorted(s) for s in ex.sets] == [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]

    @pytest.mark.parametrize("name,seed,radii", [("random:60", 3, range(7)),
                                                 ("path:12", None, range(13))])
    def test_hop_ball_defaults_stop_where_the_balls_stop_growing(self, name, seed, radii):
        # radii 0..ecc+1: every distinct ball once, then the whole graph again
        m = models.build_model(name, seed=seed)
        indices = models.default_indices(m)
        assert indices == list(radii)
        sizes = [len(s) for s in models.make_exhaustion(m, 0, indices=indices).sets]
        assert all(a < b for a, b in zip(sizes[:-2], sizes[1:-1]))
        assert sizes[-2] == sizes[-1] == len(m.graph)

    def test_random_graph_exhaustion_connected(self):
        m = models.make_random_connected(seed=7)
        ex = models.make_exhaustion(m, 4)
        for s in ex.sets:
            assert is_connected(m.graph, s)


class TestOverflowGuards:
    def test_comb_rectangle_cap(self):
        with pytest.raises(OverflowCapError) as exc:
            models.comb_rectangle(30)
        assert exc.value.usable_cap is not None
        # the reported cap itself must be usable
        models.comb_rectangle(exc.value.usable_cap)

    def test_chain_prefix_cap(self):
        m = models.PRESETS["bd:explosive"]()
        with pytest.raises(OverflowCapError) as exc:
            models.make_exhaustion(m, 0, indices=[700])
        assert exc.value.usable_cap is not None
        models.make_exhaustion(m, 0, indices=[exc.value.usable_cap])


class TestFloatCap:
    """A comb rectangle or chain prefix is usable when every row of its set
    fits (``operators.fits``); ``models`` probes one row per parameter."""

    @pytest.mark.parametrize("name,cap", [("bd:explosive", 500), ("bd:geo", 500),
                                          ("comb", 22)])
    def test_every_set_restricts_in_both_kinds_up_to_the_usable_cap(self, name, cap):
        m = models.PRESETS[name]()
        with pytest.raises(OverflowCapError) as exc:
            models.make_exhaustion(m, 0, indices=[cap + 1])
        assert exc.value.usable_cap == cap
        ex = models.make_exhaustion(m, cap + 1 if name == "comb" else cap)
        for k in range(len(ex)):
            for kind in OperatorKind:
                restrict(ex, k, kind)

    @pytest.mark.parametrize("name", sorted(models.PRESETS))
    def test_probe_agrees_with_a_scan_of_every_row(self, name):
        m = models.PRESETS[name]()
        if name == "comb":
            params = range(24)

            def rows(p):
                return [models.comb_vertex_id(k, n) for n in range(p + 1)
                        for k in range(2 * p + 1)]
        else:
            params = range(1, 601)

            def rows(p):
                return range(p)
        fit = functools.cache(lambda x: fits(m.graph, x))
        for p in params:
            usable = all(map(fit, rows(p)))
            if usable:
                cap = p
            try:
                models._check_cap(m, p)
                assert usable, p
            except OverflowCapError as exc:
                assert not usable and exc.usable_cap == cap, p


class TestExpressions:
    @pytest.mark.parametrize("expr,r,value", [
        ("1", 5, 1),
        ("2**r", 10, 1024),
        ("2**(-r)", 3, Fraction(1, 8)),
        ("4**r", 2, 16),
        ("1/(r+1)**2", 3, Fraction(1, 16)),
        ("3*r + 1/2", 2, Fraction(13, 2)),
    ])
    def test_exact_values(self, expr, r, value):
        fn = models.parse_sequence_expr(expr)
        assert fn(r) == value
        assert isinstance(fn(r), Fraction)

    @pytest.mark.parametrize("expr", [
        "x", "r + y", "__import__('os')", "r.denominator", "lambda r: r",
        "2.5 * r", "r; r", "[r]",
    ])
    def test_rejects_bad_syntax(self, expr):
        with pytest.raises(InputError):
            models.parse_sequence_expr(expr)

    def test_rejects_fractional_exponent(self):
        fn = models.parse_sequence_expr("r**(1/2)")
        with pytest.raises(InputError, match="exponent"):
            fn(2)

    def test_rejects_nonpositive_sequences(self):
        with pytest.raises(InputError,
                           match=re.escape("rate b(0,1) must be positive and finite, got 0")):
            models.make_bd_chain("r", "1")   # rate 0 at r=0

    def test_deep_sum_is_input_error(self):
        with pytest.raises(InputError, match="deeper"):
            models.parse_sequence_expr("r" + "+r" * 1000)

    def test_deep_unary_chain_is_input_error(self):
        with pytest.raises(InputError, match="nested too deeply"):
            models.parse_sequence_expr("-" * 5000 + "1")

    def test_huge_power_is_input_error(self):
        fn = models.parse_sequence_expr("2**(10**7)")
        with pytest.raises(InputError, match="bits"):
            fn(0)

    @pytest.mark.parametrize("expr,message", [
        ("r % 2", "disallowed syntax BinOp in 'r % 2'"),
        ("x + y", "unknown variable 'x' in 'x + y'"),
        ("y + x", "unknown variable 'y' in 'y + x'"),
        ("2.5*r", "only integer literals are allowed in '2.5*r' "
                  "(write rationals as fractions like 1/2)"),
        ("r" + "+r" * 1000, "expression nests deeper than 100 levels"),
        ("x + 1/0", "unknown variable 'x' in 'x + 1/0'"),
        ("1/(r-1) + r % 2", "disallowed syntax BinOp in '1/(r-1) + r % 2'"),
        ("r" + "+r" * 120 + "+x", "expression nests deeper than 100 levels"),
        ("r" + "+r" * 98 + "+x", "unknown variable 'x' in 'r" + "+r" * 98 + "+x'"),
    ], ids=["mod", "unknown-x", "unknown-y", "float", "deep-sum", "variable-before-division",
            "syntax-before-division", "depth-before-variable", "variable-at-depth-100"])
    def test_parse_errors_come_in_reading_order(self, expr, message):
        # a node is checked before its operands, the left before the right
        with pytest.raises(InputError) as exc:
            models.parse_sequence_expr(expr)
        assert str(exc.value) == message

    @pytest.mark.parametrize("expr,r,message", [
        ("1/0", 0, "division by zero in '1/0' at r=0"),
        ("1/0", 7, "division by zero in '1/0' at r=7"),
        ("r**(1/2)", 2, "non-integer exponent in 'r**(1/2)' at r=2"),
        ("0**(-r)", 1, "zero to a negative power in '0**(-r)' at r=1"),
        ("2**(10**7)", 0, "power in '2**(10**7)' at r=0 would exceed 16777216 bits"),
        ("1/(r-1) + 0**(-r)", 1, "division by zero in '1/(r-1) + 0**(-r)' at r=1"),
        ("0**(-r) + 1/(r-1)", 1, "zero to a negative power in '0**(-r) + 1/(r-1)' at r=1"),
    ])
    def test_evaluation_errors_name_the_index(self, expr, r, message):
        fn = models.parse_sequence_expr(expr)  # parses; the error comes at r
        with pytest.raises(InputError) as exc:
            fn(r)
        assert str(exc.value) == message

    def test_zero_to_the_zeroth_power_is_one(self):
        assert models.parse_sequence_expr("0**(-r)")(0) == 1

    @pytest.mark.parametrize("expr,exact", [
        ("2**r", lambda r: Fraction(2) ** r),
        ("2**(-r)", lambda r: Fraction(2) ** -r),
        ("4**r", lambda r: Fraction(4) ** r),
        ("1/(r+1)**2", lambda r: 1 / (Fraction(r) + 1) ** 2),
    ])
    def test_presets_match_fraction_arithmetic(self, expr, exact):
        fn = models.parse_sequence_expr(expr)
        for r in range(1001):
            value = fn(r)
            assert isinstance(value, Fraction)
            assert value == exact(r)

    def test_rates_beyond_the_float_cap_stay_exact(self):
        assert models.parse_sequence_expr("4**r")(600) == 4 ** 600
        assert models.parse_sequence_expr("2**(-r)")(1500) == Fraction(1, 2 ** 1500)


def expressions():
    """Expressions in r over the parser's grammar, with small literals."""
    leaves = st.one_of(st.just("r"), st.integers(0, 12).map(str))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]})**({t[1]})"),
            inner.map(lambda e: f"-({e})")),
        max_leaves=8)


class TestExpressionProperties:
    @settings(max_examples=25)
    @given(expressions(), st.integers(0, 20))
    def test_value_or_input_error(self, expr, r):
        try:
            value = models.parse_sequence_expr(expr)(r)
        except InputError:
            return
        # Python's own arithmetic on Fraction literals is the oracle; a value
        # the parser accepts has bounded powers, so it is fast
        exact = re.sub(r"\d+", lambda m: f"F({m.group()})", expr)
        assert value == eval(exact, {"__builtins__": {}}, {"F": Fraction, "r": Fraction(r)})
        assert isinstance(value, Fraction)

    @settings(max_examples=25)
    @given(st.text(alphabet="r0123456789+-*/() .x_[]", max_size=16), st.integers(0, 20))
    def test_arbitrary_text_is_input_error_or_fraction(self, text, r):
        try:
            value = models.parse_sequence_expr(text)(r)
        except InputError:
            return
        assert isinstance(value, Fraction)


class TestPresets:
    def test_unit_chain(self):
        m = models.PRESETS["bd:unit"]()
        assert m.chain.rate_at(17) == 1
        assert m.chain.measure_at(17) == 1
        assert m.graph.edge_weight(3, 4) == 1

    def test_geo_chain(self):
        m = models.PRESETS["bd:geo"]()
        assert m.chain.rate_at(5) == 32
        assert m.chain.measure_at(5) == Fraction(1, 32)
        assert m.chain.measure_total == 2
        # the tail mass m({5, 6, ...}) the classifier reads off the total
        assert 2 - sum(m.chain.measure_at(r) for r in range(5)) == Fraction(1, 16)

    def test_explosive_chain(self):
        m = models.PRESETS["bd:explosive"]()
        assert m.chain.rate_at(3) == 64
        assert m.chain.measure_at(3) == 1

    def test_tail_chain_matches_its_own_tail(self):
        m = models.PRESETS["bd:tail"]()
        # b(r,r+1) is the measure of {r+1, r+2, ...}; bracket the remainder
        # of the partial sum by integrals of 1/x^2
        partial = sum(1.0 / (k + 1) ** 2 for k in range(6, 5000))
        lo, hi = partial + 1.0 / 5001, partial + 1.0 / 5000
        assert lo <= m.chain.rate_at(5) <= hi
        # the bracket is 4e-8 wide; the Hurwitz zeta pins the value itself,
        # on both sides of the head-sum cutoff and far out
        with mp.workdps(40):
            for r in (0, 5, 61, 62, 63, 297, 5000, 10**6):
                exact = float(mp.zeta(2, r + 2))
                assert m.chain.rate_at(r) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_graph_and_chain_share_data(self):
        m = models.PRESETS["bd:geo"]()
        for r in range(6):
            assert m.graph.edge_weight(r, r + 1) == m.chain.rate_at(r)
            assert m.graph.measure(r) == m.chain.measure_at(r)


class TestBuildModel:
    def test_presets_resolve(self):
        for name in ("comb", "bd:unit", "bd:geo", "bd:explosive", "bd:tail"):
            assert models.build_model(name).name == name

    def test_file_model(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("V 0 1 0\nV 1 1 0\nE 0 1 1\n")
        m = models.build_model(f"file:{p}")
        assert len(m.graph) == 2

    def test_random_needs_seed(self):
        with pytest.raises(InputError, match="seed"):
            models.build_model("random")

    def test_random_deterministic(self):
        a = models.build_model("random:30", seed=5)
        b = models.build_model("random:30", seed=5)
        assert sorted(a.graph.vertices()) == sorted(b.graph.vertices())
        for x in a.graph.vertices():
            assert a.graph.neighbors(x) == b.graph.neighbors(x)

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            models.build_model("bd:nope")
        with pytest.raises(InputError):
            models.build_model("mystery")
