import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpforms.errors import FormSyntaxError
from modpforms.expr import (
    Atom,
    BinOp,
    Pow,
    evaluate,
    parse_form_expression,
    pretty,
)
from modpforms.series import delta_power, eisenstein, mul


class TestParser:
    def test_sub_ast(self):
        ast = parse_form_expression("delta^2 - delta")
        assert ast == BinOp("-", Pow(Atom("delta"), 2), Atom("delta"))

    def test_whitespace_insensitive(self):
        a = parse_form_expression(" delta ^2-  delta ")
        b = parse_form_expression("delta^2-delta")
        assert a == b

    def test_unsupported_atom_position(self):
        with pytest.raises(FormSyntaxError) as err:
            parse_form_expression("E5")
        assert err.value.column == 1

    def test_error_positions(self):
        with pytest.raises(FormSyntaxError) as err:
            parse_form_expression("delta + @")
        assert err.value.column == 9
        with pytest.raises(FormSyntaxError):
            parse_form_expression("(delta")
        with pytest.raises(FormSyntaxError):
            parse_form_expression("")
        with pytest.raises(FormSyntaxError):
            parse_form_expression("delta^")

    def test_precedence(self):
        ast = parse_form_expression("delta + E4 * E6")
        assert ast == BinOp("+", Atom("delta"), BinOp("*", Atom("E4"), Atom("E6")))

    def test_parens(self):
        ast = parse_form_expression("(delta + E4) * E6")
        assert ast == BinOp("*", BinOp("+", Atom("delta"), Atom("E4")), Atom("E6"))


class TestPretty:
    CASES = [
        "delta^2 - delta",
        "delta + E4 * E6",
        "(delta + E4) * E6",
        "(delta^2)^3",
        "2 * delta - 1",
        "delta * (E4 + E6)",
        "delta - (E4 - E6)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        ast = parse_form_expression(text)
        assert parse_form_expression(pretty(ast)) == ast

    def test_canonical_fixpoint(self):
        for text in self.CASES:
            once = pretty(parse_form_expression(text))
            assert pretty(parse_form_expression(once)) == once


class TestEvaluate:
    def test_nested_power_equals_flat(self):
        a = evaluate(parse_form_expression("(delta^2)^3"), 3, 200)
        b = evaluate(parse_form_expression("delta^6"), 3, 200)
        assert a.series == b.series and a.weight == b.weight == 72

    def test_delta_weight(self):
        f = evaluate(parse_form_expression("delta^2"), 3, 50)
        assert f.weight == 24
        assert f.series == delta_power(3, 2, 50)

    def test_product_weights_add(self):
        f = evaluate(parse_form_expression("delta * E4"), 7, 50)
        assert f.weight == 16
        assert f.series == mul(delta_power(7, 1, 50), eisenstein(7, 4, 50))

    def test_constant_plus_cusp_form(self):
        f = evaluate(parse_form_expression("delta + 1"), 7, 30)
        assert f.weight == 12  # 0 = 12 mod 6, lift to the larger weight
        assert f.series[0] == 1 and f.series[1] == 1

    def test_incompatible_weights_rejected(self):
        with pytest.raises(ValueError, match="mix weights"):
            evaluate(parse_form_expression("delta + E4"), 7, 30)

    def test_weights_congruent_mod_p_minus_1(self):
        # 12 = 4 mod 2, so the sum is fine mod 3
        f = evaluate(parse_form_expression("delta + E4"), 3, 30)
        assert f.weight == 12

    def test_scalar_multiples(self):
        f = evaluate(parse_form_expression("2 * delta"), 5, 30)
        assert list(f.series.coeffs) == [
            2 * int(c) % 5 for c in delta_power(5, 1, 30).coeffs
        ]

    def test_zero_literal(self):
        f = evaluate(parse_form_expression("0"), 5, 10)
        assert f.series.is_zero()

    def test_difference_used_by_oracle(self):
        f = evaluate(parse_form_expression("delta^2 - delta"), 7, 40)
        d2 = delta_power(7, 2, 40).coeffs.astype(np.int64)
        d1 = delta_power(7, 1, 40).coeffs.astype(np.int64)
        assert list(f.series.coeffs) == list((d2 - d1) % 7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_integer_literals_reduce(self, n):
        f = evaluate(parse_form_expression(str(n)), 7, 5)
        assert f.series[0] == n % 7
