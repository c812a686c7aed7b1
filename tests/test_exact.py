import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractree import Family, FractalParams, tau_closed
from fractree.errors import OverflowCapError
from fractree.exact import (
    DEFAULT_EXPAND_BIT_CAP,
    FactoredCount,
    _atom_exponents,
    bareiss_determinant,
    decimal_str,
    factored_expand,
    factored_log,
)
from fractree.verify import naive_determinant


class TestFactoredExpand:
    def test_empty_product_is_one(self):
        assert factored_expand(FactoredCount({})) == 1

    def test_table_entry(self):
        assert factored_expand(FactoredCount({3: 4, 2: 1})) == 162

    def test_wheel_count(self):
        # 45^6 = 8303765625, times 2^4
        assert factored_expand(FactoredCount({45: 6, 2: 4})) == 132860250000

    def test_large_table_entry_is_fine(self):
        value = factored_expand(FactoredCount({3: 286, 2: 88}))
        assert value == 3**286 * 2**88
        assert len(str(value)) == 163

    def test_overflow_cap(self):
        with pytest.raises(OverflowCapError):
            factored_expand(FactoredCount({2: 10**9}))

    def test_overflow_cap_boundary(self):
        # 2^cap has cap + 1 bits but a predicted size of exactly cap
        cap = DEFAULT_EXPAND_BIT_CAP
        assert factored_expand(FactoredCount({2: cap})) == 1 << cap
        with pytest.raises(OverflowCapError):
            factored_expand(FactoredCount({2: cap + 1}))

    def test_overflow_message_gives_size_not_digits(self):
        with pytest.raises(OverflowCapError) as exc:
            factored_expand(FactoredCount({2: 10**9}))
        assert str(exc.value) == "expansion would need 1.000e+09 bits, past the 16777216-bit cap"
        with pytest.raises(OverflowCapError) as exc:
            factored_expand(FactoredCount({3: 10**400}))
        assert str(exc.value) == "expansion would need over 10^308 bits, past the 16777216-bit cap"

    def test_huge_exponent_rejected_without_computing(self):
        with pytest.raises(OverflowCapError):
            factored_expand(FactoredCount({3: 10**100}))


def _decimal_cases(bits):
    rng = random.Random(bits)
    values = {0, 1, (1 << bits) - 1, 1 << bits, rng.getrandbits(bits), 10**(bits // 4)}
    return sorted(values | {-v for v in values})


class TestDecimalStr:
    @pytest.mark.parametrize("bits", [1, 64, 1000, 5000, 12_900, 12_901, 13_000, 14_000])
    def test_equals_str_below_the_digit_limit(self, bits):
        # str() serves up to 12,900 bits under the default limit of 4,300
        # digits; 14,000 bits (about 4,215 digits) already takes the split
        for v in _decimal_cases(bits):
            assert decimal_str(v) == str(v)

    def test_lowered_digit_limit(self):
        values = _decimal_cases(1_919) + _decimal_cases(1_921) + _decimal_cases(2_125)
        expected = [str(v) for v in values]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the lowest limit the interpreter accepts
        try:
            assert [decimal_str(v) for v in values] == expected
        finally:
            sys.set_int_max_str_digits(old)

    def test_equals_str_above_the_digit_limit(self):
        # 14,300 bits is 4,305 digits, just past the default limit of 4,300
        values = [v for bits in (14_300, 14_500, 40_001, 100_001) for v in _decimal_cases(bits)]
        values.append(3**22_720 * 2**6_883)  # the 12,913-digit count of cycle-3-2-7
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(old)
        assert [decimal_str(v) for v in values] == expected
        assert len(decimal_str(3**22_720 * 2**6_883)) == 12_913


class TestFactoredLog:
    def test_empty(self):
        assert factored_log(FactoredCount({})) == 0.0

    def test_small(self):
        expected = 4 * math.log(3) + math.log(2)
        assert factored_log(FactoredCount({3: 4, 2: 1})) == pytest.approx(expected, abs=1e-12)
        assert round(factored_log(FactoredCount({3: 4, 2: 1})), 4) == 5.0876

    def test_medium(self):
        got = factored_log(FactoredCount({3: 67, 2: 21}))
        assert got == pytest.approx(67 * math.log(3) + 21 * math.log(2), rel=1e-12)
        assert round(got, 4) == 88.1631

    def test_exponent_beyond_float_conversion(self):
        # float(exp) would raise OverflowError, but the product still fits
        exp = 2 * 10**308
        got = factored_log(FactoredCount({2: exp}))
        assert math.isfinite(got)
        # independent route: exp * ln(2) = e^(ln(exp) + ln(ln(2)))
        expected = math.exp(
            math.log(2) + 308 * math.log(10) + math.log(math.log(2))
        )
        assert got == pytest.approx(expected, rel=1e-10)

    def test_product_beyond_float_range_is_inf(self):
        assert factored_log(FactoredCount({2: 10**400})) == math.inf

    def test_matches_expansion(self):
        c = FactoredCount({3: 50, 7: 11, 2: 30})
        assert abs(factored_log(c) - math.log(factored_expand(c))) <= 1e-9 * factored_log(c)


class TestFactoredCountAlgebra:
    def test_merge_adds_exponents(self):
        a = FactoredCount({3: 4, 2: 1})
        b = FactoredCount({3: 1, 5: 2})
        assert (a * b).factors == {3: 5, 2: 1, 5: 2}

    def test_multiplicative(self):
        a = FactoredCount({3: 4, 2: 1})
        b = FactoredCount({45: 6, 2: 4})
        assert factored_expand(a * b) == factored_expand(a) * factored_expand(b)

    def test_zero_exponents_dropped(self):
        assert FactoredCount({3: 0, 2: 5}).factors == {2: 5}

    def test_bad_base_rejected(self):
        # a bool is refused as a base or an exponent, as it is for a vertex id
        for factors in ({1: 3}, {2: -1}, {True: 3}, {2: True}, {2: False}):
            with pytest.raises(ValueError):
                FactoredCount(factors)

    def test_repeated_pairs_merge(self):
        assert FactoredCount([(2, 3), (2, 4)]).factors == {2: 7}
        assert factored_expand(FactoredCount([(2, 3), (3, 1), (2, 4)])) == 2**7 * 3

    def test_bad_base_in_pairs_rejected(self):
        for pairs in ([(2, 3), (1, 3)], [(True, 3)], [(2, 3), (2, -1)]):
            with pytest.raises(ValueError):
                FactoredCount(pairs)

    def test_equality_across_presentations(self):
        assert FactoredCount({45: 6, 2: 4}) == FactoredCount({3: 12, 5: 6, 2: 4})
        assert FactoredCount({4: 3}) == FactoredCount({2: 6})
        assert FactoredCount({6: 2}) == FactoredCount({2: 2, 3: 2})
        assert FactoredCount({8: 2}) == FactoredCount({2: 6})
        assert FactoredCount({45: 6}) != FactoredCount({45: 7})
        assert FactoredCount({3: 4, 2: 1}) != FactoredCount({3: 4, 2: 2})

    def test_json_roundtrip_sorted(self):
        c = FactoredCount({45: 6, 2: 4})
        js = c.to_json()
        assert js == {"factors": [[2, "4"], [45, "6"]]}
        assert FactoredCount({b: int(e) for b, e in js["factors"]}) == c

    def test_str(self):
        assert str(FactoredCount({3: 16, 2: 5})) == "2^5*3^16"
        assert str(FactoredCount({})) == "1"

    def test_str_and_json_past_the_digit_limit(self):
        # W_20000 has one base, L_40000 - 2 (8362 digits), printed in full
        count = tau_closed(FractalParams(Family.WHEEL, 20000, 3, 0))
        a, b = 2, 1  # Lucas L_0, L_1
        for _ in range(40000):
            a, b = b, a + b
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{a - 2}^1"
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(count) == expected
        assert count.to_json() == {"factors": [[a - 2, "1"]]}
        huge = FactoredCount({2: 10**5000})
        assert str(huge) == "2^1" + "0" * 5000
        assert huge.to_json() == {"factors": [[2, "1" + "0" * 5000]]}

    @given(
        st.dictionaries(st.integers(2, 50), st.integers(0, 12), max_size=4),
        st.dictionaries(st.integers(2, 50), st.integers(0, 12), max_size=4),
    )
    @settings(max_examples=150)
    def test_expand_merge_property(self, fa, fb):
        a, b = FactoredCount(fa), FactoredCount(fb)
        assert factored_expand(a * b) == factored_expand(a) * factored_expand(b)

    @given(
        st.dictionaries(st.integers(2, 30), st.integers(0, 8), max_size=3),
        st.dictionaries(st.integers(2, 30), st.integers(0, 8), max_size=3),
    )
    @settings(max_examples=150)
    def test_equality_agrees_with_expansion(self, fa, fb):
        a, b = FactoredCount(fa), FactoredCount(fb)
        assert (a == b) == (factored_expand(a) == factored_expand(b))


class TestFactoredCountGuards:
    def test_immutable(self):
        count = FactoredCount({2: 1})
        for name in ("_factors", "other"):
            with pytest.raises(AttributeError):
                setattr(count, name, ())
        assert count.factors == {2: 1}

    def test_only_factored_counts_multiply(self):
        with pytest.raises(TypeError):
            FactoredCount({2: 1}) * 3
        with pytest.raises(TypeError):
            3 * FactoredCount({2: 1})

    def test_equal_only_to_factored_counts(self):
        assert (FactoredCount({2: 1}) == 2) is False
        assert FactoredCount({2: 1}) != 2

    def test_repr(self):
        assert repr(FactoredCount({})) == "FactoredCount({})"
        c = FactoredCount({45: 6, 2: 4})
        assert repr(c) == "FactoredCount({2: 4, 45: 6})"
        assert eval(repr(c), {"FactoredCount": FactoredCount}) == c

    def test_base_off_the_atoms_raises(self):
        # 6 = 2 * 3, and 3 is not among the atoms
        assert _atom_exponents([(4, 2)], [2]) == {2: 4}
        with pytest.raises(ArithmeticError, match="did not factor"):
            _atom_exponents([(6, 1)], [2])


class TestBareiss:
    def test_cycle_minor(self):
        assert bareiss_determinant([[2, -1], [-1, 2]]) == 3

    def test_identity(self):
        ident = [[int(i == j) for j in range(5)] for i in range(5)]
        assert bareiss_determinant(ident) == 1

    def test_wheel_minor(self):
        w4 = [[3, -1, 0, -1], [-1, 3, -1, 0], [0, -1, 3, -1], [-1, 0, -1, 3]]
        assert bareiss_determinant(w4) == 45

    def test_empty_matrix(self):
        assert bareiss_determinant([]) == 1

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0
        assert bareiss_determinant([[0, 0], [0, 0]]) == 0

    def test_zero_pivot_swap(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_cofactor_expansion(self, matrix):
        assert bareiss_determinant(matrix) == naive_determinant(matrix)


class TestRational:
    @given(
        st.fractions(max_denominator=1000),
        st.fractions(max_denominator=1000),
    )
    @settings(max_examples=100)
    def test_always_reduced(self, a, b):
        for value in (a + b, a - b, a * b):
            assert math.gcd(value.numerator, value.denominator) == 1
            assert value.denominator > 0
        if b != 0:
            q = a / b
            assert math.gcd(q.numerator, q.denominator) == 1
            assert q.denominator > 0

    def test_exact_example(self):
        assert Fraction(815, 1932) + Fraction(14, 1932) == Fraction(829, 1932)
