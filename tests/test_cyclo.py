"""Tests for exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basechange.cyclo import (
    ONE,
    ZERO,
    Cyclotomic,
    _reduce_dense,
    cyclotomic_polynomial,
    dot,
    euler_phi,
    parse,
    root_of_unity,
    root_sum,
)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24]


def small_rationals():
    return st.fractions(
        min_value=-9, max_value=9, max_denominator=6
    )


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from(ORDERS))
    coeffs = draw(
        st.lists(small_rationals(), min_size=euler_phi(n), max_size=euler_phi(n))
    )
    return Cyclotomic.from_coeffs(n, coeffs)


class TestPinnedValues:
    def test_primitive_eighth_root_squared(self):
        z = root_of_unity(8, 2)
        assert z * z == -1

    def test_cube_roots_sum_to_zero(self):
        total = sum((root_of_unity(3, k) for k in range(3)), ZERO)
        assert total.is_zero()
        assert total == 0

    def test_conjugation_of_fifth_root(self):
        assert root_of_unity(5).conj() == root_of_unity(5, 4)

    def test_galois_on_seventh_root(self):
        assert root_of_unity(7).galois(2) == root_of_unity(7, 2)

    def test_inverse_of_fourth_root(self):
        assert root_of_unity(4).inv() == -root_of_unity(4)

    def test_abs_square_of_one_plus_i(self):
        assert (1 + root_of_unity(4)).abs_square() == 2

    def test_zero_inverse_message(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            ZERO.inv()
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            ONE / ZERO

    def test_cross_order_equality(self):
        assert root_of_unity(3) == root_of_unity(6, 2)
        assert root_of_unity(6) == 1 + root_of_unity(3)
        assert root_of_unity(2) == -1

    def test_rational_comparison_needs_no_promotion(self, monkeypatch):
        def promote(self, m):
            raise AssertionError("promoted")

        monkeypatch.setattr(Cyclotomic, "promote", promote)
        assert root_of_unity(12, 4) + root_of_unity(12, 8) == -1
        assert root_of_unity(5) != 1 and 1 != root_of_unity(5)
        assert Cyclotomic.from_coeffs(7, [Fraction(1, 2)] + [0] * 5) == Fraction(1, 2)
        assert root_of_unity(4) * root_of_unity(4, 3) == 1
        assert root_of_unity(3) != 1.0

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_full_root_sum_vanishes(self):
        for n in [2, 3, 4, 6, 8, 12]:
            total = sum((root_of_unity(n, k) for k in range(n)), ZERO)
            assert total.is_zero()

    def test_galois_needs_coprime_exponent(self):
        with pytest.raises(ValueError):
            root_of_unity(6).galois(2)

    def test_root_order(self):
        z = root_of_unity(12)
        powers = [z**k for k in range(1, 12)]
        assert all(p != 1 for p in powers)
        assert z**12 == 1


class TestSerialization:
    def test_format(self):
        x = Cyclotomic.from_coeffs(8, [Fraction(1, 2), 0, 3, -1])
        assert x.serialize() == "cyc(8)[1/2,0,3,-1]"

    def test_roundtrip_examples(self):
        for text in ["cyc(8)[1/2,0,3,-1]", "cyc(1)[-7/3]", "cyc(5)[0,1,0,0]"]:
            assert parse(text).serialize() == text

    @given(cyclotomics())
    @settings(max_examples=60)
    def test_roundtrip_random(self, x):
        y = parse(x.serialize())
        assert y == x
        assert y.serialize() == x.serialize()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("cyc(8)(1,2)")

    @pytest.mark.parametrize("n", [1, 4, 12, 24])
    def test_matches_a_fraction_reference(self, n):
        # Zero, negative numerators and denominators > 1, on seeded values.
        rng = random.Random(n)
        values = [Cyclotomic(n, 1, (0,) * euler_phi(n)), Cyclotomic(n, 6, (-4,) * euler_phi(n))]
        for den in (1, 2, 6, 12, 35):
            for _ in range(20):
                num = tuple(rng.randint(-40, 40) for _ in range(euler_phi(n)))
                values.append(Cyclotomic(n, den, num))
        for x in values:
            parts = [str(Fraction(c, x._den)) for c in x._num]
            assert x.serialize() == "cyc(%d)[%s]" % (n, ",".join(parts))


class TestRingAxioms:
    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=40)
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=30)
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(cyclotomics())
    @settings(max_examples=40)
    def test_additive_structure(self, x):
        assert x + ZERO == x
        assert x - x == 0
        assert x * ONE == x
        assert x * 0 == 0

    @given(cyclotomics(), st.integers(-7, 7))
    @settings(max_examples=40)
    def test_integer_scaling_is_the_rational_product(self, x, k):
        expected = x * Cyclotomic.rational(k)
        assert (x * k).serialize() == (k * x).serialize() == expected.serialize()

    @given(cyclotomics())
    @settings(max_examples=40)
    def test_inverse(self, x):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
        else:
            assert x * x.inv() == 1
            assert (ONE / x) * x == 1


class TestGaloisAction:
    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=30)
    def test_conj_is_ring_map(self, x, y):
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()

    @given(cyclotomics())
    @settings(max_examples=40)
    def test_conj_involution(self, x):
        assert x.conj().conj() == x

    @given(cyclotomics())
    @settings(max_examples=40)
    def test_abs_square_real_and_definite(self, x):
        s = x.abs_square()
        assert s.conj() == s
        assert s.is_zero() == x.is_zero()
        r = s.as_rational()
        if r is not None:
            assert r >= 0

    def test_galois_composition(self):
        x = Cyclotomic.from_coeffs(15, [1, 2, 0, 1, Fraction(1, 2), 0, 0, 3])
        assert x.galois(2).galois(4) == x.galois(8)
        assert x.galois(1) == x

    def test_galois_fixes_rationals(self):
        x = Cyclotomic.rational(Fraction(22, 7))
        assert x.conj() == x
        prom = x + root_of_unity(5) - root_of_unity(5)
        assert prom.galois(3) == prom


def promoted_eq(x, y):
    """Equality by definition: both values promoted to the lcm order."""
    m = lcm(x.order, y.order)
    a, b = x.promote(m), y.promote(m)
    return a._den == b._den and a._num == b._num


@st.composite
def mixed_order_pairs(draw):
    # Orders 1, p, 2p, 12 and 56; denominators up to 6; zeros; and pairs of
    # one value at two orders, which are equal.
    orders = st.sampled_from([1, 3, 5, 7, 6, 10, 14, 12, 56])

    def value(n):
        if draw(st.booleans()):
            return Cyclotomic(n, 1, (0,) * euler_phi(n))
        coeffs = draw(st.lists(small_rationals(), min_size=euler_phi(n), max_size=euler_phi(n)))
        return Cyclotomic.from_coeffs(n, coeffs)

    x = value(draw(orders))
    if draw(st.booleans()):
        return x, x.promote(x.order * draw(st.sampled_from([1, 2, 4, 7])))
    return x, value(draw(orders))


class TestPromotion:
    @given(mixed_order_pairs())
    @settings(max_examples=300)
    def test_equality_across_orders_is_equality_after_promotion(self, pair):
        x, y = pair
        assert (x == y) == promoted_eq(x, y) == (y == x)

    def test_equality_across_orders_builds_no_promoted_value(self, monkeypatch):
        def promote(self, m):
            raise AssertionError("promoted")

        half_root = root_of_unity(56, 8) * Fraction(1, 2)
        monkeypatch.setattr(Cyclotomic, "promote", promote)
        assert root_of_unity(3) == root_of_unity(6, 2)
        assert root_of_unity(56, 8) == root_of_unity(7)
        assert half_root != root_of_unity(7) and root_of_unity(7) != half_root
        assert Cyclotomic(12, 1, (0,) * 4) == Cyclotomic(5, 3, (0,) * 4)

    @given(cyclotomics(), st.sampled_from([2, 3, 4]))
    @settings(max_examples=40)
    def test_promotion_preserves_value(self, x, factor):
        y = x.promote(x.order * factor)
        assert y == x
        assert y.order == x.order * factor

    def test_promotion_requires_multiple(self):
        with pytest.raises(ValueError):
            root_of_unity(8).promote(12)

    @given(cyclotomics())
    @settings(max_examples=40)
    def test_rational_detection(self, x):
        r = x.as_rational()
        if r is not None:
            assert x == Cyclotomic.rational(r)


# -- the long division by Phi_n -----------------------------------------


def naive_remainder(num, poly):
    # Schoolbook: cancel the top term against the dense monic poly until
    # fewer than deg(poly) coefficients are left.
    num, phi = list(num), len(poly) - 1
    while len(num) > phi:
        c = num.pop()
        for i in range(phi):
            num[len(num) - phi + i] -= c * poly[i]
    return tuple(num) + (0,) * (phi - len(num))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def exact_quotient(num, poly):
    # Schoolbook division by a monic poly that must leave no remainder.
    num, phi = list(num), len(poly) - 1
    quotient = [0] * (len(num) - phi)
    for k in range(len(quotient) - 1, -1, -1):
        c = quotient[k] = num[k + phi]
        for i in range(phi + 1):
            num[k + i] -= c * poly[i]
    assert not any(num)
    return quotient


@st.composite
def dense_inputs(draw):
    n = draw(st.integers(1, 120))
    dense = draw(st.lists(st.integers(-50, 50), max_size=3 * n))
    return n, dense


class TestDivision:
    @given(dense_inputs())
    @settings(max_examples=300)
    def test_reduce_dense_is_the_remainder_by_phi_n(self, case):
        n, dense = case
        expected = naive_remainder(dense, cyclotomic_polynomial(n))
        assert _reduce_dense(n, list(dense)) == expected

    def test_euler_phi_counts_the_units(self):
        for n in range(1, 501):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_product_over_divisors_is_x_n_minus_1(self):
        for n in range(1, 61):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = poly_mul(product, cyclotomic_polynomial(d))
            assert product == [-1] + [0] * (n - 1) + [1]

    def test_phi_n_equals_the_quotient_of_x_n_minus_1(self):
        # The construction Phi_n replaced: x^n - 1 divided exactly by
        # Phi_d for each proper divisor d, every Phi_d built the same way.
        quotients = {}
        for n in range(1, 301):
            poly = [-1] + [0] * (n - 1) + [1]
            for d in range(1, n):
                if n % d == 0:
                    poly = exact_quotient(poly, quotients[d])
            quotients[n] = tuple(poly)
            assert cyclotomic_polynomial(n) == quotients[n]

    def test_phi_105_has_a_coefficient_minus_2(self):
        poly = cyclotomic_polynomial(105)
        assert len(poly) == 49 and min(poly) == -2
        assert [i for i, c in enumerate(poly) if c == -2] == [7, 41]

    def test_phi_30030_has_degree_5760(self):
        assert euler_phi(30030) == 5760
        assert cyclotomic_polynomial(30030)[-1] == 1

    def test_euler_phi_needs_a_positive_order(self):
        with pytest.raises(ValueError, match="positive integer"):
            euler_phi(0)


# -- keys and the reduce-once kernel ------------------------------------

KEY_ORDERS = [1, 2, 3, 4, 6, 8, 12, 20, 24]


@st.composite
def key_cyclotomics(draw):
    # Coefficients from a small set, so that equal values turn up often.
    n = draw(st.sampled_from(KEY_ORDERS))
    phi = euler_phi(n)
    coeffs = draw(
        st.lists(st.sampled_from([-1, 0, 0, 1, Fraction(1, 2)]), min_size=phi, max_size=phi)
    )
    return Cyclotomic.from_coeffs(n, coeffs)


@st.composite
def key_pairs(draw):
    """(x, y) with y random, or equal to x at another order."""
    x = draw(key_cyclotomics())
    kind = draw(st.sampled_from(["random", "promoted", "shifted"]))
    if kind == "random":
        return x, draw(key_cyclotomics())
    if kind == "promoted":
        return x, x.promote(x.order * draw(st.sampled_from([1, 2, 3, 6])))
    z = draw(key_cyclotomics())
    return x, (x + z) - z


class TestKeys:
    @given(key_pairs())
    @settings(max_examples=200)
    def test_key_equality_agrees_with_eq(self, pair):
        x, y = pair
        m = lcm(x.order, y.order)
        for conductor in (m, lcm(m, 120)):
            assert (x.key(conductor) == y.key(conductor)) == (x == y)

    def test_equal_values_of_different_orders_share_a_key(self):
        i = root_of_unity(4)
        same = [i, root_of_unity(8, 2), root_of_unity(12, 3), root_of_unity(24, 6), i.promote(20)]
        assert len({v.key(120) for v in same}) == 1
        minus_one = [Cyclotomic.rational(-1), root_of_unity(2), root_of_unity(6, 3)]
        assert len({v.key(24) for v in minus_one}) == 1
        assert ZERO.key(24) == ZERO.promote(24).key(24) != ONE.key(24)

    def test_key_of_own_order_is_the_stored_pair(self):
        x = Cyclotomic.from_coeffs(8, [Fraction(1, 2), 0, -1, 3])
        assert x.key(8) == (2, (1, 0, -2, 6))

    def test_key_needs_a_multiple_of_the_order(self):
        with pytest.raises(ValueError):
            root_of_unity(8).key(12)

    def test_roots_are_shared(self):
        assert root_of_unity(12, 5) is root_of_unity(12, -7) is root_of_unity(12, 17)
        assert root_of_unity(12, 5) == root_of_unity(12, 5).promote(24)


class TestRootSum:
    @given(
        st.sampled_from(ORDERS),
        st.integers(-6, 6),
        st.lists(st.integers(-50, 50), max_size=4),
    )
    @settings(max_examples=150)
    def test_equals_the_term_by_term_sum(self, n, coeff, exponents):
        naive = ZERO.promote(n)
        for e in exponents:
            naive = naive + root_of_unity(n, e)
        naive = Cyclotomic.rational(coeff) * naive
        got = root_sum(n, coeff, exponents)
        # Same value at the same order n: the serialization is byte-identical.
        assert got.order == n
        assert got.serialize() == naive.serialize()

    def test_one_object_per_exponent_multiset(self):
        assert root_sum(24, -1, (5, 19)) is root_sum(24, -1, [43, -19])
        assert root_sum(6, 4, (1,)) is not root_sum(6, 4, (1, 1))
        assert root_sum(6, 4, (1, 1)) == root_sum(6, 8, (1,))
        assert root_sum(6, 1, (5,)) is not root_of_unity(6, 5)
        assert root_sum(6, 1, (5,)).serialize() == root_of_unity(6, 5).serialize()

    def test_shapes_of_the_rank_one_formulas(self):
        # (q-1) zeta^e, -zeta^e and -(zeta^a + zeta^b), here with q = 5.
        z = root_of_unity(24, 1)
        assert root_sum(24, 4, (7,)) == 4 * z**7
        assert root_sum(24, -1, (7,)) == -(z**7)
        assert root_sum(24, -1, (7, 12)) == -(z**7 + z**12)
        assert root_sum(24, -1, (0, 12)).is_zero()

    def test_rejects_a_nonpositive_order(self):
        with pytest.raises(ValueError):
            root_sum(0, 1, (1,))


def naive_dot(xs, ys, weights, conj, den):
    total = ZERO
    for x, y, w in zip(xs, ys, weights):
        total = total + x * (y.conj() if conj else y) * Cyclotomic.rational(w)
    return total * Fraction(1, den)


class TestDot:
    @given(
        st.lists(st.tuples(cyclotomics(), cyclotomics(), st.integers(-5, 5)), max_size=6),
        st.booleans(),
        st.integers(1, 12),
    )
    @settings(max_examples=120)
    def test_equals_the_naive_sum(self, triples, conj, den):
        xs = [x for x, _, _ in triples]
        ys = [y for _, y, _ in triples]
        ws = [w for _, _, w in triples]
        got = dot(xs, ys, ws, conj=conj, den=den)
        # Same value and same order: the serialization is byte-identical.
        assert got.serialize() == naive_dot(xs, ys, ws, conj, den).serialize()

    @given(st.lists(st.tuples(key_cyclotomics(), key_cyclotomics()), max_size=5))
    @settings(max_examples=60)
    def test_default_weights_are_one(self, pairs):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        naive = naive_dot(xs, ys, [1] * len(pairs), False, 1)
        assert dot(xs, ys).serialize() == naive.serialize()

    def test_non_rational_results(self):
        cases = [
            ([root_of_unity(8), root_of_unity(3)], [ONE, root_of_unity(4)], [2, -1], False),
            ([root_of_unity(5)], [root_of_unity(5, 2)], [1], True),
            ([root_of_unity(20, 3), root_of_unity(24, 7)], [root_of_unity(12, 5), ONE], [3, 1], True),
        ]
        for xs, ys, ws, conj in cases:
            got = dot(xs, ys, ws, conj=conj)
            assert got.as_rational() is None
            assert got.serialize() == naive_dot(xs, ys, ws, conj, 1).serialize()
        assert dot([root_of_unity(5)], [root_of_unity(5, 2)], conj=True) == root_of_unity(5, -1)

    def test_empty_sum_is_a_rational_zero(self):
        assert dot([], []).serialize() == "cyc(1)[0]"

    def test_shared_values_give_the_same_sum_every_time(self):
        # A value lists its nonzero terms once; reusing it must not change
        # any later sum.
        x = root_sum(24, -1, (9, 14))
        ys = [x, ONE, root_of_unity(8, 3)]
        first = dot([x, x, x], ys, [1, 2, 3], conj=True, den=5)
        assert dot([x, x, x], ys, [1, 2, 3], conj=True, den=5).serialize() == first.serialize()
        assert first.serialize() == naive_dot([x, x, x], ys, [1, 2, 3], True, 5).serialize()

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError):
            dot([ONE], [])
