"""Tests for finite fields, the norm, and character groups."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import norm, retract

from basechange.cyclo import ZERO
from basechange.ffield import (
    FField,
    MAX_FIELD_SIZE,
    MultChar,
    NormOneChar,
    _factorize,
    _is_prime,
    _poly_mod,
    _poly_mulmod,
    _poly_powmod,
    _poly_roots,
    _prime_power,
    _primitive_root,
    _sqrt_mod,
    make_field,
    norm_one_generator,
    norm_one_subgroup,
)


class TestConstruction:
    def test_rejects_even_characteristic(self):
        with pytest.raises(ValueError, match="odd characteristic only"):
            make_field(2, 1)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="prime"):
            make_field(9, 1)

    def test_gf3(self):
        F = make_field(3)
        assert F.q == 3
        assert sorted(F.elements()) == [0, 1, 2]
        assert F.generator == 2

    def test_one_instance_per_field_however_the_degree_is_passed(self):
        assert make_field(3) is make_field(3, 1)
        assert make_field(3) is make_field(p=3, k=1)
        assert make_field(3, 2) is make_field(3, k=2)

    def test_gf9_modulus_and_generator(self):
        F = make_field(3, 2)
        assert F.modulus == (1, 0, 1)
        assert F.coeffs(F.generator) == (1, 1)

    def test_gf25_and_gf49(self):
        assert make_field(5, 2).q == 25
        assert make_field(7, 2).q == 49
        assert len(norm_one_subgroup(make_field(5, 2), make_field(5))) == 6

    def test_sqrt_of_two_in_gf9(self):
        F = make_field(3, 2)
        x = F.from_coeffs([0, 1])
        two = F.embedding(make_field(3))[2]
        assert F.mul(x, x) == two

    def test_generator_has_full_order(self):
        for p, k in [(3, 1), (3, 2), (5, 2), (7, 2)]:
            F = make_field(p, k)
            assert F.element_order(F.generator) == F.q - 1

    def test_field_axioms_gf9_exhaustive(self):
        F = make_field(3, 2)
        for a, b, c in itertools.product(F.elements(), repeat=3):
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        for a in F.nonzero():
            assert F.mul(a, F.inv(a)) == F.one


def pairwise_tables(F):
    """The tables by definition: digitwise sums, and products of the
    coefficient polynomials reduced by the modulus, one pair at a time; the
    generator is the least element of order q - 1 under that product."""
    p, k, q = F.p, F.k, F.q
    tuples = list(itertools.product(range(p), repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    mod = list(F.modulus)

    def poly_mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            for j in range(k + 1):
                prod[i - k + j] -= c * mod[j]
        return index[tuple(c % p for c in prod[:k])]

    add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in tuples] for a in tuples]
    mul = [[poly_mul(a, b) for b in tuples] for a in tuples]
    neg = [index[tuple(-x % p for x in a)] for a in tuples]
    one = index[(1,) + (0,) * (k - 1)]

    def powers(x):
        out = [one]
        while mul[out[-1]][x] != one:
            out.append(mul[out[-1]][x])
        return out

    generator = next(x for x in range(1, q) if len(powers(x)) == q - 1)
    gpow = powers(generator)
    dlog = [None] * q
    for j, x in enumerate(gpow):
        dlog[x] = j
    return add, mul, neg, generator, dlog, gpow


class TestTables:
    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (11, 2)])
    def test_tables_match_the_pairwise_polynomial_definition(self, p, k):
        F = make_field(p, k)
        assert (F._add, F._mul, F._neg, F.generator, F._dlog, F._gpow) == pairwise_tables(F)

    def test_tables_hold_one_int_object_per_code(self):
        F = make_field(23, 2)
        codes = list(F._index.values())
        assert codes == list(F.elements())
        for row in F._add + F._mul + [F._neg, F._gpow]:
            assert all(x is codes[x] for x in row)

    def test_gf529_tables_stay_under_5_5_mb(self):
        # 9.5 MB when every sum was its own int object.
        tracemalloc.start()
        try:
            F = FField(23, 2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F.q == 529
        assert held <= 5.5e6


class TestFrobeniusNormTrace:
    def test_frobenius_generates_automorphisms(self):
        F = make_field(5, 2)
        assert any(F.frobenius(x) != x for x in F.elements())
        assert all(F.frobenius(x, 2) == x for x in F.elements())

    @pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (5, 2), (3, 3)])
    def test_frobenius_table_is_the_power_map(self, p, k):
        F = make_field(p, k)
        for times in range(k + 1):
            images = [F.frobenius(x, times) for x in F.elements()]
            assert images == [F.pow(x, p**times) for x in F.elements()]
            assert sorted(images) == list(F.elements())

    def test_norm_of_generator_gf9(self):
        F9, F3 = make_field(3, 2), make_field(3)
        assert norm(F9, F9.generator, F3) == 2

    def test_norm_of_one(self):
        for p in [3, 5, 7]:
            Fq2, Fq = make_field(p, 2), make_field(p)
            assert norm(Fq2, Fq2.one, Fq) == Fq.one

    def test_norm_multiplicative(self):
        F, sub = make_field(3, 2), make_field(3)
        for x, y in itertools.product(F.elements(), repeat=2):
            assert norm(F, F.mul(x, y), sub) == sub.mul(norm(F, x, sub), norm(F, y, sub))

    def test_norm_is_power_map(self):
        for p in [3, 5]:
            F, sub = make_field(p, 2), make_field(p)
            e = (F.q - 1) // (sub.q - 1)
            emb = F.embedding(sub)
            for x in F.nonzero():
                assert emb[norm(F, x, sub)] == F.pow(x, e)

    def test_norm_needs_subfield(self):
        with pytest.raises(ValueError, match="subfield"):
            norm(make_field(3, 2), 0, make_field(5))

    def test_hilbert_90(self):
        for p in [3, 5, 7]:
            F, sub = make_field(p, 2), make_field(p)
            kernel = {x for x in F.nonzero() if norm(F, x, sub) == sub.one}
            assert len(kernel) == p + 1
            ratios = {F.mul(y, F.inv(F.frobenius(y))) for y in F.nonzero()}
            assert ratios == kernel

    def test_norm_surjective(self):
        F, sub = make_field(5, 2), make_field(5)
        assert {norm(F, x, sub) for x in F.nonzero()} == set(sub.nonzero())


class TestEmbedding:
    def test_embedding_is_ring_map(self):
        F, sub = make_field(3, 2), make_field(3)
        e = F.embedding(sub)
        for x, y in itertools.product(sub.elements(), repeat=2):
            assert e[sub.add(x, y)] == F.add(e[x], e[y])
            assert e[sub.mul(x, y)] == F.mul(e[x], e[y])
        assert e[sub.one] == F.one

    def test_self_embedding_is_identity(self):
        F = make_field(5, 2)
        assert F.embedding(F) == list(F.elements())

    def test_retract_roundtrip_and_error(self):
        F, sub = make_field(3, 2), make_field(3)
        e = F.embedding(sub)
        for x in sub.elements():
            assert retract(F, e[x], sub) == x
        outside = next(a for a in F.elements() if a not in e)
        with pytest.raises(ValueError, match="subfield"):
            retract(F, outside, sub)


class TestNormOneSubgroup:
    def test_q3_is_z4(self):
        F9, F3 = make_field(3, 2), make_field(3)
        group = norm_one_subgroup(F9, F3)
        assert len(group) == 4
        u = norm_one_generator(F9, F3)
        assert [F9.pow(u, j) for j in range(4)] == group
        assert F9.element_order(u) == 4

    def test_contains_plus_minus_one(self):
        for p in [3, 5, 7]:
            F, sub = make_field(p, 2), make_field(p)
            group = norm_one_subgroup(F, sub)
            assert F.one in group and F.neg(F.one) in group

    def test_norm_one_condition(self):
        F, sub = make_field(5, 2), make_field(5)
        group = norm_one_subgroup(F, sub)
        assert all(F.pow(x, sub.q + 1) == F.one for x in group)


class TestCharacters:
    def test_norm_one_regular_count_q3(self):
        F9, F3 = make_field(3, 2), make_field(3)
        chars = [NormOneChar(F9, F3, s) for s in range(F3.q + 1)]
        assert len(chars) == 4
        regular = [th for th in chars if th.is_regular()]
        assert len(regular) == 2
        assert all(th.order() == 4 for th in regular)

    def test_trivial_character_not_regular(self):
        F9, F3 = make_field(3, 2), make_field(3)
        assert not NormOneChar(F9, F3, 0).is_regular()
        assert not MultChar(F9, 0).is_regular()

    def test_mult_regular_count_q3(self):
        # Regular characters of the order-8 group: those nontrivial mod q+1,
        # which is (q^2-1) - (q-1) = 6 of them at q = 3.
        chars = [MultChar(make_field(3, 2), t) for t in range(8)]
        assert len(chars) == 8
        assert sum(1 for ch in chars if ch.is_regular()) == 6

    def test_character_is_homomorphism(self):
        F = make_field(3, 2)
        ch = MultChar(F, 3)
        for x, y in itertools.product(F.nonzero(), repeat=2):
            assert ch(F.mul(x, y)) == ch(x) * ch(y)

    def test_character_rejects_zero(self):
        F = make_field(3, 2)
        with pytest.raises(ValueError):
            MultChar(F, 1)(F.zero)

    def test_orthogonality_mult(self):
        F = make_field(3, 2)
        chars = [MultChar(F, t) for t in range(F.q - 1)]
        for a, b in itertools.product(chars, repeat=2):
            total = sum((a(x) * b(x).conj() for x in F.nonzero()), ZERO)
            assert total == (F.q - 1 if a == b else 0)

    def test_orthogonality_norm_one(self):
        F9, F3 = make_field(3, 2), make_field(3)
        group = norm_one_subgroup(F9, F3)
        chars = [NormOneChar(F9, F3, s) for s in range(F3.q + 1)]
        for a, b in itertools.product(chars, repeat=2):
            total = sum((a(x) * b(x).conj() for x in group), ZERO)
            assert total == (len(group) if a == b else 0)

    def test_extension_criterion(self):
        # Theta_t restricts to theta_s on the norm-one subgroup iff t = s mod q+1.
        F9, F3 = make_field(3, 2), make_field(3)
        group = norm_one_subgroup(F9, F3)
        for t in range(8):
            Th = MultChar(F9, t)
            for s in range(4):
                th = NormOneChar(F9, F3, s)
                agrees = all(Th(x) == th(x) for x in group)
                assert agrees == Th.extends(th)
                assert Th.extends(th) == (t % 4 == s)

    def test_galois_twist(self):
        F9 = make_field(3, 2)
        ch = MultChar(F9, 1)
        tw = ch.galois_twist()
        for x in F9.nonzero():
            assert tw(x) == ch(F9.frobenius(x))
        assert ch.is_regular() == (ch != tw)

    def test_norm_one_char_values(self):
        F9, F3 = make_field(3, 2), make_field(3)
        th = NormOneChar(F9, F3, 1)
        u = norm_one_generator(F9, F3)
        from basechange.cyclo import root_of_unity

        assert th(u) == root_of_unity(4, 1)
        assert th(F9.one) == 1
        with pytest.raises(ValueError, match="norm-one"):
            th(F9.generator)


# -- prime and polynomial helpers ------------------------------------------


def poly_value(poly, x, p):
    return sum(c * pow(x, e, p) for e, c in enumerate(poly)) % p


def poly_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


SMALL_PRIMES = [3, 5, 7, 11, 13, 31]
# The oracle's primes r for SL2(5), GL2(5), U2(5) (and SL2(9)), GL2(7),
# U2(7) and U2(9).
ORACLE_PRIMES = [1321, 5281, 6481, 30241, 35281, 40801]


def irreducible(f, p):
    """Whether the monic f of degree 2 or 3 is irreducible over GF(p), by
    schoolbook arithmetic only: a quadratic has a non-square discriminant;
    a cubic divides x^(p^3) - x (squarefree, factors of degree 1 or 3) but
    not x^p - x (not three linear factors)."""
    if len(f) == 3:
        return pow((f[1] * f[1] - 4 * f[0]) % p, (p - 1) // 2, p) == p - 1
    x = naive_mod([0, 1], f, p)
    return naive_powmod([0, 1], p**3, f, p) == x != naive_powmod([0, 1], p, f, p)


@st.composite
def split_products(draw):
    """(p, poly, roots): up to 11 random linear factors (with repeats) times
    up to two random irreducible quadratics and cubics, scaled, over a small
    prime or one of the oracle's primes."""
    p = draw(st.sampled_from(SMALL_PRIMES + ORACLE_PRIMES))
    roots = draw(st.lists(st.integers(0, p - 1), max_size=11))
    poly = [draw(st.integers(1, p - 1))]
    for x in roots:
        poly = poly_product(poly, [-x % p, 1], p)
    for degree in draw(st.lists(st.sampled_from([2, 3]), max_size=2)):
        factor = draw(
            st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)
            .map(lambda cs: cs + [1])
            .filter(lambda f: irreducible(f, p))
        )
        poly = poly_product(poly, factor, p)
    return p, poly, roots


def naive_mod(poly, mod, p):
    # Schoolbook division by the monic mod, reducing every term.
    poly = [c % p for c in poly]
    dm = len(mod) - 1
    for i in range(len(poly) - 1, dm - 1, -1):
        c = poly[i]
        for j in range(dm + 1):
            poly[i - dm + j] = (poly[i - dm + j] - c * mod[j]) % p
    return (poly[:dm] + [0] * dm)[:dm]


def naive_powmod(a, e, mod, p):
    # Schoolbook square and multiply, every product reduced by naive_mod.
    result, base = naive_mod([1], mod, p), naive_mod(a, mod, p)
    for bit in bin(e)[2:]:
        result = naive_mod(poly_product(result, result, p), mod, p)
        if bit == "1":
            result = naive_mod(poly_product(result, base, p), mod, p)
    return result


class TestPolynomialKernels:
    @pytest.mark.parametrize("p", [3, 30241])
    def test_mulmod_and_mod_match_schoolbook(self, p):
        rng = random.Random(p)
        for _ in range(200):
            mod = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            a = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
            assert _poly_mod(a, mod, p) == naive_mod(a, mod, p)
            assert _poly_mulmod(a, b, mod, p) == naive_mod(poly_product(a, b, p), mod, p)

    @pytest.mark.parametrize(
        "p,k", [(p, k) for p in (3, 5, 7) for k in range(1, 9) if p**k <= MAX_FIELD_SIZE]
    )
    def test_packed_powmod_matches_schoolbook_at_every_field_degree(self, p, k):
        # Every GF(p^k) that FField builds for p in {3, 5, 7}: the moduli it
        # searches and the exponents it raises to.
        rng = random.Random(100 * p + k)
        for _ in range(30):
            mod = [rng.randrange(p) for _ in range(k)] + [1]
            a = [rng.randrange(p) for _ in range(rng.randint(1, 2 * k + 1))]
            for e in (0, 1, 2, p, (p**k - 1) // 2, p**k, rng.randrange(p ** (k + 1))):
                assert _poly_powmod(a, e, mod, p) == naive_powmod(a, e, mod, p)

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_packed_powmod_matches_schoolbook_at_the_oracle_primes(self, p):
        # The root finder's powers: x^p and (x + a)^((p-1)/2), degrees to 40.
        rng = random.Random(p)
        for d in (1, 2, 3, 5, 11, 23, 40):
            mod = [rng.randrange(p) for _ in range(d)] + [1]
            for a in ([0, 1], [rng.randrange(p), 1], [rng.randrange(p) for _ in range(2 * d + 3)]):
                for e in (p, (p - 1) // 2):
                    assert _poly_powmod(a, e, mod, p) == naive_powmod(a, e, mod, p)


class TestPrimeAndPolynomialHelpers:
    def test_factorize(self):
        assert _factorize(30240) == [2, 3, 5, 7]
        assert _factorize(97) == [97]
        assert _factorize(1) == []

    def test_prime_power(self):
        assert [_prime_power(q) for q in (3, 9, 81, 125, 2, 97)] == [
            (3, 1), (3, 2), (3, 4), (5, 3), (2, 1), (97, 1)
        ]
        for q in (1, 0, -9, 6, 12, 30240):
            with pytest.raises(ValueError, match="q must be a prime power"):
                _prime_power(q)

    def test_primitive_root(self):
        for r in (3, 5, 7, 31, 30241, 35281):
            g = _primitive_root(r)
            assert all(pow(g, (r - 1) // q, r) != 1 for q in _factorize(r - 1))
        assert [n for n in range(20) if _is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    @given(split_products(), st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_roots_are_the_distinct_roots(self, case, seed):
        p, poly, roots = case
        found = _poly_roots(poly, p, random.Random(seed))
        assert found == sorted(set(roots))
        assert len(found) == len(set(roots))
        assert all(poly_value(poly, x, p) == 0 for x in found)
        if p in SMALL_PRIMES:
            assert found == [x for x in range(p) if poly_value(poly, x, p) == 0]

    @pytest.mark.parametrize("p", SMALL_PRIMES + ORACLE_PRIMES)
    def test_a_split_part_of_degree_at_most_two_draws_nothing(self, p):
        # At most two distinct roots, raised to powers up to 3, times
        # irreducible factors: degree >= 3, but gcd(x^p - x, poly) has
        # degree <= 2 and is solved by formula.  rng=None: a draw would raise.
        rng = random.Random(p)

        def irreducible_factor(degree):
            while True:
                f = [rng.randrange(p) for _ in range(degree)] + [1]
                if irreducible(f, p):
                    return f

        for _ in range(25):
            roots = [rng.randrange(p) for _ in range(rng.randint(0, 2))]
            poly = [rng.randrange(1, p)]
            for x in roots:
                for _ in range(rng.randint(1, 3)):
                    poly = poly_product(poly, [-x % p, 1], p)
            for degree in rng.sample([2, 3, 3], rng.randint(0, 2)):
                poly = poly_product(poly, irreducible_factor(degree), p)
            if len(poly) < 4:
                poly = poly_product(poly, irreducible_factor(3), p)
            assert _poly_roots(poly, p, None) == sorted(set(roots))


class TestClosedFormRoots:
    """Degrees 1 and 2 are solved by formula, with no random draw."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
    def test_linear_and_quadratic_against_brute_force(self, p):
        kinds = set()
        for lead in (1, p - 1, 2):
            for c0 in range(p):
                linear = [c0 * lead % p, lead]
                assert _poly_roots(linear, p, None) == [-c0 % p]
                for c1 in range(p):
                    poly = [c0 * lead % p, c1 * lead % p, lead]
                    brute = [x for x in range(p) if poly_value(poly, x, p) == 0]
                    # rng=None: any draw (the Cantor-Zassenhaus branch) would raise.
                    assert _poly_roots(poly, p, None) == brute
                    disc = (c1 * c1 - 4 * c0) % p
                    kinds.add("double" if disc == 0 else "split" if brute else "irreducible")
        assert kinds == {"split", "double", "irreducible"}

    @pytest.mark.parametrize("p", [17, 97, 257])
    def test_square_root_of_every_residue(self, p):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            root = _sqrt_mod(a, p)
            if a in squares:
                assert root is not None and root * root % p == a
            else:
                assert root is None
        assert _sqrt_mod(p + 4, p) in (2, p - 2)

    def test_square_root_of_random_residues(self):
        p, rng = 6481, random.Random(6481)
        for _ in range(300):
            x = rng.randrange(p)
            assert _sqrt_mod(x * x % p, p) in (x, -x % p)
            a = rng.randrange(1, p)
            root = _sqrt_mod(a, p)
            if pow(a, (p - 1) // 2, p) == 1:
                assert root * root % p == a
            else:
                assert root is None
