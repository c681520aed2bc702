"""Cuspidal character formulas against the independent oracle.

Expected values marked "frozen" were produced by running the character-table
oracle once and pinning the result; class order is the deterministic
(element order, class size, least representative index) order.
"""

import pytest

from basechange import cuspchar
from basechange.cyclo import ZERO, Cyclotomic, root_of_unity
from basechange.cuspchar import (
    FAMILIES,
    IdentificationError,
    _sl2_values,
    _u2_torus_values,
    canonical_gamma_rep,
    family_context,
    gl2_context,
    gl2_cuspidal,
    match_oracle,
    sigma0,
    sigma0_expected_parameter,
    sl2_context,
    sl2_cuspidal,
    sl2_reducible_formula,
    u2_context,
    u2_cuspidal,
)
from basechange.ffield import MultChar, NormOneChar, make_field
from basechange.grpcore import inner_product
from basechange.verify import (
    suite_endoscopic_finite,
    suite_level0_basechange,
    suite_restriction_sl2,
)

ONE = Cyclotomic.rational(1)
TWO = Cyclotomic.rational(2)


def norm_one(q, s):
    return NormOneChar(make_field(q, 2), make_field(q), s)


def regular_norm_one(q):
    return [norm_one(q, s) for s in range(q + 2) if (2 * s) % (q + 1) != 0]


def regular_mult(q):
    L = make_field(q, 2)
    return [MultChar(L, t) for t in range(L.q - 1) if t % (q + 1) != 0]


class TestSL2:
    def test_q3_order4_theta_frozen_values(self):
        # frozen: classes in order I, -I, n1, n_nu, elliptic, -n1, -n_nu
        chi = sl2_cuspidal(norm_one(3, 1))
        assert [v.as_rational() for v in chi.values] == [2, -2, -1, -1, 0, 1, 1]
        assert chi.degree == TWO

    def test_q3_self_inner_product_one_and_oracle_match(self):
        chi = sl2_cuspidal(norm_one(3, 1))
        assert inner_product(chi, chi) == ONE
        hits = match_oracle(chi, family_context("sl2", 3).table)
        assert len(hits) == 1
        assert family_context("sl2", 3).table[hits[0]].degree == TWO

    def test_rejects_non_regular_theta(self):
        for s in (0, 2):
            with pytest.raises(ValueError, match="reducible parameter"):
                sl2_cuspidal(norm_one(3, s))

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_regular_theta_matches_one_oracle_irreducible(self, q):
        table = family_context("sl2", q).table
        for theta in regular_norm_one(q):
            chi = sl2_cuspidal(theta)
            assert chi.degree == Cyclotomic.rational(q - 1)
            assert inner_product(chi, chi) == ONE
            assert len(match_oracle(chi, table)) == 1

    @pytest.mark.parametrize("q", [3, 5])
    def test_parameter_separation(self, q):
        # chi_theta == chi_theta' exactly when theta' in {theta, theta^-1}
        thetas = regular_norm_one(q)
        for t1 in thetas:
            for t2 in thetas:
                same = sl2_cuspidal(t1) == sl2_cuspidal(t2)
                orbit = t2 in (t1, t1.inverse())
                assert same == orbit

    @pytest.mark.parametrize("q", [3, 5])
    def test_split_regular_classes_vanish(self, q):
        ctx = sl2_context(q)
        assert len(ctx.split_classes) == (q - 3) // 2
        chi = sl2_cuspidal(norm_one(q, 1))
        for ci in ctx.split_classes:
            assert chi.on_class(ci).is_zero()

    @pytest.mark.parametrize("q", [3, 5])
    def test_order2_theta_packet(self, q):
        # The same formula at the order-2 theta is the sum of two distinct
        # irreducibles of degree (q-1)/2.
        theta = norm_one(q, (q + 1) // 2)
        red = sl2_reducible_formula(theta)
        assert inner_product(red, red) == TWO
        table = family_context("sl2", q).table
        mults = [inner_product(red, chi) for chi in table]
        hits = [i for i, m in enumerate(mults) if not m.is_zero()]
        assert len(hits) == 2
        half = Cyclotomic.rational((q - 1) // 2)
        for i in hits:
            assert mults[i] == ONE
            assert table[i].degree == half
        assert red == table[hits[0]] + table[hits[1]]

    @pytest.mark.parametrize("q", [3, 5])
    def test_trivial_theta_is_steinberg_minus_trivial(self, q):
        # At the trivial theta the formula is the virtual character St - 1.
        virtual = _sl2_values(norm_one(q, 0))
        table = family_context("sl2", q).table
        (trivial,) = [chi for chi in table if all(v == ONE for v in chi.values)]
        (steinberg,) = [chi for chi in table if chi.degree == Cyclotomic.rational(q)]
        assert inner_product(virtual, trivial) == -ONE
        assert inner_product(virtual, virtual) == TWO
        assert virtual == steinberg - trivial

    def test_reducible_formula_guards(self):
        with pytest.raises(ValueError, match="order-2"):
            sl2_reducible_formula(norm_one(3, 1))
        with pytest.raises(ValueError, match="trivial"):
            sl2_reducible_formula(norm_one(3, 0))


class TestGL2:
    def test_q3_regular_count_and_distinct_characters(self):
        chars = [gl2_cuspidal(tt) for tt in regular_mult(3)]
        assert len(chars) == 6
        distinct = []
        for c in chars:
            if not any(c == d for d in distinct):
                distinct.append(c)
        assert len(distinct) == 3  # q(q-1)/2

    @pytest.mark.parametrize("q", [3, 5])
    def test_oracle_match_and_degree(self, q):
        table = family_context("gl2", q).table
        hit_set = set()
        for tt in regular_mult(q):
            chi = gl2_cuspidal(tt)
            assert chi.degree == Cyclotomic.rational(q - 1)
            assert inner_product(chi, chi) == ONE
            hits = match_oracle(chi, table)
            assert len(hits) == 1
            hit_set.add(hits[0])
        # the q(q-1)/2 cuspidal irreducibles of degree q-1, each hit twice
        assert len(hit_set) == q * (q - 1) // 2

    @pytest.mark.parametrize("q", [3, 5])
    def test_parameter_separation(self, q):
        for t1 in regular_mult(q):
            for t2 in regular_mult(q):
                same = gl2_cuspidal(t1) == gl2_cuspidal(t2)
                orbit = t2 in (t1, t1.galois_twist())
                assert same == orbit

    def test_central_character_is_restriction(self):
        q = 3
        L, F = make_field(q, 2), make_field(q)
        emb = L.embedding(F)
        tt = MultChar(L, 1)
        chi = gl2_cuspidal(tt)
        for x, ci in gl2_context(q).central.items():
            assert chi.on_class(ci) / chi.degree == tt(emb[x])

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="non-regular"):
            gl2_cuspidal(MultChar(make_field(3, 2), 4))

    def test_rejects_odd_degree_field(self):
        with pytest.raises(ValueError, match="quadratic"):
            gl2_cuspidal(MultChar(make_field(3), 1))

    @pytest.mark.parametrize("t", [1, 7])
    def test_orbit_sum_conjugates_by_the_q_power_over_gf9(self, t):
        # L = GF(3^4) is the quadratic extension of GF(9): the conjugate of
        # x is x^9, which the p-power Frobenius x^3 is not.
        L = make_field(3, 4)
        chi = MultChar(L, t)
        orbit_sum = cuspchar._orbit_sum(chi, L)
        for x in L.nonzero():
            assert orbit_sum(x) == -(chi(x) + chi(L.pow(x, 9)))

    @pytest.mark.parametrize("q", [3, 5])
    def test_split_regular_classes_vanish(self, q):
        ctx = gl2_context(q)
        assert len(ctx.split_classes) == (q - 1) * (q - 2) // 2
        chi = gl2_cuspidal(MultChar(ctx.l, 1))
        for ci in ctx.split_classes:
            assert chi.on_class(ci).is_zero()


class TestU2:
    @pytest.mark.parametrize("q", [3, 5])
    def test_all_regular_pairs_match_uniquely(self, q):
        L, F = make_field(q, 2), make_field(q)
        thetas = [NormOneChar(L, F, s) for s in range(q + 1)]
        seen = {}
        for th1 in thetas:
            for th2 in thetas:
                if th1 == th2:
                    continue
                chi = u2_cuspidal(th1, th2)
                assert chi.degree == Cyclotomic.rational(q - 1)
                assert inner_product(chi, chi) == ONE
                seen[(th1.s, th2.s)] = chi
        # swap symmetry, and distinct unordered pairs give distinct characters
        for (s1, s2), chi in seen.items():
            assert chi == seen[(s2, s1)]
            for (r1, r2), other in seen.items():
                same = chi == other
                assert same == ({r1, r2} == {s1, s2})

    def test_rejects_equal_parameters(self):
        th = norm_one(3, 1)
        with pytest.raises(ValueError, match="not regular"):
            u2_cuspidal(th, th)

    def test_central_values_follow_torus_formula(self):
        q = 3
        ctx = u2_context(q)
        th1, th2 = norm_one(q, 0), norm_one(q, 1)
        chi = u2_cuspidal(th1, th2)
        for u, ci in ctx.central.items():
            assert chi.on_class(ci) == (q - 1) * (th1(u) * th2(u))

    def test_off_torus_classes_exist_and_are_oracle_valued(self):
        # the matched character is a verbatim oracle row, including values
        # on classes the torus formula never touches
        ctx = u2_context(3)
        torus_classes = set(ctx.torus_class.values())
        assert len(torus_classes) < len(ctx.classes)
        chi = u2_cuspidal(norm_one(3, 1), norm_one(3, 3))
        assert any(chi is row for row in ctx.table)


class TestSigma0:
    def test_q3_all_pairs_all_extensions(self):
        q = 3
        L, F = make_field(q, 2), make_field(q)
        for s1 in range(q + 1):
            for s2 in range(q + 1):
                if s1 == s2:
                    continue
                th1, th2 = NormOneChar(L, F, s1), NormOneChar(L, F, s2)
                exts1 = [MultChar(L, s1), MultChar(L, s1 + q + 1)]
                exts2 = [MultChar(L, s2), MultChar(L, s2 + q + 1)]
                for Th1 in exts1:
                    for Th2 in exts2:
                        built, ident = sigma0(th1, th2, Th1, Th2)
                        assert ident == sigma0_expected_parameter(Th1, Th2)
                        assert built == gl2_cuspidal(ident)
                        assert inner_product(built, built) == ONE

    def test_identified_parameter_is_canonical(self):
        q = 3
        L, F = make_field(q, 2), make_field(q)
        _, ident = sigma0(
            NormOneChar(L, F, 1),
            NormOneChar(L, F, 2),
            MultChar(L, 1),
            MultChar(L, 2),
        )
        assert ident == canonical_gamma_rep(ident)

    def test_rejects_non_extension(self):
        q = 3
        L, F = make_field(q, 2), make_field(q)
        with pytest.raises(ValueError, match="does not restrict"):
            sigma0(
                NormOneChar(L, F, 1),
                NormOneChar(L, F, 2),
                MultChar(L, 2),
                MultChar(L, 2),
            )

    def test_rejects_equal_parameters(self):
        q = 3
        L, F = make_field(q, 2), make_field(q)
        with pytest.raises(ValueError, match="not regular"):
            sigma0(
                NormOneChar(L, F, 1),
                NormOneChar(L, F, 1),
                MultChar(L, 1),
                MultChar(L, 1),
            )


def gl2_candidates(q):
    L = gl2_context(q).l
    cands = [MultChar(L, t) for t in range(L.q - 1)]
    return [c for c in cands if c.is_regular() and c == canonical_gamma_rep(c)]


def equal_values(xs, ys):
    return all(a == b for a, b in zip(xs, ys, strict=True))


def regular_pairs(q):
    return [(s1, s2) for s1 in range(q + 1) for s2 in range(q + 1) if s1 != s2]


def first_sigma0_args(q):
    """One regular pair with one choice of extensions."""
    L = gl2_context(q).l
    return norm_one(q, 0), norm_one(q, 1), MultChar(L, 0), MultChar(L, 1)


class TestIndexAgainstScan:
    """The keyed lookups in sigma0 and u2_cuspidal return what a linear scan
    with exact value-by-value == returns, and every error stays reachable."""

    @pytest.mark.parametrize("q", [3, 5])
    def test_sigma0_identifications(self, q):
        L = gl2_context(q).l
        cands = gl2_candidates(q)
        for s1, s2 in regular_pairs(q):
            for j1 in range(q - 1):
                for j2 in range(q - 1):
                    Th1, Th2 = MultChar(L, s1 + (q + 1) * j1), MultChar(L, s2 + (q + 1) * j2)
                    built, ident = sigma0(norm_one(q, s1), norm_one(q, s2), Th1, Th2)
                    scan = [c for c in cands if equal_values(gl2_cuspidal(c).values, built.values)]
                    assert scan == [ident]
        index = gl2_context(q).cuspidal_index
        assert [item for _, item in index.entries] == cands
        assert sorted(len(items) for items in index.by_key.values()) == [1] * len(cands)

    @pytest.mark.parametrize("q", [3, 5])
    def test_u2_rows(self, q):
        ctx = u2_context(q)
        for s1, s2 in regular_pairs(q):
            th1, th2 = norm_one(q, s1), norm_one(q, s2)
            wanted = _u2_torus_values(ctx, th1, th2)
            scan = [
                chi
                for chi in ctx.table
                if all(chi.on_class(ci) == val for ci, val in wanted.items())
            ]
            assert len(scan) == 1 and u2_cuspidal(th1, th2) is scan[0]

    def test_perturbed_sigma0_has_no_identification(self, monkeypatch):
        ctx = gl2_context(3)
        original = cuspchar._sigma0_values

        def perturbed(*args):
            values = original(*args)
            ci = next(iter(ctx.elliptic_reps))
            values[ci] = values[ci] + 1
            return values

        monkeypatch.setattr(cuspchar, "_sigma0_values", perturbed)
        with pytest.raises(IdentificationError, match="no cuspidal identification"):
            sigma0(*first_sigma0_args(3))

    def test_equal_keys_are_ambiguous(self, monkeypatch):
        ctx = gl2_context(3)
        _, ident = sigma0(*first_sigma0_args(3))
        other = next(c for c in gl2_candidates(3) if c != ident)
        real = cuspchar.gl2_cuspidal
        monkeypatch.delattr(ctx, "cuspidal_index")
        monkeypatch.setattr(
            cuspchar, "gl2_cuspidal", lambda c: real(ident) if c == other else real(c)
        )
        with pytest.raises(IdentificationError, match="ambiguous cuspidal identification"):
            sigma0(*first_sigma0_args(3))
        assert sorted(len(items) for items in ctx.cuspidal_index.by_key.values())[-1] == 2

    def test_probe_off_the_index_conductor_is_scanned(self, monkeypatch):
        ctx = gl2_context(3)
        _, ident = sigma0(*first_sigma0_args(3))
        index = ctx.cuspidal_index
        values = list(gl2_cuspidal(ident).values)
        values[ctx.split_classes[0]] = values[ctx.split_classes[0]].promote(2 * index.conductor)

        def no_keys(*args):
            raise AssertionError("the key path ran")

        monkeypatch.setattr(cuspchar._KeyIndex, "_key", no_keys)
        assert index.lookup(values) == [ident]
        values[0] = values[0] + 1
        assert index.lookup(values) == []
        # And through sigma0 itself.
        original = cuspchar._sigma0_values

        def promoted(*args):
            out = original(*args)
            out[0] = out[0].promote(2 * index.conductor)
            return out

        monkeypatch.setattr(cuspchar, "_sigma0_values", promoted)
        assert sigma0(*first_sigma0_args(3))[1] == ident

    def test_u2_errors_stay_reachable(self, monkeypatch):
        ctx = u2_context(3)
        th1, th2 = norm_one(3, 0), norm_one(3, 1)
        row = u2_cuspidal(th1, th2)

        def perturbed(*args):
            values = _u2_torus_values(*args)
            ci = next(iter(values))
            values[ci] = values[ci] + 1
            return values

        with monkeypatch.context() as m:
            m.setattr(cuspchar, "_u2_torus_values", perturbed)
            with pytest.raises(IdentificationError, match="Ennola mismatch"):
                u2_cuspidal(th1, th2)
        with monkeypatch.context() as m:
            m.setattr(ctx, "table", ctx.table + [row])
            m.delattr(ctx, "torus_index")
            with pytest.raises(IdentificationError, match="ambiguous: several oracle irreducibles"):
                u2_cuspidal(th1, th2)
        with monkeypatch.context() as m:
            u = ctx.l1[1]
            clash = dict(ctx.torus_class)
            clash[(u, ctx.l1[2])] = ctx.central[u]
            m.setattr(ctx, "torus_class", clash)
            with pytest.raises(AssertionError, match="inconsistent torus values"):
                u2_cuspidal(th1, th2)
        with monkeypatch.context() as m:
            conductor = ctx.torus_index.conductor

            def promoted(*args):
                values = _u2_torus_values(*args)
                ci = next(iter(values))
                values[ci] = values[ci].promote(2 * conductor)
                return values

            m.setattr(cuspchar, "_u2_torus_values", promoted)
            assert u2_cuspidal(th1, th2) is row


# Term-by-term references: the formulas as Cyclotomic sums and products of
# root_of_unity values, one operation per term, as they were written before
# the values were built from exponents.


def reference_cuspidal_values(ctx, omega, elliptic):
    emb = ctx.l.embedding(ctx.k0)
    values = [ZERO] * len(ctx.classes)
    for z, ci in ctx.central.items():
        values[ci] = (ctx.q - 1) * omega(emb[z])
    for (z, _b), ci in ctx.unipotent.items():
        values[ci] = -omega(emb[z])
    for ci, x in ctx.elliptic_reps.items():
        values[ci] = elliptic(x)
    return values


def reference_orbit_sum(chi, L):
    return lambda x: -(chi(x) + chi(L.frobenius(x, L.k // 2)))


def reference_sigma0_values(ctx, theta1, theta2, omega):
    L, N, qm1 = ctx.l, ctx.l.q - 1, ctx.q - 1

    def elliptic(x):
        a = omega.exponent(L.frobenius(x, L.k // 2))
        xn = L.pow(x, -qm1)
        return -(
            root_of_unity(N, a + qm1 * theta1.exponent(xn))
            + root_of_unity(N, a + qm1 * theta2.exponent(xn))
        )

    return reference_cuspidal_values(ctx, omega, elliptic)


def reference_u2_torus_values(ctx, theta1, theta2):
    values = {}
    qm1, n = ctx.q - 1, ctx.q + 1
    e1, e2 = theta1.exponent, theta2.exponent
    for (u1, u2), ci in ctx.torus_class.items():
        if u1 == u2:
            values[ci] = qm1 * root_of_unity(n, e1(u1) + e2(u1))
        else:
            values[ci] = -(root_of_unity(n, e1(u1) + e2(u2)) + root_of_unity(n, e1(u2) + e2(u1)))
    return values


def assert_same_values(built, reference):
    # Equal as numbers, and stored at the same orders: the texts agree.
    assert len(built) == len(reference)
    assert all(a == b for a, b in zip(built, reference))
    assert [v.serialize() for v in built] == [v.serialize() for v in reference]


class TestExponentForm:
    """The exponent-form formulas against the term-by-term references, at
    every parameter."""

    @pytest.mark.parametrize("q", [3, 5])
    def test_sigma0_values(self, q):
        ctx = gl2_context(q)
        L = ctx.l
        for s1, s2 in regular_pairs(q):
            th1, th2 = norm_one(q, s1), norm_one(q, s2)
            for j1 in range(q - 1):
                for j2 in range(q - 1):
                    omega = MultChar(L, s1 + (q + 1) * j1) * MultChar(L, s2 + (q + 1) * j2)
                    assert_same_values(
                        cuspchar._sigma0_values(ctx, th1, th2, omega),
                        reference_sigma0_values(ctx, th1, th2, omega),
                    )

    @pytest.mark.parametrize("q", [3, 5])
    def test_u2_torus_values(self, q):
        ctx = u2_context(q)
        for s1, s2 in regular_pairs(q):
            th1, th2 = norm_one(q, s1), norm_one(q, s2)
            built = _u2_torus_values(ctx, th1, th2)
            reference = reference_u2_torus_values(ctx, th1, th2)
            assert sorted(built) == sorted(reference)
            assert_same_values([built[ci] for ci in sorted(built)], [reference[ci] for ci in sorted(built)])

    @pytest.mark.parametrize("q", [3, 5])
    def test_gl2_and_sl2_cuspidal_values(self, q):
        ctx = gl2_context(q)
        for chi in regular_mult(q):
            assert_same_values(
                gl2_cuspidal(chi).values,
                reference_cuspidal_values(ctx, chi, reference_orbit_sum(chi, ctx.l)),
            )
        ctx = sl2_context(q)
        for theta in regular_norm_one(q):
            assert_same_values(
                sl2_cuspidal(theta).values,
                reference_cuspidal_values(ctx, theta, reference_orbit_sum(theta, ctx.l)),
            )


class TestStandardAccess:
    def test_standard_group_orders(self):
        assert family_context("sl2", 3).group.order == 24
        assert family_context("gl2", 3).group.order == 48
        assert family_context("u2", 3).group.order == 96

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_context("so5", 3).group
        with pytest.raises(ValueError, match="unknown family"):
            family_context("so5", 3).table


class TestFamilyRegistry:
    def test_registry_names_the_cached_factories(self):
        assert FAMILIES == {"sl2": sl2_context, "gl2": gl2_context, "u2": u2_context}
        for factory in FAMILIES.values():
            assert factory.cache_info().maxsize is None

    def test_cli_choices_come_from_the_registry(self):
        from basechange import cli

        assert cli._FAMILIES == ("sl2", "gl2", "u2")
        assert cli._FAMILIES == tuple(FAMILIES)

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_standard_access_reads_the_context(self, family):
        ctx = FAMILIES[family](3)
        assert family_context(family, 3).group is ctx.group
        assert family_context(family, 3).table is ctx.table
        # the oracle table is built once per context
        assert ctx.table is ctx.table

    @pytest.mark.parametrize("q", [3, 5])
    def test_families_share_the_base_field(self, q):
        # U2 asks for GF(q) as make_field(p, k), GL2 and SL2 as make_field(q).
        assert u2_context(q).k0 is gl2_context(q).k0 is sl2_context(q).k0

    def test_key_error_inside_a_build_is_not_an_unknown_family(self, monkeypatch):
        def broken(q):
            raise KeyError("inside the build")

        monkeypatch.setitem(FAMILIES, "sl2", broken)
        with pytest.raises(KeyError, match="inside the build"):
            family_context("sl2", 3).group
        with pytest.raises(KeyError, match="inside the build"):
            family_context("sl2", 3).table


GL2_11 = "GL2 order 13200 exceeds size bound 10000"
SL2_23 = "SL2 order 12144 exceeds size bound 10000"
U2_11 = "U2 order 15840 exceeds size bound 10000"


class TestLibraryBound:
    """Every library entry point that reaches a family context refuses it
    once the bound drops below its order, although the context is cached."""

    @pytest.mark.parametrize(
        "family,q,call,message",
        [
            ("gl2", 11, lambda: family_context("gl2", 11).table, GL2_11),
            ("gl2", 11, lambda: gl2_cuspidal(MultChar(make_field(11, 2), 1)), GL2_11),
            ("sl2", 23, lambda: sl2_cuspidal(norm_one(23, 1)), SL2_23),
            ("sl2", 23, lambda: sl2_reducible_formula(norm_one(23, 12)), SL2_23),
            ("u2", 11, lambda: u2_cuspidal(norm_one(11, 0), norm_one(11, 1)), U2_11),
            ("gl2", 11, lambda: sigma0(*first_sigma0_args(11)), GL2_11),
            ("gl2", 11, lambda: suite_level0_basechange(11), GL2_11),
            ("gl2", 11, lambda: suite_restriction_sl2(11), GL2_11),
            ("gl2", 11, lambda: suite_endoscopic_finite(11), GL2_11),
        ],
        ids=[
            "family_context",
            "gl2_cuspidal",
            "sl2_cuspidal",
            "sl2_reducible_formula",
            "u2_cuspidal",
            "sigma0",
            "level0",
            "restriction",
            "endoscopic",
        ],
    )
    def test_a_cached_context_is_refused_after_the_bound_drops(
        self, family, q, call, message, monkeypatch
    ):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "20000")
        family_context(family, q)
        monkeypatch.delenv("BASECHANGE_MAX_GROUP")
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
