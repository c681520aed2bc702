"""Extraspecial groups, torus actions, Heisenberg representations and their
extensions: frozen expected values plus structural property checks."""

from functools import partial
from itertools import product

import pytest

from conftest import power

from basechange import heis
from basechange.cyclo import ONE, ZERO, Cyclotomic, root_of_unity
from basechange.grpcore import orbits, product_column
from basechange.heis import (
    ExtraspecialGroup,
    HeisRep,
    _mtrace,
    _verify_intertwines,
    SymplecticSpace,
    TorusAction,
    build_extraspecial,
    expected_multiplicity_multiset,
    extend,
    extraspecial_group,
    heisenberg_rep,
    intertwiner,
    lemma_H_verify,
    multiplicities,
    nonsplit_torus_action,
    split_torus_action,
    torus_action_consequences,
    torus_realization,
)
from basechange.verify import DEFAULT_HEIS_TUPLES, suite_heisenberg

TUPLES = [
    (3, 1, 2, "split"),
    (3, 1, 4, "nonsplit"),
    (5, 1, 4, "split"),
    (5, 1, 6, "nonsplit"),
    (7, 1, 8, "nonsplit"),
]

EXPECTED_MULTISETS = {
    (3, 1, 2): [1, 2],
    (3, 1, 4): [0, 1, 1, 1],
    (5, 1, 4): [1, 1, 1, 2],
    (5, 1, 6): [0, 1, 1, 1, 1, 1],
    (7, 1, 8): [0, 1, 1, 1, 1, 1, 1, 1],
}

EXPECTED_EPSILON = {
    (3, 1, 2): -1,
    (3, 1, 4): -1,
    (5, 1, 4): 1,
    (5, 1, 6): -1,
    (7, 1, 8): -1,
}


def commutator_key(G, g, h):
    """g h g^-1 h^-1 by the group law on codes."""
    return G.mul_key(G.mul_key(g, h), G.mul_key(G.inv_key(g), G.inv_key(h)))


class TestSymplecticSpace:
    def test_standard_gram(self):
        sp = SymplecticSpace(3, 1)
        assert sp.gram == ((0, 1), (2, 0))
        sp2 = SymplecticSpace(3, 2)
        assert sp2.gram[0][2] == 1 and sp2.gram[2][0] == 2
        assert sp2.gram[1][3] == 1 and sp2.gram[3][1] == 2

    def test_pairing_antisymmetric_nondegenerate(self):
        sp = SymplecticSpace(5, 1)
        vecs = sp.vectors()
        assert len(vecs) == 25
        for v in vecs:
            for w in vecs:
                assert (sp.pairing(v, w) + sp.pairing(w, v)) % 5 == 0
        for v in vecs:
            if v == sp.zero:
                continue
            assert any(sp.pairing(v, w) != 0 for w in vecs)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="odd characteristic only"):
            SymplecticSpace(2, 1)
        with pytest.raises(ValueError, match="p must be prime"):
            SymplecticSpace(9, 1)
        with pytest.raises(ValueError, match="positive"):
            SymplecticSpace(3, 0)


class TestExtraspecialGroup:
    @pytest.mark.parametrize("p,a,order", [(3, 1, 27), (5, 1, 125), (3, 2, 243)])
    def test_order(self, p, a, order):
        G = extraspecial_group(p, a)
        assert G.group.order == order

    def test_center_is_z_coordinate(self):
        G = extraspecial_group(3, 1)
        assert len(G.center_keys) == 3
        for z_key in G.center_keys:
            assert all(
                G.mul_key(z_key, g) == G.mul_key(g, z_key)
                for g in G.group.elements
            )

    def test_codes_are_their_own_indices(self):
        # Heis(7): no |G|-entry dict anywhere in the table; Heis(3): mul,
        # which reads the index, is mul_key on every pair.
        table = extraspecial_group(7, 1).group
        assert table.index == range(table.order) == table.elements
        assert not any(
            isinstance(v, dict) and len(v) >= table.order for v in vars(table).values()
        )
        G = extraspecial_group(3, 1)
        codes = G.group.elements
        assert all(G.group.mul(g, h) == G.mul_key(g, h) for g in codes for h in codes)

    def test_commutator_realizes_pairing(self):
        G = extraspecial_group(3, 1)
        sp = G.space
        for g in G.group.elements:
            for h in G.group.elements:
                comm = G.decode(commutator_key(G, g, h))
                assert comm == (sp.zero, sp.pairing(G.decode(g)[0], G.decode(h)[0]))

    def test_exponent_p(self):
        G = extraspecial_group(5, 1)
        table = G.group
        for i in range(table.order):
            assert power(table, i, 5) == table.id

    def test_rejects_even_characteristic(self):
        with pytest.raises(ValueError, match="odd"):
            build_extraspecial(2, 1)

    def test_cached(self):
        # One cache entry per group, however (p, a) is spelled.
        assert extraspecial_group(3) is extraspecial_group(3, 1) is extraspecial_group(p=3, a=1)

    def test_one_cache_entry_per_rep(self):
        assert heisenberg_rep(3) is heisenberg_rep(3, 1) is heisenberg_rep(p=3, a=1)


class TestSizeBound:
    """Every door to a Heisenberg group refuses it over the size bound, on
    every call: a cache hit under a larger bound is not served."""

    MESSAGE = "Heis order 125 exceeds size bound 100"

    @pytest.mark.parametrize("build,args", [(build_extraspecial, (5, 1)), (split_torus_action, (5, 4))])
    def test_builders(self, build, args, monkeypatch):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "100")
        with pytest.raises(ValueError, match=self.MESSAGE):
            build(*args)

    @pytest.mark.parametrize("door", [extraspecial_group, heisenberg_rep])
    def test_cached_doors_after_a_hit(self, door, monkeypatch):
        door(5, 1)
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "100")
        with pytest.raises(ValueError, match=self.MESSAGE):
            door(5, 1)


def is_basis_vector(v) -> bool:
    return sorted(v) == [0] * (len(v) - 1) + [1]


class TestGroupCertificateFaults:
    """One fault per build_extraspecial certificate, caught by it and by no
    other.  Given the commutator certificate, the center and radical ones
    state the same thing, so a fault that one sees alone lies in what the
    commutator check does not read: it reads the pairing formula only
    against the generators' vectors, none of them a standard basis vector
    at p = 3, and the radical check reads it only on basis pairs."""

    @staticmethod
    def basis_pairs_only(monkeypatch, keep: bool):
        # The pairing formula on basis pairs only (keep), or off them only.
        pairing = SymplecticSpace.pairing

        def restricted(self, v, w):
            on_basis = is_basis_vector(v) and is_basis_vector(w)
            return pairing(self, v, w) if on_basis == keep else 0

        monkeypatch.setattr(SymplecticSpace, "pairing", restricted)

    def test_center(self, monkeypatch):
        # An abelian group: its commutators are trivial, as is the formula
        # against every generator; its exponent is p, and the formula keeps a
        # nondegenerate Gram matrix.
        init = SymplecticSpace.__init__

        def no_phase(self, p, a):
            init(self, p, a)
            self.half_dots = [0] * len(self.half_dots)

        monkeypatch.setattr(SymplecticSpace, "__init__", no_phase)
        self.basis_pairs_only(monkeypatch, keep=True)
        G = ExtraspecialGroup(SymplecticSpace(3, 1))
        assert not any(is_basis_vector(G.decode(s)[0]) for s in G.group.generators())
        with pytest.raises(AssertionError, match="^center is not the central coordinate$"):
            build_extraspecial(3, 1)

    def test_commutator(self, monkeypatch):
        # The pairing formula with its sign flipped: still nondegenerate.
        pairing = SymplecticSpace.pairing
        monkeypatch.setattr(SymplecticSpace, "pairing", lambda self, v, w: -pairing(self, v, w) % self.p)
        with pytest.raises(AssertionError, match="^commutator does not realize the pairing$"):
            build_extraspecial(3, 1)

    def test_exponent(self, monkeypatch):
        # The extraspecial group of exponent p^2: the first coordinate carries
        # into the center.  The carry is a symmetric cocycle, so commutators
        # and the center stay as they were.
        p = 3
        mul_key, inv_key = ExtraspecialGroup.mul_key, ExtraspecialGroup.inv_key

        def carried(self, g, h):
            k = mul_key(self, g, h)
            return k - k % p + (k + (g // p**2 + h // p**2 >= p)) % p

        def carried_inv(self, g):
            k = inv_key(self, g)
            return k - k % p + (k - (g >= p**2)) % p

        monkeypatch.setattr(ExtraspecialGroup, "mul_key", carried)
        monkeypatch.setattr(ExtraspecialGroup, "inv_key", carried_inv)
        monkeypatch.setattr(ExtraspecialGroup, "column", lambda self, group, h: product_column(group, h))
        G = ExtraspecialGroup(SymplecticSpace(p, 1))
        assert power(G.group, p**2, p) == 1  # ((1, 0), 0)^p = ((0, 0), 1)
        with pytest.raises(AssertionError, match="^exponent is not p$"):
            build_extraspecial(p, 1)

    def test_radical(self, monkeypatch):
        # The true group against a formula that is zero on basis pairs: its
        # Gram matrix is zero, and it agrees with the group off the basis.
        self.basis_pairs_only(monkeypatch, keep=False)
        G = ExtraspecialGroup(SymplecticSpace(3, 1))
        assert not any(is_basis_vector(G.decode(s)[0]) for s in G.group.generators())
        with pytest.raises(AssertionError, match="^pairing has a radical vector$"):
            build_extraspecial(3, 1)


class TestTorusRealizations:
    @pytest.mark.parametrize("p,d,realization", [(t[0], t[2], t[3]) for t in TUPLES])
    def test_order_and_hypothesis(self, p, d, realization):
        act = torus_realization(p, d, realization)
        assert act.order == d
        assert act.hypothesis_H()

    def test_split_needs_divisor_of_p_minus_one(self):
        with pytest.raises(ValueError, match=r"realization impossible for \(p=3, d=4\)"):
            split_torus_action(3, 4)

    def test_nonsplit_needs_divisor_of_p_plus_one(self):
        with pytest.raises(ValueError, match=r"split needs d \| p-1 = 4, nonsplit needs d \| p\+1 = 6"):
            nonsplit_torus_action(5, 4)

    @pytest.mark.parametrize("d", [0, -4])
    @pytest.mark.parametrize("realization", ["split", "nonsplit"])
    def test_torus_order_below_one_is_named(self, d, realization):
        # -4 divides both p - 1 = 2 and p + 1 = 4: the divisibility rule
        # alone would let it through.
        message = "^torus order d must be a positive integer, got %d$" % d
        with pytest.raises(ValueError, match=message):
            torus_realization(3, d, realization)
        with pytest.raises(ValueError, match=message):
            suite_heisenberg([(3, 1, d, realization)])

    def test_impossible_both_ways(self):
        with pytest.raises(ValueError, match=r"realization impossible for \(p=3, d=5\)"):
            torus_realization(3, 5, "split")

    @pytest.mark.parametrize("build,p", [(split_torus_action, 15), (nonsplit_torus_action, 9)])
    def test_composite_p_is_named_by_each_builder(self, build, p):
        # d = 4 fails divisibility here too; the prime test comes first.
        with pytest.raises(ValueError, match="^p must be prime$"):
            build(p, 4)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_both_tori_act_on_the_groups_space(self, p):
        # (p, 1) as lemma_H_verify's representation and the heis suite ask.
        space = extraspecial_group(p, 1).space
        assert heisenberg_rep(p).group.space is space
        assert split_torus_action(p, p - 1).space is space
        assert nonsplit_torus_action(p, p + 1).space is space

    @pytest.mark.parametrize("build,p,d,message", [
        (split_torus_action, 15, 4, "^p must be prime$"),
        (nonsplit_torus_action, 9, 4, "^p must be prime$"),
        (split_torus_action, 11, 3, r"^realization impossible for \(p=11, d=3\)"),
        (nonsplit_torus_action, 11, 5, r"^realization impossible for \(p=11, d=5\)"),
    ])
    def test_parameters_are_refused_before_the_group_is_built(self, build, p, d, message, monkeypatch):
        def unbuilt(p, a=1):
            raise AssertionError("the group was built")

        monkeypatch.setattr(heis, "extraspecial_group", unbuilt)
        with pytest.raises(ValueError, match=message):
            build(p, d)

    def test_unknown_realization(self):
        with pytest.raises(ValueError, match="unknown realization"):
            torus_realization(3, 2, "twisted")

    def test_rejects_non_symplectic_matrix(self):
        with pytest.raises(ValueError, match="preserve the symplectic form"):
            TorusAction(SymplecticSpace(3, 1), ((2, 0), (0, 1)))

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError, match="singular"):
            TorusAction(SymplecticSpace(3, 1), ((1, 0), (2, 0)))

    def test_trivial_power_fixes_everything(self):
        act = torus_realization(3, 4, "nonsplit")
        assert len(act.fixed_vectors(0)) == 9
        for j in range(1, 4):
            assert act.fixed_vectors(j) == [(0, 0)]


class TestHeisRep:
    def test_dimension(self):
        assert heisenberg_rep(3, 1).dim == 3
        assert heisenberg_rep(5, 1).dim == 5

    def test_rejects_trivial_central_character(self):
        with pytest.raises(ValueError, match="nontrivial"):
            heisenberg_rep(3, 1, theta_exp=3)

    def test_central_elements_act_by_scalar(self):
        rep = heisenberg_rep(3, 1)
        zero_v = rep.group.space.zero
        for z in range(3):
            m = rep.matrix(rep.group.encode((zero_v, z)))
            for i in range(rep.dim):
                for j in range(rep.dim):
                    expected = rep.theta(z) if i == j else 0
                    assert m[i][j] == expected

    def test_matrix_of_inverse_is_inverse(self):
        rep = heisenberg_rep(3, 1)
        group = rep.group
        for key in list(group.group.elements)[:9]:
            m = rep.matrix(key)
            mi = rep.matrix(group.inv_key(key))
            for i in range(rep.dim):
                for j in range(rep.dim):
                    acc = sum(
                        (m[i][k] * mi[k][j] for k in range(rep.dim)),
                        m[i][0] * 0,
                    )
                    assert acc == (1 if i == j else 0)

    def test_trace_product_matches_dense_trace(self):
        rep = heisenberg_rep(3, 1)
        dense = rep.matrix(rep.group.encode(((1, 2), 1)))
        for key in map(rep.group.encode, [((0, 0), 0), ((1, 0), 2), ((2, 1), 0)]):
            prod_trace = rep.trace_product(dense, key)
            m = rep.matrix(key)
            direct = sum(
                (
                    dense[i][k] * m[k][i]
                    for i in range(rep.dim)
                    for k in range(rep.dim)
                ),
                dense[0][0] * 0,
            )
            assert prod_trace == direct


class TestExtensions:
    def test_extension_count_and_order(self):
        rep = heisenberg_rep(3, 1)
        act = torus_realization(3, 4, "nonsplit")
        exts = extend(rep, act)
        assert len(exts) == 4
        assert sorted(e.label for e in exts) == [0, 1, 2, 3]
        for e in exts:
            m = e.op(1)
            acc = m
            for _ in range(3):
                acc = tuple(
                    tuple(
                        sum((acc[i][k] * m[k][j] for k in range(3)), acc[0][0] * 0)
                        for j in range(3)
                    )
                    for i in range(3)
                )
            for i in range(3):
                for j in range(3):
                    assert acc[i][j] == (1 if i == j else 0)

    def test_seed_independence_up_to_scalar(self):
        rep = heisenberg_rep(3, 1)
        act = torus_realization(3, 4, "nonsplit")
        a1 = intertwiner(rep, act, seed=(0, 0))
        a2 = intertwiner(rep, act, seed=(1, 2))
        n = rep.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert a1[i][j] * a2[k][l] == a1[k][l] * a2[i][j]

    def test_rejects_torus_order_divisible_by_p(self):
        rep = heisenberg_rep(3, 1)
        unipotent = TorusAction(SymplecticSpace(3, 1), ((1, 1), (0, 1)))
        assert unipotent.order == 3
        with pytest.raises(ValueError, match="prime to p"):
            extend(rep, unipotent)

    def test_rejects_hypothesis_H_failure(self):
        rep = heisenberg_rep(3, 2)
        mat = (
            (1, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 2),
        )
        act = TorusAction(SymplecticSpace(3, 2), mat)
        assert act.order == 2
        assert not act.hypothesis_H()
        with pytest.raises(ValueError, match=r"hypothesis \(H\) fails"):
            extend(rep, act)

    @pytest.mark.parametrize("p,a,d,realization", TUPLES)
    def test_multiplicity_multisets(self, p, a, d, realization):
        rep = heisenberg_rep(p, a)
        act = torus_realization(p, d, realization)
        expected = EXPECTED_MULTISETS[(p, a, d)]
        for ext in extend(rep, act):
            mult = multiplicities(ext)
            assert sorted(mult.values()) == expected
            assert sum(mult.values()) == p**a

    @pytest.mark.parametrize("p,a,d,realization", TUPLES)
    def test_traces_are_signed_characters(self, p, a, d, realization):
        rep = heisenberg_rep(p, a)
        act = torus_realization(p, d, realization)
        eps = EXPECTED_EPSILON[(p, a, d)]
        seen = set()
        for ext in extend(rep, act):
            hits = [
                xi
                for xi in range(d)
                if all(
                    ext.trace(j) == eps * root_of_unity(d, xi * j)
                    for j in range(1, d)
                )
            ]
            assert len(hits) == 1
            seen.add(hits[0])
            for j in range(1, d):
                assert ext.trace(j).abs_square() == ONE
        assert seen == set(range(d))


class TestClosedForms:
    def test_expected_multiset_branches(self):
        assert expected_multiplicity_multiset(3, 1, 2) == [1, 2]
        assert expected_multiplicity_multiset(5, 1, 4) == [1, 1, 1, 2]
        assert expected_multiplicity_multiset(7, 1, 8) == [0] + [1] * 7

    def test_expected_multiset_rejects_bad_d(self):
        with pytest.raises(ValueError, match="divides neither"):
            expected_multiplicity_multiset(5, 1, 7)


class TestLemmaHReports:
    @pytest.mark.parametrize("p,a,d,realization", TUPLES)
    def test_all_checks_pass(self, p, a, d, realization):
        rpt = lemma_H_verify(p, a, d, realization)
        assert rpt.passed
        names = [c.name for c in rpt.checks]
        assert names == [
            "extension_count",
            "trace_sign_law",
            "trace_modulus_one",
            "multiplicity_multiset",
            "coset_trace_support",
        ]
        sign = rpt.checks[1]
        assert "epsilon = %d" % EXPECTED_EPSILON[(p, a, d)] in sign.details

    def test_consequences_pass(self):
        for p, a, d, realization in TUPLES:
            rpt = torus_action_consequences(
                extraspecial_group(p, a), torus_realization(p, d, realization)
            )
            assert rpt.passed
            assert [c.name for c in rpt.checks] == [
                "fixed_space_character_trivial",
                "fixed_space_form_nondegenerate_even",
                "torus_center_conjugacy_separated",
            ]

    def test_only_a_one_is_supported(self):
        with pytest.raises(ValueError, match="a = 2 is not supported"):
            lemma_H_verify(3, 2, 4, "nonsplit")


def twisted_scan(group, action, y, j):
    """{h y (t^j . h)^-1 : h in the group}, scanning every h."""
    return {
        group.mul_key(group.mul_key(h, y), action.act_key(group.inv_key(h), j))
        for h in group.group.elements
    }


class TestOrbitChecksAgreeWithScans:
    @pytest.mark.parametrize(
        "p,a,d,realization", [(3, 1, 2, "split"), (3, 1, 4, "nonsplit"), (5, 1, 6, "nonsplit")]
    )
    def test_twisted_orbits_of_the_center(self, p, a, d, realization):
        E = extraspecial_group(p, a)
        G = E.group
        action = torus_realization(p, d, realization)
        center = set(E.center_keys)
        seeds = [G.index[k] for k in E.center_keys]
        # coset_trace_support: y is conjugate into the center iff some h
        # moves it there.
        scanned = {y for y in G.elements if twisted_scan(E, action, y, 1) & center}
        twist = partial(action.act_key, j=1)
        found = {G.key(x) for orbit in orbits(G, twist, seeds) for x in orbit}
        assert found == scanned
        # torus_center_conjugacy_separated: each central element's orbit
        # under every torus power, and no orbit holding two of them.
        for j in range(d):
            twist = partial(action.act_key, j=j)
            for z in E.center_keys:
                (orbit,) = orbits(G, twist, seeds=[G.index[z]])
                assert {G.key(x) for x in orbit} == twisted_scan(E, action, z, j)
                assert twisted_scan(E, action, z, j) & center == {z}


# -- generating-set certificates ----------------------------------------


def dense_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def _mdet(x):
    """Reference determinant by Gaussian elimination over the cyclotomics,
    one Galois-norm inverse per pivot."""
    n = len(x)
    a = [list(row) for row in x]
    det = ONE
    for col in range(n):
        piv = next((i for i in range(col, n) if not a[i][col].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inv()
        a[col] = [e * inv for e in a[col]]
        for i in range(col + 1, n):
            if not a[i][col].is_zero():
                c = a[i][col]
                a[i] = [e - c * f for e, f in zip(a[i], a[col])]
    return det


class PerturbedRep(HeisRep):
    """eta with one phase of one element's monomial multiplied by zeta_p,
    i.e. one phase exponent moved by 1 mod p."""

    def __init__(self, group, target, slot):
        self.target, self.slot = target, slot
        super().__init__(group, 1)

    def _build_mono(self, key):
        x, phases = super()._build_mono(key)
        if key == self.target:
            phases = list(phases)
            phases[self.slot] = (phases[self.slot] + 1) % self.p
        return (x, tuple(phases))


INTERTWINE_CASES = [(3, 2, "split"), (3, 4, "nonsplit"), (5, 4, "split"), (5, 6, "nonsplit")]


class TestGeneratingSetCertificates:
    """Brute-force all-pairs oracles for the checks that HeisRep, extend and
    build_extraspecial certify from the generating set, and the cases a
    sampled check could miss."""

    @pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (5, 1)])
    def test_pairing_is_the_gram_form(self, p, a):
        sp = SymplecticSpace(p, a)
        for v in sp.vectors():
            for w in sp.vectors():
                form = sum(v[i] * sp.gram[i][j] * w[j] for i in range(sp.dim) for j in range(sp.dim))
                assert sp.pairing(v, w) == form % p

    @pytest.mark.parametrize("p,a", [(3, 2), (5, 1)])
    def test_commutator_identity_on_all_pairs(self, p, a):
        G = extraspecial_group(p, a)
        sp = G.space
        for g in G.group.elements:
            for h in G.group.elements:
                comm = G.decode(commutator_key(G, g, h))
                assert comm == (sp.zero, sp.pairing(G.decode(g)[0], G.decode(h)[0]))

    @pytest.mark.parametrize("p", [3, 5])
    def test_homomorphism_on_all_pairs(self, p):
        rep = heisenberg_rep(p, 1)
        G = rep.group
        for g in G.group.elements:
            for h in G.group.elements:
                assert rep._compose(rep._mono[g], rep._mono[h]) == rep._mono[G.mul_key(g, h)]

    @pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (7, 1)])
    def test_monomials_are_integer_data(self, p, a):
        rep = heisenberg_rep(p, a)
        assert len(rep._mono) == rep.group.group.order
        for x, exps in rep._mono:
            assert type(x) is int and 0 <= x < p**a and len(exps) == rep.dim
            assert all(type(e) is int and 0 <= e < p for e in exps)

    def test_homomorphism_certificate_does_no_cyclotomic_arithmetic(self, monkeypatch):
        rep = heisenberg_rep(5, 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("cyclotomic arithmetic in the certificate")

        for name in ("__init__", "__add__", "__mul__", "__eq__"):
            monkeypatch.setattr(Cyclotomic, name, forbidden)
        monkeypatch.setattr(heis, "root_of_unity", forbidden)
        rep._verify_homomorphism()

    def test_dense_matrices_multiply_on_all_pairs(self):
        rep = heisenberg_rep(3, 1)
        G = rep.group
        mats = {k: rep.matrix(k) for k in G.group.elements}
        for g in G.group.elements:
            for h in G.group.elements:
                assert dense_mul(mats[g], mats[h]) == mats[G.mul_key(g, h)]

    @pytest.mark.parametrize("p,d,realization", INTERTWINE_CASES)
    def test_intertwiner_on_every_element(self, p, d, realization):
        rep = heisenberg_rep(p, 1)
        action = torus_realization(p, d, realization)
        A = intertwiner(rep, action)
        assert _verify_intertwines(rep, action, A)
        for key in rep.group.group.elements:
            assert dense_mul(A, rep.matrix(key)) == dense_mul(rep.matrix(action.act_key(key)), A)

    def test_perturbed_phase_breaks_the_homomorphism_at_p3(self):
        G = extraspecial_group(3, 1)
        targets = [k for k in G.group.elements if G.decode(k)[0][0] != 0]
        assert len(targets) == 18
        for key in targets:
            with pytest.raises(AssertionError, match="not a homomorphism"):
                PerturbedRep(G, key, 0)

    @pytest.mark.parametrize("key", [((1, 0), 0), ((3, 5), 2), ((6, 6), 6), ((2, 1), 4)])
    def test_perturbed_phase_breaks_the_homomorphism_at_p7(self, key):
        G = extraspecial_group(7, 1)
        with pytest.raises(AssertionError, match="not a homomorphism"):
            PerturbedRep(G, G.encode(key), 3)

    @pytest.mark.parametrize("p,d", [(3, 4), (5, 6), (7, 8)])
    def test_perturbed_intertwiner_is_rejected(self, p, d):
        rep = heisenberg_rep(p, 1)
        action = nonsplit_torus_action(p, d)
        A = intertwiner(rep, action)
        assert _verify_intertwines(rep, action, A)
        for i in range(rep.dim):
            for j in range(rep.dim):
                bad = [list(row) for row in A]
                bad[i][j] = bad[i][j] + ONE
                assert not _verify_intertwines(rep, action, tuple(map(tuple, bad)))

    def test_homomorphism_cost_is_linear_in_the_order(self, monkeypatch):
        calls = 0
        compose = HeisRep._compose

        def counted(self, m1, m2):
            nonlocal calls
            calls += 1
            return compose(self, m1, m2)

        G = extraspecial_group(7, 1)
        monkeypatch.setattr(HeisRep, "_compose", counted)
        HeisRep(G, 1)
        assert 0 < calls <= G.group.order * len(G.group.generators())

    def test_intertwining_check_visits_only_the_generators(self):
        rep = heisenberg_rep(7, 1)
        action = nonsplit_torus_action(7, 8)
        A = intertwiner(rep, action)
        visited = []
        act_key = action.act_key
        action.act_key = lambda key, j=1: visited.append(key) or act_key(key, j)
        assert _verify_intertwines(rep, action, A)
        assert 0 < len(visited) <= len(rep.group.group.generators())


class TestExtensionStorage:
    @pytest.mark.parametrize("diagonal", [(1, 2, 3), (1, 1, 0)], ids=["non-scalar", "singular"])
    def test_a_non_scalar_power_is_refused(self, diagonal, monkeypatch):
        # A stand-in intertwiner whose 4th power is not a nonzero scalar.
        A = tuple(
            tuple(Cyclotomic.rational(diagonal[i] if i == j else 0) for j in range(3))
            for i in range(3)
        )
        monkeypatch.setattr(heis, "intertwiner", lambda rep, action: A)
        monkeypatch.setattr(heis, "_verify_intertwines", lambda rep, action, A: True)
        with pytest.raises(AssertionError, match="A\\^d is not a nonzero scalar"):
            extend(heisenberg_rep(3, 1), torus_realization(3, 4, "nonsplit"))

    def test_order_d_failure_is_named(self, monkeypatch):
        # A doubled determinant changes s0 but not A: A^d stays the scalar
        # c0, and s0^d c0 is no longer 1.
        newton_det = heis._newton_det
        monkeypatch.setattr(heis, "_newton_det", lambda *args: 2 * newton_det(*args))
        with pytest.raises(AssertionError, match="normalized operator is not of order d"):
            extend(heisenberg_rep(3, 1), torus_realization(3, 4, "nonsplit"))

    def test_extensions_share_the_normalized_powers(self):
        # The normalized powers are s0^j A^j on one shared chain of bare
        # powers A^0 ... A^h, h = ceil(d/2), scaled by op(j) on demand.
        exts = extend(heisenberg_rep(3, 1), torus_realization(3, 4, "nonsplit"))
        assert all(e.chain is exts[0].chain for e in exts)
        assert all(e.s0 is exts[0].s0 for e in exts)
        assert all(e.traces is exts[0].traces for e in exts)
        assert len(exts[0].chain) == (4 + 1) // 2 + 1
        for e in exts:
            for j in range(1, 5):
                assert e.trace(j) == _mtrace(e.op(j))
                assert e.op(j) == dense_mul(e.op(j - 1), e.op(1))

    @pytest.mark.parametrize("p,a,d,realization", DEFAULT_HEIS_TUPLES)
    def test_s0_matches_the_eliminated_determinant(self, p, a, d, realization):
        # Newton's identities on the chain's traces give the determinant
        # that elimination gives, and s0 = det(A)^-alpha c0^-beta from it.
        ext = extend(heisenberg_rep(p, a), torus_realization(p, d, realization))[0]
        A, n = ext.chain[1], ext.rep.dim
        # Label 0's op(j) is s0^j A^j: the bare powers A^0 ... A^(d-1).
        powers = [heis._mscale(ext.s0 ** (-j), ext.op(j)) for j in range(d)]
        assert powers[: len(ext.chain)] == ext.chain[:d]
        c0 = dense_mul(powers[d - 1], A)[0][0]
        det = _mdet(A)
        assert heis._newton_det([_mtrace(op) for op in powers], c0, n) == det
        alpha = pow(n, -1, d)
        assert ext.s0 == det ** (-alpha) * c0 ** (-((1 - alpha * n) // d))

    @pytest.mark.parametrize(
        "p,a,d,realization",
        list(DEFAULT_HEIS_TUPLES) + [(11, 1, 12, "nonsplit"), (13, 1, 14, "nonsplit"), (7, 1, 3, "split")],
    )
    def test_half_chain_matches_the_full_chain(self, p, a, d, realization):
        # extend forms A^0 ... A^h; its traces, its A^d and every op(j) equal
        # those of the chain of all d products.
        rep = heisenberg_rep(p, a)
        exts = extend(rep, torus_realization(p, d, realization))
        s0, chain, h = exts[0].s0, exts[0].chain, (d + 1) // 2
        full = [heis._meye(rep.dim)]
        while len(full) <= d:
            full.append(heis._mmul(full[-1], chain[1]))
        assert chain == full[: h + 1]
        assert full[d] == heis._mscale(s0 ** (-d), full[0])
        assert heis._mmul(chain[h], chain[d - h]) == full[d]
        assert list(exts[0].traces) == [s0**j * _mtrace(full[j]) for j in range(d)]
        for ext in (exts[0], exts[-1]):
            for j in range(d):
                scalar = root_of_unity(d, ext.label * j) * s0**j
                assert ext.op(j) == heis._mscale(scalar, full[j])
        bare = [heis._mscale(s0 ** (-j), exts[0].op(j)) for j in range(d)]
        assert bare == full[:d]

    @pytest.mark.parametrize("exps,d", [((0, 1, 2), 3), ((0, 1, 1, 0, 1), 2), ((1, 3), 5)])
    def test_newton_det_of_a_diagonal(self, exps, d):
        # A = 2 diag(zeta_d^e): A^d = 2^d I and det A = 2^n zeta_d^(sum e),
        # with n below, equal to and above d.
        diag = [2 * root_of_unity(d, e) for e in exps]
        traces = [sum((x**j for x in diag), ZERO) for j in range(d)]
        det = heis._newton_det(traces, Cyclotomic.rational(2**d), len(exps))
        assert det == 2 ** len(exps) * root_of_unity(d, sum(exps))

    @pytest.mark.parametrize("realization", ["split", "nonsplit"])
    def test_order_one_torus_wraps_to_the_identity(self, realization):
        # At d = 1 every torus power is t^0, and op(1) is op(0) = I.
        rep = heisenberg_rep(3, 1)
        (ext,) = extend(rep, torus_realization(3, 1, realization))
        ident = tuple(tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))
        assert ext.op(1) == ext.op(0) == ident
        assert ext.trace(1) == ext.trace(0) == 3

    @pytest.mark.parametrize("p,a,d,realization", TUPLES[:4])
    def test_multiplicities_match_the_torus_center_sum(self, p, a, d, realization):
        # The full sum over torus x center that the central-trace shortcut
        # in multiplicities() replaces.
        rep = heisenberg_rep(p, a)
        zero_v = rep.group.space.zero
        for ext in extend(rep, torus_realization(p, d, realization)):
            full = {}
            for c in range(d):
                acc = ZERO
                for j in range(d):
                    for z in range(p):
                        tr = rep.trace_product(ext.op(j), rep.group.encode((zero_v, z)))
                        acc = acc + tr * (root_of_unity(d, c * j) * rep.theta(z)).conj()
                full[c] = (acc / (d * p)).as_integer()
            assert multiplicities(ext) == full


class TestCosetTraces:
    @pytest.mark.parametrize("p,a,d,realization", [(3, 1, 4, "nonsplit"), (5, 1, 6, "nonsplit")])
    def test_central_factor_scales_the_trace(self, p, a, d, realization):
        # The shortcut of coset_trace_support: tr(op eta(v, z)) =
        # theta(z) tr(op eta(v, 0)), against trace_product on every element.
        rep = heisenberg_rep(p, a)
        op1 = extend(rep, torus_realization(p, d, realization))[0].op(1)
        encode = rep.group.encode
        for v, z in map(rep.group.decode, rep.group.group.elements):
            scaled = rep.theta(z) * rep.trace_product(op1, encode((v, 0)))
            assert scaled == rep.trace_product(op1, encode((v, z)))

    def test_support_check_takes_one_trace_per_vector(self, monkeypatch):
        p, a = 5, 1
        calls = 0
        trace_product = HeisRep.trace_product

        def counted(self, dense, key):
            nonlocal calls
            calls += 1
            return trace_product(self, dense, key)

        monkeypatch.setattr(HeisRep, "trace_product", counted)
        assert lemma_H_verify(p, a, 6, "nonsplit").passed
        assert calls == p ** (2 * a)


# -- integer codes ---------------------------------------------------------


def tuple_mul(sp, g, h):
    """The group law on (v, z) tuples, written from its definition."""
    (v, z), (w, y) = g, h
    return (sp.add(v, w), (z + y + (sp.p + 1) // 2 * sp.pairing(v, w)) % sp.p)


CODE_CASES = [(3, 1), (3, 2), (5, 1)]


class TestCodes:
    """The codes against the tuples they stand for, by brute force."""

    @pytest.mark.parametrize("p,a", CODE_CASES)
    def test_code_order_is_sorted_tuple_order(self, p, a):
        G = extraspecial_group(p, a)
        sp = G.space
        keys = sorted((v, z) for v in product(range(p), repeat=2 * a) for z in range(p))
        assert list(G.group.elements) == list(range(p ** (2 * a + 1)))
        assert [G.decode(c) for c in G.group.elements] == keys
        assert [G.encode(k) for k in keys] == list(G.group.elements)
        assert [sp.code(v) for v in sp.vectors()] == list(range(p ** (2 * a)))

    @pytest.mark.parametrize("p,a", CODE_CASES)
    def test_product_and_inverse_follow_the_tuple_law(self, p, a):
        G = extraspecial_group(p, a)
        sp = G.space
        keys = [G.decode(c) for c in G.group.elements]
        for g, gk in enumerate(keys):
            inv = G.decode(G.inv_key(g))
            assert tuple_mul(sp, gk, inv) == (sp.zero, 0)
            for h, hk in enumerate(keys):
                assert G.decode(G.mul_key(g, h)) == tuple_mul(sp, gk, hk)

    @pytest.mark.parametrize("p,a", CODE_CASES)
    def test_tables_have_p_to_the_2a_entries(self, p, a):
        sp = extraspecial_group(p, a).space
        for table in (sp.sums, sp.negs, sp.half_dots):
            assert len(table) == p ** (2 * a)
        assert len(heisenberg_rep(p, a)._shifts) == p**a

    @pytest.mark.parametrize("p,a", CODE_CASES)
    def test_shift_table_is_the_tuple_shift(self, p, a):
        rep = heisenberg_rep(p, a)
        points = list(product(range(p), repeat=a))
        for x, xt in enumerate(points):
            for u, ut in enumerate(points):
                assert points[rep._shifts[x][u]] == rep.group.space.add(ut, xt)

    @pytest.mark.parametrize(
        "p,d,realization", [(t[0], t[2], t[3]) for t in TUPLES] + [(13, 14, "nonsplit"), (7, 3, "split")]
    )
    def test_torus_permutations_match_apply(self, p, d, realization):
        action = torus_realization(p, d, realization)
        sp, E = action.space, extraspecial_group(p, 1)
        for j in range(-1, d + 1):
            perm = action.perm(j)
            assert sorted(perm) == list(range(p * p))
            for c, v in enumerate(sp.vectors()):
                assert sp.vectors()[perm[c]] == action.apply(v, j)
                for z in range(p):
                    assert E.decode(action.act_key(E.encode((v, z)), j)) == (action.apply(v, j), z)


class TestFailingReports:
    """A forced failure reads as it did on (v, z) tuple keys: the
    counterexample texts are pinned."""

    @pytest.mark.parametrize(
        "tup,text",
        [
            ((3, 1, 4, "nonsplit"), "(((2, 0), 0), True, 'cyc(3)[0,0]')"),
            ((5, 1, 4, "split"), "(((1, 1), 0), True, 'cyc(5)[0,0,0,0]')"),
            ((7, 1, 8, "nonsplit"), "(((0, 6), 0), True, 'cyc(7)[0,0,0,0,0,0]')"),
        ],
    )
    def test_coset_trace_support(self, tup, text, monkeypatch):
        # The seventh trace taken (one per vector, in code order) reads zero.
        calls = 0
        trace_product = HeisRep.trace_product

        def seventh_zero(self, dense, key):
            nonlocal calls
            calls += 1
            return ZERO if calls == 7 else trace_product(self, dense, key)

        monkeypatch.setattr(HeisRep, "trace_product", seventh_zero)
        check = lemma_H_verify(*tup).checks[-1]
        assert (check.name, check.status) == ("coset_trace_support", "fail")
        assert check.counterexample == text

    @pytest.mark.parametrize(
        "tup,text",
        [
            ((3, 1, 4, "nonsplit"), "((((0, 0), 1), 2), (((0, 0), 2), 2))"),
            ((5, 1, 4, "split"), "((((0, 0), 1), 2), (((0, 0), 4), 2))"),
            ((7, 1, 8, "nonsplit"), "((((0, 0), 1), 2), (((0, 0), 6), 2))"),
        ],
    )
    def test_torus_center_conjugacy_separated(self, tup, text, monkeypatch):
        # At the third torus power, the orbits of the central elements 1
        # and p - 1 are merged.
        calls = 0

        def merged(G, moves, seeds=None):
            nonlocal calls
            calls += 1
            out = orbits(G, moves, seeds)
            if calls == 3:
                return [out[0], tuple(sorted(out[1] + out[-1]))] + out[2:-1]
            return out

        monkeypatch.setattr(heis, "orbits", merged)
        p, a, d, realization = tup
        rpt = torus_action_consequences(extraspecial_group(p, a), torus_realization(p, d, realization))
        check = rpt.checks[-1]
        assert (check.name, check.status) == ("torus_center_conjugacy_separated", "fail")
        assert check.counterexample == text

    @pytest.mark.parametrize(
        "tup,modulus_text,multiset_text",
        [
            ((3, 1, 4, "nonsplit"), "(0, 2, 'cyc(12)[3,0,0,0]')", "(0, [0, 0, 1, 2])"),
            ((5, 1, 4, "split"), "(0, 2, 'cyc(20)[5,0,0,0,0,0,0,0]')", "(0, [0, 0, 2, 3])"),
            (
                (7, 1, 8, "nonsplit"),
                "(0, 4, 'cyc(56)[7" + ",0" * 23 + "]')",
                "(0, [0, 0, 0, 0, 1, 2, 2, 2])",
            ),
        ],
    )
    def test_label_checks(self, tup, modulus_text, multiset_text, monkeypatch):
        # Adding d to the shared trace at t^(d/2) keeps every multiplicity an
        # integer (it moves each by +-1) but breaks all three label checks.
        def perturbed(rep, action):
            exts = extend(rep, action)
            half = action.order // 2
            traces = list(exts[0].traces)
            traces[half] = traces[half] + action.order
            traces = tuple(traces)
            for ext in exts:
                ext.traces = traces
            return exts

        monkeypatch.setattr(heis, "extend", perturbed)
        checks = lemma_H_verify(*tup).checks[1:4]
        assert [(c.name, c.status, c.counterexample) for c in checks] == [
            ("trace_sign_law", "fail", "(0, [])"),
            ("trace_modulus_one", "fail", modulus_text),
            ("multiplicity_multiset", "fail", multiset_text),
        ]
        eps = -1 if (tup[0] + 1) % tup[2] == 0 else 1
        assert checks[0].details == "epsilon = %d; extension label -> character exponent: {}" % eps
