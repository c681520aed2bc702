"""Tests for matrix groups, the involution tau, and torus embeddings."""

import gc
import itertools
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find, matrices, norm

from basechange import rankone
from basechange.ffield import make_field, norm_one_subgroup
from basechange.grpcore import GroupTable, character_table, conjugacy_classes, table_to_csv
from basechange.rankone import (
    UnitarySpec,
    build_gl2,
    build_sl2,
    build_u2,
    ORDERS,
    conj_transpose,
    decode,
    embed_quadratic_torus,
    encode,
    is_unitary,
    mat_det,
    mat_id,
    mat_inv,
    mat_mul,
    mat_scalar,
    norm_class_map,
    tau,
    tau_classes,
    tau_permutation,
    u2_basis_change,
    u2_torus_element,
)


def norm_tau(spec, g):
    """N_tau(g) = g * tau(g), the twisted norm read on one matrix."""
    return mat_mul(spec.field, g, tau(spec, g))


def _method_mul(F, x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f), F.mul(d, h)),
    )


def _method_det(F, x):
    a, b, c, d = x
    return F.add(F.mul(a, d), F.neg(F.mul(b, c)))


def _method_inv(F, x):
    a, b, c, d = x
    di = F.inv(_method_det(F, x))
    return (F.mul(di, d), F.mul(di, F.neg(b)), F.mul(di, F.neg(c)), F.mul(di, a))


def _agree_with_method_formulas(F, pairs):
    for x, y in pairs:
        assert mat_mul(F, x, y) == _method_mul(F, x, y), (x, y)
        for m in (x, y):
            det = mat_det(F, m)
            assert det == _method_det(F, m), m
            if det == F.zero:
                with pytest.raises(ZeroDivisionError):
                    mat_inv(F, m)
            else:
                assert mat_inv(F, m) == _method_inv(F, m), m


class TestKernels:
    """The table-row kernels equal the formulas written with field methods."""

    def test_every_pair_over_gf3(self):
        F = make_field(3)
        mats = list(itertools.product(F.elements(), repeat=4))
        assert len(mats) == 81
        _agree_with_method_formulas(F, itertools.product(mats, repeat=2))

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 2)])
    def test_random_pairs(self, p, k):
        F = make_field(p, k)
        rng = random.Random(9000 + F.q)
        draw = lambda: tuple(rng.randrange(F.q) for _ in range(4))
        _agree_with_method_formulas(F, [(draw(), draw()) for _ in range(3000)])


class TestBuilders:
    def test_orders(self, gl2_q3, sl2_q3, u2_q3, gl2_q9):
        assert gl2_q3.order == 48
        assert sl2_q3.order == 24
        assert u2_q3.order == 96
        assert gl2_q9.order == 5760

    def test_u2_q5_order(self, u2_q5):
        assert u2_q5.order == 720

    def test_identity_matrix_is_identity(self, gl2_q3, u2_q3):
        F3 = make_field(3)
        assert gl2_q3.decode(gl2_q3.key(gl2_q3.id)) == mat_id(F3)
        F9 = make_field(3, 2)
        assert u2_q3.decode(u2_q3.key(u2_q3.id)) == mat_id(F9)

    def test_u2_elements_are_unitary(self, u2_q3, spec_q3):
        assert all(is_unitary(spec_q3, k) for k in matrices(u2_q3))

    def test_size_bounds(self):
        with pytest.raises(ValueError, match="size bound"):
            build_gl2(make_field(5, 2))
        with pytest.raises(ValueError, match="size bound"):
            build_u2(UnitarySpec(11))

    def test_gram_is_hermitian(self, spec_q3):
        assert conj_transpose(spec_q3, spec_q3.gram) == spec_q3.gram


class TestTau:
    def test_tau_fixes_identity(self, spec_q3):
        F9 = spec_q3.field
        assert tau(spec_q3, mat_id(F9)) == mat_id(F9)
        assert norm_tau(spec_q3, mat_id(F9)) == mat_id(F9)

    def test_tau_fixes_unitary_and_norm_squares(self, spec_q3, u2_q3):
        F9 = spec_q3.field
        for k in matrices(u2_q3):
            assert tau(spec_q3, k) == k
            assert norm_tau(spec_q3, k) == mat_mul(F9, k, k)

    def test_fixed_points_are_exactly_u2(self, spec_q3, gl2_q9, u2_q3):
        fixed = {k for k in matrices(gl2_q9) if tau(spec_q3, k) == k}
        assert fixed == set(matrices(u2_q3))
        assert len(fixed) == 96

    def test_tau_inverts_only_its_argument(self, spec_q3, gl2_q9, monkeypatch):
        # The Gram inverse is a constant of the spec, computed once.
        F9 = spec_q3.field
        assert mat_mul(F9, spec_q3.gram_inv, spec_q3.gram) == mat_id(F9)
        calls = []
        monkeypatch.setattr(rankone, "mat_inv", lambda F, x: calls.append(x) or mat_inv(F, x))
        for k in matrices(gl2_q9)[:50]:
            tau(spec_q3, k)
        assert spec_q3.gram not in calls and len(calls) == 50

    def test_tau_permutation_is_tau(self, spec_q3, gl2_q9):
        G = gl2_q9
        T = tau_permutation(G, spec_q3)
        assert T == [find(G, spec_q3.field, tau(spec_q3, k)) for k in matrices(G)]
        assert [T[y] for y in T] == list(range(G.order))
        assert tau_permutation(G, spec_q3) is T

    def test_tau_involution_all_elements(self, spec_q3, gl2_q9):
        for k in matrices(gl2_q9):
            assert tau(spec_q3, tau(spec_q3, k)) == k

    def test_tau_homomorphism(self, spec_q3, gl2_q9):
        # tau(g*s) = tau(g)*tau(s) for every g and s in a verified generating
        # set; with the closure proof below this implies the identity for all
        # pairs by induction on the word length of the second factor.
        G = gl2_q9
        gens = []
        closure = {G.id}
        for cand in range(G.order):
            if cand in closure:
                continue
            gens.append(cand)
            frontier = list(closure)
            closure.add(cand)
            frontier.append(cand)
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = G.mul(x, g)
                        if y not in closure:
                            closure.add(y)
                            nxt.append(y)
                frontier = nxt
            if len(closure) == G.order:
                break
        assert len(closure) == G.order
        F9 = spec_q3.field
        tau_idx = [find(G, F9, tau(spec_q3, k)) for k in matrices(G)]
        for g in range(G.order):
            for s in gens:
                assert tau_idx[G.mul(g, s)] == G.mul(tau_idx[g], tau_idx[s])


@pytest.fixture(scope="module")
def partition(gl2_q9, spec_q3):
    return tau_classes(gl2_q9, spec_q3)


class TestTwistedClasses:

    def test_partition_is_exact(self, partition, gl2_q9):
        seen = sorted(x for orbit in partition for x in orbit)
        assert seen == list(range(gl2_q9.order))

    def test_orbits_equal_the_full_twisted_scan(self, partition, gl2_q9, spec_q3):
        # h^-1 x tau(h) over every h, for a handful of seeds.
        G = gl2_q9
        tau_of = [find(G, spec_q3.field, tau(spec_q3, k)) for k in matrices(G)]
        orbit_of = {x: orbit for orbit in partition for x in orbit}
        rng = random.Random(314159)
        for x in [G.id] + [rng.randrange(G.order) for _ in range(5)]:
            scan = {G.mul(G.mul(G.inv(h), x), tau_of[h]) for h in range(G.order)}
            assert tuple(sorted(scan)) == orbit_of[x]

    def test_class_count_q3(self, partition):
        assert len(partition) == 16

    def test_identity_class_maps_to_identity(self, partition, gl2_q9, spec_q3):
        classes = conjugacy_classes(gl2_q9)
        nmap = norm_class_map(gl2_q9, spec_q3, partition)
        id_tau = next(i for i, orbit in enumerate(partition) if gl2_q9.id in orbit)
        assert nmap[id_tau] == classes.class_of[gl2_q9.id]

    def test_well_definedness_identity(self, gl2_q9, spec_q3):
        # N_tau(h^-1 g tau(h)) = h^-1 N_tau(g) h on a random sample.
        G = gl2_q9
        F9 = spec_q3.field
        rng = random.Random(271828)
        for _ in range(500):
            g = G.decode(G.key(rng.randrange(G.order)))
            h = G.decode(G.key(rng.randrange(G.order)))
            hi = mat_inv(F9, h)
            twisted = mat_mul(F9, mat_mul(F9, hi, g), tau(spec_q3, h))
            lhs = norm_tau(spec_q3, twisted)
            rhs = mat_mul(F9, mat_mul(F9, hi, norm_tau(spec_q3, g)), h)
            assert lhs == rhs

    def test_norm_map_is_bijection_onto_classes_meeting_u2(
        self, partition, gl2_q9, spec_q3, u2_q3
    ):
        classes = conjugacy_classes(gl2_q9)
        nmap = norm_class_map(gl2_q9, spec_q3, partition)
        ukeys = set(u2_q3.elements)
        meeting = {
            ci
            for ci, members in enumerate(classes.classes)
            if any(gl2_q9.key(x) in ukeys for x in members)
        }
        assert len(set(nmap)) == len(nmap)
        assert set(nmap) == meeting


class TestQuadraticTorus:
    def test_embeds_one(self):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        assert i(F9.one) == mat_id(F3)

    def test_det_is_norm(self):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        assert mat_det(F3, i(F9.generator)) == 2
        for x in F9.nonzero():
            assert mat_det(F3, i(x)) == norm(F9, x, F3)

    def test_homomorphism_all_pairs(self):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        for x in F9.nonzero():
            for y in F9.nonzero():
                assert i(F9.mul(x, y)) == mat_mul(F3, i(x), i(y))

    def test_image_meets_scalars_in_base_field(self):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        emb = F9.embedding(F3)
        scalar_points = {x for x in F9.nonzero() if i(x) == mat_scalar(F3, i(x)[0])}
        assert scalar_points == {emb[c] for c in F3.nonzero()}

    def test_nonscalar_images_regular_elliptic(self):
        # Characteristic polynomial irreducible: no eigenvalue in the base.
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        emb = set(F9.embedding(F3))
        for x in F9.nonzero():
            if x in emb:
                continue
            m = i(x)
            for lam in F3.elements():
                shifted = (F3.sub(m[0], lam), m[1], m[2], F3.sub(m[3], lam))
                assert mat_det(F3, shifted) != F3.zero

    def test_charpoly_roots_are_galois_orbit(self):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        emb = F9.embedding(F3)
        for x in F9.nonzero():
            m = i(x)
            tr = emb[F3.add(m[0], m[3])]
            dt = emb[mat_det(F3, m)]
            val = F9.add(F9.sub(F9.mul(x, x), F9.mul(tr, x)), dt)
            assert val == F9.zero

    def test_conjugate_to_galois_twist(self, gl2_q3):
        F9, F3 = make_field(3, 2), make_field(3)
        i = embed_quadratic_torus(F9, F3)
        classes = conjugacy_classes(gl2_q3)
        for x in F9.nonzero():
            a = classes.class_of[find(gl2_q3, F3, i(x))]
            b = classes.class_of[find(gl2_q3, F3, i(F9.frobenius(x)))]
            assert a == b


class TestU2Torus:
    def test_basis_change_diagonalizes_gram(self, spec_q3):
        F = spec_q3.field
        P = u2_basis_change(spec_q3)
        new_gram = mat_mul(F, mat_mul(F, conj_transpose(spec_q3, P), spec_q3.gram), P)
        minus_one = F.embedding(spec_q3.sub)[spec_q3.sub.neg(spec_q3.sub.one)]
        assert new_gram == (F.one, F.zero, F.zero, minus_one)

    def test_torus_elements_unitary(self, spec_q3, u2_q3):
        F9, F3 = spec_q3.field, spec_q3.sub
        for u1 in norm_one_subgroup(F9, F3):
            for u2 in norm_one_subgroup(F9, F3):
                assert encode(F9, u2_torus_element(spec_q3, u1, u2)) in u2_q3.index

    def test_torus_rejects_non_norm_one(self, spec_q3):
        with pytest.raises(ValueError, match="norm-one"):
            u2_torus_element(spec_q3, spec_q3.field.generator, spec_q3.field.one)

    def test_scalars_are_central_torus_points(self, spec_q3, u2_q3):
        F9, F3 = spec_q3.field, spec_q3.sub
        for u in norm_one_subgroup(F9, F3):
            g = mat_scalar(F9, u)
            assert encode(F9, g) in u2_q3.index
            assert u2_torus_element(spec_q3, u, u) == g


class TestUnitarySpecFields:
    def test_q9_builds_gf9_over_gf81(self):
        spec = UnitarySpec(9)
        assert (spec.sub.p, spec.sub.k, spec.sub.q) == (3, 2, 9)
        assert (spec.field.p, spec.field.k, spec.field.q) == (3, 4, 81)
        assert spec.field.is_subfield(spec.sub)

    @pytest.mark.parametrize("q", [1, 6, 12, 0, -3])
    def test_not_a_prime_power_is_rejected(self, q):
        with pytest.raises(ValueError, match="q must be a prime power"):
            UnitarySpec(q)

    def test_size_bound_message_names_the_bound(self):
        with pytest.raises(ValueError) as exc:
            build_u2(UnitarySpec(11))
        assert str(exc.value) == "U2 order 15840 exceeds size bound 10000"


# -- element codes ----------------------------------------------------

# Every field with Q <= 25 (an odd characteristic).
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2)]


def reference_group(F, keys, name):
    """The tuple-key reference build: matrices as 4-tuples on the generic
    GroupTable path (sorted keys, a dict index, one key product per pair),
    with products and inverses written with field methods."""
    return GroupTable(keys, partial(_method_mul, F), partial(_method_inv, F), mat_id(F), name)


def reference_closure(F, generators):
    """The closure of the identity under right multiplication by the
    generators, as tuples."""
    seen, frontier = {mat_id(F)}, [mat_id(F)]
    for x in frontier:
        for g in generators:
            y = _method_mul(F, x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def reference_build(family, q):
    """The code-keyed table of the family over GF(q) (GF(q^2) for U2), its
    tuple-key reference and the field.  GL2 and SL2 are enumerated by the
    determinant; U2 is the closure of the code table's generators, which is
    U2 when each element is unitary and the order is U2's."""
    if family == "U2":
        spec = UnitarySpec(q)
        F, G = spec.field, build_u2(spec)
        keys = reference_closure(F, [G.decode(G.key(g)) for g in G.generators()])
        assert len(keys) == ORDERS["U2"](q) and all(is_unitary(spec, k) for k in keys)
    else:
        F = make_field(*{9: (3, 2)}.get(q, (q, 1)))
        G = (build_gl2 if family == "GL2" else build_sl2)(F)
        det_ok = (lambda det: det != F.zero) if family == "GL2" else (lambda det: det == F.one)
        keys = [m for m in itertools.product(F.elements(), repeat=4) if det_ok(_method_det(F, m))]
    return G, reference_group(F, keys, G.name), F


class TestCodes:
    @given(st.sampled_from(SMALL_FIELDS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_and_decode_round_trip_in_tuple_order(self, pk, data):
        F = make_field(*pk)
        entry = st.integers(0, F.q - 1)
        matrix = st.tuples(entry, entry, entry, entry)
        x, y = data.draw(matrix), data.draw(matrix)
        assert decode(F, encode(F, x)) == x
        assert (encode(F, x) < encode(F, y)) == (x < y)
        code = data.draw(st.integers(0, F.q**4 - 1))
        assert encode(F, decode(F, code)) == code

    @pytest.mark.parametrize(
        "family,q",
        [(f, q) for f in ("SL2", "GL2", "U2") for q in (3, 5, 7)] + [("GL2", 9)],
    )
    def test_the_tuple_key_reference_build_agrees(self, family, q):
        G, R, F = reference_build(family, q)
        assert matrices(G) == R.elements
        assert G.inv_table == R.inv_table
        assert G.generators() == R.generators()
        cls, ref = conjugacy_classes(G), conjugacy_classes(R)
        assert cls.classes == ref.classes and cls.powers == ref.powers
        chars, ref_chars = character_table(G), character_table(R)
        assert [c.serialize() for c in chars] == [c.serialize() for c in ref_chars]
        assert table_to_csv(G, chars) == table_to_csv(R, ref_chars)

    def test_tau_permutation_agrees_with_the_tuple_formula(self, spec_q3, gl2_q9):
        F = spec_q3.field
        R = reference_group(F, matrices(gl2_q9), "GL2(9)")

        def tau_of(g):
            w = _method_inv(F, conj_transpose(spec_q3, g))
            return _method_mul(F, _method_mul(F, spec_q3.gram_inv, w), spec_q3.gram)

        assert tau_permutation(gl2_q9, spec_q3) == [R.index[tau_of(k)] for k in R.elements]

    @pytest.mark.parametrize("build", [build_gl2, build_sl2])
    def test_a_singular_product_is_off_the_carrier(self, build, monkeypatch):
        # With multiplication rows that read zero, every product kernel
        # forms the zero matrix: None in GL2's list index, absent from
        # SL2's dict.  mul reads the family formula, mat_mul, instead.
        F = make_field(3)
        G = build(F)
        other = next(b for b in range(G.order) if b not in G.generators())
        rows, add_q = rankone._row_tables(F)
        zero = [F.zero] * F.q
        zeroed = [(a, b, zero, zero) for a, b, _, _ in rows]
        with monkeypatch.context() as m:
            m.setattr(rankone, "_row_tables", lambda F: (zeroed, add_q))
            for product in (
                lambda: G.products([0, 1], [1, 0]),
                lambda: G.column(other),
            ):
                with pytest.raises(ValueError, match="^not closed under multiplication$"):
                    product()
        monkeypatch.setattr(rankone, "mat_mul", lambda F, x, y: (F.zero,) * 4)
        with pytest.raises(ValueError, match="^not closed under multiplication$"):
            G.mul(0, 1)

    def test_a_kernel_off_the_formula_is_named(self, monkeypatch):
        # A product kernel that gives a wrong index, but one in the carrier,
        # for e·x at one x: the batch compares unequal, and the replay
        # through the family formula finds every axiom holding.
        F = make_field(3)
        real = rankone.mat_products

        def wrong(F, G, xs, ys):
            xs, ys = list(xs), list(ys)
            out = real(F, G, xs, ys)
            return [2 if (x, y) == (G.id, 1) else z for x, y, z in zip(xs, ys, out)]

        monkeypatch.setattr(rankone, "mat_products", wrong)
        with pytest.raises(AssertionError, match="^product kernel disagrees with mul$"):
            build_gl2(F)

    def test_gl2_q9_retains_codes_not_tuples(self):
        # At most 0.8 MB retained; with a 4-tuple key and a dict entry per
        # element the table held 1.05 MB.  The only tuples it holds are the
        # Q^2 shared row entries.
        F = make_field(3, 2)
        build_gl2(F)  # the field's row entries are made once, before
        gc.collect()
        tracemalloc.start()
        try:
            G = build_gl2(F)
            G.products([0], [0])
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 800_000
        assert all(type(k) is int for k in G.elements)
        held = [*vars(G).values(), *G.derived.values()]
        held += [x for v in held if isinstance(v, tuple) for x in v]
        tuples = {id(x) for v in held if isinstance(v, list) for x in v if type(x) is tuple}
        assert len(tuples) <= F.q**2 < G.order
