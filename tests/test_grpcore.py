"""Tests for the generic group engine and the character-table oracle."""

import contextlib
import functools
import itertools
import random
import signal
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find, matrices, power

from basechange.cyclo import ONE, ZERO, Cyclotomic, euler_phi, root_of_unity
from basechange.ffield import make_field
from basechange.heis import ExtraspecialGroup, SymplecticSpace, extraspecial_group
from basechange.rankone import (
    build_gl2,
    build_sl2,
    build_u2,
    decode,
    encode,
    mat_id,
    mat_inv,
    mat_mul,
    mat_products,
)
from basechange import ffield, grpcore, rankone
from basechange.grpcore import (
    ClassFunction,
    GroupTable,
    _hessenberg,
    _hessenberg_charpoly,
    _lift_table as lift_table,
    _nullspace,
    _class_row,
    _CHECK_SEED,
    _triples,
    character_table,
    conjugacy_classes,
    fusion,
    induce,
    inner_product,
    max_group_order,
    orbits,
    restrict,
    table_to_csv,
    table_to_json,
    trivial_character,
)


def cyclic(n):
    return GroupTable(range(n), lambda a, b: (a + b) % n, lambda a: (-a) % n, 0, name="Z%d" % n)


def from_generators(generators, mul_key, inv_key, id_key, name="G"):
    """The GroupTable on the closure of the identity under right
    multiplication by the generators."""
    seen, frontier = {id_key}, [id_key]
    for x in frontier:
        for g in generators:
            y = mul_key(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return GroupTable(seen, mul_key, inv_key, id_key, name=name)


def s3():
    from itertools import permutations

    def pmul(a, b):
        return tuple(a[b[i]] for i in range(3))

    def pinv(a):
        out = [0] * 3
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return GroupTable(list(permutations(range(3))), pmul, pinv, (0, 1, 2), name="S3")


class TestGroupTable:
    def test_trivial_group(self):
        G = GroupTable([0], lambda a, b: 0, lambda a: 0, 0)
        assert G.order == 1
        assert len(conjugacy_classes(G)) == 1

    def test_non_closure_rejected(self):
        # {0,1} under addition mod 5 is not closed.
        with pytest.raises(ValueError, match="not closed"):
            GroupTable([0, 1], lambda a, b: (a + b) % 5, lambda a: (-a) % 5, 0)

    def test_missing_identity_rejected(self):
        with pytest.raises(ValueError):
            GroupTable([1, 2], lambda a, b: (a + b) % 5, lambda a: (-a) % 5, 0)

    def test_powers_and_orders(self):
        G = cyclic(12)
        assert power(G, G.index[1], 7) == G.index[7]
        assert power(G, G.index[5], -1) == G.index[7]
        cls = conjugacy_classes(G)
        assert cls.rep_orders[cls.class_of[G.index[4]]] == 3
        assert cls.rep_orders[cls.class_of[G.id]] == 1

    def test_from_generators(self):
        G = from_generators(
            [1], lambda a, b: (a + b) % 9, lambda a: (-a) % 9, 0
        )
        assert G.order == 9


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds, so that a
    hang fails the test instead of stalling the run."""

    def expire(signum, frame):
        raise TimeoutError("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestMalformedLaws:
    """Laws that are not groups: each certificate that sees one raises
    within a second instead of looping."""

    def test_a_left_identity_failure_is_named(self):
        # Z12 with 0·y = 0 for y ≠ 0: x·0 = x and x·(−x) = 0 hold, so only
        # the left-identity loop sees the fault.  Without it generators()
        # never returns: the identity's closure under every element is {0}.
        def law(a, b):
            return 0 if a == 0 and b != 0 else (a + b) % 12

        assert all(law(0, g) == 0 for g in range(12))
        with deadline(1), pytest.raises(ValueError, match="^identity axiom fails$"):
            GroupTable(range(12), law, lambda a: -a % 12, 0)

    def test_a_power_walk_that_never_returns_is_refused(self):
        # Z1000 with 2·1 = 1: the 300 sampled triples miss the one bad
        # product, so every certificate of the table passes, but the powers
        # of 1 run 1, 2, 1, 2, … and never reach 0.
        def law(a, b):
            return 1 if (a, b) == (2, 1) else (a + b) % 1000

        with deadline(1):
            G = GroupTable(range(1000), law, lambda a: -a % 1000, 0)
            with pytest.raises(AssertionError, match="^power walk does not return to the identity$"):
                conjugacy_classes(G)


def perm_group(generators, degree, name):
    def pmul(a, b):
        return tuple(a[b[i]] for i in range(degree))

    def pinv(a):
        out = [0] * degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return from_generators(generators, pmul, pinv, tuple(range(degree)), name=name)


def s4():
    return perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], 4, "S4")


def d4():
    return perm_group([(1, 2, 3, 0), (3, 2, 1, 0)], 4, "D4")


def conj_scan(group):
    """The classes by definition: conjugate each seed by every element."""
    seen, out = set(), []
    for x in range(group.order):
        if x not in seen:
            orbit = {group.mul(group.mul(group.inv(h), x), h) for h in range(group.order)}
            seen |= orbit
            out.append(tuple(sorted(orbit)))
    return out


def closure(group, gens):
    reached = {group.id}
    frontier = [group.id]
    while frontier:
        frontier = [y for y in {group.mul(x, g) for x in frontier for g in gens} if y not in reached]
        reached.update(frontier)
    return reached


@pytest.fixture(scope="module")
def engine_groups(gl2_q3, u2_q3):
    return [s4(), d4(), gl2_q3, build_sl2(make_field(5)), u2_q3, extraspecial_group(3).group]


def in_carrier(group, key):
    """Whether key is an element's key: a list index over codes marks the
    other codes None."""
    if isinstance(group.index, list):
        return group.index[key] is not None
    return key in group.index


def closed_by_brute_force(group):
    """Closure by definition: every key product lies in the carrier."""
    return all(
        in_carrier(group, group._mul_key(a, b)) for a in group.elements for b in group.elements
    )


class TestClosure:
    def test_every_key_product_lies_in_the_carrier(self, engine_groups):
        # An independent second computation of what generators() proves.
        groups = engine_groups + [cyclic(12), s3(), build_gl2(make_field(5))]
        assert [G.order for G in groups] == [24, 8, 48, 120, 96, 27, 12, 6, 480]
        for G in groups:
            assert closed_by_brute_force(G), G.name

    @pytest.mark.parametrize(
        "keys, mul_key, inv_key, id_key",
        [
            # {id, (12), (23)} in S3: (12)(23) is a 3-cycle.
            (
                [(0, 1, 2), (1, 0, 2), (0, 2, 1)],
                lambda a, b: tuple(a[b[i]] for i in range(3)),
                lambda a: tuple(sorted(range(3), key=a.__getitem__)),
                (0, 1, 2),
            ),
            # {0, ±1, ±2} in Z7: 2 + 1 = 3.
            ([0, 1, 2, 5, 6], lambda a, b: (a + b) % 7, lambda a: (-a) % 7, 0),
            # [-800, 800] in Z4001: 1601 elements, 800 + 1 falls outside.
            (
                [x % 4001 for x in range(-800, 801)],
                lambda a, b: (a + b) % 4001,
                lambda a: (-a) % 4001,
                0,
            ),
            # Z30000 without ±1: one bad sum in about 15000, rare for a sample.
            (
                [x for x in range(30000) if x not in (1, 29999)],
                lambda a, b: (a + b) % 30000,
                lambda a: (-a) % 30000,
                0,
            ),
        ],
        ids=["S3-transpositions", "Z7-interval", "Z4001-interval", "Z30000-without-1"],
    )
    def test_symmetric_carriers_that_are_not_closed_are_rejected(
        self, keys, mul_key, inv_key, id_key
    ):
        carrier = set(keys)
        assert id_key in carrier and all(inv_key(k) in carrier for k in keys)
        with pytest.raises(ValueError, match="not closed under multiplication"):
            GroupTable(keys, mul_key, inv_key, id_key)

    def test_build_cost_is_linear_in_the_order(self):
        # Identity and inverse loops, the generators, 300 associativity
        # triples: no n^2 pass.  A timing-free guard.
        F = make_field(5)
        calls = 0

        def counted(x, y):
            nonlocal calls
            calls += 1
            return mat_mul(F, x, y)

        keys = matrices(build_gl2(F))
        G = GroupTable(keys, counted, lambda x: mat_inv(F, x), mat_id(F), name="GL2(5)")
        assert G.order == 480
        assert calls <= (3 + 2 * len(G.generators())) * G.order + 1200


class TestOrbitEngine:
    def test_classes_equal_the_full_conjugation_scan(self, engine_groups):
        for G in engine_groups:
            cls = conjugacy_classes(G)
            assert sorted(cls.classes) == conj_scan(G), G.name

    def test_generators_generate(self, engine_groups):
        for G in engine_groups + [cyclic(1), cyclic(12)]:
            assert len(closure(G, G.generators())) == G.order, G.name

    def test_generators_are_the_same_across_builds(self):
        first = build_gl2(make_field(3)).generators()
        assert first == build_gl2(make_field(3)).generators()
        assert s4().generators() == s4().generators()

    def test_generators_are_the_recorded_draws(self):
        # The seeded draws fix these tuples; the closure walk must not move them.
        assert build_gl2(make_field(5)).generators() == (9, 218)
        assert build_u2(rankone.UnitarySpec(5)).generators() == (19, 436)
        assert extraspecial_group(7).group.generators() == (9, 218)

    def test_partition_does_not_depend_on_the_generating_set(self, gl2_q3, monkeypatch):
        G = gl2_q3
        F = make_field(3)
        other = [
            find(G, F, (F.one, F.one, F.zero, F.one)),
            find(G, F, (F.one, F.zero, F.one, F.one)),
            find(G, F, (F.generator, F.zero, F.zero, F.one)),
        ]
        assert len(closure(G, other)) == G.order
        assert set(other) != set(G.generators())
        by_default = orbits(G)
        monkeypatch.setattr(G, "_generators", tuple(other))
        assert orbits(G) == by_default
        # Every element is a generating set too: that is the full scan.
        monkeypatch.setattr(G, "_generators", tuple(range(G.order)))
        assert orbits(G) == by_default

    def test_orbits_from_seeds(self):
        G = s4()
        every = orbits(G)
        seeds = [G.order - 1, 0, G.order - 1]
        picked = orbits(G, seeds=seeds)
        assert picked == [c for c in every if G.order - 1 in c] + [c for c in every if 0 in c]

    def test_untwisted_orbits_are_the_classes(self, engine_groups):
        for G in engine_groups:
            assert sorted(orbits(G)) == sorted(conjugacy_classes(G).classes), G.name

    def test_twisted_orbits_equal_the_full_scan(self, gl2_q3):
        # phi = transpose-inverse, an outer automorphism of GL2(3): the
        # orbit of x is {h^-1 x phi(h) : h in G}, scanned over every h.
        G, F = gl2_q3, make_field(3)
        phi = [
            find(G, F, mat_inv(F, (a, c, b, d))) for a, b, c, d in map(G.decode, G.elements)
        ]
        scan = {
            tuple(sorted({G.mul(G.mul(G.inv(h), x), phi[h]) for h in range(G.order)}))
            for x in range(G.order)
        }
        twisted = orbits(G, phi.__getitem__)
        assert sorted(twisted) == sorted(scan)
        assert twisted != orbits(G)
        # Seeds keep their order; a seed met in an earlier orbit is skipped.
        seeds = [G.order - 1, 0, G.order - 1, 5]
        by_seed = {x: orbit for orbit in twisted for x in orbit}
        expected = list(dict.fromkeys(by_seed[x] for x in seeds))
        assert orbits(G, phi.__getitem__, seeds=seeds) == expected



def counted_gl2(q):
    """GL2(q) with a mul_key that counts its calls, and the counter."""
    F = make_field(q)
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return mat_mul(F, x, y)

    keys = matrices(build_gl2(F))
    G = GroupTable(keys, counted, lambda x: mat_inv(F, x), mat_id(F), name="GL2(%d)" % q)
    return G, calls


def mul_key_column(G, b):
    """The reference column: one key product per element."""
    return [G.index[G._mul_key(k, G.elements[b])] for k in G.elements]


class TestColumns:
    def test_column_is_right_multiplication(self, engine_groups):
        # S4, D4, GL2(3), SL2(5), U2(3) and Heis(3), every b: the matrix and
        # extraspecial kernels against their mul_key, exhaustively.
        for G in engine_groups:
            for b in range(G.order):
                col = G.column(b)
                assert col == [G.mul(x, b) for x in range(G.order)], (G.name, b)
                assert col == mul_key_column(G, b), (G.name, b)

    def test_kernel_columns_of_larger_groups(self, gl2_q9):
        groups = [gl2_q9] + [extraspecial_group(p, a).group for p, a in [(3, 1), (3, 2), (5, 1)]]
        for G in groups:
            rng = random.Random(G.order)
            others = rng.sample([b for b in range(G.order) if b not in G.generators()], 5)
            for b in G.generators() + tuple(others):
                assert G.column(b) == mul_key_column(G, b), (G.name, b)

    def test_matrix_group_build_and_classes_cost(self, monkeypatch):
        # Left identity and inverse loops, 300 associativity triples and
        # the representatives' orders; every column comes from the kernel.
        # The products are counted pair by pair through the kernel.
        calls = [0]

        def counted(F, G, xs, ys):
            xs = list(xs)
            calls[0] += len(xs)
            return mat_products(F, G, xs, ys)

        monkeypatch.setattr(rankone, "mat_products", counted)
        G = build_gl2(make_field(3, 2))
        cls = conjugacy_classes(G)
        assert G.order == 5760
        assert calls[0] <= 2 * G.order + 1200 + sum(o - 1 for o in cls.rep_orders)

    def test_kernel_rejects_a_carrier_missing_an_inverse_pair(self):
        F = make_field(3)
        g = (F.one, F.one, F.zero, F.one)
        dropped = (encode(F, g), encode(F, mat_inv(F, g)))
        keys = [k for k in build_gl2(F).elements if k not in dropped]
        raised = []

        def kernel(G, y):
            try:
                return rankone.mat_column(F, G, y)
            except KeyError:
                raised.append(y)
                raise

        with pytest.raises(ValueError, match="not closed under multiplication"):
            GroupTable(
                keys, lambda x, y: encode(F, mat_mul(F, decode(F, x), decode(F, y))),
                lambda x: encode(F, mat_inv(F, decode(F, x))),
                encode(F, mat_id(F)), column_kernel=kernel,
            )
        assert raised

    def test_generator_columns_are_the_closure_products(self):
        G, calls = counted_gl2(3)
        gens = G.generators()
        calls[0] = 0
        for s in gens:
            assert G.column(s) is G.column(s)
            assert G.column(s) == [G.mul(x, s) for x in range(G.order)]
        assert calls[0] == len(gens) * G.order  # the G.mul calls only
        other = next(b for b in range(G.order) if b not in gens)
        calls[0] = 0
        assert G.column(other) is not G.column(other)
        assert calls[0] == 2 * G.order

    def test_column_off_the_carrier_is_rejected(self):
        G = cyclic(12)
        other = next(b for b in range(1, G.order) if b not in G.generators())
        G._mul_key = lambda a, b: a + b  # leaves range(12) past 11
        with pytest.raises(ValueError, match="not closed under multiplication"):
            G.column(other)

    def test_conjugacy_classes_make_no_orbit_products(self):
        G, calls = counted_gl2(5)
        calls[0] = 0
        raw = orbits(G)
        assert calls[0] == 0
        cls = conjugacy_classes(G)
        assert sorted(cls.classes) == raw
        # Beyond the orbits, only the representatives' orders take products.
        assert calls[0] == sum(o - 1 for o in cls.rep_orders)


# The groups whose product kernels are compared with mul: the matrix
# kernel, codes as indices, and the default kernel (S4).
PRODUCT_GROUPS = {
    "SL2(3)": lambda: build_sl2(make_field(3)),
    "SL2(5)": lambda: build_sl2(make_field(5)),
    "GL2(3)": lambda: build_gl2(make_field(3)),
    "GL2(5)": lambda: build_gl2(make_field(5)),
    "U2(3)": lambda: build_u2(rankone.UnitarySpec(3)),
    "U2(5)": lambda: build_u2(rankone.UnitarySpec(5)),
    "Heis(3)": lambda: extraspecial_group(3).group,
    "Heis(5)": lambda: extraspecial_group(5).group,
    "Heis(3, a=2)": lambda: extraspecial_group(3, 2).group,
    "S4": s4,
}


@functools.lru_cache(maxsize=None)
def product_group(name):
    return PRODUCT_GROUPS[name]()


def replay_law(n, off_at, fails_at):
    """Z_n whose e·x leaves the carrier at x = off_at and is wrong, but in
    the carrier, at x = fails_at; every other product is the sum."""

    def law(a, b):
        if a == 0 and b == off_at:
            return n + b
        if a == 0 and b == fails_at:
            return (b + 1) % n
        return (a + b) % n

    return law


class TestProducts:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_products_are_the_single_products(self, data):
        G = product_group(data.draw(st.sampled_from(sorted(PRODUCT_GROUPS))))
        index = st.integers(0, G.order - 1)
        xs = data.draw(st.lists(index, max_size=40))
        ys = data.draw(st.lists(index, min_size=len(xs), max_size=len(xs)))
        assert G.products(xs, ys) == [G.mul(x, y) for x, y in zip(xs, ys)]
        by_key = [G.index[G._mul_key(G.key(x), G.key(y))] for x, y in zip(xs, ys)]
        assert G.products(xs, ys) == by_key
        assert G.products(iter(xs), iter(ys)) == G.products(xs, ys)

    def test_the_first_failing_element_names_the_fault(self):
        # The batched identity check sees both faults at once; as one
        # product at a time would, the one at the smaller element is named.
        with deadline(1):
            with pytest.raises(ValueError, match="^not closed under multiplication$"):
                GroupTable(range(12), replay_law(12, off_at=3, fails_at=7), lambda a: -a % 12, 0)
            with pytest.raises(ValueError, match="^identity axiom fails$"):
                GroupTable(range(12), replay_law(12, off_at=7, fails_at=3), lambda a: -a % 12, 0)

    @pytest.mark.parametrize("n", [27, 120, 5760])
    def test_associativity_triples_are_the_seeded_draws(self, n):
        rng = random.Random(_CHECK_SEED)
        draws = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(300)]
        assert list(zip(*_triples(n))) == draws

    def test_the_associativity_batches_are_the_triples(self):
        # Two n-long identity and inverse batches, then x·y over (i, j),
        # then (x·y)·z, then y·z over (j, k), then x·(y·z).
        calls = []

        def kernel(group, xs, ys):
            xs, ys = list(xs), list(ys)
            calls.append((xs, ys))
            return grpcore.product_pairs(group, xs, ys)

        for n in (27, 120):
            calls.clear()
            GroupTable(range(n), lambda a, b: (a + b) % n, lambda a: -a % n, 0, product_kernel=kernel)
            i, j, k = _triples(n)
            assert [len(xs) for xs, _ in calls] == [n, n, 300, 300, 300, 300]
            assert calls[2] == (i, j) and calls[4] == (j, k)
            assert calls[3][1] == k and calls[5][0] == i

    def test_the_heis_kernel_reads_no_index(self, monkeypatch):
        G = ExtraspecialGroup(SymplecticSpace(3, 1))
        table = G.group
        xs = list(range(table.order))
        expected = [table.mul(x, y) for x, y in zip(xs, reversed(xs))]
        monkeypatch.delattr(table, "index")
        assert table.products(xs, reversed(xs)) == expected
        monkeypatch.setattr(G, "mul_key", lambda g, h: g + h)
        with pytest.raises(ValueError, match="^not closed under multiplication$"):
            table.products([table.order - 1], [1])

    def test_building_gl2_q9_holds_at_most_one_batch(self):
        # The peak of the build over the finished table: one |G|-long list.
        F = make_field(3, 2)
        tracemalloc.start()
        try:
            G = build_gl2(F)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.order == 5760
        assert peak - current <= sys.getsizeof([None] * G.order)


class TestConjClasses:
    def test_abelian_all_singletons(self):
        G = cyclic(8)
        cls = conjugacy_classes(G)
        assert len(cls) == 8
        assert all(s == 1 for s in cls.sizes)
        assert all(c == 8 for c in cls.centralizer_orders)

    def test_s3_partition(self):
        cls = conjugacy_classes(s3())
        assert sorted(cls.sizes) == [1, 2, 3]
        assert sum(cls.sizes) == 6
        for size, cent in zip(cls.sizes, cls.centralizer_orders):
            assert size * cent == 6

    def test_representative_is_least_index(self):
        cls = conjugacy_classes(s3())
        for c, rep in zip(cls.classes, cls.representatives):
            assert rep == min(c)

    def test_identity_class_first(self):
        cls = conjugacy_classes(s3())
        assert cls.rep_orders[0] == 1
        assert cls.sizes[0] == 1

    def test_matrix_group_class_counts(self, gl2_q3, sl2_q3):
        assert gl2_q3.order == 48
        assert sl2_q3.order == 24
        assert len(conjugacy_classes(gl2_q3)) == 8
        assert len(conjugacy_classes(sl2_q3)) == 7


class TestPowerTable:
    """ConjClasses walks each representative once through its powers; every
    power and inverse class is read from that table."""

    @pytest.fixture(scope="class")
    def groups(self, gl2_q9, u2_q5):
        return [gl2_q9, u2_q5, extraspecial_group(3, 2).group]

    def test_powers_match_binary_powers(self, groups):
        for G in groups:
            cls = conjugacy_classes(G)
            for ci, (rep, o) in enumerate(zip(cls.representatives, cls.rep_orders)):
                assert len(cls.powers[ci]) == o
                assert [e for e in range(1, 2 * o) if power(G, rep, e) == G.id] == [o]
                for e in range(2 * o):
                    assert cls.powers[ci][e % o] == cls.class_of[power(G, rep, e)], (G.name, ci, e)
                    assert cls.power_class(ci, e) == cls.powers[ci][e % o]

    def test_inverse_class_matches_inv(self, groups):
        for G in groups:
            cls = conjugacy_classes(G)
            for ci, rep in enumerate(cls.representatives):
                assert cls.inverse_class(ci) == cls.class_of[G.inv(rep)], (G.name, ci)

    def test_classes_and_oracle_call_no_power_or_inv(self, spec_q3, monkeypatch):
        G = build_u2(spec_q3)

        def banned(*args):
            raise AssertionError("a class-level fact was recomputed from elements")

        monkeypatch.setattr(GroupTable, "inv", banned)
        assert len(character_table(G)) == len(conjugacy_classes(G)) == 16


class TestInnerProduct:
    def test_trivial_self(self):
        G = s3()
        one = trivial_character(G)
        assert inner_product(one, one) == 1

    def test_group_mismatch_error(self):
        a = trivial_character(s3())
        b = trivial_character(cyclic(6))
        with pytest.raises(ValueError, match="different groups"):
            inner_product(a, b)

    def test_regular_contains_trivial_once(self):
        G = s3()
        T = GroupTable([G.key(G.id)], lambda a, b: a, lambda a: a, G.key(G.id))
        reg = induce(trivial_character(T), G)
        assert reg.degree == 6
        assert inner_product(reg, trivial_character(G)) == 1


def classwise_inner_product(phi, psi):
    """The classwise formula the exponent-space kernel replaced: the reference."""
    total = ZERO
    for size, a, b in zip(phi.classes.sizes, phi.values, psi.values):
        total = total + a * b.conj() * size
    return total * Fraction(1, phi.group.order)


def random_class_function(classes, rng):
    values = []
    for _ in range(len(classes)):
        n = rng.choice([1, 2, 3, 4, 6, 8, 12, 24])
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(euler_phi(n))]
        values.append(Cyclotomic.from_coeffs(n, coeffs))
    return ClassFunction(classes, values)


class TestInnerProductKernel:
    @pytest.mark.parametrize("name", ["S3", "GL2(3)"])
    def test_equals_the_classwise_formula(self, name, gl2_q3):
        group = s3() if name == "S3" else gl2_q3
        classes = conjugacy_classes(group)
        rng = random.Random(8)
        cfs = [random_class_function(classes, rng) for _ in range(12)]
        cfs += character_table(group)
        for phi, psi in itertools.product(cfs, repeat=2):
            got = inner_product(phi, psi)
            assert got.serialize() == classwise_inner_product(phi, psi).serialize()

    def test_makes_no_per_class_temporaries(self, gl2_q3, monkeypatch):
        table = character_table(gl2_q3)
        for name in ("conj", "promote", "__mul__", "__add__"):
            monkeypatch.setattr(Cyclotomic, name, None)
        assert inner_product(table[3], table[3]).as_integer() == 1


class TestClassFunctionEquality:
    def test_zeros_of_different_orders_are_equal(self):
        classes = conjugacy_classes(s3())
        a = ClassFunction(classes, [ONE, ZERO, root_of_unity(4)])
        b = ClassFunction(classes, [ONE, ZERO.promote(24), root_of_unity(4)])
        assert a == b and b == a
        c = ClassFunction(classes, [ONE, root_of_unity(24, 6), ZERO.promote(24)])
        assert c != a and a != c

    def test_equal_values_of_one_order_are_equal(self):
        classes = conjugacy_classes(s3())
        a = ClassFunction(classes, [root_of_unity(8, 2), ZERO, 2])
        b = ClassFunction(classes, [root_of_unity(4).promote(8), ZERO, root_of_unity(8, 4) * -2])
        assert a == b
        d = ClassFunction(classes, [root_of_unity(8, 2), ZERO, -2])
        assert d != a

    def test_class_functions_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(trivial_character(s3()))


class TestRestrictInduce:
    def test_restrict_trivial(self):
        G = s3()
        H = from_generators(
            [(1, 2, 0)],
            lambda a, b: tuple(a[b[i]] for i in range(3)),
            lambda a: tuple(sorted(range(3), key=lambda i: a[i])),
            (0, 1, 2),
        )
        res = restrict(trivial_character(G), H)
        assert all(v == 1 for v in res.values)

    def test_not_subgroup_error(self):
        G = s3()
        H = cyclic(3)
        with pytest.raises(ValueError, match="not a subgroup"):
            restrict(trivial_character(G), H)

    def test_frobenius_reciprocity_random(self):
        G = s3()
        H = from_generators(
            [(1, 2, 0)],
            lambda a, b: tuple(a[b[i]] for i in range(3)),
            lambda a: tuple(sorted(range(3), key=lambda i: a[i])),
            (0, 1, 2),
        )
        rng = random.Random(11)
        hc = conjugacy_classes(H)
        gc = conjugacy_classes(G)
        for _ in range(5):
            psi = ClassFunction(hc, [rng.randint(-4, 4) for _ in range(len(hc))])
            chi = ClassFunction(gc, [rng.randint(-4, 4) for _ in range(len(gc))])
            assert inner_product(induce(psi, G), chi) == inner_product(psi, restrict(chi, H))

    def test_induce_matches_the_definition(self):
        # Ind psi(g) = (1/|H|) sum over x in G of psi(x g x^-1), psi = 0 off H.
        G = s3()
        pmul = lambda a, b: tuple(a[b[i]] for i in range(3))
        pinv = lambda a: tuple(sorted(range(3), key=lambda i: a[i]))
        subgroups = [
            GroupTable([G.key(G.id)], lambda a, b: a, lambda a: a, G.key(G.id)),
            from_generators([(1, 2, 0)], pmul, pinv, (0, 1, 2)),
            from_generators([(1, 0, 2)], pmul, pinv, (0, 1, 2)),
        ]
        rng = random.Random(7)
        for H in subgroups:
            hc = conjugacy_classes(H)
            for _ in range(3):
                psi = ClassFunction(
                    hc, [root_of_unity(6, rng.randrange(6)) * rng.randint(-3, 3) for _ in hc.classes]
                )
                expected = []
                for rep in conjugacy_classes(G).representatives:
                    total = ZERO
                    for x in range(G.order):
                        y = G.key(G.mul(G.mul(x, rep), G.inv(x)))
                        if y in H.index:
                            total = total + psi.values[hc.class_of[H.index[y]]]
                    expected.append(total / H.order)
                assert list(induce(psi, G).values) == expected

    def test_induced_degree(self):
        G = s3()
        H = from_generators(
            [(1, 0, 2)],
            lambda a, b: tuple(a[b[i]] for i in range(3)),
            lambda a: tuple(sorted(range(3), key=lambda i: a[i])),
            (0, 1, 2),
        )
        ind = induce(trivial_character(H), G)
        assert ind.degree == G.order // H.order


def agrees_on_all_pairs(sub, group):
    """H's product against G's on every pair: the all-pairs oracle for the
    generating-set check in fusion."""
    return all(
        sub.key(sub.mul(i, j)) == group.key(group.mul(group.index[a], group.index[b]))
        for i, a in enumerate(sub.elements)
        for j, b in enumerate(sub.elements)
    )


class TestSubgroupCertificate:
    @pytest.fixture(scope="class")
    def pairs(self, gl2_q3, sl2_q3):
        pmul = lambda a, b: tuple(a[b[i]] for i in range(3))
        pinv = lambda a: tuple(sorted(range(3), key=lambda i: a[i]))
        a3 = from_generators([(1, 2, 0)], pmul, pinv, (0, 1, 2))
        F5 = make_field(5)
        return [
            (s3(), s3()),
            (a3, s3()),
            (sl2_q3, gl2_q3),
            (build_sl2(F5), build_gl2(F5)),
        ]

    def test_subgroups_pass_and_agree_on_all_pairs(self, pairs):
        for H, G in pairs:
            fusion(H, G)
            assert agrees_on_all_pairs(H, G), (H.name, G.name)

    def test_a_foreign_law_on_the_same_keys_is_rejected(self):
        # Z6 transported onto the six keys of S3, identity on the identity:
        # every key of H lies in G, but H is abelian and G is not.
        G = s3()
        keys = G.elements
        pos = {k: i for i, k in enumerate(keys)}
        H = GroupTable(
            keys,
            lambda a, b: keys[(pos[a] + pos[b]) % 6],
            lambda a: keys[-pos[a] % 6],
            keys[0],
            name="Z6 on S3",
        )
        assert H.key(H.id) == G.key(G.id)
        assert not agrees_on_all_pairs(H, G)
        with pytest.raises(ValueError, match="H multiplication disagrees with G"):
            restrict(trivial_character(G), H)


class TestFusion:
    """fusion(H, G) is the G-class of each H-class, certified once per pair
    and read by restrict and induce."""

    @pytest.fixture(scope="class")
    def pairs(self, u2_q3, gl2_q9):
        pmul = lambda a, b: tuple(a[b[i]] for i in range(3))
        pinv = lambda a: tuple(sorted(range(3), key=lambda i: a[i]))
        a3 = from_generators([(1, 2, 0)], pmul, pinv, (0, 1, 2))
        F5 = make_field(5)
        return [(a3, s3()), (build_sl2(F5), build_gl2(F5)), (u2_q3, gl2_q9)]

    def test_fusion_is_the_class_of_every_key(self, pairs):
        for H, G in pairs:
            hc, gc = conjugacy_classes(H), conjugacy_classes(G)
            fused = fusion(H, G)
            assert len(fused) == len(hc)
            for c, ci in zip(hc.classes, fused):
                assert {gc.class_of[G.index[H.key(x)]] for x in c} == {ci}, (H.name, G.name)
            assert fusion(H, G) is fused

    def test_a_second_restrict_makes_no_product(self, monkeypatch):
        calls = [0]

        def counted(F, G, xs, ys):
            xs = list(xs)
            calls[0] += len(xs)
            return mat_products(F, G, xs, ys)

        monkeypatch.setattr(rankone, "mat_products", counted)
        F = make_field(5)
        G, H = build_gl2(F), build_sl2(F)
        chi, psi = trivial_character(G), trivial_character(H)
        calls[0] = 0
        first = restrict(chi, H)
        # The certificate: one product of G per element of H and generator.
        assert calls[0] == H.order * len(H.generators())
        calls[0] = 0
        assert restrict(chi, H) == first
        assert induce(psi, G).degree == G.order // H.order
        assert calls[0] == 0


class TestCharacterTable:
    def test_cyclic_characters(self):
        n = 8
        G = cyclic(n)
        tab = character_table(G)
        assert len(tab) == n
        assert all(cf.degree == 1 for cf in tab)
        cls = conjugacy_classes(G)
        matched = set()
        for t in range(n):
            expected = [root_of_unity(n, t * G.key(rep)) for rep in cls.representatives]
            hits = [
                i
                for i, cf in enumerate(tab)
                if all(a == b for a, b in zip(cf.values, expected))
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(n))

    def test_s3_table(self):
        tab = character_table(s3())
        assert sorted(cf.degree.as_integer() for cf in tab) == [1, 1, 2]

    def test_orthonormality_exact(self):
        tab = character_table(s3())
        for i, a in enumerate(tab):
            for j, b in enumerate(tab):
                assert inner_product(a, b) == (1 if i == j else 0)

    def test_column_orthogonality_exact(self):
        G = s3()
        tab = character_table(G)
        cls = conjugacy_classes(G)
        for gi in range(len(cls)):
            for hi in range(len(cls)):
                total = sum(
                    (cf.on_class(gi) * cf.on_class(hi).conj() for cf in tab), ZERO
                )
                expected = cls.centralizer_orders[gi] if gi == hi else 0
                assert total == expected

    def test_size_bound_error(self, monkeypatch):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "10")
        with pytest.raises(ValueError, match="exceeds size bound 10"):
            character_table(cyclic(12))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", "5")
        with pytest.raises(ValueError, match="bound 5"):
            character_table(cyclic(6))

    @pytest.mark.parametrize("raw", ["-5", "0", "abc", "", "2.5"])
    def test_env_override_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("BASECHANGE_MAX_GROUP", raw)
        with pytest.raises(ValueError, match="BASECHANGE_MAX_GROUP must be a positive integer"):
            max_group_order()
        with pytest.raises(ValueError, match="BASECHANGE_MAX_GROUP"):
            character_table(cyclic(6))

    def test_gl2_q3_degrees(self, gl2_q3):
        tab = character_table(gl2_q3)
        assert sorted(cf.degree.as_integer() for cf in tab) == [1, 1, 2, 2, 2, 3, 3, 4]
        assert sum(cf.degree.as_integer() ** 2 for cf in tab) == 48

    def test_sl2_q3_table(self, sl2_q3):
        tab = character_table(sl2_q3)
        assert len(tab) == 7
        assert sum(cf.degree.as_integer() ** 2 for cf in tab) == 24
        for cf in tab:
            assert 24 % cf.degree.as_integer() == 0

    def test_determinism(self):
        a = character_table(s3())
        b = character_table(s3())
        assert [cf.serialize() for cf in a] == [cf.serialize() for cf in b]


def oracle_group(family, spec_q5):
    if family == "u2":
        return build_u2(spec_q5)
    return {"sl2": build_sl2, "gl2": build_gl2}[family](make_field(5))


class TestRationalClassLift:
    """The oracle lifts one class per Galois orbit of classes and certifies
    the value at every class against its eigenvector mod r."""

    @pytest.mark.parametrize(
        "family,lifted,k", [("sl2", 7, 9), ("gl2", 15, 24), ("u2", 21, 36)]
    )
    def test_one_lift_per_rational_class(self, family, lifted, k, spec_q5, monkeypatch):
        calls = []

        def counting(classes, l, *args):
            calls.append(l)
            return lift_table(classes, l, *args)

        monkeypatch.setattr(grpcore, "_lift_table", counting)
        group = oracle_group(family, spec_q5)
        assert len(character_table(group)) == k
        assert len(calls) == len(set(calls)) == lifted
        classes = conjugacy_classes(group)
        rational = {
            min(classes.power_class(l, e) for e in range(1, o + 1) if gcd(e, o) == 1)
            for l, o in enumerate(classes.rep_orders)
        }
        assert sorted(calls) == sorted(rational)

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_swapped_multiplicity_rows_trip_the_certificate(self, family, spec_q5, monkeypatch):
        # Rows 0 and 1 of the first class of order > 2: the swapped
        # multiplicities still lie in range and sum to the degree.  (Rows 1
        # and 2 would be no fault: on a real class that swap moves no value.)
        swapped = []

        def swapping(classes, l, *args):
            o, targets, coeffs = lift_table(classes, l, *args)
            if o > 2 and not swapped:
                swapped.append(l)
                coeffs = [coeffs[1], coeffs[0]] + coeffs[2:]
            return o, targets, coeffs

        monkeypatch.setattr(grpcore, "_lift_table", swapping)
        with pytest.raises(AssertionError, match="lifted value disagrees with its eigenvector mod r"):
            character_table(oracle_group(family, spec_q5))
        assert swapped

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_wrong_shared_image_trips_the_certificate(self, family, spec_q5, monkeypatch):
        # A distinct value's image mod r is made once and shared by every
        # class that takes the value; a wrong one must still fail the
        # comparison with the eigenvector.
        real, wrong = grpcore._cyclotomic_mod, []

        def off_by_one(value, *args):
            image = real(value, *args)
            if value.order > 2 and not wrong:
                wrong.append(value)
                return image + 1
            return image

        monkeypatch.setattr(grpcore, "_cyclotomic_mod", off_by_one)
        with pytest.raises(AssertionError, match="lifted value disagrees with its eigenvector mod r"):
            character_table(oracle_group(family, spec_q5))
        assert wrong

    @pytest.mark.parametrize("family,reduced", [("sl2", 50), ("gl2", 135), ("u2", 214)])
    def test_each_multiplicity_vector_is_reduced_once(self, family, reduced, spec_q5, monkeypatch):
        # A lifted value is fixed by its class's order o and the eigenvalue
        # multiplicities of rho(g) there, which in turn are fixed by the
        # values chi(g^e), e < o: one reduction per distinct such pair.
        # Different multiplicities can give one value, so this is more than
        # the number of distinct values.
        calls = 0
        real = grpcore._reduce_dense

        def counting(n, dense):
            nonlocal calls
            calls += 1
            return real(n, dense)

        group = oracle_group(family, spec_q5)
        monkeypatch.setattr(grpcore, "_reduce_dense", counting)
        table = character_table(group)
        classes = conjugacy_classes(group)
        pairs = {
            (o, tuple(row.serialize()[classes.power_class(l, e)] for e in range(o)))
            for row in table
            for l, o in enumerate(classes.rep_orders)
        }
        assert calls == len(pairs) == reduced


class TestClassSplitting:
    """The oracle splits F_r^k by one class matrix at a time, smallest class
    first, reading each matrix a row at a time."""

    @pytest.mark.parametrize("name", ["s3", "gl2_q3", "u2_q3"])
    def test_class_row_is_the_class_matrix(self, name, gl2_q3, u2_q3):
        # M_i[j][l] = #{x in C_i : x^-1 z_l in C_j}, counted over all of G.
        group = {"s3": s3(), "gl2_q3": gl2_q3, "u2_q3": u2_q3}[name]
        classes = conjugacy_classes(group)
        k, r = len(classes), 10007
        counts = [[[0] * k for _ in range(k)] for _ in range(k)]
        for l, z in enumerate(classes.representatives):
            for x in range(group.order):
                ci = classes.class_of[x]
                cj = classes.class_of[group.mul(group.inv(x), z)]
                counts[ci][cj][l] += 1
        for i in range(k):
            for j in range(k):
                assert _class_row(group, classes, i, j, r) == [c % r for c in counts[i][j]]

    @pytest.mark.parametrize(
        "q,splits", [(5, {"sl2": 1, "gl2": 16, "u2": 23}), (7, {"sl2": 6, "gl2": 32, "u2": 49})]
    )
    def test_split_rounds(self, q, splits, monkeypatch):
        # restricted: the subspaces of dimension > 1 that a class matrix is
        # restricted to, over all rounds; one central space per Galois orbit
        # enters the loop.
        restricted = {5: {"sl2": 2, "gl2": 36, "u2": 56}, 7: {"sl2": 7, "gl2": 166, "u2": 289}}[q]
        calls, spaces_in = [], []
        split = grpcore._split

        def counted(group, classes, spaces, ci, *args):
            calls.append(ci)
            spaces_in.append(sum(len(basis) > 1 for basis, _ in spaces))
            return split(group, classes, spaces, ci, *args)

        monkeypatch.setattr(grpcore, "_split", counted)
        got = {}
        for family in splits:
            if family == "u2":
                group = build_u2(rankone.UnitarySpec(q))
            else:
                group = {"sl2": build_sl2, "gl2": build_gl2}[family](make_field(q))
            calls.clear()
            spaces_in.clear()
            character_table(group)
            assert sum(spaces_in) == restricted[family]
            classes = conjugacy_classes(group)
            # The powers of the central class z of largest order are never split.
            central = [ci for ci in range(len(classes)) if classes.sizes[ci] == 1]
            zc = max(central, key=lambda ci: (classes.rep_orders[ci], -ci))
            rest = set(range(len(classes))) - set(classes.powers[zc])
            order = sorted(rest, key=lambda ci: (classes.sizes[ci], ci))
            assert calls == order[: len(calls)]
            got[family] = len(calls)
        assert got == splits


def c2xc2():
    return from_generators(
        [(1, 0), (0, 1)],
        lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2),
        lambda a: a,
        (0, 0),
        name="C2xC2",
    )


class TestCentralSplit:
    """The oracle starts from the eigenspaces of M_z, z the central class of
    largest order: M_z permutes the coordinates, so its eigenspaces are
    written down from the cycles of that permutation."""

    @staticmethod
    def central_spaces(group, monkeypatch):
        seen = []
        real = grpcore._central_spaces

        def recording(*args):
            seen.append((args, real(*args)))
            return seen[-1][1]

        monkeypatch.setattr(grpcore, "_central_spaces", recording)
        table = character_table(group)
        assert len(seen) == 1
        return table, seen[0]

    @pytest.mark.parametrize("name", ["gl2_q5", "u2_q5", "sl2_q5", "heis3", "s3", "z12"])
    def test_spaces_are_the_eigenspaces_of_the_central_class(self, name, u2_q5, monkeypatch):
        group = {
            "gl2_q5": lambda: build_gl2(make_field(5)),
            "u2_q5": lambda: u2_q5,
            "sl2_q5": lambda: build_sl2(make_field(5)),
            "heis3": lambda: extraspecial_group(3).group,
            "s3": s3,
            "z12": lambda: cyclic(12),
        }[name]()
        _, ((_, classes, zc, exponent, zgen, r), spaces) = self.central_spaces(group, monkeypatch)
        k = len(classes)
        central = [ci for ci in range(k) if classes.sizes[ci] == 1]
        o = max(classes.rep_orders[ci] for ci in central)
        assert zc == min(ci for ci in central if classes.rep_orders[ci] == o)
        rows = [_class_row(group, classes, zc, j, r) for j in range(k)]
        lams = []
        for basis, pivots in spaces:
            assert len(basis) == len(pivots) >= 1
            lam = sum(x * y for x, y in zip(rows[pivots[0]], basis[0])) % r
            assert pow(lam, o, r) == 1
            lams.append(lam)
            for b, vec in enumerate(basis):
                # Reduced echelon: 1 at its own pivot, 0 at the others.
                assert [vec[p] for p in pivots] == [int(a == b) for a in range(len(pivots))]
                image = [sum(x * y for x, y in zip(row, vec)) % r for row in rows]
                assert image == [lam * x % r for x in vec]
        assert len(set(lams)) == len(lams)
        assert sum(len(basis) for basis, _ in spaces) == k
        if o == 1:
            assert spaces == [([[int(i == j) for i in range(k)] for j in range(k)], list(range(k)))]

    def test_non_cyclic_centre_still_splits_in_the_loop(self, monkeypatch):
        group = c2xc2()
        splits = []
        real = grpcore._split

        def counted(group, classes, spaces, ci, *args):
            splits.append(ci)
            return real(group, classes, spaces, ci, *args)

        monkeypatch.setattr(grpcore, "_split", counted)
        table, (_, spaces) = self.central_spaces(group, monkeypatch)
        assert sorted(len(basis) for basis, _ in spaces) == [2, 2]
        assert splits
        classes = conjugacy_classes(group)
        # chi_(s,t)(a, b) = (-1)^(sa + tb), one row for each (s, t).
        hand = [
            [root_of_unity(2, s * a + t * b) for a, b in map(group.key, classes.representatives)]
            for s in (0, 1)
            for t in (0, 1)
        ]
        assert len(table) == 4
        for expected in hand:
            assert sum(list(cf.values) == expected for cf in table) == 1

    def test_cyclic_group_needs_no_split(self, monkeypatch):
        calls = []
        monkeypatch.setattr(grpcore, "_split", lambda *args: calls.append(args))
        assert len(character_table(cyclic(12))) == 12
        assert calls == []

    @pytest.mark.parametrize(
        "q,roots,searched",
        [
            (5, {"sl2": 2, "gl2": 11, "u2": 8}, {"sl2": 2, "gl2": 3, "u2": 4}),
            (7, {"sl2": 3, "gl2": 20, "u2": 20}, {"sl2": 2, "gl2": 6, "u2": 5}),
        ],
    )
    def test_root_finding_cost(self, q, roots, searched, monkeypatch):
        # One characteristic polynomial per non-scalar restriction; only
        # those of degree >= 3 reach a gcd (the split part, then
        # Cantor-Zassenhaus).
        count = {"roots": 0, "hessenberg": 0, "searched": 0}
        gcds = []
        real_roots, real_hess, real_gcd = grpcore._poly_roots, grpcore._hessenberg, ffield._poly_gcd

        def counted_roots(poly, p, rng):
            count["roots"] += 1
            gcds.clear()
            found = real_roots(poly, p, rng)
            count["searched"] += bool(gcds)
            return found

        def counted_hess(m, r):
            count["hessenberg"] += 1
            return real_hess(m, r)

        def counted_gcd(*args):
            gcds.append(1)
            return real_gcd(*args)

        monkeypatch.setattr(grpcore, "_poly_roots", counted_roots)
        monkeypatch.setattr(grpcore, "_hessenberg", counted_hess)
        monkeypatch.setattr(ffield, "_poly_gcd", counted_gcd)
        for family in roots:
            if family == "u2":
                group = build_u2(rankone.UnitarySpec(q))
            else:
                group = {"sl2": build_sl2, "gl2": build_gl2}[family](make_field(q))
            count.update(roots=0, hessenberg=0, searched=0)
            character_table(group)
            assert count["roots"] == count["hessenberg"] == roots[family]
            assert count["searched"] <= searched[family]


class TestGaloisOrbits:
    """The oracle splits one central eigenspace per Galois orbit, lifts one
    row per Galois orbit of rows and forms the others through the
    permutations pi_e(l) = power_class(l, e), e prime to the exponent."""

    @staticmethod
    def power_maps(classes):
        exponent = lcm(*classes.rep_orders)
        k = len(classes)
        units = [e for e in range(1, exponent) if gcd(e, exponent) == 1]
        return exponent, {tuple(classes.power_class(l, e) for l in range(k)) for e in units}

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_permutations_generate_the_power_maps_of_the_units(self, family, spec_q5):
        classes = conjugacy_classes(oracle_group(family, spec_q5))
        exponent, every = self.power_maps(classes)
        perms = grpcore._galois_permutations(classes, exponent)
        assert len(set(perms)) == len(perms)
        assert set(perms) <= every - {tuple(range(len(classes)))}
        # pi_e o pi_f = pi_(ef): the closure under composition is all of them.
        reached = [tuple(range(len(classes)))]
        for perm in reached:
            for g in perms:
                composed = tuple(perm[x] for x in g)
                if composed not in reached:
                    reached.append(composed)
        assert set(reached) == every

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_rows_are_closed_under_the_power_maps(self, family, spec_q5):
        group = oracle_group(family, spec_q5)
        table = character_table(group)
        texts = {row.serialize() for row in table}
        _, every = self.power_maps(conjugacy_classes(group))
        for perm in every:
            for row in table:
                assert tuple(row.serialize()[l] for l in perm) in texts

    @pytest.mark.parametrize("family", ["sl2", "gl2", "u2"])
    def test_a_wrong_permutation_trips_the_certificate(
        self, family, spec_q5, swapped_galois_permutation
    ):
        with pytest.raises(AssertionError):
            character_table(oracle_group(family, spec_q5))
        assert len(swapped_galois_permutation) == 1

    @pytest.mark.parametrize("family,spaces,entered,rows", [("gl2", 8, 4, 342), ("u2", 10, 4, 424)])
    def test_q9_cost_guard(self, family, spaces, entered, rows, gl2_q9, monkeypatch):
        # Of the o central spaces (o = 8 and 10), one per orbit of t under
        # the units mod o enters the split loop: t = 0 and the divisors of
        # o.  The class rows read are those at the pivots of the spaces
        # still split, shared across spaces; the t = 0 space holds every
        # cycle's pivot, so the other spaces add no row.
        group = gl2_q9 if family == "gl2" else build_u2(rankone.UnitarySpec(9))
        conjugacy_classes(group)
        central, entering, count = [], [], [0]
        real_central, real_split, real_row = grpcore._central_spaces, grpcore._split, grpcore._class_row

        def recording_central(*args):
            central.append(real_central(*args))
            return central[-1]

        def recording_split(group, classes, spaces, *args):
            entering.append(len(spaces))
            return real_split(group, classes, spaces, *args)

        def counted_row(*args):
            count[0] += 1
            return real_row(*args)

        monkeypatch.setattr(grpcore, "_central_spaces", recording_central)
        monkeypatch.setattr(grpcore, "_split", recording_split)
        monkeypatch.setattr(grpcore, "_class_row", counted_row)
        character_table(group)
        assert (len(central[0]), entering[0], count[0]) == (spaces, entered, rows)


class TestExport:
    def test_csv_shape(self):
        G = cyclic(4)
        tab = character_table(G)
        text = table_to_csv(G, tab)
        lines = text.strip().split("\n")
        assert len(lines) == 2 + 4
        assert lines[0].startswith("class,")
        assert lines[1].startswith("size,")
        assert lines[2].startswith("chi_0,")

    def test_json_mirrors_csv(self):
        G = cyclic(4)
        tab = character_table(G)
        data = table_to_json(G, tab)
        assert data["order"] == 4
        assert len(data["classes"]) == 4
        assert len(data["irreducibles"]) == 4
        assert all(len(row) == 4 for row in data["irreducibles"])

    @pytest.mark.parametrize("family,k", [("sl2", 9), ("gl2", 24), ("u2", 36)])
    def test_each_value_is_serialized_once(self, family, k, spec_q5, monkeypatch):
        # Each distinct value is serialized once, when it is first lifted;
        # the rows' sort keys and both exports reuse that text: 34, 78 and
        # 115 of the k² values at q = 5, 227 calls against 1,953.
        distinct = {"sl2": 34, "gl2": 78, "u2": 115}[family]
        calls = 0
        serialize = Cyclotomic.serialize

        def counted(self):
            nonlocal calls
            calls += 1
            return serialize(self)

        group = oracle_group(family, spec_q5)
        monkeypatch.setattr(Cyclotomic, "serialize", counted)
        table = character_table(group)
        table_to_csv(group, table)
        table_to_json(group, table)
        assert len(table) == k
        assert calls == distinct
        assert distinct == len({text for row in table for text in row.serialize()})


# -- the oracle's linear algebra over F_r -------------------------------

R = 30241  # the oracle prime of GL2(7)


def det_mod(m, r):
    a = [list(row) for row in m]
    n, det = len(a), 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % r), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % r
        inv = pow(a[c][c], r - 2, r)
        for i in range(c + 1, n):
            f = a[i][c] * inv % r
            a[i] = [(x - f * y) % r for x, y in zip(a[i], a[c])]
    return det % r


# Mostly-zero entries reach the reduced Hessenberg forms (zero subdiagonal
# entries) that repeated eigenvalues force.
entries = st.one_of(st.just(0), st.just(1), st.integers(0, R - 1))


@st.composite
def square_matrices(draw, max_size=7):
    n = draw(st.integers(1, max_size))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


class TestOracleLinearAlgebra:
    @given(square_matrices(), st.lists(st.integers(0, R - 1), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_hessenberg_charpoly_is_det(self, m, lams):
        h = _hessenberg(m, R)
        assert all(h[i][j] == 0 for i in range(len(h)) for j in range(i - 1))
        poly = _hessenberg_charpoly(h, R)
        assert len(poly) == len(m) + 1 and poly[-1] == 1
        for lam in lams:
            shifted = [
                [((lam if i == j else 0) - x) % R for j, x in enumerate(row)]
                for i, row in enumerate(m)
            ]
            value = sum(c * pow(lam, e, R) for e, c in enumerate(poly)) % R
            assert value == det_mod(shifted, R)

    @given(square_matrices(), st.sampled_from([3, 7, R]))
    @settings(max_examples=80, deadline=None)
    def test_nullspace_matches_stepwise_reduction(self, m, r):
        # Reference: Gauss-Jordan that reduces every entry at every step.
        n = len(m)
        a = [[x % r for x in row] for row in m]
        pivots, prow = [], 0
        for col in range(n):
            piv = next((i for i in range(prow, n) if a[i][col]), None)
            if piv is None:
                continue
            a[prow], a[piv] = a[piv], a[prow]
            inv = pow(a[prow][col], r - 2, r)
            a[prow] = [x * inv % r for x in a[prow]]
            for i in range(n):
                if i != prow and a[i][col]:
                    c = a[i][col]
                    a[i] = [(x - c * y) % r for x, y in zip(a[i], a[prow])]
            pivots.append(col)
            prow += 1
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for f in free:
            vec = [0] * n
            vec[f] = 1
            for i, col in enumerate(pivots):
                vec[col] = -a[i][f] % r
            basis.append(vec)
        assert _nullspace(m, r) == (basis, free)
        for vec in basis:
            assert all(sum(x * y for x, y in zip(row, vec)) % r == 0 for row in m)
