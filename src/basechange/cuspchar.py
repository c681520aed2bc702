"""Explicit cuspidal character formulas for SL2, GL2 and U2 over a small
base field, as exact ClassFunctions, plus identification of each formula
against the independent character-table oracle.

Conventions: the base field k0 = GF(q) with q an odd prime, the quadratic
extension l = GF(q^2), gamma the nontrivial automorphism of l/k0, l1 the
norm-one subgroup.  Values not forced by a formula are 0 on split regular
classes; U2 values off the torus are read from the oracle, never guessed.

Exponent form: every formula value is (q-1)zeta_n^e, -zeta_n^e or
-(zeta_n^a + zeta_n^b), with n the order of the parameter's values and
integer exponents read from discrete logarithms.  ``cyclo.root_sum`` builds
each from (n, coefficient, exponents), one shared object per distinct value,
so no formula does Cyclotomic arithmetic per class, and every value keeps
order n.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .cyclo import ZERO, Cyclotomic, conductor, root_sum
from .ffield import MultChar, NormOneChar, norm_one_subgroup, quadratic_pair
from .grpcore import ClassFunction, character_table, conjugacy_classes, require_order
from .rankone import (
    ORDERS,
    UnitarySpec,
    build_gl2,
    build_sl2,
    build_u2,
    embed_quadratic_torus,
    encode,
    mat_scalar,
    u2_torus_element,
)


class IdentificationError(AssertionError):
    """A formula-built character equal to no oracle row, or to several: a
    transcription fault in a formula, never a usage error."""


# -- shared contexts (built once per q) -------------------------------


class _KeyIndex:
    """Items by the exact values of a tuple of cyclotomics.

    Keys are taken at one conductor, the lcm of every entry's orders, where
    they are canonical (see ``cyclo``): a probe whose conductor divides it
    is one dict lookup, and any other probe is compared with every entry by
    exact ==.  Both return the items, in entry order, whose values equal
    the probe's."""

    def __init__(self, entries):
        self.entries = [(tuple(values), item) for values, item in entries]
        self.conductor = conductor(v for values, _ in self.entries for v in values)
        self.by_key: dict[tuple, list] = {}
        for values, item in self.entries:
            self.by_key.setdefault(self._key(values), []).append(item)

    def lookup(self, values) -> list:
        values = tuple(values)
        if self.conductor % conductor(values) == 0:
            return list(self.by_key.get(self._key(values), ()))
        return [item for vals, item in self.entries if vals == values]

    def _key(self, values) -> tuple:
        return tuple(v.key(self.conductor) for v in values)


class _Context:
    """One family at one q: the base field k0, its quadratic extension l,
    the group with its conjugacy classes, and the oracle table, built on
    first use."""

    def __init__(self, q: int, k0, l, group):
        self.q = q
        self.k0 = k0
        self.l = l
        self.group = group
        self.classes = conjugacy_classes(group)

    @cached_property
    def table(self):
        return character_table(self.group)

    def _split_classes(self, listed_count: int) -> list[int]:
        """The classes outside the central, unipotent and elliptic families,
        which must cover listed_count distinct classes between them."""
        listed = (
            set(self.central.values())
            | set(self.unipotent.values())
            | set(self.elliptic.values())
        )
        if len(listed) != listed_count:
            raise AssertionError("class families overlap")
        return [ci for ci in range(len(self.classes)) if ci not in listed]


class _LinearContext(_Context):
    """GL2 or SL2 at q, with three class families: the central scalars z,
    the unipotent z·n(b) for each offset b, and the elliptic torus points
    outside k0, each by the class it lies in."""

    def __init__(self, q: int, k0, l, group, centre, offsets, torus):
        super().__init__(q, k0, l, group)
        embed, F, cls, G = embed_quadratic_torus(l, k0), k0, self.classes, group
        self.central = {z: cls.class_of[G.index[encode(F, mat_scalar(F, z))]] for z in centre}
        self.unipotent = {  # z·n(b) = ((z, z·b), (0, z))
            (z, b): cls.class_of[G.index[encode(F, (z, F.mul(z, b), F.zero, z))]]
            for z in centre
            for b in offsets
        }
        rational = set(l.embedding(k0))
        self.elliptic = {
            x: cls.class_of[G.index[encode(F, embed(x))]] for x in torus if x not in rational
        }
        # One of x, x^q per elliptic class (x^q = x^-1 on the norm-one
        # torus): the formulas agree on both.
        self.elliptic_reps = {ci: x for x, ci in self.elliptic.items()}


class _GL2Context(_LinearContext):
    def __init__(self, q: int):
        F, l = quadratic_pair(q)
        # Every n(b), b != 0, is conjugate to n(1): one class per z.
        super().__init__(q, F, l, build_gl2(F), tuple(F.nonzero()), (F.one,), l.nonzero())
        if len(self.central) != q - 1 or len(self.unipotent) != q - 1:
            raise AssertionError("central/unipotent classification failed")
        if len(set(self.elliptic.values())) != q * (q - 1) // 2:
            raise AssertionError("elliptic classification failed")
        self.split_classes = self._split_classes(2 * (q - 1) + q * (q - 1) // 2)

    @cached_property
    def cuspidal_parameters(self) -> list[MultChar]:
        """The regular, gamma-canonical parameters, in exponent order: one
        per cuspidal irreducible of GL2(k0)."""
        cands = (MultChar(self.l, t) for t in range(self.l.q - 1))
        return [c for c in cands if c.is_regular() and c.t == canonical_gamma_rep(c).t]

    @cached_property
    def cuspidal_index(self) -> _KeyIndex:
        """The cuspidal parameters by their character; built inside the
        first sigma0 call."""
        return _KeyIndex((gl2_cuspidal(c).values, c) for c in self.cuspidal_parameters)


class _SL2Context(_LinearContext):
    def __init__(self, q: int):
        F, l = quadratic_pair(q)
        centre, offsets = (F.one, F.neg(F.one)), (F.one, F.smallest_nonsquare())
        super().__init__(q, F, l, build_sl2(F), centre, offsets, norm_one_subgroup(l, F))
        self.split_classes = self._split_classes(2 + 4 + (q - 1) // 2)


class _U2Context(_Context):
    def __init__(self, q: int):
        self.spec = UnitarySpec(q)
        super().__init__(q, self.spec.sub, self.spec.field, build_u2(self.spec))
        self.l1 = norm_one_subgroup(self.l, self.k0)
        cls, G = self.classes, self.group
        self.torus_class = {}
        for u1 in self.l1:
            for u2 in self.l1:
                g = u2_torus_element(self.spec, u1, u2)
                self.torus_class[(u1, u2)] = cls.class_of[G.index[encode(self.l, g)]]
        self.central = {u: self.torus_class[(u, u)] for u in self.l1}
        self.torus_classes = sorted(set(self.torus_class.values()))

    @cached_property
    def torus_index(self) -> _KeyIndex:
        """The oracle rows by their values on the torus classes."""
        return _KeyIndex(
            ([chi.on_class(ci) for ci in self.torus_classes], idx)
            for idx, chi in enumerate(self.table)
        )


@lru_cache(maxsize=None)
def gl2_context(q: int) -> _GL2Context:
    return _GL2Context(q)


@lru_cache(maxsize=None)
def sl2_context(q: int) -> _SL2Context:
    return _SL2Context(q)


@lru_cache(maxsize=None)
def u2_context(q: int) -> _U2Context:
    return _U2Context(q)


# The standard families by name, each with its cached context factory.
FAMILIES = {"sl2": sl2_context, "gl2": gl2_context, "u2": u2_context}


def family_context(family: str, q: int) -> _Context:
    """The context of a standard family sl2/gl2/u2 at q, by its factory in
    FAMILIES.  The size bound is checked on every call, hit or miss: a
    context cached under a raised bound is not served after it drops."""
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise ValueError("unknown family: %r" % family) from None
    require_order(family.upper(), ORDERS[family.upper()](q))
    return factory(q)


def match_oracle(cf: ClassFunction, table: list[ClassFunction]) -> list[int]:
    """Indices of oracle irreducibles equal to cf as class functions."""
    return [i for i, chi in enumerate(table) if chi == cf]


# -- the cuspidal shape -----------------------------------------------


def _cuspidal_values(ctx: _Context, omega, elliptic) -> list[Cyclotomic]:
    """Values of the rank-one cuspidal shape on ctx's classes:
    (q-1)omega(z) on the central class of z, -omega(z) on every listed
    unipotent class z*n(b), elliptic(x) at one point x of each elliptic
    class, and 0 on split regular classes.  The omega values are built
    from omega's exponents by ``root_sum``, at omega's order n."""
    emb = ctx.l.embedding(ctx.k0)
    values: list[Cyclotomic] = [ZERO] * len(ctx.classes)
    n, qm1 = omega.n, ctx.q - 1
    for z, ci in ctx.central.items():
        values[ci] = root_sum(n, qm1, (omega.exponent(emb[z]),))
    for (z, _b), ci in ctx.unipotent.items():
        values[ci] = root_sum(n, -1, (omega.exponent(emb[z]),))
    for ci, x in ctx.elliptic_reps.items():
        values[ci] = elliptic(x)
    return values


def _q_power(L, x: int) -> int:
    """x^q on L, the quadratic extension of GF(q): q = p^(k/2)."""
    return L.frobenius(x, L.k // 2)


def _orbit_sum(chi, L):
    """x -> -(chi(x) + chi(x^q)), the elliptic value of a cuspidal."""
    return lambda x: root_sum(chi.n, -1, (chi.exponent(x), chi.exponent(_q_power(L, x))))


# -- SL2 --------------------------------------------------------------


def _sl2_values(theta: NormOneChar) -> ClassFunction:
    ctx = family_context("sl2", theta.sub.q)
    if theta.field is not ctx.l or theta.sub is not ctx.k0:
        raise ValueError("parameter lives on the wrong quadratic pair")
    return ClassFunction(ctx.classes, _cuspidal_values(ctx, theta, _orbit_sum(theta, ctx.l)))


def sl2_cuspidal(theta: NormOneChar) -> ClassFunction:
    """The cuspidal character of SL2(k0) with regular norm-one parameter:
    (q-1)theta(x) central, -theta(x) on x*n, -(theta(u)+theta(u^-1)) elliptic,
    0 on split regular classes."""
    if theta.order() == 1:
        raise ValueError("reducible parameter (trivial θ): the formula is St − 1")
    if not theta.is_regular():
        raise ValueError("reducible parameter (order-2 θ): packet {σ⁺,σ⁻}")
    return _sl2_values(theta)


def sl2_reducible_formula(theta: NormOneChar) -> ClassFunction:
    """The same formula at an order-2 theta: not irreducible, but the sum of
    the two members of a packet of degree (q-1)/2 each."""
    if theta.is_regular():
        raise ValueError("expected an order-2 (non-regular) parameter")
    if theta.order() != 2:
        raise ValueError("expected an order-2 parameter, got the trivial one")
    return _sl2_values(theta)


# -- GL2 --------------------------------------------------------------


def gl2_cuspidal(theta_tilde: MultChar) -> ClassFunction:
    """The cuspidal character of GL2(k0) with regular parameter on l^x:
    (q-1)tt(x) central, -tt(x) on x*n, -(tt(x)+tt(x^q)) elliptic, 0 split."""
    L = theta_tilde.field
    if L.k % 2 != 0:
        raise ValueError("parameter must live on a quadratic extension")
    if not theta_tilde.is_regular():
        raise ValueError("non-regular parameter: the formula is not cuspidal")
    ctx = family_context("gl2", L.p ** (L.k // 2))
    if L is not ctx.l:
        raise ValueError("parameter lives on the wrong quadratic pair")
    return ClassFunction(
        ctx.classes, _cuspidal_values(ctx, theta_tilde, _orbit_sum(theta_tilde, L))
    )


# -- U2 ---------------------------------------------------------------


def _u2_torus_values(ctx: _U2Context, theta1, theta2) -> dict[int, Cyclotomic]:
    values: dict[int, Cyclotomic] = {}
    qm1, n = ctx.q - 1, ctx.q + 1
    e1, e2 = theta1.exponent, theta2.exponent
    for (u1, u2), ci in ctx.torus_class.items():
        if u1 == u2:
            val = root_sum(n, qm1, (e1(u1) + e2(u1),))
        else:
            val = root_sum(n, -1, (e1(u1) + e2(u2), e1(u2) + e2(u1)))
        if ci in values:
            if values[ci] != val:
                raise AssertionError("inconsistent torus values on one class")
        else:
            values[ci] = val
    return values


def u2_cuspidal(theta1: NormOneChar, theta2: NormOneChar) -> ClassFunction:
    """The unique irreducible character of U2(k0) agreeing with the torus
    formula (q-1)theta1(u)theta2(u) on central classes and
    -(theta1(u1)theta2(u2) + theta1(u2)theta2(u1)) on regular torus classes.
    Off-torus values come from the oracle."""
    if theta1.field is not theta2.field or theta1.sub is not theta2.sub:
        raise ValueError("parameters live on different norm-one groups")
    if theta1 == theta2:
        raise ValueError("parameter pair is not regular (theta1 = theta2)")
    ctx = family_context("u2", theta1.sub.q)
    if theta1.field is not ctx.l:
        raise ValueError("parameter lives on the wrong quadratic pair")
    wanted = _u2_torus_values(ctx, theta1, theta2)
    hits = ctx.torus_index.lookup(wanted[ci] for ci in ctx.torus_classes)
    if not hits:
        raise IdentificationError("Ennola mismatch: no oracle irreducible fits the torus values")
    if len(hits) > 1:
        raise IdentificationError("ambiguous: several oracle irreducibles fit the torus values")
    return ctx.table[hits[0]]


# -- sigma0 -----------------------------------------------------------


def canonical_gamma_rep(theta_tilde: MultChar) -> MultChar:
    """The smaller-exponent member of {tt, tt o gamma}."""
    L = theta_tilde.field
    q = L.p ** (L.k // 2)
    t = theta_tilde.t
    tq = (t * q) % (L.q - 1)
    return MultChar(L, min(t, tq))


def _sigma0_values(ctx: _GL2Context, theta1, theta2, omega: MultChar) -> list[Cyclotomic]:
    # Elliptic values in exponent form over N = q^2 - 1.  At x = g^d,
    # Omega(x^q) = zeta_N^(tqd), and x^(1-q) = u^(-d) for the norm-one
    # generator u = g^(q-1), so theta_i(x^(1-q)) = zeta_(q+1)^(-s_i d)
    # = zeta_N^(-(q-1) s_i d).
    q, dlog = ctx.q, ctx.l.dlog
    f1, f2 = omega.t * q - (q - 1) * theta1.s, omega.t * q - (q - 1) * theta2.s

    def elliptic(x):
        d = dlog(x)
        return root_sum(omega.n, -1, (f1 * d, f2 * d))

    return _cuspidal_values(ctx, omega, elliptic)


def sigma0(
    theta1: NormOneChar,
    theta2: NormOneChar,
    Theta1: MultChar,
    Theta2: MultChar,
) -> tuple[ClassFunction, MultChar]:
    """Build the endoscopic-transfer class function on GL2(k0) attached to a
    regular pair (theta1, theta2) with chosen extensions (Theta1, Theta2):
    (q-1)Omega(z) central, -Omega(z) on z*n,
    -Omega(x^q)(theta1(x^(1-q)) + theta2(x^(1-q))) elliptic, 0 split,
    with Omega = Theta1*Theta2.  Returns it with the unique (up to gamma
    twist) regular parameter whose cuspidal character equals it."""
    ctx = family_context("gl2", theta1.sub.q)
    L = ctx.l
    for Th, th in ((Theta1, theta1), (Theta2, theta2)):
        if Th.field is not L or th.field is not L:
            raise ValueError("parameters live on the wrong quadratic pair")
        if not Th.extends(th):
            raise ValueError("extension does not restrict to the norm-one parameter")
    if theta1 == theta2:
        raise ValueError("parameter pair is not regular (theta1 = theta2)")
    built = ClassFunction(ctx.classes, _sigma0_values(ctx, theta1, theta2, Theta1 * Theta2))
    hits = ctx.cuspidal_index.lookup(built.values)
    if not hits:
        raise IdentificationError(
            "no cuspidal identification for the built class function "
            "(formula transcription bug)"
        )
    if len(hits) > 1:
        raise IdentificationError("ambiguous cuspidal identification")
    return built, hits[0]


def sigma0_expected_parameter(Theta1: MultChar, Theta2: MultChar) -> MultChar:
    """The predicted identification Theta1 * (Theta2 o gamma), canonicalized."""
    return canonical_gamma_rep(Theta1 * Theta2.galois_twist())
