"""Concrete rank-one groups over small finite fields: GL2, SL2, and the
quasi-split unitary group U2 of a quadratic pair, together with the twisting
involution tau, twisted conjugacy, the cyclic norm, and quadratic torus
embeddings.

Matrices are row-major 4-tuples (a, b, c, d) of field element indices; group
tables key them by code ((a·Q + b)·Q + c)·Q + d over GF(Q), in tuple order.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import compress, product, repeat

from .ffield import FField, quadratic_pair
from .grpcore import GroupTable, _found, conjugacy_classes, orbits, require_order

Mat2 = tuple[int, int, int, int]


# -- matrix helpers ---------------------------------------------------


@lru_cache(maxsize=None)
def _row_tables(F: FField):
    """(a, b, F._mul[a], F._mul[b]) for each row code a·Q + b, and F._add
    times Q; no table over pairs of row codes, Q⁴ long at GF(169)."""
    Q, M, times_q = F.q, F._mul, [v * F.q for v in F.elements()]
    rows = [(a, b, M[a], M[b]) for a, b in map(divmod, range(Q * Q), repeat(Q))]
    return rows, [[times_q[v] for v in row] for row in F._add]


def encode(F: FField, x: Mat2) -> int:
    a, b, c, d = x
    return ((a * F.q + b) * F.q + c) * F.q + d


def decode(F: FField, code: int) -> Mat2:
    return divmod(code // F.q**2, F.q) + divmod(code % F.q**2, F.q)


def mat_id(F: FField) -> Mat2:
    return (F.one, F.zero, F.zero, F.one)


def mat_scalar(F: FField, c: int) -> Mat2:
    return (c, F.zero, F.zero, c)


def mat_mul(F: FField, x: Mat2, y: Mat2) -> Mat2:
    a, b, c, d = x
    e, f, g, h = y
    A, M = F._add, F._mul
    ma, mb, mc, md = M[a], M[b], M[c], M[d]
    return (A[ma[e]][mb[g]], A[ma[f]][mb[h]], A[mc[e]][md[g]], A[mc[f]][md[h]])


def mat_column(F: FField, G: GroupTable, y: int) -> list[int]:
    """The column kernel of matrix groups: [index of x·y for x in G].  The
    row products r·y are tabulated once, for the Q² row codes r, so x·y is
    rows[x // Q²]·Q² + rows[x % Q²], formed and looked up in one step."""
    (R, AQ), A, Q2 = _row_tables(F), F._add, F.q * F.q
    (e, f, _, _), (g, h, _, _) = R[y // Q2], R[y % Q2]
    rows = [AQ[ma[e]][mb[g]] + A[ma[f]][mb[h]] for _, _, ma, mb in R]
    up, index = [r * Q2 for r in rows], G.index
    return _found([index[up[x // Q2] + rows[x % Q2]] for x in G.elements])


def mat_products(F: FField, G: GroupTable, xs, ys) -> list[int]:
    """The product kernel of matrix groups: [index of x·y for each pair],
    mat_mul's formula inline over the row tables (a call per pair made a
    batch a fifth slower)."""
    (R, AQ), A, Q2 = _row_tables(F), F._add, F.q * F.q
    index, key = G.index, G.elements.__getitem__
    return _found([
        index[(AQ[ma[e]][mb[g]] + A[ma[f]][mb[h]]) * Q2 + AQ[mc[e]][md[g]] + A[mc[f]][md[h]]]
        for x, y in zip(map(key, xs), map(key, ys))
        for (_, _, ma, mb), (_, _, mc, md) in ((R[x // Q2], R[x % Q2]),)
        for (e, f, _, _), (g, h, _, _) in ((R[y // Q2], R[y % Q2]),)
    ])


def mat_det(F: FField, x: Mat2) -> int:
    a, b, c, d = x
    return F._add[F._mul[a][d]][F._neg[F._mul[b][c]]]


def mat_inverses(F: FField, xs):
    """The code of x⁻¹ = det(x)⁻¹·((d, -b), (-c, a)) for each code x in xs."""
    A, M, N, R, Q, inv = F._add, F._mul, F._neg, _row_tables(F)[0], F.q, F.inv
    return (
        ((mi[d] * Q + mi[N[b]]) * Q + mi[N[c]]) * Q + mi[a]
        for (a, b, _, _), (c, d, _, _) in ((R[x // (Q * Q)], R[x % (Q * Q)]) for x in xs)
        for mi in (M[inv(A[M[a][d]][N[M[b][c]]])],)
    )


def mat_inv(F: FField, x: Mat2) -> Mat2:
    return decode(F, next(mat_inverses(F, (encode(F, x),))))


# -- group builders ---------------------------------------------------

# The order of each family over GF(q), known before any field is built.
ORDERS = {
    "SL2": lambda q: (q * q - 1) * q,
    "GL2": lambda q: (q * q - 1) * (q * q - q),
    "U2": lambda q: q * (q - 1) * (q + 1) ** 2,
}


def matrix_group(F: FField, codes: list[int], name: str) -> GroupTable:
    """A GroupTable on sorted codes of invertible matrices, indexed by a list
    over the Q⁴ codes when half are elements (GL2), else by a dict (SL2, U2)."""
    index = [None] * F.q**4 if 2 * len(codes) >= F.q**4 else {}
    for i, c in enumerate(codes):
        index[c] = i
    return GroupTable(
        codes, lambda x, y: encode(F, mat_mul(F, decode(F, x), decode(F, y))),
        partial(mat_inverses, F), encode(F, mat_id(F)), name, partial(mat_column, F),
        partial(mat_products, F), index, partial(decode, F),
    )


def _enumerate_gl2_subgroup(F: FField, family: str, det_ok) -> GroupTable:
    """The matrices over F whose determinant passes det_ok, as a GroupTable
    of the family's order, one list of determinants per first row."""
    expected = ORDERS[family](F.q)
    require_order(family, expected)
    A, N, Q2, codes = F._add, F._neg, F.q * F.q, []
    for r, (_, _, ma, mb) in enumerate(_row_tables(F)[0]):
        dets = [A[ma[d]][N[mb[c]]] for c in F.elements() for d in F.elements()]
        codes += compress(range(r * Q2, r * Q2 + Q2), map(det_ok, dets))
    G = matrix_group(F, codes, "%s(%d)" % (family, F.q))
    if G.order != expected:
        raise AssertionError("%s enumeration has wrong order" % family)
    return G


def build_gl2(F: FField) -> GroupTable:
    """All invertible 2x2 matrices over F as a GroupTable."""
    return _enumerate_gl2_subgroup(F, "GL2", F.zero.__ne__)


def build_sl2(F: FField) -> GroupTable:
    """The determinant-one subgroup of GL2(F)."""
    return _enumerate_gl2_subgroup(F, "SL2", F.one.__eq__)


class UnitarySpec:
    """The quadratic pair GF(q^2)/GF(q) with the hyperbolic hermitian form
    whose Gram matrix is antidiag(1,1)."""

    def __init__(self, q: int):
        self.q = q
        self.sub, self.field = quadratic_pair(q)
        F = self.field
        self.gram: Mat2 = (F.zero, F.one, F.one, F.zero)
        self.gram_inv: Mat2 = mat_inv(F, self.gram)
        if conj_transpose(self, self.gram) != self.gram:
            raise AssertionError("Gram matrix is not hermitian")

    def __repr__(self):
        return "UnitarySpec(q=%d)" % self.q


def conj_transpose(spec: UnitarySpec, g: Mat2) -> Mat2:
    """g-bar-transpose, bar = entrywise x -> x^q."""
    frob, k = spec.field.frobenius, spec.sub.k
    a, b, c, d = g
    return (frob(a, k), frob(c, k), frob(b, k), frob(d, k))


def _bar_transposes(spec: UnitarySpec, codes):
    """The code of x-bar-transpose for each code x of rows r1 and r2: it is
    S[r1]·Q + S[r2], with S[a·Q + b] = bar(a)·Q² + bar(b)."""
    F, R = spec.field, _row_tables(spec.field)[0]
    fr, Q2 = [F.frobenius(x, spec.sub.k) for x in F.elements()], F.q * F.q
    S = [fr[a] * Q2 + fr[b] for a, b, _, _ in R]
    return (S[x // Q2] * F.q + S[x % Q2] for x in codes)


def is_unitary(spec: UnitarySpec, g: Mat2) -> bool:
    F = spec.field
    return mat_mul(F, mat_mul(F, conj_transpose(spec, g), spec.gram), g) == spec.gram


def build_u2(spec: UnitarySpec) -> GroupTable:
    """The unitary group of the pair, as a subgroup of GL2(GF(q^2)).

    Enumeration is pruned column-by-column; brute force over all of
    GF(q^2)^4 would be q^8 candidates.  For each isotropic first column
    (a, c), the second column solves the linear condition
    bar(a)·d + bar(c)·b = 1: q^2 candidates per first column.
    """
    expected = ORDERS["U2"](spec.q)
    require_order("U2", expected)
    F = spec.field
    A, M = F._add, F._mul
    bar = [F.frobenius(x, spec.sub.k) for x in F.elements()]
    # Column conditions from conj(g)^T * antidiag(1,1) * g = antidiag(1,1).
    iso_cols = {
        (a, c) for a, c in product(F.elements(), repeat=2) if A[M[bar[a]][c]][M[bar[c]][a]] == F.zero
    }
    Q, candidates, one_minus = F.q, [], [F.sub(F.one, x) for x in F.elements()]
    for a, c in iso_cols:
        if bar[a] != F.zero:  # d = (1 - bar(c)·b) / bar(a)
            ms, mc = M[F.inv(bar[a])], M[bar[c]]
            solutions = [(b, ms[one_minus[mc[b]]]) for b in F.elements()]
        elif bar[c] != F.zero:  # b = 1 / bar(c)
            solutions = [(F.inv(bar[c]), d) for d in F.elements()]
        else:
            continue
        candidates += [((a * Q + b) * Q + c) * Q + d for b, d in solutions if (b, d) in iso_cols]
    G = matrix_group(F, sorted(candidates), "U2(%d)" % spec.q)
    # The unitarity certificate, one batch: g-bar-transpose · Gram · g = Gram.
    gram = G.index[encode(F, spec.gram)]
    bars = map(G.index.__getitem__, _bar_transposes(spec, G.elements))
    if G.products(G.products(bars, repeat(gram)), range(G.order)).count(gram) != G.order:
        raise AssertionError("U2 enumeration is not unitary")
    if G.order != expected:
        raise AssertionError("U2 enumeration has wrong order")
    return G


# -- the involution tau and the cyclic norm ---------------------------


def tau(spec: UnitarySpec, g: Mat2) -> Mat2:
    """tau(g) = Gram^-1 * (g-bar-transpose)^-1 * Gram; fixes exactly U2."""
    F = spec.field
    gi = mat_inv(F, conj_transpose(spec, g))
    return mat_mul(F, mat_mul(F, spec.gram_inv, gi), spec.gram)


def tau_permutation(G: GroupTable, spec: UnitarySpec) -> list[int]:
    """T[x] is the index of tau(x) in G = GL2(GF(q^2)), built once per group:
    with w = (x-bar-transpose)^-1 from the entrywise Frobenius and inv_table,
    tau(x) = J^-1 w J, and J^-1 u = (u^-1 J)^-1, so two reads of J's column."""
    key = ("tau", spec.q)
    if key not in G.derived:
        index, inv, bars = G.index, G.inv_table, _bar_transposes(spec, G.elements)
        cj = G.column(index[encode(spec.field, spec.gram)])
        G.derived[key] = [inv[cj[inv[cj[inv[index[w]]]]]] for w in bars]
    return G.derived[key]


def tau_classes(G: GroupTable, spec: UnitarySpec) -> list[tuple[int, ...]]:
    """Partition of G = GL2(GF(q^2)) into twisted-conjugacy orbits of
    g -> h^-1 g tau(h), ordered by least seed index.

    Since tau is a homomorphism, h -> (x -> h^-1 x tau(h)) is a right group
    action, so the orbits under the moves of G.generators() are exact.
    """
    return orbits(G, tau_permutation(G, spec).__getitem__)


def norm_class_map(
    G: GroupTable, spec: UnitarySpec, partition: list[tuple[int, ...]]
) -> list[int]:
    """For each twisted class, the ordinary conjugacy class of N_tau(seed),
    with N_tau(x) = x·T[x]."""
    class_of = conjugacy_classes(G).class_of
    T = tau_permutation(G, spec)
    seeds = [orbit[0] for orbit in partition]
    return [class_of[z] for z in G.products(seeds, map(T.__getitem__, seeds))]


# -- torus embeddings -------------------------------------------------


class QuadraticTorus:
    """The embedding x = a + b*sqrt(nu) -> [[a, b*nu], [b, a]] of the
    quadratic extension's multiplicative group into GL2 of the base field."""

    def __init__(self, field: FField, sub: FField):
        if not (field.is_subfield(sub) and field.k == 2 * sub.k):
            raise ValueError("expected a quadratic extension pair")
        self.field = field
        self.sub = sub
        self.nu = sub.smallest_nonsquare()
        emb = field.embedding(sub)
        nu_up = emb[self.nu]
        roots = sorted(x for x in field.elements() if field.mul(x, x) == nu_up)
        self.sqrt_nu = roots[0]
        self._coords = {}
        for a, b in product(sub.elements(), repeat=2):
            x = field.add(emb[a], field.mul(emb[b], self.sqrt_nu))
            self._coords[x] = (a, b)

    def __call__(self, x: int) -> Mat2:
        if x == self.field.zero:
            raise ValueError("torus embedding is defined on nonzero elements")
        a, b = self._coords[x]
        k0 = self.sub
        return (a, k0.mul(b, self.nu), b, a)


def embed_quadratic_torus(field: FField, sub: FField) -> QuadraticTorus:
    return QuadraticTorus(field, sub)


# -- the orthogonal-basis torus of U2 ---------------------------------


def u2_basis_change(spec: UnitarySpec) -> Mat2:
    """Columns e(-1) + (1/2)e(1) and e(-1) - (1/2)e(1): the basis in which
    the hermitian form becomes diag(1, -1)."""
    F = spec.field
    # (p+1)/2 is 1/2 mod p; push it from the subfield into the big field.
    half = F.embedding(spec.sub)[spec.sub.scalar((spec.sub.p + 1) // 2)]
    return (F.one, F.one, half, F.neg(half))


def u2_torus_element(spec: UnitarySpec, u1: int, u2: int) -> Mat2:
    """P diag(u1, u2) P^-1 for norm-one u1, u2: a point of the torus H."""
    F = spec.field
    P = u2_basis_change(spec)
    diag = (u1, F.zero, F.zero, u2)
    g = mat_mul(F, mat_mul(F, P, diag), mat_inv(F, P))
    if not is_unitary(spec, g):
        raise ValueError("torus parameters are not norm-one")
    return g

