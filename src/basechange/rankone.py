"""Concrete rank-one groups over small finite fields: GL2, SL2, and the
quasi-split unitary group U2 of a quadratic pair, together with the twisting
involution tau, twisted conjugacy, the cyclic norm, and quadratic torus
embeddings.

Matrices are row-major 4-tuples (a, b, c, d) of field element indices.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .ffield import FField, quadratic_pair
from .grpcore import GroupTable, conjugacy_classes, orbits, require_order

Mat2 = tuple[int, int, int, int]


# -- matrix helpers ---------------------------------------------------


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


def mat_column(F: FField, G: GroupTable, y: Mat2) -> list[int]:
    """The column kernel of matrix groups: [index of x·y for x in G].  The
    row products (a, b)·y are tabulated once, Q^2 pairs, and x = (a, b, c, d)
    gives x·y = rows[a][b] + rows[c][d], formed and looked up in one step."""
    e, f, g, h = y
    A, M = F._add, F._mul
    rows = [
        [(Ae[bg], Af[bh]) for bg, bh in zip(M[g], M[h])]
        for Ae, Af in ((A[ae], A[af]) for ae, af in zip(M[e], M[f]))
    ]
    index = G.index
    return [index[rows[a][b] + rows[c][d]] for a, b, c, d in G.elements]


def mat_det(F: FField, x: Mat2) -> int:
    a, b, c, d = x
    return F._add[F._mul[a][d]][F._neg[F._mul[b][c]]]


def mat_inv(F: FField, x: Mat2) -> Mat2:
    a, b, c, d = x
    mi, neg = F._mul[F.inv(mat_det(F, x))], F._neg
    return (mi[d], mi[neg[b]], mi[neg[c]], mi[a])


def mat_frobenius(F: FField, x: Mat2, times: int = 1) -> Mat2:
    return tuple(F.frobenius(e, times) for e in x)


def mat_transpose(x: Mat2) -> Mat2:
    a, b, c, d = x
    return (a, c, b, d)


# -- group builders ---------------------------------------------------

# The order of each family over GF(q), known before any field is built.
ORDERS = {
    "SL2": lambda q: (q * q - 1) * q,
    "GL2": lambda q: (q * q - 1) * (q * q - q),
    "U2": lambda q: q * (q - 1) * (q + 1) ** 2,
}


def matrix_group(F: FField, keys, name: str) -> GroupTable:
    """A GroupTable of invertible 2x2 matrices over F, with mat_column as
    its column kernel."""
    kernel = partial(mat_column, F)
    return GroupTable(keys, partial(mat_mul, F), partial(mat_inv, F), mat_id(F), name, kernel)


def _enumerate_gl2_subgroup(F: FField, family: str, det_ok) -> GroupTable:
    """The matrices over F whose determinant passes det_ok, as a GroupTable
    of the family's order."""
    expected = ORDERS[family](F.q)
    require_order(family, expected)
    # A generator, so no second list of the keys outlives the sort.
    keys = (m for m in product(F.elements(), repeat=4) if det_ok(mat_det(F, m)))
    G = matrix_group(F, keys, "%s(%d)" % (family, F.q))
    if G.order != expected:
        raise AssertionError("%s enumeration has wrong order" % family)
    return G


def build_gl2(F: FField) -> GroupTable:
    """All invertible 2x2 matrices over F as a GroupTable."""
    return _enumerate_gl2_subgroup(F, "GL2", lambda det: det != F.zero)


def build_sl2(F: FField) -> GroupTable:
    """The determinant-one subgroup of GL2(F)."""
    return _enumerate_gl2_subgroup(F, "SL2", lambda det: det == F.one)


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
    return mat_transpose(mat_frobenius(spec.field, g, spec.sub.k))


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
    candidates = []
    for a, c in iso_cols:
        if bar[a] != F.zero:  # d = (1 - bar(c)·b) / bar(a)
            s = F.inv(bar[a])
            solutions = [(b, M[s][F.sub(F.one, M[bar[c]][b])]) for b in F.elements()]
        elif bar[c] != F.zero:  # b = 1 / bar(c)
            solutions = [(F.inv(bar[c]), d) for d in F.elements()]
        else:
            continue
        candidates += [(a, b, c, d) for b, d in solutions if (b, d) in iso_cols]
    keys = [g for g in candidates if is_unitary(spec, g)]
    G = matrix_group(F, keys, "U2(%d)" % spec.q)
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
        fr = [spec.field.frobenius(x, spec.sub.k) for x in spec.field.elements()]
        index, inv = G.index, G.inv_table
        cj = G.column(index[spec.gram])
        G.derived[key] = [
            inv[cj[inv[cj[inv[index[fr[a], fr[c], fr[b], fr[d]]]]]]]
            for a, b, c, d in G.elements
        ]
    return G.derived[key]


def tau_classes(G: GroupTable, spec: UnitarySpec) -> list[tuple[int, ...]]:
    """Partition of G = GL2(GF(q^2)) into twisted-conjugacy orbits of
    g -> h^-1 g tau(h), ordered by least seed index.

    Since tau is a homomorphism, h -> (x -> h^-1 x tau(h)) is a right group
    action, so the orbits under the moves of G.generators() are exact.
    """
    T = tau_permutation(G, spec)
    return orbits(G, [(G.inv(g), T[g]) for g in G.generators()])


def norm_class_map(
    G: GroupTable, spec: UnitarySpec, partition: list[tuple[int, ...]]
) -> list[int]:
    """For each twisted class, the ordinary conjugacy class of N_tau(seed),
    with N_tau(x) = x·T[x]."""
    classes = conjugacy_classes(G)
    T = tau_permutation(G, spec)
    return [classes.class_of[G.mul(orbit[0], T[orbit[0]])] for orbit in partition]


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

