"""Extraspecial p-groups with a cyclic torus action: Heisenberg
representations in the Schrodinger model, their extensions to the torus,
the multiplicity system of an extension on the torus-center subgroup, and
the sign law tying extension traces to a single torus character.

Group elements are integer codes: a vector of GF(p)^a has its base-p
digits as code, below P = p^a; v = (x, y) in GF(p)^a x GF(p)^a has
code(x)·P + code(y), and (v, z) has code(v)·p + z, its index in sorted
tuple order.  Three tables of P^2 entries carry the arithmetic
(SymplecticSpace): sum codes in GF(p)^a, which are also the Schrodinger
shifts u -> u + x, negation codes, and half x·y mod p.  The torus permutes
vector codes: t by a list built from its matrix, t^j by composing lists.
Counterexamples decode codes back to (v, z) tuples.

Each eta(g) is stored as a monomial operator, a shift of GF(p)^a with one
phase exponent e mod p per point, the phase being zeta_p^e: composing
operators adds exponents, so the homomorphism certificate is integer
arithmetic.  Cyclotomic values appear only in the trace identity and where
an operator meets a dense one (the intertwiner A, whose entries are root
sums, and its powers, tuples of Cyclotomic entries).  The d extensions
share s0 with (s0 A)^d = I and the powers A^j, the upper half formed on
first read; an extension operator is a scaled power.  Every assertion is
exact.  The torus is modeled as acting faithfully (order d, gcd(d,p)=1);
central-kernel twists are recoverable by tensoring with a character.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

from .cyclo import ONE, ZERO, Cyclotomic, dot, root_of_unity, root_sum
from .ffield import _is_prime, make_field, norm_one_generator, require_odd_prime
from .grpcore import GroupTable, _nullspace, orbits
from .rankone import embed_quadratic_torus
from .report import Check, Report, counterexample_check


# -- symplectic space -------------------------------------------------


class SymplecticSpace:
    """GF(p)^(2a) with the standard symplectic pairing: the first a
    coordinates span a Lagrangian L, the last a its dual.  Vectors are
    tuples, or their codes for the tables (see the module docstring)."""

    def __init__(self, p: int, a: int):
        if not _is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime")
        if a < 1:
            raise ValueError("a must be a positive integer")
        self.p = p
        self.a = a
        self.dim = 2 * a
        self.zero = (0,) * self.dim
        self.gram = tuple(
            tuple(self._basis_pairing(i, j) for j in range(self.dim))
            for i in range(self.dim)
        )
        for i in range(self.dim):
            if self.gram[i][i] != 0:
                raise AssertionError("pairing is not alternating")
            for j in range(self.dim):
                if (self.gram[i][j] + self.gram[j][i]) % p != 0:
                    raise AssertionError("pairing is not antisymmetric")
        if _nullspace([list(row) for row in self.gram], p)[0]:
            raise AssertionError("pairing is degenerate")
        self._vectors = tuple(product(range(p), repeat=self.dim))
        # The tables, at the code x·P + y of each vector v = (x, y): the code
        # of x + y in GF(p)^a, the code of -v, and half x·y mod p.
        half = (p + 1) // 2
        self.sums = [self.code(self.add(v[:a], v[a:])) for v in self._vectors]
        self.negs = [self.code(self.neg(v)) for v in self._vectors]
        self.half_dots = [half * sum(map(mul, v[:a], v[a:])) % p for v in self._vectors]

    def _basis_pairing(self, i: int, j: int) -> int:
        a = self.a
        if i < a and j == i + a:
            return 1
        if i >= a and j == i - a:
            return self.p - 1
        return 0

    def pairing(self, v, w) -> int:
        a = self.a
        return sum(v[i] * w[a + i] - v[a + i] * w[i] for i in range(a)) % self.p

    def vectors(self):
        return self._vectors  # in code order

    def code(self, v) -> int:
        return sum(t * self.p**k for k, t in enumerate(reversed(v)))

    def add(self, v, w):
        return tuple((x + y) % self.p for x, y in zip(v, w))

    def neg(self, v):
        return tuple((-x) % self.p for x in v)


# -- extraspecial group -----------------------------------------------


class ExtraspecialGroup:
    """Pairs (v, z) with (v,z)(v',z') = (v+v', z+z'+<v,v'>/2), on codes."""

    def __init__(self, space: SymplecticSpace):
        self.space = space
        self.p = space.p
        self.a = space.a
        self.P = space.p**space.a
        self.id_key = 0
        name = "Heis(p=%d,a=%d)" % (space.p, space.a)
        order = space.p ** (2 * space.a + 1)
        self.group = GroupTable(range(order), self.mul_key, self.inv_key, self.id_key, name, self.column)
        self.center_keys = list(range(space.p))

    def column(self, group: GroupTable, h) -> list[int]:
        """The column kernel: (v, z)·h for every code, from two tables over
        the vector codes v = (x, y) tabulated once for h = ((x', y'), t): the
        translation code(v + w)·p and the phase t + <v, w>/2."""
        p, P, sums, half_dots = self.p, self.P, self.space.sums, self.space.half_dots
        w, t = divmod(h, p)
        x2, y2 = divmod(w, P)
        xs = [(s * P, t + hd) for s, hd in zip(sums[x2::P], half_dots[y2::P])]
        ys = list(zip(sums[y2::P], half_dots[x2 * P : x2 * P + P]))
        table = [((X + Y) * p, e - f) for X, e in xs for Y, f in ys]
        return [c + (z + e) % p for c, e in table for z in range(p)]

    def mul_key(self, g, h):
        # <v, w> = x·y' - y·x' for v = (x, y) and w = (x', y').
        p, P, sums, half_dots = self.p, self.P, self.space.sums, self.space.half_dots
        v, z = divmod(g, p)
        w, t = divmod(h, p)
        x1, y1 = divmod(v, P)
        x2, y2 = divmod(w, P)
        z += t + half_dots[x1 * P + y2] - half_dots[x2 * P + y1]
        return (sums[x1 * P + x2] * P + sums[y1 * P + y2]) * p + z % p

    def inv_key(self, g):
        v, z = divmod(g, self.p)
        return self.space.negs[v] * self.p + (-z) % self.p

    def encode(self, key) -> int:
        v, z = key
        return self.space.code(v) * self.p + z

    def decode(self, g):
        v, z = divmod(g, self.p)
        return (self.space.vectors()[v], z)


def build_extraspecial(p: int, a: int = 1) -> ExtraspecialGroup:
    """The extraspecial group of order p^(2a+1) and exponent p, with its
    invariants verified exactly: the center and the exponent on every
    element, the commutator pairing on every x against every generator."""
    space = SymplecticSpace(p, a)  # p must be an odd prime
    G = ExtraspecialGroup(space)
    table = G.group
    if table.order != p ** (2 * a + 1):
        raise AssertionError("wrong group order")
    elements, inv, column = table.elements, table.inv_table, table.column

    def left(b):  # b·x = inv[column(b^-1)[inv[x]]] for every code x
        col = column(inv[b])
        return [inv[col[y]] for y in inv]

    # Center: commuting with the 2a standard basis lifts is enough since
    # they generate the group together with the center.  The i-th basis
    # vector's code is p^(2a-1-i), so its lift's is p^(2a-i).
    central = set(elements)
    for b in (p ** (2 * a - i) for i in range(2 * a)):
        central -= {x for x, xb, bx in zip(elements, column(b), left(b)) if xb != bx}
    if central != set(range(p)):
        raise AssertionError("center is not the central coordinate")
    # Commutator identity on every x against every generator s: [x, s] =
    # (0, c) iff x·s = (s·x)·(0, c), c's column, as (0, c) is central (the
    # check above).  [x, y s] = [x, y] . y [x, s] y^-1 = [x, y] [x, s] and
    # the pairing is additive, so induction on the word length of y gives
    # [x, y] = (0, <x, y>) on every pair.  The pairing is the tuple
    # formula, independent of the tables.
    vectors, central_columns = space.vectors(), [column(c) for c in range(p)]
    for s in table.generators():
        w = vectors[s // p]
        pairs = [space.pairing(v, w) for v in vectors]
        for x, xs, sx in zip(elements, column(s), left(s)):
            if xs != central_columns[pairs[x // p]][sx]:
                raise AssertionError("commutator does not realize the pairing")
    # Exponent p on codes: a walk to x^p covers each x^k too, (x^k)^p = (x^p)^k.
    mul_key, walked = G.mul_key, bytearray(table.order)
    for x in (x for x in elements if not walked[x]):
        y = x
        for _ in range(p - 1):
            walked[y], y = 1, mul_key(y, x)
        if y != G.id_key:
            raise AssertionError("exponent is not p")
    # Pairing nondegeneracy: the tuple formula is bilinear, so a radical
    # vector is a null vector of its Gram matrix.
    basis = [vectors[p ** (2 * a - 1 - i)] for i in range(2 * a)]
    if _nullspace([[space.pairing(u, w) for w in basis] for u in basis], p)[0]:
        raise AssertionError("pairing has a radical vector")
    return G


@lru_cache(maxsize=None)
def extraspecial_group(p: int, a: int = 1) -> ExtraspecialGroup:
    """Cached on the arguments as passed; the tori act on the space of (p, 1)."""
    return build_extraspecial(p, a)


# -- torus action -----------------------------------------------------


class TorusAction:
    """A symplectic matrix of finite order d acting on the space, lifted to
    group automorphisms (v, z) -> (t v, z)."""

    def __init__(self, space: SymplecticSpace, matrix):
        self.space = space
        p = space.p
        matrix = tuple(tuple(x % p for x in row) for row in matrix)
        if len(matrix) != space.dim or any(len(r) != space.dim for r in matrix):
            raise ValueError("matrix has the wrong shape")
        if _nullspace([list(r) for r in matrix], p)[0]:
            raise ValueError("matrix is singular")
        self.matrix = matrix
        ident = tuple(tuple(1 if i == j else 0 for j in range(space.dim)) for i in range(space.dim))
        self.powers = [ident]
        m = matrix
        while m != ident:
            self.powers.append(m)
            m = self._mat_mul(m, matrix)
            if len(self.powers) > 100000:
                raise AssertionError("order computation runaway")
        self.order = len(self.powers)
        # Preserving the form on every basis pair makes t a symplectic map,
        # so (v, z) -> (t v, z) is a group automorphism; that is what makes
        # the twisted moves h x (t.h)^-1 of the orbit checks a group action.
        basis = [tuple(1 if k == i else 0 for k in range(space.dim)) for i in range(space.dim)]
        for i in range(space.dim):
            ti = self.apply(basis[i])
            for j in range(space.dim):
                tj = self.apply(basis[j])
                if space.pairing(ti, tj) != space.gram[i][j]:
                    raise ValueError("matrix does not preserve the symplectic form")
        codes = [space.code(self.apply(v)) for v in space.vectors()]
        self._perms = [list(range(len(codes))), codes]  # t^0 and t on vector codes

    def _mat_mul(self, x, y):
        p, n = self.space.p, self.space.dim
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(n)) % p for j in range(n))
            for i in range(n)
        )

    def apply(self, v, j: int = 1):
        m = self.powers[j % self.order]
        p, n = self.space.p, self.space.dim
        return tuple(sum(m[i][k] * v[k] for k in range(n)) % p for i in range(n))

    def perm(self, j: int = 1) -> list[int]:
        """t^j on vector codes, built on first use as t∘t^(j-1)."""
        j %= self.order
        perms = self._perms
        while len(perms) <= j:
            perms.append([perms[1][c] for c in perms[-1]])
        return perms[j]

    def act_key(self, key, j: int = 1):
        v, z = divmod(key, self.space.p)
        return self.perm(j)[v] * self.space.p + z

    def fixed_space_basis(self, j: int):
        p, n = self.space.p, self.space.dim
        m = self.powers[j % self.order]
        delta = [[(m[i][k] - (1 if i == k else 0)) % p for k in range(n)] for i in range(n)]
        return [tuple(b) for b in _nullspace(delta, p)[0]]

    def fixed_vectors(self, j: int):
        basis, p, n = self.fixed_space_basis(j), self.space.p, self.space.dim
        return [
            tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(n))
            for coeffs in product(range(p), repeat=len(basis))
        ]

    def hypothesis_H(self) -> bool:
        """Only the zero vector is fixed by every nontrivial power."""
        return all(not self.fixed_space_basis(j) for j in range(1, self.order))


def _require_realizable(p: int, d: int, m: int):
    require_odd_prime(p)  # a composite p is named before d | m is tested
    if d < 1 or m % d != 0:
        raise ValueError(
            "realization impossible for (p=%d, d=%d): split needs d | p-1 = %d, "
            "nonsplit needs d | p+1 = %d" % (p, d, p - 1, p + 1)
        )


def split_torus_action(p: int, d: int) -> TorusAction:
    """diag(c, c^-1) with c of order d in GF(p)^x; needs d | p-1."""
    _require_realizable(p, d, p - 1)
    F = make_field(p)
    c = F.pow(F.generator, (p - 1) // d)
    cinv = F.inv(c)
    return TorusAction(extraspecial_group(p, 1).space, ((c, 0), (0, cinv)))


def nonsplit_torus_action(p: int, d: int) -> TorusAction:
    """Multiplication by an order-d norm-one element of GF(p^2), as a
    2x2 matrix over GF(p); needs d | p+1."""
    _require_realizable(p, d, p + 1)
    F = make_field(p)
    L = make_field(p, 2)
    u = L.pow(norm_one_generator(L, F), (p + 1) // d)
    m = embed_quadratic_torus(L, F)(u)
    return TorusAction(extraspecial_group(p, 1).space, ((m[0], m[1]), (m[2], m[3])))


def torus_realization(p: int, d: int, realization: str) -> TorusAction:
    if realization == "split":
        return split_torus_action(p, d)
    if realization == "nonsplit":
        return nonsplit_torus_action(p, d)
    raise ValueError("unknown realization: %r (want split or nonsplit)" % realization)


# -- dense matrix helpers ---------------------------------------------


def _meye(n: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _mmul(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(dot(row, col) for col in cols) for row in x)


def _mscale(c: Cyclotomic, x):
    return tuple(tuple(c * e for e in row) for row in x)


def _mtrace(x) -> Cyclotomic:
    return sum((x[i][i] for i in range(len(x))), ZERO)


def _newton_det(traces, c0: Cyclotomic, n: int) -> Cyclotomic:
    """det A of n x n A with A^d = c0 I, traces[j] = tr A^j (j < d): Newton's
    k e_k = sum_i (-1)^(i-1) e_(k-i) p_i, p_i = c0^(i // d) tr A^(i mod d)."""
    d, e = len(traces), [ONE]
    sums = [c0 ** (i // d) * traces[i % d] for i in range(1, n + 1)]
    for k in range(1, n + 1):
        e.append(dot(e[::-1], sums[:k], [(-1) ** i for i in range(k)], den=k))
    return e[n]


# -- Heisenberg representation ----------------------------------------


class HeisRep:
    """Schrodinger model: on functions of u in GF(p)^a, points by code,
    (eta((x,y),z) phi)(u) = theta(z + y.u + x.y/2) phi(u+x)."""

    def __init__(self, group: ExtraspecialGroup, theta_exp: int):
        if theta_exp % group.p == 0:
            raise ValueError("central character must be nontrivial")
        self.group = group
        self.p = group.p
        self.a = group.a
        self.theta_exp = theta_exp % group.p
        self.dim = n = group.p**group.a
        # _shifts[x][u] is the code of u + x: row x of the sum table.
        sums = group.space.sums
        self._shifts = [sums[x * n : x * n + n] for x in range(n)]
        self._mono = [self._build_mono(key) for key in group.group.elements]
        self._verify_trace_identity()
        self._verify_homomorphism()

    def theta(self, z: int) -> Cyclotomic:
        return root_of_unity(self.p, self.theta_exp * z)

    def _build_mono(self, key):
        # y.u = 2 (half y.u), read from the half-dot table's row y.
        p, n, t = self.p, self.dim, self.theta_exp
        v, z = divmod(key, p)
        x, y = divmod(v, n)
        half_dots = self.group.space.half_dots
        base = z + half_dots[x * n + y]
        exps = tuple(t * (base + 2 * h) % p for h in half_dots[y * n : y * n + n])
        return (x, exps)

    def _phases(self, exps) -> list[Cyclotomic]:
        return [root_of_unity(self.p, e) for e in exps]

    def _compose(self, m1, m2):
        x1, e1 = m1
        x2, e2 = m2
        p, shift = self.p, self._shifts[x1]
        return (shift[x2], tuple((e + e2[s]) % p for e, s in zip(e1, shift)))

    def _verify_trace_identity(self):
        # tr eta(v, z) = p^a theta(z) if v = 0 else 0: the irreducibility
        # certificate, checked on every element.
        for key, (x, exps) in enumerate(self._mono):
            v, z = divmod(key, self.p)
            trace = root_sum(self.p, 1, exps) if x == 0 else ZERO
            expected = self.dim * self.theta(z) if v == 0 else ZERO
            if trace != expected:
                raise AssertionError("trace identity fails at %r" % (self.group.decode(key),))

    def _verify_homomorphism(self):
        """eta(e) = I, and eta(x s) = eta(x) eta(s) for every x and every
        generator s: every y is a word in the generators, and induction on
        its length with associativity gives eta(x y) = eta(x) eta(y) on every
        pair, at |G|·|gens| compositions.  The products x s are read from
        the generator columns that proved closure."""
        table, mono = self.group.group, self._mono
        if mono[self.group.id_key] != (0, (0,) * self.dim):
            raise AssertionError("representation is not a homomorphism")
        for s in table.generators():
            h = mono[s]
            for g, gs in zip(mono, table.column(s)):
                if self._compose(g, h) != mono[gs]:
                    raise AssertionError("representation is not a homomorphism")

    def matrix(self, key):
        x, exps = self._mono[key]
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for row, s, phase in zip(rows, self._shifts[x], self._phases(exps)):
            row[s] = phase
        return tuple(tuple(r) for r in rows)

    def trace_product(self, dense, key) -> Cyclotomic:
        """tr(dense * eta(key)), using the one-entry-per-row structure:
        the sum of dense[v+x][v] * phase(v)."""
        x, exps = self._mono[key]
        column = [dense[s][v] for v, s in enumerate(self._shifts[x])]
        return dot(column, self._phases(exps))


@lru_cache(maxsize=None)
def heisenberg_rep(p: int, a: int = 1, theta_exp: int = 1) -> HeisRep:
    return HeisRep(extraspecial_group(p, a), theta_exp)


# -- intertwiners and extensions --------------------------------------


def intertwiner(rep: HeisRep, action: TorusAction, seed=None):
    """A dense operator A with A eta(g) A^-1 = eta(t g), built by averaging
    eta(t g) B eta(g)^-1 over the group for a matrix-unit seed B."""
    n, p = rep.dim, rep.p
    # The code of -x for x in GF(p)^a is that of -(0, x), below n.
    negs, shifts, perm = rep.group.space.negs, rep._shifts, action.perm(1)
    seeds = [seed] if seed is not None else list(product(range(n), repeat=2))
    for r, c in seeds:
        exps = [[[] for _ in range(n)] for _ in range(n)]
        for v in range(n * n):
            x1, f1 = rep._mono[perm[v] * p]
            x2, f2 = rep._mono[v * p]
            i = shifts[negs[x1]][r]
            j = shifts[negs[x2]][c]
            exps[i][j].append(f1[i] - f2[j])
        # the central coordinate only rescales the average by p
        A = tuple(tuple(root_sum(p, p, e) for e in row) for row in exps)
        if not all(e.is_zero() for row in A for e in row):
            return A
    raise ValueError("intertwiner averaging yielded zero for every seed")


def _verify_intertwines(rep: HeisRep, action: TorusAction, A):
    """A eta(g) = eta(t g) A, checked on the generators only: both sides are
    multiplicative in g, since eta is a homomorphism (HeisRep certifies it)
    and t acts by an automorphism (TorusAction certifies it), so the g
    satisfying it form a subgroup, and that subgroup holds the generators."""
    for s in rep.group.group.generators():
        x, exps = rep._mono[s]
        tx, texps = rep._mono[action.act_key(s)]
        # (A eta(s))[i][w + x] = A[i][w] zeta^exps[w] and
        # (eta(t s) A)[i][l] = zeta^texps[i] A[i + tx][l]; divide by the latter phase.
        shifted = rep._shifts[x]
        for i, ti in enumerate(rep._shifts[tx]):
            row = A[ti]
            phases = rep._phases(e - texps[i] for e in exps)
            if any(A[i][w] * phases[w] != row[l] for w, l in enumerate(shifted)):
                return False
    return True


class _Powers:
    """A^0 ... A^(d-1) from the chain A^0 ... A^h that extend formed: each
    A^j above it is A^h A^(j-h), formed on first read."""

    def __init__(self, chain, d: int):
        self._ops, self._h = (chain + [None] * d)[:d], len(chain) - 1

    def __len__(self):
        return len(self._ops)

    def __getitem__(self, j: int):
        ops, j = self._ops, range(len(self._ops))[j]
        if ops[j] is None:
            ops[j] = _mmul(ops[self._h], ops[j - self._h])
        return ops[j]


class Extension:
    """One of the d extensions of a Heisenberg representation to the
    semidirect product with the torus, labeled by the torus character
    separating it from the others: lambda_c(t^j) = zeta_d^(cj) s0^j A^j.
    The scalar s0, the bare powers A^0 ... A^(d-1) of the intertwiner A and
    the d traces tr lambda_0(t^j) are shared by all d extensions, and
    tr lambda_c(t^j) = zeta_d^(cj) tr lambda_0(t^j): lambda_0 decides the
    sign law, trace moduli and multiplicity multiset of every label."""

    def __init__(self, rep: HeisRep, action: TorusAction, label: int, s0, powers, traces):
        self.rep = rep
        self.action = action
        self.label = label
        self.s0 = s0
        self.powers = powers
        self.traces = traces

    def op(self, j: int):
        j %= self.action.order
        scalar = root_of_unity(self.action.order, self.label * j) * self.s0**j
        return _mscale(scalar, self.powers[j])

    def trace(self, j: int) -> Cyclotomic:
        j %= self.action.order
        return root_of_unity(self.action.order, self.label * j) * self.traces[j]


def extend(rep: HeisRep, action: TorusAction) -> list[Extension]:
    """All d extensions of rep along the torus action: lambda_c(t^j) =
    zeta_d^(cj) (s0 A)^j with A the averaged intertwiner and s0 the exact
    scalar making (s0 A)^d the identity."""
    d, p = action.order, rep.p
    if gcd(d, p) != 1:
        raise ValueError("torus order must be prime to p")
    if not action.hypothesis_H():
        raise ValueError("hypothesis (H) fails")
    A = intertwiner(rep, action)
    if not _verify_intertwines(rep, action, A):
        raise AssertionError("averaged operator fails to intertwine")
    # A^0 ... A^h, h = ceil(d/2), by h - 1 products; above it tr A^j =
    # tr(A^h A^(j-h)), one dot of n^2 terms.  A^d = A^h A^(d-h) = c0 I
    # entrywise and s0^d c0 = 1 together certify (s0 A)^d = I.
    n, h = rep.dim, (d + 1) // 2
    chain = [_meye(n), A]
    while len(chain) <= h:
        chain.append(_mmul(chain[-1], A))
    top = _mmul(chain[h], chain[d - h])
    c0 = top[0][0]
    if c0.is_zero() or top != _mscale(c0, _meye(n)):
        raise AssertionError("A^d is not a nonzero scalar")
    entries = [e for row in chain[h] for e in row]
    bare = [_mtrace(op) for op in chain[:d]] + [
        dot(entries, [e for col in zip(*chain[j - h]) for e in col]) for j in range(h + 1, d)
    ]
    # alpha*dim + beta*d = 1; s0 is the same for every such pair, as
    # det(A)^d = c0^dim.
    alpha = pow(n, -1, d)
    beta = (1 - alpha * n) // d
    s0 = _newton_det(bare, c0, n) ** (-alpha) * c0 ** (-beta)
    if s0**d * c0 != ONE:
        raise AssertionError("normalized operator is not of order d")
    traces = tuple(s0**j * t for j, t in enumerate(bare))
    powers = _Powers(chain, d)
    return [Extension(rep, action, c, s0, powers, traces) for c in range(d)]


def multiplicities(ext: Extension) -> dict[int, int]:
    """For each character xi_c of the torus, the multiplicity of xi_c x theta
    in the restriction of the extension to torus x center; values are exact
    nonnegative integers summing to p^a."""
    rep, d = ext.rep, ext.action.order
    # eta(0, z) = theta(z) I: the trace identity makes p^a roots of unity on
    # its diagonal sum to p^a theta(z), which forces each to be theta(z).  So
    # the central factor of the torus x center sum cancels to p, leaving a
    # character sum over the torus alone: with tr lambda_c'(t^j) =
    # zeta_d^(c'j) traces[j], the multiplicity of xi_c is
    # (1/d) sum_j zeta_d^((c'-c)j) traces[j].
    out = {}
    for c in range(d):
        chars = [root_of_unity(d, (ext.label - c) * j) for j in range(d)]
        try:
            m = dot(ext.traces, chars, den=d).as_integer()
        except ValueError:
            raise AssertionError("multiplicity is not an integer for label %d" % c)
        if m < 0:
            raise AssertionError("negative multiplicity for label %d" % c)
        out[c] = m
    if sum(out.values()) != rep.dim:
        raise AssertionError("multiplicities do not sum to p^a (bug)")
    return out


def expected_multiplicity_multiset(p: int, a: int, d: int) -> list[int]:
    """The closed-form multiset: {(p^a+1)/d - 1} u {(p^a+1)/d}^(d-1) when
    d | p^a + 1, else {(p^a-1)/d + 1} u {(p^a-1)/d}^(d-1) (d | p^a - 1)."""
    pa = p**a
    if (pa + 1) % d == 0:
        m = (pa + 1) // d
        return sorted([m - 1] + [m] * (d - 1))
    if (pa - 1) % d != 0:
        raise ValueError("d divides neither p^a - 1 nor p^a + 1")
    m = (pa - 1) // d
    return sorted([m + 1] + [m] * (d - 1))


# -- the sign law and the action's consequences -----------------------


def _twisted_moves(G: GroupTable, action: TorusAction, j: int):
    # x -> k x (t^j . k)^-1 for k = h^-1, h in a generating set: a left action
    # of the group, since t^j acts by an automorphism (see TorusAction), and
    # the move x -> h^-1 x (t^j . h) reads h's own column (grpcore.orbits).
    return [(G.inv(h), G.index[action.act_key(G.key(h), j)]) for h in G.generators()]


def require_rank_one(a: int):
    if a != 1:
        raise ValueError(
            "a = %d is not supported: torus realizations are built only for a = 1" % a
        )


def lemma_H_verify(p: int, a: int, d: int, realization: str, action: TorusAction | None = None):
    """Build the (p, a) extraspecial group, the requested order-d torus
    realization (unless the caller passes it as action), all d extensions,
    and check: each extension's traces on nontrivial torus powers equal
    epsilon times a single torus character (epsilon = -1 iff d | p^a + 1),
    traces have squared modulus 1, the multiplicity multisets match the
    closed form, and coset traces are supported exactly on elements
    conjugate into the center.  The first three checks run on lambda_0
    alone, which decides them for every label (see Extension)."""
    require_rank_one(a)
    if action is None:
        action = torus_realization(p, d, realization)
    rep = heisenberg_rep(p, a)
    group = rep.group
    exts = extend(rep, action)
    checks = []

    checks.append(
        Check(
            name="extension_count",
            status="pass" if len(exts) == d else "fail",
            details="built %d extensions, expected d = %d" % (len(exts), d),
        )
    )

    # As tr lambda_c(t^j) = zeta_d^(cj) tr lambda_0(t^j), label c hits
    # character xi + c wherever label 0 hits xi, has the same trace moduli
    # and the multiplicities of label 0 rotated by c.
    ext0 = exts[0]
    eps = -1 if (p**a + 1) % d == 0 else 1
    hits = [
        xi
        for xi in range(d)
        if all(ext0.trace(j) == eps * root_of_unity(d, xi * j) for j in range(1, d))
    ]
    if len(hits) == 1:
        matched, bad = {c: (hits[0] + c) % d for c in range(d)}, None
    else:
        matched, bad = {}, (0, hits)
    checks.append(
        counterexample_check(
            "trace_sign_law",
            bad,
            "epsilon = %d; extension label -> character exponent: %s"
            % (eps, matched),
        )
    )

    modulus_bad = None
    for j in range(1, d):
        if ext0.trace(j).abs_square() != ONE:
            modulus_bad = (0, j, ext0.trace(j).serialize())
            break
    checks.append(
        counterexample_check(
            "trace_modulus_one",
            modulus_bad,
            "|tr lambda(t^j)|^2 = 1 for 1 <= j < d on all extensions",
        )
    )

    expected = expected_multiplicity_multiset(p, a, d)
    got = sorted(multiplicities(ext0).values())
    checks.append(
        counterexample_check(
            "multiplicity_multiset",
            None if got == expected else (0, got),
            "multiset %s on every extension (branch: d | p^a %s 1)"
            % (expected, "+" if (p**a + 1) % d == 0 else "-"),
        )
    )

    # Coset support: tr lambda(t) eta(y) != 0 iff h y (t.h)^-1 reaches the
    # center for some h, i.e. ty is conjugate into tZ within the group: iff
    # y lies in the orbit of a central element under those moves.
    # lambda(t) is s0 A^(1 mod d) up to a root of unity, and the nonzero
    # scalar decides no zero: take traces against the bare power.
    support_bad = None
    bare, scale = exts[0].powers[1 % d], exts[0].s0 ** (1 % d)
    G = group.group
    center = [G.index[k] for k in group.center_keys]
    into_center = {
        x for orbit in orbits(G, _twisted_moves(G, action, 1), seeds=center) for x in orbit
    }
    # (v, z) = (0, z)(v, 0) and eta(0, z) = theta(z) I (see multiplicities),
    # so the trace at (v, z) is theta(z) times the trace at (v, 0), the
    # element met first in code order.
    for y in G.elements:
        z = y % p
        if z == 0:
            trace = rep.trace_product(bare, y)
        # theta(z) is a unit: the trace at (v, 0) alone decides zero.
        reachable = y in into_center
        if reachable != (not trace.is_zero()):
            support_bad = (group.decode(y), reachable, (rep.theta(z) * scale * trace).serialize())
            break
    checks.append(
        counterexample_check(
            "coset_trace_support",
            support_bad,
            "trace on t-coset is nonzero exactly on elements conjugate into tZ",
        )
    )

    return Report(
        suite="lemma_H",
        params={"p": p, "a": a, "d": d, "realization": realization},
        checks=checks,
    )


def torus_action_consequences(group: ExtraspecialGroup, action: TorusAction):
    """Exhaustive checks of the action's structural consequences: trivial
    fixed-space characters, nondegenerate even-dimensional fixed spaces,
    and conjugacy separation of torus-center elements in the semidirect
    product."""
    space = group.space
    p, d = group.p, action.order
    checks = []

    chi_bad = None
    for j in range(d):
        for v in action.fixed_vectors(j):
            g = group.encode((v, 0))
            comm = group.mul_key(action.act_key(g, j), group.inv_key(g))
            if comm != group.id_key:
                chi_bad = (j, v, group.decode(comm))
                break
        if chi_bad:
            break
    checks.append(
        counterexample_check(
            "fixed_space_character_trivial",
            chi_bad,
            "theta([t^j, v]) = 1 for every fixed vector of every power",
        )
    )

    form_bad = None
    for j in range(d):
        basis = action.fixed_space_basis(j)
        if len(basis) % 2 != 0:
            form_bad = (j, "odd dimension %d" % len(basis))
            break
        gram = [
            [space.pairing(b1, b2) for b2 in basis] for b1 in basis
        ]
        if basis and _nullspace(gram, p)[0]:
            form_bad = (j, "degenerate restriction")
            break
    checks.append(
        counterexample_check(
            "fixed_space_form_nondegenerate_even",
            form_bad,
            "the pairing restricted to each V^(t^j) is nondegenerate of even dimension",
        )
    )

    # Semidirect-product conjugacy: conjugating ((0,z), t^j) by ((h), t^m)
    # gives ((h (0,z) (t^j . h)^-1), t^j); the torus part of the conjugator
    # drops out because the center is action-invariant.  So for each j the
    # central elements must lie in distinct orbits of x -> h x (t^j . h)^-1.
    sep_bad = None
    G = group.group
    center = [G.index[k] for k in group.center_keys]
    for j in range(d):
        for orbit in orbits(G, _twisted_moves(G, action, j), seeds=center):
            hits = sorted(set(orbit).intersection(center))
            if len(hits) > 1:
                sep_bad = ((group.decode(hits[0]), j), (group.decode(hits[1]), j))
                break
        if sep_bad:
            break
    checks.append(
        counterexample_check(
            "torus_center_conjugacy_separated",
            sep_bad,
            "distinct torus-center elements are never conjugate in the semidirect product",
        )
    )

    return Report(
        suite="torus_consequences",
        params={"p": p, "a": group.a, "d": d},
        checks=checks,
    )
