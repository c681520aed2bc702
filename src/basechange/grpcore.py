"""Generic finite-group machinery: enumeration into index tables, orbits of
twisted conjugacy x -> g⁻¹·x·φ(g) (classes at φ = 1), class functions,
induction/restriction, and an exact character-table oracle (class-sum
eigenvector method over a large prime field, lifted to cyclotomic
integers).  Independent of any character formula it validates.
"""

from __future__ import annotations

import os
import random
from functools import partial
from itertools import compress, count, repeat
from math import gcd, isqrt, lcm
from operator import mul, ne

from .cyclo import ZERO, Cyclotomic, _reduce_dense, dot, euler_phi
from .ffield import _is_prime, _poly_roots, _primitive_root

DEFAULT_MAX_GROUP = 10000
_CHECK_SEED = 3735928559


def max_group_order() -> int:
    """Size bound for every group enumerated; BASECHANGE_MAX_GROUP overrides."""
    raw = os.environ.get("BASECHANGE_MAX_GROUP")
    if raw is None:
        return DEFAULT_MAX_GROUP
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError("BASECHANGE_MAX_GROUP must be a positive integer, got %r" % raw)
    return bound


class SizeBoundError(ValueError):
    """A group over the size bound; a malformed bound is a plain ValueError."""


def require_order(name: str, order: int):
    """Raise SizeBoundError unless a group of this order is within the size
    bound; a malformed BASECHANGE_MAX_GROUP raises a plain ValueError."""
    bound = max_group_order()
    if order > bound:
        raise SizeBoundError("%s order %d exceeds size bound %d" % (name, order, bound))


def product_column(group: "GroupTable", kb) -> list[int]:
    """The default column kernel: one ``mul_key`` product per element."""
    index, mul_key = group.index, group._mul_key
    return [index[mul_key(k, kb)] for k in group.elements]


def product_pairs(group: "GroupTable", xs, ys) -> list[int]:
    """The default product kernel: one ``mul_key`` product and one index
    lookup per pair."""
    index, key = group.index, group.elements.__getitem__
    return [index[k] for k in map(group._mul_key, map(key, xs), map(key, ys))]


def _found(indices: list) -> list:
    """indices, or KeyError if a list index over codes gave None for one."""
    if None in indices:
        raise KeyError("key off the carrier")
    return indices


def _triples(n: int) -> tuple[list[int], list[int], list[int]]:
    # The associativity sample: min(300, n²) triples (i, j, k), drawn in
    # that order from one generator of fixed seed, as three index lists.
    # Each draw is the one randrange(n) makes, at a third of its cost:
    # n.bit_length() random bits, drawn again while they read n or more.
    bits, k = random.Random(_CHECK_SEED).getrandbits, n.bit_length()
    draws = []
    for _ in range(3 * min(300, n * n)):
        r = bits(k)
        while r >= n:
            r = bits(k)
        draws.append(r)
    return draws[0::3], draws[1::3], draws[2::3]


class GroupTable:
    """A finite group as sorted canonical keys plus index-level mul/inv.

    Two kernels, each raising KeyError off the carrier, take the long runs
    of products: ``column_kernel(group, kb)`` lists the index of x·b for
    every x, and ``product_kernel(group, xs, ys)`` the index of x·y for each
    pair of indices.  A family passes kernels that skip the general path:
    a column tabulates b once and then looks products up, and a product
    runs the family's formula inline or, when codes are indices, needs no
    lookup (``rankone``, ``heis``).  A family may pass sorted keys with their
    ``index`` (a dict, or a list or range over codes, None off the carrier),
    a batch ``inv_key`` on the key list, and ``decode`` to print a key."""

    def __init__(
        self, keys, mul_key, inv_key, id_key, name: str = "G",
        column_kernel=product_column, product_kernel=product_pairs, index=None, decode=None,
    ):
        self.name = name
        if index is None:
            keys = sorted(keys)
            index = {k: i for i, k in enumerate(keys)}
            if len(index) != len(keys):
                raise ValueError("duplicate element keys")
            inv_key = partial(map, inv_key)
        self.elements, self.index = keys, index
        self.decode = decode or (lambda key: key)
        self._mul_key = mul_key
        self._kernel = column_kernel
        self._products = product_kernel
        try:
            self.id = _found([index[id_key]])[0]
        except KeyError:
            raise ValueError("identity not in carrier") from None
        self.order = len(self.elements)
        try:
            self.inv_table = _found([index[k] for k in inv_key(keys)])
        except KeyError:
            raise ValueError("not closed under inversion") from None
        # Index tables derived from the group once: its classes, rankone's
        # tau, its fusion into each supergroup.
        self.derived: dict = {}
        self._generators: tuple[int, ...] | None = None
        self._columns: dict[int, list[int]] = {}
        self._check_axioms()

    def _check_axioms(self):
        """Identity and inverse axioms on every element, closure through
        ``generators()`` (its docstring has the proof), associativity on
        300 sampled triples: 2n + 1200 products in batches of at most n,
        one alive at a time, and 1 + |gens| kernel columns.  The identity's
        column is built directly, not through ``column()``, and e·x = x is
        checked before the closure: under a false identity axiom the closure
        need not end.  A batch that fails, by raising or by comparing
        unequal, is replayed one ``mul`` at a time, the family's own formula,
        so that the first failing element names the fault, and a kernel
        that disagrees with the formula is named as such."""
        n, e, inv = self.order, self.id, self.inv_table
        try:
            holds = (
                not any(map(ne, self._column(e), count()))
                and not any(map(ne, self.products(repeat(e, n), range(n)), count()))
                and self.products(range(n), inv).count(e) == n
            )
        except ValueError:  # off the carrier: replayed below
            holds = False
        if not holds:
            for i in range(n):
                if self.mul(e, i) != i or self.mul(i, e) != i:
                    raise ValueError("identity axiom fails")
                if self.mul(i, inv[i]) != e:
                    raise ValueError("inverse axiom fails")
            raise AssertionError("product kernel disagrees with mul")
        self.generators()
        i, j, k = _triples(n)
        try:
            holds = self.products(self.products(i, j), k) == self.products(i, self.products(j, k))
        except ValueError:  # off the carrier: replayed below
            holds = False
        if not holds:
            for a, b, c in zip(i, j, k):
                if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                    raise ValueError("associativity spot-check fails")
            raise AssertionError("product kernel disagrees with mul")

    # -- index-level group operations ---------------------------------

    def mul(self, i: int, j: int) -> int:
        """The index of x·y from the family's formula, not the kernels."""
        try:
            return _found([self.index[self._mul_key(self.elements[i], self.elements[j])]])[0]
        except KeyError:
            raise ValueError("not closed under multiplication") from None

    def products(self, xs, ys) -> list[int]:
        """The index of x·y for each pair of indices x in xs and y in ys,
        zipped, from the product kernel."""
        try:
            return self._products(self, xs, ys)
        except KeyError:
            raise ValueError("not closed under multiplication") from None

    def inv(self, i: int) -> int:
        return self.inv_table[i]

    def key(self, i: int):
        return self.elements[i]

    def generators(self) -> tuple[int, ...]:
        """A generating set, found greedily and cached: elements drawn from a
        fixed seed, each outside the subgroup the earlier ones generate,
        until the closure of the identity under them is the whole group.
        This proves closure: every x·g is formed by the column kernel, which
        raises off the carrier, so S·g ⊆ S, and by associativity
        S·(g1⋯gm) ⊆ S.  Each generator's column is kept; the closure is
        marked in a bytearray, so no |G|-long list of it is kept beside."""
        if self._generators is None:
            n = self.order
            rng = random.Random(_CHECK_SEED)
            seen = bytearray(n)
            seen[self.id] = 1
            reached = 1
            while reached < n:
                g = rng.randrange(n)
                if seen[g]:
                    continue
                col = self._columns[g] = self._column(g)
                # The old closure is closed under the old generators, so it
                # needs products with g only; what is new needs them all.
                new = []
                for y in compress(col, bytes(seen)):
                    if not seen[y]:
                        seen[y] = 1
                        new.append(y)
                for x in new:
                    if reached + len(new) == n:
                        break  # the whole group: nothing is left to mark
                    for col_h in self._columns.values():
                        y = col_h[x]
                        if not seen[y]:
                            seen[y] = 1
                            new.append(y)
                reached += len(new)
                del new  # before the next column is built
            self._generators = tuple(self._columns)
        return self._generators

    def _column(self, b: int) -> list[int]:
        try:
            return self._kernel(self, self.elements[b])
        except KeyError:
            raise ValueError("not closed under multiplication") from None

    def column(self, b: int) -> list[int]:
        """column(b)[x] is the index of x·b.  A generator's column is kept
        from generators(); any other is one kernel call and is not kept."""
        self.generators()
        col = self._columns.get(b)
        return self._column(b) if col is None else col

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.name, self.order)


def orbits(group: GroupTable, twist=None, seeds=None) -> list[tuple[int, ...]]:
    """Orbits of x -> g⁻¹·x·φ(g), g in group.generators(), for φ = twist an
    endomorphism of the group on indices (the identity when None), as sorted
    tuples in order of least seed (every element when seeds is None).

    h -> (x -> h⁻¹·x·φ(h)) is a right action of the group, so each seed's
    closure under the generators' moves is its whole orbit: every move
    permutes a finite set, so its inverse is one of its powers.  Each move
    is composed once into a permutation, g⁻¹·x·φ(g) =
    inv[column(g)[inv[column(φ(g))[x]]]], so the closure is one lookup per
    move and element, and conjugacy (φ the identity) costs no product.
    """
    inv, perms = group.inv_table, []
    for g in group.generators():
        cg = group.column(g)
        cphi = cg if twist is None else group.column(twist(g))
        perms.append([inv[cg[inv[y]]] for y in cphi])
    seen = bytearray(group.order)
    out = []
    for seed in range(group.order) if seeds is None else seeds:
        if seen[seed]:
            continue
        seen[seed] = 1
        orbit = [seed]
        for x in orbit:
            for m in perms:
                y = m[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        out.append(tuple(sorted(orbit)))
    return out


class ConjClasses:
    """Conjugacy partition with deterministic class ordering, and the power
    table on the classes: ``powers[ci][e]`` is the class of repᵉ, 0 ≤ e < o."""

    def __init__(self, group: GroupTable):
        self.group = group
        n, ident = group.order, group.id
        raw = orbits(group)
        # Each representative walked once through x⁰ … x^(o−1): o − 1
        # products, the last of which returns to the identity; the walks
        # step together, one batch of products per step.  In a group o ≤ n;
        # a law the sampled associativity check missed may never return, so
        # a walk past n elements is refused.
        walks = [[ident] for _ in raw]
        live = [(walk, c[0], c[0]) for walk, c in zip(walks, raw) if c[0] != ident]
        while live:
            if len(live[0][0]) == n:
                raise AssertionError("power walk does not return to the identity")
            for walk, _, x in live:
                walk.append(x)
            steps = group.products([x for _, _, x in live], [rep for _, rep, _ in live])
            live = [(walk, rep, y) for (walk, rep, _), y in zip(live, steps) if y != ident]
        # Deterministic order: element order, then size, then least index.
        perm = sorted(range(len(raw)), key=lambda i: (len(walks[i]), len(raw[i]), raw[i][0]))
        self.classes = tuple(raw[i] for i in perm)
        self.representatives = tuple(c[0] for c in self.classes)
        self.sizes = tuple(len(c) for c in self.classes)
        lookup = [0] * n
        for ci, c in enumerate(self.classes):
            for x in c:
                lookup[x] = ci
        self.class_of = tuple(lookup)
        if any(n % s for s in self.sizes):
            raise AssertionError("class size does not divide group order")
        self.centralizer_orders = tuple(n // s for s in self.sizes)
        self.powers = tuple(tuple(lookup[x] for x in walks[i]) for i in perm)
        self.rep_orders = tuple(len(row) for row in self.powers)
        if self.rep_orders[0] != 1:
            raise AssertionError("identity class is not first")

    def __len__(self):
        return len(self.classes)

    def inverse_class(self, ci: int) -> int:
        return self.powers[ci][-1]

    def power_class(self, ci: int, e: int) -> int:
        return self.powers[ci][e % self.rep_orders[ci]]


def conjugacy_classes(group: GroupTable) -> ConjClasses:
    if "classes" not in group.derived:
        group.derived["classes"] = ConjClasses(group)
    return group.derived["classes"]


class ClassFunction:
    """One exact cyclotomic value per conjugacy class, in class order.

    ``==`` compares value by value, across orders.  A class function is
    not hashable: equal functions may store a value at different orders (a
    zero as cyc(1) or as cyc(24)), so a hash would need a minimal conductor
    per value, which nothing computes.  Lookups by value take keys at one
    fixed conductor instead (``cyclo``, ``cuspchar``).
    """

    def __init__(self, classes: ConjClasses, values):
        values = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v) for v in values
        )
        if len(values) != len(classes):
            raise ValueError("expected one value per class")
        self.classes = classes
        self.group = classes.group
        self.values = values
        self._text = None

    def on_class(self, ci: int) -> Cyclotomic:
        return self.values[ci]

    @property
    def degree(self) -> Cyclotomic:
        return self.values[self.classes.class_of[self.group.id]]

    def conj(self) -> "ClassFunction":
        return ClassFunction(self.classes, [v.conj() for v in self.values])

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.classes is not self.classes:
            raise ValueError("class functions live on different groups")
        return ClassFunction(self.classes, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        if other.classes is not self.classes:
            raise ValueError("class functions live on different groups")
        return ClassFunction(self.classes, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if other.classes is not self.classes:
            raise ValueError("class functions live on different groups")
        return ClassFunction(self.classes, [a * b for a, b in zip(self.values, other.values)])

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.classes is self.classes
            and all(a == b for a, b in zip(self.values, other.values))
        )

    def serialize(self) -> tuple[str, ...]:
        # Made once: a table row is serialized as its sort key and on export.
        if self._text is None:
            self._text = tuple(v.serialize() for v in self.values)
        return self._text

    def __repr__(self):
        return "ClassFunction(%s, deg=%s)" % (self.group.name, self.degree)


def trivial_character(group: GroupTable) -> ClassFunction:
    classes = conjugacy_classes(group)
    return ClassFunction(classes, [1] * len(classes))


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum_g phi(g) conj(psi(g)), classwise and exact."""
    if phi.group is not psi.group:
        raise ValueError("class functions live on different groups")
    return dot(phi.values, psi.values, phi.classes.sizes, conj=True, den=phi.group.order)


def fusion(sub: GroupTable, group: GroupTable) -> tuple[int, ...]:
    """The G-class of each class of H <= G, kept in H.derived once its
    certificate holds: the same identity, H's keys in G, and x·s in H equal
    to its image's product in G for x in H and s in H.generators(), read
    from H's generator columns.  By induction on word length the embedding
    is then a homomorphism, at |H|·|gens| products of G."""
    fused = sub.derived.get(("fusion", group))
    if fused is not None:
        return fused
    if sub.key(sub.id) != group.key(group.id):
        raise ValueError("H is not a subgroup of G (identity differs)")
    try:
        embed = _found([group.index[k] for k in sub.elements])
    except KeyError:
        raise ValueError("H is not a subgroup of G") from None
    for s in sub.generators():
        if group.products(embed, repeat(embed[s])) != [embed[xs] for xs in sub.column(s)]:
            raise ValueError("H multiplication disagrees with G")
    class_of = conjugacy_classes(group).class_of
    fused = tuple(class_of[embed[rep]] for rep in conjugacy_classes(sub).representatives)
    sub.derived[("fusion", group)] = fused
    return fused


def restrict(chi: ClassFunction, sub: GroupTable) -> ClassFunction:
    """Transport values of a G-class function to the classes of H <= G."""
    values = [chi.values[ci] for ci in fusion(sub, chi.group)]
    return ClassFunction(conjugacy_classes(sub), values)


def induce(psi: ClassFunction, group: GroupTable) -> ClassFunction:
    """Frobenius induction of a class function from H <= G up to G."""
    sub = psi.group
    fused = fusion(sub, group)
    classes = conjugacy_classes(group)
    # Frobenius class formula: Ind psi(g) = |C_G(g)|/|H| sum_{h in H ~ g} psi(h),
    # summed over the classes of H by the G-class each one falls in.
    sums = [ZERO] * len(classes)
    for ci, size, value in zip(fused, psi.classes.sizes, psi.values):
        sums[ci] = sums[ci] + value * size
    return ClassFunction(
        classes,
        [s * Cyclotomic(1, sub.order, (c,)) for s, c in zip(sums, classes.centralizer_orders)],
    )


# -- modular linear algebra over F_r ----------------------------------


def _nullspace(m: list[list[int]], r: int) -> tuple[list[list[int]], list[int]]:
    # A basis of the null space of the square matrix m over F_r, and its
    # free columns: vector b is 1 at free[b] and 0 at every other free column.
    # A row is reduced only as it becomes the pivot: a step adds < r^2 to an entry.
    n = len(m)
    a = [row[:] for row in m]
    pivots = []
    prow = 0
    for col in range(n):
        piv = next((i for i in range(prow, n) if a[i][col] % r != 0), None)
        if piv is None:
            continue
        a[prow], a[piv] = a[piv], a[prow]
        inv = pow(a[prow][col], r - 2, r)
        pivot = a[prow] = [x * inv % r for x in a[prow]]
        for i in range(n):
            c = a[i][col] % r
            if c and i != prow:
                a[i] = [x - c * y for x, y in zip(a[i], pivot)]
        pivots.append(col)
        prow += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-a[i][f]) % r
        basis.append(vec)
    return basis, free


def _hessenberg(m: list[list[int]], r: int) -> list[list[int]]:
    """An upper Hessenberg matrix similar to m over F_r, by elimination
    similarities: row i -= c_i * row j+1, then column j+1 += c_i * column i."""
    d = len(m)
    h = [list(row) for row in m]
    for j in range(d - 2):
        q = j + 1
        p = next((i for i in range(q, d) if h[i][j]), None)
        if p is None:
            continue
        if p != q:
            h[p], h[q] = h[q], h[p]
            for row in h:
                row[p], row[q] = row[q], row[p]
        inv = pow(h[q][j], r - 2, r)
        pivot = h[q]
        cs = [(h[i][j] * inv) % r for i in range(q + 1, d)]
        if not any(cs):
            continue
        for i, c in enumerate(cs, q + 1):
            if c:
                h[i] = [(x - c * y) % r for x, y in zip(h[i], pivot)]
        for row in h:
            row[q] = (row[q] + sum(map(mul, cs, row[q + 1 :]))) % r
    return h


def _hessenberg_charpoly(h: list[list[int]], r: int) -> list[int]:
    """det(x*I - h) for upper Hessenberg h, coefficients low-to-high.

    Hessenberg recurrence: p_m = (x - h_mm) p_(m-1)
    - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1), 1-indexed.
    """
    polys = [[1]]
    for m in range(len(h)):
        prev = polys[-1]
        new = [0] + prev
        new[:-1] = [x - h[m][m] * y for x, y in zip(new, prev)]
        t = 1
        for i in range(m, 0, -1):
            t = (t * h[i][i - 1]) % r
            if not t:
                break
            c = (t * h[i - 1][m]) % r
            if c:
                lower = polys[i - 1]
                new[: len(lower)] = [x - c * y for x, y in zip(new, lower)]
        polys.append([x % r for x in new])
    return polys[-1]


# -- the character-table oracle ---------------------------------------


def _class_row(group, classes, ci: int, j: int, r: int) -> list[int]:
    # Row j of M_i, i = ci, where M_i[j][l] = #{x in C_i : x^-1 z_l in C_j}.
    # Counting pairs in C_i x C_j with product in C_l two ways gives
    # M_i[j][l] = |C_j| #{x in C_i : x y_j in C_l} / |C_l|, y_j in C_j, so a
    # row costs |C_i| products instead of the |C_i| k of a whole matrix.
    sizes = classes.sizes
    class_of = classes.class_of
    yj = classes.representatives[j]
    counts = [0] * len(classes)
    for z in group.products(classes.classes[ci], repeat(yj)):
        counts[class_of[z]] += 1
    return [(sizes[j] * hits // sizes[l]) % r for l, hits in enumerate(counts)]


def _split(group, classes, spaces, ci: int, r: int, rng) -> list:
    # Split every subspace of dimension > 1 into the eigenspaces of the
    # class matrix M_ci restricted to it.  Each space is a basis in
    # reduced echelon form with its pivots: vector b is 1 at pivots[b] and 0
    # at every other pivot, so the coordinates of any w in the span are
    # w[pivots[0]], w[pivots[1]], ...
    rows: dict[int, list[int]] = {}
    out = []
    for basis, pivots in spaces:
        d = len(basis)
        if d == 1:
            out.append((basis, pivots))
            continue
        for p in pivots:
            if p not in rows:
                rows[p] = _class_row(group, classes, ci, p, r)
        # Coordinates of M b in the echelon basis are its pivot entries.
        rmat = [[sum(map(mul, rows[p], b)) % r for b in basis] for p in pivots]
        lam = rmat[0][0]
        if all(rmat[a][b] == (lam if a == b else 0) for a in range(d) for b in range(d)):
            out.append((basis, pivots))
            continue
        charpoly = _hessenberg_charpoly(_hessenberg(rmat, r), r)
        basis_cols = list(zip(*basis))
        found = 0
        for lam in _poly_roots(charpoly, r, rng):
            shifted = [
                [(x - lam) % r if a == b else x for b, x in enumerate(row)]
                for a, row in enumerate(rmat)
            ]
            # Null vector k is 1 at its free coordinate free[k] and 0 at the
            # other free ones, so its image is 1 at pivots[free[k]] and 0 at
            # the other pivots[free[...]]: the children are reduced echelon.
            null, free = _nullspace(shifted, r)
            child = [[sum(map(mul, coords, col)) % r for col in basis_cols] for coords in null]
            found += len(child)
            out.append((child, [pivots[f] for f in free]))
        if found != d:
            raise AssertionError("class matrix is not diagonalizable over F_r")
    return out


def _central_spaces(group, classes, zc: int, exponent: int, zgen: int, r: int) -> list:
    # Eigenspaces of M_z, z in the central class zc, of order o: row j of M_z
    # is the unit vector at perm[j], the class of z y_j, so on a cycle of
    # length L, lam^L = 1, the eigenvector is lam^t at member t with pivot
    # member 0, the least; disjoint supports keep it reduced echelon.
    k, orders = len(classes), classes.rep_orders
    rows = [_class_row(group, classes, zc, j, r) for j in range(k)]
    perm = [row.index(1) if sum(row) == 1 else -1 for row in rows]
    if sorted(perm) != list(range(k)):
        raise AssertionError("central class matrix is not a permutation matrix")
    cycles = []
    for j0 in range(k):
        cycle = [j0]
        while perm[cycle[-1]] != j0:
            cycle.append(perm[cycle[-1]])
        if min(cycle) == j0:
            cycles.append(cycle)
    o, spaces = orders[zc], []
    for t in range(o):
        lam = pow(zgen, exponent // o * t, r)
        live = [cycle for cycle in cycles if pow(lam, len(cycle), r) == 1]
        basis = []
        for cycle in live:
            vec = [0] * k
            for i, j in enumerate(cycle):
                vec[j] = pow(lam, i, r)
            basis.append(vec)
        spaces.append((basis, [c[0] for c in live]))
    if sum(len(basis) for basis, _ in spaces) != k:
        raise AssertionError("central eigenspace dimensions do not sum to the class count")
    return spaces


def _lift_table(classes, l: int, exponent: int, zgen: int, r: int):
    # Eigenvalue multiplicities of rho(g), g in class l of order o:
    # m_j = (1/o) sum_e chi(g^e) zeta_o^(-je).  Gather the e by the class
    # of g^e, so m_j = sum_c coeff[j][c] * chi(class c) for each character.
    power_classes = classes.powers[l]
    o = len(power_classes)
    targets = sorted(set(power_classes))
    slot = {c: i for i, c in enumerate(targets)}
    z_inv = pow(pow(zgen, exponent // o, r), r - 2, r)
    z_pows = [pow(z_inv, t, r) for t in range(o)]
    o_inv = pow(o, r - 2, r)
    coeffs = []
    for j in range(o):
        acc = [0] * len(targets)
        for e, c in enumerate(power_classes):
            acc[slot[c]] += z_pows[(j * e) % o]
        coeffs.append([(a * o_inv) % r for a in acc])
    return o, targets, coeffs


def _galois_permutations(classes, exponent: int) -> list[tuple[int, ...]]:
    # pi_e(l) = power_class(l, e) for e in a generating set of the units mod
    # the exponent, each the least unit outside the subgroup generated so
    # far; since sigma_e(chi)(g) = chi(g^e), these generate the Galois
    # action on rows and central characters.  Distinct, identity left out.
    units, reached, gens = euler_phi(exponent), {1}, []
    for e in range(2, exponent):
        if len(reached) == units:
            break
        if e in reached or gcd(e, exponent) != 1:
            continue
        gens.append(e)
        frontier = list(reached)
        for x in frontier:
            for g in gens:
                y = x * g % exponent
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    perms = dict.fromkeys(tuple(row[e % len(row)] for row in classes.powers) for e in gens)
    perms.pop(tuple(range(len(classes))), None)
    return list(perms)


def character_table(group: GroupTable) -> list[ClassFunction]:
    """All irreducible characters with exact cyclotomic values.

    Dixon-Schneider class-sum method over F_r, with r the smallest prime
    r = 1 (mod exp G) exceeding 2*sqrt(|G|)*exp(G), so that eigenvalue data
    determines character values.  The eigenspaces V_t (eigenvalue zeta_o^t)
    of a central class matrix M_z, a permutation, are written down
    (`_central_spaces`).  For e prime to the exponent, sigma_e(chi)(g) =
    chi(g^e) carries the characters of V_t onto those of V_(te mod o), so
    only one space per orbit of t (its least member, 0 or a divisor of o)
    is split into common eigenspaces of the class matrices M_i, class by
    class in ascending (size, index) order, on the subspaces still of
    dimension > 1, until every subspace is a line.  Each split restricts M_i
    to a subspace through the rows of M_i at the pivots of its echelon
    basis, reduces it to Hessenberg form, takes the characteristic
    polynomial by the Hessenberg recurrence and finds its roots
    (`_poly_roots`).  The splits pass over the powers z^e of the central
    class: their class matrices are powers of M_z, scalar on every space.

    Each line found is the central character w_l = |C_l| chi(g_l)/chi(1)
    mod r of one row.  A row not met before is lifted exactly, through
    root-of-unity multiplicity sums, once per rational class (a Galois
    orbit of classes under power maps); each distinct value, fixed by its
    order and multiplicities, is reduced, imaged mod r and serialized once.
    The rest of its Galois orbit is closed under the permutations pi_e(l) =
    power_class(l, e) of `_galois_permutations`, built once: the conjugate
    line is w o pi_e and the conjugate row takes its values from the
    lifted ones at pi_e(l).  Every row, lifted or permuted, recovers its
    degree from its line and has its values certified against the line
    mod r; the rows must number k, fill every V_t to its dimension, have
    degree squares summing to |G| and be orthonormal mod r, which is what
    certifies the permutations.  The root finding draws from a fixed seed;
    the rows are sorted by (degree, serialized values).
    """
    require_order(group.name, group.order)
    n = group.order
    classes = conjugacy_classes(group)
    k = len(classes)
    exponent = lcm(*classes.rep_orders)
    s = isqrt(n)
    if s * s < n:
        s += 1
    threshold = 2 * s * exponent
    r = exponent + 1
    while r <= threshold or not _is_prime(r):
        r += exponent
    zgen = pow(_primitive_root(r), (r - 1) // exponent, r)

    inv_class = [classes.inverse_class(ci) for ci in range(k)]
    inv_size = [pow(size, r - 2, r) for size in classes.sizes]
    rng = random.Random(_CHECK_SEED)
    # z: the central class of largest order, least index on ties.
    central = (ci for ci in range(k) if classes.sizes[ci] == 1)
    zc = max(central, key=lambda ci: (classes.rep_orders[ci], -ci))
    oz = classes.rep_orders[zc]
    spaces = _central_spaces(group, classes, zc, exponent, zgen, r)
    dims = [len(basis) for basis, _ in spaces]
    # One space per Galois orbit: t's orbit under the units mod o is the t'
    # with gcd(t', o) = gcd(t, o), least member 0 or a divisor of o.
    spaces = [space for t, space in enumerate(spaces) if t == 0 or oz % t == 0]
    rest = set(range(k)) - set(classes.powers[zc])
    for ci in sorted(rest, key=lambda ci: (classes.sizes[ci], ci)):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        spaces = _split(group, classes, spaces, ci, r, rng)
    if any(len(basis) != 1 for basis, _ in spaces):
        raise AssertionError("class matrices failed to separate characters")

    # One lift per rational class: for e prime to o, chi(g^e) = sigma_e(chi(g)),
    # so class powers[l0][e] takes l0's multiplicities m_j at zeta_o^(je).
    lifts, spread = {}, {}
    for l0 in range(k):
        if l0 not in spread:
            lifts[l0] = _lift_table(classes, l0, exponent, zgen, r)
            o = classes.rep_orders[l0]
            for e, c in enumerate(classes.powers[l0]):
                if gcd(e, o) == 1:
                    spread.setdefault(c, (l0, o, pow(e, -1, o)))
    perms = _galois_permutations(classes, exponent)
    ident = classes.class_of[group.id]

    # A lifted value is fixed by its order o and multiplicities, which are
    # reduced once per distinct pair; each distinct value is then built,
    # imaged mod r and serialized once, and shared by every class and row.
    by_mults: dict[tuple, tuple[Cyclotomic, int, str]] = {}
    by_value: dict[tuple, tuple[Cyclotomic, int, str]] = {}

    def lift(deg, modular):
        mults = {}
        for l0, (o, targets, coeffs) in lifts.items():
            at_targets = [modular[c] for c in targets]
            m = mults[l0] = [sum(map(mul, coeff, at_targets)) % r for coeff in coeffs]
            if max(m) > deg:
                raise AssertionError("eigenvalue multiplicity lift out of range")
            if sum(m) != deg:
                raise AssertionError("eigenvalue multiplicities do not sum to degree")
        row = []
        for l in range(k):
            # sum_j m_j zeta_o^(je), with f = 1/e mod o, reduced mod Phi_o.
            l0, o, f = spread[l]
            m = mults[l0]
            dense = [m[i * f % o] for i in range(o)]
            mkey = (o, *dense)
            entry = by_mults.get(mkey)
            if entry is None:
                vkey = (o, _reduce_dense(o, dense))
                entry = by_value.get(vkey)
                if entry is None:
                    v = Cyclotomic(o, 1, vkey[1])
                    entry = by_value[vkey] = (v, _cyclotomic_mod(v, exponent, zgen, r), v.serialize())
                by_mults[mkey] = entry
            row.append(entry)
        return row

    def line_images(w):
        # The degree recovered from the line w, and the images mod r of the
        # values that the line gives its row.
        d2_sum = 0
        for l in range(k):
            d2_sum += w[l] * w[inv_class[l]] * inv_size[l]
        deg_sq = (n * pow(d2_sum % r, r - 2, r)) % r
        deg = isqrt(deg_sq)
        if deg * deg != deg_sq or deg == 0 or n % deg != 0:
            raise AssertionError("character degree recovery failed")
        return deg, tuple((deg * w[l] * inv_size[l]) % r for l in range(k))

    # A row's images mod r (the shared ones of its values) are its key in
    # seen, so that a line met again, split or permuted, is skipped.
    chars, mod_values, seen, lams = [], [], set(), []

    def certified(w, deg, modular, row):
        values, images, texts = zip(*row)
        if images != modular:
            raise AssertionError("lifted value disagrees with its eigenvector mod r")
        cf = ClassFunction(classes, values)
        cf._text = texts
        chars.append((deg, cf))
        mod_values.append(images)
        seen.add(images)
        lams.append(w[zc])
        return row

    for (w,), _ in spaces:
        if w[ident] % r == 0:
            raise AssertionError("eigenvector vanishes at the identity class")
        scale = pow(w[ident], r - 2, r)
        w = tuple((x * scale) % r for x in w)
        deg, modular = line_images(w)
        if modular in seen:
            continue  # a Galois conjugate of an earlier line
        # The Galois orbit of the line, each conjugate with its row.
        orbit = [(w, certified(w, deg, modular, lift(deg, modular)))]
        for w, row in orbit:
            for perm in perms:
                moved = list(map(row.__getitem__, perm))
                if tuple(entry[1] for entry in moved) not in seen:
                    image = tuple(map(w.__getitem__, perm))
                    orbit.append((image, certified(image, *line_images(image), moved)))

    if len(chars) != k:
        raise AssertionError("character count differs from class count")
    if [lams.count(pow(zgen, exponent // oz * t, r)) for t in range(oz)] != dims:
        raise AssertionError("rows per central eigenspace differ from its dimension")
    if sum(d * d for d, _ in chars) != n:
        raise AssertionError("degree squares do not sum to group order")
    for deg, _ in chars:
        if n % deg != 0:
            raise AssertionError("character degree does not divide group order")
    # Modular row orthonormality: cheap and strong; exact checks live in tests.
    weighted = [
        [classes.sizes[l] * row[inv_class[l]] for l in range(k)] for row in mod_values
    ]
    # The form is symmetric (|C| = |C^-1|), so each unordered pair is checked once.
    for a in range(k):
        for b in range(a, k):
            acc = sum(map(mul, mod_values[a], weighted[b]))
            if acc % r != (n if a == b else 0) % r:
                raise AssertionError("modular orthonormality check failed")
    chars.sort(key=lambda item: (item[0], item[1].serialize()))
    return [cf for _, cf in chars]


def _cyclotomic_mod(value: Cyclotomic, exponent: int, zgen: int, r: int) -> int:
    # Image of a Q(zeta_m) integer under zeta_m -> zgen^(exponent/m) mod r.
    m = value.order
    if exponent % m != 0:
        raise AssertionError("value order does not divide the group exponent")
    # The stored numerators share one normalized denominator, so every
    # coefficient is an integer exactly when that denominator is 1.
    if value._den != 1:
        raise AssertionError("character value is not an algebraic integer")
    zm = pow(zgen, exponent // m, r)
    acc, z = 0, 1
    for c in value._num:
        acc += c * z
        z = z * zm % r
    return acc % r


# -- export -----------------------------------------------------------


def table_to_csv(group: GroupTable, chars: list[ClassFunction]) -> str:
    classes = conjugacy_classes(group)
    rep_keys = [repr(group.decode(group.key(rep))) for rep in classes.representatives]
    lines = ["class," + ",".join('"%s"' % key for key in rep_keys)]
    lines.append("size," + ",".join(str(s) for s in classes.sizes))
    for i, cf in enumerate(chars):
        lines.append("chi_%d," % i + ",".join('"%s"' % v for v in cf.serialize()))
    return "\n".join(lines) + "\n"


def table_to_json(group: GroupTable, chars: list[ClassFunction]) -> dict:
    classes = conjugacy_classes(group)
    return {
        "group": group.name,
        "order": group.order,
        "classes": [
            {
                "representative": repr(group.decode(group.key(rep))),
                "size": classes.sizes[ci],
                "element_order": classes.rep_orders[ci],
                "centralizer_order": classes.centralizer_orders[ci],
            }
            for ci, rep in enumerate(classes.representatives)
        ],
        "irreducibles": [list(cf.serialize()) for cf in chars],
    }
