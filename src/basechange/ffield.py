"""Finite fields GF(p^k) of odd characteristic, with subfield structure
and the character groups of the multiplicative and norm-one subgroups.
Everything is table-based: these are desk-scale fields (at most a few
thousand elements), and determinism matters more than asymptotics.

Elements are represented as int indices into the lexicographic enumeration
of coefficient tuples (c0,...,c_{k-1}), c0 compared first.  The tables come
from discrete logs: the generator (the least index of order q - 1) and its
q - 2 powers are the only polynomial products, the product table is
g^i g^j = g^(i+j), and the sum table adds base-p digits by place value.
Every table entry is the int object of its code in one list, so a table
of q^2 entries holds q ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd as _gcd
from operator import mul

from .cyclo import Cyclotomic, _factorize, root_of_unity

# The largest field with flat tables; the CLI bounds q^2 by it before any
# primality test.
MAX_FIELD_SIZE = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def require_odd_prime(p: int):
    """Raise unless p is an odd prime, with the messages of ``make_field``."""
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if p == 2:
        raise ValueError("odd characteristic only")


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p and k >= 1."""
    primes = _factorize(q)
    if len(primes) != 1:
        raise ValueError("q must be a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
    return p, k


def quadratic_pair(q: int) -> tuple[FField, FField]:
    """(GF(q), GF(q^2)) for a prime power q: the residue fields k0 and l."""
    k0 = make_field(*_prime_power(q))
    return k0, make_field(k0.p, 2 * k0.k)


def _primitive_root(r: int) -> int:
    """The least generator of the multiplicative group of GF(r), r prime."""
    primes = _factorize(r - 1)
    g = 2
    while True:
        if all(pow(g, (r - 1) // p, r) != 1 for p in primes):
            return g
        g += 1


# -- polynomial helpers over GF(p), coefficient lists low-to-high ------


def _poly_mod(poly: list[int], mod: list[int], p: int) -> list[int]:
    # The remainder of poly by the monic polynomial mod, in [0, p): each
    # leading coefficient is reduced once, the remainder at the end.
    poly = list(poly)
    dm = len(mod) - 1
    low = mod[:dm]
    for i in range(len(poly) - 1, dm - 1, -1):
        c = poly[i] % p
        if c:
            poly[i - dm : i] = [x - c * m for x, m in zip(poly[i - dm : i], low)]
    out = [c % p for c in poly[:dm]]
    return out + [0] * (dm - len(out))


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    nb = len(b)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [s + x * y for s, y in zip(out[i : i + nb], b)]
    return _poly_mod(out, mod, p)


def _pack(poly: list[int], width: int) -> int:
    # The Kronecker substitution x -> 2^(8 width): one slot of width bytes
    # per coefficient, lowest first.
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in poly]), "little")


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e modulo the monic mod over GF(p), in [0, p), by square and multiply
    on Kronecker-packed integers: one integer product is the whole
    convolution.  The product's high coefficients c_j, j >= d = deg mod,
    fold back as c_j (x^j mod mod), read from packed rows made once per
    call.  Reduced operands give product coefficients < d p^2 and the fold
    adds < (d - 1) p^2, so a slot of width bytes holding 2 d p^2 never
    carries into the next."""
    d = len(mod) - 1
    width = ((2 * d * (p - 1) ** 2).bit_length() + 7) // 8 or 1
    span = width * d
    low = (1 << (8 * span)) - 1
    unpack = int.from_bytes
    high_at, low_at = range(span, 2 * span - width, width), range(0, span, width)
    folds, row = [], [-c % p for c in mod[:d]]
    for _ in range(d - 1):
        folds.append(_pack(row, width))
        c = row[-1]
        row = [(s - c * m) % p for s, m in zip([0] + row[:-1], mod)]

    def mulmod(x: int, y: int) -> int:
        z = x * y
        buf = z.to_bytes(2 * span, "little")
        high = [unpack(buf[i : i + width], "little") % p for i in high_at]
        buf = sum(map(mul, high, folds), z & low).to_bytes(span, "little")
        slots = [(unpack(buf[i : i + width], "little") % p).to_bytes(width, "little") for i in low_at]
        return unpack(b"".join(slots), "little")

    # result is None until the first set bit, which takes base itself.
    base, result = _pack(_poly_mod(a, mod, p), width), None
    while e:
        if e & 1:
            result = base if result is None else mulmod(result, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    if result is None:
        return _poly_mod([1], mod, p)
    buf = result.to_bytes(span, "little")
    return [unpack(buf[i : i + width], "little") for i in low_at]


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    def trim(u):
        u = list(u)
        while u and u[-1] % p == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b):
            c = (r[-1] * inv_lead) % p
            shift = len(r) - len(b)
            r[shift:] = [(x - c * y) % p for x, y in zip(r[shift:], b)]
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def _poly_monic(poly: list[int], p: int) -> list[int]:
    inv_lead = pow(poly[-1], p - 2, p)
    return [(c * inv_lead) % p for c in poly]


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None for a non-square:
    Tonelli-Shanks, p - 1 = q 2^s with q odd."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # x^2 = a t with t of 2-power order; each step lowers the order of t.
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def _small_roots(f: list[int], p: int) -> list[int]:
    # The distinct roots of a monic f of degree <= 2, ascending, by formula.
    if len(f) < 2:
        return []
    if len(f) == 2:
        return [-f[0] % p]
    # The quadratic formula: x = (-b +- sqrt(b^2 - 4c)) / 2.
    s = _sqrt_mod(f[1] * f[1] - 4 * f[0], p)
    if s is None:
        return []
    half = (p + 1) // 2
    return sorted({(-f[1] + s) * half % p, (-f[1] - s) * half % p})


def _poly_roots(poly: list[int], p: int, rng) -> list[int]:
    """The distinct roots in GF(p) of poly (nonzero leading coefficient), ascending.

    Degree <= 2 by formula.  Else the split part g = gcd(x^p - x, poly), the
    product of the distinct linear factors, is taken, by formula again if
    its degree is <= 2 (no draw), else split by equal-degree factorisation
    (Cantor-Zassenhaus): for a random a, gcd((x + a)^((p-1)/2) -+ 1, h)
    hold the roots lam of a factor h with lam + a a nonzero square and a
    non-square.  Each round draws one a and forms its power once modulo g,
    then reduces it modulo every factor still of degree >= 3; factors of
    degree <= 2 are solved by formula.
    """
    f = _poly_monic(poly, p)
    if len(f) > 3:
        xp = _poly_powmod([0, 1], p, f, p) + [0]
        xp[1] = (xp[1] - 1) % p
        f = _poly_monic(_poly_gcd(xp, f, p), p)
    if len(f) <= 3:
        return _small_roots(f, p)
    roots, stack = [], [f]
    while stack:
        a = rng.randrange(p)
        power = _poly_powmod([a, 1], (p - 1) // 2, f, p)
        kept = []
        for g in stack:
            h = _poly_mod(power, g, p)
            parts = []
            for sign in (1, -1):
                hs = list(h)
                hs[0] = (hs[0] - sign) % p
                parts.append(_poly_monic(_poly_gcd(hs, g, p), p))
            if max(map(len, parts)) == len(g):
                kept.append(g)  # no split for this a; draw again
                continue
            if sum(len(u) for u in parts) < len(g) + 1:
                roots.append(-a % p)  # x + a divides g
            for u in parts:
                if len(u) <= 3:
                    roots += _small_roots(u, p)
                else:
                    kept.append(u)
        stack = kept
    return sorted(roots)


def _is_irreducible(poly: list[int], p: int) -> bool:
    # f of degree k is irreducible iff x^(p^k) = x mod f and
    # gcd(x^(p^(k/l)) - x, f) = 1 for every prime l dividing k.
    k = len(poly) - 1
    if k == 1:
        return True
    x = [0, 1]
    xq = _poly_powmod(x, p**k, poly, p)
    if _poly_mod(list(x), poly, p) != xq:
        return False
    for ell in range(2, k + 1):
        if k % ell == 0 and _is_prime(ell):
            xe = _poly_powmod(x, p ** (k // ell), poly, p)
            diff = [(a - b) % p for a, b in zip(xe, _poly_mod(list(x), poly, p))]
            g = _poly_gcd(diff, list(poly), p)
            if len(g) != 1:
                return False
    return True


class FField:
    """GF(p^k) with flat arithmetic tables and a fixed generator."""

    def __init__(self, p: int, k: int):
        require_odd_prime(p)
        if k < 1:
            raise ValueError("k must be a positive integer")
        if p**k > MAX_FIELD_SIZE:
            raise ValueError("field too large for table-based arithmetic")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._smallest_irreducible(p, k)
        self._tuples = [t for t in product(range(p), repeat=k)]
        self._index = {t: i for i, t in enumerate(self._tuples)}
        self.zero = self._index[(0,) * k]
        self.one = self._index[(1,) + (0,) * (k - 1)]
        self._build_tables()
        self._embeddings: dict[tuple[int, int], list[int]] = {}
        self._frobenius: dict[int, list[int]] = {}

    @staticmethod
    def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
        # Lexicographically smallest monic irreducible, coefficients
        # (c0,...,c_{k-1}) compared low-to-high degree first.
        for coeffs in product(range(p), repeat=k):
            poly = list(coeffs) + [1]
            if _is_irreducible(poly, p):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")

    def _build_tables(self):
        # From discrete logs (module docstring).  Index i has base-p digits
        # c0, ..., c_{k-1}, c0 the most significant, and zero is index 0.
        # codes[i] is the one int object stored for i in every table.
        q, p = self.q, self.p
        codes = list(self._index.values())
        mod = list(self.modulus)
        one = _poly_mod([1], mod, p)
        primes = _factorize(q - 1)
        self.generator = next(
            x
            for x in range(q)
            if x != self.zero
            and all(_poly_powmod(list(self._tuples[x]), (q - 1) // l, mod, p) != one for l in primes)
        )
        g, power = list(self._tuples[self.generator]), one
        self._gpow = [self.one]
        for _ in range(q - 2):
            power = _poly_mulmod(power, g, mod, p)
            self._gpow.append(self._index[tuple(power)])
        self._dlog = [None] * q
        for j, x in enumerate(self._gpow):
            self._dlog[x] = j
        twice, logs = self._gpow * 2, self._dlog[1:]
        self._mul = [[0] * q] + [[0] + [twice[d + e] for e in logs] for d in logs]
        rows, place = [[0]], 1
        for _ in range(self.k):
            rows = [
                [codes[(c + t) % p * place + r] for t in range(p) for r in row]
                for c in range(p)
                for row in rows
            ]
            place *= p
        self._add = rows
        self._neg = [codes[row.index(self.zero)] for row in rows]

    # -- arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == self.zero:
            raise ZeroDivisionError("division by zero")
        return self._gpow[(-self._dlog[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == self.zero:
            if e < 0:
                raise ZeroDivisionError("division by zero")
            return self.one if e == 0 else self.zero
        return self._gpow[(self._dlog[a] * e) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == self.zero:
            raise ValueError("dlog of zero")
        return self._dlog[a]

    def scalar(self, c: int) -> int:
        """The element representing the integer c mod p."""
        return self._index[(c % self.p,) + (0,) * (self.k - 1)]

    def frobenius(self, a: int, times: int = 1) -> int:
        """a^(p^times), read from a permutation table built once per times."""
        if times not in self._frobenius:
            self._frobenius[times] = [self.pow(x, self.p**times) for x in range(self.q)]
        return self._frobenius[times][a]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self):
        return (x for x in range(self.q) if x != self.zero)

    def element_order(self, a: int) -> int:
        if a == self.zero:
            raise ValueError("zero has no multiplicative order")
        return (self.q - 1) // _gcd(self._dlog[a], self.q - 1)

    def coeffs(self, a: int) -> tuple[int, ...]:
        return self._tuples[a]

    def from_coeffs(self, coeffs) -> int:
        t = tuple(c % self.p for c in coeffs)
        if len(t) != self.k:
            raise ValueError("expected %d coefficients" % self.k)
        return self._index[t]

    def smallest_nonsquare(self) -> int:
        squares = {self.mul(x, x) for x in self.nonzero()}
        for x in self.nonzero():
            if x not in squares:
                return x
        raise AssertionError("every element is a square")

    # -- subfield structure -------------------------------------------

    def is_subfield(self, sub: "FField") -> bool:
        return sub.p == self.p and self.k % sub.k == 0

    def embedding(self, sub: "FField") -> list[int]:
        """The fixed embedding of sub into this field, as an index map."""
        if not self.is_subfield(sub):
            raise ValueError("not a subfield pair")
        key = (sub.p, sub.k)
        if key not in self._embeddings:
            root = None
            for x in range(self.q):
                acc = self.zero
                for c in reversed(sub.modulus):
                    acc = self.add(self.mul(acc, x), self.scalar(c))
                if acc == self.zero:
                    root = x
                    break
            if root is None:
                raise AssertionError("subfield modulus has no root")
            table = []
            for s in range(sub.q):
                acc = self.zero
                for c in reversed(sub.coeffs(s)):
                    acc = self.add(self.mul(acc, root), self.scalar(c))
                table.append(acc)
            self._embeddings[key] = table
        return self._embeddings[key]

    def __repr__(self) -> str:
        return "GF(%d^%d)" % (self.p, self.k) if self.k > 1 else "GF(%d)" % self.p


def make_field(p: int, k: int = 1) -> FField:
    """The canonical GF(p^k), cached on (p, k), so identity is stable."""
    return _field(p, k)


@lru_cache(maxsize=None)
def _field(p: int, k: int) -> FField:
    return FField(p, k)


def _require_quadratic(field: FField, sub: FField):
    if not (field.is_subfield(sub) and field.k == 2 * sub.k):
        raise ValueError("expected a quadratic extension pair")


def norm_one_generator(field: FField, sub: FField) -> int:
    """The fixed generator g^(q-1) of the norm-one subgroup."""
    _require_quadratic(field, sub)
    return field.pow(field.generator, sub.q - 1)


def norm_one_subgroup(field: FField, sub: FField) -> list[int]:
    """The q+1 norm-one elements, cyclically ordered by the fixed generator."""
    u = norm_one_generator(field, sub)
    out = [field.one]
    x = u
    while x != field.one:
        out.append(x)
        x = field.mul(x, u)
    if len(out) != sub.q + 1:
        raise AssertionError("norm-one subgroup has wrong order")
    return out


class MultChar:
    """Character of GF(p^k)^x: chi(g^j) = zeta_{q-1}^{t j} on the fixed generator g.
    Its values are n-th roots of unity, n = q - 1."""

    def __init__(self, field: FField, t: int):
        self.field = field
        self.n = field.q - 1
        self.t = t % self.n

    def exponent(self, x: int) -> int:
        """e with chi(x) = zeta_{q-1}^e, reduced mod q-1."""
        if x == self.field.zero:
            raise ValueError("character undefined at zero")
        return self.t * self.field.dlog(x) % self.n

    def __call__(self, x: int) -> Cyclotomic:
        return root_of_unity(self.n, self.exponent(x))

    def __eq__(self, other):
        return (
            isinstance(other, MultChar)
            and other.field is self.field
            and other.t == self.t
        )

    def __hash__(self):
        return hash((id(self.field), self.t))

    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.field is not self.field:
            raise ValueError("characters live on different groups")
        return MultChar(self.field, self.t + other.t)

    def order(self) -> int:
        n = self.field.q - 1
        return n // _gcd(self.t, n)

    def galois_twist(self) -> "MultChar":
        """Precomposition with the quadratic-pair Frobenius x -> x^q."""
        if self.field.k % 2 != 0:
            raise ValueError("galois twist needs a quadratic pair")
        q = self.field.p ** (self.field.k // 2)
        return MultChar(self.field, self.t * q)

    def is_regular(self) -> bool:
        """Regular = moved by the quadratic-pair Frobenius twist."""
        if self.field.k % 2 != 0:
            raise ValueError("regularity needs a quadratic pair")
        q = self.field.p ** (self.field.k // 2)
        return self.t % (q + 1) != 0

    def extends(self, theta: "NormOneChar") -> bool:
        """Whether this character restricts to theta on the norm-one subgroup."""
        _require_quadratic(self.field, theta.sub)
        return self.t % (theta.sub.q + 1) == theta.s

    def __repr__(self):
        return "MultChar(%r, t=%d)" % (self.field, self.t)


class NormOneChar:
    """Character of the norm-one subgroup of a quadratic pair, on the fixed
    generator u = g^(q-1): theta(u^m) = zeta_{q+1}^{s m}.  Its values are
    n-th roots of unity, n = q + 1."""

    def __init__(self, field: FField, sub: FField, s: int):
        _require_quadratic(field, sub)
        self.field = field
        self.sub = sub
        self.n = sub.q + 1
        self.s = s % self.n

    def _log_u(self, x: int) -> int:
        d = self.field.dlog(x)
        step = self.sub.q - 1
        if d % step != 0:
            raise ValueError("element is not norm-one")
        return d // step

    def exponent(self, x: int) -> int:
        """e with theta(x) = zeta_{q+1}^e, reduced mod q+1."""
        return self.s * self._log_u(x) % self.n

    def __call__(self, x: int) -> Cyclotomic:
        return root_of_unity(self.n, self.exponent(x))

    def __eq__(self, other):
        return (
            isinstance(other, NormOneChar)
            and other.field is self.field
            and other.sub is self.sub
            and other.s == self.s
        )

    def __hash__(self):
        return hash((id(self.field), id(self.sub), self.s))

    def inverse(self) -> "NormOneChar":
        return NormOneChar(self.field, self.sub, -self.s)

    def order(self) -> int:
        n = self.sub.q + 1
        return n // _gcd(self.s, n)

    def is_regular(self) -> bool:
        """Regular = not fixed by inversion, i.e. theta^2 != 1."""
        return (2 * self.s) % (self.sub.q + 1) != 0

    def __repr__(self):
        return "NormOneChar(%r/%r, s=%d)" % (self.field, self.sub, self.s)
