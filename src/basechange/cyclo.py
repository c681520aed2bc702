"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are canonical residues modulo the n-th cyclotomic polynomial,
stored as integer coefficient vectors over a common denominator.  No
floating point is used anywhere; equality across different orders is
decided after promotion to the lcm order.

Reduction.  One long-division loop, ``_divide``, divides a coefficient
list by Phi_n in place, visiting only the nonzero terms of Phi_n (kept
once per n).  It reduces every product, promotion and histogram mod Phi_n;
phi(n) is the degree of Phi_n.  Phi_n itself is the product of the
factors (1 - x^d)^mu(n/d), d | n, as a power series cut at degree phi(n):
one linear pass per squarefree divisor of n.

Keys.  For any m that the order n divides, ``x.key(m)`` is the pair
(den, num) of x promoted to Q(zeta_m).  Since an element of Q(zeta_m) has
one reduced residue and one normalized denominator, two values whose
orders divide m are equal iff their keys at m are equal: a key at one
fixed conductor is a canonical, hashable stand-in for the value.
``Cyclotomic`` itself stays unhashable, because ``==`` works across
orders and a hash would have to agree with it.

Kernel.  ``dot`` sums w_i * x_i * y_i (or w_i * x_i * conj(y_i)) in
exponent space: every power-basis term c * zeta_o^i lands on the exponent
i * m / o of one integer histogram of length m, the lcm of the orders
involved, so the whole sum pays one common denominator and one reduction
mod Phi_m instead of one per product and one per addition.  The result
has order m, as the same sum taken term by term from ``ZERO`` would.
Each value lists its nonzero terms once, on first use, so a value shared
by many sums is scanned once.

Rationals.  A value is rational when its non-constant coefficients
vanish, and its normalized (den, num[0]) are then the denominator and
numerator in lowest terms: no ``Fraction`` is built on the arithmetic
path, only by ``as_rational``, ``from_coeffs`` and ``parse``.

Exponent form.  Character formulas know most values as c * (zeta_n^a +
zeta_n^b + ...) with integer exponents.  ``root_sum`` builds such a value
from (n, c, exponents) with one histogram and one reduction, and keeps one
shared object per distinct value, so a formula evaluated on many classes
does no Cyclotomic arithmetic at all.  The result has order n, as
c * (root_of_unity(n, a) + ...) has.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, lcm

TYPE_CHECKING = False
if TYPE_CHECKING:  # the annotation's name, without importing fractions
    from fractions import Fraction


@lru_cache(maxsize=None)
def _divisor(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # phi(n) and (i, c) for each nonzero coefficient of Phi_n below x^phi(n).
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    return phi, tuple((i, c) for i, c in enumerate(poly[:phi]) if c)


def _divide(num: list[int], n: int) -> int:
    """Divide num by Phi_n in place and return phi(n): num[:phi(n)] is then
    the remainder, and num[phi(n) + k] the x^k coefficient of the quotient."""
    phi, terms = _divisor(n)
    for e in range(len(num) - 1, phi - 1, -1):
        c = num[e]
        if c:
            k = e - phi
            for i, d in terms:
                num[k + i] -= c * d
    return phi


def _factorize(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """phi(n), the degree of Phi_n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return _divisor(n)[0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (c0..c_phi) of the n-th cyclotomic polynomial, monic.

    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d).  For n > 1 the signs cancel,
    so Phi_n = prod (1 - x^d)^mu(n/d) as power series, whose terms above
    phi(n) vanish: each factor is one pass over the series cut there,
    multiplying by 1 - x^d or dividing by it (times 1 + x^d + x^2d + ...)."""
    if n == 1:
        return (-1, 1)
    primes = _factorize(n)
    phi = n
    for p in primes:
        phi = phi // p * (p - 1)
    # (m, mu(m)) for the squarefree divisors m of n; the factor is d = n/m.
    moebius = [(1, 1)]
    for p in primes:
        moebius += [(m * p, -mu) for m, mu in moebius]
    series = [1] + [0] * phi
    for m, mu in moebius:
        d = n // m
        if mu > 0:
            for i in range(phi, d - 1, -1):
                series[i] -= series[i - d]
        else:
            for i in range(d, phi + 1):
                series[i] += series[i - d]
    if series[phi] != 1:
        raise ArithmeticError("cyclotomic polynomial is not monic")
    return tuple(series)


def _reduce_dense(n: int, dense: list[int]) -> tuple[int, ...]:
    # The residue of dense mod Phi_n, as phi(n) coefficients; dense is consumed.
    phi = _divide(dense, n)
    return tuple(dense[:phi]) + (0,) * (phi - len(dense))


def _normalize(den: int, num: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    if den < 0:
        den, num = -den, tuple(-c for c in num)
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den //= g
        num = tuple(c // g for c in num)
    return den, num


class Cyclotomic:
    """An element of Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    __slots__ = ("_n", "_den", "_num", "_terms")
    __hash__ = None  # cross-order equality makes hashing a trap

    def __init__(self, n: int, den: int, num: tuple[int, ...]):
        if den == 0:
            raise ZeroDivisionError("division by zero")
        if len(num) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length")
        self._n = n
        self._den, self._num = _normalize(den, num)

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Cyclotomic":
        """An int or another rational number (one with numerator and
        denominator) as an element of Q."""
        return cls(1, value.denominator, (value.numerator,))

    @classmethod
    def from_coeffs(cls, n: int, coeffs) -> "Cyclotomic":
        """Build from phi(n) rational coefficients in the power basis."""
        from fractions import Fraction

        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != euler_phi(n):
            raise ValueError("expected %d coefficients for order %d" % (euler_phi(n), n))
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        num = tuple(int(f * den) for f in fracs)
        return cls(n, den, num)

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        return self._n

    def _nonzero(self) -> tuple[tuple[int, int], ...]:
        # (i, c) for each nonzero coefficient, listed on first use: shared
        # values pay for it once across every dot they enter.
        try:
            return self._terms
        except AttributeError:
            self._terms = tuple((i, c) for i, c in enumerate(self._num) if c)
            return self._terms

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._num)

    def is_rational(self) -> bool:
        # The stored residue is canonical in the power basis, so a value is
        # rational exactly when its non-constant coefficients vanish.
        return not any(self._num[1:])

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction, or None when it is irrational."""
        from fractions import Fraction

        if not self.is_rational():
            return None
        return Fraction(self._num[0], self._den)

    def as_integer(self) -> int:
        if self._den != 1 or not self.is_rational():
            raise ValueError("value is not a rational integer: %s" % self)
        return self._num[0]

    # -- order promotion ----------------------------------------------

    def _num_at(self, m: int) -> tuple[int, ...]:
        # The numerator promoted to Q(zeta_m); m must be a multiple of the order.
        if m == self._n:
            return self._num
        if m % self._n != 0:
            raise ValueError("can only promote to a multiple of the order")
        step = m // self._n
        dense = [0] * ((len(self._num) - 1) * step + 1)
        for i, c in enumerate(self._num):
            if c:
                dense[i * step] += c
        return _reduce_dense(m, dense)

    def promote(self, m: int) -> "Cyclotomic":
        """The same value expressed in Q(zeta_m); m must be a multiple of the order."""
        if m == self._n:
            return self
        return Cyclotomic(m, self._den, self._num_at(m))

    def key(self, m: int) -> tuple[int, tuple[int, ...]]:
        """(den, num) at conductor m, a multiple of the order: among values
        whose order divides m, equal keys mean equal values."""
        return self._den, self._num_at(m)

    def _match(self, other: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        if self._n == other._n:
            return self, other
        m = lcm(self._n, other._n)
        return self.promote(m), other.promote(m)

    @staticmethod
    def _coerce(value):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, int):
            return Cyclotomic.rational(value)
        import numbers  # only for a non-int operand, such as a Fraction

        if isinstance(value, numbers.Rational):
            return Cyclotomic.rational(value)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._match(o)
        den = a._den * b._den
        num = tuple(x * b._den + y * a._den for x, y in zip(a._num, b._num))
        return Cyclotomic(a._n, den, num)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self._n, self._den, tuple(-c for c in self._num))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._match(o)
        phi = len(a._num)
        dense = [0] * (2 * phi - 1 if phi > 1 else 1)
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(b._num):
                    if y:
                        dense[i + j] += x * y
        return Cyclotomic(a._n, a._den * b._den, _reduce_dense(a._n, dense))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse; raises on zero.

        x^-1 = P / N(x), where P is the product of the conjugates sigma_k(x)
        for k in (Z/n)^x, k != 1, and the norm N(x) = x * P is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        n = self._n
        if n <= 2:
            return Cyclotomic(n, self._num[0], (self._den,))
        conjugates = self.galois(n - 1)
        for k in range(2, n - 1):
            if gcd(k, n) == 1:
                conjugates = conjugates * self.galois(k)
        norm = self * conjugates
        if not norm.is_rational():
            raise AssertionError("Galois norm is not rational")
        return Cyclotomic(
            n,
            conjugates._den * norm._num[0],
            tuple(c * norm._den for c in conjugates._num),
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inv()
            exponent = -exponent
        result = Cyclotomic.rational(1)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            # Equal iff their keys at the lcm order are equal (module
            # docstring, Keys); a key's denominator is the value's own, so
            # it is compared before any numerator is promoted.
            if self._den != other._den:
                return False
            if self._n == other._n:
                return self._num == other._num
            m = lcm(self._n, other._n)
            return self._num_at(m) == other._num_at(m)
        if not isinstance(other, int):
            import numbers  # only for a non-int operand, such as a Fraction

            if not isinstance(other, numbers.Rational):
                return NotImplemented
        # Both sides are in lowest terms with a positive denominator.
        return (
            self.is_rational()
            and self._num[0] == other.numerator
            and self._den == other.denominator
        )

    # -- Galois action ------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta_n -> zeta_n^k; k must be coprime to n."""
        n = self._n
        if gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        if n <= 2:
            return self
        dense = [0] * n
        for i, c in enumerate(self._num):
            if c:
                dense[(i * k) % n] += c
        return Cyclotomic(n, self._den, _reduce_dense(n, dense))

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, the automorphism zeta -> zeta^(-1)."""
        return self.galois(self._n - 1) if self._n > 2 else self

    def abs_square(self) -> "Cyclotomic":
        """|x|^2 = x * conj(x); rational and nonnegative for every element."""
        return self * self.conj()

    # -- serialization ------------------------------------------------

    def serialize(self) -> str:
        # Each coefficient c/den in lowest terms, as str(Fraction(c, den)).
        den, parts = self._den, []
        for c in self._num:
            g = gcd(c, den)
            parts.append("%d/%d" % (c // g, den // g) if den != g else "%d" % (c // g))
        return "cyc(%d)[%s]" % (self._n, ",".join(parts))

    def __repr__(self) -> str:
        return self.serialize()


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """zeta_n^k as an element of Q(zeta_n); one shared object per (n, k mod n)."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return _root(n, k % n)


@lru_cache(maxsize=None)
def _root(n: int, k: int) -> Cyclotomic:
    dense = [0] * (k + 1)
    dense[k] = 1
    return Cyclotomic(n, 1, _reduce_dense(n, dense))


def root_sum(n: int, coeff: int, exponents) -> Cyclotomic:
    """coeff * (zeta_n^e1 + zeta_n^e2 + ...) as an element of Q(zeta_n), for
    an integer coeff and integer exponents: the exponents are accumulated
    as one histogram at n and reduced once.  One shared object per (n,
    coeff, multiset of exponents mod n)."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    return _root_sum(n, coeff, tuple(sorted([e % n for e in exponents])))


@lru_cache(maxsize=None)
def _root_sum(n: int, coeff: int, exponents: tuple[int, ...]) -> Cyclotomic:
    hist = [0] * n
    for e in exponents:
        hist[e] += coeff
    return Cyclotomic(n, 1, _reduce_dense(n, hist))


def conductor(values) -> int:
    """The lcm of the orders of values (1 for none)."""
    return lcm(*{v._n for v in values})


def dot(xs, ys, weights=None, conj: bool = False, den: int = 1) -> Cyclotomic:
    """(sum_i w_i * x_i * y_i) / den, or with conj(y_i) when conj is set,
    accumulated in exponent space and reduced once (see the module
    docstring).  weights are integers, all 1 when omitted; den is a
    positive integer.  The result has order lcm(1, every order of xs, ys)."""
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise ValueError("dot needs sequences of equal length")
    if weights is None:
        weights = (1,) * len(xs)
    m = conductor(xs + ys)
    common = lcm(*{x._den * y._den for x, y in zip(xs, ys)})
    hist = [0] * m
    for x, y, w in zip(xs, ys, weights):
        if not w:
            continue
        sx = m // x._n
        sy = -(m // y._n) if conj else m // y._n
        scale = w * (common // (x._den * y._den))
        terms = y._nonzero()
        for i, a in x._nonzero():
            a *= scale
            base = i * sx
            for j, c in terms:
                hist[(base + j * sy) % m] += a * c
    return Cyclotomic(m, common * den, _reduce_dense(m, hist))


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)

_SERIAL_RE = re.compile(r"^cyc\((\d+)\)\[(.*)\]$")


def parse(text: str) -> Cyclotomic:
    """Inverse of Cyclotomic.serialize; round-trips bit-exactly."""
    m = _SERIAL_RE.match(text.strip())
    if not m:
        raise ValueError("not a serialized cyclotomic: %r" % text)
    from fractions import Fraction

    n = int(m.group(1))
    body = m.group(2)
    coeffs = [Fraction(part) for part in body.split(",")] if body else []
    return Cyclotomic.from_coeffs(n, coeffs)
