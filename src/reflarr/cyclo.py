"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CycNum` stores a dense coefficient vector over the exponent
basis ``1, zeta, ..., zeta^(m-1)`` with the relation ``zeta^m = 1``,
kept in canonical form: reduced modulo the m-th cyclotomic polynomial
(so all coefficients at exponents >= phi(m) are zero), numerators
coprime with the (positive) common denominator.  Equality of values is
equality of canonical forms; mixed-order arithmetic lifts both operands
to the lcm of their orders.  Inversion needs no linear system: the
Galois norm of a value is rational, and dividing the product of its
other conjugates by it gives the inverse.  Linear algebra over these
scalars, subfield rewriting included, lives in :mod:`reflarr.linalg`.

``CycNum(...)`` always reduces and normalizes.  Arithmetic results are
canonical by construction and go through one raw constructor,
:func:`_make`, which fills the three slots without copying or checking.
Most operands in this package are rational, so ``*`` runs the cyclic
convolution only when both operands are irrational: an ``int`` operand,
a zero or a rational one scales the other operand's numerators, and
``+``/``-`` return the other operand for a zero one and skip the lcm of
equal denominators.  Every path gives the same canonical
``(order, num, den)`` as the convolution would.

Orders stay small here (m <= 24 for every built-in group), so the
dense representation wins on simplicity.  The inner loops (cyclic
convolution + reduction) live in :mod:`reflarr._kernel_py`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from . import _kernel_py as _kernel

KERNEL = "python"  # reported in CLI and benchmark records

_mul_reduce = _kernel.mul_reduce
_poly_reduce = _kernel.poly_reduce


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("order must be positive")
    # divide x^m - 1 by every Phi_d with d | m, d < m
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, cyclotomic_poly(d))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (den monic, remainder zero)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for k in range(dd + 1):
                num[i - dd + k] -= c * den[k]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 1:
        return tuple(num), 1
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    g = den
    for c in num:
        if c:
            g = gcd(g, c)
            if g == 1:
                break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if not any(num):
        den = 1
    return tuple(num), den


class CycNum:
    """An element of Q(zeta_m), exact and immutable."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num, den: int = 1):
        if order < 1:
            raise ValueError("order must be a positive integer")
        num = list(num)
        if len(num) > order:
            folded = [0] * order
            for k, c in enumerate(num):
                folded[k % order] += c
            num = folded
        elif len(num) < order:
            num = num + [0] * (order - len(num))
        _poly_reduce(num, order, cyclotomic_poly(order))
        num, den = _normalize(num, den)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(value) -> "CycNum":
        if type(value) is int:
            return _make(1, (value,), 1)
        f = Fraction(value)
        return _make(1, (f.numerator,), f.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "CycNum":
        num = [0] * m
        num[k % m] = 1
        return CycNum(m, num)

    @staticmethod
    def zero(m: int = 1) -> "CycNum":
        return _make(m, (0,) * m, 1)

    @staticmethod
    def one(m: int = 1) -> "CycNum":
        return _make(m, (1,) + (0,) * (m - 1), 1)

    @staticmethod
    def from_fractions(order: int, coeffs) -> "CycNum":
        """Build from a sequence of rationals indexed by zeta exponent."""
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        num = [int(f * den) for f in fracs]
        return CycNum(order, num, den)

    # -- views -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The m canonical rational coefficients, exponent k at index k."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- order handling ----------------------------------------------

    def lift(self, new_order: int) -> "CycNum":
        """Re-express in Q(zeta_L) for a multiple L of the current order."""
        m = self.order
        if new_order == m:
            return self
        if new_order % m:
            raise ValueError("lift target must be a multiple of the order")
        if not any(self.num[1:]):  # a rational is canonical at every order
            return _make(new_order, (self.num[0],) + (0,) * (new_order - 1), self.den)
        step = new_order // m
        num = [0] * new_order
        for k, c in enumerate(self.num):
            if c:
                num[k * step] = c
        return CycNum(new_order, num, self.den)

    @staticmethod
    def _common(a: "CycNum", b: "CycNum") -> tuple["CycNum", "CycNum"]:
        if a.order == b.order:
            return a, b
        L = lcm(a.order, b.order)
        return a.lift(L), b.lift(L)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, 1)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _make(self.order, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        if type(other) is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other, self, -1)

    def __mul__(self, other):
        if type(other) is not CycNum:
            if type(other) is int:
                return _scaled(self.order, self.num, self.den, other, 1)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self, other
        m = a.order if a.order == b.order else lcm(a.order, b.order)
        if not any(a.num[1:]):  # a rational: scale b
            a, b = b, a
        elif any(b.num[1:]):  # neither rational: convolve
            if a.order != b.order:
                a, b = a.lift(m), b.lift(m)
            num = _mul_reduce(list(a.num), list(b.num), m, cyclotomic_poly(m))
            return _make(m, *_normalize(num, a.den * b.den))
        q = b.num[0]
        if not q:
            return _make(m, (0,) * m, 1)
        if a.order != m:
            a = a.lift(m)
        return _scaled(m, a.num, a.den, q, b.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse, via the Galois norm.

        N(x) = prod over a in (Z/m)^x of galois(a)(x) is rational, so
        x^-1 is the product of the conjugates other than x itself,
        divided by N(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in Q(zeta_m)")
        m = self.order
        if self.is_rational():
            p, q = self.num[0], self.den
            if p < 0:
                p, q = -p, -q
            return _make(m, (q,) + (0,) * (m - 1), p)
        rest = reduce(
            CycNum.__mul__, (self.galois(a) for a in range(2, m) if gcd(a, m) == 1)
        )
        norm = self * rest
        if not norm.is_rational():  # cannot happen in a field
            raise ArithmeticError("Galois norm is not rational")
        return _make(m, *_normalize([c * norm.den for c in rest.num], rest.den * norm.num[0]))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "CycNum":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = CycNum.one(self.order)
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        m = self.order
        num = [0] * m
        for k, c in enumerate(self.num):
            if c:
                num[(-k) % m] += c
        return CycNum(m, num, self.den)

    def galois(self, n: int) -> "CycNum":
        """The automorphism zeta_m -> zeta_m^n; requires gcd(n, m) = 1."""
        m = self.order
        if gcd(n, m) != 1:
            raise ValueError(f"galois exponent {n} not coprime to order {m}")
        num = [0] * m
        for k, c in enumerate(self.num):
            if c:
                num[(n * k) % m] += c
        return CycNum(m, num, self.den)

    def embed(self) -> complex:
        """Double-precision complex embedding, zeta_m -> exp(2 pi i / m)."""
        m = self.order
        z = 0j
        for k, c in enumerate(self.num):
            if c:
                z += c * cmath.exp(2j * cmath.pi * k / m)
        return z / self.den

    def as_root_of_unity(self) -> int | None:
        """Multiplicative order if this is a root of unity, else None."""
        if self.is_zero():
            return None
        # the torsion of Q(zeta_m)^x is the group of order lcm(2, m)
        bound = lcm(2, self.order)
        one = CycNum.one(self.order)
        p = self
        for k in range(1, bound + 1):
            if p == one:
                return k
            p = p * self
        return None

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        a, b = CycNum._common(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Rational values hash like their Fraction so that equal values
        # stored at different orders collide; irrational values are only
        # ever hashed alongside same-order peers (one field per group).
        if self.is_rational():
            if self.den == 1:
                return hash(self.num[0])  # = hash(Fraction(n, 1))
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return f"CycNum({Fraction(self.num[0], self.den)})"
        terms = []
        for k, c in enumerate(self.num):
            if c:
                f = Fraction(c, self.den)
                terms.append(f"({f})*z{self.order}^{k}" if k else f"({f})")
        return "CycNum(" + " + ".join(terms) + ")"


_new = object.__new__
_set_order = CycNum.order.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__


def _make(order: int, num: tuple, den: int) -> CycNum:
    """The CycNum with canonical parts ``(order, num, den)``, unchecked."""
    x = _new(CycNum)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _scaled(m: int, num: tuple, den: int, p: int, q: int) -> CycNum:
    """(p/q) * (num/den) at order m, for canonical num/den at order m."""
    return _make(m, *_normalize([p * c for c in num], den * q))


def _add(a: CycNum, b: CycNum, sign: int) -> CycNum:
    """a + sign*b at the lcm order, sign = 1 or -1."""
    if a.order != b.order:
        a, b = CycNum._common(a, b)
    an, bn = a.num, b.num
    if not any(bn):
        return a
    if not any(an):
        return b if sign == 1 else -b
    da, db = a.den, b.den
    if da == db:
        d = da
        num = [x + sign * y for x, y in zip(an, bn)]
    else:
        d = lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        num = [fa * x + fb * y for x, y in zip(an, bn)]
    return _make(a.order, *_normalize(num, d))


def _coerce(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.rational(x)
    return NotImplemented


# convenience literals used throughout the package
def sqrt_minus_two() -> CycNum:
    """sqrt(-2) represented in Q(zeta_8) as zeta_8 + zeta_8^3."""
    return CycNum.zeta(8, 1) + CycNum.zeta(8, 3)


def parse_literal(value, order: int = 1) -> CycNum:
    """Parse the spec-file literal syntax.

    Rationals are ints or "p/q" strings; cyclotomic values are arrays of
    ``order`` rational literals (coefficient of zeta_order^k at index k).
    A float must be an integer: 0.1, infinities and NaN are refused.
    """
    if isinstance(value, (list, tuple)):
        if len(value) != order:
            raise ValueError(
                f"cyclotomic literal needs {order} coefficients, got {len(value)}"
            )
        return CycNum.from_fractions(order, [parse_literal(v).as_fraction() for v in value])
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
        raise ValueError(f"not a rational literal: {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"float {value!r} is not an integer; write rationals as 'p/q'")
    return CycNum.rational(Fraction(value))
