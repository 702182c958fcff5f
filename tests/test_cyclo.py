import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflarr import _kernel_py, cyclo
from reflarr.cyclo import CycNum, _normalize, cyclotomic_poly, parse_literal, sqrt_minus_two
from reflarr.linalg import rewrite

ORDERS = [3, 4, 6, 8, 12, 24]


def random_cycnum(rng, m, size=6):
    coeffs = [
        Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(m)
    ]
    return CycNum.from_fractions(m, coeffs)


class TestCyclotomicPoly:
    def test_small_orders(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors_is_x_m_minus_1(self):
        for m in ORDERS:
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    phi = cyclotomic_poly(d)
                    out = [0] * (len(prod) + len(phi) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                    prod = out
            expect = [0] * (m + 1)
            expect[0], expect[m] = -1, 1
            assert prod == expect


class TestFieldOps:
    def test_zeta3_plus_zeta3_squared(self):
        z = CycNum.zeta(3)
        assert z + z * z == CycNum.rational(-1)

    def test_invert_zeta8(self):
        assert CycNum.zeta(8).inverse() == CycNum.zeta(8, 7)

    def test_sqrt_minus_two_product(self):
        r = sqrt_minus_two()
        prod = (1 + r) * (1 - r)
        assert prod == CycNum.rational(3)
        assert abs(prod.embed() - 3) < 1e-12
        assert abs(r.embed() ** 2 + 2) < 1e-12

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CycNum.zero(4).inverse()
        with pytest.raises(ZeroDivisionError):
            CycNum.one(4) / CycNum.zero(4)

    def test_mixed_order_arithmetic_lifts(self):
        a = CycNum.zeta(3)
        b = CycNum.zeta(4)
        s = a * b
        assert s.order == 12
        assert s == CycNum.zeta(12, 7)

    def test_conjugate_involution_and_multiplicativity(self):
        rng = random.Random(7)
        for m in ORDERS:
            a = random_cycnum(rng, m)
            b = random_cycnum(rng, m)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @pytest.mark.parametrize("m", ORDERS + [5, 9, 10, 15, 20])
    def test_field_axioms_on_random_triples(self, m):
        rng = random.Random(m)
        one = CycNum.one(m)
        for _ in range(500):
            a, b, c = (random_cycnum(rng, m, 4) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == one

    def test_canonical_form_idempotent(self):
        rng = random.Random(3)
        for m in ORDERS:
            x = random_cycnum(rng, m) * random_cycnum(rng, m)
            again = CycNum(x.order, list(x.num), x.den)
            assert again.num == x.num and again.den == x.den
            assert all(c == 0 for c in x.num[len(cyclotomic_poly(m)) - 1 :])


class TestRootsOfUnity:
    def test_minus_one(self):
        assert CycNum.rational(-1).as_root_of_unity() == 2

    def test_zeta6(self):
        assert CycNum.zeta(6).as_root_of_unity() == 6

    def test_one_plus_zeta3(self):
        # 1 + zeta_3 = -zeta_3^2, of order 6 (checked by brute-force powers)
        x = 1 + CycNum.zeta(3)
        assert x == -(CycNum.zeta(3) ** 2)
        one = CycNum.one(3)
        orders = [k for k in range(1, 13) if x**k == one]
        assert x.as_root_of_unity() == min(orders) == 6

    def test_non_root(self):
        assert CycNum.rational(2).as_root_of_unity() is None
        assert (CycNum.zeta(8) + 1).as_root_of_unity() is None

    def test_zero(self):
        assert CycNum.zero(5).as_root_of_unity() is None


class TestGalois:
    def test_on_zeta3(self):
        assert CycNum.zeta(3).galois(2) == CycNum.zeta(3, 2)

    def test_additivity(self):
        a = 1 + CycNum.zeta(5)
        assert a.galois(2) == 1 + CycNum.zeta(5, 2)

    def test_sqrt_minus_two_under_odd_exponents(self):
        # zeta_8 + zeta_8^3 is fixed by 3 (zeta_8^9 = zeta_8) and negated by 5, 7
        r = sqrt_minus_two()
        assert r.galois(3) == r
        assert r.galois(5) == -r
        assert r.galois(7) == -r

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            CycNum.zeta(8).galois(2)

    def test_identity_and_group_law(self):
        rng = random.Random(11)
        for m in ORDERS:
            a = random_cycnum(rng, m)
            assert a.galois(1) == a
            units = [n for n in range(1, m) if gcd(n, m) == 1]
            for n in units:
                for k in units:
                    assert a.galois(n).galois(k) == a.galois((n * k) % m)

    def test_commutes_with_arithmetic(self):
        rng = random.Random(13)
        for m in ORDERS:
            a, b = random_cycnum(rng, m), random_cycnum(rng, m)
            units = [n for n in range(1, m) if gcd(n, m) == 1]
            for n in units:
                assert (a + b).galois(n) == a.galois(n) + b.galois(n)
                assert (a * b).galois(n) == a.galois(n) * b.galois(n)

    def test_permutes_roots_of_unity_faithfully(self):
        for m in ORDERS:
            units = [n for n in range(1, m) if gcd(n, m) == 1]
            powers = [CycNum.zeta(m, k) for k in range(m)]
            seen = set()
            for n in units:
                images = tuple(powers.index(CycNum.zeta(m).galois(n)) for _ in [0])
                perm = tuple(powers.index(p.galois(n)) for p in powers)
                assert sorted(perm) == list(range(m))
                seen.add(perm)
            assert len(seen) == len(units)


class TestEmbed:
    def test_one_and_i(self):
        assert CycNum.one().embed() == 1
        assert abs(CycNum.zeta(4).embed() - 1j) < 1e-15

    def test_multiplicative_within_tolerance(self):
        rng = random.Random(5)
        for m in ORDERS:
            for _ in range(20):
                a, b = random_cycnum(rng, m), random_cycnum(rng, m)
                assert abs((a * b).embed() - a.embed() * b.embed()) <= 1e-10

    def test_conjugate_matches_complex_conjugate(self):
        rng = random.Random(17)
        for _ in range(100):
            m = rng.choice(ORDERS)
            a = random_cycnum(rng, m)
            assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-10


class TestRewrite:
    def test_descend_rational(self):
        x = CycNum.zeta(3) + CycNum.zeta(3, 2)  # equals -1
        assert rewrite(x, 1) == CycNum.rational(-1)

    def test_descend_subfield(self):
        # zeta_8 + zeta_8^3 lies in Q(zeta_8), sqrt(-2) has conductor 8
        r = sqrt_minus_two().lift(24)
        back = rewrite(r, 8)
        assert back.order == 8 and back == sqrt_minus_two()

    def test_rejects_outside_subfield(self):
        with pytest.raises(ValueError):
            rewrite(CycNum.zeta(8), 4)


class TestLiterals:
    def test_rational_string(self):
        assert parse_literal("3/4") == CycNum.rational(Fraction(3, 4))

    def test_cyclotomic_array(self):
        v = parse_literal([0, 1, 0], order=3)
        assert v == CycNum.zeta(3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            parse_literal([1, 0], order=3)

    @pytest.mark.parametrize("value", [0.1, float("inf"), float("nan")])
    def test_inexact_float_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="float"):
            parse_literal(value)

    def test_integral_float_parses(self):
        assert parse_literal(2.0) == CycNum.rational(2)


class TestHash:
    """a == b implies hash(a) == hash(b), for values of one order and for
    rationals at any orders (the invariant CycNum.__hash__ relies on)."""

    @given(
        m=st.sampled_from([1, 2] + ORDERS),
        coeffs=st.lists(st.integers(-3, 3), min_size=24, max_size=24),
        shift=st.lists(st.integers(-2, 2), min_size=24, max_size=24),
        den=st.integers(1, 4),
        scale=st.integers(1, 3),
    )
    def test_same_order(self, m, coeffs, shift, den, scale):
        a = CycNum(m, coeffs[:m], den)
        # the same value, written with a multiple of Phi_m added and the
        # fraction unreduced
        num = coeffs[:m] + [0] * m
        for k, s in enumerate(shift[:m]):
            for j, p in enumerate(cyclotomic_poly(m)):
                num[k + j] += s * p
        b = CycNum(m, [scale * c for c in num], scale * den)
        assert a == b and hash(a) == hash(b)
        c = CycNum(m, shift[:m], 1)
        if a == c:
            assert hash(a) == hash(c)

    @given(
        q=st.fractions(max_denominator=50),
        n=st.integers(-(2**70), 2**70),
        m1=st.sampled_from([1, 2] + ORDERS),
        m2=st.sampled_from([1, 2] + ORDERS),
    )
    def test_rationals_across_orders(self, q, n, m1, m2):
        a = CycNum.rational(q).lift(m1)
        b = CycNum.rational(q).lift(m2) * CycNum.one(m1)
        assert a == b and hash(a) == hash(b) == hash(q)
        # integer values take the hash(int) path, which must agree with
        # both int and Fraction
        assert hash(CycNum.rational(q)) == hash(q)
        c = CycNum.rational(n)
        assert hash(c) == hash(c.lift(m1)) == hash(n) == hash(Fraction(n))


class TestFastPaths:
    """Every arithmetic fast path gives the triple of the exact path:
    lift both operands to the lcm order, convolve and reduce (or add over
    the lcm of the denominators), normalize."""

    FAST_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 20, 24)
    SCALARS = (0, 1, -1, 3, Fraction(0), Fraction(-3, 4), Fraction(5), Fraction(7, 2))

    @staticmethod
    def _lifted(x, order):
        step = order // x.order
        num = [0] * order
        for k, c in enumerate(x.num):
            num[k * step] = c
        return _kernel_py.poly_reduce(num, order, cyclotomic_poly(order)), x.den

    @classmethod
    def _reference(cls, op, x, y):
        m = lcm(x.order, y.order)
        (a, da), (b, db) = cls._lifted(x, m), cls._lifted(y, m)
        if op == "*":
            num, den = _kernel_py.mul_reduce(a, b, m, cyclotomic_poly(m)), da * db
        else:
            den = lcm(da, db)
            sign = 1 if op == "+" else -1
            num = [den // da * u + sign * (den // db) * v for u, v in zip(a, b)]
        num, den = _normalize(num, den)
        return m, num, den

    @classmethod
    def _operands(cls, m, rng):
        """Zero, one, an integer, a rational, a root of unity, two general values."""
        ops = [CycNum.zero(m), CycNum.one(m), CycNum.rational(-4).lift(m),
               CycNum.rational(Fraction(5, 6)).lift(m), CycNum.zeta(m, m // 2 + 1)]
        ops += [random_cycnum(rng, m, 5) for _ in range(2)]
        return ops

    @staticmethod
    def _check(got, ref):
        assert (got.order, got.num, got.den) == ref
        assert hash(got) == hash(CycNum(*ref))

    @staticmethod
    def _kind(x):
        return "zero" if x.is_zero() else "rational" if x.is_rational() else "irrational"

    def test_binary_ops_match_the_exact_path(self):
        rng = random.Random(11)
        values = [x for m in self.FAST_ORDERS for x in self._operands(m, rng)]
        seen = set()
        for x in values:
            for y in values:
                for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
                    self._check(got, self._reference(op, x, y))
                seen.add((self._kind(x), self._kind(y), x.order == y.order))
        kinds = ("zero", "rational", "irrational")
        assert seen == {(a, b, same) for a in kinds for b in kinds for same in (True, False)}

    def test_scalar_operands_match_the_exact_path(self):
        rng = random.Random(12)
        for m in self.FAST_ORDERS:
            for x in self._operands(m, rng):
                for c in self.SCALARS:
                    r = CycNum.rational(c)
                    ref = self._reference("*", r, x)
                    for got in (c * x, x * c):
                        self._check(got, ref)
                    self._check(x + c, self._reference("+", x, r))
                    self._check(c - x, self._reference("-", r, x))
                    self._check(x - c, self._reference("-", x, r))
                    if c:
                        inverse = CycNum.rational(1 / Fraction(c))
                        self._check(x / c, self._reference("*", x, inverse))

    def test_results_skip_the_reduction(self, monkeypatch):
        calls = []

        def counting(vec, m, phi):
            calls.append(m)
            return _kernel_py.poly_reduce(vec, m, phi)

        def refused(*args):
            raise AssertionError("convolution on a rational operand")

        x = random_cycnum(random.Random(13), 12)
        y = CycNum.rational(Fraction(-2, 3))
        monkeypatch.setattr(cyclo, "_poly_reduce", counting)
        monkeypatch.setattr(cyclo, "_mul_reduce", refused)
        results = [
            x * y, y * x, x * y.lift(12), x * 3, 3 * x, x * Fraction(1, 5), x * 0,
            x * CycNum.zero(4), x + y, x - y, y - x, x + 0, 0 - x, -x,
            x + x, x - x, y.inverse(), x / y, x / 2, y.lift(24),
            CycNum.zero(12), CycNum.one(12), CycNum.rational(Fraction(3, 9)),
        ]
        assert calls == []
        for r in results:  # canonical: the reducing constructor leaves them as they are
            again = CycNum(r.order, r.num, r.den)
            assert (r.order, r.num, r.den) == (again.order, again.num, again.den)


def test_cyclo_does_not_import_linalg():
    # the scalar layer stands below linear algebra: no elimination in it
    code = "import sys, reflarr.cyclo; print('reflarr.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
