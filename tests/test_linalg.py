import itertools
import random
from fractions import Fraction

import pytest

from reflarr.cyclo import CycNum
from reflarr.linalg import (
    Matrix,
    dot,
    hermitian_product,
    is_semisimple,
    minimal_polynomial,
    normalize_first_nonzero,
    nullspace,
    poly_gcd,
    proportionality,
    rank,
    rref,
    solve,
)


def rand_matrix(rng, n, m_order=1):
    return Matrix(
        [
            [
                CycNum.from_fractions(
                    m_order, [Fraction(rng.randint(-3, 3)) for _ in range(m_order)]
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_identity_and_mul():
    i3 = Matrix.identity(3)
    assert i3.is_identity()
    rng = random.Random(1)
    a = rand_matrix(rng, 3)
    assert a * i3 == a and i3 * a == a


def test_inverse_roundtrip():
    rng = random.Random(2)
    for m_order in (1, 3, 8):
        for _ in range(10):
            a = rand_matrix(rng, 3, m_order)
            if a.det().is_zero():
                continue
            assert (a * a.inverse()).is_identity()


def test_det_multiplicative():
    rng = random.Random(3)
    a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
    assert (a * b).det() == a.det() * b.det()


def leibniz_det(a):
    """Reference determinant: the signed sum over all permutations."""
    n = a.dim
    total = CycNum.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = CycNum.rational(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i, j]
        total = total + term
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_det_matches_leibniz_over_zeta8(n):
    rng = random.Random(n)
    cases = [rand_matrix(rng, n, 8) for _ in range(12)]
    for a in list(cases[:4]):
        rows = [list(r) for r in a.rows]
        # a zero leading entry forces a row swap
        rows[0][0] = CycNum.zero(8)
        cases.append(Matrix(rows))
        # repeated rows: singular
        cases.append(Matrix(rows[:-1] + [rows[0]]))
        # a row that is a zeta_8 multiple of another: singular
        cases.append(Matrix(rows[:-1] + [[CycNum.zeta(8, 3) * x for x in rows[1]]]))
    assert any(c.det().is_zero() for c in cases)
    assert any(c[0, 0].is_zero() and not c.det().is_zero() for c in cases)
    for a in cases:
        assert a.det() == leibniz_det(a)


def test_singular_inverse_raises():
    a = Matrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        a.inverse()


def test_rank_and_nullspace():
    rows = [
        [CycNum.rational(1), CycNum.rational(2), CycNum.rational(3)],
        [CycNum.rational(2), CycNum.rational(4), CycNum.rational(6)],
        [CycNum.rational(0), CycNum.rational(1), CycNum.rational(1)],
    ]
    assert rank(rows) == 2
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    for row in rows:
        assert dot(row, ns[0]).is_zero()


def test_rref_canonical_idempotent():
    rng = random.Random(4)
    a = rand_matrix(rng, 4)
    r1, p1 = rref(a.rows)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


def test_solve_consistent_and_inconsistent():
    rows = [[1, 1], [1, -1]]
    rows = [[CycNum.rational(x) for x in r] for r in rows]
    x = solve(rows, [CycNum.rational(3), CycNum.rational(1)])
    assert x == (CycNum.rational(2), CycNum.rational(1))
    bad = [[CycNum.rational(1), CycNum.rational(1)]] * 2
    assert solve(bad, [CycNum.rational(0), CycNum.rational(1)]) is None


def test_proportionality():
    u = (CycNum.rational(2), CycNum.rational(4))
    v = (CycNum.rational(1), CycNum.rational(2))
    assert proportionality(u, v) == CycNum.rational(2)
    w = (CycNum.rational(1), CycNum.rational(3))
    assert proportionality(u, w) is None


def test_normalize_first_nonzero():
    v = (CycNum.zero(), CycNum.rational(-2), CycNum.rational(4))
    n = normalize_first_nonzero(v)
    assert n[1] == CycNum.one() and n[2] == CycNum.rational(-2)
    assert normalize_first_nonzero((CycNum.zero(),)) is None


def test_hermitian_product_sesquilinear():
    form = Matrix.identity(2)
    z = CycNum.zeta(4)
    u = (z, CycNum.one())
    v = (CycNum.one(), z)
    # (u|v) = conj(i)*1 + 1*i = -i + i = 0
    assert hermitian_product(form, u, v).is_zero()
    assert hermitian_product(form, u, u) == CycNum.rational(2)


def test_minimal_polynomial_of_reflection():
    # diag(1, -1): minpoly (x-1)(x+1), squarefree
    m = Matrix([[1, 0], [0, -1]])
    p = minimal_polynomial(m)
    assert p == [CycNum.rational(-1), CycNum.zero(), CycNum.one()]
    assert is_semisimple(m)


def test_non_semisimple_detected():
    jordan = Matrix([[1, 1], [0, 1]])
    assert not is_semisimple(jordan)
    assert minimal_polynomial(jordan) == [
        CycNum.one(),
        CycNum.rational(-2),
        CycNum.one(),
    ]


def test_poly_gcd():
    one = CycNum.one()
    # gcd(x^2-1, x-1) = x-1 (monic)
    g = poly_gcd([-one, CycNum.zero(), one], [-one, one])
    assert g == [-one, one]
