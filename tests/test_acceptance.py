"""End-to-end acceptance checks, one test per shipped claim.

Each test is self-contained apart from the shared catalog fixture and
prints as a single pass/fail line under pytest -v.  Stated time
budgets are asserted, not just hoped for.
"""

import cmath
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from reflarr.arrangement import Arrangement, poly_divisible, poly_mul
from reflarr.catalog import (
    GroupSpec,
    build,
    g12_invariant_form,
    g12_vector_table,
    imprimitive_order,
)
from reflarr.cyclo import CycNum
from reflarr.kappa import a_indices, kappa_formula
from reflarr.linalg import dot, is_semisimple, nullspace, proportionality
from reflarr.monodromy import (
    braided_reflection_path,
    central_loop,
    default_basepoint,
    loop_around,
    monodromy_matrix,
    straight_path_to,
)
from reflarr.quadmap import build_phi, equivariance_defect, is_surjective
from reflarr.repfamily import (
    check_periodicity,
    chi,
    coxeter_sign_model,
    g4_table_check,
    galois_check,
    inner_product,
    kernel_of_Rn,
    restriction_check,
    trivial_character,
)

CATALOG = {
    "A2": GroupSpec.coxeter("A", 2),
    "A3": GroupSpec.coxeter("A", 3),
    "A4": GroupSpec.coxeter("A", 4),
    "B2": GroupSpec.coxeter("B", 2),
    "B3": GroupSpec.coxeter("B", 3),
    "B4": GroupSpec.coxeter("B", 4),
    "D4": GroupSpec.coxeter("D", 4),
    "I2(5)": GroupSpec.coxeter("I2", 5),
    "I2(6)": GroupSpec.coxeter("I2", 6),
    "G(3,1,2)": GroupSpec.imprimitive(3, 1, 2),
    "G(4,2,2)": GroupSpec.imprimitive(2, 2, 2),
    "G(3,3,3)": GroupSpec.imprimitive(1, 3, 3),
    "G4": GroupSpec.exceptional(4),
    "G12": GroupSpec.exceptional(12),
}

# B3 doubles as the monomial group G(2,1,3) with real root data
SIGNED_CUBE_3 = "B3"


@pytest.fixture(scope="module")
def cat():
    return {label: build(spec) for label, spec in CATALOG.items()}


@pytest.fixture(scope="module")
def imprimitive_sweep():
    """All monomial-family members with small parameters, timed."""
    t0 = time.monotonic()
    rows = []
    for d in range(1, 7):
        for e in range(1, 7):
            if d * e > 6:
                continue
            for r in (2, 3):
                try:
                    expected = kappa_formula(d, e, r)
                except ValueError:
                    continue
                if imprimitive_order(d, e, r) > 10_000:
                    continue
                built = build(GroupSpec.imprimitive(d, e, r))
                rows.append(
                    (d, e, r, a_indices(built.group, built.arrangement), expected)
                )
    return rows, time.monotonic() - t0


def _point_on_exactly(a, i):
    """Exact-coordinate point lying on hyperplane i and no other."""
    ker = nullspace([list(a.hyperplanes[i].alpha)], a.dim)
    for coeffs in itertools.product(range(-4, 5), repeat=len(ker)):
        if not any(coeffs):
            continue
        v = [CycNum.zero()] * a.dim
        for c, k in zip(coeffs, ker):
            if c:
                v = [x + CycNum.rational(c) * y for x, y in zip(v, k)]
        on = [j for j, h in enumerate(a.hyperplanes) if dot(h.alpha, v).is_zero()]
        if on == [i]:
            return tuple(v)
    raise AssertionError("no point on exactly this hyperplane")


def test_smallest_exceptional_index_orders(cat):
    t0 = time.monotonic()
    g4 = cat["G4"]
    assert a_indices(g4.group, g4.arrangement).kappa == 6
    assert time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    g12 = cat["G12"]
    assert a_indices(g12.group, g12.arrangement).kappa == 2
    assert time.monotonic() - t0 < 5.0


def test_monomial_family_index_law(imprimitive_sweep):
    rows, elapsed = imprimitive_sweep
    assert len(rows) >= 20
    for d, e, r, rep, expected in rows:
        assert rep.kappa == expected, (d, e, r)
    assert elapsed < 60.0


def test_index_sets_are_divisor_sets(imprimitive_sweep, cat):
    reports = [rep for *_, rep, _ in imprimitive_sweep[0]]
    for label in ("G4", "G12"):
        b = cat[label]
        reports.append(a_indices(b.group, b.arrangement))
    for rep in reports:
        divisors = {k for k in range(1, rep.kappa + 1) if rep.kappa % k == 0}
        assert set(rep.indices) == divisors


def test_squares_map_rank(cat):
    for label, b in cat.items():
        arr = b.arrangement
        if not arr.irreducibility().irreducible or len(arr) > 30:
            continue
        surjective, r = is_surjective(build_phi(arr))
        assert surjective, label
        assert r == arr.dim * (arr.dim + 1) // 2
    # reducible groups land strictly below full rank
    for gens, dim in [
        ([[[-1, 0], [0, 1]], [[1, 0], [0, -1]]], 2),
        (
            [
                [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
            ],
            3,
        ),
    ]:
        spec = GroupSpec.from_json(
            {
                "kind": "explicit",
                "dim": dim,
                "cyclotomic_order": 1,
                "generators": gens,
            }
        )
        b = build(spec)
        assert not b.arrangement.irreducibility().irreducible
        surjective, r = is_surjective(build_phi(b.arrangement))
        assert not surjective and r < dim * (dim + 1) // 2
    # five planes in rank 3: full-looking but one short of surjective
    arr = Arrangement.from_covectors(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [0, 1, -1]]
    )
    p = build_phi(arr)
    assert p.dim_s2 == 6 and p.rank() == 5
    assert arr.poincare_polynomial() == poly_mul([1, 1], [1, 4, 4])


def test_hyperplane_count_bound(cat):
    equality_labels = {"A2", "A3", "A4"}
    seen_equality = set()
    for label, b in cat.items():
        arr = b.arrangement
        if not arr.irreducibility().irreducible:
            continue
        n = arr.dim
        assert len(arr) >= n * (n + 1) // 2, label
        if len(arr) == n * (n + 1) // 2:
            seen_equality.add(label)
    assert seen_equality == equality_labels


def test_smallest_exceptional_decomposition_table(cat):
    t0 = time.monotonic()
    assert g4_table_check(cat["G4"])
    g, arr = cat["G4"].group, cat["G4"].arrangement
    u = chi(g, arr, 0) - trivial_character(g)
    assert inner_product(u, u) == CycNum.one()
    assert check_periodicity(g, arr) == 6
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("label", ["G4", "G12", "G(3,1,2)", SIGNED_CUBE_3])
def test_kernel_description(cat, label):
    b = cat[label]
    g, arr = b.group, b.arrangement
    kappa = a_indices(g, arr).kappa
    # kernel_of_Rn raises if it ever disagrees with the central rule
    assert kernel_of_Rn(g, arr, 0) == tuple(sorted(g.center))
    assert kernel_of_Rn(g, arr, 1) == (g.identity_index,)
    for n in range(2, kappa + 1):
        kernel_of_Rn(g, arr, n)


def test_parabolic_restriction(cat):
    # one-hyperplane fixer in the rank-3 symmetric-group model
    b = cat["A3"]
    v = _point_on_exactly(b.arrangement, 0)
    assert b.group.parabolic_fixer(v).order == 2
    assert restriction_check(b.group, b.arrangement, v)
    # order-3 fixer in the smallest exceptional group
    b = cat["G4"]
    v = _point_on_exactly(b.arrangement, 0)
    assert b.group.parabolic_fixer(v).order == 3
    assert restriction_check(b.group, b.arrangement, v)
    # two fixer choices in the signed-permutation cube group
    b = cat[SIGNED_CUBE_3]
    arr = b.arrangement
    coord = next(
        i
        for i, h in enumerate(arr.hyperplanes)
        if sum(1 for x in h.alpha if not x.is_zero()) == 1
    )
    mixed = next(
        i
        for i, h in enumerate(arr.hyperplanes)
        if sum(1 for x in h.alpha if not x.is_zero()) > 1
    )
    for i in (coord, mixed):
        assert restriction_check(b.group, arr, _point_on_exactly(arr, i))


@pytest.mark.parametrize("label", ["G4", "G12", "G(3,1,2)", SIGNED_CUBE_3])
def test_galois_layer(cat, label):
    from math import gcd

    b = cat[label]
    kappa = a_indices(b.group, b.arrangement).kappa
    tested = 0
    for n in range(1, kappa + 1):
        if gcd(n, kappa) == 1 and n < max(kappa, 2):
            assert galois_check(b.group, b.arrangement, n)
            tested += 1
    assert tested >= 1


def test_real_sign_model(cat):
    for label in ("A2", "A3", "B2", SIGNED_CUBE_3, "D4"):
        b = cat[label]
        g, arr = b.group, b.arrangement
        rep = coxeter_sign_model(b)
        chi1, chi0 = chi(g, arr, 1), chi(g, arr, 0)
        assert rep.character().values == chi1.values, label
        assert chi1.values != chi0.values, label
        # a reflection flips exactly its own wall: the trace drops by 2
        s = arr.hyperplanes[0].distinguished_reflection
        drop = rep.matrix_of(s).trace() - chi0.at(s)
        assert drop == CycNum.rational(-2), label
    norms = {
        # (label, n) -> <chi_n, chi_n>; the hyperplane-orbit pair counts
        ("A3", 0): 3,
        ("A4", 0): 3,
        (SIGNED_CUBE_3, 0): 9,
        ("B4", 0): 10,
        ("A3", 1): 2,
        ("A4", 1): 2,
        (SIGNED_CUBE_3, 1): 5,
        ("B4", 1): 5,
    }
    for (label, n), expected in norms.items():
        b = cat[label]
        f = chi(b.group, b.arrangement, n)
        assert inner_product(f, f) == CycNum.rational(expected), (label, n)


def test_rank_two_signed_vector_model(cat):
    b = cat["G12"]
    g, arr = b.group, b.arrangement
    f = g.invariant_hermitian_form
    ordered = [None] * len(arr)
    vectors = list(g12_vector_table().values())
    for vec in vectors:
        conj = tuple(x.conjugate() for x in vec)
        alpha = tuple(f.transpose().matvec(conj))
        js = [
            j
            for j, h in enumerate(arr.hyperplanes)
            if proportionality(alpha, h.alpha) is not None
        ]
        assert len(js) == 1
        ordered[js[0]] = alpha
    assert all(al is not None for al in ordered)
    rep = equivariance_defect(build_phi(arr, ordered), g)
    assert rep.equivariant
    assert rep.sum_of_squares_zero
    # the printed invariant form is the computed one up to positive scale
    flat_f = [x for row in f.rows for x in row]
    flat_a = [x for row in g12_invariant_form().rows for x in row]
    c = proportionality(flat_f, flat_a)
    assert c is not None and c.as_fraction() > 0
    # generators act on the 12 vectors by signed permutations
    signs = (CycNum.one(8), CycNum.rational(-1).lift(8))
    for gen in g.generators:
        for v in vectors:
            img = gen.matvec(v)
            matches = [
                proportionality(img, u)
                for u in vectors
                if proportionality(img, u) is not None
            ]
            assert len(matches) == 1 and matches[0] in signs


def test_numeric_monodromy(cat):
    t0 = time.monotonic()
    two_pi_i = 2j * cmath.pi
    for label in ("B2", "G4"):
        b = cat[label]
        g, arr = b.group, b.arrangement
        z = default_basepoint(arr, seed=0)
        tr = loop_around(arr, 0, z)
        winding = tr.integrals / two_pi_i
        assert abs(winding[0] - 1) < 1e-6
        assert all(abs(w) < 1e-6 for w in winding[1:])
        br = braided_reflection_path(arr, 0, z)
        d = arr.hyperplanes[0].d
        m = monodromy_matrix(arr, br, 1.0)
        assert abs(m[0, 0] - cmath.exp(two_pi_i / d)) < 1e-6
        rng = random.Random(17)
        chis = {h: chi(g, arr, h) for h in (0, 1, 2)}
        for _ in range(20):
            wi = rng.randrange(g.order)
            path = straight_path_to(arr, wi, z)
            for h in (0, 1, 2):
                t = np.trace(monodromy_matrix(arr, path, h))
                assert abs(t - chis[h].at(wi).embed()) < 1e-5
    g4 = cat["G4"]
    z = default_basepoint(g4.arrangement, seed=0)
    minus = next(
        i for i in g4.group.center if i != g4.group.identity_index
    )
    tr = central_loop(g4.arrangement, z, cmath.pi, endpoint_element=minus)
    m = monodromy_matrix(g4.arrangement, tr, 1.0)
    assert np.allclose(m, -np.eye(len(g4.arrangement)), atol=1e-6)
    assert time.monotonic() - t0 < 30.0


def test_exact_property_suites(cat):
    t0 = time.monotonic()
    # field axioms on random cyclotomic triples
    rng = random.Random(20)

    def rand_cyc(m):
        acc = CycNum.zero(m)
        for k in range(m):
            q = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            acc = acc + CycNum.rational(q) * CycNum.zeta(m, k)
        return acc

    one, zero = CycNum.one(), CycNum.zero()
    for m in (1, 2, 3, 4, 5, 12):
        for _ in range(500):
            a, b, c = rand_cyc(m), rand_cyc(m), rand_cyc(m)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            assert (a - a).is_zero()
            if not a.is_zero():
                assert a * a.inverse() == one
    # every element of every catalog group is semisimple
    for b in cat.values():
        for w in b.group.elements:
            assert is_semisimple(w)
    # Poincare polynomial: multiplicative over products, (1+t) divides
    b2 = [[1, 0], [0, 1], [1, 1], [1, -1]]
    a2 = [[1, 0], [0, 1], [1, -1]]
    for left, right in [(b2, [[1]]), (a2, b2)]:
        lp = Arrangement.from_covectors(left).poincare_polynomial()
        rp = Arrangement.from_covectors(right).poincare_polynomial()
        ncols = len(left[0]) + len(right[0])
        prod = [
            row + [0] * len(right[0]) for row in left
        ] + [[0] * len(left[0]) + row for row in right]
        assert Arrangement.from_covectors(prod, dim=ncols).poincare_polynomial() == poly_mul(lp, rp)
    for label, b in cat.items():
        if b.arrangement.dim > 3:
            continue
        poly = b.arrangement.poincare_polynomial()
        assert poly_divisible(poly, [1, 1]), label
    assert time.monotonic() - t0 < 60.0
