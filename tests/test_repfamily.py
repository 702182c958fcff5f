import itertools

import pytest

from reflarr import repfamily
from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build
from reflarr.cyclo import CycNum
from reflarr.linalg import Matrix, dot, nullspace, proportionality, vec_sum
from reflarr.repfamily import (
    ClassFunction,
    check_periodicity,
    chi,
    coxeter_sign_model,
    g4_table_check,
    galois_check,
    inner_product,
    kernel_of_Rn,
    matrix_character,
    restriction_check,
    trivial_character,
)
from test_root_action import GROUPS


@pytest.fixture(scope="module")
def g4():
    return build(GroupSpec.exceptional(4))


@pytest.fixture(scope="module")
def g12():
    return build(GroupSpec.exceptional(12))


@pytest.fixture(scope="module")
def a3():
    return build(GroupSpec.coxeter("A", 3))


@pytest.fixture(scope="module")
def b3():
    return build(GroupSpec.coxeter("B", 3))


def _vector_on_only(arr, k):
    h = arr.hyperplanes[k]
    basis = nullspace([list(h.alpha)], arr.dim)
    for coeffs in itertools.product(range(-3, 4), repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        v = tuple(
            sum((CycNum.rational(c) * b for c, b in zip(coeffs, col)), CycNum.zero())
            for col in zip(*basis)
        )
        if not any(
            dot(hh.alpha, v).is_zero()
            for j, hh in enumerate(arr.hyperplanes)
            if j != k
        ):
            return v
    raise AssertionError("no generic vector found on the hyperplane")


def _chi_at(g, arr, w, n):
    """chi_n at a single element, straight from the definition."""
    acc = CycNum.zero()
    for h in arr.hyperplanes:
        z = proportionality(w.matvec(h.root), h.root)
        if z is not None:
            acc = acc + z**n
    return acc


class TestChi:
    def test_chi0_at_identity(self, g4, a3):
        for built in (g4, a3):
            f = chi(built.group, built.arrangement, 0)
            assert f.at(built.group.identity_index) == CycNum.rational(
                len(built.arrangement)
            )

    def test_chi0_counts_fixed_hyperplanes(self, g4):
        g, arr = g4.group, g4.arrangement
        f = chi(g, arr, 0)
        for i in (0, 1, 5, 11):
            fixed = sum(
                1
                for h in arr.hyperplanes
                if proportionality(g.elements[i].matvec(h.root), h.root) is not None
            )
            assert f.at(i) == CycNum.rational(fixed)

    def test_g4_central_element(self, g4):
        g, arr = g4.group, g4.arrangement
        z = next(i for i in g.center if i != g.identity_index)
        assert g.element_order(z) == 2
        for n in range(7):
            assert chi(g, arr, n).at(z) == CycNum.rational((-1) ** n * 4)

    def test_central_scalar_rule(self):
        # center of G(3,1,2) acts by cube-root scalars
        built = build(GroupSpec.imprimitive(3, 1, 2))
        g, arr = built.group, built.arrangement
        assert len(g.center) == 3
        for i in g.center:
            lam = g.elements[i].rows[0][0]
            for n in range(4):
                assert chi(g, arr, n).at(i) == lam**n * CycNum.rational(len(arr))

    def test_negative_n(self, g4):
        g, arr = g4.group, g4.arrangement
        # chi_{-1} is the conjugate of chi_1 (eigenvalues are unitary)
        c1, cm1 = chi(g, arr, 1), chi(g, arr, -1)
        assert cm1.values == tuple(v.conjugate() for v in c1.values)

    def test_values_match_a_sum_of_terms(self):
        # the canonical (order, num, den) of every class value equals
        # that of adding count x unit terms one CycNum at a time
        seen_empty = seen_zero = False
        for name, make in sorted(GROUPS.items()):
            g, arr = make()
            mod = len(arr.units)
            for n in range(-1, 2 * mod + 1):
                for counts, v in zip(arr.fixed_line_counts, chi(g, arr, n).values):
                    ref = vec_sum(c * arr.units[n * e % mod] for e, c in counts)
                    assert (v.order, v.num, v.den) == (ref.order, ref.num, ref.den), (name, n)
                    seen_empty |= not counts
                    seen_zero |= bool(counts) and v.is_zero()
        assert seen_empty and seen_zero

    def test_constant_on_classes(self, g4):
        g, arr = g4.group, g4.arrangement
        f = chi(g, arr, 1)
        for cls in g.classes:
            assert len({f.at(i) for i in cls}) == 1


class TestInnerProducts:
    def test_transitive_orbit_pairing(self, g4):
        f = chi(g4.group, g4.arrangement, 0)
        assert inner_product(f, trivial_character(g4.group)) == CycNum.one()

    def test_g4_chi1(self, g4):
        f = chi(g4.group, g4.arrangement, 1)
        assert inner_product(f, f) == CycNum.rational(2)

    def test_b3_chi1(self, b3):
        f = chi(b3.group, b3.arrangement, 1)
        assert inner_product(f, f) == CycNum.rational(5)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_family_chi0(self, n):
        built = build(GroupSpec.coxeter("A", n))
        f = chi(built.group, built.arrangement, 0)
        assert inner_product(f, f) == CycNum.rational(3)
        assert inner_product(f, trivial_character(built.group)) == CycNum.one()

    @pytest.mark.parametrize(
        "spec,expect",
        [
            (GroupSpec.coxeter("A", 3), 2),
            (GroupSpec.coxeter("D", 4), 2),
            (GroupSpec.coxeter("B", 4), 5),
        ],
    )
    def test_chi1_norms_from_tables(self, spec, expect):
        built = build(spec)
        f = chi(built.group, built.arrangement, 1)
        assert inner_product(f, f) == CycNum.rational(expect)

    def test_cross_group_rejected(self, g4, a3):
        with pytest.raises(ValueError):
            inner_product(
                trivial_character(g4.group), trivial_character(a3.group)
            )


class TestKernels:
    @pytest.mark.parametrize(
        "spec",
        [
            GroupSpec.exceptional(4),
            GroupSpec.exceptional(12),
            GroupSpec.imprimitive(3, 1, 2),
            GroupSpec.imprimitive(2, 1, 3),
        ],
    )
    def test_kernel_formula_all_n(self, spec):
        from reflarr.kappa import a_indices

        built = build(spec)
        g, arr = built.group, built.arrangement
        kappa = a_indices(g, arr).kappa
        # kernel_of_Rn raises internally if the central description fails
        assert kernel_of_Rn(g, arr, 0) == tuple(sorted(g.center))
        assert kernel_of_Rn(g, arr, 1) == (g.identity_index,)
        for n in range(2, kappa + 1):
            kernel_of_Rn(g, arr, n)

    def test_disagreement_names_an_element(self, g4, monkeypatch):
        g, arr = g4.group, g4.arrangement
        true_chi = repfamily.chi

        def flat_chi(g, a, n):
            # chi_n(w) = chi_n(1) everywhere: every element looks like kernel
            full = true_chi(g, a, n).at(g.identity_index)
            return ClassFunction(g, tuple(full for _ in g.classes))

        monkeypatch.setattr(repfamily, "chi", flat_chi)
        central = {i for i in g.center if 2 % g.element_order(i) == 0}
        witness = min(set(range(g.order)) ^ central)
        with pytest.raises(ArithmeticError, match=f"at element {witness}$"):
            kernel_of_Rn(g, arr, 2)

    def test_g4_even_kernel_is_center(self, g4):
        g, arr = g4.group, g4.arrangement
        assert kernel_of_Rn(g, arr, 2) == tuple(sorted(g.center))


class TestPeriodicity:
    @pytest.mark.parametrize(
        "spec,period",
        [
            (GroupSpec.exceptional(4), 6),
            (GroupSpec.exceptional(12), 2),
            (GroupSpec.imprimitive(1, 3, 2), 2),
            (GroupSpec.imprimitive(3, 1, 2), 6),
            (GroupSpec.coxeter("A", 3), 2),
        ],
    )
    def test_minimal_period(self, spec, period):
        built = build(spec)
        assert check_periodicity(built.group, built.arrangement) == period


class TestGalois:
    def test_identity_automorphism(self, g4):
        assert galois_check(g4.group, g4.arrangement, 1)

    def test_g4_n5(self, g4):
        assert galois_check(g4.group, g4.arrangement, 5)

    def test_g4_chi5_is_not_chi1(self, g4):
        # conjugation acts nontrivially on chi_1, so the n = 5 layer is
        # the conjugate family, not a repeat of n = 1
        g, arr = g4.group, g4.arrangement
        assert chi(g, arr, 5).values != chi(g, arr, 1).values
        assert chi(g, arr, 5).values == tuple(
            v.conjugate() for v in chi(g, arr, 1).values
        )

    def test_g412_n3(self):
        built = build(GroupSpec.imprimitive(4, 1, 2))
        assert galois_check(built.group, built.arrangement, 3)

    def test_non_coprime_rejected(self, g4):
        for n in (2, 3, 4):
            with pytest.raises(ValueError):
                galois_check(g4.group, g4.arrangement, n)


class TestRestriction:
    def test_a3_one_hyperplane(self, a3):
        v = _vector_on_only(a3.arrangement, 0)
        assert restriction_check(a3.group, a3.arrangement, v)

    def test_g4_order3_fixer(self, g4):
        v = _vector_on_only(g4.arrangement, 0)
        assert g4.group.parabolic_fixer(v).order == 3
        assert restriction_check(g4.group, g4.arrangement, v)

    def test_b3_two_fixer_choices(self):
        built = build(GroupSpec.imprimitive(2, 1, 3))
        arr = built.arrangement
        coord = next(
            i
            for i, h in enumerate(arr.hyperplanes)
            if sum(1 for x in h.alpha if not x.is_zero()) == 1
        )
        mixed = next(
            i
            for i, h in enumerate(arr.hyperplanes)
            if sum(1 for x in h.alpha if not x.is_zero()) == 2
        )
        for k in (coord, mixed):
            v = _vector_on_only(arr, k)
            assert restriction_check(built.group, built.arrangement, v)

    def test_trivial_fixer_vacuous(self, g4):
        v = (CycNum.rational(1), CycNum.rational(7))
        with pytest.warns(UserWarning):
            assert restriction_check(g4.group, g4.arrangement, v)


class TestStructure:
    def test_orbit_block_sum(self):
        # chi_n is the sum of the per-orbit characters
        built = build(GroupSpec.imprimitive(2, 2, 2))
        g, arr = built.group, built.arrangement
        assert len(arr.orbits) == 3
        for n in (0, 1, 2, 3):
            total = chi(g, arr, n)
            parts = [chi(g, arr.sub(orbit), n) for orbit in arr.orbits]
            acc = parts[0]
            for p in parts[1:]:
                acc = acc + p
            assert acc.values == total.values

    def test_product_group_chi_is_sum(self):
        # block-diagonal join of G(2,1,2) with a sign flip on a third axis
        b2 = build(GroupSpec.imprimitive(2, 1, 2))
        zero, one = CycNum.zero(), CycNum.one()

        def widen(m):
            rows = [list(r) + [zero] for r in m.rows]
            rows.append([zero, zero, one])
            return Matrix(rows)

        flip = Matrix(
            [[one, zero, zero], [zero, one, zero], [zero, zero, -one]]
        )
        from reflarr.matgroup import GroupModel

        prod = GroupModel.generate([widen(g) for g in b2.group.generators] + [flip])
        arr = Arrangement.from_group(prod)
        assert prod.order == b2.group.order * 2
        for n in (0, 1, 2):
            f = chi(prod, arr, n)
            for wi in range(0, prod.order, 3):
                w = prod.elements[wi]
                top = Matrix([r[:2] for r in w.rows[:2]])
                lam = w.rows[2][2]
                expect = _chi_at(b2.group, b2.arrangement, top, n) + lam**n
                assert f.at(wi) == expect


class TestSignModel:
    @pytest.mark.parametrize(
        "spec",
        [
            GroupSpec.coxeter("A", 2),
            GroupSpec.coxeter("A", 3),
            GroupSpec.coxeter("B", 2),
            GroupSpec.coxeter("B", 3),
            GroupSpec.coxeter("I2", 6),
        ],
    )
    def test_character_equals_chi1(self, spec):
        built = build(spec)
        model = coxeter_sign_model(built)
        assert model.character().values == chi(
            built.group, built.arrangement, 1
        ).values

    @pytest.mark.parametrize(
        "spec",
        [
            GroupSpec.coxeter("A", 3),
            GroupSpec.coxeter("B", 3),
            GroupSpec.coxeter("D", 4),
            GroupSpec.coxeter("I2", 6),
        ],
    )
    def test_matrices_are_the_exponent_rows(self, spec):
        # w.r_i = (-1)^e r_w(i) on the transported roots; the positive
        # roots flip some of them, which conjugates by a sign diagonal
        built = build(spec)
        arr = built.arrangement
        assert len(arr.units) == 2
        sign = []
        for f, h in zip(built.positive_roots, arr.hyperplanes):
            assert f in (h.root, tuple(-x for x in h.root))
            sign.append(1 if f == h.root else -1)
        model = coxeter_sign_model(built)
        n = len(arr)
        for wi in range(built.group.order):
            rows = [[0] * n for _ in range(n)]
            for i, (j, e) in enumerate(zip(*arr.row(wi))):
                rows[j][i] = sign[i] * sign[j] * (-1) ** e
            assert model.matrix_of(wi) == Matrix(rows), wi

    def test_matrices_are_signed_permutations(self, a3):
        model = coxeter_sign_model(a3)
        allowed = {CycNum.zero(), CycNum.one(), CycNum.rational(-1)}
        for m in model.matrices:
            for row in m.rows:
                assert all(x in allowed for x in row)
                assert sum(1 for x in row if not x.is_zero()) == 1

    def test_homomorphism(self, a3):
        g = a3.group
        model = coxeter_sign_model(a3)
        for i, j in [(1, 2), (3, 7), (10, 4), (5, 5)]:
            assert model.matrix_of(g.mul(i, j)) == model.matrix_of(
                i
            ) * model.matrix_of(j)

    def test_b2_braid_relation(self):
        b2 = build(GroupSpec.coxeter("B", 2))
        model = coxeter_sign_model(b2)
        s1, s2 = model.matrices[0], model.matrices[1]
        assert (s1 * s2) ** 4 == Matrix.identity(len(b2.arrangement))

    def test_diagonal_sign_rule(self, a3):
        # a simple reflection negates exactly its own wall basis vector
        model = coxeter_sign_model(a3)
        for gen, mat in zip(a3.group.generators, model.matrices):
            i = a3.arrangement.hyperplane_of_root(
                next(
                    r.root
                    for r in a3.group.reflections
                    if a3.group.elements[r.element] == gen
                )
            )
            assert mat.rows[i][i] == CycNum.rational(-1)
            diag_minus = [
                j
                for j in range(len(a3.arrangement))
                if mat.rows[j][j] == CycNum.rational(-1)
            ]
            assert diag_minus == [i]

    def test_chi1_differs_from_chi0(self):
        for spec in (GroupSpec.coxeter("A", 2), GroupSpec.coxeter("B", 3)):
            built = build(spec)
            g, arr = built.group, built.arrangement
            assert chi(g, arr, 1).values != chi(g, arr, 0).values
            # negating the wall vector turns a +1 diagonal entry into -1,
            # so each simple reflection loses exactly 2 from the trace
            two = CycNum.rational(2)
            for gen in g.generators:
                gi = g.index[gen]
                assert chi(g, arr, 1).at(gi) == chi(g, arr, 0).at(gi) - two

    def test_non_coxeter_rejected(self, g4):
        with pytest.raises(ValueError):
            coxeter_sign_model(g4)


class TestG4Table:
    def test_full_table(self):
        assert g4_table_check()

    def test_u_is_three_dimensional(self, g4):
        g = g4.group
        u = chi(g, g4.arrangement, 0) - trivial_character(g)
        assert u.at(g.identity_index) == CycNum.rational(3)
        assert inner_product(u, u) == CycNum.one()

    def test_reflection_character_norm(self, g4):
        refl = matrix_character(g4.group, lambda w: w.trace())
        assert inner_product(refl, refl) == CycNum.one()
