import pytest

from reflarr.catalog import GroupSpec, build, imprimitive_order
from reflarr.cyclo import CycNum
from reflarr.linalg import Matrix, is_semisimple
from reflarr.matgroup import GroupModel, NotFiniteWithinBound


@pytest.fixture(scope="module")
def g4():
    return build(GroupSpec.exceptional(4))


@pytest.fixture(scope="module")
def b2():
    return build(GroupSpec.imprimitive(2, 1, 2))


class TestGenerate:
    def test_g4_order_24(self, g4):
        assert g4.group.order == 24

    def test_trivial_group(self):
        g = GroupModel.generate([Matrix.identity(2)])
        assert g.order == 1

    def test_imprimitive_orders_match_formula(self):
        for d, e, r in [(2, 1, 2), (3, 1, 2), (1, 3, 2), (2, 2, 2), (1, 1, 3)]:
            built = build(GroupSpec.imprimitive(d, e, r))
            assert built.group.order == imprimitive_order(d, e, r)

    def test_order_bound_aborts(self):
        with pytest.raises(NotFiniteWithinBound):
            GroupModel.generate([Matrix([[2]])], order_bound=50)

    def test_mixed_field_generators_close_correctly(self):
        # diag(zeta_3, 1) equals diag(zeta_6^2, 1); before the generators
        # were lifted to one field their hashes differed and the closure
        # counted 50 elements
        one, zero = CycNum.one(), CycNum.zero()
        s3 = Matrix([[CycNum.zeta(3), zero], [zero, one]])
        s6 = Matrix([[CycNum.zeta(6, 2), zero], [zero, one]])
        t = Matrix([[zero, one], [one, zero]])
        assert s3 == s6
        assert GroupModel.generate([s3, t]).order == 18
        assert GroupModel.generate([s3, s6, t]).order == 18

    def test_non_root_of_unity_determinant_refused(self):
        # refused before the closure walks to the order bound
        with pytest.raises(NotFiniteWithinBound, match="determinant"):
            GroupModel.generate([Matrix([[2]])])

    def test_non_invertible_generator_rejected(self):
        with pytest.raises(ValueError):
            GroupModel.generate([Matrix([[1, 0], [0, 0]])])

    def test_closure_and_inverses(self, b2):
        g = b2.group
        for s, gen in enumerate(g.generators):
            for x, w in enumerate(g.elements):
                assert g.table[s][x] == g.index[w * gen]
        for i in range(g.order):
            assert g.mul(i, g.inverses[i]) == g.identity_index


class TestClasses:
    def test_partition(self, g4):
        g = g4.group
        all_idx = sorted(i for cls in g.classes for i in cls)
        assert all_idx == list(range(g.order))
        assert sum(len(c) for c in g.classes) == g.order
        for c in g.classes:
            assert g.order % len(c) == 0

    def test_identity_class_singleton(self, g4):
        g = g4.group
        k = g.class_of[g.identity_index]
        assert len(g.classes[k]) == 1

    def test_central_elements_singleton_classes(self, g4):
        g = g4.group
        for i in g.center:
            assert len(g.classes[g.class_of[i]]) == 1

    def test_g4_distinguished_reflection_class_size_4(self, g4):
        g = g4.group
        refl = [h.distinguished_reflection for h in g4.arrangement.hyperplanes]
        sizes = {len(g.classes[g.class_of[i]]) for i in refl}
        assert sizes == {4}

    def test_center_commutes(self, g4):
        g = g4.group
        for i in g.center:
            x = g.elements[i]
            assert all(x * gen == gen * x for gen in g.generators)
        assert len(g4.group.center) == 2


class TestReflections:
    def test_g4_eight_reflections_on_4_hyperplanes(self, g4):
        refl = g4.group.reflections
        assert len(refl) == 8
        assert len({r.alpha for r in refl}) == 4
        assert all(r.order == 3 for r in refl)

    def test_b2_four_order2_reflections(self, b2):
        refl = b2.group.reflections
        assert len(refl) == 4
        assert all(r.order == 2 for r in refl)
        assert all(r.eigenvalue == CycNum.rational(-1) for r in refl)

    def test_trivial_group_empty(self):
        g = GroupModel.generate([Matrix.identity(2)])
        assert g.reflections == ()

    def test_distinguished_reflections_generate(self, g4):
        gens = [
            g4.group.elements[h.distinguished_reflection]
            for h in g4.arrangement.hyperplanes
        ]
        regen = GroupModel.generate(gens)
        assert set(regen.elements) == set(g4.group.elements)

    def test_eigenvalue_is_root_of_unity(self, g4):
        for r in g4.group.reflections:
            k = r.eigenvalue.as_root_of_unity()
            assert k is not None and k > 1

    def test_root_is_eigenvector(self, g4):
        g = g4.group
        for r in g.reflections:
            w = g.elements[r.element]
            img = w.matvec(r.root)
            assert img == tuple(r.eigenvalue * x for x in r.root)

    def test_conjugation_stability(self, g4):
        # conjugating a reflection gives a reflection with mapped hyperplane
        g = g4.group
        alphas = {r.alpha for r in g.reflections}
        for r in g.reflections[:4]:
            for gen in g.generators:
                w = gen * g.elements[r.element] * gen.inverse()
                conj = g.reflections[
                    [x.element for x in g.reflections].index(g.index[w])
                ]
                assert conj.alpha in alphas
                assert conj.eigenvalue == r.eigenvalue


class TestInvariantForm:
    def test_invariance(self, g4):
        f = g4.group.invariant_hermitian_form
        for w in g4.group.generators:
            assert w.conj_transpose() * f * w == f

    def test_hermitian(self, g4):
        f = g4.group.invariant_hermitian_form
        assert f.conj_transpose() == f

    def test_monomial_group_form_scalar(self, b2):
        f = b2.group.invariant_hermitian_form
        # standard hermitian product is invariant: form is a scalar matrix
        scal = f.rows[0][0]
        assert f == Matrix.identity(2).scale(scal)

    def test_unitary_basis_change_transforms_contragradiently(self, b2):
        # conjugating the group by P transforms F to P*^T F P
        p = Matrix([[1, 1], [-1, 1]])
        pinv = p.inverse()
        conj_gens = [pinv * gen * p for gen in b2.group.generators]
        g2 = build_from_gens(conj_gens)
        f2 = g2.invariant_hermitian_form
        f = b2.group.invariant_hermitian_form
        expect = p.conj_transpose() * f * p
        # equal up to a positive rational scalar
        from reflarr.linalg import proportionality

        flat2 = [x for row in f2.rows for x in row]
        flat = [x for row in expect.rows for x in row]
        c = proportionality(flat2, flat)
        assert c is not None and c.as_fraction() > 0


def build_from_gens(gens):
    return GroupModel.generate(gens)


class TestParabolicFixer:
    def test_regular_vector_trivial_fixer(self, g4):
        v = (CycNum.rational(1), CycNum.rational(7))
        # check regular: on no hyperplane
        from reflarr.linalg import dot

        arr = g4.arrangement
        assert all(not dot(h.alpha, v).is_zero() for h in arr.hyperplanes)
        sub = g4.group.parabolic_fixer(v)
        assert sub.order == 1

    def test_a3_one_hyperplane_fixer_order_2(self):
        a3 = build(GroupSpec.coxeter("A", 3))
        h = a3.arrangement.hyperplanes[0]
        v = _vector_on_only(a3.arrangement, 0)
        sub = a3.group.parabolic_fixer(v)
        assert sub.order == 2
        assert len(sub.reflections) == 1

    def test_g4_fixer_on_hyperplane_order_3(self, g4):
        v = _vector_on_only(g4.arrangement, 0)
        sub = g4.group.parabolic_fixer(v)
        assert sub.order == 3

    def test_fixer_reflections_are_exactly_those_fixing_v(self, g4):
        v = _vector_on_only(g4.arrangement, 0)
        sub = g4.group.parabolic_fixer(v)
        outer = [
            r
            for r in g4.group.reflections
            if g4.group.elements[r.element].matvec(v) == v
        ]
        assert len(outer) == len(sub.reflections)

    def test_fixer_without_reflections_refused(self):
        # diag(1, zeta_3, zeta_3^2) fixes e_1 but is no reflection, so the
        # reflections in the fixer cannot generate it
        one, zero, z = CycNum.one(3), CycNum.zero(3), CycNum.zeta(3)
        w = Matrix([[one, zero, zero], [zero, z, zero], [zero, zero, z * z]])
        g = GroupModel.generate([w])
        with pytest.raises(ArithmeticError):
            g.parabolic_fixer((one, zero, zero))

    def test_zero_vector_rejected(self, g4):
        with pytest.raises(ValueError):
            g4.group.parabolic_fixer((CycNum.zero(), CycNum.zero()))


def _vector_on_only(arr, k):
    """A vector on hyperplane k and on no other hyperplane."""
    import itertools

    from reflarr.linalg import dot, nullspace

    h = arr.hyperplanes[k]
    basis = nullspace([list(h.alpha)], arr.dim)
    for coeffs in itertools.product(range(-3, 4), repeat=len(basis)):
        if all(c == 0 for c in coeffs):
            continue
        v = tuple(
            sum((CycNum.rational(c) * b for c, b in zip(coeffs, col)), CycNum.zero())
            for col in zip(*basis)
        )
        others = [
            j
            for j, hh in enumerate(arr.hyperplanes)
            if j != k and dot(hh.alpha, v).is_zero()
        ]
        if not others:
            return v
    raise AssertionError("no generic vector found on the hyperplane")


class TestSemisimplicity:
    def test_all_elements_semisimple(self, g4, b2):
        for built in (g4, b2):
            for w in built.group.elements:
                assert is_semisimple(w)
