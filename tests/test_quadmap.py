import pytest

from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build, g12_vector_table
from reflarr.cyclo import CycNum
from reflarr.linalg import normalize_first_nonzero, proportionality
from reflarr.matgroup import GroupModel
from reflarr.quadmap import (
    build_phi,
    coxeter_equivariant_forms,
    equivariance_defect,
    invariant_quadratic_form,
    is_surjective,
    square_form,
)
from test_root_action import GROUPS


def _lookup_violations(p, g):
    """Equivariance defects by the matrix path: w.alpha = (w^-1)^T alpha,
    its hyperplane looked up by the normalized form, the scalar found by
    proportionality."""
    index = {}
    for j, alpha in enumerate(p.alphas):
        index.setdefault(normalize_first_nonzero(alpha), j)
    violations = []
    for gi, gen in enumerate(g.generators):
        winv_t = gen.inverse().transpose()
        for i, alpha in enumerate(p.alphas):
            beta = winv_t.matvec(alpha)
            j = index.get(normalize_first_nonzero(beta))
            lam = None if j is None else proportionality(beta, p.alphas[j])
            if lam is None or lam * lam != CycNum.one():
                violations.append((gi, i))
    return tuple(violations)


def _g12_published_forms(g12):
    """The forms (v | .) of the published G12 vectors, in hyperplane order."""
    arr = g12.arrangement
    f = g12.group.invariant_hermitian_form
    ordered = [None] * len(arr)
    for vec in g12_vector_table().values():
        conj = tuple(x.conjugate() for x in vec)
        alpha = tuple(f.transpose().matvec(conj))
        js = [
            j
            for j, h in enumerate(arr.hyperplanes)
            if proportionality(alpha, h.alpha) is not None
        ]
        assert len(js) == 1  # each vector spans a genuine root line
        ordered[js[0]] = alpha
    assert all(a is not None for a in ordered)
    return ordered


COXETER_SPECS = [
    GroupSpec.coxeter("A", 2),
    GroupSpec.coxeter("A", 3),
    GroupSpec.coxeter("B", 2),
    GroupSpec.coxeter("B", 3),
    GroupSpec.coxeter("D", 3),
    GroupSpec.coxeter("I2", 4),
    GroupSpec.coxeter("I2", 6),
]


@pytest.fixture(scope="module")
def g4():
    return build(GroupSpec.exceptional(4))


@pytest.fixture(scope="module")
def g12():
    return build(GroupSpec.exceptional(12))


def _rat(*xs):
    return tuple(CycNum.rational(x) for x in xs)


class TestBuild:
    def test_square_form_coefficients(self):
        # (x + 2y)^2 = x^2 + 4xy + 4y^2
        assert square_form(_rat(1, 2)) == _rat(1, 4, 4)

    def test_rank1(self):
        arr = Arrangement.from_covectors([[1]])
        p = build_phi(arr)
        assert p.matrix_rows() == [[CycNum.one()]]

    def test_g4_shape(self, g4):
        p = build_phi(g4.arrangement)
        m = p.matrix_rows()
        assert len(m) == 3 and len(m[0]) == 4

    def test_a3_shape(self):
        a3 = build(GroupSpec.coxeter("A", 3))
        p = build_phi(a3.arrangement)
        m = p.matrix_rows()
        assert len(m) == 6 and len(m[0]) == 6

    def test_non_essential_rejected(self):
        from reflarr.catalog import _monomial_generators

        g = GroupModel.generate(_monomial_generators(1, 1, 3))
        with pytest.raises(ValueError):
            build_phi(Arrangement.from_group(g))

    def test_wrong_alpha_count_rejected(self, g4):
        with pytest.raises(ValueError):
            build_phi(g4.arrangement, [(CycNum.one(), CycNum.zero())])

    @pytest.mark.parametrize("bad", ["other", "zero", "long"])
    def test_form_off_its_hyperplane_rejected(self, g4, bad):
        alphas = [h.alpha for h in g4.arrangement.hyperplanes]
        alphas[2] = {"other": alphas[1], "zero": (CycNum.zero(),) * 2,
                     "long": alphas[2] + (CycNum.one(),)}[bad]
        with pytest.raises(ValueError, match="form 2 is not a nonzero multiple of hyperplane 2"):
            build_phi(g4.arrangement, alphas)


class TestSurjectivity:
    def test_g4_onto(self, g4):
        ok, r = is_surjective(build_phi(g4.arrangement))
        assert ok and r == 3

    def test_counterexample_not_onto(self):
        arr = Arrangement.from_covectors(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [0, 1, -1]]
        )
        ok, r = is_surjective(build_phi(arr))
        assert not ok and r == 5

    def test_reducible_product_not_onto(self):
        # G(2,1,1) x G(2,1,1): the cross term x1 x2 is missing
        g = GroupModel.generate([[[-1, 0], [0, 1]], [[1, 0], [0, -1]]])
        arr = Arrangement.from_group(g)
        ok, r = is_surjective(build_phi(arr))
        assert not ok and r == 2

    def test_rank_invariant_under_column_scaling(self, g4):
        arr = g4.arrangement
        scaled = [
            tuple(CycNum.zeta(3) ** i * x for x in h.alpha)
            for i, h in enumerate(arr.hyperplanes)
        ]
        assert build_phi(arr, scaled).rank() == build_phi(arr).rank()

    @pytest.mark.parametrize(
        "spec",
        [
            GroupSpec.coxeter("A", 2),
            GroupSpec.coxeter("B", 3),
            GroupSpec.coxeter("D", 3),
            GroupSpec.imprimitive(3, 1, 2),
            GroupSpec.exceptional(12),
        ],
    )
    def test_irreducible_catalog_groups_onto(self, spec):
        built = build(spec)
        assert built.arrangement.irreducibility().irreducible
        n = built.group.dim
        ok, r = is_surjective(build_phi(built.arrangement))
        assert ok and r == n * (n + 1) // 2


class TestEquivariance:
    def test_g4_normalized_scaling_fails(self, g4):
        rep = equivariance_defect(build_phi(g4.arrangement), g4.group)
        assert rep.violations
        assert not rep.equivariant

    @pytest.mark.parametrize("powers", [(0, 1, 2, 0), (1, 1, 1, 1), (2, 0, 1, 2)])
    def test_g4_rescalings_still_fail(self, g4, powers):
        # no scaling can work: reflections of order 3 move the forms by
        # scalars that are not square roots of unity
        arr = g4.arrangement
        z = CycNum.zeta(3)
        alphas = [
            tuple(z**k * x for x in h.alpha)
            for k, h in zip(powers, arr.hyperplanes)
        ]
        rep = equivariance_defect(build_phi(arr, alphas), g4.group)
        assert rep.violations

    def test_g12_published_vectors_equivariant(self, g12):
        rep = equivariance_defect(build_phi(g12.arrangement, _g12_published_forms(g12)), g12.group)
        assert rep.equivariant
        assert rep.sum_of_squares_zero

    @pytest.mark.parametrize("spec", COXETER_SPECS)
    def test_coxeter_construction_equivariant(self, spec):
        built = build(spec)
        alphas = coxeter_equivariant_forms(built)
        assert len(alphas) == len(built.arrangement)
        p = build_phi(built.arrangement, alphas)
        rep = equivariance_defect(p, built.group)
        assert rep.equivariant
        # real groups keep an invariant quadratic form: the nonzero sum
        assert not rep.sum_of_squares_zero
        assert invariant_quadratic_form(p, built.group) is not None

    def test_i2_5_rejected(self):
        built = build(GroupSpec.coxeter("I2", 5))
        with pytest.raises(ValueError):
            coxeter_equivariant_forms(built)

    def test_g12_rejected_from_coxeter_path(self, g12):
        with pytest.raises(ValueError):
            coxeter_equivariant_forms(g12)


class TestEquivarianceMatchesLookup:
    """The row-based check against the matrix path, violation by violation."""

    @staticmethod
    def _same(p, g):
        rep = equivariance_defect(p, g)
        assert rep.violations == _lookup_violations(p, g)
        return rep

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_default_forms(self, name):
        g, arr = GROUPS[name]()
        self._same(build_phi(arr), g)

    @pytest.mark.parametrize("powers", [(0, 1, 2, 0), (1, 1, 1, 1), (2, 0, 1, 2), (0, 0, 0, 1)])
    def test_g4_rescalings(self, g4, powers):
        z = CycNum.zeta(3)
        alphas = [tuple(z**k * x for x in h.alpha)
                  for k, h in zip(powers, g4.arrangement.hyperplanes)]
        assert self._same(build_phi(g4.arrangement, alphas), g4.group).violations

    def test_g12_published_vectors(self, g12):
        p = build_phi(g12.arrangement, _g12_published_forms(g12))
        assert self._same(p, g12.group).equivariant

    @pytest.mark.parametrize("spec", COXETER_SPECS)
    def test_coxeter_forms(self, spec):
        built = build(spec)
        p = build_phi(built.arrangement, coxeter_equivariant_forms(built))
        assert self._same(p, built.group).equivariant
