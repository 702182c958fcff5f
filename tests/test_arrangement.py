import itertools

import pytest

from reflarr.arrangement import (
    Arrangement,
    essentialize,
    poly_divisible,
    poly_mul,
)
from reflarr.catalog import GroupSpec, build, imprimitive_order
from reflarr.cyclo import CycNum
from reflarr.linalg import Matrix, rank
from reflarr.matgroup import GroupModel


@pytest.fixture(scope="module")
def g4():
    return build(GroupSpec.exceptional(4))


@pytest.fixture(scope="module")
def a3():
    return build(GroupSpec.coxeter("A", 3))


@pytest.fixture(scope="module")
def braid5():
    # the rank-3 counterexample arrangement xyz(x-y)(y-z)
    return Arrangement.from_covectors(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [0, 1, -1]]
    )


class TestExtraction:
    def test_g4_four_hyperplanes_single_orbit(self, g4):
        arr = g4.arrangement
        assert len(arr) == 4
        assert all(h.d == 3 for h in arr.hyperplanes)
        assert len(arr.orbits) == 1

    def test_a3_six_hyperplanes_order2(self, a3):
        arr = a3.arrangement
        assert len(arr) == 6
        assert all(h.d == 2 for h in arr.hyperplanes)

    def test_g422_two_orbit_types(self):
        built = build(GroupSpec.imprimitive(2, 2, 2))  # G(4,2,2)
        arr = built.arrangement
        # hyperplanes z_i = 0 (d from the cyclic fixer) plus z1 - zeta z2 = 0
        coord = [
            h
            for h in arr.hyperplanes
            if sum(1 for x in h.alpha if not x.is_zero()) == 1
        ]
        mixed = [h for h in arr.hyperplanes if h not in coord]
        assert len(coord) == 2 and len(mixed) == 4
        # coordinate orbit plus two orbits of z1 - zeta z2 (zeta in {+-1}, {+-i})
        assert len(arr.orbits) == 3

    def test_d_counts_reflections(self, g4):
        refl_by_alpha = {}
        for r in g4.group.reflections:
            refl_by_alpha.setdefault(r.alpha, []).append(r)
        for h in g4.arrangement.hyperplanes:
            assert h.d == len(refl_by_alpha[h.alpha]) + 1

    def test_group_permutes_arrangement_preserving_d(self, g4):
        arr = g4.arrangement
        for gen in g4.group.generators:
            for i, h in enumerate(arr.hyperplanes):
                j = arr.image_hyperplane(gen, i)
                assert arr.hyperplanes[j].d == h.d

    def test_arrangement_and_d_determine_group(self, g4):
        # regenerating from the distinguished reflections recovers W exactly
        gens = [
            g4.group.elements[h.distinguished_reflection]
            for h in g4.arrangement.hyperplanes
        ]
        regen = GroupModel.generate(gens)
        assert set(regen.elements) == set(g4.group.elements)


class TestEssential:
    def test_unessential_symmetric_group(self):
        from reflarr.catalog import _monomial_generators

        g = GroupModel.generate(_monomial_generators(1, 1, 4))
        arr = Arrangement.from_group(g)
        assert not arr.is_essential()

    def test_essential_cases(self, g4, a3):
        assert g4.arrangement.is_essential()
        assert a3.arrangement.is_essential()

    def test_essentialize_a3(self):
        from reflarr.catalog import _monomial_generators

        g = GroupModel.generate(_monomial_generators(1, 1, 4))
        sub, arr = essentialize(g)
        assert sub.dim == 3
        assert sub.order == 24
        assert len(arr) == 6
        assert len(sub.reflections) == len(g.reflections)

    def test_essentialize_rank1(self):
        from reflarr.catalog import _monomial_generators

        g = GroupModel.generate(_monomial_generators(1, 1, 2))
        sub, arr = essentialize(g)
        assert sub.dim == 1 and len(arr) == 1

    def test_essentialize_already_essential(self, g4):
        sub, arr = essentialize(g4.group)
        assert sub is g4.group and sub.dim == 2


class TestIrreducibility:
    def test_g4_irreducible(self, g4):
        v = g4.arrangement.irreducibility()
        assert v.irreducible
        assert len(v.certificate) == 2

    def test_dihedral_irreducible(self):
        for e in (3, 4):
            built = build(GroupSpec.imprimitive(1, e, 2))
            assert built.arrangement.irreducibility().irreducible

    def test_product_reducible(self):
        # direct sum of two rank-1 sign groups
        g = GroupModel.generate(
            [
                [[-1, 0], [0, 1]],
                [[1, 0], [0, -1]],
            ]
        )
        arr = Arrangement.from_group(g)
        v = arr.irreducibility()
        assert not v.irreducible
        assert len(v.parts) == 2
        assert all(len(p) == 1 for p in v.parts)

    def test_non_essential_rejected(self):
        from reflarr.catalog import _monomial_generators

        g = GroupModel.generate(_monomial_generators(1, 1, 3))
        arr = Arrangement.from_group(g)
        with pytest.raises(ValueError):
            arr.irreducibility()

    def test_group_irreducibility_matches_module_irreducibility(self, g4, a3):
        # brute-force: no common eigenvector of all generators => irreducible
        # module in rank 2; for rank 3 check no 1- or 2-dim invariant subspace
        # via reflection root spans
        for built in (g4, a3):
            verdict = built.arrangement.irreducibility().irreducible
            assert verdict == _module_irreducible(built.group)


def _module_irreducible(g):
    """Brute-force check at small dim: no proper invariant subspace
    spanned by eigenvectors of a generator."""
    import itertools

    from reflarr.cyclo import CycNum
    from reflarr.linalg import Matrix, minimal_polynomial, nullspace, rank, rref, solve

    n = g.dim
    # candidate invariant subspaces: spans of subsets of eigenvectors of the
    # first generator (any invariant subspace is a sum of its eigenspaces,
    # generators being semisimple)
    w = g.generators[0]
    eigvecs = []
    for i in range(g.order):
        pass
    # collect eigenvalues via roots of the minimal polynomial among roots of unity
    minp = minimal_polynomial(w)
    cand = []
    for k in range(1, 25):
        for j in range(k):
            z = CycNum.zeta(k, j)
            val = CycNum.zero()
            for c in reversed(minp):
                val = val * z + c
            if val.is_zero():
                cand.append(z)
    seen = set()
    for z in cand:
        if z in seen:
            continue
        seen.add(z)
        shifted = [
            [w.rows[r][c] - (z if r == c else CycNum.zero()) for c in range(n)]
            for r in range(n)
        ]
        eigvecs.extend(nullspace(shifted, n))
    for size in range(1, n):
        for combo in itertools.combinations(eigvecs, size):
            rows = [list(v) for v in combo]
            if rank(rows) != size:
                continue
            basis, _ = rref(rows)
            stable = True
            bt = [list(col) for col in zip(*basis)]
            for gen in g.generators:
                for b in basis:
                    if solve(bt, list(gen.matvec(b))) is None:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                return False
    return True


def _monomial_forms(n, m, coordinate):
    """x_i - zeta_m^k x_j for i < j and k < m, after the x_i if asked."""
    z = CycNum.zeta(m)
    forms = [[int(k == i) for k in range(n)] for i in range(n)] if coordinate else []
    for i, j in itertools.combinations(range(n), 2):
        for e in range(m):
            forms.append([1 if k == i else -z ** e if k == j else 0 for k in range(n)])
    return forms


def _coordinate_change(n):
    """A fixed unimodular integer n x n matrix, not triangular: L U, with
    L unit lower triangular and U the upper triangle of ones."""
    lower = [[1 if i == j else (i + j) % 3 - 1 if i > j else 0 for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix([[int(j >= i) for j in range(n)] for i in range(n)])


# the arrangements of the lattice benchmark, with their flat counts per
# rank; A4 is the braid arrangement, not essential in dimension 5
LATTICE_CASES = [
    ("A4", _monomial_forms(5, 1, False), [1, 10, 25, 15, 1]),
    ("B3", _monomial_forms(3, 2, True), [1, 9, 13, 1]),
    ("D4", _monomial_forms(4, 2, False), [1, 12, 34, 24, 1]),
    ("G(3,3,3)", _monomial_forms(3, 3, False), [1, 9, 12, 1]),
    ("G(3,1,3)", _monomial_forms(3, 3, True), [1, 12, 21, 1]),
    ("G(4,4,3)", _monomial_forms(3, 4, False), [1, 12, 19, 1]),
]


class TestPoincare:
    def test_counterexample_arrangement(self, braid5):
        poly = braid5.poincare_polynomial()
        assert poly == poly_mul([1, 1], [1, 4, 4])

    def test_counterexample_is_irreducible_but_phi_wont_be_onto(self, braid5):
        assert braid5.is_essential()
        assert braid5.irreducibility().irreducible
        # not divisible by (1+t)^2: certifies irreducibility the paper's way
        assert poly_divisible(braid5.poincare_polynomial(), [1, 1])
        assert not poly_divisible(braid5.poincare_polynomial(), poly_mul([1, 1], [1, 1]))

    def test_single_hyperplane(self):
        arr = Arrangement.from_covectors([[1, 0]])
        assert arr.poincare_polynomial() == [1, 1]

    def test_boolean_arrangement(self):
        arr = Arrangement.from_covectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert arr.poincare_polynomial() == [1, 3, 3, 1]

    def test_multiplicative_over_products(self):
        arr1 = Arrangement.from_covectors([[1, 0], [0, 1], [1, -1]])
        p1 = arr1.poincare_polynomial()
        # embed twice into a rank-4 product
        covs = [[*c, 0, 0] for c in ([1, 0], [0, 1], [1, -1])] + [
            [0, 0, *c] for c in ([1, 0], [0, 1], [1, -1])
        ]
        prod = Arrangement.from_covectors(covs)
        assert prod.poincare_polynomial() == poly_mul(p1, p1)

    def test_divisible_by_1_plus_t(self, g4, braid5):
        for arr in (g4.arrangement, braid5):
            assert poly_divisible(arr.poincare_polynomial(), [1, 1])

    def test_size_refusal(self, monkeypatch):
        import reflarr.arrangement as arrangement

        covs = [[1, k] for k in range(13)]
        arr = Arrangement.from_covectors(covs)

        def no_lattice_work(*args):
            raise AssertionError("lattice work before the size refusal")

        # the refusal comes first, by name, before the top rank and any
        # residue of the lattice
        monkeypatch.setattr(arrangement, "rank", no_lattice_work)
        monkeypatch.setattr(arrangement, "normalize_first_nonzero", no_lattice_work)
        with pytest.raises(ValueError, match="beyond 12 hyperplanes"):
            arr.poincare_polynomial()

    @pytest.mark.parametrize(
        "case", ["empty", "two-planes", "G4", "G(3,3,3)", "B3", "braid5",
                 "mixed-orders", "four-lines", "one-plane"]
    )
    def test_matches_whitney_formula(self, case, g4, braid5):
        z = CycNum.zeta(3)
        arr = {
            "empty": lambda: Arrangement.from_covectors([], dim=3),
            "two-planes": lambda: Arrangement.from_covectors([[1, 0, 0], [0, 1, 0]]),
            # order-1 and order-3 forms with equal residues: modulo y, the
            # forms x, x - z y and x - z^2 y all reduce to x
            "mixed-orders": lambda: Arrangement.from_covectors(
                [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -z, 0], [1, 1, 1], [1, -z * z, 0]]
            ),
            # rank 2: the rank-1 flats keep no residues, the top is appended
            "four-lines": lambda: Arrangement.from_covectors([[1, 0], [0, 1], [1, 1], [1, -1]]),
            "one-plane": lambda: Arrangement.from_covectors([[1, 2, 0]]),
            "G4": lambda: g4.arrangement,
            "G(3,3,3)": lambda: build(GroupSpec.imprimitive(1, 3, 3)).arrangement,
            "B3": lambda: build(GroupSpec.coxeter("B", 3)).arrangement,
            "braid5": lambda: braid5,
        }[case]()
        assert arr.poincare_polynomial() == _whitney_poincare(arr)

    def test_a4_flats_per_rank(self):
        # x_i - x_j in dimension 5: flats are set partitions of 5 points
        covs = [
            [1 if k == i else -1 if k == j else 0 for k in range(5)]
            for i, j in itertools.combinations(range(5), 2)
        ]
        flats = Arrangement.from_covectors(covs).flats()
        assert [sum(r == k for r, _ in flats) for k in range(5)] == [1, 10, 25, 15, 1]

    @pytest.mark.parametrize(
        "label,covectors,counts", LATTICE_CASES, ids=[c[0] for c in LATTICE_CASES]
    )
    def test_flats_per_rank_in_changed_coordinates(self, label, covectors, counts):
        # alpha -> alpha M: the same lattice in coordinates x = M y
        change = _coordinate_change(len(covectors[0]))
        arr = Arrangement.from_covectors((Matrix(covectors) * change).rows)
        flats = arr.flats()
        assert [sum(r == k for r, _ in flats) for k in range(len(counts))] == counts
        assert [r for r, _ in flats] == sorted(r for r, _ in flats)

    def test_flat_masks_are_closed(self, g4):
        # S_X holds every hyperplane through X and no other: adding any
        # further form raises the rank
        for arr in (g4.arrangement, build(GroupSpec.coxeter("B", 3)).arrangement,
                    build(GroupSpec.coxeter("D", 4)).arrangement,
                    build(GroupSpec.imprimitive(1, 4, 3)).arrangement):
            alphas = [list(h.alpha) for h in arr.hyperplanes]
            flats = arr.flats()
            assert len({mask for _, mask in flats}) == len(flats)
            for r, mask in flats:
                inside = [a for i, a in enumerate(alphas) if mask >> i & 1]
                assert rank(inside) == r
                for i, a in enumerate(alphas):
                    if not mask >> i & 1:
                        assert rank(inside + [a]) == r + 1


def _whitney_poincare(arr):
    """P_A(t) from Whitney's formula chi(t) = sum_{S subset A} (-1)^|S|
    t^(dim - rank S): the coefficient of t^r is (-1)^r times the signed
    count of the subsets of rank r.  No lattice is built."""
    alphas = [list(h.alpha) for h in arr.hyperplanes]
    poly = [0] * (rank(alphas) + 1)
    for size in range(len(alphas) + 1):
        for subset in itertools.combinations(alphas, size):
            r = rank(list(subset))
            poly[r] += (-1) ** (r + size)
    return poly


class TestBound:
    @pytest.mark.parametrize(
        "spec,expect_equality",
        [
            (GroupSpec.coxeter("A", 2), True),
            (GroupSpec.coxeter("A", 3), True),
            (GroupSpec.coxeter("B", 2), False),
            (GroupSpec.exceptional(4), False),
            (GroupSpec.exceptional(12), False),
        ],
    )
    def test_bound_for_irreducible(self, spec, expect_equality):
        built = build(spec)
        n = built.group.dim
        assert built.arrangement.irreducibility().irreducible
        assert len(built.arrangement) >= n * (n + 1) // 2
        assert (len(built.arrangement) == n * (n + 1) // 2) == expect_equality
