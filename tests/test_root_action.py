"""The root-line rows and the invariant form against the exact matrix
path.

Arrangement.row composes the row of an element from the generator
rows; these tests recompute w.r_i with matvec for every element and
hyperplane, and rebuild a_indices from a direct sweep and from a sweep
over every element's row.  Orbits are recomputed from every element's
row, root orthogonality is checked against the hermitian product and
the greedy root basis against a scan that does not stop at dim roots.
The form computed from the transported roots is compared with the
|W|-term average sum_w w^* w.
"""

import itertools
from math import gcd, lcm

import pytest

from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, _monomial_generators, build
from reflarr.cli import _phi_section
from reflarr.cyclo import CycNum
from reflarr.kappa import a_indices
from reflarr.linalg import Matrix, dot, hermitian_product, nullspace, proportionality, rank
from reflarr.matgroup import GroupModel
from reflarr.repfamily import chi


def _product_group():
    """G(2,1,2) joined block-diagonally with a sign flip on a third axis."""
    b2 = build(GroupSpec.imprimitive(2, 1, 2))
    zero, one = CycNum.zero(), CycNum.one()

    def widen(m):
        return Matrix([list(r) + [zero] for r in m.rows] + [[zero, zero, one]])

    flip = Matrix([[one, zero, zero], [zero, one, zero], [zero, zero, -one]])
    g = GroupModel.generate([widen(s) for s in b2.group.generators] + [flip])
    return g, Arrangement.from_group(g)


def _catalog(spec):
    built = build(spec)
    return built.group, built.arrangement


def _on_only(arr, k):
    """A vector on hyperplane k and on no other hyperplane."""
    basis = nullspace([list(arr.hyperplanes[k].alpha)], arr.dim)
    for coeffs in itertools.product(range(-3, 4), repeat=len(basis)):
        v = tuple(
            sum((CycNum.rational(c) * b for c, b in zip(coeffs, col)), CycNum.zero())
            for col in zip(*basis)
        )
        if any(coeffs) and not any(
            dot(h.alpha, v).is_zero() for j, h in enumerate(arr.hyperplanes) if j != k
        ):
            return v
    raise AssertionError("no generic vector found on the hyperplane")


GROUPS = {
    "G4": lambda: _catalog(GroupSpec.exceptional(4)),
    "G12": lambda: _catalog(GroupSpec.exceptional(12)),
    "B4": lambda: _catalog(GroupSpec.coxeter("B", 4)),
    "D4": lambda: _catalog(GroupSpec.coxeter("D", 4)),
    "G(3,1,3)": lambda: _catalog(GroupSpec.imprimitive(3, 1, 3)),
    "G(3,3,3)": lambda: _catalog(GroupSpec.imprimitive(1, 3, 3)),
    "I2(5)": lambda: _catalog(GroupSpec.coxeter("I2", 5)),
    "product": _product_group,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_matches_matvec(name):
    g, arr = GROUPS[name]()
    roots = [h.root for h in arr.hyperplanes]
    for wi, w in enumerate(g.elements):
        perm, exps = arr.row(wi)
        for i, root in enumerate(roots):
            u = arr.units[exps[i]]
            assert w.matvec(root) == tuple(u * x for x in roots[perm[i]]), (wi, i)


def test_exponents_realize_mu_6():
    g, arr = GROUPS["G(3,1,3)"]()
    # the root-line scalars of G(3,1,3) are the sixth roots of unity
    assert len(arr.units) == 6 and arr.units[1].as_root_of_unity() == 6
    assert all(u == arr.units[1] ** e for e, u in enumerate(arr.units))
    assert set().union(*(arr.row(wi)[1] for wi in range(g.order))) == set(range(6))


def _direct_sweep(g, arr):
    witnesses = {}
    for wi, w in enumerate(g.elements):
        for hi, h in enumerate(arr.hyperplanes):
            c = proportionality(w.matvec(h.root), h.root)
            if c is not None:
                witnesses.setdefault(c.as_root_of_unity(), (wi, hi))
    return tuple(sorted(witnesses)), lcm(*witnesses), witnesses


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.exceptional(4), GroupSpec.exceptional(12), GroupSpec.imprimitive(3, 1, 2)],
)
def test_a_indices_match_direct_sweep(spec):
    g, arr = _catalog(spec)
    rep = a_indices(g, arr)
    assert (rep.indices, rep.kappa, rep.witnesses) == _direct_sweep(g, arr)


CLASS_LEVEL_GROUPS = {
    **GROUPS,
    "G(4,2,3)": lambda: _catalog(GroupSpec.imprimitive(2, 2, 3)),
    "G(5,5,3)": lambda: _catalog(GroupSpec.imprimitive(1, 5, 3)),
}


def _every_row_sweep(g, arr):
    """a_indices by brute force: every (w, H) pair, w in index order."""
    mod = len(arr.units)
    witnesses = {}
    for wi in range(g.order):
        for hi, (j, e) in enumerate(zip(*arr.row(wi))):
            if j == hi:
                witnesses.setdefault(mod // gcd(e, mod), (wi, hi))
    return tuple(sorted(witnesses)), lcm(*witnesses), witnesses


@pytest.mark.parametrize("name", sorted(CLASS_LEVEL_GROUPS))
def test_class_level_sweep_matches_every_row(name):
    g, arr = CLASS_LEVEL_GROUPS[name]()
    rep = a_indices(g, arr)
    assert (rep.indices, rep.kappa, rep.witnesses) == _every_row_sweep(
        g, Arrangement.from_group(g)
    )


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_orbits_match_every_row(name):
    g, arr = GROUPS[name]()
    rows = [arr.row(wi)[0] for wi in range(g.order)]
    orbits = {tuple(sorted({perm[i] for perm in rows})) for i in range(len(arr))}
    assert arr.orbits == tuple(sorted(orbits))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_root_orthogonal_matches_hermitian_product(name):
    _, arr = GROUPS[name]()
    roots = [h.root for h in arr.hyperplanes]
    for i, j in itertools.product(range(len(arr)), repeat=2):
        expect = hermitian_product(arr.form, roots[i], roots[j]).is_zero()
        assert arr.root_orthogonal(i, j) == expect, (i, j)


def _full_scan_basis(arr):
    """greedy_connected_basis scanning on after dim roots are chosen."""
    chosen, changed = [0], True
    while changed:
        changed = False
        for i in range(len(arr)):
            if i in chosen or all(arr.root_orthogonal(i, j) for j in chosen):
                continue
            candidate = [arr.hyperplanes[k].root for k in [*chosen, i]]
            if rank([list(r) for r in candidate]) == len(candidate):
                chosen.append(i)
                changed = True
                break
    return chosen


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_greedy_basis_matches_full_scan(name):
    _, arr = GROUPS[name]()
    basis = arr.greedy_connected_basis()
    assert basis == _full_scan_basis(arr)
    verdict = arr.irreducibility()
    assert verdict.irreducible == (name != "product")
    assert verdict.certificate == (tuple(basis) if verdict.irreducible else None)


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.coxeter("B", 4), GroupSpec.coxeter("D", 4), GroupSpec.imprimitive(3, 1, 3)],
)
def test_root_graph_and_phi_section_build_no_form(spec):
    # the root graph and the equivariance check read rows, not the form
    built = build(spec)
    assert built.arrangement.irreducibility().irreducible
    _phi_section(built)
    assert "invariant_hermitian_form" not in built.group.__dict__


def test_unstable_sub_arrangement_is_refused():
    g, arr = GROUPS["B4"]()
    assert len(arr.orbits) == 2
    part = arr.sub([0])
    for read in (lambda: part.row(1), lambda: part.orbits, lambda: a_indices(g, part)):
        with pytest.raises(ArithmeticError, match="does not permute the arrangement"):
            read()
    # an essential part that is no union of orbits: the root graph refuses it
    rest = arr.sub(range(1, len(arr)))
    assert rest.is_essential()
    with pytest.raises(ArithmeticError, match="does not permute the arrangement"):
        rest.irreducibility()
    # an orbit is stable, and the orbits together realize every order
    per_orbit = [a_indices(g, arr.sub(orbit)).indices for orbit in arr.orbits]
    assert set().union(*per_orbit) == set(a_indices(g, arr).indices)


class TestCrossGroup:
    def test_chi_and_a_indices_refuse_a_foreign_group(self):
        g, arr = GROUPS["G4"]()
        w0 = g.parabolic_fixer(_on_only(arr, 0))
        assert len(chi(g, arr, 0).values) == 7
        with pytest.raises(ValueError):
            chi(w0, arr, 0)
        with pytest.raises(ValueError):
            a_indices(w0, arr)

    def test_sub_keeps_group_and_form(self):
        g, arr = GROUPS["G4"]()
        part = arr.sub([0, 1])
        assert part.group is g
        assert part.form == arr.form != Matrix.identity(2)

    def test_class_of_is_explicit(self):
        g, _ = GROUPS["G4"]()
        assert not hasattr(g, "_class_of")
        for k, cls in enumerate(g.classes):
            assert all(g.class_of[i] == k for i in cls)


def _conjugated_i2_8():
    """I2(8) conjugated by P = [[1, 0], [1 + z8, 1]]: irrational form."""
    p = Matrix([[1, 0], [1 + CycNum.zeta(8), 1]])
    p_inv = p.inverse()
    return GroupModel.generate([p * s * p_inv for s in _monomial_generators(8, 8, 2)])


FORM_GROUPS = {name: (lambda make=make: make()[0]) for name, make in GROUPS.items()}
FORM_GROUPS["I2(8)^P"] = _conjugated_i2_8


def _averaged_form(g):
    acc = None
    for w in g.elements:
        t = w.conj_transpose() * w
        acc = t if acc is None else acc + t
    return acc


def _totally_positive(c):
    """c is real and positive under every embedding of its field."""
    m = c.order
    return c == c.conjugate() and all(
        c.galois(a).embed().real > 0 for a in range(1, m + 1) if gcd(a, m) == 1
    )


@pytest.mark.parametrize("name", sorted(FORM_GROUPS))
def test_form_matches_the_average(name):
    g = FORM_GROUPS[name]()
    f, avg = g.invariant_hermitian_form, _averaged_form(g)
    assert f.conj_transpose() == f
    assert all(s.conj_transpose() * f * s == f for s in g.generators)
    roots = [h.root for h in Arrangement.from_group(g).hyperplanes]
    new = [[hermitian_product(f, u, v) for v in roots] for u in roots]
    ref = [[hermitian_product(avg, u, v) for v in roots] for u in roots]
    n = len(roots)
    assert all(new[i][j].is_zero() == ref[i][j].is_zero() for i in range(n) for j in range(n))
    # on each component of the root graph, one totally positive scalar
    component = list(range(n))
    for i, j in itertools.product(range(n), repeat=2):
        if not ref[i][j].is_zero():
            a, b = component[i], component[j]
            component = [a if x == b else x for x in component]
    for k in set(component):
        part = [i for i in range(n) if component[i] == k]
        c = new[part[0]][part[0]] / ref[part[0]][part[0]]
        assert _totally_positive(c)
        assert all(new[i][j] == c * ref[i][j] for i in part for j in part)
    if len(set(component)) == 1:  # irreducible: one scalar for the whole form
        flat = [x for row in f.rows for x in row]
        c = proportionality(flat, [x for row in avg.rows for x in row])
        assert c is not None and _totally_positive(c)


def test_form_of_a_non_essential_group():
    # one reflection in rank 2: the roots span a line, V^W the other
    g = GroupModel.generate([Matrix([[-1, 0], [0, 1]])])
    f = g.invariant_hermitian_form
    assert f.conj_transpose() == f
    assert all(w.conj_transpose() * f * w == f for w in g.elements)
    minors = [Matrix([row[:k] for row in f.rows[:k]]).det() for k in (1, 2)]
    assert all(_totally_positive(m) for m in minors)


def test_form_refuses_a_group_without_reflections():
    g = GroupModel.generate([Matrix([[0, -1], [1, 0]])])
    with pytest.raises(ValueError, match="not generated by reflections"):
        g.invariant_hermitian_form
