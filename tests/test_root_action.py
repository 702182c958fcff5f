"""The root-line action table against the exact matrix path.

Arrangement.root_action composes every row from the generator rows;
these tests recompute w.e_i with matvec and proportionality for every
element and hyperplane, and rebuild a_indices from a direct sweep.
"""

import itertools
from math import lcm

import pytest

from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build
from reflarr.cyclo import CycNum
from reflarr.kappa import a_indices
from reflarr.linalg import Matrix, dot, nullspace, proportionality
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
    act = arr.root_action
    roots = [h.root for h in arr.hyperplanes]
    for wi, w in enumerate(g.elements):
        for i, root in enumerate(roots):
            j = act.perms[wi][i]
            c = act.scalars[act.coeffs[wi][i]]
            assert w.matvec(root) == tuple(c * x for x in roots[j]), (wi, i)


def test_scalars_are_stored_once():
    g, arr = GROUPS["G(3,1,3)"]()
    scalars = arr.root_action.scalars
    # the root-line scalars of G(3,1,3) are the sixth roots of unity
    assert len(scalars) == len(set(scalars)) == 6


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
