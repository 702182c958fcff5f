"""The closure's Cayley table against the exact matrix path.

GroupModel keeps table[s][x], the index of elements[x] * generators[s],
and reads products, inverses, orders, classes, the center and the
reflection test from it.  These tests recompute each of them with
Matrix products, powers, conjugation and ranks.
"""

import random

import pytest

from reflarr.arrangement import Arrangement
from reflarr.catalog import _monomial_generators, g4_generators
from reflarr.kappa import a_indices
from reflarr.linalg import Matrix, rank
from reflarr.matgroup import GroupModel
from test_root_action import GROUPS

TABLE_GROUPS = {name: (lambda make=make: make()[0]) for name, make in GROUPS.items()}
# the order-4 rotation has no reflections at all
TABLE_GROUPS["rotation"] = lambda: GroupModel.generate([Matrix([[0, -1], [1, 0]])])

ALL_PAIRS_UP_TO = 48


@pytest.fixture(scope="module", params=sorted(TABLE_GROUPS))
def group(request):
    return TABLE_GROUPS[request.param]()


def _pairs(g):
    if g.order <= ALL_PAIRS_UP_TO:
        return [(i, j) for i in range(g.order) for j in range(g.order)]
    rng = random.Random(g.order)
    return [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(400)]


def _matrix_order(w):
    p, k = w, 1
    while not p.is_identity():
        p, k = p * w, k + 1
    return k


def test_table_and_mul_match_matrix_products(group):
    g = group
    assert [len(t) for t in g.table] == [g.order] * len(g.generators)
    for s, gen in enumerate(g.generators):
        for x, w in enumerate(g.elements):
            assert g.table[s][x] == g.index[w * gen], (x, s)
    for i, j in _pairs(g):
        assert g.mul(i, j) == g.index[g.elements[i] * g.elements[j]], (i, j)


def test_inverses_and_orders_match_matrix_powers(group):
    g = group
    for i, w in enumerate(g.elements):
        k = _matrix_order(w)
        assert g.element_order(i) == k, i
        assert g.inverses[i] == g.index[w ** (k - 1)] == g.index[w.inverse()], i


def test_classes_match_matrix_conjugation(group):
    g = group
    conjugators = [(h, h.inverse()) for h in g.generators]
    expect, seen = set(), set()
    for x in range(g.order):
        if x in seen:
            continue
        cls, frontier = {x}, [g.elements[x]]
        while frontier:
            nxt = []
            for y in frontier:
                for h, h_inv in conjugators:
                    z = h * y * h_inv
                    if g.index[z] not in cls:
                        cls.add(g.index[z])
                        nxt.append(z)
            frontier = nxt
        expect.add(tuple(sorted(cls)))
        seen |= cls
    assert set(g.classes) == expect
    assert [min(c) for c in g.classes] == sorted(min(c) for c in expect)


def test_center_matches_matrix_commutation(group):
    g = group
    expect = tuple(
        i
        for i, w in enumerate(g.elements)
        if all(w * h == h * w for h in g.generators)
    )
    assert g.center == expect


def test_reflections_match_per_element_rank_scan(group):
    g = group
    ident = Matrix.identity(g.dim)
    expect = [i for i, w in enumerate(g.elements) if (w - ident).rank() == 1]
    assert [r.element for r in g.reflections] == expect
    for r in g.reflections:
        w = g.elements[r.element]
        assert r.eigenvalue == w.det()
        assert r.order == _matrix_order(w)
        assert w.matvec(r.root) == tuple(r.eigenvalue * x for x in r.root)
        # alpha spans the row space of w - 1
        assert rank([list(r.alpha)] + [list(row) for row in (w - ident).rows]) == 1


@pytest.mark.parametrize(
    "generators",
    [g4_generators, lambda: _monomial_generators(3, 1, 3)],
    ids=["G4", "G(3,1,3)"],
)
def test_structure_needs_no_matrix_product_after_closure(generators, monkeypatch):
    g = GroupModel.generate(generators())

    def refuse(*args):
        raise AssertionError("matrix product after closure")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(Matrix, "__pow__", refuse)
    g.mul(g.order - 1, g.order // 2)
    g.element_order(g.order - 1)
    assert len(g.inverses) == len(g.class_of) == g.order
    assert g.identity_index in g.center
    assert g.reflections
    arr = Arrangement.from_group(g)
    rows = [arr.row(w) for w in range(g.order)]
    assert len(rows) == g.order
    assert all(sorted(perm) == list(range(len(arr))) == list(range(len(exps)))
               for perm, exps in rows)
    assert a_indices(g, arr).kappa == 6
    assert g.invariant_hermitian_form.conj_transpose() == g.invariant_hermitian_form
