"""The closure on line data against a matrix-product closure.

GroupModel.generate maps each element's code, its inverse's
(permutation, exponent) pair on the lines the generators permute, one
generator table at a time, and rebuilds matrices on demand.  The
breadth-first closure kept here multiplies the matrices themselves, in
the same visiting order; the tests compare the two on order, Cayley
table, spanning tree, every rebuilt matrix, inverses, classes,
reflections, transported roots, hyperplane order and kappa, on groups
whose codes are bytes and on groups whose codes are tuples.
"""

from fractions import Fraction
from math import lcm

import pytest

from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build, imprimitive_order
from reflarr.cyclo import CycNum
from reflarr.kappa import a_indices
from reflarr.linalg import Matrix, normalize_first_nonzero, nullspace, proportionality
from reflarr.lines import LineSet
from reflarr.matgroup import GroupModel, NotFiniteWithinBound
from reflarr.repfamily import chi


def _matrix_closure(gens):
    """(elements, table, spanning tree, index) by matrix products, breadth
    first: the closure GroupModel.generate replaced."""
    ident = Matrix.identity(gens[0].dim)
    seen, elements = {ident: 0}, [ident]
    parents, steps = [None], [None]
    table = [[] for _ in gens]
    for xi, x in enumerate(elements):
        for gi, g in enumerate(gens):
            y = x * g
            if y not in seen:
                seen[y] = len(elements)
                elements.append(y)
                parents.append(xi)
                steps.append(gi)
            table[gi].append(seen[y])
    return elements, table, (tuple(parents), tuple(steps)), seen


def _matrix_order(w):
    p, k = w, 1
    while not p.is_identity():
        p, k = p * w, k + 1
    return k


class Reference:
    """Everything the tests compare, computed from matrices."""

    def __init__(self, g: GroupModel):
        gens = list(g.generators)
        self.elements, self.table, self.tree, self.index = _matrix_closure(gens)
        ident = Matrix.identity(g.dim)
        conj = [(h, h.inverse()) for h in gens]
        classes, seen = [], set()
        for x in range(len(self.elements)):
            if x in seen:
                continue
            cls, frontier = {x}, [self.elements[x]]
            while frontier:
                nxt = []
                for y in frontier:
                    for h, h_inv in conj:
                        z = h * y * h_inv
                        if self.index[z] not in cls:
                            cls.add(self.index[z])
                            nxt.append(z)
                frontier = nxt
            classes.append(tuple(sorted(cls)))
            seen |= cls
        self.classes = tuple(classes)
        # the reflection test on one matrix per class, then every reflection
        per_class = {}
        for cls in classes:
            w = self.elements[cls[0]]
            if (w - ident).rank() == 1:
                per_class.update({i: (w.det(), _matrix_order(w)) for i in cls})
        self.reflections = []
        for i in sorted(per_class):
            w = self.elements[i]
            ev, order = per_class[i]
            alpha = next(filter(None, map(normalize_first_nonzero, (w - ident).rows)))
            root = normalize_first_nonzero(nullspace((w - ident.scale(ev)).rows, g.dim)[0])
            self.reflections.append((i, ev, alpha, root, order))
        self.alphas = list(dict.fromkeys(r[2] for r in self.reflections))
        self.roots = self._transported_roots(gens)

    def _transported_roots(self, gens):
        """One normalized root per hyperplane orbit, in hyperplane order,
        carried along the generators by matvec."""
        firsts = list(dict.fromkeys(r[3] for r in self.reflections))
        index = {line: h for h, line in enumerate(firsts)}
        roots = [None] * len(firsts)
        for seed, line in enumerate(firsts):
            if roots[seed] is None:
                roots[seed], orbit = line, [seed]
                for i in orbit:
                    for s in gens:
                        img = s.matvec(roots[i])
                        j = index[normalize_first_nonzero(img)]
                        if roots[j] is None:
                            roots[j] = img
                            orbit.append(j)
        return roots

    def kappa_indices(self, roots):
        """Orders of the root-line scalars, swept over class representatives
        (conjugate elements fix conjugate lines with the same scalar)."""
        orders = set()
        for cls in self.classes:
            w = self.elements[cls[0]]
            for r in roots:
                c = proportionality(w.matvec(r), r)
                if c is not None:
                    orders.add(c.as_root_of_unity())
        return tuple(sorted(orders))


def _sweep_specs():
    """Every G(de,e,r) with de <= 6, r in {2, 3} and |W| <= 10,000, but
    the degenerate G(1,1,2): the imprimitive kappa sweep."""
    out = []
    for de in range(1, 7):
        for e in (e for e in range(1, de + 1) if de % e == 0):
            for r in (2, 3):
                if (de, r) != (1, 2) and imprimitive_order(de // e, e, r) <= 10_000:
                    out.append(GroupSpec.imprimitive(de // e, e, r))
    return out


CATALOG = [
    GroupSpec.exceptional(4),
    GroupSpec.exceptional(12),
    GroupSpec.coxeter("A", 3),
    GroupSpec.coxeter("B", 4),
    GroupSpec.coxeter("D", 4),
    GroupSpec.coxeter("I2", 5),
    GroupSpec.coxeter("I2", 8),
    GroupSpec.coxeter("I2", 17),  # K L = 578: tuple codes
    GroupSpec.imprimitive(3, 1, 3),
    GroupSpec.imprimitive(2, 2, 3),
]
SWEEP = _sweep_specs()
ROTATION = Matrix([[0, -1], [1, 0]])
SMALL = {
    "rotation": [ROTATION],
    "identity": [Matrix.identity(2)],
    "one reflection": [Matrix([[-1, 0], [0, 1]])],
    # the rotation's orbit of e_1 misses the roots of the two swaps
    "B2 from a rotation": [ROTATION, Matrix([[-1, 0], [0, 1]])],
}

CASES = {f"catalog {spec.label()}": spec for spec in CATALOG}
CASES.update({f"sweep {spec.label()}": spec for spec in SWEEP})
CASES.update(SMALL)


def test_the_sweep_has_27_groups():
    assert len(SWEEP) == 27


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    case = CASES[request.param]
    if isinstance(case, GroupSpec):
        g = build(case).group
    else:
        g = GroupModel.generate(case)
    return g, Reference(g)


def test_order_table_and_tree(pair):
    g, ref = pair
    assert g.order == len(ref.elements)
    assert [list(t) for t in g.table] == ref.table
    assert g.spanning_tree == ref.tree
    assert g.identity_index == 0


def test_rebuilt_matrices(pair):
    g, ref = pair
    assert list(g.elements) == ref.elements
    assert all(g.index[w] == i for i, w in enumerate(ref.elements))


def test_inverses(pair):
    g, ref = pair
    assert all(g.inverses[i] == ref.index[w.inverse()] for i, w in enumerate(ref.elements))


@pytest.mark.parametrize(
    "spec, kind",
    [(GroupSpec.imprimitive(6, 1, 3), bytes), (GroupSpec.coxeter("I2", 17), tuple)],
    ids=["G(6,1,3)", "I2(17)"],
)
def test_code_container(spec, kind):
    # one byte per line while every value K p + e fits a byte, else ints
    g = build(spec).group
    fits = len(g.lines.units) * len(g.lines.vectors) <= 256
    assert fits == (kind is bytes)
    assert all(type(code) is kind and len(code) == len(g.lines.vectors) for code in g.codes)


def test_classes(pair):
    g, ref = pair
    assert g.classes == ref.classes


def test_reflections(pair):
    g, ref = pair
    got = [(r.element, r.eigenvalue, r.alpha, r.root, r.order) for r in g.reflections]
    assert got == ref.reflections


def test_roots_hyperplanes_and_kappa(pair):
    g, ref = pair
    assert [g.lines.vectors[j] for j in g.root_lines] == ref.roots
    if not g.reflections:
        return
    arr = Arrangement.from_group(g)
    assert [h.alpha for h in arr.hyperplanes] == ref.alphas
    rep = a_indices(g, arr)
    assert rep.indices == ref.kappa_indices(ref.roots)
    assert rep.kappa == lcm(*rep.indices)


def test_b2_from_a_rotation_transports_the_missed_orbit():
    g = GroupModel.generate(SMALL["B2 from a rotation"])
    assert g.order == 8
    # the first closure runs on the coordinate lines; the diagonal roots,
    # of the other hyperplane orbit, are seeded in the second
    assert g.lines.roots == len(g.lines.vectors) == 4
    assert len(g.root_lines) == len(Arrangement.from_group(g)) == 4
    assert a_indices(g, Arrangement.from_group(g)).kappa == 2


def test_every_root_is_a_closure_line(pair):
    g, _ = pair
    root_lines = set(list(g.lines.index)[: g.lines.roots])
    assert all(r.root in root_lines for r in g.reflections)
    assert all(j < g.lines.roots for j in g.root_lines)


def test_a_closure_on_the_bootstrap_lines_alone_is_refused():
    g = GroupModel.generate(SMALL["B2 from a rotation"])
    # the reflection generator's root e_1 and its orbit only: the
    # coordinate lines, without the diagonal roots
    e_1 = (CycNum.one(), CycNum.zero())
    lines = LineSet.bootstrap(g.generators, [e_1], len(g.lines.units), g.order_bound)
    first = GroupModel._close(lines)
    assert len(first.lines.vectors) == 2
    # the same walk: indices, table and tree agree with the second closure
    assert first.table == g.table and first.spanning_tree == g.spanning_tree
    assert first.classes == g.classes and first.reflections == g.reflections
    with pytest.raises(ArithmeticError, match="is no closure line"):
        first.root_lines


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[1, 1], [0, 1]], "line orbit exceeded"),
        ([[2, 0], [0, Fraction(1, 2)]], "not a root of unity"),
    ],
    ids=["transvection", "diag(2, 1/2)"],
)
def test_infinite_groups_refused_on_the_lines(rows, reason):
    # both determinants are 1; the line orbit gives the group away
    # before the element closure could reach the order bound
    with pytest.raises(NotFiniteWithinBound, match=reason):
        GroupModel.generate([Matrix(rows)])


@pytest.mark.parametrize(
    "spec, order",
    [(GroupSpec.exceptional(4), 24), (GroupSpec.imprimitive(6, 1, 3), 1296)],
    ids=["G4", "G(6,1,3)"],
)
def test_generate_multiplies_no_matrices(spec, order, monkeypatch):
    gens = build(spec).group.generators

    def refuse(*args):
        raise AssertionError("matrix product in the closure")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(Matrix, "__pow__", refuse)
    assert GroupModel.generate(gens).order == order


def test_kappa_and_chi_build_few_matrices(monkeypatch):
    rebuilt = []
    matrix = GroupModel.matrix

    def counting(self, i):
        rebuilt.append(i)
        return matrix(self, i)

    monkeypatch.setattr(GroupModel, "matrix", counting)
    built = build(GroupSpec.imprimitive(6, 1, 3))
    g, arr = built.group, built.arrangement
    assert g.order == 1296
    assert a_indices(g, arr).kappa == 6
    assert chi(g, arr, 1).at(g.identity_index) == CycNum.rational(len(arr))
    # the build, kappa and chi read line data: no element's matrix at all
    assert rebuilt == []
    assert "elements" not in vars(g) and "index" not in vars(g)
