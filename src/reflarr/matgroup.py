"""Finite matrix groups over a cyclotomic field.

Breadth-first closure from generators, which records the Cayley table
(the index of x * s for every element x and generator s).  Matrices are
multiplied only by the closure: products, inverses, element orders,
conjugacy classes, the center and the reflection test all read the
table.  Also orbit-transported roots, the invariant hermitian form
built from them, and parabolic fixers.  Everything exact; structure
beyond the element list and the table is computed lazily.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclo import CycNum
from .linalg import Matrix, normalize_first_nonzero, nullspace, proportionality, vec_sum

DEFAULT_ORDER_BOUND = 10_000


class NotFiniteWithinBound(RuntimeError):
    pass


@dataclass(frozen=True)
class Reflection:
    """A reflection of the group: (n-1)-dimensional fixed space."""

    element: int  # index into GroupModel.elements
    eigenvalue: CycNum  # the nontrivial eigenvalue (a root of unity != 1)
    alpha: tuple  # linear form with kernel H, first nonzero coord 1
    root: tuple  # eigenvector for the nontrivial eigenvalue, normalized
    order: int  # order of the reflection itself


@dataclass(frozen=True)
class RootAction:
    """Row k sends the root r_i to ``units[exps[k][i]] * r_{perms[k][i]}``,
    ``units[e]`` = zeta_K^e in the group's field Q(zeta_k), K = lcm(2, k).
    One row per generator in :attr:`GroupModel.root_lines`, per element
    in :attr:`reflarr.arrangement.Arrangement.root_action`."""

    perms: tuple
    exps: tuple  # one array('I') of exponents mod K per row
    units: tuple


class GroupModel:
    """A finite matrix group: the closed element list, its Cayley table
    and the structure read from that table."""

    def __init__(self, generators, elements, table, spanning_tree, order_bound=DEFAULT_ORDER_BOUND):
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        # table[s][x] is the index of elements[x] * generators[s]
        self.table = table
        # (parents, steps): elements[k] = elements[parents[k]] *
        # generators[steps[k]] for k > 0; elements[0] is the identity
        self.spanning_tree = spanning_tree
        self.order_bound = order_bound
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity_index = self.index[Matrix.identity(self.dim)]

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    # -- construction ------------------------------------------------

    @staticmethod
    def generate(generators, order_bound=DEFAULT_ORDER_BOUND) -> "GroupModel":
        """Breadth-first closure, in the one field Q(zeta_K) (K the lcm of
        the entries' orders) so that equal elements hash equally.  A
        generator whose determinant is no root of unity is refused first.
        Every product x * s (x an element, s a generator) is formed once,
        here, and kept in the Cayley table.
        """
        generators = [g if isinstance(g, Matrix) else Matrix(g) for g in generators]
        if not generators:
            raise ValueError("need at least one generator")
        k = lcm(*(x.order for g in generators for row in g.rows for x in row))
        generators = [Matrix([[x.lift(k) for x in row] for row in g.rows]) for g in generators]
        n = generators[0].dim
        for i, g in enumerate(generators):
            if g.dim != n:
                raise ValueError("generators of mixed dimension")
            det = g.det()
            if det.is_zero():
                raise ValueError("non-invertible generator")
            if det.as_root_of_unity() is None:
                raise NotFiniteWithinBound(
                    f"generator {i} has determinant {det!r}, not a root of unity, "
                    "so the group is infinite"
                )
        ident = Matrix.identity(n)
        seen = {ident: 0}
        elements = [ident]
        parents, steps = [None], [None]
        table = tuple(array("I") for _ in generators)
        # elements is also the breadth-first queue: it grows while walked
        for xi, x in enumerate(elements):
            for gi, g in enumerate(generators):
                y = x * g
                if y not in seen:
                    seen[y] = len(elements)
                    elements.append(y)
                    parents.append(xi)
                    steps.append(gi)
                    if len(elements) > order_bound:
                        raise NotFiniteWithinBound(
                            f"closure exceeded order bound {order_bound}"
                        )
                table[gi].append(seen[y])
        return GroupModel(
            generators, elements, table, (tuple(parents), tuple(steps)), order_bound
        )

    # -- products and inverses ---------------------------------------

    def _word(self, j: int) -> list:
        """Generator indices s_1..s_m with elements[j] = g_{s_1} ... g_{s_m}."""
        parents, steps = self.spanning_tree
        word = []
        while parents[j] is not None:
            word.append(steps[j])
            j = parents[j]
        return word[::-1]

    def _times(self, i: int, word) -> int:
        """Index of elements[i] * g_{s_1} ... g_{s_m} for word = s_1..s_m."""
        for s in word:
            i = self.table[s][i]
        return i

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        return self._times(i, self._word(j))

    def _powers(self, i: int) -> list:
        """Indices of x^0, x^1, ..., x^(k-1) for x = elements[i] of order k."""
        word, powers = self._word(i), [self.identity_index, i]
        while powers[-1] != self.identity_index:
            powers.append(self._times(powers[-1], word))
        return powers[:-1]

    def element_order(self, i: int) -> int:
        return len(self._powers(i))

    @cached_property
    def inverses(self) -> tuple:
        inv = [None] * self.order
        for i in range(self.order):
            if inv[i] is None:
                powers = self._powers(i)
                for k, p in enumerate(powers):
                    inv[p] = powers[-k]  # x^k has inverse x^(order - k)
        return tuple(inv)

    # -- conjugacy structure -----------------------------------------

    @cached_property
    def classes(self) -> tuple:
        """Partition of element indices into conjugacy classes.

        Classes are ordered by their smallest element index, so the
        identity class comes first.
        """
        gen_idx = [t[self.identity_index] for t in self.table]
        gen_inv = [self.inverses[i] for i in gen_idx]
        assigned = [None] * self.order
        classes = []
        for start in range(self.order):
            if assigned[start] is not None:
                continue
            cls = [start]
            assigned[start] = len(classes)
            frontier = [start]
            while frontier:
                nxt = []
                for x in frontier:
                    for g, gi in zip(gen_idx, gen_inv):
                        y = self.mul(self.mul(g, x), gi)
                        if assigned[y] is None:
                            assigned[y] = len(classes)
                            cls.append(y)
                            nxt.append(y)
                frontier = nxt
            classes.append(tuple(sorted(cls)))
        return tuple(classes)

    @cached_property
    def class_of(self) -> tuple:
        """Index into classes of each element's conjugacy class."""
        out = [0] * self.order
        for k, cls in enumerate(self.classes):
            for i in cls:
                out[i] = k
        return tuple(out)

    @cached_property
    def center(self) -> tuple:
        """Indices of the central elements: the singleton classes."""
        return tuple(cls[0] for cls in self.classes if len(cls) == 1)

    # -- reflections -------------------------------------------------

    @cached_property
    def reflections(self) -> tuple:
        """All reflections with their hyperplane data, by element index.

        Being a reflection, the eigenvalue and the order are class
        invariants, so rank(w - 1) = 1 is tested on one element per
        class; form and root are computed for every reflection.
        """
        n = self.dim
        ident = Matrix.identity(n)
        per_class = {}
        for k, cls in enumerate(self.classes):
            w = self.elements[cls[0]]
            if (w - ident).rank() == 1:
                per_class[k] = (w.det(), self.element_order(cls[0]))
        raw = []
        # element-index order fixes the order of the hyperplanes
        for i, k in enumerate(self.class_of):
            if k not in per_class:
                continue
            w = self.elements[i]
            ev, order = per_class[k]
            # w - 1 has rank 1: its first nonzero row is a form for H
            alpha = next(filter(None, map(normalize_first_nonzero, (w - ident).rows)))
            root = normalize_first_nonzero(nullspace((w - ident.scale(ev)).rows, n)[0])
            raw.append(Reflection(element=i, eigenvalue=ev, alpha=alpha, root=root, order=order))
        return tuple(raw)

    # -- roots and the invariant form --------------------------------

    @cached_property
    def root_lines(self) -> tuple:
        """(roots, RootAction of the generators): per reflecting hyperplane,
        by first reflection, r_H = the normalized root at each orbit's
        first H, then r_{s(H)} := s r_H breadth first.  With r_H = u_H r_0,
        u_{w(H)}^-1 w u_H fixes the line of r_0, so w r_H is a root of
        unity times r_{w(H)}.  Images are found by their normalized root.
        """
        k = self.generators[0].rows[0][0].order  # generate lifted all to Q(zeta_k)
        z = CycNum.zeta(k) if k % 2 == 0 else -CycNum.zeta(k, (k + 1) // 2)  # zeta_2k if k odd
        exponent = {z**e: e for e in range(lcm(2, k))}  # the units, in order
        index = {}
        for r in self.reflections:
            index.setdefault(r.root, len(index))
        roots = [None] * len(index)
        perms = [[0] * len(index) for _ in self.generators]
        exps = [array("I", [0]) * len(index) for _ in self.generators]
        for seed, line in enumerate(index):
            if roots[seed] is None:
                roots[seed], orbit = line, [seed]
                for i in orbit:  # the orbit grows while walked: breadth first
                    for s, gen in enumerate(self.generators):
                        img = gen.matvec(roots[i])
                        j = index[normalize_first_nonzero(img)]
                        if roots[j] is None:
                            roots[j] = img
                            orbit.append(j)
                        c = proportionality(img, roots[j])
                        if c not in exponent:
                            raise ArithmeticError(f"generator {s}: {c!r} is no root of unity")
                        perms[s][i], exps[s][i] = j, exponent[c]
        return tuple(roots), RootAction(tuple(map(tuple, perms)), tuple(exps), tuple(exponent))

    @cached_property
    def invariant_hermitian_form(self) -> Matrix:
        """F = M^-1, M = sum_H r_H r_H^* + sum_u u u^*, so w^* F w = F.

        r_H runs over the transported roots, u over a basis of V^W; w r_H
        is a root of unity times r_{w(H)} and w u = u, so w M w^* = M.  A
        sum of v v^*, M is positive definite in every complex embedding
        when those v span V, as they do for a group generated by reflections.
        """
        n, ident = self.dim, Matrix.identity(self.dim)
        fixed = nullspace([row for s in self.generators for row in (s - ident).rows], n)
        vecs = [*self.root_lines[0], *fixed]
        m = Matrix([[vec_sum(v[i] * v[j].conjugate() for v in vecs) for j in range(n)]
                    for i in range(n)])
        if m.det().is_zero():
            raise ValueError("the group is not generated by reflections: roots and V^W do not span")
        return m.inverse()

    # -- parabolic subgroups -----------------------------------------

    def parabolic_fixer(self, v) -> "GroupModel":
        """The subgroup fixing the vector v pointwise."""
        v = tuple(x if isinstance(x, CycNum) else CycNum.rational(x) for x in v)
        if all(x.is_zero() for x in v):
            raise ValueError("fixer of the zero vector is the whole group")
        fixed = {i for i, w in enumerate(self.elements) if w.matvec(v) == v}
        gens = [self.elements[r.element] for r in self.reflections if r.element in fixed]
        sub = GroupModel.generate(gens or [Matrix.identity(self.dim)], self.order_bound)
        if sub.order != len(fixed):
            # Steinberg: a reflection group's fixers are generated by the
            # reflections they contain
            raise ArithmeticError("the fixer is not generated by its reflections")
        return sub

