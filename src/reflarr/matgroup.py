"""Finite matrix groups over a cyclotomic field.

Breadth-first closure from generators, conjugacy classes, center,
reflection detection, the invariant hermitian form, and parabolic
fixers.  Everything exact; conjugacy classes and the invariant form are
computed lazily since the big sweeps only need the raw element list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from math import lcm

from .cyclo import CycNum
from .linalg import Matrix, normalize_first_nonzero, nullspace

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
    distinguished: bool = False


class GroupModel:
    """A finite matrix group, closed element list plus lazy structure."""

    def __init__(self, generators, elements, spanning_tree, order_bound=DEFAULT_ORDER_BOUND):
        self.generators = tuple(generators)
        self.elements = tuple(elements)
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
        return GroupModel(generators, elements, (tuple(parents), tuple(steps)), order_bound)

    # -- products and inverses ---------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.index[self.elements[i] * self.elements[j]]

    def element_order(self, i: int) -> int:
        x = self.elements[i]
        p, k = x, 1
        while not p.is_identity():
            p = p * x
            k += 1
        return k

    @cached_property
    def inverses(self) -> tuple:
        inv = [None] * self.order
        for i, x in enumerate(self.elements):
            if inv[i] is not None:
                continue
            j = self.index[x ** (self.element_order(i) - 1)]
            inv[i], inv[j] = j, i
        return tuple(inv)

    def inverse_index(self, i: int) -> int:
        return self.inverses[i]

    # -- conjugacy structure -----------------------------------------

    @cached_property
    def classes(self) -> tuple:
        """Partition of element indices into conjugacy classes.

        Classes are ordered by their smallest element index, so the
        identity class comes first.
        """
        gen_idx = [self.index[g] for g in self.generators]
        gen_inv = [self.inverse_index(i) for i in gen_idx]
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

    def conjugacy_class_of(self, i: int) -> int:
        return self.class_of[i]

    @cached_property
    def center(self) -> tuple:
        """Indices of elements commuting with every generator."""
        return tuple(
            i
            for i, x in enumerate(self.elements)
            if all(x * g == g * x for g in self.generators)
        )

    # -- reflections -------------------------------------------------

    @cached_property
    def reflections(self) -> tuple:
        """All reflections, with hyperplane data and distinguished flags."""
        n = self.dim
        ident = Matrix.identity(n)
        raw = []
        for i, w in enumerate(self.elements):
            if i == self.identity_index:
                continue
            reduced_rows = [r for r in (w - ident).rows if any(not x.is_zero() for x in r)]
            if not reduced_rows:
                continue
            alpha = normalize_first_nonzero(reduced_rows[0])
            if any(
                normalize_first_nonzero(r) != alpha for r in reduced_rows[1:]
            ):
                continue  # rank > 1: not a reflection
            ev = w.det()
            shifted = (w - ident.scale(ev)).rows
            root = normalize_first_nonzero(nullspace(shifted, n)[0])
            raw.append(
                Reflection(
                    element=i,
                    eigenvalue=ev,
                    alpha=alpha,
                    root=root,
                    order=self.element_order(i),
                )
            )
        # d_H - 1 reflections share the hyperplane H; the distinguished
        # one has eigenvalue exp(2 pi i / d_H)
        per_alpha = Counter(r.alpha for r in raw)
        return tuple(
            replace(r, distinguished=r.eigenvalue == CycNum.zeta(per_alpha[r.alpha] + 1))
            for r in raw
        )

    # -- invariant form ----------------------------------------------

    @cached_property
    def invariant_hermitian_form(self) -> Matrix:
        """The averaged form F with w*^T F w = F for all w, scaled by |W|."""
        n = self.dim
        acc = None
        for w in self.elements:
            t = w.conj_transpose() * w
            acc = t if acc is None else acc + t
        if acc.conj_transpose() != acc:
            raise ArithmeticError("averaged form is not hermitian")
        self._check_positive_definite(acc)
        return acc

    @staticmethod
    def _check_positive_definite(f: Matrix):
        n = f.dim
        for k in range(1, n + 1):
            minor = Matrix([row[:k] for row in f.rows[:k]]).det()
            if not minor.is_rational():
                raise ArithmeticError(
                    f"leading minor {k} is not rational; cannot certify exactly"
                )
            if minor.as_fraction() <= 0:
                raise ArithmeticError(f"leading minor {k} is not positive")

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

    def is_subgroup_closed(self) -> bool:
        """Spot-check closure on all pairs (used by tests on small groups)."""
        return all(
            self.elements[i] * self.elements[j] in self.index
            for i in range(self.order)
            for j in range(self.order)
        )
