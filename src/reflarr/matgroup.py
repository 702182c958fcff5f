"""Finite matrix groups over a cyclotomic field, closed on line data.

The generators permute a finite set of lines up to roots of unity
(:class:`reflarr.lines.LineSet`): the orbits of the reflection
generators' roots, plus standard basis orbits while those lines and V^W
do not span V.  When some generator is no reflection and a root orbit
is missed, the closure runs once more with that orbit seeded, so every
root line is a closure line.  An element w is then the pair (p, e)
with w v_i = zeta_K^e(i) v_p(i), K = lcm(2, k) for the field
Q(zeta_k), and the pair determines w (Lehrer-Taylor, Unitary
Reflection Groups, ch. 1-2; Holt-Eick-O'Brien, Handbook of
Computational Group Theory, 4.1).  Each element is stored as the code
of its inverse, one value K p(i) + e(i) per line: since (x s)^-1 =
s^-1 x^-1, the breadth-first closure forms x * s by mapping x's code
value by value through one table per generator, one
``bytes.translate`` call when every value fits a byte, never
multiplying matrices.  It records the Cayley table (the index of x * s
for every element x and generator s) and its spanning tree.  Products,
element orders and the center read the table, inverses invert each
code once, and conjugacy classes read the table and the inverses:
integers only.

Matrices exist on demand only: M_w = C_w B^-1, where B has a basis of
lines and of V^W as columns and C_w their images under w.  The
reflection test reads C_w - B = (w - 1) B on one element per class,
where the eigenvalue and order are read too; a reflection's root is
the closure line it scales, when there is one, and each hyperplane's
form comes from the same columns once.  The root lines are the closure
lines of the hyperplanes, so an element's code is also its row
w r_H = zeta_K^e r_{w(H)} on the roots.  Also the invariant hermitian
form built from the roots, and parabolic fixers.  Everything exact;
structure beyond the closure is computed lazily.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclo import CycNum
from .linalg import Matrix, normalize_first_nonzero, scale_vec, vec_sum
from .lines import LineSet, NotFiniteWithinBound

DEFAULT_ORDER_BOUND = 10_000


@dataclass(frozen=True)
class Reflection:
    """A reflection of the group: (n-1)-dimensional fixed space."""

    element: int  # element index, as in GroupModel.table
    eigenvalue: CycNum  # the nontrivial eigenvalue (a root of unity != 1)
    alpha: tuple  # linear form with kernel H, first nonzero coord 1
    root: tuple  # eigenvector for the nontrivial eigenvalue, normalized
    order: int  # order of the reflection itself


def _proportional(u, v) -> bool:
    """u and v (v nonzero) are proportional: every 2x2 minor vanishes."""
    t = next(i for i, x in enumerate(v) if not x.is_zero())
    return all(x * v[t] == y * u[t] for x, y in zip(u, v))


def _gather(code, image) -> tuple:
    """The tuple code mapped value by value through ``image``."""
    return tuple(map(image, code))


class GroupModel:
    """A finite matrix group: its lines, each element's action on them,
    the Cayley table and the structure read from that table."""

    def __init__(self, generators, lines: LineSet, code_index, table, spanning_tree,
                 order_bound=DEFAULT_ORDER_BOUND):
        self.generators = tuple(generators)
        self.lines = lines  # what the codes refer to, with the generators' rows
        # code_index: the closure's dict codes[x] -> x, in index order, with
        # codes[x] the code of elements[x]^-1: codes[x][i] = K p(i) + e(i)
        # for elements[x]^-1 v_i = zeta_K^e(i) v_p(i), as bytes when every
        # value K L (L lines) fits a byte, else as a tuple of ints
        self.code_index = code_index
        self.codes = tuple(code_index)
        # table[s][x] is the index of elements[x] * generators[s]
        self.table = table
        # (parents, steps): elements[k] = elements[parents[k]] *
        # generators[steps[k]] for k > 0; elements[0] is the identity
        self.spanning_tree = spanning_tree
        self.order_bound = order_bound
        self.identity_index = 0
        self._columns = {}  # (b, code) -> w v_b - v_b, see _moved

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self):
        return len(self.codes)

    # -- construction ------------------------------------------------

    @staticmethod
    def generate(generators, order_bound=DEFAULT_ORDER_BOUND) -> "GroupModel":
        """Breadth-first closure on line data, in the one field Q(zeta_k)
        (k the lcm of the entries' orders).  A generator whose
        determinant is no root of unity is refused first.

        The lines are the orbits of the reflection generators' roots,
        plus standard basis orbits while they and V^W do not span V.
        Every hyperplane orbit of a group generated by reflections
        contains a generator's hyperplane (Broue-Malle-Rouquier, J. reine
        angew. Math. 500 (1998)), so every root is then a closure line.
        When some generator is no reflection, the reflections of that
        closure are read and, if a root lies on none of its root-orbit
        lines, the group is closed once more with those orbits seeded
        after the generators' roots: the same breadth-first walk, with
        the same element indices, table and tree.
        """
        generators = [g if isinstance(g, Matrix) else Matrix(g) for g in generators]
        if not generators:
            raise ValueError("need at least one generator")
        k = lcm(*(x.order for g in generators for row in g.rows for x in row))
        generators = [Matrix([[x.lift(k) for x in row] for row in g.rows]) for g in generators]
        n = generators[0].dim
        ident, roots = Matrix.identity(n), []
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
            d = g - ident  # a reflection's root spans the image of g - 1
            if d.rank() == 1 and det != CycNum.one():
                roots.append(next(c for c in zip(*d.rows) if any(not x.is_zero() for x in c)))
        group = GroupModel._close(LineSet.bootstrap(generators, roots, k, order_bound))
        if len(roots) < len(generators):
            lines = group.lines
            present = set(list(lines.index)[:lines.roots])
            missing = [r.root for r in group.reflections if r.root not in present]
            if missing:
                group = GroupModel._close(
                    LineSet.bootstrap(generators, roots + missing, k, order_bound)
                )
        return group

    @staticmethod
    def _close(lines: LineSet) -> "GroupModel":
        """The breadth-first closure of lines.generators on the lines.

        Each element x is kept by the code u_x of its inverse.  Since
        (x s)^-1 = s^-1 x^-1, and s^-1 sends each code value K p + e on
        its own to K pi(p) + (e + eps(p)) mod K, (pi, eps) the row of
        s^-1, u_{x s} is u_x mapped value by value through one table
        per generator: ``bytes.translate`` when every value K L (L
        lines) fits a byte, else a tuple gather.  Every product x * s
        is formed once, here, and kept in the Cayley table.
        """
        generators, order_bound = lines.generators, lines.bound
        mod, size = len(lines.units), len(lines.units) * len(lines.vectors)
        maps = []
        for perm, exps in zip(lines.perms, lines.exps):
            # s v_i = zeta_K^e v_j gives s^-1 v_j = zeta_K^-e v_i
            t = [0] * size
            for i, (j, e) in enumerate(zip(perm, exps)):
                for f in range(mod):
                    t[mod * j + f] = mod * i + (f - e) % mod
            maps.append(t)
        if size <= 256:
            maps = [bytes(t + list(range(size, 256))) for t in maps]
            step, kind = bytes.translate, bytes
        else:
            maps = [t.__getitem__ for t in maps]
            step, kind = _gather, tuple
        ident = kind(range(0, size, mod))
        seen = {ident: 0}
        codes = [ident]
        parents, steps = [None], [None]
        table = tuple(array("I") for _ in generators)
        moves = tuple(zip(maps, (t.append for t in table)))
        # codes is also the breadth-first queue: it grows while walked
        for xi, x in enumerate(codes):
            for gi, (t, record) in enumerate(moves):
                y = step(x, t)
                yi = seen.get(y)
                if yi is None:
                    yi = seen[y] = len(codes)
                    codes.append(y)
                    parents.append(xi)
                    steps.append(gi)
                    if len(codes) > order_bound:
                        raise NotFiniteWithinBound(
                            f"closure exceeded order bound {order_bound}"
                        )
                record(yi)
        return GroupModel(
            generators, lines, seen, table, (tuple(parents), tuple(steps)), order_bound
        )

    # -- matrices on demand ------------------------------------------

    @cached_property
    def _basis_inverse(self) -> Matrix:
        """B^-1, B the matrix of columns v_b (b in lines.basis), then V^W."""
        cols = [self.lines.vectors[b] for b in self.lines.basis]
        return Matrix(list(zip(*cols, *self.lines.fixed))).inverse()

    def _code(self, i: int):
        """The code of elements[i] itself: the stored code of its inverse."""
        return self.codes[self.inverses[i]]

    def _image(self, i: int, b: int) -> tuple:
        """w v_b for w = elements[i]."""
        units = self.lines.units
        p, e = divmod(self._code(i)[b], len(units))
        v = self.lines.vectors[p]
        return v if e == 0 else scale_vec(units[e], v)

    def matrix(self, i: int) -> Matrix:
        """elements[i], rebuilt from its line data as C_w B^-1."""
        cols = [self._image(i, b) for b in self.lines.basis]
        return Matrix(list(zip(*cols, *self.lines.fixed))) * self._basis_inverse

    @cached_property
    def elements(self) -> tuple:
        """Every element's matrix, by index: an on-demand view that builds
        |W| matrices, for tests and the matrix-side checks."""
        return tuple(self.matrix(i) for i in range(self.order))

    @cached_property
    def index(self) -> dict:
        """The element index of each matrix in :attr:`elements`."""
        return {m: i for i, m in enumerate(self.elements)}

    # -- products and inverses ---------------------------------------

    def word(self, j: int) -> list:
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
        return self._times(i, self.word(j))

    def element_order(self, i: int) -> int:
        word, x, k = self.word(i), i, 1
        while x != self.identity_index:
            x, k = self._times(x, word), k + 1
        return k

    @cached_property
    def inverses(self) -> tuple:
        """Each element's inverse, once per pair (w, w^-1): the stored code
        of w is that of w^-1, and inverting it gives the code of w, which
        is stored for w^-1.  u v_i = zeta_K^e v_p gives u^-1 v_p =
        zeta_K^-e v_i, so code value c at i puts K i + (-e mod K) at line
        p = c // K, and the result is looked up in code_index."""
        mod, n = len(self.lines.units), len(self.lines.vectors)
        line, neg = [c // mod for c in range(mod * n)], [-c % mod for c in range(mod * n)]
        starts, index = range(0, mod * n, mod), self.code_index
        kind = type(self.codes[0])  # bytes or tuple, as generate chose
        inv, out = [None] * self.order, [0] * n
        for x, code in enumerate(self.codes):
            if inv[x] is None:
                for k, c in zip(starts, code):
                    out[line[c]] = k + neg[c]
                y = index[kind(out)]
                inv[x], inv[y] = y, x
        return tuple(inv)

    # -- conjugacy structure -----------------------------------------

    @cached_property
    def classes(self) -> tuple:
        """Partition of element indices into conjugacy classes.

        Classes are ordered by their smallest element index, so the
        identity class comes first.  The conjugate s^-1 x s is integer
        lookups only: s^-1 x = (x^-1 s)^-1, so it is
        table[s][inv[table[s][inv[x]]]].
        """
        inv = self.inverses
        assigned = [False] * self.order
        classes = []
        for start in range(self.order):
            if assigned[start]:
                continue
            cls = [start]
            assigned[start] = True
            for x in cls:  # cls is also the breadth-first queue
                for right in self.table:
                    y = right[inv[right[inv[x]]]]
                    if not assigned[y]:
                        assigned[y] = True
                        cls.append(y)
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

    def _moved(self, i: int) -> list:
        """(k, w v_b - v_b) for each line v_b of B, at column k, that
        w = elements[i] does not fix: the nonzero columns of
        C_w - B = (w - 1) B."""
        code, mod = self._code(i), len(self.lines.units)
        out = []
        for k, b in enumerate(self.lines.basis):
            if code[b] != b * mod:
                d = self._columns.get((b, code[b]))
                if d is None:  # a column depends on b and w v_b alone
                    img, v = self._image(i, b), self.lines.vectors[b]
                    d = self._columns[b, code[b]] = tuple(x - y for x, y in zip(img, v))
                out.append((k, d))
        return out

    @cached_property
    def reflections(self) -> tuple:
        """All reflections with their hyperplane data, by element index.

        D = C_w - B = (w - 1) B has the rank of w - 1, so being a
        reflection (D of rank 1) is tested on one element per class, and
        the eigenvalue and order, class invariants, are read there too.
        A reflection scales the line of its root and no other line, so a
        root on a closure line is the one line i with p(i) = i and
        e(i) != 0 (in its stored code as in its own), whose normalized
        vector is a key of ``lines.index``; any other root spans the
        columns of D.  With the root r normalized at coordinate t, row t
        of D is the c with w - 1 = r (c B^-1), so alpha is c B^-1
        normalized, once per root line, and the eigenvalue is
        1 + (c B^-1) r.
        """
        mod, keys = len(self.lines.units), tuple(self.lines.index)  # keys in line order
        b_inv_t = self._basis_inverse.transpose()
        zero = CycNum.zero()

        def root_of(i):
            for j, c in enumerate(self.codes[i]):
                if c // mod == j and c % mod:
                    return keys[j]
            return normalize_first_nonzero(self._moved(i)[0][1])

        def form_of(i, root):  # c B^-1
            t = next(j for j, x in enumerate(root) if not x.is_zero())
            c = [zero] * self.dim
            for col, d in self._moved(i):
                c[col] = d[t]
            return b_inv_t.matvec(c)

        per_class, alphas = {}, {}  # class -> (eigenvalue, order); root -> alpha
        for k, cls in enumerate(self.classes):
            moved = [d for _, d in self._moved(cls[0])]
            if moved and all(_proportional(d, moved[0]) for d in moved[1:]):
                root = root_of(cls[0])
                form = form_of(cls[0], root)
                if root not in alphas:
                    alphas[root] = normalize_first_nonzero(form)
                eigenvalue = 1 + vec_sum(a * x for a, x in zip(form, root))
                per_class[k] = eigenvalue, self.element_order(cls[0])
        raw = []
        # element-index order fixes the order of the hyperplanes
        for i, k in enumerate(self.class_of):
            if k not in per_class:
                continue
            root = root_of(i)
            alpha = alphas.get(root)
            if alpha is None:
                alpha = alphas[root] = normalize_first_nonzero(form_of(i, root))
            eigenvalue, order = per_class[k]
            raw.append(Reflection(
                element=i, eigenvalue=eigenvalue, alpha=alpha, root=root, order=order
            ))
        return tuple(raw)

    # -- roots and the invariant form --------------------------------

    @cached_property
    def root_lines(self) -> tuple:
        """The closure line of each reflecting hyperplane, by first
        reflection.  Its vector r_H is the root transported along the
        generators from the first H of its orbit, so w r_H =
        zeta_K^e r_{w(H)} with e and the line of w(H) read from w's
        code (:meth:`_row`).  A root that is no closure line is refused."""
        index, out = self.lines.index, {}
        for r in self.reflections:
            j = index.get(r.root)
            if j is None:
                raise ArithmeticError(f"the root of reflection {r.element} is no closure line")
            out[j] = None
        return tuple(out)

    def _row(self, i: int, pos: dict) -> tuple:
        """The row (perm, exps) of w = elements[i] on the closure lines
        that pos numbers 0, 1, ... (a union of line orbits): w v_l =
        zeta_K^e v_p, code value K p + e at the line l numbered h, gives
        perm[h] = pos[p] and exps[h] = e."""
        code, mod = self._code(i), len(self.lines.units)
        values = [code[line] for line in pos]
        return tuple(pos[c // mod] for c in values), tuple(c % mod for c in values)

    @cached_property
    def invariant_hermitian_form(self) -> Matrix:
        """F = M^-1, M = sum_H r_H r_H^* + sum_u u u^*, so w^* F w = F.

        r_H runs over the root lines' vectors, u over a basis of V^W; w r_H
        is a root of unity times r_{w(H)} and w u = u, so w M w^* = M.  A
        sum of v v^*, M is positive definite in every complex embedding
        when those v span V, as they do for a group generated by reflections.
        """
        n = self.dim
        vecs = [*(self.lines.vectors[j] for j in self.root_lines), *self.lines.fixed]
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
