"""Reflection arrangements: hyperplanes with forms, roots and orders,
the group's monomial action on the root lines, W-orbits, essentiality
and irreducibility via the root graph, and intersection-lattice
Poincare polynomials.

The group is closed on integer line data (:mod:`reflarr.matgroup`), and
the arrangement reads it without matrices.  Hyperplanes, roots and
distinguished reflections come from the group's reflections, each
hyperplane's root from its closure line (:attr:`GroupModel.root_lines`).
The action w.r_H = zeta_K^e r_{w(H)} is read from w's code on those
lines (:meth:`Arrangement.row`).  Eigenvalues on fixed root lines are
class invariants, so kappa and chi_n (through the per-class fixed-line
counts) read one row per conjugacy class (:attr:`Arrangement.class_rows`);
the Coxeter sign model and monodromy read the rows they need, and the
orbits are those of the generators' rows.  Essentiality and
irreducibility are computed once per arrangement.  The root graph needs
no form: r_j is orthogonal to r_i exactly when the reflection of H_i
fixes r_j, so it is read from one reflection row per orbit.

A flat of the intersection lattice is the intersection of the
hyperplanes that contain it, so it is stored as the integer bitmask of
those hyperplanes (Orlik-Terao, Arrangements of Hyperplanes, 2.1-2.3).
The covers of a flat are read from the residues of the other forms
modulo its own, with no row reduction per cover; the order X <= Y and
the Mobius function then run on mask inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclo import CycNum
from .linalg import (
    Matrix,
    dot,
    normalize_first_nonzero,
    proportionality,
    rank,
    rref,
    solve,
)
from .matgroup import GroupModel

POINCARE_MAX_HYPERPLANES = 12


@dataclass(frozen=True)
class Hyperplane:
    alpha: tuple  # linear form with kernel H, first nonzero coord 1
    root: tuple  # spans the F-orthogonal line; for a group, orbit-transported
    d: int  # order of the pointwise fixer of H
    distinguished_reflection: int | None  # element index, None if standalone


class Arrangement:
    """A central hyperplane arrangement, possibly tied to a group."""

    def __init__(self, dim, hyperplanes, group: GroupModel | None = None):
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)
        self.group = group

    def __len__(self):
        return len(self.hyperplanes)

    # -- construction ------------------------------------------------

    @staticmethod
    def from_group(g: GroupModel) -> "Arrangement":
        """Extract (A, d) from the reflections of a finite group."""
        by_alpha: dict[tuple, list] = {}
        for r in g.reflections:
            by_alpha.setdefault(r.alpha, []).append(r)
        # d_H - 1 reflections share H, the distinguished one has eigenvalue
        # exp(2 pi i / d_H); by_alpha and root_lines order H alike
        hyps = []
        for (alpha, refs), line in zip(by_alpha.items(), g.root_lines):
            d = len(refs) + 1
            z = CycNum.zeta(d)
            hyps.append(Hyperplane(
                alpha=alpha,
                root=g.lines.vectors[line],
                d=d,
                distinguished_reflection=next((r.element for r in refs if r.eigenvalue == z), None),
            ))
        return Arrangement(g.dim, hyps, group=g)

    @staticmethod
    def from_covectors(covectors, dim=None) -> "Arrangement":
        """A standalone arrangement from linear forms (standard form, d=2)."""
        covs = [
            tuple(x if isinstance(x, CycNum) else CycNum.rational(x) for x in c)
            for c in covectors
        ]
        if dim is None:
            if not covs:
                raise ValueError("no covectors and no dimension")
            dim = len(covs[0])
        hyps, seen = [], {}  # alpha -> index of its first covector
        for k, c in enumerate(covs):
            if len(c) != dim:
                raise ValueError(f"covector of length {len(c)} in dimension {dim}")
            alpha = normalize_first_nonzero(c)
            if alpha is None:
                raise ValueError(f"covector {k} is zero")
            if alpha in seen:
                raise ValueError(f"covector {k} defines the same hyperplane as covector {seen[alpha]}")
            seen[alpha] = k
            # root of H is the standard-form orthogonal: conj(alpha)
            root = normalize_first_nonzero(tuple(x.conjugate() for x in alpha))
            hyps.append(Hyperplane(alpha=alpha, root=root, d=2, distinguished_reflection=None))
        return Arrangement(dim, hyps)

    # -- group action ------------------------------------------------

    def hyperplane_of_root(self, vec) -> int | None:
        """Index of the hyperplane whose root is proportional to vec."""
        for i, h in enumerate(self.hyperplanes):
            if proportionality(vec, h.root) is not None:
                return i
        return None

    @cached_property
    def _positions(self) -> dict:
        """The group's closure line of each hyperplane's root -> the
        hyperplane's index.  A sub-arrangement that some generator does
        not map onto itself is refused here, so every row is a
        permutation of the arrangement."""
        g = self.group
        if g is None:
            raise ValueError("a standalone arrangement has no group action")
        line_of = {g.lines.vectors[j]: j for j in g.root_lines}
        pos = {line_of[h.root]: i for i, h in enumerate(self.hyperplanes)}
        mod = len(g.lines.units)
        if any(g._code(t[g.identity_index])[j] // mod not in pos for t in g.table for j in pos):
            raise ArithmeticError("group element does not permute the arrangement")
        return pos

    def require_group(self, g: GroupModel) -> None:
        """Refuse any group but the arrangement's own."""
        if self.group is not g:
            raise ValueError("the arrangement belongs to a different group")

    @property
    def units(self) -> tuple:
        """units[e] = zeta_K^e, the scalars of the rows."""
        return self.group.lines.units

    def row(self, w: int) -> tuple:
        """(perm, exps) with w.r_i = units[exps[i]] r_{perm[i]} for
        w = elements[w], read from w's code on the hyperplanes' lines."""
        return self.group._row(w, self._positions)

    @cached_property
    def generator_perms(self) -> tuple:
        """The generators' permutations of the hyperplanes: their rows'."""
        g = self.group
        return tuple(self.row(t[g.identity_index])[0] for t in g.table)

    @cached_property
    def class_rows(self) -> tuple:
        """The row of each conjugacy class's first element, in class order."""
        return tuple(map(self.row, (cls[0] for cls in self.group.classes)))

    @cached_property
    def fixed_line_counts(self) -> tuple:
        """Per conjugacy class of the group, by its first element w: the
        (e, count) pairs, e ascending, counting the root lines that w
        fixes with scalar zeta_K^e.  They do not depend on n, so chi_n
        only sums units over them."""
        out = []
        for perm, exps in self.class_rows:
            counts = [0] * len(self.units)
            for i, (j, e) in enumerate(zip(perm, exps)):
                if i == j:
                    counts[e] += 1
            out.append(tuple((e, c) for e, c in enumerate(counts) if c))
        return tuple(out)

    def image_hyperplane(self, w: Matrix, i: int) -> int | None:
        """w(H_i) as a hyperplane index, for a matrix w that permutes the
        hyperplanes (None if w does not): the hyperplane of w r_i."""
        return self.hyperplane_of_root(w.matvec(self.hyperplanes[i].root))

    @cached_property
    def orbits(self) -> tuple:
        """Partition of hyperplane indices under the group action: the
        orbits of the generator permutations."""
        if self.group is None:
            return tuple((i,) for i in range(len(self)))
        perms = self.generator_perms
        return tuple(map(tuple, _components(len(self), lambda j: {p[j] for p in perms})))

    # -- essentiality and irreducibility -----------------------------

    def is_essential(self) -> bool:
        return self._essential

    @cached_property
    def _essential(self) -> bool:
        return rank([list(h.alpha) for h in self.hyperplanes]) == self.dim

    @cached_property
    def _neighbours(self) -> tuple:
        """Per hyperplane i, the j with (r_i|r_j) != 0 (i among them).

        For a group, r_j lies on H_i, so is orthogonal to r_i, exactly
        when the reflection of H_i fixes r_j: the neighbours are the lines
        its row moves or scales, read once per orbit and carried to the
        rest of the orbit by the generator permutations.  A standalone
        arrangement pairs its roots by the plain product conj(u) . v.
        """
        if self.group is None:
            roots = [h.root for h in self.hyperplanes]
            return tuple(frozenset(j for j, v in enumerate(roots)
                                   if not dot([x.conjugate() for x in u], v).is_zero()) for u in roots)
        perms, out = self.generator_perms, {}
        for i in range(len(self)):
            if i not in out:  # the least index of a new orbit
                perm, exps = self.row(self.hyperplanes[i].distinguished_reflection)
                out[i] = frozenset(j for j, (k, e) in enumerate(zip(perm, exps)) if k != j or e)
                queue = [i]
                for x in queue:  # grows while walked: the orbit of i, breadth first
                    for p in perms:
                        if p[x] not in out:
                            out[p[x]] = frozenset(p[j] for j in out[x])
                            queue.append(p[x])
        return tuple(out[i] for i in range(len(self)))

    def root_orthogonal(self, i: int, j: int) -> bool:
        return j not in self._neighbours[i]

    def greedy_connected_basis(self) -> list[int]:
        """Grow a connected, linearly independent set of roots greedily.

        Ties break toward the lowest hyperplane index; for an
        irreducible essential arrangement the result has size dim.
        """
        if not self.hyperplanes:
            return []
        chosen = [0]
        span_rows = [list(self.hyperplanes[0].root)]
        changed = True
        while changed and len(chosen) < self.dim:  # dim roots admit no more
            changed = False
            for i in range(len(self)):
                if i in chosen:
                    continue
                if all(self.root_orthogonal(i, j) for j in chosen):
                    continue
                candidate = span_rows + [list(self.hyperplanes[i].root)]
                if rank(candidate) == len(candidate):
                    chosen.append(i)
                    span_rows = candidate
                    changed = True
                    break
        return chosen

    def irreducibility(self):
        """Verdict: irreducible, or the orthogonal parts if reducible."""
        return self._irreducibility

    @cached_property
    def _irreducibility(self):
        if not self.is_essential():
            raise ValueError("irreducibility requires an essential arrangement")
        if self.dim == 0 or not self.hyperplanes:
            return IrreducibilityVerdict(True, ())
        basis = self.greedy_connected_basis()
        if len(basis) == self.dim and len(self.connected_components()) == 1:
            return IrreducibilityVerdict(True, (), certificate=tuple(basis))
        parts = self.connected_components()
        return IrreducibilityVerdict(False, tuple(tuple(p) for p in parts))

    def connected_components(self) -> list[list[int]]:
        """Components of the non-orthogonality graph on all roots."""
        return _components(len(self), self._neighbours.__getitem__)

    def sub(self, indices) -> "Arrangement":
        """The hyperplanes at indices, tied to the same group."""
        return Arrangement(self.dim, [self.hyperplanes[i] for i in indices], group=self.group)

    # -- Poincare polynomial -----------------------------------------

    def flats(self) -> list[tuple[int, int]]:
        """The intersection lattice as (rank X, S_X) pairs, by rank.

        A flat X is keyed by the bitmask S_X of the hyperplanes that
        contain it (bit i for hyperplane i); V is (0, 0).  X keeps, per
        j outside S_X, the residue of alpha_j modulo X's forms, scaled to
        first nonzero coordinate 1.  Equal residues span one line of
        V*/X^perp, so each class of them is one cover, with mask S_X plus
        the class; a cover reached again is skipped by its mask.
        """
        if len(self) > POINCARE_MAX_HYPERPLANES:
            raise ValueError(
                f"refusing the intersection lattice beyond "
                f"{POINCARE_MAX_HYPERPLANES} hyperplanes"
            )
        alphas = [h.alpha for h in self.hyperplanes]
        top = rank(alphas)
        # one order for every entry, so (num, den) pairs are canonical keys
        order = lcm(*(x.order for a in alphas for x in a))
        level = [(0, {i: tuple(x.lift(order) for x in a) for i, a in enumerate(alphas)})]
        lattice = [(0, 0)]
        for r in range(1, top):
            covers = {}  # S_Y -> the residues of the first parent of Y
            for x_mask, residues in level:
                classes = {}
                for i, u in residues.items():
                    key = tuple((x.num, x.den) for x in u)
                    classes[key] = classes.get(key, x_mask) | 1 << i
                for mask in classes.values():
                    covers.setdefault(mask, residues)
            lattice += [(r, mask) for mask in covers]
            if r < top - 1:  # the flats one rank below the top keep no residues
                level = [(mask, _cover_residues(res, mask)) for mask, res in covers.items()]
        if top:
            lattice.append((top, (1 << len(alphas)) - 1))
        return lattice

    def poincare_polynomial(self) -> list[int]:
        """Ascending integer coefficients of P_A(t) = sum_X mu(X) (-t)^rank X.

        X <= Y in the lattice of :meth:`flats` iff S_X lies in S_Y, so
        the Mobius function runs on integer mask inclusion.
        """
        lattice = self.flats()
        # an earlier flat of Y's rank never has its mask inside S_Y, so
        # the flats below Y are the earlier ones whose mask lies in S_Y
        mu = [1]  # mu(V)
        for _, y in lattice[1:]:
            mu.append(-sum(m for (_, x), m in zip(lattice, mu) if x & ~y == 0))
        poly = [0] * (lattice[-1][0] + 1)
        for (r, _), m in zip(lattice, mu):
            poly[r] += m * (-1) ** r
        return poly


def _components(n: int, step) -> list:
    """The classes of range(n) under i ~ j for j in step(i), each sorted,
    ordered by least index."""
    seen, out = set(), []
    for i in range(n):
        if i not in seen:
            comp = [i]
            seen.add(i)
            for j in comp:  # comp grows while walked: breadth first
                new = step(j) - seen
                seen |= new
                comp += new
            out.append(sorted(comp))
    return out


def _cover_residues(residues: dict, mask: int) -> dict:
    """The residues of the cover with mask S_Y from its parent's: a
    residue v in S_Y, 1 at its first nonzero column c, takes u to
    u - u[c] v, rescaled, for each u outside S_Y."""
    v = next(u for i, u in residues.items() if mask >> i & 1)
    support = [k for k, x in enumerate(v) if not x.is_zero()]
    c = support[0]
    out = {}
    for i, u in residues.items():
        if not mask >> i & 1:
            f = u[c]
            out[i] = u if f.is_zero() else normalize_first_nonzero(
                [x - f * v[k] if k in support else x for k, x in enumerate(u)])
    return out


@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: bool
    parts: tuple  # tuples of hyperplane indices when reducible
    certificate: tuple | None = None  # connected independent root basis


def essentialize(g: GroupModel):
    """Restrict the group to the span of its roots.

    Returns (restricted group, its arrangement); dimension drops by the
    dimension of the common intersection of the hyperplanes.
    """
    roots = [list(r.root) for r in g.reflections]
    if not roots:
        raise ValueError("group has no reflections")
    basis_rows, _ = rref(roots)
    k = len(basis_rows)
    if k == g.dim:
        return g, Arrangement.from_group(g)
    # columns of B span the root space; solve B c = w b_j for each basis vec
    bt = [list(col) for col in zip(*basis_rows)]  # dim x k, columns = basis
    new_gens = []
    for w in g.generators:
        cols = []
        for b in basis_rows:
            img = w.matvec(b)
            c = solve(bt, list(img))
            if c is None:
                raise ArithmeticError("root span is not stable under the group")
            cols.append(c)
        new_gens.append(Matrix(list(zip(*cols))))
    sub = GroupModel.generate(new_gens, g.order_bound)
    return sub, Arrangement.from_group(sub)


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_divisible(p: list[int], q: list[int]) -> bool:
    """Whether q divides p over the integers (q monic up to sign)."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    q = list(q)
    while q and q[-1] == 0:
        q.pop()
    if not p:
        return True
    if len(p) < len(q):
        return False
    lead = q[-1]
    while len(p) >= len(q):
        if p[-1] % lead:
            return False
        c = p[-1] // lead
        off = len(p) - len(q)
        for k in range(len(q)):
            p[off + k] -= c * q[k]
        while p and p[-1] == 0:
            p.pop()
        if not p:
            return True
    return not p
