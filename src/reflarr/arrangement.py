"""Reflection arrangements: hyperplanes with forms, roots and orders,
the group's monomial action on the root lines, W-orbits, essentiality
and irreducibility via the root graph, and intersection-lattice
Poincare polynomials.

The group is closed on integer line data (:mod:`reflarr.matgroup`), and
the arrangement reads it without matrices.  Hyperplanes, roots and
distinguished reflections come from the group's reflections, the
transported roots from :attr:`GroupModel.root_lines`.  The action
w.r_H = zeta_K^e r_{w(H)} on those roots is kept per generator
(:attr:`Arrangement.generator_rows`), and an element's row is composed
along the closure's spanning tree when asked for (:meth:`Arrangement.row`).
Eigenvalues on fixed root lines are class invariants, so kappa and chi_n
(through the per-class fixed-line counts) read one row per conjugacy
class; the Coxeter sign model and monodromy read the rows they need,
and the orbits are those of the generator permutations.  Essentiality
and irreducibility are computed once per arrangement.  The root graph
needs no form: r_j is orthogonal to r_i exactly when the reflection of
H_i fixes r_j, so it is read from one reflection row per orbit.

A flat of the intersection lattice is the intersection of the
hyperplanes that contain it, so it is stored as the integer bitmask of
those hyperplanes (Orlik-Terao, Arrangements of Hyperplanes, 2.1-2.3).
Exact row reduction runs once per cover relation, to find the flats
and their masks; the order X <= Y and the Mobius function then run on
mask inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclo import CycNum
from .linalg import (
    Matrix,
    dot,
    hermitian_product,
    normalize_first_nonzero,
    proportionality,
    rank,
    rref,
    solve,
)
from .matgroup import GroupModel, RootAction

POINCARE_MAX_HYPERPLANES = 12


@dataclass(frozen=True)
class Hyperplane:
    alpha: tuple  # linear form with kernel H, first nonzero coord 1
    root: tuple  # spans the F-orthogonal line; for a group, orbit-transported
    d: int  # order of the pointwise fixer of H
    distinguished_reflection: int | None  # element index, None if standalone


class Arrangement:
    """A central hyperplane arrangement, possibly tied to a group."""

    def __init__(self, dim, hyperplanes, group: GroupModel | None = None, form=None):
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)
        self.group = group
        self._form = form

    def __len__(self):
        return len(self.hyperplanes)

    @property
    def form(self) -> Matrix:
        """The hermitian form the roots are orthogonal under."""
        if self._form is not None:
            return self._form
        if self.group is not None:
            return self.group.invariant_hermitian_form
        return Matrix.identity(self.dim)

    # -- construction ------------------------------------------------

    @staticmethod
    def from_group(g: GroupModel) -> "Arrangement":
        """Extract (A, d) from the reflections of a finite group."""
        by_alpha: dict[tuple, list] = {}
        for r in g.reflections:
            by_alpha.setdefault(r.alpha, []).append(r)
        # d_H - 1 reflections share H, the distinguished one has eigenvalue
        # exp(2 pi i / d_H); by_alpha and root_lines order H alike
        hyps = [
            Hyperplane(
                alpha=alpha,
                root=root,
                d=len(refs) + 1,
                distinguished_reflection=next(
                    (r.element for r in refs if r.eigenvalue == CycNum.zeta(len(refs) + 1)),
                    None,
                ),
            )
            for (alpha, refs), root in zip(by_alpha.items(), g.root_lines[0])
        ]
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
        hyps = []
        seen = set()
        for c in covs:
            if len(c) != dim:
                raise ValueError(f"covector of length {len(c)} in dimension {dim}")
            alpha = normalize_first_nonzero(c)
            if alpha is None or alpha in seen:
                raise ValueError("zero or duplicate covector")
            seen.add(alpha)
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
    def generator_rows(self) -> RootAction:
        """The generators' rows on this arrangement's root lines, read from
        :attr:`GroupModel.root_lines`.  A sub-arrangement that some
        generator does not map onto itself is refused here, so every
        composed row is a permutation of the arrangement."""
        g = self.group
        if g is None:
            raise ValueError("a standalone arrangement has no group action")
        roots, gens = g.root_lines
        line_of = {r: i for i, r in enumerate(roots)}
        own = [line_of[h.root] for h in self.hyperplanes]
        pos = {i: j for j, i in enumerate(own)}
        if any(p[i] not in pos for p in gens.perms for i in own):
            raise ArithmeticError("group element does not permute the arrangement")
        return RootAction(
            tuple(tuple(pos[p[i]] for i in own) for p in gens.perms),
            tuple(tuple(x[i] for i in own) for x in gens.exps),
            gens.units,
        )

    @property
    def units(self) -> tuple:
        """units[e] = zeta_K^e, the scalars of the rows."""
        return self.generator_rows.units

    @cached_property
    def _rows(self) -> dict:  # element index -> row, for the rows asked for
        return {self.group.identity_index: (tuple(range(len(self))), (0,) * len(self))}

    def row(self, w: int) -> tuple:
        """(perm, exps) with w.r_i = units[exps[i]] r_{perm[i]} for
        w = elements[w].

        Composed from the generator rows along the group's spanning
        tree, from the nearest ancestor already asked for: for w = x s,
        w.r_i = zeta_K^(e_s(i) + e_x(s(i))) r_{x(s(i))}.  Only the rows
        asked for (class minima, generators, monodromy endpoints) are
        kept.
        """
        gens, rows = self.generator_rows, self._rows
        parents, steps = self.group.spanning_tree
        path, x = [], w
        while x not in rows:
            path.append(steps[x])
            x = parents[x]
        perm, exps = rows[x]
        mod = len(gens.units)
        for s in reversed(path):
            s_perm = gens.perms[s]
            perm, exps = (tuple(perm[j] for j in s_perm),
                          tuple((e + exps[j]) % mod for j, e in zip(s_perm, gens.exps[s])))
        rows[w] = perm, exps
        return perm, exps

    @cached_property
    def fixed_line_counts(self) -> tuple:
        """Per conjugacy class of the group, by its first element w: the
        (e, count) pairs, e ascending, counting the root lines that w
        fixes with scalar zeta_K^e.  They do not depend on n, so chi_n
        only sums units over them."""
        out = []
        for cls in self.group.classes:
            counts = [0] * len(self.units)
            perm, exps = self.row(cls[0])
            for i, (j, e) in enumerate(zip(perm, exps)):
                if i == j:
                    counts[e] += 1
            out.append(tuple((e, c) for e, c in enumerate(counts) if c))
        return tuple(out)

    def action_of(self, g: GroupModel) -> RootAction:
        """generator_rows, refusing any group but the arrangement's own."""
        if self.group is not g:
            raise ValueError("the arrangement belongs to a different group")
        return self.generator_rows

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
        perms = self.generator_rows.perms
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
        arrangement pairs its roots with :attr:`form`.
        """
        if self.group is None:
            f, roots = self.form, [h.root for h in self.hyperplanes]
            return tuple(frozenset(j for j, v in enumerate(roots)
                                   if not hermitian_product(f, u, v).is_zero()) for u in roots)
        perms, out = self.generator_rows.perms, {}
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
        """The hyperplanes at indices, tied to the same group and form."""
        return Arrangement(
            self.dim,
            [self.hyperplanes[i] for i in indices],
            group=self.group,
            form=self._form,
        )

    # -- Poincare polynomial -----------------------------------------

    def flats(self) -> list[tuple[int, int]]:
        """The intersection lattice as (rank X, S_X) pairs, by rank.

        A flat X is the intersection of the hyperplanes containing it,
        so it is keyed by their bitmask S_X (bit i for hyperplane i);
        V is (0, 0).  The lattice grows rank by rank: from X, each
        hyperplane j outside S_X and outside the covers of X found so
        far costs one row reduction of X's RREF basis plus alpha_j,
        looked up by the resulting RREF.  A new flat gets its mask once,
        by reducing the remaining alphas against its basis.
        """
        if len(self) > POINCARE_MAX_HYPERPLANES:
            raise ValueError(
                f"refusing the intersection lattice beyond "
                f"{POINCARE_MAX_HYPERPLANES} hyperplanes"
            )
        alphas = [h.alpha for h in self.hyperplanes]
        found = {(): 0}  # RREF of a flat's covector space -> S_X
        lattice = [(0, 0)]
        level = [((), 0)]
        while level:
            nxt = []
            for x_rows, x_mask in level:
                covered = x_mask
                for j, a in enumerate(alphas):
                    if covered >> j & 1:
                        continue
                    rows, pivots = rref([*x_rows, a])
                    mask = found.get(rows)
                    if mask is None:
                        mask = _span_mask(rows, pivots, alphas, x_mask | 1 << j)
                        found[rows] = mask
                        lattice.append((len(rows), mask))
                        nxt.append((rows, mask))
                    covered |= mask
            level = nxt
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


def _span_mask(rows, pivots, alphas, known: int) -> int:
    """``known`` plus the bit of each other alpha in the span of ``rows``.

    The rows are in RREF with the given pivot columns, so v lies in
    their span iff v - sum_p v[p] row_p vanishes; it vanishes at the
    pivot columns by construction, so only the free columns are tested.
    """
    free = [c for c in range(len(rows[0])) if c not in pivots]
    columns = [(c, [row[c] for row in rows]) for c in free]
    mask = known
    for i, v in enumerate(alphas):
        if known >> i & 1:
            continue
        coeffs = [v[p] for p in pivots]
        if all(v[c] == dot(coeffs, col) for c, col in columns):
            mask |= 1 << i
    return mask


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
