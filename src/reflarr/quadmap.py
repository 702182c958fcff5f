"""The squares map from the arrangement module to quadratic forms.

Sends the basis vector of a hyperplane H to alpha_H^2 inside S^2 V*;
surjectivity is decided by exact rank, and W-equivariance of a given
scaling of the alpha_H is reported as a defect list.  Each generator's
image hyperplanes are read from the arrangement's generator rows, so
the check is one dot product per (generator, hyperplane) and inverts
no matrix.  Includes the orbit-transported construction that makes the
map equivariant for the real (Coxeter) catalog groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement
from .catalog import BuiltGroup
from .cyclo import CycNum
from .linalg import dot, proportionality, rank
from .matgroup import GroupModel


def square_form(alpha):
    """Coefficients of alpha^2 in the lexicographic x_i x_j basis."""
    n = len(alpha)
    out = []
    for i in range(n):
        for j in range(i, n):
            c = alpha[i] * alpha[j]
            out.append(c if i == j else 2 * c)
    return tuple(out)


@dataclass
class PhiMap:
    arrangement: Arrangement
    alphas: tuple  # one covector per hyperplane (the chosen scalings)
    columns: tuple  # column H = coefficients of alpha_H^2

    @property
    def dim_s2(self) -> int:
        n = self.arrangement.dim
        return n * (n + 1) // 2

    def matrix_rows(self):
        """The (n(n+1)/2) x |A| matrix as a row list."""
        return [list(col) for col in zip(*self.columns)]

    def rank(self) -> int:
        return rank([list(c) for c in self.columns])

    def sum_of_squares(self):
        acc = [CycNum.zero()] * self.dim_s2
        for col in self.columns:
            acc = [a + c for a, c in zip(acc, col)]
        return tuple(acc)


def build_phi(a: Arrangement, alphas=None) -> PhiMap:
    """Assemble the squares map from the stored (or given) linear forms;
    a given form must be a nonzero multiple of its hyperplane's."""
    if not a.is_essential():
        raise ValueError("the squares map is defined for essential arrangements")
    if alphas is None:
        alphas = tuple(h.alpha for h in a.hyperplanes)
    else:
        alphas = tuple(tuple(x for x in al) for al in alphas)
        if len(alphas) != len(a.hyperplanes):
            raise ValueError("one linear form per hyperplane required")
        for i, (al, h) in enumerate(zip(alphas, a.hyperplanes)):
            # proportionality zips, so check the length; None for a zero form
            if len(al) != a.dim or proportionality(h.alpha, al) is None:
                raise ValueError(f"form {i} is not a nonzero multiple of hyperplane {i}'s form")
    columns = tuple(square_form(al) for al in alphas)
    return PhiMap(arrangement=a, alphas=alphas, columns=columns)


def is_surjective(p: PhiMap) -> tuple[bool, int]:
    r = p.rank()
    return r == p.dim_s2, r


@dataclass
class EquivarianceReport:
    violations: tuple  # (generator index, hyperplane index) pairs
    sum_of_squares_zero: bool

    @property
    def equivariant(self) -> bool:
        return not self.violations


def equivariance_defect(p: PhiMap, g: GroupModel) -> EquivarianceReport:
    """Where the current scalings fail w.alpha_H^2 = alpha_{w(H)}^2.

    Checked on generators (sufficient for the whole group).  The dual
    action is w.alpha = alpha o w^-1, and w(H_i) = H_j is read from the
    generator rows.  From w.alpha_i = lam alpha_j, alpha_i = lam (alpha_j o w),
    so at a nonzero coordinate t of alpha_i, lam^2 = 1 iff
    (alpha_j . w[:, t])^2 = alpha_i[t]^2: one dot product per pair.
    """
    perms = p.arrangement.action_of(g).perms
    # (t, alpha_i[t]^2) at the first nonzero coordinate t of each alpha_i
    leads = [next((t, x * x) for t, x in enumerate(al) if not x.is_zero()) for al in p.alphas]
    violations = []
    for gi, gen in enumerate(g.generators):
        columns = tuple(zip(*gen.rows))
        for i, (t, square) in enumerate(leads):
            x = dot(p.alphas[perms[gi][i]], columns[t])
            if x * x != square:
                violations.append((gi, i))
    zero = all(x.is_zero() for x in p.sum_of_squares())
    return EquivarianceReport(violations=tuple(violations), sum_of_squares_zero=zero)


def coxeter_equivariant_forms(built: BuiltGroup):
    """Forms alpha_H = (e_H | .) from orbit-transported real roots.

    Only the rational-root catalog Coxeter types are supported; the
    resulting map passes the equivariance check (verified by callers,
    not assumed).
    """
    if built.positive_roots is None:
        raise ValueError(
            f"{built.label} carries no real positive-root data; "
            "the equivariant construction needs a Coxeter catalog group"
        )
    f = built.group.invariant_hermitian_form
    alphas = []
    for root in built.positive_roots:
        conj = tuple(x.conjugate() for x in root)
        alphas.append(tuple(f.transpose().matvec(conj)))
    return tuple(alphas)


def invariant_quadratic_form(p: PhiMap, g: GroupModel):
    """If sum alpha_H^2 != 0 and Phi is equivariant, the sum is a
    W-invariant quadratic form; returns it (as an S^2 coefficient
    vector) after checking invariance exactly, else None."""
    s = p.sum_of_squares()
    if all(x.is_zero() for x in s):
        return None
    for gen in g.generators:
        winv_t = gen.inverse().transpose()
        acc = [CycNum.zero()] * len(s)
        for alpha in p.alphas:
            acc = [a + c for a, c in zip(acc, square_form(winv_t.matvec(alpha)))]
        if tuple(acc) != s:
            return None
    return s
