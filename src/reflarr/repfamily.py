"""The integer character family chi_n attached to an arrangement.

chi_n(w) sums zeta^n over the hyperplanes whose root line is a
w-eigenline with eigenvalue zeta = zeta_K^e: the trace of R_n(w), read
as integer exponents from one root-line row per conjugacy class, read
from the code of the class's first element
(:attr:`reflarr.arrangement.Arrangement.class_rows`, counted once per
class in :attr:`reflarr.arrangement.Arrangement.fixed_line_counts`).  Only
:func:`restriction_check` recomputes eigenvalues from matrices, so that
its two sides stay independent of those rows.  The family is periodic
with period kappa, chi_0 is the permutation character on the
arrangement, and chi_1 determines the rest of the coprime layer through
the Galois action.  Also houses the signed-permutation model for real
groups (the K = 2 case of the root-line action) and the full
decomposition table of the smallest exceptional group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arrangement import Arrangement
from .catalog import BuiltGroup, GroupSpec
from .cyclo import CycNum
from .kappa import a_indices
from .linalg import Matrix, dot, proportionality, rewrite
from .matgroup import GroupModel


@dataclass(frozen=True)
class ClassFunction:
    group: GroupModel
    values: tuple  # one CycNum per conjugacy class

    def at(self, element_index: int) -> CycNum:
        return self.values[self.group.class_of[element_index]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        # pointwise product = character of the tensor product
        return ClassFunction(self.group, tuple(a * b for a, b in zip(self.values, other.values)))


def chi(g: GroupModel, a: Arrangement, n: int) -> ClassFunction:
    """chi_n on each conjugacy class; g must be the arrangement's group."""
    a.require_group(g)
    units = a.units
    mod, order = len(units), units[0].order
    values = []
    for counts in a.fixed_line_counts:
        # the units share one order: add count x unit numerators, reduce once
        num = [0] * order
        for e, c in counts:
            for k, x in enumerate(units[n * e % mod].num):
                num[k] += c * x
        values.append(CycNum(order, num) if counts else CycNum.zero())
    return ClassFunction(g, tuple(values))


def trivial_character(g: GroupModel) -> ClassFunction:
    return ClassFunction(g, tuple(CycNum.one() for _ in g.classes))


def matrix_character(g: GroupModel, fn) -> ClassFunction:
    """Class function from a matrix invariant (trace, det, ...)."""
    return ClassFunction(g, tuple(fn(g.matrix(cls[0])) for cls in g.classes))


def inner_product(f: ClassFunction, h: ClassFunction) -> CycNum:
    g = f.group
    if h.group is not g:
        raise ValueError("class functions live on different groups")
    acc = CycNum.zero()
    for cls, fv, hv in zip(g.classes, f.values, h.values):
        acc = acc + CycNum.rational(len(cls)) * fv * hv.conjugate()
    return acc * CycNum.rational(Fraction(1, g.order))


def kernel_of_Rn(g: GroupModel, a: Arrangement, n: int):
    """Elements with chi_n(w) = chi_n(1), i.e. the kernel of R_n.

    Cross-checked against {w in Z(W) : w^n = 1}; a mismatch would
    falsify the kernel description and raises, naming the first element
    index in one set but not the other.
    """
    f = chi(g, a, n)
    full = f.at(g.identity_index)
    kernel = sorted(
        i
        for cls_idx, cls in enumerate(g.classes)
        if f.values[cls_idx] == full
        for i in cls
    )
    central = sorted(i for i in g.center if n % g.element_order(i) == 0)
    if kernel != central:
        witness = min(set(kernel) ^ set(central))
        raise ArithmeticError(
            f"kernel of R_{n} disagrees with the central description"
            f" at element {witness}"
        )
    return tuple(kernel)


def check_periodicity(g: GroupModel, a: Arrangement) -> int:
    """Minimal positive period of n -> chi_n, certified on a window."""
    kappa = a_indices(g, a).kappa
    chis = [chi(g, a, n) for n in range(3 * kappa + 1)]
    for p in range(1, 2 * kappa + 1):
        if all(chis[n + p].values == chis[n].values for n in range(kappa + 1)):
            return p
    raise ArithmeticError("no period up to 2*kappa; eigenvalue orders corrupt")


def galois_check(g: GroupModel, a: Arrangement, n: int) -> bool:
    """chi_n = c_n o chi_1 for n coprime to kappa.

    Values of chi_1 are rewritten into the order-kappa cyclotomic field
    (where all eigenvalues live) before applying the automorphism
    zeta_kappa -> zeta_kappa^n, so the check is non-vacuous.
    """
    kappa = a_indices(g, a).kappa
    if gcd(n, kappa) != 1:
        raise ValueError(f"{n} is not coprime to kappa = {kappa}")
    chi1 = chi(g, a, 1)
    chin = chi(g, a, n)
    for v1, vn in zip(chi1.values, chin.values):
        if rewrite(v1, kappa).galois(n) != vn:
            return False
    return True


def restriction_check(g: GroupModel, a: Arrangement, v) -> bool:
    """Restriction to the fixer W0 of v splits off a permutation part.

    For n = 0..kappa and every w in W0:
    chi_n(w) over the full arrangement equals chi_n of W0 over
    A0 = {H : v in H} plus the number of w-fixed hyperplanes outside
    A0.  Both sides are computed independently.
    """
    v = tuple(x if isinstance(x, CycNum) else CycNum.rational(x) for x in v)
    w0 = g.parabolic_fixer(v)
    if w0.order == 1:
        warnings.warn("trivial fixer: restriction check is vacuous")
        return True
    a0_idx = [i for i, h in enumerate(a.hyperplanes) if dot(h.alpha, v).is_zero()]
    # Steinberg: W0's own reflection arrangement must be exactly A0
    a0 = Arrangement.from_group(w0)
    own = {h.alpha for h in a0.hyperplanes}
    if own != {a.hyperplanes[i].alpha for i in a0_idx}:
        raise ArithmeticError("fixer arrangement differs from {H : v in H}")
    outside = [a.hyperplanes[i] for i in range(len(a)) if i not in a0_idx]
    kappa = a_indices(g, a).kappa
    for wi in range(w0.order):
        w = w0.elements[wi]
        full_evs = [
            proportionality(w.matvec(h.root), h.root) for h in a.hyperplanes
        ]
        sub_evs = [
            proportionality(w.matvec(h.root), h.root) for h in a0.hyperplanes
        ]
        perm = sum(
            1
            for h in outside
            if proportionality(w.matvec(h.root), h.root) is not None
        )
        for n in range(kappa + 1):
            lhs = CycNum.zero()
            for z in full_evs:
                if z is not None:
                    lhs = lhs + z**n
            rhs = CycNum.rational(perm)
            for z in sub_evs:
                if z is not None:
                    rhs = rhs + z**n
            if lhs != rhs:
                return False
    return True


@dataclass
class SignModelRep:
    built: BuiltGroup
    matrices: tuple  # one {0, +-1} monomial matrix per generator

    def matrix_of(self, element_index: int) -> Matrix:
        return _sign_matrix(self.built, element_index)

    def character(self) -> ClassFunction:
        g = self.built.group
        return ClassFunction(g, tuple(self.matrix_of(cls[0]).trace() for cls in g.classes))


def _sign_matrix(built: BuiltGroup, element_index: int) -> Matrix:
    """w.f_i = sign f_{w(i)} on the positive roots f_i = +-r_i: the sign
    is zeta_K^e (K = 2 in a rational model) from w.r_i = zeta_K^e r_{w(i)},
    negated when exactly one of f_i, f_{w(i)} is a flipped root."""
    arr = built.arrangement
    flipped = [f != h.root for f, h in zip(built.positive_roots, arr.hyperplanes)]
    perm, exps = arr.row(element_index)
    rows = [[CycNum.zero()] * len(perm) for _ in perm]
    for i, (j, e) in enumerate(zip(perm, exps)):
        rows[j][i] = arr.units[e] if flipped[i] == flipped[j] else -arr.units[e]
    return Matrix(rows)


def coxeter_sign_model(built: BuiltGroup) -> SignModelRep:
    """The signed permutation action w.f_H = +-f_{w(H)} on the
    hyperplane basis, signs read off the positive-root system."""
    if built.positive_roots is None:
        raise ValueError(f"{built.label} has no positive-root data")
    g = built.group
    mats = tuple(_sign_matrix(built, row[g.identity_index]) for row in g.table)
    return SignModelRep(built=built, matrices=mats)


def g4_table_check(built: BuiltGroup) -> bool:
    """The full decomposition table of the smallest exceptional group,
    on the caller's build of it.

    Linear characters S_a (a a cube root of unity) come from the
    determinant; A_{j^2} is the reflection character, A_a its twists,
    and U the nontrivial constituent of the permutation character.
    All six rows of the period are verified as exact identities.
    """
    if built.spec != GroupSpec.exceptional(4):
        raise ValueError(f"the G4 table does not apply to {built.label}")
    g, arr = built.group, built.arrangement
    det = matrix_character(g, lambda w: w.det())
    refl = matrix_character(g, lambda w: w.trace())
    s1 = trivial_character(g)
    s_j, s_j2 = det, det * det
    # A_a = A_{j^2} tensor S_{a j}
    a_j2 = refl
    a_1 = refl * s_j
    a_j = refl * s_j2
    chis = [chi(g, arr, n) for n in range(6)]
    u = chis[0] - s1
    ok = inner_product(u, u) == CycNum.one()
    # trace of A_a at an order-3 generator is -a
    s_idx = g.table[0][g.identity_index]  # the first generator
    j = CycNum.zeta(3)
    ok &= a_1.at(s_idx) == CycNum.rational(-1)
    ok &= a_j.at(s_idx) == -j
    ok &= a_j2.at(s_idx) == -(j * j)
    # chi_5 = conj(chi_1), and conjugation fixes A_1 while swapping
    # A_j with A_{j^2}, hence the last row
    rows = [
        s1 + u,
        a_1 + a_j2,
        s_j2 + u,
        a_j + a_j2,
        s_j + u,
        a_1 + a_j,
    ]
    for n in range(6):
        ok &= chis[n].values == rows[n].values
    return bool(ok)
