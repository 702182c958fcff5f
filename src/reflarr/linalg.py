"""Exact linear algebra over cyclotomic scalars.

One Gaussian elimination, :func:`_row_reduce` (pivot by first
nonzero, no numerical heuristics over an exact field), serves rank,
nullspace, solve, inverse, the determinant and rewriting a value into
a cyclotomic subfield.  Vectors are tuples of
:class:`~reflarr.cyclo.CycNum`, matrices are immutable row-major
tuples of such tuples.
"""

from __future__ import annotations

from math import lcm

from .cyclo import CycNum, cyclotomic_poly


def _as_cyc(x):
    return x if isinstance(x, CycNum) else CycNum.rational(x)


class Matrix:
    """Immutable matrix with CycNum entries (square for group elements)."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(_as_cyc(x) for x in row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = CycNum.one(), CycNum.zero()
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def dim(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("not square")
        return self.nrows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.rows))
        return self._hash

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            " ".join(repr(x) for x in row) for row in self.rows
        )

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append(
                [_dot_plain(row, col) for col in bt]
            )
        return Matrix(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = _as_cyc(c)
        return Matrix([[c * x for x in r] for r in self.rows])

    def matvec(self, v):
        return tuple(_dot_plain(row, v) for row in self.rows)

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        acc, base = Matrix.identity(self.dim), self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def conj(self) -> "Matrix":
        return Matrix([[x.conjugate() for x in r] for r in self.rows])

    def conj_transpose(self) -> "Matrix":
        return self.conj().transpose()

    def trace(self) -> CycNum:
        return vec_sum(self.rows[i][i] for i in range(self.dim))

    def is_identity(self) -> bool:
        one, zero = CycNum.one(), CycNum.zero()
        return all(
            x == (one if i == j else zero)
            for i, row in enumerate(self.rows)
            for j, x in enumerate(row)
        )

    def det(self) -> CycNum:
        _, pivots, factor = _row_reduce([list(r) for r in self.rows])
        return factor if len(pivots) == self.dim else CycNum.zero()

    def inverse(self) -> "Matrix":
        n = self.dim
        ident = Matrix.identity(n).rows
        aug = [list(r) + list(e) for r, e in zip(self.rows, ident)]
        aug, pivots, _ = _row_reduce(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in aug[:n]])

    def rank(self) -> int:
        return rank([list(r) for r in self.rows])

    def embed(self):
        """Dense complex nested-list embedding (for the numeric modules)."""
        return [[x.embed() for x in row] for row in self.rows]


def _dot_plain(u, v):
    acc = None
    for x, y in zip(u, v):
        if x.is_zero() or y.is_zero():
            continue
        t = x * y
        acc = t if acc is None else acc + t
    return acc if acc is not None else CycNum.zero()


def vec_sum(xs) -> CycNum:
    acc = CycNum.zero()
    for x in xs:
        acc = acc + x
    return acc


def dot(u, v) -> CycNum:
    return _dot_plain(u, v)


def hermitian_product(form: Matrix, u, v) -> CycNum:
    """(u|v) = conj(u)^T F v  (linear on the right)."""
    return _dot_plain(tuple(x.conjugate() for x in u), form.matvec(v))


def scale_vec(c, v):
    c = _as_cyc(c)
    return tuple(c * x for x in v)


def normalize_first_nonzero(v):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for x in v:
        if not x.is_zero():
            return scale_vec(x.inverse(), v)
    return None


def proportionality(u, v):
    """The scalar c with u = c*v, or None if not proportional (2x2 minors)."""
    iv = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if iv is None:
        return None  # v = 0; only proportional in the degenerate sense
    c = u[iv] * v[iv].inverse()
    for x, y in zip(u, v):
        if not (x - c * y).is_zero():
            return None
    return c


def _row_reduce(rows):
    """In-place RREF; returns (rows, pivot column list, determinant factor).

    The factor is the product of the pivots before scaling, negated once
    per row swap: the determinant of a square matrix of full rank.
    """
    factor = CycNum.one()
    if not rows:
        return rows, [], factor
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            factor = -factor
        p = rows[r][col]
        if not (p.num[0] == p.den and p.is_rational()):  # pivot is not 1
            factor = factor * p
            inv = p.inverse()
            rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots, factor


def rref(rows):
    """Canonical reduced row-echelon form, zero rows dropped."""
    work = [list(r) for r in rows]
    work, pivots, _ = _row_reduce(work)
    return tuple(tuple(row) for row in work[: len(pivots)]), pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one, zero = CycNum.one(), CycNum.zero()
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, target):
    """One solution x of rows·x = target, or None if inconsistent."""
    aug = [list(r) + [t] for r, t in zip(rows, target)]
    reduced, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [CycNum.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return tuple(x)


def rewrite(x: CycNum, order: int) -> CycNum:
    """Re-express x in Q(zeta_order) if the value lies there.

    Solves for the coordinates of x in the basis zeta_order^k,
    k < phi(order), of the subfield inside Q(zeta_L), L = lcm of the
    orders; ValueError if there are none.
    """
    if order % x.order == 0:
        return x.lift(order)
    big = lcm(x.order, order)
    deg = len(cyclotomic_poly(order)) - 1
    step = big // order
    basis = [CycNum.zeta(big, k * step).coeffs for k in range(deg)]
    rows = [[CycNum.rational(v[i]) for v in basis] for i in range(big)]
    target = [CycNum.rational(c) for c in x.lift(big).coeffs]
    sol = solve(rows, target)
    if sol is None:
        raise ValueError(f"value does not lie in Q(zeta_{order})")
    coords = [c.as_fraction() for c in sol]
    return CycNum.from_fractions(order, coords + [0] * (order - deg))


# -- polynomials over the cyclotomic field (for semisimplicity checks) --


def poly_normalize(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return list(p)


def poly_derivative(p):
    return [p[k] * k for k in range(1, len(p))]


def poly_mod(a, b):
    a, b = poly_normalize(a), poly_normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = b[-1].inverse()
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] * inv
        shift = len(a) - len(b)
        for k in range(len(b)):
            a[shift + k] = a[shift + k] - c * b[k]
        a = poly_normalize(a[:-1])
    return a


def poly_gcd(a, b):
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        inv = a[-1].inverse()
        a = [inv * c for c in a]
    return a


def minimal_polynomial(m: Matrix):
    """Monic minimal polynomial of a square matrix, ascending coefficients."""
    n = m.dim
    powers = [Matrix.identity(n)]
    while True:
        powers.append(powers[-1] * m)
        # look for a dependence c_0 I + ... + c_k M^k = 0 with c_k = 1
        k = len(powers) - 1
        cols = [
            [p.rows[i][j] for i in range(n) for j in range(n)] for p in powers[:k]
        ]
        target = [-powers[k].rows[i][j] for i in range(n) for j in range(n)]
        rows = [[cols[c][r] for c in range(k)] for r in range(len(target))]
        sol = solve(rows, target)
        if sol is not None:
            return list(sol) + [CycNum.one()]
        if k > n:
            raise ArithmeticError("no minimal polynomial found below the dimension")


def is_semisimple(m: Matrix) -> bool:
    """Squarefree minimal polynomial, tested via gcd with its derivative."""
    p = minimal_polynomial(m)
    return len(poly_gcd(p, poly_derivative(p))) == 1

