"""Constructors for the built-in groups.

Covers the imprimitive family G(de,e,r), the real (Coxeter) types A, B,
D and the dihedrals I2(m) realized inside that family, the two
supported exceptional groups (Shephard-Todd numbers 4 and 12), and
fully explicit generator matrices.  Coxeter types also carry positive
root data, orbit-transported roots, for the signed-permutation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, essentialize
from .cyclo import CycNum, parse_literal, sqrt_minus_two
from .linalg import Matrix
from .matgroup import DEFAULT_ORDER_BOUND, GroupModel


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "imprimitive" | "coxeter" | "exceptional" | "explicit"
    d: int | None = None
    e: int | None = None
    r: int | None = None
    coxeter_type: str | None = None
    n: int | None = None
    st: int | None = None
    dim: int | None = None
    cyclotomic_order: int | None = None
    generators: tuple = ()

    @staticmethod
    def imprimitive(d: int, e: int, r: int) -> "GroupSpec":
        return GroupSpec(kind="imprimitive", d=d, e=e, r=r)

    @staticmethod
    def coxeter(coxeter_type: str, n: int) -> "GroupSpec":
        return GroupSpec(kind="coxeter", coxeter_type=coxeter_type, n=n)

    @staticmethod
    def exceptional(st: int) -> "GroupSpec":
        return GroupSpec(kind="exceptional", st=st)

    @staticmethod
    def from_json(obj) -> "GroupSpec":
        """Read a spec object, with ValueError for a missing or mistyped field."""
        if not isinstance(obj, dict):
            raise ValueError("a group spec must be a JSON object")

        def field(key, kind, default=None):
            value = obj.get(key, default)
            if value is None:
                raise ValueError(f"group spec needs the field {key!r}")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"group spec field {key!r} has the wrong type: {value!r}")
            return value

        kind = obj.get("kind")
        if kind == "imprimitive":
            return GroupSpec.imprimitive(field("d", int), field("e", int), field("r", int))
        if kind == "coxeter":
            return GroupSpec.coxeter(field("type", str), field("n", int))
        if kind == "exceptional":
            return GroupSpec.exceptional(field("st", int))
        if kind == "explicit":
            gens = field("generators", list)
            if not all(isinstance(g, list) and all(isinstance(r, list) for r in g) for g in gens):
                raise ValueError("each generator must be a list of rows")
            order = field("cyclotomic_order", int, 1)
            if order < 1:
                raise ValueError(
                    f"group spec field 'cyclotomic_order' must be a positive int, got {order!r}"
                )
            return GroupSpec(
                kind="explicit",
                dim=field("dim", int),
                cyclotomic_order=order,
                generators=tuple(tuple(tuple(row) for row in g) for g in gens),
            )
        raise ValueError(f"unknown group spec kind: {kind!r}")

    def label(self) -> str:
        if self.kind == "imprimitive":
            return f"G({self.d * self.e},{self.e},{self.r})"
        if self.kind == "coxeter":
            return f"{self.coxeter_type}{self.n}"
        if self.kind == "exceptional":
            return f"G{self.st}"
        return f"explicit(dim={self.dim})"


@dataclass
class BuiltGroup:
    spec: GroupSpec
    group: GroupModel
    arrangement: Arrangement
    positive_roots: tuple | None = None  # Coxeter types only

    @property
    def label(self) -> str:
        return self.spec.label()


def _monomial_generators(de: int, e: int, r: int):
    """Standard generators of G(de,e,r) over Q(zeta_de)."""
    m = de if de > 2 else 1
    zero, one = CycNum.zero(m), CycNum.one(m)
    z = CycNum.rational(-1) if de == 2 else (CycNum.zeta(de) if de > 2 else one)

    def monomial(perm, scalars):
        rows = [[zero] * r for _ in range(r)]
        for j in range(r):
            rows[perm[j]][j] = scalars[j]
        return Matrix(rows)

    ident_perm = list(range(r))
    gens = []
    d = de // e
    if d > 1 and r >= 1:
        # t = diag(zeta_de^e, 1, ..., 1), a reflection of order d
        scal = [z**e] + [one] * (r - 1)
        gens.append(monomial(ident_perm, scal))
    if r >= 2:
        if e > 1:
            # s0' : z1 <-> z2 twisted by zeta_de, order-2 reflection
            perm = [1, 0] + list(range(2, r))
            scal = [z, z.inverse()] + [one] * (r - 2)
            gens.append(monomial(perm, scal))
        for i in range(r - 1):
            perm = list(range(r))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(monomial(perm, [one] * r))
    if not gens:
        raise ValueError(f"degenerate imprimitive parameters ({d},{e},{r})")
    return gens


def imprimitive_order(d: int, e: int, r: int) -> int:
    """|G(de,e,r)| = (de)^r r! / e."""
    fact = 1
    for k in range(2, r + 1):
        fact *= k
    return (d * e) ** r * fact // e


def g4_generators():
    """The order-24 rank-2 group with two order-3 generators braiding."""
    j = CycNum.zeta(3)
    third = CycNum.rational(Fraction(1, 3))
    s = Matrix([[CycNum.one(3), CycNum.zero(3)], [CycNum.zero(3), j]])
    t = Matrix(
        [
            [third * (1 + 2 * j), third * (j - 1)],
            [third * (2 * j - 2), third * (j + 2)],
        ]
    )
    return [s, t]


def g12_generators():
    """Three order-2 generators with abca = bcab = cabc, over Q(zeta_8)."""
    r = sqrt_minus_two()
    one = CycNum.one(8)
    zero = CycNum.zero(8)
    a = Matrix([[one, 1 + r], [zero, -one]])
    b = Matrix([[-one, zero], [1 - r, one]])
    c = Matrix([[r, -1 + r], [-1 - r, -r]])
    return [a, b, c]


def g12_vector_table():
    """The 12 published root vectors of the rank-2 model, keyed by the
    word in a, b, c of the reflection they belong to."""
    r = sqrt_minus_two()
    one = CycNum.one(8)
    two = CycNum.rational(2).lift(8)
    return {
        "babab": (1 + r, -two),
        "a": (one, CycNum.zero(8)),
        "b": (CycNum.zero(8), one),
        "ababa": (-two, 1 - r),
        "bcb": (one, r),
        "c": (one, -one),
        "acaca": (1 - r, 1 + r),
        "cbc": (-1 + r, -r),
        "aba": (-1 - r, one),
        "bab": (-one, 1 - r),
        "cac": (-r, 1 + r),
        "aca": (-r, one),
    }


def g12_invariant_form() -> Matrix:
    r = sqrt_minus_two()
    return Matrix([[CycNum.rational(2).lift(8), 1 + r], [1 - r, CycNum.rational(2).lift(8)]])


_COXETER_FAMILIES = {"A", "B", "D", "I2"}
SUPPORTED_EXCEPTIONALS = (4, 12)


def build(spec: GroupSpec, order_bound: int = DEFAULT_ORDER_BOUND) -> BuiltGroup:
    """Instantiate a group spec: generate the group, extract (A, d)."""
    if spec.kind == "imprimitive":
        return _build_imprimitive(spec, spec.d, spec.e, spec.r, order_bound)
    if spec.kind == "coxeter":
        return _build_coxeter(spec, order_bound)
    if spec.kind == "exceptional":
        gens = {4: g4_generators, 12: g12_generators}.get(spec.st)
        if gens is not None:
            g = GroupModel.generate(gens(), order_bound)
            return BuiltGroup(spec, g, Arrangement.from_group(g))
        raise ValueError(
            f"unsupported Shephard-Todd number {spec.st}; "
            f"models exist for {SUPPORTED_EXCEPTIONALS} "
            "(others are reference-table data only)"
        )
    if spec.kind == "explicit":
        m = spec.cyclotomic_order or 1
        gens = [
            Matrix([[parse_literal(x, m) for x in row] for row in gmat])
            for gmat in spec.generators
        ]
        g = GroupModel.generate(gens, order_bound)
        if not g.reflections:
            raise ValueError("the explicit generators give a group with no reflections")
        return BuiltGroup(spec, g, Arrangement.from_group(g))
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def _build_imprimitive(spec, d, e, r, order_bound):
    if d < 1 or e < 1 or r < 1:
        raise ValueError("imprimitive parameters must be positive")
    if d * e < 2 and r < 2:
        raise ValueError("G(1,1,1) is trivial")
    gens = _monomial_generators(d * e, e, r)
    g = GroupModel.generate(gens, order_bound)
    if d == 1 and e == 1:
        # the symmetric group fixes the diagonal; restrict to the root span
        g, arr = essentialize(g)
    else:
        arr = Arrangement.from_group(g)
    return BuiltGroup(spec, g, arr)


def _build_coxeter(spec, order_bound) -> BuiltGroup:
    t, n = spec.coxeter_type, spec.n
    if t not in _COXETER_FAMILIES:
        raise ValueError(f"unknown Coxeter type {t!r}")
    if t == "A":
        built = _build_imprimitive(spec, 1, 1, n + 1, order_bound)
    elif t == "B":
        built = _build_imprimitive(spec, 2, 1, n, order_bound)
    elif t == "D":
        built = _build_imprimitive(spec, 1, 2, n, order_bound)
    elif n in (3, 4, 6):
        # crystallographic dihedrals have integer Cartan models
        c = {3: 1, 4: 2, 6: 3}[n]
        one = CycNum.one()
        s1 = Matrix([[-one, one], [CycNum.zero(), one]])
        s2 = Matrix([[one, CycNum.zero()], [CycNum.rational(c), -one]])
        g = GroupModel.generate([s1, s2], order_bound)
        built = BuiltGroup(spec, g, Arrangement.from_group(g))
    else:  # I2(m) = G(m,m,2), irrational monomial model, no real root data
        built = _build_imprimitive(spec, 1, n, 2, order_bound)
        return built
    built.positive_roots = coxeter_positive_roots(built.group, built.arrangement)
    return built


def coxeter_positive_roots(g: GroupModel, arr: Arrangement):
    """The orbit-transported roots, each negated if its first nonzero
    coordinate is negative.  W sends them to roots of unity times roots,
    +-1 in a rational model; raises for any other model."""
    if not all(x.is_rational() for gen in g.generators for row in gen.rows for x in row):
        raise ValueError("positive-root transport needs a rational model")
    roots = [h.root for h in arr.hyperplanes]
    lead = [next(x for x in r if not x.is_zero()).as_fraction() for r in roots]
    return tuple(r if c > 0 else tuple(-x for x in r) for r, c in zip(roots, lead))
