"""Lines that a set of generators permutes up to roots of unity.

For a finite group W generated by matrices over Q(zeta_k), the orbit of
a line under W is finite, and once one vector per line is fixed by
transport along the generators, w v_i = zeta_K^e v_j with K = lcm(2, k)
(Lehrer-Taylor, Unitary Reflection Groups, ch. 1-2).  A set of such
lines that, together with V^W, spans V determines each element by its
permutation and exponents; :class:`LineSet` builds one, with the
generators' rows, and is the data :mod:`reflarr.matgroup` closes the
group on.  The root orbits come first, and
:meth:`reflarr.matgroup.GroupModel.generate` seeds every one of them,
so each element's code holds its row on the roots.  A line orbit
longer than the order bound, or a scalar that is no root of unity,
shows the group is too large or infinite.
"""

from __future__ import annotations

from array import array
from math import lcm

from .cyclo import CycNum
from .linalg import Matrix, nullspace, rank


class NotFiniteWithinBound(RuntimeError):
    """The group is infinite, or larger than the order bound."""


class LineSet:
    """Lines that the generators permute up to roots of unity: generator
    s sends v_i to ``units[exps[s][i]] * v_{perms[s][i]}``.

    Grown by :meth:`close`, one seed orbit at a time.  After
    :meth:`bootstrap`, ``vectors[:roots]`` are the orbits of the given
    roots, the rest standard basis orbits, added while the lines and
    ``fixed`` (a basis of V^W) do not span V; ``basis`` picks the lines
    that complete ``fixed`` to a basis of V.
    """

    def __init__(self, generators, units, bound):
        self.generators, self.units, self.bound = generators, units, bound
        self.exponent = {u: e for e, u in enumerate(units)}
        self.vectors = []
        self.index = {}  # normalized vector -> line
        self.inv_leads = []  # 1 / the first nonzero coordinate of each line
        self.perms = [[] for _ in generators]
        self.exps = [array("I") for _ in generators]
        self.roots, self.fixed, self.basis = 0, (), ()

    @staticmethod
    def bootstrap(generators, roots, k: int, bound: int) -> "LineSet":
        """The orbits of the roots, in order, then standard basis orbits
        until the lines and V^W span V."""
        n = generators[0].dim
        ident = Matrix.identity(n)
        z = CycNum.zeta(k) if k % 2 == 0 else -CycNum.zeta(k, (k + 1) // 2)  # zeta_2k if k odd
        lines = LineSet(generators, tuple(z**e for e in range(lcm(2, k))), bound)
        lines.fixed = tuple(nullspace([row for s in generators for row in (s - ident).rows], n))
        for root in roots:
            lines.close(root)
        lines.roots = len(lines.vectors)
        rows, basis = list(lines.fixed), []

        def extend(start):  # greedily, the new lines that enlarge the span
            for j in range(start, len(lines.vectors)):
                if len(rows) == n:
                    return
                if rank([*rows, lines.vectors[j]]) > len(rows):
                    rows.append(lines.vectors[j])
                    basis.append(j)

        extend(0)
        for i in range(n):
            e_i = tuple(CycNum.one() if j == i else CycNum.zero() for j in range(n))
            if len(rows) < n and rank([*rows, e_i]) > len(rows):
                start = len(lines.vectors)
                lines.close(e_i)
                extend(start)
        lines.basis = tuple(basis)
        return lines

    def _key(self, v):
        """(v normalized, its first nonzero coordinate x, 1 / x); a unit
        is inverted by its exponent, anything else by the Galois norm."""
        lead = next(x for x in v if not x.is_zero())
        e = self.exponent.get(lead)
        inv = lead.inverse() if e is None else self.units[-e % len(self.units)]
        return tuple(inv * x for x in v), lead, inv

    def _add(self, v, key, inv_lead) -> int:
        j = self.index[key] = len(self.vectors)
        self.vectors.append(v)
        self.inv_leads.append(inv_lead)
        return j

    def close(self, seed):
        """Add the orbit of the seed's line, unless the line is present.

        The seed is normalized and its images s v kept as transported,
        breadth first; row s gets (j, e) at position i for
        s v_i = zeta_K^e v_j.  A scalar that is no root of unity, or an
        orbit longer than the bound, means the group is infinite or
        larger than the bound.
        """
        key = self._key(seed)[0]
        if key in self.index:
            return
        orbit = [self._add(key, key, CycNum.one())]
        for i in orbit:  # the orbit grows while walked: breadth first
            for s, gen in enumerate(self.generators):
                img = gen.matvec(self.vectors[i])
                key, lead, inv = self._key(img)
                j = self.index.get(key)
                if j is None:
                    j = self._add(img, key, inv)
                    orbit.append(j)
                    if len(orbit) > self.bound:
                        raise NotFiniteWithinBound(
                            f"a line orbit exceeded order bound {self.bound}"
                        )
                # img and v_j are proportional, with leads at one coordinate
                c = lead * self.inv_leads[j]
                if c not in self.exponent:
                    raise NotFiniteWithinBound(
                        f"generator {s} scales a line by {c!r}, not a root of unity, "
                        "so the group is infinite"
                    )
                self.perms[s].append(j)
                self.exps[s].append(self.exponent[c])
