"""Integral group rings over unit groups of F_q[t] modulo an ideal.

For a monic modulus I of positive degree, G_I = (F_q[t]/I)^* is a finite
abelian group.  This module provides:

* :class:`UnitGroup`: the group itself, with canonical representatives the
  reduced residues of degree < deg I listed in encoding order, so the
  identity class [1] always sits at index 0, and classes looked up by
  residue key through a step table for t*r mod I, with no division;
* :class:`GroupRingElem`: elements of Z[G_I] with arbitrary precision
  integer coefficients;
* :class:`FrobPoly`: polynomials in a central variable F over Z[G_I], the
  commutative shadow in which the annihilator elements are assembled.

Every coefficient is an exact integer; no rounding of any kind enters the
pipeline.
"""

from __future__ import annotations

from typing import Iterable

from .fieldcore import NEG_INF, FieldCtx, Poly, dense_mul

__all__ = [
    "UnitGroup",
    "GroupRingElem",
    "FrobPoly",
    "unit_group",
    "norm_element",
    "norm_residue",
]


def _unit_table(ctx: FieldCtx, I: tuple) -> tuple:
    """The units of F_q[t]/I in key order, and the tuple from residue key to
    unit index (-1 for a non-unit), by one gcd per residue: this route does
    not factor I, so ``order_by_formula`` stays a check on it."""
    elems = []
    unit = [-1] * ctx.q ** (len(I) - 1)
    for key in range(len(unit)):
        f = ctx.pfrom_key(key)
        if ctx.pgcd(f, I) == (1,):
            unit[key] = len(elems)
            elems.append(f)
    return tuple(elems), tuple(unit)


# Group elements are indices into UnitGroup.elements, with 0 the identity.
class UnitGroup:
    """(F_q[t]/I)^* with canonical residue representatives.

    The unit tables of each modulus are built once per field context and
    kept in its ``memo`` as plain tuples; the step table and product rows
    belong to the instance."""

    __slots__ = ("ctx", "I", "elements", "order", "_unit", "_steps", "_rows")

    def __init__(self, ctx: FieldCtx, I):
        I = ctx.pmodulus(I)
        self.ctx = ctx
        self.I = I
        tables = ctx.memo.get(("units", I))
        if tables is None:
            tables = ctx.memo["units", I] = _unit_table(ctx, I)
        self.elements, self._unit = tables
        self.order = len(self.elements)
        self._steps = None
        self._rows: list = [None] * self.order
        assert self.elements[0] == (1,), "identity residue must come first"

    # -- group structure ----------------------------------------------------

    def rep(self, i: int) -> Poly:
        return Poly(self.ctx, self.elements[i])

    def class_index(self, g) -> int:
        """Index of [g mod I]; raises if g is not coprime to the modulus.

        g of any degree is reduced on residue keys, with no division.  A
        tuple is read as it is, unvalidated: the Euler product makes one
        call per prime, with tuples from the sieve."""
        if isinstance(g, Poly):
            g = self.ctx.pvalidate(g)
        r = self._residue_key(g)
        idx = self._unit[r]
        if idx < 0:
            raise ValueError(f"residue {self.ctx.pfrom_key(r)} is not a unit modulo the context ideal")
        return idx

    def _residue_key(self, g) -> int:
        """Key of g mod I by Horner's rule: the step entry of residue key r is
        t*r mod I without digit 0 and the add-table row of that digit."""
        steps = self._steps
        if steps is None:
            ctx, q, at = self.ctx, self.ctx.q, self.ctx.add_table
            tr = (ctx.pkey(ctx.pmod(ctx.pmul((0, 1), ctx.pfrom_key(r)), self.I))
                  for r in range(len(self._unit)))
            steps = self._steps = [(s - s % q, at[s % q]) for s in tr]
        r = 0
        for c in reversed(g):
            base, row = steps[r]
            r = base + row[c]
        return r

    def _row(self, i: int):
        row = self._rows[i]
        if row is None:
            ctx, unit, key, a = self.ctx, self._unit, self._residue_key, self.elements[i]
            row = self._rows[i] = [unit[key(ctx.pmul(a, b))] for b in self.elements]
        return row

    def mul(self, i: int, j: int) -> int:
        return self._row(i)[j]

    def order_by_formula(self) -> int:
        """Closed form Prod (q^deg P - 1) q^(deg P (e-1)) over P^e dividing I."""
        ctx = self.ctx
        _, factors = ctx.pfactor(self.I)
        out = 1
        for P, e in factors:
            dp = len(P) - 1
            out *= (ctx.q ** dp - 1) * ctx.q ** (dp * (e - 1))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, UnitGroup)
            and self.ctx == other.ctx
            and self.I == other.I
        )

    def __hash__(self):
        return hash((self.ctx, self.I))

    def __repr__(self):
        return f"UnitGroup(q={self.ctx.q}, I={Poly(self.ctx, self.I)}, order={self.order})"


def unit_group(ctx: FieldCtx, I) -> UnitGroup:
    """Unit group of F_q[t]/I for a monic modulus of positive degree."""
    return UnitGroup(ctx, I)


class GroupRingElem:
    """Element of Z[G_I], stored sparsely as index -> integer coefficient."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: UnitGroup, coeffs: dict[int, int] | None = None):
        self.group = group
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if c}

    @classmethod
    def zero(cls, group: UnitGroup) -> "GroupRingElem":
        return cls(group)

    @classmethod
    def basis(cls, group: UnitGroup, g) -> "GroupRingElem":
        """The class [g mod I] as a ring element."""
        return cls(group, {group.class_index(g): 1})

    @classmethod
    def integer(cls, group: UnitGroup, n: int) -> "GroupRingElem":
        return cls(group, {0: n})

    def _check(self, other: "GroupRingElem") -> "GroupRingElem":
        if not isinstance(other, GroupRingElem):
            raise TypeError(f"expected GroupRingElem, got {type(other).__name__}")
        if other.group != self.group:
            raise ValueError("elements live over different unit groups")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return GroupRingElem(self.group, out)

    def __sub__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) - c
        return GroupRingElem(self.group, out)

    def __neg__(self):
        return GroupRingElem(self.group, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElem(self.group, {i: c * other for i, c in self.coeffs.items()})
        if not isinstance(other, GroupRingElem):
            return NotImplemented  # a FrobPoly multiplies from its own side
        return GroupRingElem(self.group).muladd(self, self._check(other))

    __rmul__ = __mul__

    def muladd(self, x: "GroupRingElem", y: "GroupRingElem") -> "GroupRingElem":
        """self + x * y as one coefficient dict and one element, for x and y
        over this group: the fused multiply-add ``dense_mul`` takes for Z[G_I]."""
        out = dict(self.coeffs)
        for i, ci in x.coeffs.items():
            row = self.group._row(i)
            for j, cj in y.coeffs.items():
                k = row[j]
                out[k] = out.get(k, 0) + ci * cj
        return GroupRingElem(self.group, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElem)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int) -> int:
        return self.coeffs.get(i, 0)

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.items():
            g = self.group.rep(i)
            parts.append(f"{c}*[{g}]" if c != 1 else f"[{g}]")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "I": list(self.group.I),
            "coeffs": [[list(self.group.elements[i]), c] for i, c in self.items()],
        }


def norm_element(group: UnitGroup) -> GroupRingElem:
    """Sum of all group classes."""
    return GroupRingElem(group, {i: 1 for i in range(group.order)})


def norm_residue(a: GroupRingElem) -> GroupRingElem:
    """Canonical representative of a in Z[G]/Z*N.

    Subtracts c*N where c is the coefficient of the identity class, making
    that coefficient zero; two elements are congruent mod Z*N exactly when
    their canonical representatives are equal.
    """
    c = a.coeff(0)
    if c == 0:
        return a
    return a - c * norm_element(a.group)


class FrobPoly:
    """Polynomial in a central variable F with coefficients in Z[G_I]."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: UnitGroup, coeffs: Iterable[GroupRingElem]):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, GroupRingElem) or c.group != group:
                raise ValueError("coefficients must be GroupRingElem over the same group")
        while cs and cs[-1].is_zero:
            cs.pop()
        self.group = group
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, group: UnitGroup) -> "FrobPoly":
        return cls(group, [])

    @classmethod
    def constant(cls, c: GroupRingElem) -> "FrobPoly":
        return cls(c.group, [c])

    @classmethod
    def monomial(cls, group: UnitGroup, k: int, coeff: GroupRingElem | None = None) -> "FrobPoly":
        """coeff * F^k, with coeff defaulting to the identity class."""
        if coeff is None:
            coeff = GroupRingElem.integer(group, 1)
        return cls(group, [GroupRingElem.zero(group)] * k + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int) -> GroupRingElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GroupRingElem.zero(self.group)

    def _check(self, other: "FrobPoly") -> "FrobPoly":
        if not isinstance(other, FrobPoly):
            raise TypeError(f"expected FrobPoly, got {type(other).__name__}")
        if other.group != self.group:
            raise ValueError("polynomials live over different group rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FrobPoly(self.group, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FrobPoly(self.group, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return FrobPoly(self.group, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return FrobPoly(self.group, [c * other for c in self.coeffs])
        if isinstance(other, GroupRingElem):
            return FrobPoly(self.group, [c * other for c in self.coeffs])
        other = self._check(other)
        zero = GroupRingElem.zero(self.group)
        return FrobPoly(self.group, dense_mul(self.coeffs, other.coeffs, zero,
                                              GroupRingElem.muladd))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, FrobPoly)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def eval_at_one(self) -> GroupRingElem:
        """Collapse F to the identity: the sum of all coefficients."""
        out = GroupRingElem.zero(self.group)
        for c in self.coeffs:
            out = out + c
        return out

    def map_coeffs(self, fn) -> "FrobPoly":
        return FrobPoly(self.group, [fn(c) for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            fk = "" if k == 0 else ("F" if k == 1 else f"F^{k}")
            parts.append(f"({c}){('*' + fk) if fk else ''}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]
