"""Integral group rings over unit groups of F_q[t] modulo an ideal.

For a monic modulus I of positive degree, G_I = (F_q[t]/I)^* is a finite
abelian group.  This module provides:

* :class:`UnitGroup`: the group itself, with canonical representatives the
  reduced residues of degree < deg I listed in encoding order, so the
  identity class [1] always sits at index 0;
* :class:`GroupRingElem`: elements of Z[G_I] with arbitrary precision
  integer coefficients;
* :class:`FrobPoly`: polynomials in a central variable F over Z[G_I], the
  commutative shadow in which the annihilator elements are assembled;
* exact characters of G_I with values in the cyclotomic integers
  Z[x]/(Phi_e(x)), e the exponent of the group.

A character value is accumulated as an exponent vector in Z[x]/(x^e - 1)
and reduced modulo the cyclotomic polynomial Phi_e as soon as it becomes a
:class:`CycloInt`; every CycloInt reduces when it is built, so equal values
have equal coefficients and no rounding of any kind enters the pipeline.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, reduce
from typing import Callable, Iterable

from .fieldcore import NEG_INF, FieldCtx, Poly, dense_divmod, dense_mul

__all__ = [
    "UnitGroup",
    "GroupRingElem",
    "FrobPoly",
    "CycloInt",
    "Character",
    "unit_group",
    "norm_element",
    "norm_residue",
    "characters",
    "cyclotomic_poly",
]


# ---------------------------------------------------------------------------
# abstract-group helpers shared by UnitGroup and the quotients formed during
# the cyclic decomposition; elements are integers with 0 the identity.

def _gpow(mul: Callable[[int, int], int], x: int, k: int) -> int:
    out, base = 0, x
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def _gorder(mul: Callable[[int, int], int], x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = mul(y, x)
        k += 1
    return k


def _decompose(n: int, mul: Callable[[int, int], int]) -> list[tuple[int, int]]:
    """Basis (g_i, e_i) of an abelian group with Prod e_i = n.

    Greedy: take a generator of maximal order, form the quotient by brute
    force on cosets, recurse, then lift the quotient basis so the cyclic
    factors intersect trivially.
    """
    if n == 1:
        return []
    orders = {i: _gorder(mul, i) for i in range(n)}
    g = max(range(n), key=lambda i: (orders[i], -i))
    e1 = orders[g]
    if e1 == n:
        return [(g, e1)]
    cyc = []
    x = 0
    for _ in range(e1):
        cyc.append(x)
        x = mul(x, g)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(n):
        if i in coset_of:
            continue
        r = len(reps)
        reps.append(i)
        for s in cyc:
            coset_of[mul(i, s)] = r

    def qmul(a: int, b: int) -> int:
        return coset_of[mul(reps[a], reps[b])]

    out = [(g, e1)]
    for qb, qe in _decompose(len(reps), qmul):
        h = reps[qb]
        target = _gpow(mul, h, qe)
        s = 0
        y = 0
        while y != target:
            y = mul(y, g)
            s += 1
        # s is divisible by qe because e1 is the group exponent
        h = mul(h, _gpow(mul, g, (-(s // qe)) % e1))
        assert _gorder(mul, h) == qe
        out.append((h, qe))
    return out


class UnitGroup:
    """(F_q[t]/I)^* with canonical residue representatives."""

    __slots__ = ("ctx", "I", "elements", "order", "_index", "_rows", "_orders", "_exponent")

    def __init__(self, ctx: FieldCtx, I):
        I = ctx.pvalidate(I)
        if len(I) < 2:
            raise ValueError("modulus must have degree >= 1")
        if I[-1] != 1:
            raise ValueError("modulus must be monic")
        self.ctx = ctx
        self.I = I
        elems = []
        for key in range(ctx.q ** (len(I) - 1)):
            f = ctx.pfrom_key(key)
            if ctx.pgcd(f, I) == (1,):
                elems.append(f)
        self.elements = tuple(elems)
        self.order = len(elems)
        self._index = {e: i for i, e in enumerate(elems)}
        self._rows: list = [None] * self.order
        self._orders: list = [None] * self.order
        self._exponent = None
        assert self.elements[0] == (1,), "identity residue must come first"

    # -- group structure ----------------------------------------------------

    def rep(self, i: int) -> Poly:
        return Poly(self.ctx, self.elements[i])

    def class_index(self, g) -> int:
        """Index of [g mod I]; raises if g is not coprime to the modulus.

        A tuple g is read as it is, unvalidated: the Euler product makes
        one call per prime, with tuples from the sieve."""
        if isinstance(g, Poly):
            g = self.ctx.pvalidate(g)
        r = self.ctx.pmod(g, self.I)
        idx = self._index.get(r)
        if idx is None:
            raise ValueError(f"residue {r} is not a unit modulo the context ideal")
        return idx

    def _row(self, i: int):
        row = self._rows[i]
        if row is None:
            ctx, I, a = self.ctx, self.I, self.elements[i]
            row = [self._index[ctx.pmod(ctx.pmul(a, b), I)] for b in self.elements]
            self._rows[i] = row
        return row

    def mul(self, i: int, j: int) -> int:
        return self._row(i)[j]

    def inv(self, i: int) -> int:
        return self._row(i).index(0)

    def pow(self, i: int, k: int) -> int:
        if k < 0:
            return _gpow(self.mul, self.inv(i), -k)
        return _gpow(self.mul, i, k)

    def element_order(self, i: int) -> int:
        if self._orders[i] is None:
            self._orders[i] = _gorder(self.mul, i)
        return self._orders[i]

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = reduce(math.lcm, (self.element_order(i) for i in range(self.order)), 1)
        return self._exponent

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
        other = self._check(other)
        out: dict[int, int] = {}
        for i, ci in self.coeffs.items():
            row = self.group._row(i)
            for j, cj in other.coeffs.items():
                k = row[j]
                out[k] = out.get(k, 0) + ci * cj
        return GroupRingElem(self.group, out)

    __rmul__ = __mul__

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
                                              operator.add, operator.mul))

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


# ---------------------------------------------------------------------------
# cyclotomic integers and characters


@cache
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, computed by dividing x^e - 1 by the smaller ones."""
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num, rem = dense_divmod(num, cyclotomic_poly(d), 0, operator.sub, operator.mul, None)
            assert not rem
    return tuple(num)


class CycloInt:
    """Element of Z[x]/(Phi_e(x)), coefficients stored exactly."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs: Iterable[int]):
        # Phi_e is monic
        _, r = dense_divmod(coeffs, cyclotomic_poly(e), 0, operator.sub, operator.mul, None)
        self.e = e
        self.coeffs = tuple(r)

    @classmethod
    def from_power(cls, e: int, k: int) -> "CycloInt":
        vec = [0] * e
        vec[k % e] = 1
        return cls(e, vec)

    @classmethod
    def from_int(cls, e: int, n: int) -> "CycloInt":
        return cls(e, [n])

    def _check(self, other: "CycloInt") -> "CycloInt":
        if not isinstance(other, CycloInt) or other.e != self.e:
            raise ValueError("cyclotomic integers live in different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return CycloInt(self.e, a)

    def __sub__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return CycloInt(self.e, a)

    def __neg__(self):
        return CycloInt(self.e, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.e, [c * other for c in self.coeffs])
        other = self._check(other)
        return CycloInt(self.e, dense_mul(self.coeffs, other.coeffs, 0, operator.add, operator.mul))

    __rmul__ = __mul__

    def conj(self) -> "CycloInt":
        """Complex conjugation x -> x^(e-1)."""
        vec = [0] * max(self.e, 1)
        for i, c in enumerate(self.coeffs):
            vec[(i * (self.e - 1)) % self.e] += c
        return CycloInt(self.e, vec)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, CycloInt) and self.e == other.e and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __repr__(self):
        return f"CycloInt(e={self.e}, {list(self.coeffs)})"


class Character:
    """A character of G_I, tabulated as exponents k_g with chi(g) = zeta_e^k_g."""

    __slots__ = ("group", "e", "exps")

    def __init__(self, group: UnitGroup, e: int, exps: tuple[int, ...]):
        self.group = group
        self.e = e
        self.exps = exps

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exps)

    @property
    def order(self) -> int:
        d = reduce(math.gcd, self.exps, self.e)
        return self.e // d

    def value(self, i: int) -> CycloInt:
        return CycloInt.from_power(self.e, self.exps[i])

    def apply(self, a: GroupRingElem) -> CycloInt:
        """chi extended Z-linearly; the sum is accumulated before reduction."""
        if a.group != self.group:
            raise ValueError("element and character live over different groups")
        vec = [0] * self.e
        for i, c in a.coeffs.items():
            vec[self.exps[i]] += c
        return CycloInt(self.e, vec)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.exps == other.exps
        )

    def __repr__(self):
        return f"Character(order={self.order}, exps={list(self.exps)})"


def characters(group: UnitGroup) -> tuple[Character, ...]:
    """All characters of G_I in a deterministic order, the trivial one first."""
    n = group.order
    e = group.exponent
    basis = _decompose(n, group.mul)
    coords: dict[int, tuple[int, ...]] = {}
    for tup in itertools.product(*[range(o) for _, o in basis]):
        elem = 0
        for (b, _), a in zip(basis, tup):
            elem = group.mul(elem, group.pow(b, a))
        coords[elem] = tup
    assert len(coords) == n, "cyclic decomposition failed to cover the group"
    chars = []
    for ktup in itertools.product(*[range(o) for _, o in basis]):
        exps = [0] * n
        for idx in range(n):
            a = coords[idx]
            exps[idx] = sum(k * ai * (e // o) for k, ai, (_, o) in zip(ktup, a, basis)) % e
        chars.append(Character(group, e, tuple(exps)))
    return tuple(chars)
