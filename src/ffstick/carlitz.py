"""The Carlitz module, its torsion polynomials, and the torsion algebra.

The Carlitz module is the F_q-algebra map a -> phi_a from A = F_q[t] into
skew polynomials in the q-power Frobenius tau, pinned down by phi_t = tau + t
and the twist rule tau * b = b^q * tau.  Substituting tau^i -> X^(q^i) turns
phi_a into the additive torsion polynomial of a, whose roots are the
a-torsion of the module.  No skew product is taken: phi_a is the sum of
a_i phi_(t^i), each power of phi_t one step of a coefficient recurrence
from the last, and the result is one ``SkewPoly``, a value type that
``to_dense`` and ``eval_elem`` read as that additive polynomial.  The
primitive part Psi_I of the torsion polynomial of I plays the role of a
cyclotomic polynomial: phi_I(X) is the product of Psi_g over the monic
divisors g, every division along the way being exact, and deg Psi_I equals
the order of the unit group mod I.

Torsion points are handled symbolically inside F_q(t)[X] / Psi_I, never
through root finding in a completion.  Psi_I is monic with coefficients in
F_q[t], so an element of the algebra is held as F_q[t] numerators over one
monic common denominator, and an element with polynomial coefficients, like
every image of X, costs no gcd.  Since the characteristic is p, e -> e^q is
the Frobenius map on the coefficients, and the algebra keeps X^(q^i) for
i < deg I so that X -> phi_a(X) is a linear combination.  Elements are
inverted by the extended Euclidean algorithm with pseudo-division, which
stays in F_q[t][X]; ``RatFunc``, a value type with no arithmetic, appears
only where coefficients are read or written one by one.  On top of that
sits the tensor square F_q(t)[X, Y] / (Psi(X), Psi(Y)) and the split
element

    u = sum_j m_j (delta_j x 1)(1 x delta_j)^(-1)  -  1

attached to a split squarefree modulus p via its partial fraction weights
m_j = 1/p'(a_j), together with the consistency checks that make the
construction meaningful: invertibility of each delta_j, the torsion relation
phi_(t-a_j)(delta_j) = 0, and the diagonal specialization of u.
"""

from __future__ import annotations

from .fieldcore import FieldCtx, Poly, dense_divmod, dense_mul, dense_strip

__all__ = [
    "SkewPoly",
    "carlitz_map",
    "torsion_poly",
    "psi_cyclotomic",
    "psi_dense",
    "xmul",
    "RatFunc",
    "TorsionAlgebra",
    "AlgElem",
    "galois_act",
    "partial_fractions",
    "split_tensor_element",
    "SplitElementReport",
]


class SkewPoly:
    """Polynomial in the Frobenius symbol tau with coefficients in F_q[t],
    a value with no arithmetic: its coefficient tuples, little endian in tau.

    Read with tau^i as X^(q^i), the same coefficients are the additive
    polynomial sum_i c_i X^(q^i) (``to_dense``, ``eval_elem``).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(dense_strip([ctx.pvalidate(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "SkewPoly(0)"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(Poly(self.ctx, c))
            if i == 0:
                parts.append(f"({cs})")
            elif i == 1:
                parts.append(f"({cs})*tau")
            else:
                parts.append(f"({cs})*tau^{i}")
        return "SkewPoly(" + " + ".join(parts) + ")"

    def to_dense(self) -> list[tuple]:
        """Coefficient list in X (little endian), entries in F_q[t]."""
        if not self.coeffs:
            return []
        q = self.ctx.q
        out = [()] * (q ** (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[q ** i] = c
        return out

    def eval_elem(self, e: "AlgElem") -> "AlgElem":
        """Evaluate at an element of a torsion algebra over the same field;
        each power e^(q^i) is the Frobenius map of the one before."""
        alg = e.algebra
        if alg.ctx != self.ctx:
            raise ValueError("algebra element is over a different field")
        acc = alg.zero()
        power = e
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + power.scale_poly(c)
            if i + 1 < len(self.coeffs):
                power = power._frob()
        return acc


def _phi_t_power(ctx: FieldCtx, i: int) -> tuple:
    """The coefficients of phi_(t^i) = (tau + t)^i, memoized on ctx per i.

    Coefficient j of (tau + t) * P is t * P_j + P_(j-1)^q.
    """
    hit = ctx.memo.get(("phi", i))
    if hit is None:
        if i == 0:
            hit = ((1,),)
        else:
            prev = _phi_t_power(ctx, i - 1)
            hit = tuple(ctx.pmuladd(ctx.pfrob(b), (0, 1), c)
                        for c, b in zip(prev + ((),), ((),) + prev))
        ctx.memo["phi", i] = hit
    return hit


def carlitz_map(ctx: FieldCtx, a) -> SkewPoly:
    """phi_a = sum_i a_i phi_(t^i), by F_q-linearity in the powers of t."""
    a = ctx.pvalidate(a)
    out = [()] * len(a)  # phi_a has degree deg a in tau
    for i, c in enumerate(a):
        if c:
            for j, b in enumerate(_phi_t_power(ctx, i)):
                out[j] = ctx.pmuladd(out[j], b, (c,))
    return SkewPoly(ctx, out)


def torsion_poly(ctx: FieldCtx, a) -> SkewPoly:
    """phi_a read as the additive polynomial whose roots are the a-torsion
    of the module (:meth:`SkewPoly.to_dense`, :meth:`SkewPoly.eval_elem`)."""
    phi = carlitz_map(ctx, a)
    if not phi.coeffs:  # phi_a has constant term a
        raise ValueError("torsion polynomial of zero is not defined")
    return phi


# ---------------------------------------------------------------------------
# dense polynomials in X over F_q[t]: just enough for the exact divisions


def xmul(ctx: FieldCtx, a: list, b: list) -> list:
    """Product of dense polynomials in X with F_q[t] tuple coefficients."""
    return dense_strip(dense_mul(a, b, (), ctx.pmuladd))


def psi_cyclotomic(ctx: FieldCtx, I) -> list[Poly]:
    """Primitive I-torsion polynomial: the factor of phi_I(X) not dividing
    the torsion polynomial of any proper divisor.

    Computed by exact division: phi_I(X) divided by Psi_g for every proper
    monic divisor g (including g = 1, whose factor is X).  Any nonzero
    remainder would signal an implementation bug and raises.  Returns the
    dense X-coefficient list, leading coefficient the constant 1.
    """
    dense = psi_dense(ctx, ctx.pmodulus(I))
    return [Poly(ctx, c) for c in dense]


def psi_dense(ctx: FieldCtx, I: tuple) -> list:
    """Psi_I as a dense X-coefficient list of F_q[t] tuples, memoized on ctx per I.

    I must be a validated monic tuple; psi_cyclotomic and TorsionAlgebra
    are the checked entries.
    """
    hit = ctx.memo.get(("psi", I))
    if hit is not None:
        return hit
    if I == (1,):
        result = [(), (1,)]  # phi_1(X) = X
    else:
        num = torsion_poly(ctx, I).to_dense()
        for g in ctx.monic_divisors(I):
            if g == I:
                continue
            # Psi_g is monic in X
            quot, rem = dense_divmod(num, psi_dense(ctx, g), (), ctx.pmulsub)
            if rem:
                raise ArithmeticError(
                    "primitive torsion factor does not divide exactly"
                )
            num = quot
        result = num
    ctx.memo["psi", I] = result
    return result


# ---------------------------------------------------------------------------
# rational functions over F_q


class RatFunc:
    """Reduced fraction of polynomials over F_q, denominator monic: the value
    type of an algebra coefficient at the boundary, with no arithmetic."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldCtx, num, den=(1,)):
        num = ctx.pvalidate(num)
        den = ctx.pvalidate(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.ctx = ctx
        self.num, self.den = _reduced(ctx, num, den)

    @classmethod
    def _of(cls, ctx: FieldCtx, num: tuple, den: tuple) -> "RatFunc":
        """The fraction num / den of valid, stripped tuples with den nonzero,
        as the algebra makes them, without ``pvalidate``."""
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.num, obj.den = _reduced(ctx, num, den)
        return obj

    @classmethod
    def from_elem(cls, ctx: FieldCtx, e: int) -> "RatFunc":
        return cls(ctx, (e,) if e else ())

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.ctx == other.ctx
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.ctx.q, self.num, self.den))

    def __repr__(self):
        n = str(Poly(self.ctx, self.num))
        if self.den == (1,):
            return n
        return f"({n})/({Poly(self.ctx, self.den)})"

    def to_json(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}


def _reduced(ctx: FieldCtx, num: tuple, den: tuple) -> tuple:
    """num / den in lowest terms with a monic denominator, den nonzero;
    no gcd when den is 1."""
    if not num:
        return num, (1,)
    if den == (1,):
        return num, den
    g = ctx.pgcd(num, den)
    if g != (1,):
        num = ctx.pdivmod(num, g)[0]
        den = ctx.pdivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        inv = ctx.inv_table[lead]
        num = ctx.pscale(num, inv)
        den = ctx.pscale(den, inv)
    return num, den


# ---------------------------------------------------------------------------
# the torsion algebra and its tensor square


def _lcm(ctx: FieldCtx, a: tuple, b: tuple) -> tuple:
    """The monic lcm of monic a and b."""
    if a == (1,) or a == b:
        return b
    return ctx.pmul(a, ctx.pdivmod(b, ctx.pgcd(a, b))[0])


def _content(ctx: FieldCtx, polys, g: tuple = ()) -> tuple:
    """The monic gcd of g and polys, which stops early at 1."""
    for x in polys:
        if x:
            g = ctx.pgcd(g, x)
            if g == (1,):
                break
    return g


def _sub_shifted(ctx: FieldCtx, a: tuple, u: list, c: tuple, k: int, v: list) -> list:
    """a * u - c * X^k * v for dense lists in X over F_q[t], stripped."""
    out = [ctx.pmul(a, x) for x in u]
    out += [()] * (k + len(v) - len(out))
    for j, y in enumerate(v):
        if y:
            out[k + j] = ctx.pmulsub(out[k + j], c, y)
    return dense_strip(out)


class AlgElem:
    """Residue class in F_q(t)[X] / Psi, held as coefficients below deg Psi:
    F_q[t] numerators ``nums`` over one monic denominator ``den``.

    The denominator shares no factor with the gcd of the numerators, so each
    element has one form, and a polynomial element has ``den == (1,)``.  The
    constructor takes ``RatFunc`` coefficients over the algebra's field, and
    ``coeffs`` gives them back.
    """

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra: "TorsionAlgebra", coeffs):
        cs = list(coeffs)
        if len(cs) > algebra.dim:
            raise ValueError("coefficient list exceeds the algebra dimension")
        ctx = algebra.ctx
        den = (1,)
        for c in cs:
            algebra._check_coeff(c)
            den = _lcm(ctx, den, c.den)
        # reduced fractions over the lcm of their denominators: no factor of
        # the lcm divides every numerator
        nums = [c.num if c.den == den else ctx.pmul(c.num, ctx.pdivmod(den, c.den)[0])
                for c in cs]
        self.algebra = algebra
        self.nums = tuple(nums) + ((),) * (algebra.dim - len(nums))
        self.den = den

    @property
    def coeffs(self) -> tuple:
        ctx, den = self.algebra.ctx, self.den
        return tuple(RatFunc._of(ctx, n, den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def _plus(self, other, fused) -> "AlgElem":
        """self + other or self - other, with fused ``pmuladd`` or ``pmulsub``."""
        alg = self.algebra
        alg._match(other)
        ctx = alg.ctx
        a, b = self.den, other.den
        if a == b:
            return alg._elem([fused(x, (1,), y) for x, y in zip(self.nums, other.nums)], a)
        den = _lcm(ctx, a, b)
        ca, cb = ctx.pdivmod(den, a)[0], ctx.pdivmod(den, b)[0]
        pmul = ctx.pmul
        return alg._elem([fused(pmul(x, ca), cb, y) for x, y in zip(self.nums, other.nums)],
                         den)

    def __add__(self, other):
        return self._plus(other, self.algebra.ctx.pmuladd)

    def __sub__(self, other):
        return self._plus(other, self.algebra.ctx.pmulsub)

    def __mul__(self, other):
        alg = self.algebra
        alg._match(other)
        ctx = alg.ctx
        raw = dense_mul(self.nums, other.nums, (), ctx.pmuladd)
        return alg._elem(raw, ctx.pmul(self.den, other.den))

    def scale_poly(self, p) -> "AlgElem":
        ctx = self.algebra.ctx
        p = ctx.pvalidate(p)
        return self.algebra._elem([ctx.pmul(n, p) for n in self.nums], self.den)

    def _frob(self) -> "AlgElem":
        """self^q: in characteristic p, (sum_j c_j X^j)^q = sum_j c_j(t^q) X^(jq),
        so each numerator and the denominator go through ``pfrob``, exponent j
        moves to jq, and the result is reduced mod Psi once."""
        alg = self.algebra
        ctx, q = alg.ctx, alg.ctx.q
        raw = [()] * ((len(self.nums) - 1) * q + 1)
        for j, n in enumerate(self.nums):
            if n:
                raw[j * q] = ctx.pfrob(n)
        return alg._elem(raw, ctx.pfrob(self.den))

    def pow_int(self, k: int) -> "AlgElem":
        """self^k; each factor q of k is one Frobenius map, the rest squarings."""
        if k < 0:
            return self.inv().pow_int(-k)
        q = self.algebra.ctx.q
        if k and k % q == 0:
            return self.pow_int(k // q)._frob()
        out = self.algebra.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inv(self) -> "AlgElem":
        """Inverse by the extended Euclidean algorithm on the numerators, with
        pseudo-division so that everything stays in F_q[t]: each remainder r
        comes with an s such that s * nums = r mod Psi, the pair divided by
        its content, until r is a nonzero c of F_q[t]; then the inverse is
        den * s / c.  Raises if the element shares a factor with Psi."""
        alg = self.algebra
        ctx = alg.ctx
        r0, s0 = list(alg._psi), []
        r1, s1 = dense_strip(list(self.nums)), [(1,)]
        if not r1:
            raise ZeroDivisionError("zero element has no inverse")
        while len(r1) > 1:
            r, s = r0, s0
            while len(r) >= len(r1):
                # lead(r1) * r - r[-1] * X^k * r1 drops r's top coefficient
                c, k = r[-1], len(r) - len(r1)
                r = _sub_shifted(ctx, r1[-1], r, c, k, r1)
                s = _sub_shifted(ctx, r1[-1], s, c, k, s1)
            if not r:
                raise ZeroDivisionError(
                    "element is a zero divisor: gcd with Psi has positive degree"
                )
            g = _content(ctx, r + s)
            if g != (1,):
                r = [ctx.pdivmod(x, g)[0] for x in r]
                s = [ctx.pdivmod(x, g)[0] for x in s]
            r0, s0, r1, s1 = r1, s1, r, s
        c = r1[0]
        unit = ctx.inv_table[c[-1]]
        return alg._elem([ctx.pscale(ctx.pmul(x, self.den), unit) for x in s1],
                         ctx.pscale(c, unit))

    def __eq__(self, other):
        return (
            isinstance(other, AlgElem)
            and self.algebra is other.algebra
            and self.nums == other.nums
            and self.den == other.den
        )

    def __repr__(self):
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c.is_zero:
                continue
            mono = "" if i == 0 else ("*X" if i == 1 else f"*X^{i}")
            parts.append(f"({c!r}){mono}")
        return "AlgElem(" + (" + ".join(parts) if parts else "0") + ")"


class TorsionAlgebra:
    """F_q(t)[X] / Psi_I, its elements F_q[t] numerators over one denominator.

    It keeps the numerators of X^(q^i) mod Psi for i < deg I, each the
    Frobenius map of the one before, so the image of X under a unit class,
    phi_a(X), is a linear combination of them; each image is computed once
    and kept by residue.  Both tables hold numerator tuples, not elements,
    so an algebra refers to no element of its own.
    """

    def __init__(self, ctx: FieldCtx, I):
        I = ctx.pmodulus(I)
        self._psi = psi_dense(ctx, I)  # monic in X
        self.ctx = ctx
        self.I = I
        self.dim = len(self._psi) - 1
        x = self.x_gen()
        self._x_qpowers = [x.nums]
        for _ in range(len(I) - 2):
            x = x._frob()
            self._x_qpowers.append(x.nums)
        self._images: dict = {}  # a mod I -> numerators of phi_a(X) mod Psi

    def zero(self) -> AlgElem:
        return self._elem([])

    def one(self) -> AlgElem:
        return self._elem([(1,)])

    def x_gen(self) -> AlgElem:
        # X reduces to a constant when Psi is linear in X
        return self._elem([(), (1,)])

    def constant(self, f: RatFunc) -> AlgElem:
        return AlgElem(self, [f])

    def _match(self, other):
        if not isinstance(other, AlgElem) or other.algebra is not self:
            raise ValueError("elements belong to different algebras")

    def _check_coeff(self, c):
        if not isinstance(c, RatFunc):
            raise TypeError(f"expected a RatFunc coefficient, got {type(c).__name__}")
        if c.ctx != self.ctx:
            raise ValueError("coefficient is over a different field")

    def _elem(self, raw: list, den: tuple = (1,)) -> AlgElem:
        """The element raw / den for F_q[t] numerators raw, of any length,
        and a monic den: raw reduced mod Psi, then numerators and den divided
        by their gcd when den is not 1."""
        ctx = self.ctx
        if len(raw) > self.dim:
            raw = dense_divmod(raw, self._psi, (), ctx.pmulsub)[1]
        if den != (1,):
            g = _content(ctx, raw, den)
            if g != (1,):  # g == den when raw is zero
                raw = [ctx.pdivmod(n, g)[0] for n in raw]
                den = ctx.pdivmod(den, g)[0]
        e = object.__new__(AlgElem)
        e.algebra = self
        e.nums = tuple(raw) + ((),) * (self.dim - len(raw))
        e.den = den
        return e

    def __repr__(self):
        return f"TorsionAlgebra(q={self.ctx.q}, I={Poly(self.ctx, self.I)}, dim={self.dim})"


def galois_act(alg: TorsionAlgebra, a, e: AlgElem) -> AlgElem:
    """Action of a unit class a on torsion: X -> phi_a(X), extended to e.

    The action factors through a mod I and requires gcd(a, I) = 1.  phi_a(X)
    is sum_i c_i X^(q^i) with the powers from the algebra's table, since
    deg a < deg I, made once per residue a mod I and algebra; its powers are
    taken only up to the last nonzero coefficient of e, so e = X costs no
    product.
    """
    ctx = alg.ctx
    a = ctx.pmod(ctx.pvalidate(a), alg.I)
    pmuladd = ctx.pmuladd
    image = alg._images.get(a)
    if image is None:
        if ctx.pgcd(a, alg.I) != (1,):
            raise ValueError("the acting polynomial must be coprime to the modulus")
        image = [()] * alg.dim
        for c, xq in zip(torsion_poly(ctx, a).coeffs, alg._x_qpowers):
            if c:
                image = [pmuladd(s, c, n) for s, n in zip(image, xq)]
        image = alg._images[a] = tuple(image)
    alg._match(e)
    image_x = alg._elem(image)
    # substitute X -> image_x in the numerators of e, over e's denominator
    top = max((i for i, n in enumerate(e.nums) if n), default=-1)
    acc = [()] * alg.dim
    power = alg.one()
    for i, n in enumerate(e.nums[: top + 1]):
        if i:
            power = power * image_x if i > 1 else image_x
        if n:
            acc = [pmuladd(s, n, m) for s, m in zip(acc, power.nums)]
    return alg._elem(acc, e.den)


def partial_fractions(ctx: FieldCtx, p) -> list[tuple[int, int]]:
    """Roots and weights of 1/p for a monic split squarefree p.

    Returns pairs (a_j, m_j) of field elements with m_j = 1/p'(a_j), sorted
    by root encoding.  The exact reconstruction sum_j m_j p(t)/(t - a_j) = 1
    is verified before returning.
    """
    p = ctx.pmodulus(p)
    _, factors = ctx.pfactor(p)
    roots = []
    for f, mult in factors:
        if len(f) != 2 or mult != 1:
            raise ValueError("p must split into distinct degree-1 factors")
        roots.append(ctx.neg_table[f[0]])
    roots.sort()
    deriv = ctx.pderiv(p)
    out = []
    for a in roots:
        val = ctx.peval(deriv, a)
        if val == 0:
            raise ValueError("p must be squarefree")
        out.append((a, ctx.inv_table[val]))
    # exact reconstruction check
    total = ()
    for a, m in out:
        cof, rem = ctx.pdivmod(p, ctx.psub((0, 1), (a,)))
        assert rem == ()
        total = ctx.pmuladd(total, cof, (m,))
    if total != (1,):
        raise ArithmeticError("partial fraction reconstruction failed")
    return out


class SplitElementReport:
    def __init__(self, ok: bool, checks: list | None = None, weights: list | None = None,
                 diagonal_constant: RatFunc | None = None, tensor: list | None = None,
                 dim: int = 0):
        self.ok, self.checks = ok, [] if checks is None else checks
        self.weights = [] if weights is None else weights
        self.diagonal_constant, self.tensor, self.dim = diagonal_constant, tensor, dim


def split_tensor_element(ctx: FieldCtx, p) -> SplitElementReport:
    """Build the split element of the tensor square algebra for a split
    squarefree modulus p, and run its consistency checks.

    For each root a_j of p let delta_j be the image of X under the torsion
    polynomial of p/(t - a_j), taken mod Psi_p.  The element

        u = sum_j m_j (delta_j x 1)(1 x delta_j)^(-1) - 1

    lives in F_q(t)[X, Y]/(Psi(X), Psi(Y)); since each factor depends on one
    variable only, the product is an outer product of coefficient vectors.
    Checks recorded: invertibility of each delta_j, the torsion relation
    phi_(t-a_j)(delta_j) = 0, and that the diagonal specialization X = Y
    sends u to the constant (sum_j m_j) - 1.
    """
    p = ctx.pvalidate(p)
    pf = partial_fractions(ctx, p)
    alg = TorsionAlgebra(ctx, p)
    D = alg.dim
    checks: list[dict] = []
    ok = True

    deltas: list[AlgElem] = []
    invs: list[AlgElem | None] = []
    x = alg.x_gen()
    for a, _ in pf:
        cof, rem = ctx.pdivmod(p, ctx.psub((0, 1), (a,)))
        assert rem == ()
        delta = torsion_poly(ctx, cof).eval_elem(x)
        deltas.append(delta)
        try:
            invs.append(delta.inv())
            entry = {"check": "delta_invertible", "root": a, "status": "pass"}
        except ZeroDivisionError as exc:
            invs.append(None)
            ok = False
            entry = {
                "check": "delta_invertible",
                "root": a,
                "status": "fail",
                "reason": str(exc),
            }
        checks.append(entry)

    for (a, _), delta in zip(pf, deltas):
        lin = ctx.psub((0, 1), (a,))
        residue = torsion_poly(ctx, lin).eval_elem(delta)
        good = residue.is_zero
        ok = ok and good
        checks.append({
            "check": "torsion_relation",
            "root": a,
            "status": "pass" if good else "fail",
        })

    tensor = None
    diag_const = None
    if all(v is not None for v in invs):
        # u[i][k] multiplies X^i Y^k; its numerators sit over the lcm L of
        # the denominators of the terms
        dens = [ctx.pmul(delta.den, invd.den) for delta, invd in zip(deltas, invs)]
        L = (1,)
        for d in dens:
            L = _lcm(ctx, L, d)
        padd, pmuladd = ctx.padd, ctx.pmuladd
        u = [[()] * D for _ in range(D)]
        for (_, m), delta, invd, d in zip(pf, deltas, invs, dens):
            cof = ctx.pscale(ctx.pdivmod(L, d)[0], m)
            ys = [ctx.pmul(ck, cof) for ck in invd.nums]
            for row, ci in zip(u, delta.nums):
                if ci:
                    for k, ck in enumerate(ys):
                        if ck:
                            row[k] = pmuladd(row[k], ci, ck)
        u[0][0] = ctx.psub(u[0][0], L)

        # diagonal specialization X = Y
        diag_raw = [()] * (2 * D - 1)
        for i, row in enumerate(u):
            for k, c in enumerate(row):
                if c:
                    diag_raw[i + k] = padd(diag_raw[i + k], c)
        diag = alg._elem(diag_raw, L)
        msum = 0
        for _, m in pf:
            msum = ctx.add_table[msum][m]
        expected = alg.constant(RatFunc.from_elem(ctx, ctx.sub_table[msum][1]))
        good = diag == expected
        ok = ok and good
        diag_const = expected.coeffs[0]
        checks.append({
            "check": "diagonal_specialization",
            "status": "pass" if good else "fail",
            "expected_constant": diag_const.to_json(),
        })
        tensor = [[RatFunc._of(ctx, c, L).to_json() for c in row] for row in u]

    return SplitElementReport(
        ok=ok,
        checks=checks,
        weights=[[a, m] for a, m in pf],
        diagonal_constant=diag_const,
        tensor=tensor,
        dim=D,
    )
