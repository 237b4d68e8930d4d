"""Exact arithmetic over small finite fields F_q and dense polynomials in F_q[t].

Conventions used throughout the package:

* A field element of F_q, q = p^m, is encoded as an integer in [0, q).  The
  base-p digits of the integer are the coordinates of the element in the
  polynomial basis 1, u, ..., u^(m-1) of F_p[u] modulo the canonical modulus.
  For prime fields (m = 1) the encoding is the usual residue in [0, p).
* The canonical modulus of degree m is the lexicographically smallest monic
  irreducible polynomial over F_p, where polynomials are ordered by the
  integer encoding of their coefficient sequence (low degree digits first).
  For m = 1 the modulus is u itself.
* A polynomial in F_q[t] is a tuple of encoded coefficients, little endian,
  with no trailing zeros.  The zero polynomial is the empty tuple and its
  degree is the sentinel -inf.
* Field arithmetic is table lookup: ``mul_table[a][b]``, ``add_table[a][b]``
  and so on, q x q lists of rows.  They are built from the exp/log tables of
  a primitive element (mul, inv) and by recursion on the base-p digits (add,
  neg, sub); the exp table takes F_p-linear steps through the add table, with
  no product in F_p[u].  Every entry is one of q shared int objects.
* The monic irreducibles of degree d, and the smallest irreducible factor
  of every monic polynomial of degree d with the key offset of its
  cofactor, come from one sieve per degree (``FieldCtx.first_factors``),
  cached in the context's ``memo``; Rabin's test (``is_irreducible``) and
  ``pfactor`` stay as the routes for single polynomials.  Rabin's test
  applies the q-power map of F_q[t]/f as a matrix; ``pfactor`` raises to
  the q-th power by square-and-multiply (``ppow_mod``).

Polynomial arithmetic is on tuples, through the methods of
:class:`FieldCtx`; there is no second interface.  :class:`Poly` is the value
type at the boundary: a caller may pass one for a polynomial argument, some
public functions return one, and every repr in the package prints a
polynomial through its ``str``.  ``FieldCtx.pvalidate`` is the one entry for
a polynomial argument: it takes a coefficient sequence or a ``Poly``, and
refuses a ``Poly`` over another field.

The modules above this one multiply dense polynomials over other
coefficient rings too: F_q[t] in X, and Z[G_I] in F or z; they divide
only by the monic Psi_g, over F_q[t] in X.  They share one schoolbook
kernel, ``dense_mul``, ``dense_divmod`` and ``dense_strip``, which takes
the ring as its zero and one fused multiply-accumulate (over F_q[t],
``FieldCtx.pmuladd`` or ``pmulsub``), a falsy coefficient being zero.
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "NEG_INF",
    "FieldCtx",
    "Poly",
    "field_context",
    "dense_mul",
    "dense_divmod",
    "dense_strip",
]

NEG_INF = float("-inf")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _mix(*values: int) -> int:
    """Fold integers into a 64 bit seed, independent of hash randomization."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        v &= 0xFFFFFFFFFFFFFFFF
        h ^= v
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


# ---------------------------------------------------------------------------
# dense polynomials over any coefficient ring: little endian lists, the ring
# given by its zero and fma(acc, x, y) = acc + x*y, a falsy coefficient zero


def dense_strip(cs: list) -> list:
    """Drop the zero coefficients at the top of cs, in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def dense_mul(a: Sequence, b: Sequence, zero, fma, size: int | None = None) -> list:
    """The product of a and b, one fma per step, not stripped; with ``size``,
    only its first ``size`` coefficients (a truncated power series)."""
    n = len(a) + len(b) - 1 if a and b else 0
    if size is not None:
        n = min(n, size)
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if x:
            for k, y in enumerate(b[:n - i], i):
                if y:
                    out[k] = fma(out[k], x, y)
    return out


def dense_divmod(a: Sequence, b: Sequence, zero, fms) -> tuple[list, list]:
    """Quotient and remainder of a by b by fms(acc, x, y) = acc - x*y, both
    stripped; b must be stripped and monic, its leading coefficient one."""
    rem = list(a)
    db = len(b) - 1
    quot = [zero] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        quot[i - db] = c
        for k, y in enumerate(b, i - db):
            if y:
                rem[k] = fms(rem[k], c, y)
    return dense_strip(quot), dense_strip(rem)


# ---------------------------------------------------------------------------
# F_p[u] helpers used only while building a context (integer coefficients
# reduced mod p, little endian lists, no tables required).

def _fp_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(r) - 1 >= db and r:
        c = (r[-1] * inv) % p
        shift = len(r) - 1 - db
        for j in range(db + 1):
            r[shift + j] = (r[shift + j] - c * b[j]) % p
        dense_strip(r)
    return r

def _fp_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division test, adequate for the tiny moduli we construct."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    # check roots first, then divisors of higher degree
    for g_deg in range(1, d // 2 + 1):
        for key in range(p ** g_deg):
            g = [key // p ** i % p for i in range(g_deg)] + [1]
            if not _fp_mod(f, g, p):
                return False
    return True


def _picker(indices: Sequence[int]):
    """Map a sequence s to the tuple of s[i] for i in indices."""
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


def _add_neg_rows(elems: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """Addition rows and negation over the elements, by recursion on base-p digits.

    With s = p^(k-1), a' + s*c plus b' + s*d is add'[a'][b'] + s*((c + d) % p),
    so the row of a' + s*c is p blocks: the row of a' read in the p shifted
    copies of the elements below s, rotated by c.
    """
    q = len(elems)
    add = [elems[a:p] + elems[:a] for a in range(p)]
    neg = [(-a) % p for a in range(p)]
    s = p
    while s < q:
        shifted = [elems[s * c:s * (c + 1)] for c in range(p)]
        blocks = []
        for row in add:
            pick = _picker(row)
            blocks.append([pick(seg) for seg in shifted])
        add = [list(chain.from_iterable(blocks[a][c:] + blocks[a][:c]))
               for c in range(p) for a in range(s)]
        neg = [x + s * ((-c) % p) for c in range(p) for x in neg]
        s *= p
    return add, [elems[e] for e in neg]


def _fused(table: str):
    """acc + a*b (``add_table``) or acc - a*b (``sub_table``) for stripped
    tuples, a ``FieldCtx`` method: one pass into one list, stripped once;
    acc itself when a*b = 0."""

    def fused(self, acc, a, b):
        if not a or not b:
            return acc
        out = list(acc)
        out += [0] * (len(a) + len(b) - 1 - len(out))
        ops, mt = getattr(self, table), self.mul_table
        for i, ca in enumerate(a):
            if ca:
                row = mt[ca]
                for k, cb in enumerate(b, i):
                    if cb:
                        out[k] = ops[out[k]][row[cb]]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    fused.__doc__ = _fused.__doc__
    return fused


class FieldCtx:
    """A finite field F_q together with tuple level polynomial arithmetic.

    Instances are cheap value objects: equality and hashing only look at
    (p, m, modulus).  The optional seed feeds the deterministic retries of
    equal degree factorization and is not part of the identity.  ``memo``
    holds the tables derived from the field alone, keyed by a tag and what
    is left once the field is fixed: here the sieve's per degree
    ("irreducibles", "first_factors", "cofactors") and the factors and
    divisors of each monic polynomial ("factor", "divisors"); the unit
    tables of ``groupring`` ("units"), the tables of ``heckelat`` and
    ``carlitz``.  No value refers to this instance, so the memo lives and
    dies with it by reference counting, and an equal instance starts with
    its own.

    The limit q <= 4096 is real.  Measured in a fresh CPython 3.11.7 process
    on a 2-core x86-64 Intel Xeon: GF(256) builds in about 0.004 s, GF(2^12)
    in about 1.0 s with a peak RSS of 274 MB (add and sub share their rows
    when p = 2), and GF(4093) in about 1.1 s with 403 MB.  Larger q is
    refused, and p > 4096 or m > 12 before the primality test and p ** m,
    whose costs grow with p and m.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "seed",
        "add_table", "sub_table", "mul_table", "neg_table", "inv_table",
        "exp_table", "log_table",
        "memo", "__weakref__",
    )

    def __init__(self, p: int, m: int = 1, seed: int = 0):
        if p > 4096 or m > 12:
            raise ValueError(f"field of size {p}^{m} exceeds the table based limit 4096")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        q = p ** m
        if q > 4096:
            raise ValueError(f"field of size {q} exceeds the table based limit 4096")
        self.p = p
        self.m = m
        self.q = q
        self.seed = seed
        self.modulus = self._canonical_modulus()
        self._build_tables()
        self.memo: dict = {}

    def _canonical_modulus(self) -> tuple[int, ...]:
        p, m = self.p, self.m
        if m == 1:
            return (0, 1)
        for key in range(p ** m):
            f = [key // p ** i % p for i in range(m)] + [1]
            if _fp_irreducible(f, p):
                return tuple(f)
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        elems = list(range(q))  # every table entry is one of these objects
        zero = elems[0]

        add, neg = _add_neg_rows(elems, p)
        # a - b = a + (-b); for p = 2 negation is the identity
        sub = add if p == 2 else [list(_picker(neg)(row)) for row in add]

        # mul and inv from exp[i] = g^i for the first primitive element g;
        # log inverts exp on the units.  x*g is F_p-linear in the base-p
        # digits c_k of x: the sum of c_k*(u^k*g) through the add table, and
        # u*y shifts the digits of y up one place, its top digit folding back
        # as that digit times -(the modulus below u^m).
        def multiples(y: int) -> list[int]:
            out = [zero]
            for _ in range(p - 1):
                out.append(add[out[-1]][y])
            return out

        top = q // p
        wrap = multiples(sum((-c) % p * p ** i for i, c in enumerate(self.modulus[:m])))

        def powers(g: int) -> list[int]:
            """g^i for 0 <= i < the order of g."""
            cols = [multiples(g)]  # cols[k][c] = c*u^k*g
            for _ in range(m - 1):
                hi, lo = divmod(cols[-1][1], top)
                cols.append(multiples(add[lo * p][wrap[hi]]))
            out, x = [elems[1]], g
            while x != 1:
                out.append(x)
                acc, rest = zero, x
                for col in cols:
                    rest, c = divmod(rest, p)
                    acc = add[acc][col[c]]
                x = acc
            return out

        exp = next(e for e in map(powers, elems[1:]) if len(e) == q - 1)
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        exp2 = exp + exp
        pick = _picker(log[1:])
        mul = [[zero] * q]
        mul += [[zero, *pick(exp2[log[a]:log[a] + q - 1])] for a in range(1, q)]
        inv = [zero] + [exp[-log[a] % (q - 1)] for a in range(1, q)]

        self.exp_table = exp
        self.log_table = log
        self.add_table = add
        self.sub_table = sub
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv

    # -- tuple polynomial arithmetic ---------------------------------------

    def pvalidate(self, coeffs: "Iterable[int] | Poly") -> tuple[int, ...]:
        """The stripped coefficients of a polynomial argument: a sequence of
        encoded elements, or a ``Poly`` over this field.  A coefficient must
        be exactly an ``int``, so a ``bool`` is refused."""
        if isinstance(coeffs, Poly):
            if coeffs.ctx != self:
                raise ValueError("polynomial is over a different field")
            return coeffs.coeffs
        out = list(coeffs)
        for c in out:
            if type(c) is not int or not 0 <= c < self.q:
                raise ValueError(f"coefficient {c!r} is not an encoded element of GF({self.q})")
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def pmodulus(self, I) -> tuple[int, ...]:
        """``pvalidate`` for a modulus, which must be monic of degree at least 1."""
        I = self.pvalidate(I)
        if len(I) < 2 or I[-1] != 1:
            raise ValueError("modulus must be monic of degree at least 1")
        return I

    def padd(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        at = self.add_table
        out = [at[x][y] for x, y in zip(a, b)]
        out.extend(a[len(b):])
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def psub(self, a, b):
        return self.pmulsub(a, (1,), b)

    def pscale(self, a, c: int):
        if c == 0:
            return ()
        if c == 1:
            return tuple(a)
        row = self.mul_table[c]
        return tuple(row[x] for x in a)

    def pmul(self, a, b):
        if not a or not b:
            return ()
        at, mt = self.add_table, self.mul_table
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                row = mt[ca]
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = at[out[i + j]][row[cb]]
        return tuple(out)

    pmuladd = _fused("add_table")
    pmulsub = _fused("sub_table")

    def pdivmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            return (), tuple(a)
        st, mt = self.sub_table, self.mul_table
        inv = self.inv_table[b[-1]]
        r = list(a)
        quo = [0] * (da - db + 1)
        for i in range(da - db, -1, -1):
            c = mt[r[i + db]][inv]
            if c:
                quo[i] = c
                row = mt[c]
                for j in range(db + 1):
                    if b[j]:
                        r[i + j] = st[r[i + j]][row[b[j]]]
        rem = r[:db]
        while rem and rem[-1] == 0:
            rem.pop()
        while quo and quo[-1] == 0:
            quo.pop()
        return tuple(quo), tuple(rem)

    def pmod(self, a, b):
        return self.pdivmod(a, b)[1]

    def pmonic(self, a):
        if not a or a[-1] == 1:
            return tuple(a)
        return self.pscale(a, self.inv_table[a[-1]])

    def pgcd(self, a, b):
        a, b = tuple(a), tuple(b)
        while b:
            a, b = b, self.pmod(a, b)
        return self.pmonic(a)

    def ppow_mod(self, a, e: int, mod):
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        out = (1,) if len(mod) > 1 else ()
        base = self.pmod(a, mod)
        while e:
            if e & 1:
                out = self.pmod(self.pmul(out, base), mod)
            base = self.pmod(self.pmul(base, base), mod)
            e >>= 1
        return out

    def pderiv(self, a):
        p = self.p
        mt = self.mul_table
        out = [mt[a[i]][i % p] for i in range(1, len(a))]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def peval(self, a, x: int) -> int:
        acc = 0
        at, mt = self.add_table, self.mul_table
        for c in reversed(a):
            acc = at[mt[acc][x]][c]
        return acc

    def pfrob(self, a, e: int = 1):
        """a(t) raised to the q^e power; coefficients of F_q are Frobenius fixed."""
        if not a:
            return ()
        step = self.q ** e
        out = [0] * ((len(a) - 1) * step + 1)
        for i, c in enumerate(a):
            out[i * step] = c
        return tuple(out)

    def pkey(self, a) -> int:
        q = self.q
        key = 0
        for c in reversed(a):
            key = key * q + c
        return key

    def pfrom_key(self, key: int):
        q = self.q
        out = []
        while key:
            out.append(key % q)
            key //= q
        return tuple(out)

    def monic_tuples(self, d: int) -> Iterator[tuple[int, ...]]:
        """Monic degree d tuples in canonical (integer encoding) order."""
        if d < 0:
            return
        if d == 0:
            yield (1,)
            return
        for key in range(self.q ** d):
            f = self.pfrom_key(key)
            yield f + (0,) * (d - len(f)) + (1,)

    def _qpow_map(self, f):
        """The q-power map h -> h^q of F_q[t]/f on residues h of degree
        below d = deg f, as a d x d matrix: the map is F_q-linear because
        a^q = a on F_q, so h^q is the sum of h_i * t^(q*i) mod f."""
        rows = [(1,), self.ppow_mod((0, 1), self.q, f)][:len(f) - 1]
        for _ in range(len(f) - 3):
            rows.append(self.pmod(self.pmul(rows[-1], rows[1]), f))

        def image(h):
            out = ()
            for c, row in zip(h, rows):
                if c:
                    out = self.pmuladd(out, row, (c,))
            return out

        return image

    def is_irreducible(self, f) -> bool:
        """Rabin test: t^(q^d) = t mod f and no splitting at proper prime
        indices, the powers t^(q^k) mod f read off the q-power matrix."""
        d = len(f) - 1
        if d <= 0:
            return False
        qpow = self._qpow_map(f)
        powers = [self.pmod((0, 1), f)]
        for _ in range(d):
            powers.append(qpow(powers[-1]))
        t = powers[0]
        if powers[d] != t:
            return False
        for ell in {e for e in range(2, d + 1) if d % e == 0 and _is_prime(e)}:
            if self.pgcd(self.psub(powers[d // ell], t), f) != (1,):
                return False
        return True

    def monic_irreducibles(self, d: int) -> tuple:
        """All monic irreducibles of degree d, cached, canonical order.

        Read off the sieve of :meth:`first_factors`: the monic polynomials of
        degree d that no product P*g marks, P irreducible of degree at most
        d/2.  No polynomial goes through Rabin's test.
        """
        if d < 1:
            return ()
        irreds = self.memo.get(("irreducibles", d))
        if irreds is None:
            base = self.q ** d
            irreds = self.memo["irreducibles", d] = tuple(
                self.pfrom_key(base + i) for i, pk in enumerate(self.first_factors(d)) if not pk
            )
        return irreds

    def first_factors(self, d: int) -> list:
        """Smallest irreducible factor of every monic polynomial of degree d.

        A flat list indexed by pkey(f) - q^d: the key of the first irreducible
        factor of f in (degree, key) order, or 0 when f is irreducible.  It
        is a sieve, cached per degree: for each irreducible P of degree
        e <= d/2, in canonical order, every product P*g with g monic of
        degree d - e is marked unless a smaller factor marked it first.  The
        same pass keeps the cofactor of every mark (:meth:`cofactors`).

        The products come in key space.  With g = t*g' + c, the key of P*g
        is q * pkey(P*g') with its e + 1 low digits replaced, and those
        digits depend only on the e low digits of P*g' and on c; a table of
        q^(e+1) entries per P gives them.  Starting from pkey(P), each step
        multiplies the list of products by q, g' running in key order, so
        the product at position j of the list is P times the monic of key
        q^(d-e) + j.
        """
        table = self.memo.get(("first_factors", d))
        if table is not None:
            return table
        if d < 1:
            raise ValueError(f"degree must be positive, got {d}")
        q = self.q
        base = q ** d
        table = [0] * base
        cof = array("I", [0]) * base
        at, mt = self.add_table, self.mul_table
        for e in range(1, d // 2 + 1):
            qe = q ** e
            high = qe * q
            for P in self.monic_irreducibles(e):
                pk = self.pkey(P)
                # low[r*q + c] = pkey(t*R + c*P) for pkey(R) = r, deg R < e:
                # digit 0 is c*P_0, digit j + 1 is R_j + c*P_(j+1), so for
                # each c it is R shifted by one digit after a digitwise add,
                # built one digit at a time from the add table's rows
                lows = []
                for row in mt:  # row = mt[c]
                    cP = [row[x] for x in P]
                    added, s = [0], 1
                    for v in cP[1:]:
                        added = [a * s + x for a in at[v] for x in added]
                        s *= q
                    lows.append([cP[0] + q * x for x in added])
                low = [k for ks in zip(*lows) for k in ks]
                keys = [pk]
                for _ in range(d - e):
                    keys = [hi * high + v
                            for x in keys for hi, r in (divmod(x, qe),)
                            for v in low[r * q:r * q + q]]
                for j, x in enumerate(keys):
                    i = x - base
                    if not table[i]:
                        table[i] = pk
                        cof[i] = j
        self.memo["first_factors", d] = table
        self.memo["cofactors", d] = cof
        return table

    def cofactors(self, d: int) -> array:
        """Cofactor offsets of the sieve of :meth:`first_factors`.

        A flat ``array`` indexed like ``first_factors(d)``: for a reducible
        monic f of degree d with smallest factor P of degree e, the entry j
        makes f / P the monic of key q^(d-e) + j.  The entry of an
        irreducible f is 0 and means nothing.
        """
        self.first_factors(d)
        return self.memo["cofactors", d]

    # -- factorization ------------------------------------------------------

    def _pth_root(self, a):
        """Inverse of the p power map on a polynomial in t^p: c^(p^(m-1))
        for each coefficient c, read off the log table."""
        exp, log, e, n = self.exp_table, self.log_table, self.p ** (self.m - 1), self.q - 1
        out = [exp[log[c] * e % n] if c else 0 for c in a[::self.p]]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def _squarefree_parts(self, f):
        """List of (squarefree monic, multiplicity), pairwise coprime."""
        out = []
        df = self.pderiv(f)
        if not df:
            for g, mult in self._squarefree_parts(self._pth_root(f)):
                out.append((g, mult * self.p))
            return out
        c = self.pgcd(f, df)
        w = self.pdivmod(f, c)[0]
        i = 1
        while len(w) > 1:
            y = self.pgcd(w, c)
            z = self.pdivmod(w, y)[0]
            if len(z) > 1:
                out.append((self.pmonic(z), i))
            w = y
            c = self.pdivmod(c, y)[0]
            i += 1
        if len(c) > 1:
            for g, mult in self._squarefree_parts(self._pth_root(c)):
                out.append((g, mult * self.p))
        return out

    def _distinct_degree(self, f):
        """Split a squarefree monic f into (product of degree d factors, d) parts."""
        out = []
        h = (0, 1)
        rest = f
        d = 0
        while len(rest) - 1 >= 2 * (d + 1):
            d += 1
            h = self.ppow_mod(h, self.q, rest)
            g = self.pgcd(self.psub(h, (0, 1)), rest)
            if len(g) > 1:
                out.append((g, d))
                rest = self.pdivmod(rest, g)[0]
                h = self.pmod(h, rest)
        if len(rest) > 1:
            out.append((rest, len(rest) - 1))
        return out

    def _equal_degree(self, f, d: int):
        """Cantor Zassenhaus splitting with deterministic seeded retries."""
        n = len(f) - 1
        if n == d:
            return [f]
        import random

        rng = random.Random(_mix(self.seed, self.p, self.q, self.pkey(f), d))
        q = self.q
        while True:
            a = tuple(rng.randrange(q) for _ in range(n))
            while a and a[-1] == 0:
                a = a[:-1]
            if len(a) <= 1:
                continue
            g = self.pgcd(a, f)
            if 1 < len(g) < len(f):
                split = g
            else:
                if q % 2 == 1:
                    b = self.ppow_mod(a, (q ** d - 1) // 2, f)
                    b = self.psub(b, (1,))
                else:
                    # trace map over F_2 inside F_{q^d}
                    k = self.m * d if self.p == 2 else d
                    b = self.pmod(a, f)
                    acc = b
                    for _ in range(k - 1):
                        b = self.pmod(self.pmul(b, b), f)
                        acc = self.padd(acc, b)
                    b = acc
                split = self.pgcd(b, f)
            if 1 < len(split) < len(f):
                left = self.pmonic(split)
                right = self.pdivmod(f, left)[0]
                return self._equal_degree(left, d) + self._equal_degree(right, d)

    def pfactor(self, f):
        """Full factorization of a nonzero tuple polynomial.

        Returns (unit, list of (monic irreducible, multiplicity)) with the
        factors sorted by degree then canonical key.  Deterministic for a
        fixed context seed.  The factors of each monic polynomial are
        computed once (``_factor_monic``) and kept in ``memo``; every call
        returns a list of its own.
        """
        if not f:
            raise ValueError("cannot factor the zero polynomial")
        unit = f[-1]
        f = self.pmonic(f)
        found = self.memo.get(("factor", f))
        if found is None:
            found = self.memo["factor", f] = self._factor_monic(f)
        return unit, list(found)

    def _factor_monic(self, f) -> tuple:
        """The (monic irreducible, multiplicity) pairs of a monic f, sorted
        by degree then canonical key."""
        found: list[tuple[tuple[int, ...], int]] = []
        if len(f) > 1:
            for sqf, mult in self._squarefree_parts(f):
                for prod, d in self._distinct_degree(sqf):
                    for irr in self._equal_degree(prod, d):
                        found.append((self.pmonic(irr), mult))
        found.sort(key=lambda fm: (len(fm[0]), self.pkey(fm[0])))
        return tuple(found)

    def monic_divisors(self, f):
        """All monic divisors of f in canonical order, a list of its own on
        every call; the divisors of each monic polynomial are kept in ``memo``."""
        f = self.pmonic(f)
        divs = self.memo.get(("divisors", f))
        if divs is None:
            _, factors = self.pfactor(f)
            divs = [(1,)]
            for g, mult in factors:
                powers = [(1,)]
                for _ in range(mult):
                    powers.append(self.pmul(powers[-1], g))
                divs = [self.pmul(d, pw) for d in divs for pw in powers]
            divs = self.memo["divisors", f] = tuple(
                sorted(set(divs), key=lambda d: (len(d), self.pkey(d))))
        return list(divs)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.q}))"


class Poly:
    """A polynomial of F_q[t] as a value: its field and its stripped
    coefficient tuple, validated on construction and immutable.

    It has no arithmetic; that is on tuples through :class:`FieldCtx`.  Two
    are equal when their fields and coefficients are, and ``str`` writes
    one as ``2*t^2 + 1``.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable[int]):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", ctx.pvalidate(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# module level operations


def field_context(p: int, m: int = 1, seed: int = 0) -> FieldCtx:
    """Build the table backed context for F_{p^m} with its canonical modulus."""
    return FieldCtx(p, m, seed=seed)
