"""Full rank A-sublattices of A^n for A = F_q[t], and Hecke operators on them.

A lattice is stored through its canonical basis: an n x n upper triangular
matrix whose rows are the basis vectors, with monic diagonal entries and, for
i < j, the entry at (i, j) reduced so its degree is below the degree of the
(j, j) diagonal entry.  This canonical form is unique per lattice, so
lattices can be hashed and compared directly.  A formal Z-linear sum of
lattices (the modules Hecke operators act on) keys each lattice by its
diagonal and one int that packs the entries above the diagonal as F_p
digits (``_Packing``), with the field and rank stored once on the sum; the
operators add packed row vectors by XOR or a SWAR add, and Lattice objects
and row tuples are built only where a caller looks at single terms.

The operators implemented here all sum C N over a plan: a dict from each
diagonal of the coordinate matrices C to a trie over their rows
(``_plan``), or to None, which stands for every canonical C of that
diagonal and builds no trie.  One walker, ``_plan_sum``, builds the
canonical rows of C N bottom up, the same way for A^n and every other N:
each row runs over an affine space over F_q, of which a trie keeps the
indices of its matrices, and under None the rows below row i are built
once per residue class of row i's last entry.  The terms N of a sum that
share rows 1, ..., n - 1 share the walk of those rows (``_row0_frames``),
which is memoized on the field's context by those rows, the tail of C's
diagonal and the trie, and each term then builds only its row 0.

* ``t_det``: the sum of all sublattices of N of determinant g, a None
  trie for every diagonal of det g;
* ``t_local``: the sum of all sublattices N' of N with N/N' of length m as
  a module over the local ring at x, which is ``t_det`` at g = x^m;
* ``t_chain``: sublattices with a prescribed chain of invariant factors:
  ``t_det`` where the determinant forces it, and otherwise the tries of
  the matrices of one Smith form classification;
* ``sigma_apply``: the elementary operator at a monic prime x, summing the
  preimages of the codimension j subspaces of N / m_x N: ``t_chain`` for
  the chain (x, ..., x, 1, ..., 1), with the matrices in closed form;
* ``newton_verify``: checks the Newton style recurrence tying t_local to
  the elementary operators, together with the alternating Gaussian binomial
  identity that drives its proof;
* ``hecke_mult_verify``: checks multiplicativity of chain operators with
  coprime determinants.

Everything is exact; coefficients are Python integers and polynomial
arithmetic is table driven via FieldCtx.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import _count_elements
from collections.abc import Mapping
from typing import Callable, Iterable, Sequence

from .fieldcore import FieldCtx, Poly, _mix

__all__ = [
    "Lattice",
    "InvariantType",
    "LatticeSum",
    "standard_lattice",
    "hnf_reduce",
    "quotient_invariants",
    "sublattice_enum",
    "d_count",
    "phi_count",
    "sigma_apply",
    "t_local",
    "t_chain",
    "t_det",
    "gauss_binom",
    "alternating_qbinom_sum",
    "newton_verify",
    "hecke_mult_verify",
    "random_sublattice",
    "NewtonReport",
    "MultReport",
    "predict_newton_cost",
]


class Lattice:
    """A full rank sublattice of A^n in canonical triangular form.

    Built by ``hnf_reduce`` from spanning rows, or by ``standard_lattice``
    and ``random_sublattice``."""

    __slots__ = ("ctx", "n", "rows", "_hash")

    @classmethod
    def _wrap(cls, ctx: FieldCtx, n: int, rows: tuple) -> "Lattice":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "rows", rows)
        object.__setattr__(obj, "_hash", hash((ctx.q, rows)))
        return obj

    def __setattr__(self, name, value):
        if name in ("ctx", "n", "rows", "_hash") and hasattr(self, "_hash"):
            raise AttributeError("Lattice is immutable")
        object.__setattr__(self, name, value)

    @property
    def is_standard(self) -> bool:
        one, zero = (1,), ()
        return all(
            self.rows[i][j] == (one if i == j else zero)
            for i in range(self.n)
            for j in range(self.n)
        )

    def det(self) -> tuple:
        """Product of the diagonal entries, the monic determinant ideal generator."""
        d = (1,)
        for i in range(self.n):
            d = self.ctx.pmul(d, self.rows[i][i])
        return d

    def det_degree(self) -> int:
        return sum(len(self.rows[i][i]) - 1 for i in range(self.n))

    def sort_key(self) -> tuple:
        pk = self.ctx.pkey
        return tuple(pk(e) for row in self.rows for e in row)

    def scale(self, g) -> "Lattice":
        """The lattice g * N for a nonzero polynomial g."""
        g = self.ctx.pmonic(self.ctx.pvalidate(g))
        if not g:
            raise ValueError("cannot scale a lattice by zero")
        pmul = self.ctx.pmul
        rows = tuple(tuple(pmul(g, e) for e in row) for row in self.rows)
        return _canonical_from_triangular(self.ctx, self.n, [list(r) for r in rows])

    def coords_of(self, vector) -> list | None:
        """Coefficients expressing a vector in this basis, or None if outside."""
        ctx = self.ctx
        v = [ctx.pvalidate(e) for e in vector]
        if len(v) != self.n:
            raise ValueError("vector length does not match the rank")
        coords = []
        for i in range(self.n):
            q, r = ctx.pdivmod(v[i], self.rows[i][i])
            if r:
                return None
            coords.append(q)
            if q:
                for k in range(i, self.n):
                    if self.rows[i][k]:
                        v[k] = ctx.pmulsub(v[k], q, self.rows[i][k])
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(str(Poly(self.ctx, e)) for e in row) + "]" for row in self.rows
        )
        return f"Lattice({rows})"

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[list(e) for e in row] for row in self.rows]}


def standard_lattice(ctx: FieldCtx, n: int) -> Lattice:
    """A^n with its unit basis."""
    if n < 1:
        raise ValueError("rank must be positive")
    rows = tuple(tuple((1,) if i == j else () for j in range(n)) for i in range(n))
    return Lattice._wrap(ctx, n, rows)


def _canonical_rows(ctx: FieldCtx, n: int, rows: list) -> tuple:
    """Reduce an upper triangular basis with monic diagonal to canonical rows.

    Processes rows bottom up; each row is reduced against the rows below it,
    which are already in final form.
    """
    out = (tuple(rows[n - 1]),)
    for i in range(n - 2, -1, -1):
        out = (_reduce_row(ctx, rows[i], out, i),) + out
    return out


def _reduce_row(ctx: FieldCtx, v: list, tail: tuple, i: int) -> tuple:
    """Reduce row vector v (zero before column i) in place against the
    canonical rows ``tail`` of rows i+1, ..., n-1: each entry j > i ends
    below the degree of the diagonal entry of row j."""
    pdivmod, pmulsub = ctx.pdivmod, ctx.pmulsub
    n = len(v)
    for j in range(i + 1, n):
        rj = tail[j - i - 1]
        if len(v[j]) >= len(rj[j]):
            quo, v[j] = pdivmod(v[j], rj[j])
            for k in range(j + 1, n):
                if rj[k]:
                    v[k] = pmulsub(v[k], quo, rj[k])
    return tuple(v)


def _canonical_from_triangular(ctx: FieldCtx, n: int, rows: list) -> Lattice:
    return Lattice._wrap(ctx, n, _canonical_rows(ctx, n, rows))


def hnf_reduce(ctx: FieldCtx, rows) -> Lattice:
    """Canonical form of the lattice spanned by the given rows.

    Accepts any spanning family of at least n row vectors (entries Poly or
    coefficient sequences) and raises if the span has rank below n.
    """
    mat = []
    n = None
    for row in rows:
        r = [ctx.pvalidate(e) for e in row]
        if n is None:
            n = len(r)
        elif len(r) != n:
            raise ValueError("rows have inconsistent lengths")
        mat.append(r)
    if not mat or n == 0:
        raise ValueError("empty basis")
    pdivmod, pmulsub, pscale = ctx.pdivmod, ctx.pmulsub, ctx.pscale
    inv = ctx.inv_table
    pr = 0
    for col in range(n):
        while True:
            nz = [k for k in range(pr, len(mat)) if mat[k][col]]
            if not nz:
                raise ValueError("rows do not span a full rank lattice")
            if len(nz) == 1:
                k = nz[0]
                break
            nz.sort(key=lambda k: len(mat[k][col]))
            a, b = nz[0], nz[1]
            q, _ = pdivmod(mat[b][col], mat[a][col])
            ra, rb = mat[a], mat[b]
            for c in range(col, n):
                if ra[c]:
                    rb[c] = pmulsub(rb[c], q, ra[c])
        mat[pr], mat[k] = mat[k], mat[pr]
        lead = mat[pr][col][-1]
        if lead != 1:
            s = inv[lead]
            mat[pr] = [pscale(e, s) for e in mat[pr]]
        pr += 1
    # extra rows are now zero; keep the triangular top block
    return _canonical_from_triangular(ctx, n, mat[:n])


class InvariantType:
    """A divisibility chain f_1, ..., f_n of monic polynomials, largest first.

    The quotient attached to the chain is the direct sum of A/(f_k); the
    convention here keeps f_{k+1} dividing f_k.
    """

    __slots__ = ("ctx", "chain")

    def __init__(self, ctx: FieldCtx, chain: Iterable):
        cs = []
        for f in chain:
            f = ctx.pvalidate(f)
            if not f or f[-1] != 1:
                raise ValueError("chain entries must be monic and nonzero")
            cs.append(f)
        for a, b in zip(cs, cs[1:]):
            if ctx.pmod(a, b):
                raise ValueError("chain entries must divide in descending order")
        self.ctx = ctx
        self.chain = tuple(cs)

    def __len__(self):
        return len(self.chain)

    def det(self) -> tuple:
        """Product of the chain entries."""
        d = (1,)
        for f in self.chain:
            d = self.ctx.pmul(d, f)
        return d

    def codim(self) -> int:
        """Total F_q-dimension of the attached quotient."""
        return sum(len(f) - 1 for f in self.chain)

    def pointwise_mul(self, other: "InvariantType") -> "InvariantType":
        if len(other) != len(self):
            raise ValueError("chains must have equal length")
        if other.ctx != self.ctx:
            raise ValueError("chains are over different fields")
        pmul = self.ctx.pmul
        return InvariantType(self.ctx, [pmul(a, b) for a, b in zip(self.chain, other.chain)])

    def __eq__(self, other):
        return (
            isinstance(other, InvariantType)
            and self.ctx == other.ctx
            and self.chain == other.chain
        )

    def __hash__(self):
        return hash((self.ctx.q, self.chain))

    def __repr__(self):
        return "InvariantType(" + ", ".join(str(Poly(self.ctx, f)) for f in self.chain) + ")"

    def to_json(self) -> list:
        return [list(f) for f in self.chain]


def quotient_invariants(sub: Lattice, sup: Lattice | None = None) -> InvariantType:
    """Invariant factor chain of sup/sub, largest factor first.

    ``sup`` defaults to A^n.  Raises if ``sub`` is not contained in ``sup``.
    """
    ctx = sub.ctx
    n = sub.n
    if sup is None:
        sup = standard_lattice(ctx, n)
    if sup.n != n or sup.ctx != ctx:
        raise ValueError("lattices are not comparable")
    mat = []
    for row in sub.rows:
        coords = sup.coords_of(row)
        if coords is None:
            raise ValueError("first lattice is not contained in the second")
        mat.append(coords)
    diags = _snf_diagonal(ctx, mat)
    return InvariantType(ctx, list(reversed(diags)))


def _snf_diagonal(ctx: FieldCtx, mat: list) -> list:
    """Diagonal of the Smith form of a nonsingular matrix, ascending divisibility.

    Read off the determinantal divisors, without elimination (Cohen, A Course
    in Computational Algebraic Number Theory, Ch. 2): D_k, the monic gcd of
    the k x k minors, is d_1 ... d_k, so d_k = D_k / D_(k-1).  A (k+1) x (k+1)
    minor expands into k x k minors, so D_k divides D_(k+1).  Each gcd
    therefore starts from D_(k+1), the determinant for k = n - 1, folds in the
    k x k minors, principal ones first, and stops at a unit; a unit D_k leaves
    every lower D_j a unit too.  Minors are expanded along their first row
    and computed only when a gcd reaches them, each once.  Without an early
    unit the work grows with the binomial(2n, n) minors, which suits the
    ranks the sublattice enumerations reach.
    """
    n = len(mat)
    pmul, padd, psub, pgcd = ctx.pmul, ctx.padd, ctx.psub, ctx.pgcd
    one = (1,)
    memo: dict = {}

    def mul(a, b):
        # most entries of a canonical triangle are 1 or 0
        return b if a == one else a if b == one else pmul(a, b)

    def minor(rows: tuple, cols: tuple):
        if len(rows) == 1:
            return mat[rows[0]][cols[0]]
        if len(rows) == 2:
            (r, s), (a, b) = rows, cols
            ra, rb, sa, sb = mat[r][a], mat[r][b], mat[s][a], mat[s][b]
            diag = mul(ra, sb) if ra and sb else ()
            return psub(diag, mul(rb, sa)) if rb and sa else diag
        key = (rows, cols)
        v = memo.get(key)
        if v is None:
            top, rest = mat[rows[0]], rows[1:]
            v = ()
            for k, c in enumerate(cols):
                if top[c]:
                    sub = minor(rest, cols[:k] + cols[k + 1:])
                    if sub:
                        v = (psub if k & 1 else padd)(v, mul(top[c], sub))
            memo[key] = v
        return v

    full = tuple(range(n))
    det = minor(full, full)
    if not det:
        raise ValueError("matrix is singular")
    divisors = [ctx.pmonic(det)]
    for k in range(n - 1, 0, -1):
        g = divisors[-1]
        if g != one:
            for rows, cols in _minor_order(n, k):
                e = minor(rows, cols)
                if e:
                    g = one if len(e) == 1 else pgcd(g, e)
                    if g == one:
                        break
        divisors.append(g)
    del minor  # it holds itself, and the minor memo, through its closure
    divisors.append(one)
    divisors.reverse()
    return [divisors[k] if divisors[k - 1] == one
            else ctx.pdivmod(divisors[k], divisors[k - 1])[0] for k in range(1, n + 1)]


@functools.cache
def _minor_order(n: int, k: int) -> tuple:
    """The (rows, cols) index pairs of the k x k minors of an n x n matrix,
    the principal ones first."""
    subsets = list(itertools.combinations(range(n), k))
    return tuple((r, r) for r in subsets) + tuple(
        (r, c) for r in subsets for c in subsets if r != c)


# ---------------------------------------------------------------------------
# enumeration


def _diag_tuples(ctx: FieldCtx, g: tuple, n: int) -> tuple:
    """Ordered factorizations of a monic g into n monic diagonal entries,
    memoized on ctx per (g, n); each pass splits the last entry in two."""
    out = ctx.memo.get(("diag", g, n))
    if out is None:
        divisors, out = ctx.monic_divisors(g), ((g,),)
        for _ in range(n - 1):
            out = tuple([t[:-1] + (d, q) for t in out for d in divisors
                         for q, r in [ctx.pdivmod(t[-1], d)] if not r])
        ctx.memo["diag", g, n] = out
    return out


def _enum_canonical_triangles(ctx: FieldCtx, diags: Sequence[tuple]):
    """All canonical triangular bases with the given diagonal, as row lists.
    Column 0 has no entry above the diagonal, so it has no pool."""
    n = len(diags)
    q = ctx.q
    col_freedom = [[ctx.pfrom_key(k) for k in range(q ** (len(diags[j]) - 1))]
                   for j in range(1, n)]
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    pools = [col_freedom[j - 1] for (_, j) in slots]
    for choice in itertools.product(*pools):
        rows = [[() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = diags[i]
        for (slot, e) in zip(slots, choice):
            rows[slot[0]][slot[1]] = e
        yield rows


def _apply_basis(ctx: FieldCtx, cmat: list, lrows: tuple) -> tuple:
    """Canonical rows of the lattice with rows C * lrows, both triangular."""
    n = len(lrows)
    pmuladd = ctx.pmuladd
    rows = []
    for i in range(n):
        ci = cmat[i]
        out = [()] * n
        for k in range(i, n):
            cik = ci[k]
            if cik:
                lk = lrows[k]
                for c in range(k, n):
                    if lk[c]:
                        out[c] = pmuladd(out[c], cik, lk[c])
        rows.append(out)
    return _canonical_rows(ctx, n, rows)


def _monic(ctx: FieldCtx, g) -> tuple:
    """The coefficients of a determinant g, a Poly or a coefficient
    sequence, which must be monic and nonzero."""
    g = ctx.pvalidate(g)
    if not g or g[-1] != 1:
        raise ValueError("determinant must be monic and nonzero")
    return g


def sublattice_enum(L: Lattice, g) -> list[Lattice]:
    """All sublattices N of L with L/N of determinant ideal (g), canonical order.

    The count depends only on g and the rank: the enumeration runs over
    canonical triangular matrices with diagonal product g.
    """
    ctx = L.ctx
    g = _monic(ctx, g)
    out = []
    std = L.is_standard
    for diags in _diag_tuples(ctx, g, L.n):
        for rows in _enum_canonical_triangles(ctx, diags):
            if std:
                out.append(Lattice._wrap(L.ctx, L.n, tuple(tuple(r) for r in rows)))
            else:
                out.append(Lattice._wrap(ctx, L.n, _apply_basis(ctx, rows, L.rows)))
    return out


def _forced(ctx: FieldCtx, g: tuple, n: int) -> bool:
    """Whether det g forces the chain (g, 1, ..., 1) in rank n: a chain
    d_1 | ... | d_n of product g has d_k^2 | g for k < n, so for n = 1 or a
    squarefree g (over the perfect field F_q, gcd(g, g') = 1) it is the one
    chain every canonical triangle of det g has."""
    return n == 1 or ctx.pgcd(g, ctx.pderiv(g)) == (1,)


def _triangles_by_type(ctx: FieldCtx, g: tuple, n: int) -> dict:
    """Canonical triangular matrices C with det g, grouped by invariant chain.

    For any lattice N the quotient N / (C N) is isomorphic to A^n / (rows of
    C), so its chain is the Smith form of C alone, read off its determinantal
    divisors by ``_snf_diagonal``, once per (g, n) memoized on ctx.  The
    result maps each chain tuple to its matrices, as row tuples in canonical
    enumeration order; ``d_count`` counts them and ``_chain_plan`` turns one
    chain's list into the index plan ``t_chain`` applies.  Both call it only
    where g does not force the chain (``_forced``).
    """
    groups = ctx.memo.get(("types", g, n))
    if groups is None:
        groups = {}
        for diags in _diag_tuples(ctx, g, n):
            for rows in _enum_canonical_triangles(ctx, diags):
                chain = tuple(reversed(_snf_diagonal(ctx, rows)))
                groups.setdefault(chain, []).append(tuple(tuple(r) for r in rows))
        groups = ctx.memo["types", g, n] = {chain: tuple(cs) for chain, cs in groups.items()}
    return groups


def _plan(ctx: FieldCtx, chain: tuple,
          cmats: Callable[[], Iterable]) -> dict[tuple, list | None]:
    """The coordinate matrices C of ``chain`` as a dict from each diagonal
    of C to a trie over C's rows n-2, ..., 0, memoized on ctx per chain;
    ``cmats()`` lists the matrices, and is called only to build the plan.

    A node at row i stands for fixed rows i+1, ..., n-1 of C.  It is a pair
    [k, kids]: kids maps the index sum_k c_ij[a] q^k of the rest of row i to
    the node at row i-1, or to None at row 0, and k is the number of base-q
    digits of its largest index.  The digits c_ij[a] run over j > i and
    a < deg c_jj in that order, the order of the generators
    ``_row0_frames`` spans row i with, so an index with k digits needs
    only the first k of them.  In rank 1 there is no row to index and the
    trie is None, which ``_plan_sum`` reads as every canonical C of the
    diagonal, here the one C.
    """
    plan = ctx.memo.get(("plan", chain))
    if plan is None:
        q, plan = ctx.q, {}
        for C in cmats():
            n = len(C)
            diag = tuple([C[i][i] for i in range(n)])
            if n == 1:
                plan[diag] = None
                continue
            node = plan.get(diag)
            if node is None:
                node = plan[diag] = [0, {}]
            for i in range(n - 2, -1, -1):
                row = C[i]
                index, digit, width = 0, 0, 0
                for j in range(i + 1, n):
                    e = row[j]
                    for a in range(len(C[j][j]) - 1):
                        if a < len(e) and e[a]:
                            index += e[a] * q ** digit
                            width = digit + 1
                        digit += 1
                if width > node[0]:
                    node[0] = width
                if i:
                    node = node[1].setdefault(index, [0, {}])
                else:
                    node[1][index] = None
        ctx.memo["plan", chain] = plan
    return plan


def _chain_plan(ctx: FieldCtx, chain: InvariantType) -> dict[tuple, list | None]:
    """The plan (``_plan``) of the matrices whose Smith form is the chain,
    classified by ``_triangles_by_type`` only when the plan is not yet
    memoized: a real trie per diagonal, never None in rank 2 or more."""
    return _plan(ctx, chain.chain, lambda: _triangles_by_type(
        ctx, chain.det(), len(chain)).get(chain.chain, ()))


def _sigma_matrices(ctx: FieldCtx, x: tuple, n: int, j: int):
    """The coordinate matrices of chain (x, ..., x, 1, ..., 1), in closed
    form: the canonical triangular C with j diagonal entries x, the rest 1,
    and no entry off the diagonal in the rows of the x's, gauss_binom(n, j,
    q^deg x) of them."""
    residues = [ctx.pfrom_key(h) for h in range(ctx.q ** (len(x) - 1))]
    for pivots in itertools.combinations(range(n), j):
        free = [(i, c) for c in pivots for i in range(c) if i not in pivots]
        for choice in itertools.product(residues, repeat=len(free)):
            rows = [[()] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = x if i in pivots else (1,)
            for (i, c), e in zip(free, choice):
                rows[i][c] = e
            yield rows


def d_count(ctx: FieldCtx, chain) -> int:
    """Number of sublattices of A^n with the given invariant chain, n = len(chain).

    Counts the canonical coordinate matrices whose Smith form is the chain,
    the same list ``t_chain`` applies.  Where det g forces the chain
    (``_forced``) that is every canonical triangle of det g, counted in
    closed form: the j entries above diagonal entry d_j take q^(deg d_j)
    values each.  An ``InvariantType`` must be over ``ctx``.
    """
    if not isinstance(chain, InvariantType):
        chain = InvariantType(ctx, chain)
    elif chain.ctx != ctx:
        raise ValueError("chain is over a different field")
    g, n = chain.det(), len(chain)
    if _forced(ctx, g, n):
        return sum(ctx.q ** sum(j * (len(d) - 1) for j, d in enumerate(diags))
                   for diags in _diag_tuples(ctx, g, n))
    return len(_triangles_by_type(ctx, g, n).get(chain.chain, ()))


def phi_count(ctx: FieldCtx, g, n: int, method: str = "closed") -> int:
    """Number of sublattices of A^n with determinant ideal (g).

    ``closed`` multiplies local counts: for each prime power P^e dividing g
    the local factor is the u^e coefficient of prod_{j<n} 1/(1 - Q^j u) with
    Q = q^deg P.  ``enum`` constructs every sublattice explicitly.
    """
    g = _monic(ctx, g)
    if n < 1:
        raise ValueError("rank must be positive")
    if method == "enum":
        return len(sublattice_enum(standard_lattice(ctx, n), g))
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    total = 1
    _, factors = ctx.pfactor(g)
    for P, e in factors:
        total *= _local_count(ctx.q ** (len(P) - 1), n, e)
    return total


def _local_count(Q: int, n: int, m: int) -> int:
    """Colength m sublattices of a rank n lattice over a local ring with
    residue field of size Q: the u^m coefficient of prod_{j<n} 1/(1 - Q^j u).

    Dividing a series by 1 - a u turns its coefficients s_k into
    s'_k = s_k + a s'_(k-1), so each factor is one pass in place."""
    series = [1] + [0] * m
    for j in range(n):
        step = Q ** j
        for k in range(1, m + 1):
            series[k] += step * series[k - 1]
    return series[m]


# ---------------------------------------------------------------------------
# packed keys


def _packing(ctx: FieldCtx) -> "_Packing":
    pk = ctx.memo.get("packing")
    if pk is None:
        pk = ctx.memo["packing"] = _Packing(ctx.p, ctx.m)
    return pk


class _Packing:
    """One int per canonical lattice, given its diagonal.

    The int holds the off diagonal entries.  Each F_q coefficient is m F_p
    digits in w-bit slots, the digits of its encoding.  For p = 2, w = 1 and
    a coefficient is its own encoding, so adding vectors is XOR.  For odd p,
    w is one bit more than p - 1 needs, so a sum of two digits fits a slot
    and, offset by 2^(w-1) - p, sets the slot's top bit exactly when it
    reaches p; ``add`` subtracts p there (SWAR).  Entry (i, j) takes deg D_jj
    coefficients, D the diagonal, and the rows follow each other from n - 2
    up to 0.  Row i's place then depends only on deg D_jj for j > i, so the
    rows below it fix its layout, and the key is canonical.

    ``row_layout`` and the residue classes of ``_class_table`` are memoized
    here; none of it refers to a FieldCtx.
    """

    __slots__ = ("p", "cw", "spread", "unspread", "_w", "_rows", "classes")

    def __init__(self, p: int, m: int):
        self.p = p
        self._w = w = 1 if p == 2 else (p - 1).bit_length() + 1
        self.cw = m * w
        self.spread = [sum(e // p ** k % p << k * w for k in range(m)) for e in range(p ** m)]
        self.unspread = None if p == 2 else {s: e for e, s in enumerate(self.spread)}
        self._rows: dict = {}
        self.classes: dict = {}

    def row_layout(self, tdegs: tuple) -> tuple:
        """Layout of the row above rows whose diagonal degrees are ``tdegs``:
        ``(offs, add)`` with one ``(column, bit offset, slots)`` per entry,
        columns counted from the right (-1 is the last), and the vector
        addition for keys that end with this row."""
        lay = self._rows.get(tdegs)
        if lay is None:
            cw, k = self.cw, len(tdegs)
            off = sum(t * dt for t, dt in enumerate(tdegs)) * cw
            offs = []
            for t, dt in enumerate(tdegs):
                offs.append((t - k, off, dt))
                off += dt * cw
            lay = self._rows[tdegs] = (tuple(offs), self._adder(off))
        return lay

    def _adder(self, bits: int):
        if self.p == 2:
            return operator.xor
        p, w = self.p, self._w
        unit = ((1 << bits) - 1) // ((1 << w) - 1)
        low, high, shift = unit * ((1 << w - 1) - p), unit << w - 1, w - 1

        def add(a: int, b: int) -> int:
            s = a + b
            return s - (((s + low) & high) >> shift) * p

        return add

    def pack(self, v, offs: tuple) -> int:
        """Key bits of the entries of row vector v at ``offs``."""
        spread, cw = self.spread, self.cw
        key = 0
        for j, off, _ in offs:
            for c in v[j]:
                if c:
                    key |= spread[c] << off
                off += cw
        return key

    def key_of(self, rows: tuple) -> tuple:
        """(diagonal, key) of canonical rows."""
        diag = tuple(row[i] for i, row in enumerate(rows))
        degs = tuple(len(e) - 1 for e in diag)
        key = 0
        for i in range(len(rows) - 1):
            key |= self.pack(rows[i], self.row_layout(degs[i + 1:])[0])
        return diag, key

    def unpack(self, key: int, offs: tuple, row: list) -> None:
        """Write the entries at ``offs`` of a key into row vector row, the
        inverse of ``pack``."""
        cw, unspread = self.cw, self.unspread
        cmask = (1 << cw) - 1
        for j, off, slots in offs:
            chunk = key >> off & (1 << slots * cw) - 1
            cs = []
            while chunk:
                cs.append(chunk & cmask)
                chunk >>= cw
            row[j] = tuple(cs) if unspread is None else tuple([unspread[c] for c in cs])

    def rows(self, diag: tuple, key: int) -> tuple:
        """Canonical rows of the lattice with this diagonal and key."""
        n = len(diag)
        degs = tuple(len(e) - 1 for e in diag)
        out = []
        for i in range(n):
            row = [()] * n
            row[i] = diag[i]
            if key:
                self.unpack(key, self.row_layout(degs[i + 1:])[0], row)
            out.append(tuple(row))
        return tuple(out)


def _steps(ctx: FieldCtx, pk: _Packing, gens: list, offs: tuple, add) -> tuple:
    """The multiples e g, e = 1, ..., q - 1 in encoding order, of each
    generator g that ``_affine_span`` adds, as keys at ``offs``
    (``_step_keys``) and as row vectors."""
    pscale = ctx.pscale
    rows = [[tuple([pscale(x, e) for x in g]) for e in range(1, ctx.q)] for g in gens]
    return _step_keys(ctx, pk, gens, offs, add), rows


def _step_keys(ctx: FieldCtx, pk: _Packing, gens: list, offs: tuple, add) -> list:
    """The keys at ``offs`` of the multiples e g, e = 1, ..., q - 1 in
    encoding order, of each generator g, alone for spans whose rows nothing
    reads.  Only the multiples by the powers b of p, the basis u^k of F_q
    over F_p, are scaled and packed; any other e is (e - b) + b for the
    largest b <= e, digit by digit with no carry, so e g is one ``add``."""
    p, q, pscale, pack = ctx.p, ctx.q, ctx.pscale, pk.pack
    out = []
    for g in gens:
        keys = [0]
        b = 1
        for e in range(1, q):
            if e == b * p:
                b = e
            keys.append(pack([pscale(x, e) for x in g], offs) if e == b
                        else add(keys[e - b], keys[b]))
        out.append(keys[1:])
    return out


def _row_adder(ctx: FieldCtx):
    padd = ctx.padd

    def add(v: tuple, g: tuple) -> tuple:
        return tuple([padd(a, b) if b else a for a, b in zip(v, g)])

    return add


def _class_table(ctx: FieldCtx, pk: _Packing, d: tuple, k: int, off: int, add) -> tuple:
    """For an entry at bit ``off``: the keys of the multiples d h, deg h < k,
    in the order of h's key, and a dict from the key bits of a residue r
    mod d to the keys of its class r + d h, filled by the caller."""
    key = (d, k, off)
    table = pk.classes.get(key)
    if table is None:
        gens = [((0,) * a + d,) for a in range(k)]
        steps = _step_keys(ctx, pk, gens, ((-1, off, k + len(d) - 1),), add)
        table = pk.classes[key] = (_affine_span(0, steps, add), {})
    return table


# ---------------------------------------------------------------------------
# lattice sums and operators


class LatticeSum:
    """Formal Z-linear combination of lattices of a common rank.

    The sum is a dict ``by_diag`` from the diagonal of each lattice's
    canonical basis to a dict from its packed key (``_Packing``) to a nonzero
    integer coefficient; no inner dict is empty, and the field and rank are
    stored once on the sum.  Lattices and row tuples are built only at the
    edges: the constructor and ``of``, the ``terms`` mapping, ``items`` and
    the witnesses.
    """

    __slots__ = ("ctx", "n", "by_diag")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict | None = None):
        if n < 1:
            raise ValueError("rank must be positive")
        pk = _packing(ctx)
        by_diag: dict = {}
        for L, c in (terms or {}).items():
            if L.n != n or L.ctx != ctx:
                raise ValueError("lattice does not match the sum's field and rank")
            _check_coefficient(c)
            if c:
                diag, key = pk.key_of(L.rows)
                by_diag.setdefault(diag, {})[key] = c
        self.ctx = ctx
        self.n = n
        self.by_diag = by_diag

    @classmethod
    def _of_keys(cls, ctx: FieldCtx, n: int, by_diag: dict) -> "LatticeSum":
        """Wrap a dict of dicts like ``by_diag``, which it then owns; zero
        coefficients and empty inner dicts are dropped in place.  Only an
        inner dict that mixes zero and nonzero values is rebuilt."""
        for diag, keys in list(by_diag.items()):
            if not any(keys.values()):
                del by_diag[diag]
            elif 0 in keys.values():
                by_diag[diag] = {key: c for key, c in keys.items() if c}
        return cls._wrap(ctx, n, by_diag)

    @classmethod
    def _wrap(cls, ctx: FieldCtx, n: int, by_diag: dict) -> "LatticeSum":
        """Wrap a dict of dicts that already holds no zero and no empty
        inner dict, which it then owns."""
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.n = n
        obj.by_diag = by_diag
        return obj

    @classmethod
    def of(cls, L: Lattice, mult: int = 1) -> "LatticeSum":
        _check_coefficient(mult)
        diag, key = _packing(L.ctx).key_of(L.rows)
        return cls._of_keys(L.ctx, L.n, {diag: {key: mult}})

    @property
    def terms(self) -> "_TermView":
        """The sum as a read-only mapping from Lattice to coefficient."""
        return _TermView(self)

    def _combine(self, other: "LatticeSum", sign: int) -> "LatticeSum":
        if not isinstance(other, LatticeSum) or other.ctx != self.ctx or other.n != self.n:
            raise ValueError("sums are not compatible")
        out = {diag: dict(keys) for diag, keys in self.by_diag.items()}
        _merge_into(out, (other * sign).by_diag)
        return LatticeSum._of_keys(self.ctx, self.n, out)

    def __add__(self, other: "LatticeSum") -> "LatticeSum":
        return self._combine(other, 1)

    def __sub__(self, other: "LatticeSum") -> "LatticeSum":
        return self._combine(other, -1)

    def __mul__(self, k: int) -> "LatticeSum":
        """k times the sum, always a new sum that shares no inner dict; a
        nonzero k leaves no zero to drop.  A sum has integer coefficients,
        so any other k, a bool included, is not a factor it takes."""
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        if k == 0:
            return LatticeSum._wrap(self.ctx, self.n, {})
        if k == 1:
            return LatticeSum._wrap(self.ctx, self.n, {
                diag: dict(keys) for diag, keys in self.by_diag.items()})
        return LatticeSum._wrap(self.ctx, self.n, {
            diag: {key: c * k for key, c in keys.items()} for diag, keys in self.by_diag.items()})

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.by_diag

    def support_size(self) -> int:
        return sum(map(len, self.by_diag.values()))

    def total_mass(self) -> int:
        return sum(sum(keys.values()) for keys in self.by_diag.values())

    def items(self) -> list:
        """(Lattice, coefficient) pairs in canonical order."""
        ctx, n = self.ctx, self.n
        rows = _packing(ctx).rows
        return sorted(((Lattice._wrap(ctx, n, rows(diag, key)), c)
                       for diag, keys in self.by_diag.items() for key, c in keys.items()),
                      key=lambda lc: lc[0].sort_key())

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSum)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.by_diag == other.by_diag
        )

    def __repr__(self):
        k = self.support_size()
        return f"LatticeSum({k} lattice{'s' if k != 1 else ''}, mass {self.total_mass()})"


def _check_coefficient(c) -> None:
    """Refuse a coefficient that is not an integer, a bool included: a sum
    is a formal Z-linear combination, and a bool would reach the report."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"lattice sum coefficients must be integers, not {type(c).__name__}")


def _merge_into(acc: dict, by_diag: dict) -> None:
    """acc += by_diag for dicts of dicts like ``LatticeSum.by_diag``, where
    by_diag is fresh and nothing else holds it: a bucket acc lacks is
    adopted, and of two buckets the smaller is added into the larger.  A
    zero arises only where acc and by_diag hold a key with opposite signs,
    as ``LatticeSum._combine``'s may; it is for ``LatticeSum._of_keys`` to
    drop.
    ``newton_verify``'s sides take only positive terms and hold none."""
    for diag, keys in by_diag.items():
        bucket = acc.get(diag)
        if bucket is None:
            acc[diag] = keys
            continue
        if len(bucket) < len(keys):
            acc[diag], bucket, keys = keys, keys, bucket
        get = bucket.get
        for key, c in keys.items():
            bucket[key] = get(key, 0) + c


class _TermView(Mapping):
    """``LatticeSum.terms``: the packed dicts seen with Lattice keys."""

    __slots__ = ("_sum",)

    def __init__(self, s: LatticeSum):
        self._sum = s

    def __getitem__(self, L):
        s = self._sum
        if isinstance(L, Lattice) and L.ctx == s.ctx and L.n == s.n:
            diag, key = _packing(s.ctx).key_of(L.rows)
            keys = s.by_diag.get(diag)
            if keys is not None and key in keys:
                return keys[key]
        raise KeyError(L)

    def __iter__(self):
        s = self._sum
        rows = _packing(s.ctx).rows
        return (Lattice._wrap(s.ctx, s.n, rows(diag, key))
                for diag, keys in s.by_diag.items() for key in keys)

    def __len__(self):
        return self._sum.support_size()


def _validate_prime(ctx: FieldCtx, x) -> tuple:
    """The coefficients of x, which must be monic and irreducible; Rabin's
    test runs once per x on ctx, whose memo keeps the accepted x only."""
    x = ctx.pvalidate(x)
    if ("prime", x) not in ctx.memo:
        if not x or x[-1] != 1 or not ctx.is_irreducible(x):
            raise ValueError("x must be a monic irreducible polynomial")
        ctx.memo["prime", x] = True
    return x


def sigma_apply(x, j: int, s: LatticeSum) -> LatticeSum:
    """Elementary Hecke operator at the prime x in codimension j.

    Each lattice N in the sum is replaced by the sum of the preimages in N of
    the codimension j subspaces of N / m_x N; there are gauss_binom(n, j, q_x)
    of them per lattice, the sublattices with chain (x, ..., x, 1, ..., 1).
    So this is ``t_chain`` of that chain, with the coordinate matrices in
    closed form (``_sigma_matrices``) instead of classified, and walked by
    ``_plan_sum`` from a real trie per diagonal (``_plan``).
    """
    ctx = s.ctx
    x = _validate_prime(ctx, x)
    n = s.n
    if j < 0 or j > n:
        raise ValueError("codimension out of range")
    if j == 0:
        return s * 1
    chain = (x,) * j + ((1,),) * (n - j)
    return _plan_sum(s, _plan(ctx, chain, lambda: _sigma_matrices(ctx, x, n, j)))


def t_local(x, m: int, s: LatticeSum) -> LatticeSum:
    """Sum of sublattices of colength m at the prime x.

    m counts length over the local ring A/m_x, so the F_q codimension of each
    term is m * deg x.  The multiplicity convention is one per sublattice.
    A sublattice of colength m at x is one of det x^m, so this is
    ``t_det`` at g = x^m: its diagonals are x^c_i for the compositions c of m.
    """
    x = _validate_prime(s.ctx, x)
    if m < 0:
        raise ValueError("colength must be nonnegative")
    return t_det(functools.reduce(s.ctx.pmul, [x] * m, (1,)), s)


def t_det(g, s: LatticeSum) -> LatticeSum:
    """Sum over the terms N of s, with their coefficients, of C N for every
    canonical triangular C of det g, a monic nonzero polynomial: every
    sublattice of N of determinant g.  Its plan maps each diagonal of det g
    (``_diag_tuples``) to a trie of None, every canonical C of that
    diagonal, so no trie is built and ``_plan_sum`` spans each row in full,
    the same way for A^n and for any other N."""
    ctx = s.ctx
    g = _monic(ctx, g)
    if g == (1,):
        return s * 1
    return _plan_sum(s, dict.fromkeys(_diag_tuples(ctx, g, s.n)))


def _plan_sum(s: LatticeSum, plan: dict) -> LatticeSum:
    """Sum over the terms N of s, with their coefficients, of C N for every
    C in ``plan``, a dict from each diagonal of C to its trie (``_plan``) or
    to None for every canonical C of that diagonal; ``t_det``, ``t_chain``
    and ``sigma_apply`` all sum through here, and the keys of C N are summed
    by diagonal.

    Rows 1, ..., n - 1 of C N depend on N only through N's rows 1, ..., n -
    1, the tail of its diagonal and the key bits below row 0's, so the terms
    are grouped by those and the walk has two phases.  ``_row0_frames``
    fixes rows n - 1, ..., 1 into frames, which read only the group's rows,
    diags[1:] and the trie, so they are memoized on ctx by those, a real
    trie by its id, and walked once per field; then, per term and frame,
    only row 0's base diags[0] N_0 is reduced against the frame's rows,
    added to its span and ORed onto the keys below.  A base that is zero
    beyond its diagonal entry stays zero under the reduction, so its key is
    0 with no reduction or packing.  On a group's first miss it makes the
    rows c N_i by (i, c) and the generators t^a N_j for 0 < j < n and a <
    deg det C, which no diagonal entry exceeds, once; row n - 1 is shifted
    only for real tries, as no other path reads it.

    The keys of one term and diagonal are distinct, so a bucket the sum
    lacks is made by ``dict.fromkeys``; into one it has, a term of
    coefficient 1, as every term of ``newton_verify``'s sums is, is counted
    by ``collections._count_elements`` in C, and any other coefficient is
    added key by key.  Only when s has coefficients of both signs can a
    bucket sum to zero, so only then does the result go through
    ``LatticeSum._of_keys``' scan for zeros."""
    ctx, n = s.ctx, s.n
    pk = _packing(ctx)
    pmul, pack, radd = ctx.pmul, pk.pack, _row_adder(ctx)
    repeat = itertools.repeat
    top = sum([len(c) - 1 for c in next(iter(plan), ())])
    last = n - 1 if None in plan.values() else n
    groups: dict = {}
    lo = hi = 0
    for diag, keys in s.by_diag.items():
        offs = pk.row_layout(tuple([len(e) - 1 for e in diag[1:]]))[0]
        low = (1 << offs[0][1]) - 1 if offs else 0
        lo, hi = min(lo, *keys.values()), max(hi, *keys.values())
        for key, mult in keys.items():
            row = [()] * n
            row[0] = diag[0]
            pk.unpack(key, offs, row)
            # key > low: row 0 has an entry off the diagonal
            groups.setdefault((diag[1:], key & low), []).append((row, mult, key > low))
    memo = ctx.memo.get("frames")
    if memo is None:
        memo = ctx.memo["frames"] = {}
    acc: dict = {}
    for (tdiag, low), terms in groups.items():
        nrows = None
        rows0 = {(1,): [row for row, _, _ in terms]}  # c N_0 of each term, by c
        for diags, trie in plan.items():
            # the entry holds a real trie, so no other trie takes its id
            mkey = (tdiag, low, diags[1:], None if trie is None else id(trie))
            hit = memo.get(mkey)
            if hit is None:
                if nrows is None:
                    nrows = pk.rows((terms[0][0][0],) + tdiag, low)
                    scaled = {(i, (1,)): row for i, row in enumerate(nrows)}
                    shifted = [()] + [[tuple([(0,) * a + e if e else () for e in nrows[j]])
                                       for a in range(top)] for j in range(1, last)]
                hit = memo[mkey] = _row0_frames(
                    ctx, pk, radd, nrows, scaled, shifted, diags, trie) + (trie,)
            out_tail, offs, add, frames, classes, _ = hit
            d, lastmask, table = classes or (None, 0, None)
            c0 = diags[0]
            bases0 = rows0.get(c0)
            if bases0 is None:
                bases0 = rows0[c0] = [[pmul(c0, e) if e else () for e in row]
                                      for row, _, _ in terms]
            for base0, (_, mult, off_diag) in zip(bases0, terms):
                prods: list[int] = []
                for tail, kids, span, upper in frames:
                    bkey = pack(_reduced(ctx, base0, tail, 0, d), offs) if off_diag else 0
                    if table is None:
                        key = bkey | upper
                        if span is None:
                            prods.append(key)
                        elif kids is None:
                            prods += map(add, span, repeat(key))
                        else:
                            prods += [add(key, span[index]) for index in kids]
                        continue
                    # row 0's last entry runs over a class r + d h, on top of
                    # every OR of the classes of the rows below, [0] in rank 2
                    for key in (bkey,) if span is None else map(add, span, repeat(bkey)):
                        r = key & lastmask
                        key ^= r
                        heads = [key | c for c in _class_of(table, r, add)]
                        prods += heads if upper == [0] else [h | u for h in heads for u in upper]
                out_diag = (base0[0],) + out_tail
                bucket = acc.get(out_diag)
                # the C N of one N and one diagonal are distinct, and no
                # other diagonal of the same N reaches this bucket
                if bucket is None:
                    acc[out_diag] = dict.fromkeys(prods, mult)
                elif mult == 1:
                    _count_elements(bucket, prods)
                else:
                    get = bucket.get
                    for k in prods:
                        bucket[k] = get(k, 0) + mult
    if lo < 0 < hi:
        return LatticeSum._of_keys(ctx, n, acc)
    return LatticeSum._wrap(ctx, n, acc)


def _row0_frames(ctx: FieldCtx, pk: _Packing, radd, nrows: tuple, scaled: dict,
                 shifted: list, diags: tuple, trie: list | None) -> tuple:
    """The first phase of ``_plan_sum``: rows n - 1, ..., 1 of C N for the
    canonical upper triangular C with diagonal ``diags`` that ``trie``
    keeps (``_plan``), or for every such C when ``trie`` is None, where
    ``nrows`` are the rows of a group of terms N (row 0 is not read),
    ``scaled`` memoizes the rows c N_i by (i, c) and ``shifted[j][a]`` is t^a
    N_j.  This and ``_plan_sum``'s loop over the terms are the one walker
    that builds the rows of C N, for ``t_det``, ``t_chain`` and
    ``sigma_apply``; ``_plan_sum`` memoizes what this returns, which nothing
    may change.

    Row i of C N is diags[i] N_i + sum_{j > i} e_ij N_j with deg e_ij <
    deg diags[j].  Let R_i reduce a vector against the canonical rows below
    row i; R_i is F_q-linear, so canonical row i runs over the affine space
    R_i(diags[i] N_i) + span_Fq{R_i(t^a N_j) : j > i, a < deg diags[j]},
    and the C with entries e_ij[a] is its entry at index sum_k e_ij[a] q^k
    (``_affine_span``).  The rows are fixed from n-1 up to 1, only the base
    and the generators of each space are reduced, and each key is one
    vector addition; a space with no generator is its base.  A node of a
    real trie spans only its first k generators, enough for its largest
    index, and goes on below the indices it keeps alone; for sigma_j every
    x-row keeps index 0 and spans nothing.

    Only under a None trie do the generators t^a N_{n-1} = t^a d e_{n-1},
    d = N's last diagonal entry, span a whole class d * {h : deg h <
    deg diags[n-1]} in the last column.  There the other generators are
    enumerated with the last entry replaced by its residue r mod d, and that
    entry then runs over the class r + d h.  The rows below row i see row
    i's last entry only mod d: they reduce their own last entry mod d too.
    So the rows below row i are built once per residue, and each element of
    the class is ORed onto every key built on them.

    Returns the tail of C N's diagonal, row 0's layout, the frames and,
    under classes, (d, row 0's last entry bits, its ``_class_table``).  A
    frame (rows, kids, span, upper) is one choice of rows 1, ..., n - 1:
    those rows, the indices a real trie keeps in row 0 (None for all), the
    keys that row 0's reduced generators span from 0 (None for none), and
    the key bits below row 0, or under classes every OR of them with the
    elements of their classes ([0] in rank 2).  Nothing reads the rows of
    row 0's span or of a class, so those are spanned as keys alone
    (``_step_keys``).
    """
    n = len(nrows)
    pmul = ctx.pmul
    bases = [()]
    for i in range(1, n):
        c = diags[i]
        row = scaled.get((i, c))
        if row is None:
            row = scaled[i, c] = tuple([pmul(c, e) if e else () for e in nrows[i]])
        bases.append(row)
    out_tail = tuple([bases[i][i] for i in range(1, n)])
    degs = tuple([len(e) - 1 for e in out_tail])
    # the residue classes of the last column, where there is one above row 0
    k = len(diags[-1]) - 1 if trie is None and n > 1 else 0
    d = nrows[-1][-1] if k else None
    hi = n - 1 if trie is None else n
    states = [(trie, (bases[-1],) if n > 1 else (), [0] if k else 0)]
    for i in range(max(n - 2, 0), -1, -1):  # rank 1 has row 0 alone
        offs, add = pk.row_layout(degs[i:])
        gens = [v for j in range(i + 1, hi) for v in shifted[j][:len(diags[j]) - 1]]
        if k:
            _, off, slots = offs[-1]
            lastmask = (1 << slots * pk.cw) - 1 << off
            table = _class_table(ctx, pk, d, k, off, add)
        out = []
        for node, tail, upper in states:
            if node is not None:
                width, node = node
            vs = [_reduced(ctx, v, tail, i, d) for v in (gens if node is None else gens[:width])]
            if not i:  # row 0's base is each term's own
                span = _affine_span(0, _step_keys(ctx, pk, vs, offs, add), add) if vs else None
                out.append((tail, node, span, upper))
                continue
            base = _reduced(ctx, bases[i], tail, i, d)
            if vs:
                steps, rsteps = _steps(ctx, pk, vs, offs, add)
                keys = _affine_span(pk.pack(base, offs), steps, add)
                rows = _affine_span(base, rsteps, radd)
            else:
                keys, rows = [pk.pack(base, offs)], [base]
            if node is not None:  # the indices the trie keeps
                out += [(kid, (rows[index],) + tail, upper | keys[index])
                        for index, kid in node.items()]
            elif not k:
                out += [(None, (row,) + tail, upper | key) for key, row in zip(keys, rows)]
            else:
                for key, row in zip(keys, rows):
                    r = key & lastmask
                    out.append((None, (row,) + tail, [(key ^ r) | c | u for c in
                                                      _class_of(table, r, add) for u in upper]))
        states = out
    return out_tail, offs, add, states, (d, lastmask, table) if k else None


def _reduced(ctx: FieldCtx, v, tail: tuple, i: int, d: tuple | None) -> tuple:
    """Row vector v reduced as row i against the canonical rows ``tail``
    below it (``_reduce_row``), then, unless d is None, its last entry mod
    d."""
    v = _reduce_row(ctx, list(v), tail, i)
    if d is None or len(v[-1]) < len(d):
        return v
    return v[:-1] + (ctx.pdivmod(v[-1], d)[1] if len(d) > 1 else (),)


def _class_of(table: tuple, r: int, add) -> list:
    """The keys of the class r + d h of a ``_class_table``, memoized there."""
    dkeys, classes = table
    cls = classes.get(r)
    if cls is None:
        cls = classes[r] = [add(r, h) for h in dkeys]
    return cls


def _affine_span(base, steps: list, add) -> list:
    """Every vector base + sum_k e_k g_k, e_k in F_q, at the index
    sum_k e_k q^k, where steps[k] lists e g_k for e = 1, ..., q - 1 in
    encoding order; each vector is one ``add`` to an earlier one.  Vectors
    are keys or row tuples.  Distinct coefficient choices give distinct
    vectors when the generators are independent."""
    out = [base]
    for multiples in steps:
        prev = out[:]
        for g in multiples:
            out += map(add, prev, itertools.repeat(g))
    return out


def t_chain(chain: InvariantType, s: LatticeSum) -> LatticeSum:
    """Operator summing sublattices with the prescribed invariant chain.

    The sublattices of N with this chain are C N for the canonical
    coordinate matrices C whose Smith form is the chain: every C of det g,
    so ``t_det(g, s)``, where g forces the chain (``_forced``).  Otherwise
    they are classified once per determinant and rank
    (``_triangles_by_type``), kept as a real trie per diagonal
    (``_chain_plan``) and walked by ``_plan_sum``, as ``t_det`` walks its
    tries of None.  The chain must be over the sum's field.
    """
    if len(chain) != s.n:
        raise ValueError("chain length must equal the rank")
    if chain.ctx != s.ctx:
        raise ValueError("chain and lattice sum are over different fields")
    g = chain.det()
    if _forced(s.ctx, g, s.n):
        return t_det(g, s)
    return _plan_sum(s, _chain_plan(s.ctx, chain))


# ---------------------------------------------------------------------------
# Gaussian binomials and the Newton recurrence


def gauss_binom(n: int, k: int, Q: int) -> int:
    """Gaussian binomial coefficient C(n, k)_Q, the subspace count."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= Q ** (n - i) - 1
        den *= Q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def alternating_qbinom_sum(h: int, Q: int) -> int:
    """sum_j (-1)^j Q^(j(j-1)/2) C(h, h-j)_Q; zero for every h >= 1."""
    total = 0
    for j in range(h + 1):
        total += (-1) ** j * Q ** (j * (j - 1) // 2) * gauss_binom(h, h - j, Q)
    return total


def predict_newton_cost(ctx: FieldCtx, x, n: int, r: int) -> int:
    """Number of sublattice productions a full Newton check will perform.

    Used to keep verification batteries inside a sane budget; the count for
    the term t_local(r - j) sigma_j is gauss_binom(n, j) multiplied by the
    zeta coefficient counting colength r - j submodules.  Like
    ``newton_verify``, it refuses an x that is not a monic prime, a rank
    below 1 and a colength below 1.
    """
    Q = ctx.q ** (len(_validate_prime(ctx, x)) - 1)
    if n < 1:
        raise ValueError("rank must be positive")
    if r < 1:
        raise ValueError("colength must be positive")
    total = 0
    for j in range(min(n, r) + 1):
        total += gauss_binom(n, j, Q) * _local_count(Q, n, r - j)
    return total


def _residue_witness(N: Lattice, residue: LatticeSum) -> dict:
    """Witness of a check that left a nonzero residue on test lattice N: the
    first residue term and its multiplicity."""
    L, c = residue.items()[0]
    return {"lattice": N.to_json(), "residue_term": L.to_json(), "residue_mult": c}


def _checked_test_lattices(ctx: FieldCtx, n: int, test_lattices: Sequence[Lattice] | None,
                           check: str) -> Sequence[Lattice]:
    """A verifier's test lattices: A^n alone for None, else at least one,
    each of rank n over ctx, since a check on no lattice passes nothing."""
    if test_lattices is None:
        return [standard_lattice(ctx, n)]
    if not test_lattices:
        raise ValueError(f"the {check} check needs at least one test lattice")
    for N in test_lattices:
        if N.n != n:
            raise ValueError("test lattice rank mismatch")
        if N.ctx != ctx:
            raise ValueError("test lattice is over a different field")
    return test_lattices


class NewtonReport:
    def __init__(self, ok: bool, identity_ok: bool, witness: dict | None, cases: int):
        self.ok, self.identity_ok, self.witness, self.cases = ok, identity_ok, witness, cases


def newton_verify(
    ctx: FieldCtx,
    x,
    n: int,
    r: int,
    test_lattices: Sequence[Lattice] | None = None,
    fault: str | None = None,
) -> NewtonReport:
    """Check the Newton recurrence P = 0 on each test lattice.

    P applies sum_j (-1)^j q_x^(j(j-1)/2) t_local(x, r-j) sigma_j(x) and the
    result must vanish identically as a lattice sum.  Each term
    ``t_local(x, r-j, sigma_apply(x, j, N))`` has positive coefficients, so
    the terms of even j and of odd j are summed apart, each j >= 2 term
    scaled in place by q_x^(j(j-1)/2), as its sum is fresh, before it is
    merged in, and P = 0 exactly when the two sides are equal as dicts, as
    neither holds a zero or an empty bucket.  Only on failure is the
    residue, even minus odd, built; the witness is its first term in
    canonical order, whatever the merge order.  The companion alternating
    Gaussian binomial identity is checked alongside for 1 <= h <= n.  At r
    = 0 the sum is sigma_0 = t_local(x, 0), the identity, which never
    vanishes, so r must be at least 1.  The test lattices are checked by
    ``_checked_test_lattices``.  ``fault`` deliberately puts the j = 1 term
    on the even side, flipping its sign, so harness plumbing can observe a
    failure.
    """
    x = _validate_prime(ctx, x)
    if n < 1:
        raise ValueError("rank must be positive")
    if r < 1:
        raise ValueError("colength must be positive")
    Q = ctx.q ** (len(x) - 1)
    witness = None
    ok = True
    cases = 0
    for N in _checked_test_lattices(ctx, n, test_lattices, "Newton"):
        # rebound first, so the last lattice's sides are freed before this one's are built
        even, odd = sides = {}, {}
        base = LatticeSum.of(N)
        for j in range(min(n, r) + 1):
            term = t_local(x, r - j, sigma_apply(x, j, base)).by_diag
            if j > 1:
                w = Q ** (j * (j - 1) // 2)
                for keys in term.values():
                    for key, c in keys.items():  # values only, so no resize
                        keys[key] = c * w
            side = j % 2
            if fault == "newton" and j == 1:
                side = 0
            # t_local's sum is fresh, so it is scaled in place and
            # _merge_into may adopt its buckets
            _merge_into(sides[side], term)
        cases += 1
        if even != odd:
            ok = False
            if witness is None:
                witness = _residue_witness(
                    N, LatticeSum._wrap(ctx, n, even) - LatticeSum._wrap(ctx, n, odd))
    identity_ok = all(alternating_qbinom_sum(h, Q) == 0 for h in range(1, n + 1))
    return NewtonReport(ok=ok and identity_ok, identity_ok=identity_ok,
                        witness=witness, cases=cases)


class MultReport:
    def __init__(self, ok: bool, witness: dict | None, cases: int):
        self.ok, self.witness, self.cases = ok, witness, cases


def hecke_mult_verify(
    ctx: FieldCtx,
    chain_a: InvariantType,
    chain_b: InvariantType,
    test_lattices: Sequence[Lattice] | None = None,
    fault: str | None = None,
) -> MultReport:
    """Check T(J) T(J') = T(J J') for chains with coprime determinants.

    The test lattices are checked by ``_checked_test_lattices``.  ``fault``
    set to "mult" deliberately adds one more copy of the first term of T(J
    J') N in canonical order, so harness plumbing can observe a failure.
    """
    if len(chain_a) != len(chain_b):
        raise ValueError("chains must have equal length")
    if chain_a.ctx != ctx or chain_b.ctx != ctx:
        raise ValueError("chains are over a different field")
    if ctx.pgcd(chain_a.det(), chain_b.det()) != (1,):
        raise ValueError("chain determinants must be coprime")
    n = len(chain_a)
    prod = chain_a.pointwise_mul(chain_b)
    ok = True
    witness = None
    cases = 0
    for N in _checked_test_lattices(ctx, n, test_lattices, "multiplicativity"):
        base = LatticeSum.of(N)
        lhs = t_chain(chain_a, t_chain(chain_b, base))
        rhs = t_chain(prod, base)
        if fault == "mult":
            rhs = rhs + LatticeSum.of(rhs.items()[0][0])
        cases += 1
        if lhs != rhs:
            ok = False
            if witness is None:
                witness = _residue_witness(N, lhs - rhs)
    return MultReport(ok=ok, witness=witness, cases=cases)


def random_sublattice(ctx: FieldCtx, n: int, seed: int, max_deg: int = 1) -> Lattice:
    """Deterministic pseudo random canonical lattice, for test batteries."""
    if n < 1:
        raise ValueError("rank must be positive")
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    rng = random.Random(_mix(seed, ctx.q, n, max_deg))
    q = ctx.q
    rows = []
    diag_degs = [rng.randrange(0, max_deg + 1) for _ in range(n)]
    for i in range(n):
        row = [()] * n
        d = diag_degs[i]
        row[i] = tuple(rng.randrange(q) for _ in range(d)) + (1,)
        rows.append(row)
    for j in range(1, n):
        dj = diag_degs[j]
        for i in range(j):
            row_entry = tuple(rng.randrange(q) for _ in range(dj))
            rows[i][j] = ctx.pvalidate(row_entry)
    return _canonical_from_triangular(ctx, n, rows)
