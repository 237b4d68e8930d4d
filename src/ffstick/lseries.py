"""Power series over Z[G_I] attached to F_q[t], and Stickelberger style elements.

Fix a monic modulus I of degree d + 1 and let G_I be the unit group of
F_q[t]/I.  The basic object is the series whose z^m coefficient is the sum,
over monic polynomials of degree m coprime to I, of the class of that
polynomial in Z[G_I].  Beyond degree d the coefficients collapse onto the
norm element N: s_m = q^(m-d-1) * N.  A series truncated at order M is
the tuple of its M + 1 coefficients s_0..s_M.  The polynomial part
gamma_0..gamma_d packages into elements of Z[G_I][F],

    theta1(c)   = sum_i c^i gamma_i F^(d-i),
    Theta_n     = sum_i F^(nd-i) c_i,       c_i weighted by sublattice counts,
    Theta'_n    = sum_i (1 + F + .. + F^i) c_{nd-i},

and this module verifies the identities tying them together: the tail law,
agreement of the Euler product with direct enumeration, the rank two product
formula for I = t(t-1), factorization of Theta_n modulo the norm ideal, the
telescoping relation (F-1) Theta'_n = F Theta_n - sum_m c_m, and the
1, 2, .., 2d+1 coefficient pattern of Theta'_2 at F = 1.

All arithmetic is exact over Z.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass

from .fieldcore import FieldCtx, Poly, dense_mul
from .groupring import (
    FrobPoly,
    GroupRingElem,
    norm_element,
    norm_residue,
    unit_group,
)
from . import heckelat
from .report import check_record

__all__ = [
    "StickCtx",
    "stick_context",
    "euler_series",
    "stickelberger_q",
    "TailReport",
    "theta1",
    "phi_series",
    "theta_n",
    "theta_noinf",
    "tail_law_record",
    "theta2_product_record",
    "verify_identities",
    "t_times_t_minus_one",
    "PrimeClassError",
]


class PrimeClassError(RuntimeError):
    """The unit group placed a prime coprime to the modulus in no unit class,
    which only a broken class table does; ``prime`` is its coefficient tuple."""

    def __init__(self, prime: tuple):
        super().__init__(f"prime {prime} coprime to the modulus has no unit class")
        self.prime = prime


class StickCtx:
    """A field context together with a monic modulus and its unit group.

    ``d`` is deg I - 1; enumerations throughout restrict to monic
    polynomials coprime to I, which excludes the places dividing I and the
    place at infinity.
    """

    __slots__ = ("ctx", "I", "G", "d", "_cache")

    def __init__(self, ctx: FieldCtx, I):
        self.ctx = ctx
        self.G = unit_group(ctx, I)
        self.I = self.G.I
        self.d = len(self.I) - 2
        self._cache = {}

    def norm(self) -> GroupRingElem:
        return norm_element(self.G)

    def __eq__(self, other):
        return isinstance(other, StickCtx) and self.ctx == other.ctx and self.I == other.I

    def __hash__(self):
        return hash((self.ctx, self.I))

    def __repr__(self):
        return f"StickCtx(q={self.ctx.q}, I={Poly(self.ctx, self.I)})"


def stick_context(ctx: FieldCtx, I) -> StickCtx:
    return StickCtx(ctx, I)


def _monic_classes(S: StickCtx, M: int):
    """For m = 0..M, the unit index of every monic polynomial of degree m,
    in key order, or -1 where it is not coprime to the modulus.

    Residues come by linearity, with no pgcd or class_index per polynomial:
    the monic of key c + q*k is c + t*g for the monic g of key k, so its
    residue is c + t*(g mod I) mod I.  On residue keys r < q^deg I, t*r mod I
    is one table entry per residue and adding c only changes digit 0, so
    each degree is one pass over the residues of the last; the group's list
    from residue keys to unit indices gives coprimality and the class.  This
    step table, not ``class_index``'s, keeps the Euler dual's two routes
    apart; it is built once per StickCtx and only one degree is held.
    """
    steps = S._cache.get("residues")
    if steps is None:
        ctx, I = S.ctx, S.I
        q, at = ctx.q, ctx.add_table
        steps = S._cache["residues"] = []
        for r in range(q ** (len(I) - 1)):
            s = ctx.pkey(ctx.pmod(ctx.pmul((0, 1), ctx.pfrom_key(r)), I))
            steps.append((s - s % q, at[s % q]))
    unit = S.G._unit
    residues = [1]  # the residue of t^0, as deg I >= 1
    for m in range(M + 1):
        yield [unit[r] for r in residues]
        if m < M:
            residues = [b + v for r in residues for b, row in (steps[r],) for v in row]


def _factor_shapes(S: StickCtx, M: int) -> list[dict]:
    """For m = 0..M, a histogram of the monic polynomials of degree m coprime
    to the modulus, by (unit index, shape): the shape is the tuple of
    (deg P, e) over the prime powers P^e of the polynomial, P in (degree,
    key) order, and the class comes from the residue recursion of
    ``_monic_classes``.

    Shapes come by degree from the sieve tables, with no polynomial built
    or divided.  Let P be the smallest factor of a monic f of degree m
    (``FieldCtx.first_factors``; f itself when irreducible) and g = f / P,
    whose key offset one table lower is ``FieldCtx.cofactors``.  The shape
    of f is g's with (deg P, 1) put in front, or with its first exponent
    raised by 1 when P is g's smallest factor too.  Shapes are interned as
    ids, and one transition dict (deg P, id of g, same first prime) -> id
    serves every degree.  The ids of each degree (an ``array``) and the
    histograms live on the StickCtx, so a later call with a larger M
    extends them; a degree is done on the first call that reaches it.
    """
    hists = S._cache.setdefault("shapes", [])
    if len(hists) <= M:
        # ids by degree, shape by id, transitions, id by shape
        ids, shapes, steps, index = S._cache.setdefault(
            "shape_ids", ([array("I", [0])], [()], {}, {(): 0}))
        ctx = S.ctx
        # the sieve tables first, so that no class list is held while they
        # build; they list the irreducibles of degree up to M/2 on the way
        firsts = [[0]] + [ctx.first_factors(m) for m in range(1, M + 1)]
        bases = [ctx.q ** m for m in range(M + 1)]
        degs = {ctx.pkey(P): e for e in range(1, M // 2 + 1) for P in ctx.monic_irreducibles(e)}
        for m, classes in enumerate(_monic_classes(S, M)):
            if m < len(hists):
                continue
            if m:
                first, cof, base = firsts[m], ctx.cofactors(m), bases[m]
                row = array("I", [0]) * base
                for i, pk in enumerate(first):
                    if pk:
                        e, j = degs[pk], cof[i]
                    else:  # f is irreducible: P = f over the cofactor 1
                        pk, e, j = base + i, m, 0
                    k = m - e
                    gf = firsts[k][j]
                    # (deg P, id of g, whether P is g's smallest factor)
                    step = (e, ids[k][j], gf == pk if gf else bases[k] + j == pk)
                    sid = steps.get(step)
                    if sid is None:
                        g = shapes[step[1]]
                        shape = ((e, g[0][1] + 1),) + g[1:] if step[2] else ((e, 1),) + g
                        sid = index.get(shape)
                        if sid is None:
                            sid = index[shape] = len(shapes)
                            shapes.append(shape)
                        steps[step] = sid
                    row[i] = sid
                ids.append(row)
            hists.append({(idx, shapes[sid]): k
                          for (idx, sid), k in Counter(zip(classes, ids[m])).items() if idx >= 0})
    return hists[: M + 1]


def euler_series(S: StickCtx, M: int, method: str = "direct") -> tuple[GroupRingElem, ...]:
    """The coprime-class series to order M, as its M + 1 coefficients.

    ``direct`` counts the class of every monic polynomial of each degree
    coprime to the modulus; the classes come from the residue recursion of
    ``_monic_classes``.  ``euler_product`` expands the product of
    (1 - [P] z^deg P)^(-1) over monic irreducibles P coprime to the modulus
    of degree at most M, from the sieve of ``monic_irreducibles`` and one
    ``class_index`` per P, which walks the group's own step table, so it
    shares no step with the direct side.  The primes are grouped by (degree
    d, class g): n of them contribute (1 - [g] z^d)^(-n) = sum_k C(n+k-1, k)
    [g^k] z^(dk), multiplied into plain coefficient dicts by the permutation
    row of g^k, m descending so that each pass reads lower coefficients not
    yet updated.  The two must agree coefficient for coefficient.  A prime
    that ``class_index`` finds no unit class for raises ``PrimeClassError``.
    """
    if M < 0:
        raise ValueError("order must be nonnegative")
    key = ("euler", M, method)
    cached = S._cache.get(key)
    if cached is not None:
        return cached
    ctx, G, I = S.ctx, S.G, S.I
    if method == "direct":
        out = []
        for classes in _monic_classes(S, M):
            counts = Counter(classes)
            counts.pop(-1, None)
            out.append(counts)
    elif method == "euler_product":
        primes: Counter = Counter()
        for dP in range(1, M + 1):
            for P in ctx.monic_irreducibles(dP):
                if dP >= len(I) or ctx.pmod(I, P):  # else P divides the modulus
                    try:
                        primes[dP, G.class_index(P)] += 1
                    except ValueError as exc:
                        raise PrimeClassError(P) from exc
        out = [{0: 1}] + [{} for _ in range(M)]
        for (dP, g), n in primes.items():
            rows, gk = [], 0
            for k in range(1, M // dP + 1):
                gk = G.mul(gk, g)
                rows.append((math.comb(n + k - 1, k), G._row(gk)))
            for m in range(M, dP - 1, -1):
                acc = out[m]
                for k, (b, row) in enumerate(rows[: m // dP], 1):
                    for j, c in out[m - k * dP].items():
                        i = row[j]
                        acc[i] = acc.get(i, 0) + b * c
    else:
        raise ValueError(f"unknown method {method!r}")
    series = tuple(GroupRingElem(G, c) for c in out)
    assert series[0].coeffs == {0: 1}
    S._cache[key] = series
    return series


@dataclass
class TailReport:
    passed: bool
    window: tuple[int, int]
    violations: list


def stickelberger_q(S: StickCtx, window: int = 4) -> tuple[tuple[GroupRingElem, ...], TailReport]:
    """Polynomial part gamma_0..gamma_d of the series, plus the tail verdict.

    The tail law states s_m = q^(m-d-1) * N exactly for m > d; it is checked
    on the window d+1 <= m <= d+window and any violation is recorded with
    the offending coefficient.
    """
    if window < 1:
        raise ValueError("window must cover at least one tail coefficient")
    d = S.d
    series = euler_series(S, d + window, method="direct")
    gammas = series[: d + 1]
    N = S.norm()
    q = S.ctx.q
    violations = []
    for m in range(d + 1, d + window + 1):
        expected = N * (q ** (m - d - 1))
        got = series[m]
        if got != expected:
            violations.append({"m": m, "coefficient": got.to_json(),
                               "expected": expected.to_json()})
    return gammas, TailReport(passed=not violations, window=(d + 1, d + window),
                              violations=violations)


def theta1(S: StickCtx, c: int) -> FrobPoly:
    """sum_i c^i gamma_i F^(d-i) as a polynomial in the central symbol F."""
    if c < 0:
        raise ValueError("scale must be a nonnegative integer")
    gammas, _ = stickelberger_q(S)
    d = S.d
    coeffs = [GroupRingElem.zero(S.G)] * (d + 1)
    w = 1
    for i, g in enumerate(gammas):
        coeffs[d - i] = g * w
        w *= c
    return FrobPoly(S.G, coeffs)


def phi_series(S: StickCtx, n: int, M: int | None = None,
               method: str = "generating") -> tuple[GroupRingElem, ...]:
    """Series whose z^m coefficient weights each coprime class by the number
    of rank-n sublattice columns with that determinant, as its M + 1
    coefficients.

    ``generating`` multiplies the scaled copies of the coprime-class series
    with z -> q^j z for j < n.  ``lattice`` sums, over every monic
    polynomial f coprime to the modulus, the closed sublattice count: the
    product of ``heckelat._local_count(q^deg P, n, e)`` over the prime
    powers P^e of f.  It reads the histograms of ``_factor_shapes``, so the
    shape of each monic is built once per StickCtx whatever the (n, M) of
    the calls, and each shape's product is taken once per call.  The truncation
    defaults to n*d + 3, enough for every identity checked here.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if M is None:
        M = n * S.d + 3
    if M < 0:
        raise ValueError("order must be nonnegative")
    key = ("phi", n, M, method)
    cached = S._cache.get(key)
    if cached is not None:
        return cached
    ctx, G = S.ctx, S.G
    q = ctx.q
    if method == "generating":
        series = result = euler_series(S, M, method="direct")
        for j in range(1, n):
            result = dense_mul(result, [s * q ** (j * m) for m, s in enumerate(series)],
                               GroupRingElem.zero(G), operator.add, operator.mul, size=M + 1)
        result = tuple(result)
    elif method == "lattice":
        weights: dict[tuple, int] = {}
        out = []
        for hist in _factor_shapes(S, M):
            counts: dict[int, int] = {}
            for (idx, shape), k in hist.items():
                w = weights.get(shape)
                if w is None:
                    w = weights[shape] = math.prod(
                        heckelat._local_count(q ** dP, n, e) for dP, e in shape)
                counts[idx] = counts.get(idx, 0) + k * w
            out.append(GroupRingElem(G, counts))
        result = tuple(out)
    else:
        raise ValueError(f"unknown method {method!r}")
    S._cache[key] = result
    return result


def theta_n(S: StickCtx, n: int, method: str = "generating") -> FrobPoly:
    """sum_i F^(nd - i) c_i with c from phi_series."""
    nd = n * S.d
    c = phi_series(S, n, M=nd, method=method)
    coeffs = [c[nd - k] for k in range(nd + 1)]
    return FrobPoly(S.G, coeffs)


def theta_noinf(S: StickCtx, n: int, method: str = "generating") -> FrobPoly:
    """sum_i (1 + F + .. + F^i) c_{nd-i}, the variant without the place at
    infinity in the picture."""
    nd = n * S.d
    c = phi_series(S, n, M=nd, method=method)
    total = FrobPoly.zero(S.G)
    for i in range(nd + 1):
        block = FrobPoly(S.G, [c[nd - i]] * (i + 1))
        total = total + block
    return total


def t_times_t_minus_one(ctx: FieldCtx) -> tuple:
    """The split modulus t(t-1) of the rank-2 product formula."""
    t = (0, 1)
    return ctx.pmul(t, ctx.psub(t, (1,)))


def _first_coeff_diff(a: FrobPoly, b: FrobPoly) -> dict | None:
    top = max(a.degree, b.degree)
    if top < 0:
        return None
    for k in range(int(top) + 1):
        ca, cb = a.coeff(k), b.coeff(k)
        if ca != cb:
            return {"F_power": k, "left": ca.to_json(), "right": cb.to_json()}
    return None


def tail_law_record(tail: TailReport, tag: str = "", **details) -> dict:
    """The tail-law record of a ``TailReport``, its id ending in ``tag``;
    ``details`` adds entries to the checked window and its violations."""
    return check_record(
        "lseries.tail_law" + tag,
        "tail of the coprime-class series: s_m = q^(m-d-1)*N for m > d",
        tail.passed,
        {"window": list(tail.window), "violations": tail.violations, **details},
    )


def theta2_product_record(S: StickCtx, tag: str = "") -> dict:
    """For I = t(t-1): the record of Theta_2 (lattice route) against
    theta1(1)*theta1(q) + (q^2+1)*N, its id ending in ``tag``; the witness
    is the first F power at which they differ."""
    q = S.ctx.q
    lhs = theta_n(S, 2, method="lattice")
    rhs = theta1(S, 1) * theta1(S, q) + FrobPoly.constant(S.norm() * (q * q + 1))
    diff = _first_coeff_diff(lhs, rhs)
    return check_record(
        "lseries.theta2_product" + tag,
        "rank-2 element for I = t(t-1): Theta_2 = theta1(1)*theta1(q) + (q^2+1)*N",
        diff is None,
        {"q": q, **({"witness": diff} if diff else {})},
    )


def verify_identities(S: StickCtx, n_max: int = 2, fault: str | None = None) -> list[dict]:
    """Run the identity battery for this modulus and report each check.

    Returns a list of records with check_id, a human anchor naming the
    statement, a pass flag, and enough detail to locate any failure.  The
    deeper geometric statements behind these identities are out of
    computational reach; only their group ring shadows are checked, and the
    records say exactly that much.  ``fault`` set to "series" deliberately
    adds the identity class to the z^1 coefficient of the Euler-product
    side, so that the Euler dual check fails with ``first_mismatch`` 1;
    set to "phi", it adds the identity class to the z^1 coefficient of the
    rank-1 lattice-route copy compared by the phi dual check, so that only
    that check fails, with ``first_mismatch`` {n: 1, m: 1}.  Both corrupt a
    copy, never a cached series.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    ctx, G = S.ctx, S.G
    q = ctx.q
    records: list[dict] = []

    # (a) tail law
    records.append(tail_law_record(stickelberger_q(S)[1], q=q, I=list(S.I)))

    # (b) dual methods; a prime the group files in no unit class is the
    # witness of a failure, not an error
    direct = euler_series(S, 6, method="direct")
    mismatch = unclassed = None
    try:
        product = euler_series(S, 6, method="euler_product")
    except PrimeClassError as exc:
        unclassed = {"prime": list(exc.prime)}
    else:
        if fault == "series":
            bad = product[1] + GroupRingElem.integer(G, 1)
            product = product[:1] + (bad,) + product[2:]
        mismatch = next((m for m in range(7) if direct[m] != product[m]), None)
    records.append(check_record(
        "lseries.euler_dual",
        "Euler product over primes away from I equals direct enumeration",
        mismatch is None and unclassed is None,
        {"q": q, "I": list(S.I), "order": 6,
         **({"first_mismatch": mismatch} if mismatch is not None else {}),
         **({"witness": unclassed} if unclassed else {})},
    ))
    phi_ok = True
    phi_detail: dict = {"q": q, "I": list(S.I), "orders": {}}
    for n in range(1, n_max + 1):
        M = min(6, n * S.d + 2)
        a = phi_series(S, n, M=M, method="generating")
        b = phi_series(S, n, M=M, method="lattice")
        if fault == "phi" and n == 1:
            bad = b[1] + GroupRingElem.integer(G, 1)
            b = b[:1] + (bad,) + b[2:]
        mm = next((m for m in range(M + 1) if a[m] != b[m]), None)
        phi_detail["orders"][str(n)] = M
        if mm is not None:
            phi_ok = False
            phi_detail["first_mismatch"] = {"n": n, "m": mm}
            break
    records.append(check_record(
        "lseries.phi_dual",
        "generating-function phi series equals lattice-count phi series",
        phi_ok,
        phi_detail,
    ))

    # (c) rank-2 product formula, specific to I = t(t-1)
    if S.I == t_times_t_minus_one(ctx):
        records.append(theta2_product_record(S))

    # (d) factorization modulo the norm ideal; oracle side is the lattice
    # count route, the product side comes from the direct gamma extraction
    fact_ok = True
    fact_detail: dict = {"q": q, "I": list(S.I), "n_checked": []}
    for n in range(1, n_max + 1):
        lhs = theta_n(S, n, method="lattice")
        rhs = FrobPoly.constant(GroupRingElem.integer(G, 1))
        for j in range(n):
            rhs = rhs * theta1(S, q ** j)
        reduced = (lhs - rhs).map_coeffs(norm_residue)
        fact_detail["n_checked"].append(n)
        if reduced != FrobPoly.zero(G):
            fact_ok = False
            fact_detail["witness"] = {
                "n": n,
                "residue": _first_coeff_diff(reduced, FrobPoly.zero(G)),
            }
            break
    records.append(check_record(
        "lseries.mod_norm_factorization",
        "Theta_n congruent to product of theta1(q^j), j < n, modulo the norm ideal",
        fact_ok,
        fact_detail,
    ))

    # (e) telescoping relation; the left side comes from the generating
    # route, the right side from the lattice count route cached by (d)
    tele_ok = True
    tele_detail: dict = {"q": q, "I": list(S.I), "n_checked": []}
    F = FrobPoly.monomial(G, 1)
    one = FrobPoly.constant(GroupRingElem.integer(G, 1))
    for n in range(1, n_max + 1):
        nd = n * S.d
        c = phi_series(S, n, M=nd, method="lattice")
        lhs = (F - one) * theta_noinf(S, n)
        total = sum(c, GroupRingElem.zero(G))
        rhs = F * theta_n(S, n, method="lattice") - FrobPoly.constant(total)
        tele_detail["n_checked"].append(n)
        diff = _first_coeff_diff(lhs, rhs)
        if diff is not None:
            tele_ok = False
            tele_detail["witness"] = {"n": n, **diff}
            break
    records.append(check_record(
        "lseries.telescope_relation",
        "(F-1)*Theta'_n = F*Theta_n - sum of the series coefficients",
        tele_ok,
        tele_detail,
    ))

    # (f) coefficient pattern of Theta'_2 at F = 1: Theta'_2 from the
    # generating route, the weighted coefficients from the lattice route
    if n_max >= 2:
        nd = 2 * S.d
        c = phi_series(S, 2, M=nd, method="lattice")
        expected = GroupRingElem.zero(G)
        for i in range(nd + 1):
            expected = expected + c[nd - i] * (i + 1)
        got = theta_noinf(S, 2).eval_at_one()
        records.append(check_record(
            "lseries.coefficient_pattern",
            "Theta'_2 at F=1 weights the series coefficients by 1, 2, .., 2d+1",
            got == expected,
            {"q": q, "I": list(S.I), "weights": list(range(1, nd + 2))},
        ))

    return records
