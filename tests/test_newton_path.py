"""The local Hecke sums behind the Newton recurrence, against independent routes.

``t_local`` and ``sigma_apply`` build the canonical rows of each sublattice
bottom up.  These tests compare them with ``sublattice_enum`` (every
sublattice with the given determinant, built as C * N and then put in
canonical form, classified by ``quotient_invariants`` for sigma_j), check
the multiplicities of the Newton terms against the Gaussian binomial count
[k choose j]_Q read off the quotient's invariant factors, check that
cancelled coefficients leave a sum, and bound the division work of one call
by the rows and generators it reduces.
"""

import itertools

import pytest

from ffstick import heckelat
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    gauss_binom,
    newton_verify,
    predict_newton_cost,
    quotient_invariants,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_local,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)


def _places(ctx):
    return [ctx.monic_irreducibles(1)[-1], ctx.monic_irreducibles(2)[0]]


def _power(ctx, x, m):
    out = (1,)
    for _ in range(m):
        out = ctx.pmul(out, x)
    return out


def _colength_count(Q, n, m):
    """Sublattices of colength m in rank n: the z^m coefficient of
    prod_{j<n} 1/(1 - Q^j z)."""
    series = [1] + [0] * m
    for j in range(n):
        for k in range(1, m + 1):
            series[k] += Q ** j * series[k - 1]
    return series[m]


def _proper_sublattice(ctx, n, max_deg, start=0):
    """The first seeded random_sublattice from ``start`` on other than A^n."""
    seed = start
    while True:
        L = random_sublattice(ctx, n, seed, max_deg=max_deg)
        if not L.is_standard:
            return L
        seed += 1


def _enum_sum(L, g):
    counts = {}
    for M in sublattice_enum(L, g):
        counts[M] = counts.get(M, 0) + 1
    return LatticeSum(L.ctx, L.n, counts)


@pytest.mark.parametrize("ctx", [C2, C3, C4], ids=["q2", "q3", "q4"])
def test_t_local_matches_sublattice_enum(ctx):
    cells = 0
    for x in _places(ctx):
        Q = ctx.q ** (len(x) - 1)
        for n in (1, 2, 3):
            lattices = [standard_lattice(ctx, n)]
            if n > 1:
                lattices += [_proper_sublattice(ctx, n, 1), _proper_sublattice(ctx, n, 2)]
            for m in range(4):
                if _colength_count(Q, n, m) > 400:
                    continue
                g = _power(ctx, x, m)
                refs = [_enum_sum(L, g) for L in lattices]
                for L, ref in zip(lattices, refs):
                    got = t_local(x, m, LatticeSum.of(L))
                    assert got == ref, (ctx, x, n, m, L)
                    assert got.total_mass() == _colength_count(Q, n, m)
                if n > 1:
                    mixed = LatticeSum.of(lattices[1], 2) + LatticeSum.of(lattices[2], 3)
                    expect = refs[1] * 2 + refs[2] * 3
                    assert t_local(x, m, mixed) == expect, (ctx, x, n, m)
                cells += 1
    assert cells >= 12


@pytest.mark.parametrize("ctx", [C2, C3, C4], ids=["q2", "q3", "q4"])
def test_sigma_apply_matches_classified_enumeration(ctx):
    # sigma_j N sums the M between N and x N with N / M = (A/x)^j: among all
    # sublattices of determinant x^j, those whose quotient has j factors x
    for x in _places(ctx):
        Q = ctx.q ** (len(x) - 1)
        for n in (1, 2, 3):
            lattices = [standard_lattice(ctx, n)]
            if n > 1:
                lattices.append(_proper_sublattice(ctx, n, 1))
            for N in lattices:
                for j in range(n + 1):
                    if _colength_count(Q, n, j) > 400:
                        continue
                    chain = (x,) * j + ((1,),) * (n - j)
                    expect = {M: 1 for M in sublattice_enum(N, _power(ctx, x, j))
                              if quotient_invariants(M, N).chain == chain}
                    got = sigma_apply(x, j, LatticeSum.of(N))
                    assert got == LatticeSum(ctx, n, expect), (ctx, x, n, j, N)
                    assert got.total_mass() == gauss_binom(n, j, Q)


def _x_rank(M, N, x):
    """Number of invariant factors of N/M divisible by x."""
    ctx = M.ctx
    return sum(1 for f in quotient_invariants(M, N).chain if not ctx.pmod(f, x))


@pytest.mark.parametrize("ctx", [C2, C3], ids=["q2", "q3"])
def test_newton_term_multiplicities_are_gaussian_binomials(ctx):
    # M occurs in t_local(x, r-j, sigma_j N) once per codimension j subspace
    # of N / (M + xN) = (A/x)^k, that is [k choose j]_Q times
    checked = 0
    for x in _places(ctx):
        Q = ctx.q ** (len(x) - 1)
        for n in (2, 3):
            lattices = [standard_lattice(ctx, n), _proper_sublattice(ctx, n, 1, start=5)]
            for r in (1, 2, 3):
                if predict_newton_cost(ctx, x, n, r) > 1500:
                    continue
                for N in lattices:
                    base = LatticeSum.of(N)
                    terms = [t_local(x, r - j, sigma_apply(x, j, base))
                             for j in range(min(n, r) + 1)]
                    for M, c0 in terms[0].terms.items():
                        assert c0 == 1
                        k = _x_rank(M, N, x)
                        for j, term in enumerate(terms):
                            assert term.terms.get(M, 0) == gauss_binom(k, j, Q), \
                                (ctx, x, n, r, j, M)
                    # no term reaches outside the colength r sublattices
                    assert all(set(t.terms) <= set(terms[0].terms) for t in terms)
                    checked += 1
    assert checked >= 8


def _snapshot(s):
    return {diag: dict(keys) for diag, keys in s.by_diag.items()}


def _oracle_residue(x, N, r, Q, flip):
    """sum_j c_j t_local(x, r - j, sigma_j N) with LatticeSum + and *, the
    sign of c_1 flipped when ``flip`` is set."""
    base = LatticeSum.of(N)
    total = LatticeSum(N.ctx, N.n)
    for j in range(min(N.n, r) + 1):
        coeff = (-1) ** j * Q ** (j * (j - 1) // 2) * (-1 if flip and j == 1 else 1)
        total = total + heckelat.t_local(x, r - j, sigma_apply(x, j, base)) * coeff
    return total


@pytest.mark.parametrize("ctx", [C2, C3], ids=["q2", "q3"])
def test_two_sided_verdict_equals_public_arithmetic(ctx, monkeypatch):
    # newton_verify sums the even-j and odd-j terms apart, adopting
    # t_local's buckets, and compares the two sides; here the residue is
    # summed with LatticeSum + and * instead, and the verdict must hold
    # exactly when it is zero.  Besides the j = 1 sign flip, a t_local that
    # doubles the j = 0 term breaks the relation without changing which
    # lattices either side holds.  Only q = 3, x = t^2 + 1, n = 3, r = 3
    # (1,292,566 productions) is over the budget.
    seen = []

    def spy(op):
        def run(x, k, s):
            seen.append((s, _snapshot(s)))
            out = op(x, k, s)
            # newton_verify adopts the buckets of t_local's result
            held = {id(keys) for t, _ in seen for keys in t.by_diag.values()}
            assert not held & {id(keys) for keys in out.by_diag.values()}
            return out
        return run

    real = heckelat.t_local
    monkeypatch.setattr(heckelat, "sigma_apply", spy(heckelat.sigma_apply))
    cells = 0
    for x in _places(ctx):
        Q = ctx.q ** (len(x) - 1)
        for n in (1, 2, 3):
            lattices = [standard_lattice(ctx, n), _proper_sublattice(ctx, n, 1),
                        random_sublattice(ctx, n, 12, max_deg=1)]
            for r in (1, 2, 3):
                if predict_newton_cost(ctx, x, n, r) > 20000:
                    continue

                def doubled(x, m, s, r=r):
                    return real(x, m, s) * (2 if m == r else 1)

                for N in lattices:
                    for fault, t_local_ in ((None, real), ("newton", real), (None, doubled)):
                        monkeypatch.setattr(heckelat, "t_local", spy(t_local_))
                        residue = _oracle_residue(x, N, r, Q, fault is not None)
                        rep = newton_verify(ctx, x, n, r, test_lattices=[N], fault=fault)
                        assert rep.ok == residue.is_zero, (ctx, x, n, r, N, fault)
                        assert rep.ok == (fault is None and t_local_ is real)
                        expect = None if rep.ok else heckelat._residue_witness(N, residue)
                        assert rep.witness == expect, (ctx, x, n, r, N, fault)
                        # no input to either operator was merged into, or adopted
                        assert all(_snapshot(s) == snap for s, snap in seen)
                        seen.clear()
                    cells += 1
    assert cells == (51 if ctx is C3 else 54)


@pytest.mark.parametrize("ctx", [C2, C3], ids=["p2", "p3"])
def test_unit_coefficients_count_like_any_other(ctx):
    # a term of coefficient 1 meeting an existing bucket is counted in C,
    # any other coefficient key by key; the two must agree, and the public
    # + and * are the reference.  The terms of sigma_1 N share many
    # sublattices, and B1 + 3 B2 and 3 B1 + B2 let a coefficient 1 term
    # meet a bucket made by either kind of term first.
    x, y = _places(ctx)
    s = sigma_apply(x, 1, LatticeSum.of(_proper_sublattice(ctx, 2, 1)))
    B1, B2 = (LatticeSum.of(B) for B in list(s.terms)[:2])
    forced = InvariantType(ctx, [ctx.pmul(x, y), (1,)])  # squarefree det
    classified = InvariantType(ctx, [_power(ctx, x, 2), x])
    ops = {
        "local": lambda s: t_local(x, 2, s),
        "forced": lambda s: t_chain(forced, s),
        "classified": lambda s: t_chain(classified, s),
    }
    for name, op in ops.items():
        once = op(s)
        assert once.total_mass() > once.support_size(), name  # productions collide
        assert op(3 * s) == 3 * once, name
        for s1, s2 in ((B1, B2), (B2, B1)):
            assert op(s1 + 3 * s2) == op(s1) + 3 * op(s2), name
            assert op(s1 + s2) == op(s1) + op(s2), name


def _compositions(m, n):
    """Ordered tuples of n nonnegative integers summing to m."""
    return [c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m]


def _division_bound(q, deg_x, n, m):
    """Rows and generators reduced by the bottom-up enumeration, each
    weighted by the divisions one reduction may take.

    For the composition c, row i has sum_{j>i} c_j deg x generators, and is
    reduced once per choice of the rows below it; a reduction divides at
    most once per column right of i, plus once for the last column's
    residue class.
    """
    bound = 0
    for c in _compositions(m, n):
        gens = [deg_x * sum(c[i + 1:]) for i in range(n)]
        for i in range(n):
            tails = 1
            for below in range(i + 1, n):
                tails *= q ** gens[below]
            bound += tails * (1 + gens[i]) * (n - i)
    return bound


@pytest.mark.parametrize("ctx,x", [(C2, (1, 1, 1)), (C3, (1, 1))], ids=["q2-quadratic", "q3-linear"])
def test_t_local_divisions_follow_reductions_not_productions(ctx, x, monkeypatch):
    # a last diagonal entry of positive degree, so the residue classes of the
    # last column are proper and their divisions are counted too
    N = next(L for L in (random_sublattice(ctx, 3, seed, max_deg=1) for seed in range(100))
             if len(L.rows[2][2]) > 1 and len(L.rows[0][0]) > 1)
    s = LatticeSum.of(N)
    calls = {"canonical_rows": 0, "pdivmod": 0}
    canonical_rows = heckelat._canonical_rows
    pdivmod = FieldCtx.pdivmod

    def counting_canonical_rows(*args):
        calls["canonical_rows"] += 1
        return canonical_rows(*args)

    def counting_pdivmod(self, a, b):
        calls["pdivmod"] += 1
        return pdivmod(self, a, b)

    monkeypatch.setattr(heckelat, "_canonical_rows", counting_canonical_rows)
    monkeypatch.setattr(FieldCtx, "pdivmod", counting_pdivmod)
    heckelat._validate_prime(ctx, x)  # t_local validates x the same way first
    overhead = calls["pdivmod"]
    out = t_local(x, 3, s)

    productions = out.total_mass()
    assert productions == _colength_count(ctx.q ** (len(x) - 1), 3, 3)
    bound = _division_bound(ctx.q, len(x) - 1, 3, 3)
    assert calls["canonical_rows"] == 0
    assert calls["pdivmod"] - overhead <= bound < productions


def test_negative_colength_is_rejected():
    # at r = 0 the sum is sigma_0, the identity, which never vanishes
    for r in (-1, 0):
        with pytest.raises(ValueError, match="colength must be positive"):
            newton_verify(C2, (0, 1), 2, r)
        with pytest.raises(ValueError, match="colength must be positive"):
            predict_newton_cost(C2, (0, 1), 2, r)


@pytest.mark.parametrize("x", [(0, 0, 1), (0, 0, 2), (2, 0, 1)],
                         ids=["reducible", "non-monic", "reducible-quadratic"])
def test_cost_prediction_refuses_what_newton_verify_refuses(x):
    # the prediction read only deg x, so it priced a check that cannot run;
    # it priced a rank below 1 too, as 1 at r = 0 and 0 at n = -2
    for fn in (predict_newton_cost, newton_verify):
        with pytest.raises(ValueError, match="monic irreducible"):
            fn(C3, x, 2, 2)
        for n in (0, -1):
            for r in (0, 2):
                with pytest.raises(ValueError, match="rank must be positive"):
                    fn(C3, (0, 1), n, r)


def test_test_lattice_over_another_field_is_rejected():
    # t over F_2 is a prime there too, so without the check the sums ran
    # over F_2 while the Newton coefficients used q = 3: a false failure
    for N in (standard_lattice(C2, 2), random_sublattice(C2, 2, 1, max_deg=1)):
        with pytest.raises(ValueError, match="different field"):
            newton_verify(C3, (0, 1), 2, 2, test_lattices=[standard_lattice(C3, 2), N])
    assert newton_verify(C3, (0, 1), 2, 2, test_lattices=[standard_lattice(C3, 2)]).ok


def test_cancelled_terms_leave_the_sum():
    # x A^2 lies in two distinct members B1, B2 of sigma_1(A^2) with colength
    # 1 in each, so its coefficient in t_local(x, 1, B1 - B2) is 1 - 1 = 0
    for ctx, x in ((C2, (0, 1)), (C3, (1, 1)), (C4, (0, 1))):
        A = standard_lattice(ctx, 2)
        B1, B2 = list(sigma_apply(x, 1, LatticeSum.of(A)).terms)[:2]
        diff = LatticeSum.of(B1) - LatticeSum.of(B2)
        got = t_local(x, 1, diff)
        assert got == t_local(x, 1, LatticeSum.of(B1)) - t_local(x, 1, LatticeSum.of(B2))
        assert A.scale(x) not in got.terms
        assert 0 not in got.terms.values()
        assert sigma_apply(x, 1, diff).total_mass() == 0
        assert (t_local(x, 2, LatticeSum.of(A)) * 0).is_zero
