"""Field and polynomial layer: frozen examples plus randomized reconstruction."""

import random

import pytest

from ffstick.fieldcore import Poly, field_context


def _expand(ctx, unit, factors):
    """unit * prod f^mult over the factors, by tuple arithmetic."""
    prod = (unit,)
    for f, mult in factors:
        for _ in range(mult):
            prod = ctx.pmul(prod, f)
    return prod


def brute_modulus(p, m):
    """Independent oracle: scan monic degree m polys over F_p in encoding order,
    return the first with no monic divisor of degree in [1, m-1]."""
    def tuples(deg):
        for key in range(p ** deg):
            yield [key // p ** i % p for i in range(deg)] + [1]

    def divides(g, f):
        r = list(f)
        while len(r) >= len(g):
            c = r[-1] * pow(g[-1], p - 2, p) % p
            s = len(r) - len(g)
            for j, cg in enumerate(g):
                r[s + j] = (r[s + j] - c * cg) % p
            while r and r[-1] == 0:
                r.pop()
            if not r:
                return True
        return not r

    for f in tuples(m):
        if all(not divides(g, f) for d in range(1, m) for g in tuples(d)):
            return tuple(f)
    raise AssertionError


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_canonical_modulus_matches_bruteforce(p, m):
    ctx = field_context(p, m)
    if m == 1:
        assert ctx.modulus == (0, 1)
    else:
        assert ctx.modulus == brute_modulus(p, m)


def prime_powers(limit):
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, p)):
            q, m = p, 1
            while q <= limit:
                yield p, m
                q, m = q * p, m + 1


def reference_field(p, m, modulus):
    """Independent oracle: add, sub, mul, neg, inv of encoded elements by
    digit arithmetic in F_p[u] modulo the modulus, one product per call."""
    q = p ** m

    def digits(e):
        return [e // p ** i % p for i in range(m)]

    def undigits(ds):
        return sum(c * p ** i for i, c in enumerate(ds))

    def add(a, b):
        return undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def sub(a, b):
        return undigits([(x - y) % p for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return undigits([-x % p for x in digits(a)])

    def mul(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, m - 1, -1):  # the modulus is monic
            c, prod[k] = prod[k], 0
            for j in range(m):
                prod[k - m + j] = (prod[k - m + j] - c * modulus[j]) % p
        return undigits(prod[:m])

    def inv(a):
        if a == 0:
            return 0
        out, base, k = 1, a, q - 2
        while k:
            if k & 1:
                out = mul(out, base)
            base, k = mul(base, base), k >> 1
        return out

    return add, sub, mul, neg, inv


TABLES = ("add_table", "sub_table", "mul_table", "neg_table", "inv_table")


@pytest.mark.parametrize("p,m", list(prime_powers(128)))
def test_tables_match_digit_arithmetic(p, m):
    ctx = field_context(p, m)
    add, sub, mul, neg, inv = reference_field(p, m, ctx.modulus)
    r = range(ctx.q)
    want = (
        [[add(a, b) for b in r] for a in r],
        [[sub(a, b) for b in r] for a in r],
        [[mul(a, b) for b in r] for a in r],
        [neg(a) for a in r],
        [inv(a) for a in r],
    )
    for name, table in zip(TABLES, want):
        assert getattr(ctx, name) == table, name


@pytest.mark.parametrize("p,m", [(p, m) for p, m in prime_powers(256) if m > 1])
def test_pth_root_inverts_the_p_power(p, m):
    # g^p = sum c_i^p t^(i p), so the root must take every coefficient, the
    # zero ones too, back through c -> c^(p^(m-1)); g^p comes from products
    ctx = field_context(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(5):
        g = ((0, rng.randrange(1, ctx.q)) + tuple(rng.randrange(ctx.q) for _ in range(3))
             + (rng.randrange(1, ctx.q),))
        gp = g
        for _ in range(p - 1):
            gp = ctx.pmul(gp, g)
        assert ctx._pth_root(gp) == g


@pytest.mark.parametrize("p,m", [(3, 5), (2, 8), (3, 6), (2, 10)])
def test_tables_match_digit_arithmetic_on_seeded_pairs(p, m):
    ctx = field_context(p, m)
    q = ctx.q
    add, sub, mul, neg, inv = reference_field(p, m, ctx.modulus)
    rng = random.Random(q)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert ctx.add_table[a][b] == add(a, b)
        assert ctx.sub_table[a][b] == sub(a, b)
        assert ctx.mul_table[a][b] == mul(a, b)
        assert ctx.neg_table[a] == neg(a)
        assert mul(a, ctx.inv_table[a]) == (a != 0)
    # the tables refer to q shared element objects, one per element
    tables = [getattr(ctx, name) for name in TABLES]
    ids = {id(x) for t in tables[:3] for row in t for x in row}
    ids.update(id(x) for t in tables[3:] for x in t)
    assert len(ids) == q
    # exp lists the powers of a primitive element: every unit exactly once
    exp, log = ctx.exp_table, ctx.log_table
    assert len(exp) == q - 1 and sorted(exp) == list(range(1, q))
    assert all(log[e] == i for i, e in enumerate(exp))


def test_gf4096_builds_and_factors():
    ctx = field_context(2, 12)
    assert ctx.q == 4096 and len(ctx.mul_table) == 4096
    rng = random.Random(4096)
    a = ctx.pvalidate([rng.randrange(4096) for _ in range(6)] + [rng.randrange(1, 4096)])
    assert len(a) - 1 == 6
    unit, fs = ctx.pfactor(a)
    for f, mult in fs:
        assert f[-1] == 1
        assert ctx.is_irreducible(f)
    assert _expand(ctx, unit, fs) == a
    for d in (1, 3, 5):
        f = ctx.pvalidate([rng.randrange(4096) for _ in range(d)] + [rng.randrange(1, 4096)])
        h = ctx.pvalidate([rng.randrange(4096) for _ in range(d)])
        assert ctx._qpow_map(f)(h) == ctx.ppow_mod(h, 4096, f)


@pytest.mark.parametrize("p,m", list(prime_powers(128)) + [(3, 5), (2, 8)])
def test_exp_table_is_powers_of_the_least_primitive_element(p, m):
    # ties exp and log, and the mul and inv tables read from them, to one g
    ctx = field_context(p, m)
    q = ctx.q
    mul = reference_field(p, m, ctx.modulus)[2]

    def order(a):
        k, x = 1, a
        while x != 1:
            k, x = k + 1, mul(x, a)
        return k

    g = next(a for a in range(1, q) if order(a) == q - 1)
    want, x = [], 1
    for _ in range(q - 1):
        want.append(x)
        x = mul(x, g)
    assert ctx.exp_table == want


QPOW_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (5, 3), (2, 7), (3, 5), (2, 8)]


@pytest.mark.parametrize("p,m", QPOW_FIELDS)
def test_qpow_matrix_image_is_the_q_th_power(p, m):
    ctx = field_context(p, m)
    q = ctx.q
    rng = random.Random(q)
    for d in range(1, 9):
        for lead in {1, rng.randrange(1, q)}:  # monic and, for q > 2, not
            f = tuple(rng.randrange(q) for _ in range(d)) + (lead,)
            qpow = ctx._qpow_map(f)
            for _ in range(3):
                h = ctx.pvalidate([rng.randrange(q) for _ in range(d)])
                assert qpow(h) == ctx.ppow_mod(h, q, f)


@pytest.mark.parametrize("p,m", [(5, 3), (2, 7), (3, 5), (2, 8)])
def test_irreducibility_of_low_degree_matches_root_search(p, m):
    # a quadratic or cubic is irreducible exactly when it has no root in F_q
    ctx = field_context(p, m)
    q = ctx.q
    rng = random.Random(q)
    seen = set()
    for i in range(200):
        f = tuple(rng.randrange(q) for _ in range(2 + i % 2)) + (1,)
        irreducible = all(ctx.peval(f, x) for x in range(q))
        assert ctx.is_irreducible(f) == irreducible
        # a unit multiple has the same answer
        assert ctx.is_irreducible(ctx.pscale(f, rng.randrange(2, q))) == irreducible
        seen.add(irreducible)
    assert seen == {True, False}


def test_irreducibility_rejects_products_of_irreducibles():
    # P*Q has degree 5, and t^(q^5) = t fails modulo P; t^(q^6) = t holds
    # modulo the two products of degree 6, so only the gcd conditions reject
    # them: P*P'*P'' only at index 3, Q*Q' only at index 2
    ctx = field_context(2, 8)
    q = ctx.q
    rng = random.Random(256)

    def irreducible(d):
        while True:
            f = tuple(rng.randrange(q) for _ in range(d)) + (1,)
            if all(ctx.peval(f, x) for x in range(q)):
                return f

    for _ in range(5):
        P, P1, P2, Q, Q1 = (irreducible(d) for d in (2, 2, 2, 3, 3))
        assert ctx.is_irreducible(P) and ctx.is_irreducible(Q)
        assert not ctx.is_irreducible(ctx.pmul(P, Q))
        for f in (ctx.pmul(ctx.pmul(P, P1), P2), ctx.pmul(Q, Q1)):
            assert len(f) == 7 and not ctx.is_irreducible(f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_and_irreducibility_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    ctx = field_context(p)
    rng = random.Random(p)
    for _ in range(60):
        d = rng.randrange(1, 9)
        coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        sp = sympy.Poly(coeffs[::-1], t, modulus=p)
        assert ctx.is_irreducible(tuple(coeffs)) == sp.is_irreducible
        lead, sp_factors = sp.factor_list()
        want = sorted(
            (tuple(int(c) % p for c in g.all_coeffs()[::-1]), mult)
            for g, mult in sp_factors
        )
        unit, fs = ctx.pfactor(tuple(coeffs))
        assert unit == coeffs[-1] == int(lead) % p
        assert sorted(fs) == want


def test_known_moduli():
    assert field_context(2, 2).modulus == (1, 1, 1)
    assert field_context(3, 2).modulus == (1, 0, 1)


def test_field_tables_are_a_field():
    for p, m in [(2, 2), (3, 2), (2, 3)]:
        ctx = field_context(p, m)
        q = ctx.q
        for a in range(q):
            assert ctx.add_table[a][0] == a
            assert ctx.mul_table[a][1] == a
            assert ctx.add_table[a][ctx.neg_table[a]] == 0
            if a:
                assert ctx.mul_table[a][ctx.inv_table[a]] == 1
        # associativity spot checks
        rng = random.Random(q)
        for _ in range(50):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert ctx.mul_table[a][ctx.mul_table[b][c]] == ctx.mul_table[ctx.mul_table[a][b]][c]
            assert ctx.mul_table[a][ctx.add_table[b][c]] == ctx.add_table[ctx.mul_table[a][b]][ctx.mul_table[a][c]]


def test_divmod_frozen_example():
    # (t^3 + 2t + 1) = t * (t^2 + 1) + (t + 1) over F_3, worked by hand
    ctx = field_context(3)
    q, r = ctx.pdivmod((1, 2, 0, 1), (1, 0, 1))
    assert q == (0, 1)
    assert r == (1, 1)


def test_gcd_frozen_example():
    ctx = field_context(2)
    g = ctx.pgcd((0, 1, 1), (1, 0, 1))
    assert g == (1, 1)
    assert ctx.pgcd((), ()) == ()
    assert ctx.pgcd((), (0, 0, 1))[-1] == 1


def test_factor_frozen_examples():
    c2 = field_context(2)
    unit, fs = c2.pfactor((0, 1, 0, 0, 1))
    assert unit == 1
    assert fs == [((0, 1), 1), ((1, 1), 1), ((1, 1, 1), 1)]
    c3 = field_context(3)
    unit, fs = c3.pfactor((0, 2, 1))
    assert fs == [((0, 1), 1), ((2, 1), 1)]
    # non monic input keeps the unit out front
    unit, fs = c3.pfactor((0, 1, 2))
    assert unit == 2
    assert _expand(c3, unit, fs) == (0, 1, 2)


def test_monic_enum_order_and_coprimality():
    c2 = field_context(2)
    assert list(c2.monic_tuples(2)) == [
        (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert [str(Poly(c2, f)) for f in c2.monic_tuples(2) if c2.pgcd(f, (0, 1)) == (1,)] == [
        "t^2 + 1", "t^2 + t + 1"]
    assert list(c2.monic_tuples(0)) == [(1,)]
    assert list(c2.monic_tuples(-1)) == []


def test_field_limits_come_before_primality():
    with pytest.raises(ValueError, match="exceeds the table based limit"):
        field_context(4099)
    with pytest.raises(ValueError, match="exceeds the table based limit"):
        field_context(2, 13)
    with pytest.raises(ValueError, match="p must be prime"):
        field_context(4095)


@pytest.mark.parametrize("coeffs", [[0, True], [True]])
def test_bool_coefficient_is_refused(coeffs):
    with pytest.raises(ValueError, match="not an encoded element"):
        Poly(field_context(3), coeffs)


def test_monic_count_closed_form():
    # number of monic irreducibles of degree d is (1/d) sum_{e|d} mu(e) q^(d/e)
    from math import prod
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        ctx = field_context(p, m)
        q = ctx.q
        expected = {1: q, 2: (q * q - q) // 2, 3: (q ** 3 - q) // 3}
        for d, want in expected.items():
            assert len(ctx.monic_irreducibles(d)) == want


def test_divmod_reconstruction_randomized():
    rng = random.Random(20260823)
    ctxs = [field_context(2), field_context(3), field_context(2, 2), field_context(3, 2)]
    for _ in range(300):
        ctx = ctxs[rng.randrange(len(ctxs))]
        a = ctx.pvalidate([rng.randrange(ctx.q) for _ in range(rng.randrange(0, 9))])
        b = ctx.pvalidate([rng.randrange(ctx.q) for _ in range(rng.randrange(1, 6))])
        if not b:
            continue
        q, r = ctx.pdivmod(a, b)
        assert ctx.padd(ctx.pmul(q, b), r) == a
        assert len(r) < len(b)  # r is zero or of lower degree than b


def test_factor_reconstruction_randomized():
    rng = random.Random(99)
    for p, m in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        ctx = field_context(p, m)
        for _ in range(40):
            a = ctx.pvalidate([rng.randrange(ctx.q) for _ in range(rng.randrange(1, 8))])
            if not a:
                continue
            unit, fs = ctx.pfactor(a)
            for f, mult in fs:
                assert f[-1] == 1
                assert ctx.is_irreducible(f)
            assert _expand(ctx, unit, fs) == a


def test_factor_deterministic_under_seed():
    for seed in (0, 1, 12345):
        a1 = field_context(3, 2, seed=seed)
        a2 = field_context(3, 2, seed=seed)
        f1 = a1.pfactor((2, 7, 0, 4, 1, 1))
        f2 = a2.pfactor((2, 7, 0, 4, 1, 1))
        assert f1[1] == f2[1]


def test_poly_pow_and_eval():
    ctx = field_context(3)
    f = (1, 1)  # t + 1
    # Frobenius over F_3, the cube taken below t^4
    assert ctx.ppow_mod(f, 3, (0, 0, 0, 0, 1)) == (1, 0, 0, 1) == ctx.pfrob(f)
    assert ctx.peval(f, 2) == 0
    assert ctx.peval((1, 2, 1), 1) == 1


def test_ppow_mod_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        field_context(3).ppow_mod((1, 1), -1, (1, 0, 1))


def test_ppow_mod_reduces_the_power_zero():
    ctx = field_context(3)
    assert ctx.ppow_mod((1, 1), 0, (2,)) == () == ctx.ppow_mod((1, 1), 1, (2,))
    assert ctx.ppow_mod((1, 1), 0, (1, 0, 1)) == (1,)


def test_validation_errors():
    ctx = field_context(2)
    with pytest.raises(ValueError):
        Poly(ctx, [2])
    with pytest.raises(ValueError):
        field_context(4)
    with pytest.raises(ValueError):
        field_context(2, 0)
    with pytest.raises(ZeroDivisionError):
        ctx.pdivmod((1,), ())
