"""Carlitz module arithmetic, cyclotomic torsion factors, and the tensor
square construction."""

import hashlib
import json
import random

import pytest

from ffstick import battery, carlitz
from ffstick.carlitz import (
    AlgElem,
    RatFunc,
    TorsionAlgebra,
    carlitz_map,
    galois_act,
    partial_fractions,
    psi_cyclotomic,
    psi_dense,
    split_tensor_element,
    torsion_poly,
    xmul,
)
from ffstick.fieldcore import dense_strip, field_context
from ffstick.groupring import unit_group

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)


def rand_poly(ctx, rng, dmax):
    return ctx.pvalidate(tuple(rng.randrange(ctx.q) for _ in range(rng.randrange(1, dmax + 2))))


def _skew_mul(ctx, f, g):
    """The product of skew polynomials in tau with coefficient tuples f and
    g, by the twist rule tau^i * b = b^(q^i) * tau^i."""
    out = [()] * (len(f) + len(g) - 1 if f and g else 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.padd(out[i + j], ctx.pmul(a, ctx.pfrob(b, i)))
    return tuple(dense_strip(out))


def _skew_add(ctx, f, g, c=1):
    """f + c * g for coefficient tuples f and g and a field element c."""
    n = max(len(f), len(g))
    f, g = f + ((),) * (n - len(f)), g + ((),) * (n - len(g))
    return tuple(dense_strip([ctx.padd(a, ctx.pscale(b, c)) for a, b in zip(f, g)]))


def test_carlitz_map_base_cases():
    assert carlitz_map(C2, (0, 1)).coeffs == ((0, 1), (1,))
    for ctx in (C2, C3, C4):
        got = carlitz_map(ctx, (0, 0, 1))
        middle = ctx.padd(ctx.pfrob((0, 1)), (0, 1))
        assert got.coeffs == ((0, 0, 1), middle, (1,))
    assert carlitz_map(C3, (2,)).coeffs == ((2,),)
    assert carlitz_map(C3, ()).coeffs == ()


def test_carlitz_map_is_ring_homomorphism():
    rng = random.Random(101)
    for ctx in (C2, C3):
        for _ in range(25):
            a, b = rand_poly(ctx, rng, 3), rand_poly(ctx, rng, 3)
            phi_a, phi_b = carlitz_map(ctx, a).coeffs, carlitz_map(ctx, b).coeffs
            assert carlitz_map(ctx, ctx.pmul(a, b)).coeffs == _skew_mul(ctx, phi_a, phi_b)
            assert carlitz_map(ctx, ctx.padd(a, b)).coeffs == _skew_add(ctx, phi_a, phi_b)


def test_carlitz_map_degree_and_leading():
    rng = random.Random(55)
    for ctx in (C2, C3):
        for _ in range(10):
            a = ctx.pmonic(rand_poly(ctx, rng, 3))
            if not a:
                continue
            phi = carlitz_map(ctx, a)
            assert phi.degree == len(a) - 1
            assert phi.coeffs[-1] == (1,)


def test_skew_product_twist():
    tau, t = ((), (1,)), ((0, 1),)
    # tau * t = t^q * tau, and t * tau has no twist
    assert _skew_mul(C3, tau, t) == ((), C3.pfrob((0, 1)))
    assert _skew_mul(C3, t, tau) == ((), (0, 1))
    assert _skew_mul(C3, tau, ()) == ()


def _carlitz_map_by_products(ctx, a):
    """phi_a as sum_i a_i (tau + t)^i, each power one skew product from the last."""
    phi_t = ((0, 1), (1,))
    acc, power = (), ((1,),)
    for i, c in enumerate(a):
        if c:
            acc = _skew_add(ctx, acc, power, c)
        if i + 1 < len(a):
            power = _skew_mul(ctx, phi_t, power)
    return acc


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_carlitz_map_equals_the_product_route(p, m):
    ctx = field_context(p, m)  # a fresh memo
    for key in range(ctx.q ** 5):  # every a with deg a <= 4
        a = ctx.pfrom_key(key)
        assert carlitz_map(ctx, a).coeffs == _carlitz_map_by_products(ctx, a)
    assert sorted(key[1] for key in ctx.memo if key[0] == "phi") == [0, 1, 2, 3, 4]


def test_torsion_poly_makes_no_skew_product():
    # the library has no skew product: each power of phi_t is one step of a
    # coefficient recurrence from the last, memoized on the context
    ctx = field_context(3)
    first = [torsion_poly(ctx, a) for a in ((1, 2, 0, 1), (0, 2, 1), (2, 1))]
    assert [torsion_poly(ctx, a) for a in ((1, 2, 0, 1), (0, 2, 1), (2, 1))] == first
    assert sorted(key[1] for key in ctx.memo if key[0] == "phi") == [0, 1, 2, 3]


def test_torsion_poly_shape():
    tp = torsion_poly(C2, (0, 1))
    assert tp.to_dense() == [(), (0, 1), (1,)]
    assert tp.degree == 1
    with pytest.raises(ValueError):
        torsion_poly(C2, ())


# (q, a) -> coeffs and the nonzero entries {index: coefficient} of
# to_dense(): the coefficient of tau^i sits at X^(q^i)
TORSION_PINS = [
    (C2, (1, 0, 1), ((1, 0, 1), (0, 1, 1), (1,)), 5,
     {1: (1, 0, 1), 2: (0, 1, 1), 4: (1,)}),
    (C3, (0, 2, 1), ((0, 2, 1), (2, 1, 0, 1), (1,)), 10,
     {1: (0, 2, 1), 3: (2, 1, 0, 1), 9: (1,)}),
    (C4, (0, 1, 1), ((0, 1, 1), (1, 1, 0, 0, 1), (1,)), 17,
     {1: (0, 1, 1), 4: (1, 1, 0, 0, 1), 16: (1,)}),
    (C3, (2,), ((2,),), 2, {1: (2,)}),
]


@pytest.mark.parametrize("ctx, a, coeffs, length, nonzero", TORSION_PINS,
                         ids=["q2", "q3", "q4", "q3-const"])
def test_torsion_poly_is_carlitz_map_and_is_pinned(ctx, a, coeffs, length, nonzero):
    tp = torsion_poly(ctx, a)
    assert tp == carlitz_map(ctx, a)
    assert tp.coeffs == coeffs
    dense = tp.to_dense()
    assert len(dense) == length
    assert {i: c for i, c in enumerate(dense) if c} == nonzero


def test_galois_action_on_x_is_pinned():
    # I = t^3 over F_2: Psi_I has degree 4 = |G_I|, and phi_(t^2+t+1)(X) has
    # degree 4, so the image of X is reduced mod Psi_I once
    alg = TorsionAlgebra(C2, (0, 0, 0, 1))
    img = galois_act(alg, (1, 1, 1), alg.x_gen())
    assert [c.to_json() for c in img.coeffs] == [
        {"num": [0, 1], "den": [1]}, {"num": [1, 1], "den": [1]},
        {"num": [1], "den": [1]}, {"num": [], "den": [1]}]


def test_torsion_poly_additive_in_argument():
    a, b = (0, 0, 1), (0, 1)
    tp_a, tp_b = torsion_poly(C2, a).coeffs, torsion_poly(C2, b).coeffs
    assert torsion_poly(C2, C2.padd(a, b)).coeffs == _skew_add(C2, tp_a, tp_b)


def test_psi_linear_modulus():
    for ctx in (C2, C3, C4):
        psi = psi_cyclotomic(ctx, (0, 1))
        dense = [p.coeffs for p in psi]
        assert dense == [(0, 1)] + [()] * (ctx.q - 2) + [(1,)]


def test_psi_square_modulus_by_exact_division():
    psi = psi_cyclotomic(C2, (0, 0, 1))
    dense = [p.coeffs for p in psi]
    # phi_{t^2}(X) / (X^2 + tX) = X^2 + tX + t
    assert dense == [(0, 1), (0, 1), (1,)]


def test_psi_degree_equals_unit_group_order():
    for ctx in (C2, C3):
        for d in (1, 2, 3):
            for I in ctx.monic_tuples(d):
                assert len(psi_cyclotomic(ctx, I)) - 1 == unit_group(ctx, I).order


def test_psi_divisor_product_reassembles_torsion():
    for ctx in (C2, C3):
        for d in (1, 2, 3):
            for f in ctx.monic_tuples(d):
                prod = [(1,)]
                for g in ctx.monic_divisors(f):
                    prod = xmul(ctx, prod, psi_dense(ctx, g))
                assert prod == torsion_poly(ctx, f).to_dense()


def test_divisor_product_record_names_an_inexact_division(monkeypatch):
    # psi_dense divides phi_f(X) by every Psi_g, g a proper divisor of f; a
    # Psi_(t+1) over F_2 off by one coefficient where it is divided by
    # leaves a remainder at f = (t+1)^2, which must fail the record with a
    # witness instead of raising out of verify-all
    ctx = field_context(2)
    good = [(1, 1), (1,)]  # X + t + 1
    assert psi_dense(ctx, (1, 1)) == good
    divide = carlitz.dense_divmod

    def corrupted(num, den, *rest):
        return divide(num, [(0, 1), (1,)] if den == good else den, *rest)

    monkeypatch.setattr(carlitz, "dense_divmod", corrupted)
    rec = battery._divisor_product(ctx)
    assert rec["check_id"] == "carlitz.divisor_product[q=2]"
    assert rec["status"] == "fail"
    assert rec["details"] == {"moduli_tested": 4, "witness": {
        "f": [1, 0, 1], "inexact_division": "primitive torsion factor does not divide exactly"}}
    monkeypatch.undo()
    rec = battery._divisor_product(field_context(2))
    assert rec["status"] == "pass" and rec["details"] == {"moduli_tested": 14}


def test_psi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        psi_cyclotomic(C2, (1,))
    with pytest.raises(ValueError):
        psi_cyclotomic(C3, (0, 1, 2))  # leading coefficient is not 1


@pytest.mark.parametrize("I", [(1, 2), (2,), (2, 0, 2)])  # 2t + 1, 2, 2t^2 + 2
def test_torsion_algebra_rejects_bad_modulus(I):
    ctx = field_context(3)  # a fresh memo
    with pytest.raises(ValueError, match="monic of degree at least 1"):
        TorsionAlgebra(ctx, I)
    assert ("psi", I) not in ctx.memo


def test_ratfunc_normalization():
    r = RatFunc(C3, (0, 2), (0, 0, 2))  # 2t / 2t^2 = 1/t
    assert r.num == (1,) and r.den == (0, 1)
    z = RatFunc(C3, (), (0, 5 % 3))
    assert z.is_zero and z.den == (1,)
    with pytest.raises(ZeroDivisionError):
        RatFunc(C3, (1,), ())


def test_algebra_ring_and_inverse():
    alg = TorsionAlgebra(C3, C3.pmul((0, 1), (2, 1)))
    assert alg.dim == 4
    x = alg.x_gen()
    one = alg.one()
    assert x * one == x
    assert (x + x) - x == x
    rng = random.Random(4)
    for _ in range(10):
        e = AlgElem(alg, [RatFunc(C3, rand_poly(C3, rng, 1)) for _ in range(alg.dim)])
        if e.is_zero:
            continue
        assert e * e.inv() == one
    with pytest.raises(ZeroDivisionError):
        alg.zero().inv()


def _pow_by_products(e, k):
    """e^k as k - 1 products."""
    out = e
    for _ in range(k - 1):
        out = out * e
    return out


def _rand_alg_elem(alg, rng):
    """Coefficients (a + b t) / (c + t), some of them zero."""
    ctx = alg.ctx
    cs = []
    for _ in range(alg.dim):
        num = (rng.randrange(ctx.q), rng.randrange(ctx.q)) if rng.random() < 0.8 else ()
        cs.append(RatFunc(ctx, num, (rng.randrange(ctx.q), 1)))
    return AlgElem(alg, cs)


# (q, I, dim): Psi_I of degree up to 26, both irreducible and split moduli
FROBENIUS_ALGEBRAS = [
    ((2, 1), (1, 1, 0, 0, 1), 15),
    ((2, 1), (0, 0, 0, 1), 4),
    ((3, 1), (1, 2, 0, 1), 26),
    ((3, 1), (0, 2, 1), 4),
    ((2, 2), (0, 1, 1), 9),
    ((5, 1), (4, 0, 1), 16),
]


@pytest.mark.parametrize("field, I, dim", FROBENIUS_ALGEBRAS,
                         ids=["q2-quartic", "q2-cube", "q3-cubic", "q3-split", "q4-split",
                              "q5-split"])
def test_frobenius_route_equals_products(field, I, dim):
    ctx = field_context(*field)
    q = ctx.q
    alg = TorsionAlgebra(ctx, I)
    assert alg.dim == dim
    rng = random.Random(q * 100 + dim)
    phi = torsion_poly(ctx, (rng.randrange(q), rng.randrange(q), 1))
    rational = [_rand_alg_elem(alg, rng) for _ in range(3)]
    assert any(e.den != (1,) for e in rational)
    for e in [alg.x_gen(), alg.one(), alg.zero()] + rational:
        powers = [e]  # e^(q^i) by products
        for _ in range(phi.degree):
            powers.append(_pow_by_products(powers[-1], q))
        assert e.pow_int(q) == powers[1]
        assert e.pow_int(2 * q) == powers[1] * powers[1]
        acc = alg.zero()
        for c, power in zip(phi.coeffs, powers):
            acc = acc + power.scale_poly(c)
        assert phi.eval_elem(e) == acc


def _fraction_ops(ctx):
    """-, * and / of RatFunc values, each result through the reducing
    constructor."""
    pmul = ctx.pmul

    def sub(a, b):
        return RatFunc(ctx, ctx.psub(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den))

    def mul(a, b):
        return RatFunc(ctx, pmul(a.num, b.num), pmul(a.den, b.den))

    def div(a, b):
        return RatFunc(ctx, pmul(a.num, b.den), pmul(a.den, b.num))

    return sub, mul, div


def _strip_fractions(cs):
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def _inverse_over_ratfunc(e):
    """The coefficients of e^(-1) by the extended Euclidean algorithm over
    F_q(t), every coefficient a RatFunc."""
    alg = e.algebra
    ctx = alg.ctx
    sub, mul, div = _fraction_ops(ctx)
    zero = RatFunc(ctx, ())
    r0 = [RatFunc(ctx, c) for c in psi_dense(ctx, alg.I)]
    r1 = _strip_fractions(list(e.coeffs))
    s0, s1 = [], [RatFunc(ctx, (1,))]
    while r1:
        # r0 = q * r1 + r, the quotient taken from the top coefficient down
        r, q = list(r0), [zero] * (len(r0) - len(r1) + 1)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = div(r[k + len(r1) - 1], r1[-1])
            for j, y in enumerate(r1):
                r[k + j] = sub(r[k + j], mul(c, y))
        # s0 - q * s1
        new_s = s0 + [zero] * (len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                new_s[i + j] = sub(new_s[i + j], mul(x, y))
        r0, r1 = r1, _strip_fractions(r)
        s0, s1 = s1, _strip_fractions(new_s)
    assert len(r0) == 1
    return [div(c, r0[0]) for c in s0] + [zero] * (alg.dim - len(s0))


@pytest.mark.parametrize("ctx, I, rational", [
    (C2, (0, 0, 0, 1), True), (C3, (0, 2, 1), True), (C4, (0, 1, 1), False),
], ids=["q2-cube", "q3-split", "q4-split"])
def test_inverse_equals_the_ratfunc_euclid(ctx, I, rational):
    alg = TorsionAlgebra(ctx, I)
    rng = random.Random(ctx.q)
    for _ in range(4):
        e = _rand_alg_elem(alg, rng)
        if not rational:
            e = AlgElem(alg, [RatFunc(ctx, c.num) for c in e.coeffs])
        if not e.is_zero:
            assert list(e.inv().coeffs) == _inverse_over_ratfunc(e)


@pytest.mark.parametrize("field, I, dim", [a for a in FROBENIUS_ALGEBRAS if a[2] <= 16],
                         ids=["q2-quartic", "q2-cube", "q3-split", "q4-split", "q5-split"])
def test_inverse_of_rational_elements(field, I, dim):
    ctx = field_context(*field)
    alg = TorsionAlgebra(ctx, I)
    rng = random.Random(ctx.q + dim)
    for _ in range(2):
        e = _rand_alg_elem(alg, rng)
        inv = e.inv()  # Psi_I is irreducible, so every nonzero element is a unit
        assert e * inv == inv * e == alg.one()
        assert e.pow_int(-ctx.q) == inv._frob()


def test_a_zero_divisor_has_no_inverse():
    alg = TorsionAlgebra(C3, (0, 1))  # Psi = X^2 + t
    x, t = alg.x_gen(), alg.constant(RatFunc(C3, (0, 1)))
    assert x.inv() * x == alg.one()
    alg._psi = [(0, 0, 2), (), (1,)]  # X^2 - t^2 = (X - t)(X + t)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        (x - t).inv()


def test_additive_polynomial_is_linear_on_algebra():
    alg = TorsionAlgebra(C2, (1, 1, 1))
    rng = random.Random(9)
    tp = torsion_poly(C2, (0, 1, 1))
    for _ in range(8):
        e1 = AlgElem(alg, [RatFunc(C2, rand_poly(C2, rng, 1)) for _ in range(alg.dim)])
        e2 = AlgElem(alg, [RatFunc(C2, rand_poly(C2, rng, 1)) for _ in range(alg.dim)])
        assert tp.eval_elem(e1 + e2) == tp.eval_elem(e1) + tp.eval_elem(e2)


def test_galois_action_identity_and_mod_reduction():
    alg = TorsionAlgebra(C2, (1, 1, 1))
    x = alg.x_gen()
    assert galois_act(alg, (1,), x) == x
    a = (0, 1)
    a_shifted = C2.padd(a, (1, 1, 1))  # same class mod I
    assert galois_act(alg, a, x) == galois_act(alg, a_shifted, x)


def test_galois_action_coprimality_guard():
    alg = TorsionAlgebra(C2, (0, 1, 1))  # I = t^2 + t = t(t+1)
    x = alg.x_gen()
    with pytest.raises(ValueError):
        galois_act(alg, (0, 1), x)


def test_galois_action_is_group_action():
    for ctx, I in ((C2, (1, 1, 1)), (C3, (0, 2, 1)), (C2, (1, 0, 1, 1))):
        G = unit_group(ctx, I)
        if G.order > 16:
            continue
        alg = TorsionAlgebra(ctx, I)
        x = alg.x_gen()
        reps = [G.rep(i).coeffs for i in range(G.order)]
        for a in reps:
            for b in reps:
                ab = ctx.pmod(ctx.pmul(a, b), I)
                assert galois_act(alg, a, galois_act(alg, b, x)) == galois_act(alg, ab, x)


def test_galois_action_roots_stay_roots():
    alg = TorsionAlgebra(C3, (0, 2, 1))
    x = alg.x_gen()
    psi = psi_dense(C3, alg.I)
    for a in ((1,), (2,), (1, 1), (2, 2)):
        img = galois_act(alg, a, x)
        # evaluate Psi at the image inside the algebra; must vanish
        acc = alg.zero()
        power = alg.one()
        for i, c in enumerate(psi):
            if c:
                acc = acc + power.scale_poly(c)
            if i + 1 < len(psi):
                power = power * img
        assert acc.is_zero


def test_partial_fractions_examples():
    p3 = C3.pmul((0, 1), (2, 1))
    assert partial_fractions(C3, p3) == [(0, 2), (1, 1)]
    assert partial_fractions(C3, (0, 1)) == [(0, 1)]
    # weights sum to zero once deg p >= 2
    full_split = C3.pmul(C3.pmul((0, 1), (2, 1)), (1, 1))
    pf = partial_fractions(C3, full_split)
    acc = 0
    for _, m in pf:
        acc = C3.add_table[acc][m]
    assert acc == 0


def test_partial_fractions_rejections():
    with pytest.raises(ValueError):
        partial_fractions(C3, (1, 0, 1))  # irreducible quadratic
    with pytest.raises(ValueError):
        partial_fractions(C2, (0, 0, 1))  # repeated root
    with pytest.raises(ValueError):
        partial_fractions(C3, (2, 2))  # not monic


def test_split_element_single_root():
    rep = split_tensor_element(C3, (0, 1))
    assert rep.ok
    assert rep.weights == [[0, 1]]
    assert rep.diagonal_constant.is_zero
    assert rep.dim == 2


def test_split_element_t_tminus1_f3():
    p = C3.pmul((0, 1), (2, 1))
    rep = split_tensor_element(C3, p)
    assert rep.ok
    names = [(c["check"], c["status"]) for c in rep.checks]
    assert names.count(("delta_invertible", "pass")) == 2
    assert names.count(("torsion_relation", "pass")) == 2
    assert ("diagonal_specialization", "pass") in names
    # sum of weights is 0, so the diagonal constant is -1 = 2
    assert rep.diagonal_constant == RatFunc.from_elem(C3, 2)
    assert rep.dim == 4
    assert len(rep.tensor) == 4


def test_split_element_t_tminus1_f4():
    rep = split_tensor_element(C4, (0, 1, 1))
    assert rep.ok
    assert rep.dim == 9
    assert rep.diagonal_constant == RatFunc.from_elem(C4, 1)  # -1 = 1 in even characteristic


@pytest.mark.parametrize("ctx, digest", [
    (C3, "6fdb7353281c07cd2299facf04314b9fb0980029b0d09fc63faf86d1095f4f47"),
    (C4, "d3dd2d823fda43a35a3525212da0b3ecf39ee814af8b05ebaba29f68f6821fa1"),
], ids=["q3", "q4"])
def test_split_element_tensor_of_t_tminus1_is_pinned(ctx, digest):
    # the rational function entries of u reach no report, so their bytes
    # are pinned here: sha256 of the compact JSON of the tensor
    p = ctx.pmul((0, 1), ctx.psub((0, 1), (1,)))
    tensor = split_tensor_element(ctx, p).tensor
    blob = json.dumps(tensor, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_split_element_three_roots_f3():
    p = C3.pmul(C3.pmul((0, 1), (2, 1)), (1, 1))  # t(t-1)(t+1)
    rep = split_tensor_element(C3, p)
    assert rep.ok
    assert rep.dim == 8
    assert rep.diagonal_constant == RatFunc.from_elem(C3, 2)


def test_split_element_requires_split_modulus():
    with pytest.raises(ValueError):
        split_tensor_element(C2, (1, 1, 1))
