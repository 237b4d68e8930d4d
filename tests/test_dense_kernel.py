"""The dense polynomial kernel of fieldcore over each coefficient ring it serves.

``dense_mul``, ``dense_divmod`` and ``dense_strip`` take the ring as its
zero and one fused multiply-accumulate, and read a coefficient as zero when
it is falsy, so ``GroupRingElem`` is falsy exactly when it is zero.
Division is by a monic divisor, checked over Z and over F_q[t] as
coefficient tuples, the ring of the Psi_g divisions.  The product is checked
over Z, over F_q[t] and over Z[G_I], where a truncated product (``size``)
multiplies the coefficient tuples of ``lseries.phi_series``.  The fused ops
themselves, ``FieldCtx.pmuladd``/``pmulsub`` and ``GroupRingElem.muladd``,
are checked against the unfused sum of a product.
"""

import operator

from hypothesis import given, settings, strategies as st

from ffstick.carlitz import split_tensor_element
from ffstick.fieldcore import dense_divmod, dense_mul, dense_strip, field_context
from ffstick.groupring import GroupRingElem, unit_group

FIELDS = {2: field_context(2), 3: field_context(3), 4: field_context(2, 2)}
# Z[G_I] for I = t^2 + t + 1 over F_2 (order 3) and I = t^2 over F_3 (order 6)
GROUPS = [unit_group(FIELDS[2], (1, 1, 1)), unit_group(FIELDS[3], (0, 0, 1))]
FUSED_FIELDS = {q: field_context(p, m) for q, p, m in
                ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2))}


def _z_fma(acc, x, y):
    return acc + x * y


def _z_fms(acc, x, y):
    return acc - x * y


def _fq_coeff(ctx):
    return st.lists(st.integers(0, ctx.q - 1), max_size=3).map(ctx.pvalidate)


def _group_ring_coeff(G):
    coeffs = st.dictionaries(st.integers(0, G.order - 1), st.integers(-3, 3), max_size=3)
    return coeffs.map(lambda cs: GroupRingElem(G, cs))


def _rebuild(quot, b, rem, zero, fma, add):
    """b * quot + rem, stripped."""
    out = dense_mul(b, quot, zero, fma)
    out += [zero] * (len(rem) - len(out))
    for i, c in enumerate(rem):
        out[i] = add(out[i], c)
    return dense_strip(out)


@given(st.lists(st.integers(-9, 9), max_size=8), st.lists(st.integers(-9, 9), max_size=5))
@settings(max_examples=200, deadline=None)
def test_divmod_over_z_rebuilds_the_dividend(a, b):
    b = b + [1]  # a monic divisor
    quot, rem = dense_divmod(a, b, 0, _z_fms)
    assert len(rem) < len(b)
    assert _rebuild(quot, b, rem, 0, _z_fma, operator.add) == dense_strip(list(a))
    assert (not quot or quot[-1]) and (not rem or rem[-1])


@st.composite
def _fq_division(draw):
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    a = draw(st.lists(_fq_coeff(ctx), max_size=6))
    b = draw(st.lists(_fq_coeff(ctx), max_size=3)) + [(1,)]  # monic, as Psi_g is
    return ctx, a, b


@given(_fq_division())
@settings(max_examples=300, deadline=None)
def test_divmod_over_fq_t_rebuilds_the_dividend(case):
    ctx, a, b = case
    quot, rem = dense_divmod(a, b, (), ctx.pmulsub)
    assert len(rem) < len(b)
    assert (not quot or quot[-1]) and (not rem or rem[-1])
    assert _rebuild(quot, b, rem, (), ctx.pmuladd, ctx.padd) == dense_strip(list(a))


@st.composite
def _truncations(draw):
    ring = draw(st.sampled_from(["z", "poly", "group_ring"]))
    if ring == "z":
        coeff, ops = st.integers(-5, 5), (0, _z_fma)
    elif ring == "poly":
        ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
        coeff, ops = _fq_coeff(ctx), ((), ctx.pmuladd)
    else:
        G = draw(st.sampled_from(GROUPS))
        coeff, ops = _group_ring_coeff(G), (GroupRingElem.zero(G), GroupRingElem.muladd)
    a = draw(st.lists(coeff, max_size=5))
    b = draw(st.lists(coeff, max_size=5))
    return a, b, ops, draw(st.integers(0, 11))


@given(_truncations())
@settings(max_examples=300, deadline=None)
def test_truncated_product_is_the_head_of_the_full_product(case):
    a, b, (zero, fma), k = case
    full = dense_mul(a, b, zero, fma)
    assert len(full) == (len(a) + len(b) - 1 if a and b else 0)
    assert dense_mul(a, b, zero, fma, size=k) == full[:k]


@st.composite
def _fused_cases(draw):
    ctx = FUSED_FIELDS[draw(st.sampled_from(sorted(FUSED_FIELDS)))]
    poly = st.lists(st.integers(0, ctx.q - 1), max_size=6).map(ctx.pvalidate)
    return ctx, draw(poly), draw(poly), draw(poly)


@given(_fused_cases())
@settings(max_examples=400, deadline=None)
def test_fused_field_ops_are_the_sum_of_a_product(case):
    ctx, acc, a, b = case
    prod = ctx.pmul(a, b)
    assert ctx.pmuladd(acc, a, b) == ctx.padd(acc, prod)
    assert ctx.pmulsub(acc, a, b) == ctx.psub(acc, prod)
    # psub is pmulsub by the one, so it is checked through padd and negation too
    neg = ctx.pvalidate([ctx.neg_table[c] for c in prod])
    assert ctx.psub(acc, prod) == ctx.padd(acc, neg)
    # acc = a*b and acc = -a*b cancel to the zero polynomial
    assert ctx.pmulsub(ctx.pmul(a, b), a, b) == ()
    assert ctx.pmuladd(ctx.psub((), ctx.pmul(a, b)), a, b) == ()


def test_fused_field_ops_at_the_edges():
    for ctx in FUSED_FIELDS.values():
        top = ctx.q - 1
        t2 = (0, 0, 1)
        for acc in ((), (1,), (top, 0, 0, 0, 0, 1), (1, top)):  # none, shorter, longer
            for a, b in (((), t2), (t2, ()), ((), ())):
                assert ctx.pmuladd(acc, a, b) == ctx.pmulsub(acc, a, b) == acc
            for a, b in (((1, 1), t2), ((top,), (0, 1)), ((2 % ctx.q, 1), (1, top, 1))):
                assert ctx.pmuladd(acc, a, b) == ctx.padd(acc, ctx.pmul(a, b))
                assert ctx.pmulsub(acc, a, b) == ctx.psub(acc, ctx.pmul(a, b))
        # the top coefficients cancel: the result is stripped
        assert ctx.pmulsub((1, 0, 1), (0, 1), (0, 1)) == (1,)
        assert ctx.pmuladd((1, 0, 1), (ctx.neg_table[1],), (1, 0, 1)) == ()


# Z[G_I] of order 1 (I = t over F_2), 3 and 6
FUSED_GROUPS = [unit_group(FIELDS[2], (0, 1))] + GROUPS


@st.composite
def _group_ring_fused_cases(draw):
    G = draw(st.sampled_from(FUSED_GROUPS))
    return G, draw(_group_ring_coeff(G)), draw(_group_ring_coeff(G)), draw(_group_ring_coeff(G))


@given(_group_ring_fused_cases())
@settings(max_examples=300, deadline=None)
def test_group_ring_muladd_is_the_sum_of_a_product(case):
    G, acc, x, y = case
    got = acc.muladd(x, y)
    assert got == acc + x * y
    assert 0 not in got.coeffs.values()
    assert (-(x * y)).muladd(x, y).coeffs == {}


def test_truthiness_agrees_with_is_zero():
    for ctx in FIELDS.values():
        G = unit_group(ctx, (0, 0, 1))
        for elem in (GroupRingElem.zero(G), GroupRingElem.integer(G, 0),
                     GroupRingElem.integer(G, 3), GroupRingElem(G, {1: -1, 0: 0})):
            assert bool(elem) == (not elem.is_zero)
        one = GroupRingElem.integer(G, 1)
        assert not one - one and one


def test_a_zero_diagonal_constant_is_still_reported():
    # t - 2 over F_3: one root, weight 1, so the constant (sum m_j) - 1 is 0
    rep = split_tensor_element(field_context(3), (2, 1))
    assert rep.diagonal_constant.to_json() == {"num": [], "den": [1]}
