"""The dense polynomial kernel of fieldcore over each coefficient ring it serves.

``dense_mul``, ``dense_divmod`` and ``dense_strip`` take the ring as
arguments and read a coefficient as zero when it is falsy, so ``RatFunc`` and
``GroupRingElem`` are falsy exactly when they are zero.  The products and
divisions are checked over Z, over F_q[t] as coefficient tuples, and over
F_q(t).
"""

import operator

from hypothesis import given, settings, strategies as st

from ffstick.carlitz import RatFunc, split_tensor_element
from ffstick.fieldcore import dense_divmod, dense_mul, dense_strip, field_context
from ffstick.groupring import GroupRingElem, unit_group

FIELDS = {2: field_context(2), 3: field_context(3), 4: field_context(2, 2)}


def _rings(ctx):
    """(zero, add, sub, mul) of F_q[t] and of F_q(t) over ctx."""
    zero = RatFunc(ctx, ())
    return {
        "poly": ((), ctx.padd, ctx.psub, ctx.pmul),
        "ratfunc": (zero, operator.add, operator.sub, operator.mul),
    }


@st.composite
def _fq_coeff(draw, ctx, kind, nonzero=False):
    poly = st.lists(st.integers(0, ctx.q - 1), max_size=3).map(ctx.pvalidate)
    if nonzero:
        poly = poly.filter(bool)
    num = draw(poly)
    if kind == "poly":
        return num
    den = draw(st.lists(st.integers(0, ctx.q - 1), max_size=3).map(ctx.pvalidate).filter(bool))
    return RatFunc(ctx, num, den)


def _rebuild(quot, b, rem, zero, add, mul):
    """b * quot + rem, stripped."""
    out = dense_mul(b, quot, zero, add, mul)
    out += [zero] * (len(rem) - len(out))
    for i, c in enumerate(rem):
        out[i] = add(out[i], c)
    return dense_strip(out)


@given(st.lists(st.integers(-9, 9), max_size=8),
       st.lists(st.integers(-9, 9), max_size=5), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_divmod_over_z_rebuilds_the_dividend(a, b, lead):
    # over Z the divisor's leading coefficient must be a unit; a monic
    # divisor goes as lead_inv None
    b = b + [lead]
    quot, rem = dense_divmod(a, b, 0, operator.sub, operator.mul, None if lead == 1 else lead)
    assert len(rem) < len(b)
    assert _rebuild(quot, b, rem, 0, operator.add, operator.mul) == dense_strip(list(a))
    assert (not quot or quot[-1]) and (not rem or rem[-1])


@st.composite
def _fq_division(draw):
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    kind = draw(st.sampled_from(["poly", "ratfunc"]))
    a = draw(st.lists(_fq_coeff(ctx, kind), max_size=6))
    b = draw(st.lists(_fq_coeff(ctx, kind), max_size=3))
    if kind == "poly":
        # a unit of F_q[t] leads, a nonzero constant
        b.append((draw(st.integers(1, ctx.q - 1)),))
    else:
        b.append(draw(_fq_coeff(ctx, kind, nonzero=True)))
    return ctx, kind, a, b


@given(_fq_division())
@settings(max_examples=300, deadline=None)
def test_divmod_over_fq_t_and_fq_of_t_rebuilds_the_dividend(case):
    ctx, kind, a, b = case
    zero, add, sub, mul = _rings(ctx)[kind]
    one = (1,) if kind == "poly" else RatFunc(ctx, (1,))
    if b[-1] == one:  # a monic divisor goes as lead_inv None
        lead_inv = None
    else:
        lead_inv = (ctx.inv_table[b[-1][0]],) if kind == "poly" else b[-1].inv()
    quot, rem = dense_divmod(a, b, zero, sub, mul, lead_inv)
    assert len(rem) < len(b)
    assert (not quot or quot[-1]) and (not rem or rem[-1])
    assert _rebuild(quot, b, rem, zero, add, mul) == dense_strip(list(a))


@st.composite
def _truncations(draw):
    ring = draw(st.sampled_from(["z", "poly", "ratfunc"]))
    if ring == "z":
        coeff, ops = st.integers(-5, 5), (0, operator.add, operator.mul)
    else:
        ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
        zero, add, _, mul = _rings(ctx)[ring]
        coeff, ops = _fq_coeff(ctx, ring), (zero, add, mul)
    a = draw(st.lists(coeff, max_size=5))
    b = draw(st.lists(coeff, max_size=5))
    return a, b, ops, draw(st.integers(0, 11))


@given(_truncations())
@settings(max_examples=300, deadline=None)
def test_truncated_product_is_the_head_of_the_full_product(case):
    a, b, (zero, add, mul), k = case
    full = dense_mul(a, b, zero, add, mul)
    assert len(full) == (len(a) + len(b) - 1 if a and b else 0)
    assert dense_mul(a, b, zero, add, mul, size=k) == full[:k]


def test_truthiness_agrees_with_is_zero():
    for ctx in FIELDS.values():
        for num, den in [((), (1,)), ((), (0, 1)), ((1,), (1,)), ((0, 1), (1, 1))]:
            f = RatFunc(ctx, num, den)
            assert bool(f) == (not f.is_zero)
        assert not RatFunc(ctx, ()) and RatFunc(ctx, (1,))
        G = unit_group(ctx, (0, 0, 1))
        for elem in (GroupRingElem.zero(G), GroupRingElem.integer(G, 0),
                     GroupRingElem.integer(G, 3), GroupRingElem(G, {1: -1, 0: 0})):
            assert bool(elem) == (not elem.is_zero)
        one = GroupRingElem.integer(G, 1)
        assert not one - one and one


def test_a_zero_diagonal_constant_is_still_reported():
    # t - 2 over F_3: one root, weight 1, so the constant (sum m_j) - 1 is 0
    doc = split_tensor_element(field_context(3), (2, 1)).to_json()
    assert doc["diagonal_constant"] == {"num": [], "den": [1]}
