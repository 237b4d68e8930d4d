"""The dense polynomial kernel of fieldcore over each coefficient ring it serves.

``dense_mul``, ``dense_divmod`` and ``dense_strip`` take the ring as
arguments and read a coefficient as zero when it is falsy, so
``GroupRingElem`` is falsy exactly when it is zero.  Division is by a monic
divisor, checked over Z and over F_q[t] as coefficient tuples, the ring of
the Psi_g divisions.  The product is checked over Z, over F_q[t] and over
Z[G_I], where a truncated product (``size``) multiplies the coefficient
tuples of ``lseries.phi_series``.
"""

import operator

from hypothesis import given, settings, strategies as st

from ffstick.carlitz import split_tensor_element
from ffstick.fieldcore import dense_divmod, dense_mul, dense_strip, field_context
from ffstick.groupring import GroupRingElem, unit_group

FIELDS = {2: field_context(2), 3: field_context(3), 4: field_context(2, 2)}
# Z[G_I] for I = t^2 + t + 1 over F_2 (order 3) and I = t^2 over F_3 (order 6)
GROUPS = [unit_group(FIELDS[2], (1, 1, 1)), unit_group(FIELDS[3], (0, 0, 1))]


def _fq_coeff(ctx):
    return st.lists(st.integers(0, ctx.q - 1), max_size=3).map(ctx.pvalidate)


def _group_ring_coeff(G):
    coeffs = st.dictionaries(st.integers(0, G.order - 1), st.integers(-3, 3), max_size=3)
    return coeffs.map(lambda cs: GroupRingElem(G, cs))


def _rebuild(quot, b, rem, zero, add, mul):
    """b * quot + rem, stripped."""
    out = dense_mul(b, quot, zero, add, mul)
    out += [zero] * (len(rem) - len(out))
    for i, c in enumerate(rem):
        out[i] = add(out[i], c)
    return dense_strip(out)


@given(st.lists(st.integers(-9, 9), max_size=8), st.lists(st.integers(-9, 9), max_size=5))
@settings(max_examples=200, deadline=None)
def test_divmod_over_z_rebuilds_the_dividend(a, b):
    b = b + [1]  # a monic divisor
    quot, rem = dense_divmod(a, b, 0, operator.sub, operator.mul)
    assert len(rem) < len(b)
    assert _rebuild(quot, b, rem, 0, operator.add, operator.mul) == dense_strip(list(a))
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
    quot, rem = dense_divmod(a, b, (), ctx.psub, ctx.pmul)
    assert len(rem) < len(b)
    assert (not quot or quot[-1]) and (not rem or rem[-1])
    assert _rebuild(quot, b, rem, (), ctx.padd, ctx.pmul) == dense_strip(list(a))


@st.composite
def _truncations(draw):
    ring = draw(st.sampled_from(["z", "poly", "group_ring"]))
    if ring == "z":
        coeff, ops = st.integers(-5, 5), (0, operator.add, operator.mul)
    elif ring == "poly":
        ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
        coeff, ops = _fq_coeff(ctx), ((), ctx.padd, ctx.pmul)
    else:
        G = draw(st.sampled_from(GROUPS))
        coeff, ops = _group_ring_coeff(G), (GroupRingElem.zero(G), operator.add, operator.mul)
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
