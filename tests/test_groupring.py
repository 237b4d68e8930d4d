"""Unit groups and group ring arithmetic."""

import random

import pytest

from ffstick.fieldcore import Poly, field_context
from ffstick.groupring import (
    FrobPoly,
    GroupRingElem,
    norm_element,
    norm_residue,
    unit_group,
)


@pytest.mark.parametrize(
    "p,m,I,want",
    [
        (2, 1, [1, 1, 1], 3),        # irreducible quadratic: q^2 - 1
        (3, 1, [0, 2, 1], 4),        # t(t-1): (q-1)^2
        (2, 1, [0, 1, 1], 1),        # t(t+1) over F_2: trivial group
        (3, 1, [1, 0, 1], 8),        # irreducible quadratic over F_3
        (2, 1, [0, 0, 0, 1], 4),     # t^3: (q-1) q^2
        (2, 2, [0, 1], 3),           # linear over F_4: q - 1
        (2, 1, [0, 0, 1], 2),        # t^2: (q-1) q
    ],
)
def test_unit_group_order(p, m, I, want):
    G = unit_group(field_context(p, m), I)
    assert G.order == want
    assert G.order == G.order_by_formula()


def test_unit_group_reps_reduced_and_sorted():
    ctx = field_context(3)
    G = unit_group(ctx, [0, 2, 1])
    # coprime residues mod t(t-1): nonzero at both t=0 and t=1
    assert [e for e in G.elements] == [(1,), (2,), (1, 1), (2, 2)]
    assert G.elements[0] == (1,)
    # class_index reduces first: t^2 + 1 = (t^2 + 2t) + (t + 1) over F_3
    assert G.class_index(Poly(ctx, [1, 0, 1])) == G.class_index(Poly(ctx, [1, 1]))
    with pytest.raises(ValueError):
        G.class_index(Poly(ctx, [0, 1]))  # t shares a factor with t(t-1)


def test_unit_group_validation():
    ctx = field_context(2)
    with pytest.raises(ValueError):
        unit_group(ctx, [1])
    with pytest.raises(ValueError):
        unit_group(ctx, [])


def test_group_ring_axioms_randomized():
    rng = random.Random(5)
    ctx = field_context(3)
    G = unit_group(ctx, [1, 0, 1])

    def rand_elem():
        return GroupRingElem(G, {rng.randrange(G.order): rng.randrange(-4, 5) for _ in range(3)})

    for _ in range(60):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a  # abelian group
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert a - a == GroupRingElem.zero(G)


def test_basis_product_matches_group_law():
    ctx = field_context(2)
    G = unit_group(ctx, [1, 1, 1])
    t = GroupRingElem.basis(G, Poly(ctx, [0, 1]))
    t1 = GroupRingElem.basis(G, Poly(ctx, [1, 1]))
    assert t * t == t1
    assert t * t1 == GroupRingElem.integer(G, 1)


def test_norm_element_properties():
    for p, I in [(2, [1, 1, 1]), (3, [0, 2, 1]), (2, [0, 1, 1])]:
        G = unit_group(field_context(p), I)
        N = norm_element(G)
        assert N.augmentation() == G.order
        g = GroupRingElem.basis(G, G.rep(G.order - 1))
        assert g * N == N
        assert N * N == G.order * N


def test_norm_residue_canonicalization():
    ctx = field_context(3)
    G = unit_group(ctx, [0, 2, 1])
    N = norm_element(G)
    a = GroupRingElem(G, {0: 5, 1: 2})
    r = norm_residue(a)
    assert r.coeff(0) == 0
    assert r == norm_residue(a + 3 * N)
    assert norm_residue(N).is_zero
    b = GroupRingElem(G, {1: 2, 2: -5})
    assert norm_residue(a - b) == norm_residue(a) - norm_residue(b) or (
        norm_residue((a - b) - (norm_residue(a) - norm_residue(b))).is_zero
    )


def test_frobpoly_arithmetic():
    ctx = field_context(2)
    G = unit_group(ctx, [1, 1, 1])
    N = norm_element(G)
    F = FrobPoly.monomial(G, 1)
    f = F + FrobPoly.constant(N)
    g = f * f
    assert g.degree == 2
    assert g.coeff(1) == 2 * N
    assert g.coeff(0) == N * N
    assert f.eval_at_one() == GroupRingElem.integer(G, 1) + N
    assert (f - f).degree == float("-inf")


def test_group_ring_element_times_frobpoly_from_either_side():
    ctx = field_context(3)
    G = unit_group(ctx, [0, 0, 1])  # t^2: order 6
    g = GroupRingElem(G, {0: 2, 1: -1, 3: 4})
    F = FrobPoly(G, [GroupRingElem(G, {1: 1}), GroupRingElem(G, {0: 3, 5: -2})])
    assert g * F == F * g == FrobPoly(G, [g * c for c in F.coeffs])
    with pytest.raises(ValueError):
        g * GroupRingElem.integer(unit_group(ctx, [1, 0, 1]), 1)
    with pytest.raises(TypeError):
        g * "x"


def test_frobpoly_degree_additive_when_augmentation_nonzero():
    rng = random.Random(11)
    ctx = field_context(3)
    G = unit_group(ctx, [0, 2, 1])
    for _ in range(25):
        def rand_poly():
            deg = rng.randrange(0, 3)
            cs = []
            for k in range(deg + 1):
                cs.append(GroupRingElem(G, {rng.randrange(G.order): rng.randrange(-3, 4) for _ in range(2)}))
            return FrobPoly(G, cs)
        a, b = rand_poly(), rand_poly()
        if a.coeffs and b.coeffs and a.coeffs[-1].augmentation() != 0 and b.coeffs[-1].augmentation() != 0:
            assert (a * b).degree == a.degree + b.degree
