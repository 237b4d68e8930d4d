"""Every operator on a many-term sum equals the sum of its images of the terms.

``_plan_sum`` groups the terms of a sum by their rows 1, ..., n - 1, walks
those rows once per group and diagonal, and then only row 0 once per term.
Applied to each term alone, the walk has nothing to share, so the sum of
those images, with the terms' coefficients, is an oracle for the grouped
walk.  The sums are sigma_1 N + 3 sigma_2 N - sigma_1 N' (sigma_1 in place
of sigma_2 in rank 1), whose terms share rows, on A^n and on seeded random
sublattices; the empty sum, one-term sums, and a difference whose images
cancel in part are checked too.  Where an operator sums every sublattice
of one determinant, a one-term image is also checked against
``sublattice_enum``, which shares no code with the walk.
"""

import pytest

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_det,
    t_local,
)

# (p, m, x a linear prime, y another prime, squarefree g = x y' of degree 2)
FIELDS = {
    2: (2, 1, (0, 1), (1, 1, 1), (0, 1, 1)),
    3: (3, 1, (1, 1), (1, 0, 1), (0, 1, 1)),
    4: (2, 2, (0, 1), (1, 1), (0, 1, 1)),
}
CELLS = [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)] + [(2, 4)]


def _operators(ctx, q, n):
    """(name, operator, g) triples, g the determinant of every sublattice
    the operator sums, or None; n = 4 keeps deg g <= 2."""
    _, _, x, y, g = FIELDS[q]
    x2, z = ctx.pmul(x, x), x if n == 4 else y
    ops = [
        ("t_det-squarefree", lambda s: t_det(g, s), g),
        ("t_det-x2", lambda s: t_det(x2, s), x2),
        ("t_local", lambda s: t_local(z, 1, s), z),
        ("sigma", lambda s: sigma_apply(x, min(2, n), s), None),
    ]
    if n > 1:
        chain = InvariantType(ctx, [x2] + [(1,)] * (n - 1))
        assert not heckelat._forced(ctx, chain.det(), n)
        ops.append(("t_chain-unforced", lambda s: t_chain(chain, s), None))
    return ops


def _termwise(op, s):
    total = LatticeSum(s.ctx, s.n)
    for L, c in s.terms.items():
        total = total + op(LatticeSum.of(L) * c)
    return total


def _off_diagonal_below_row_0(L) -> int:
    return sum(bool(row[j]) for i, row in enumerate(L.rows) if i for j in range(i + 1, L.n))


def _sums(ctx, q, n):
    _, _, x, _, _ = FIELDS[q]
    others = []
    for seed in range(1, 40):
        L = random_sublattice(ctx, n, seed, max_deg=1)
        if not L.is_standard and L not in others:
            others.append(L)
    out = []
    for N in [standard_lattice(ctx, n)] + others[:1]:
        base, other = LatticeSum.of(N), LatticeSum.of(others[-1])
        out.append(sigma_apply(x, 1, base) + sigma_apply(x, min(2, n), base) * 3
                   - sigma_apply(x, 1, other))
    return out


@pytest.mark.parametrize("q,n", CELLS, ids=[f"q{q}-n{n}" for q, n in CELLS])
def test_grouped_walk_equals_the_termwise_sum(q, n):
    p, m, x, _, _ = FIELDS[q]
    ctx = field_context(p, m)
    sums = _sums(ctx, q, n)
    for s in sums:
        assert s.support_size() > 1
        # the terms share rows 1, ..., n - 1, so some group has two or more
        assert n == 1 or len({L.rows[1:] for L in s.terms}) < s.support_size()
    # the terms whose shared rows carry the most entries, alone
    ones = sorted(sums[-1].terms, key=_off_diagonal_below_row_0, reverse=True)[:2]
    for name, op, g in _operators(ctx, q, n):
        for s in sums:
            got = op(s)
            assert got == _termwise(op, s), (name, s)
            assert not got.is_zero
        assert op(LatticeSum(ctx, n)).is_zero, name
        for L in ones:
            one = LatticeSum.of(L, -2)
            assert op(one) == _termwise(op, one) == op(LatticeSum.of(L)) * -2, name
            if g is not None:
                assert op(LatticeSum.of(L)) == LatticeSum(
                    ctx, n, dict.fromkeys(sublattice_enum(L, g), 1)), name


@pytest.mark.parametrize("q,n", [(2, 2), (3, 3), (4, 2)], ids=["q2-n2", "q3-n3", "q4-n2"])
def test_images_that_cancel_leave_the_sum(q, n):
    # where B1 and B2 share sublattices, their coefficients in op(B1 - B2)
    # are 1 - 1 = 0, and none of them may stay in the grouped result
    p, m, x, _, _ = FIELDS[q]
    ctx = field_context(p, m)
    B1, B2 = list(sigma_apply(x, 1, LatticeSum.of(standard_lattice(ctx, n))).terms)[:2]
    diff = LatticeSum.of(B1) - LatticeSum.of(B2)
    for name, op, g in _operators(ctx, q, n):
        got = op(diff)
        assert got == _termwise(op, diff), name
        assert all(c for keys in got.by_diag.values() for c in keys.values()), name
        apart = op(LatticeSum.of(B1)).support_size() + op(LatticeSum.of(B2)).support_size()
        assert got.support_size() <= apart, name
        if name == "t_det-x2":  # B1 and B2 share sublattices of index x^2
            assert got.support_size() < apart
