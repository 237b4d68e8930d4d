"""Factorization shapes straight from the sieve, against independent routes.

The sieve of ``FieldCtx.first_factors`` keeps, for every reducible monic f,
its smallest factor P and the key offset of f / P (``FieldCtx.cofactors``).
``lseries._factor_shapes`` builds each degree's shapes from lower degrees
with those two tables.  The references
are plain multiplication (``pmul``) for the cofactor table, and
Cantor-Zassenhaus (``pfactor``), which shares nothing with the sieve, with
``UnitGroup.class_index`` for the shape histograms.
"""

import pytest

from ffstick import lseries
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.lseries import stick_context

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
C5 = field_context(5)


@pytest.mark.parametrize("ctx, top", [(C2, 6), (C3, 6), (C4, 6), (C5, 5)],
                         ids=["q2", "q3", "q4", "q5"])
def test_cofactor_times_first_factor_is_the_monic(ctx, top):
    q = ctx.q
    for d in range(1, top + 1):
        first, cof = ctx.first_factors(d), ctx.cofactors(d)
        assert len(cof) == len(first) == q ** d
        for i, pk in enumerate(first):
            if pk:
                P = ctx.pfrom_key(pk)
                g = ctx.pfrom_key(q ** (d - len(P) + 1) + cof[i])
                assert ctx.pmul(P, g) == ctx.pfrom_key(q ** d + i), (d, i)


def test_irreducible_cofactor_entries_are_never_read():
    # an entry past every table makes any read of it fail loudly
    ctx = FieldCtx(3)
    S = stick_context(ctx, (1, 2, 0, 1))
    want = [dict(h) for h in lseries._factor_shapes(stick_context(C3, S.I), 6)]
    for d in range(1, 7):
        cof = ctx.cofactors(d)
        for i, pk in enumerate(ctx.first_factors(d)):
            if not pk:
                cof[i] = 2 ** 32 - 1
    assert [dict(h) for h in lseries._factor_shapes(S, 6)] == want


def _reference_shapes(S, M):
    ctx, G = S.ctx, S.G
    hists = []
    for m in range(M + 1):
        hist: dict = {}
        for f in ctx.monic_tuples(m):
            if ctx.pgcd(f, S.I) == (1,):
                key = (G.class_index(f), tuple((len(P) - 1, e) for P, e in ctx.pfactor(f)[1]))
                hist[key] = hist.get(key, 0) + 1
        hists.append(hist)
    return hists


@pytest.mark.parametrize("ctx, I, M", [
    (C4, (0, 1, 1), 5),
    (C5, (4, 0, 1), 5),
    (C2, (1, 1, 0, 1), 6),
    (C3, (1, 2, 0, 1), 6),
    (C2, (1, 1, 0, 0, 1), 9),
    (C3, (1, 0, 2, 0, 1), 7),  # (t^2 + 1)^2, not squarefree
], ids=["q4-t^2+t", "q5-t^2-1", "q2-cubic", "q3-cubic", "q2-quartic", "q3-square"])
def test_shape_histograms_equal_pfactor(ctx, I, M):
    # M: the largest order verify_identities(n_max=3) asks for, except for
    # (t^2 + 1)^2, where order 9 would take about 5 s of pfactor
    S = stick_context(ctx, I)
    assert lseries._factor_shapes(S, M) == _reference_shapes(S, M)


@pytest.mark.parametrize("ctx, I", [(C3, (1, 0, 2, 0, 1)), (C4, (0, 1, 1))], ids=["q3", "q4"])
def test_shapes_extend_across_calls(ctx, I):
    S = stick_context(ctx, I)
    small = lseries._factor_shapes(S, 3)
    assert len(small) == 4
    fresh = lseries._factor_shapes(stick_context(ctx, I), 6)
    assert lseries._factor_shapes(S, 6) == fresh
    assert small == fresh[:4]
