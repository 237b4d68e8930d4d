"""The determinant forces the chain when it leaves no choice.

A Smith chain d_1 | ... | d_n with product g has d_k^2 | g for k < n, so
for a squarefree g, or in rank 1, every canonical triangle of determinant g
has chain (g, 1, ..., 1).  ``t_chain`` and ``d_count`` then make no Smith
form.  These tests count the ``_snf_diagonal`` calls they make and check the
per-matrix route, ``_snf_diagonal`` on every triangle of
``_enum_canonical_triangles`` in enumeration order, finds that one chain.
Squarefreeness is read off ``pfactor`` here, not off gcd(g, g').
"""

import pytest

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import InvariantType, LatticeSum, d_count, standard_lattice, t_chain

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices handed to ``_snf_diagonal``."""
    calls = []
    real = heckelat._snf_diagonal

    def counting(ctx, mat):
        calls.append(mat)
        return real(ctx, mat)

    monkeypatch.setattr(heckelat, "_snf_diagonal", counting)
    return calls


def _by_matrix(ctx, g, n):
    groups = {}
    for diags in heckelat._diag_tuples(ctx, g, n):
        for rows in heckelat._enum_canonical_triangles(ctx, diags):
            chain = tuple(reversed(heckelat._snf_diagonal(ctx, rows)))
            groups.setdefault(chain, []).append(tuple(tuple(r) for r in rows))
    return {chain: tuple(cs) for chain, cs in groups.items()}


def test_squarefree_determinant_classifies_nothing(snf_calls):
    g = C3.pmul((1, 0, 1), (2, 1, 1))  # (t^2 + 1)(t^2 + t + 2)
    chain = InvariantType(C3, [g, (1,), (1,)])
    got = t_chain(chain, LatticeSum.of(standard_lattice(C3, 3)))
    assert got.support_size() == d_count(C3, chain) == heckelat.phi_count(C3, g, 3) == 8281
    assert snf_calls == []


def test_rank_one_classifies_nothing(snf_calls):
    g = (0, 0, 1)  # t^2
    A = standard_lattice(C3, 1)
    assert t_chain(InvariantType(C3, [g]), LatticeSum.of(A)) == LatticeSum.of(A.scale(g))
    assert d_count(C3, [g]) == 1
    assert snf_calls == []
    assert heckelat._triangles_by_type(C3, g, 1) == {(g,): (((g,),),)}


def test_square_determinant_is_still_classified(snf_calls):
    ctx = field_context(3)  # an empty memo
    g = (0, 0, 1)  # t^2
    groups = heckelat._triangles_by_type(ctx, g, 2)
    assert len(snf_calls) == heckelat.phi_count(ctx, g, 2)
    assert set(groups) == {(g, (1,)), ((0, 1), (0, 1))}


def _cells():
    for ctx, top in ((C2, 3), (C3, 3), (C4, 3)):
        for n in (1, 2, 3):
            for d in range((2 if ctx is C4 and n == 3 else top) + 1):
                for g in ctx.monic_tuples(d):
                    if all(e == 1 for _, e in ctx.pfactor(g)[1]):
                        yield ctx, g, n


CELLS = list(_cells())


@pytest.mark.parametrize("q", [2, 3, 4])
def test_forced_groups_equal_the_per_matrix_route(q, snf_calls):
    cells = [(ctx, g, n) for ctx, g, n in CELLS if ctx.q == q]
    assert cells
    for ctx, g, n in cells:
        chain = (g,) + ((1,),) * (n - 1)
        groups = _by_matrix(ctx, g, n)
        assert list(groups) == [chain], (g, n)
        snf_calls.clear()
        assert d_count(ctx, chain) == len(groups[chain]), (g, n)
        assert snf_calls == [], (g, n)
