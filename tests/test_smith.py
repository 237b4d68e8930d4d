"""Smith and Hermite forms against an elimination reference and invariance laws.

``heckelat._snf_diagonal`` reads the Smith diagonal off the determinantal
divisors.  ``_snf_by_elimination`` below is an independent route: pivot on a
smallest entry, clear its row and column by division, and fold in a row whose
entry the pivot does not divide.  The grid compares the two on every
canonical triangular matrix of small determinant degree; the hypothesis
properties check that unimodular row and column operations on random
nonsingular, non-triangular matrices leave the Smith diagonal unchanged,
and that unimodular row operations leave ``hnf_reduce`` unchanged.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import hnf_reduce

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
FIELDS = {2: C2, 3: C3, 4: C4}


def _snf_by_elimination(ctx, mat):
    """Smith diagonal of a nonsingular matrix by elimination, ascending."""
    n = len(mat)
    m = [list(row) for row in mat]
    pdivmod, psub, pmul = ctx.pdivmod, ctx.psub, ctx.pmul
    diags = []
    for top in range(n):
        while True:
            best = None
            for i in range(top, n):
                for j in range(top, n):
                    e = m[i][j]
                    if e and (best is None or len(e) < len(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise ValueError("matrix is singular")
            bi, bj = best
            if bi != top:
                m[top], m[bi] = m[bi], m[top]
            if bj != top:
                for row in m:
                    row[top], row[bj] = row[bj], row[top]
            pivot = m[top][top]
            dirty = False
            for i in range(top + 1, n):
                if m[i][top]:
                    q, r = pdivmod(m[i][top], pivot)
                    for c in range(top, n):
                        if m[top][c]:
                            m[i][c] = psub(m[i][c], pmul(q, m[top][c]))
                    if r:
                        dirty = True
            if dirty:
                continue
            for j in range(top + 1, n):
                if m[top][j]:
                    q, r = pdivmod(m[top][j], pivot)
                    for i2 in range(top, n):
                        if m[i2][top]:
                            m[i2][j] = psub(m[i2][j], pmul(q, m[i2][top]))
                    if r:
                        dirty = True
            if dirty:
                continue
            # the pivot must divide every remaining entry
            off = next(((i, j) for i in range(top + 1, n) for j in range(top + 1, n)
                        if m[i][j] and pdivmod(m[i][j], pivot)[1]), None)
            if off is None:
                break
            i, _ = off
            for c in range(top, n):
                if m[i][c]:
                    m[top][c] = ctx.padd(m[top][c], m[i][c])
        diags.append(ctx.pmonic(m[top][top]))
    return diags


# (q, n) -> largest determinant degree.  GF(4) in rank 3 stops at degree 2:
# degree 3 alone has 376,805 canonical triangles there.
GRID = {(2, 1): 3, (2, 2): 3, (2, 3): 3, (3, 1): 3, (3, 2): 3, (3, 3): 3,
        (4, 1): 3, (4, 2): 3, (4, 3): 2}


@pytest.mark.parametrize("q,n", sorted(GRID), ids=[f"q{q}n{n}" for q, n in sorted(GRID)])
def test_determinantal_divisors_match_elimination_on_every_triangle(q, n):
    ctx = FIELDS[q]
    seen = 0
    for d in range(GRID[q, n] + 1):
        for g in ctx.monic_tuples(d):
            for diags in heckelat._diag_tuples(ctx, g, n):
                for rows in heckelat._enum_canonical_triangles(ctx, diags):
                    got = heckelat._snf_diagonal(ctx, rows)
                    assert got == _snf_by_elimination(ctx, rows), rows
                    seen += 1
    assert seen == sum(heckelat.phi_count(ctx, g, n)
                       for d in range(GRID[q, n] + 1) for g in ctx.monic_tuples(d))


def test_singular_matrix_is_rejected():
    for mat in ([[()]], [[(1,), (0, 1)], [(1,), (0, 1)]], [[(), ()], [(), (1,)]]):
        with pytest.raises(ValueError):
            heckelat._snf_diagonal(C3, mat)


# ---------------------------------------------------------------------------
# hypothesis: invariance under unimodular operations


def _poly(q, max_deg):
    return st.lists(st.integers(0, q - 1), max_size=max_deg + 1).map(
        lambda cs: FIELDS[q].pvalidate(cs))


@st.composite
def _matrix_case(draw):
    """(ctx, M, ops): a non-triangular n x n matrix, n <= 3, and unimodular
    elementary operations.  An op (kind, i, j, payload) is a swap, a unit
    scaling of line i, or line i plus a polynomial times line j (i != j).
    The few singular draws check that both forms reject them."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    ctx = FIELDS[q]
    n = draw(st.integers(2, 3))
    entry = _poly(q, 2)
    mat = [[draw(entry) for _ in range(n)] for _ in range(n)]
    below = [(i, j) for i in range(n) for j in range(i)]
    i, j = draw(st.sampled_from(below))
    if not mat[i][j]:
        mat[i][j] = draw(_poly(q, 2).filter(bool))
    line = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.just("swap"), line, line, st.just(None)),
        st.tuples(st.just("scale"), line, st.just(0), st.integers(1, q - 1)),
        st.tuples(st.just("add"), line, line, _poly(q, 2)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=8))
    return ctx, mat, ops


def _det(ctx, mat):
    """Determinant by Leibniz expansion, independent of both Smith routes."""
    n = len(mat)
    total = ()
    for perm in itertools.permutations(range(n)):
        term = (1,)
        for i, j in enumerate(perm):
            term = ctx.pmul(term, mat[i][j])
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total = ctx.psub(total, term) if inversions & 1 else ctx.padd(total, term)
    return total


def _row_ops(ctx, mat, ops):
    m = [list(row) for row in mat]
    for kind, i, j, payload in ops:
        if kind == "swap":
            m[i], m[j] = m[j], m[i]
        elif kind == "scale":
            m[i] = [ctx.pscale(e, payload) for e in m[i]]
        elif i != j:
            m[i] = [ctx.padd(a, ctx.pmul(payload, b)) for a, b in zip(m[i], m[j])]
    return m


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


@settings(max_examples=150, deadline=None)
@given(_matrix_case(), st.data())
def test_snf_invariant_under_unimodular_row_and_column_ops(case, data):
    ctx, mat, ops = case
    if not _det(ctx, mat):
        with pytest.raises(ValueError):
            heckelat._snf_diagonal(ctx, mat)
        return
    # column operations of the same kinds, applied to the transpose
    col_ops = data.draw(st.lists(st.sampled_from(ops), max_size=4))
    moved = _transpose(_row_ops(ctx, _transpose(_row_ops(ctx, mat, ops)), col_ops))
    want = heckelat._snf_diagonal(ctx, mat)
    assert want == _snf_by_elimination(ctx, mat)
    assert heckelat._snf_diagonal(ctx, moved) == want


@settings(max_examples=150, deadline=None)
@given(_matrix_case())
def test_hnf_invariant_under_unimodular_row_ops(case):
    ctx, mat, ops = case
    if not _det(ctx, mat):
        with pytest.raises(ValueError):
            hnf_reduce(ctx, mat)
        return
    assert hnf_reduce(ctx, _row_ops(ctx, mat, ops)) == hnf_reduce(ctx, mat)
