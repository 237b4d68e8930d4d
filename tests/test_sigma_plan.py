"""``sigma_apply`` walks a plan written down in closed form.

The sublattices in sigma_j N are those with invariant chain (x, ..., x, 1,
..., 1).  ``sigma_apply`` builds their coordinate matrices directly, while
``t_chain`` classifies every canonical triangular matrix of determinant x^j
by its Smith form.  On each cell the two plans must be equal, and the closed
form must hold gauss_binom(n, j, q^deg x) matrices.
"""

import pytest

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    gauss_binom,
    sigma_apply,
    standard_lattice,
)


def _cells():
    for q in (2, 3, 4):
        ctx = field_context(2, 2) if q == 4 else field_context(q)
        for x in ((0, 1), next(iter(ctx.monic_irreducibles(2)))):
            for n in (1, 2, 3):
                for j in range(1, n + 1):
                    if j * (len(x) - 1) <= (2 if q == 4 and n == 3 else 3):
                        yield ctx, x, n, j


CELLS = list(_cells())


def _leaves(plan) -> int:
    """The number of matrices in a plan: a trie of None (rank 1) holds the
    one matrix of its diagonal, a node [k, kids] the leaves of its kids."""
    def count(node) -> int:
        return 1 if node is None else sum(map(count, node[1].values()))

    return sum(map(count, plan.values()))


def test_grid_has_26_cells():
    assert len(CELLS) == 26


@pytest.mark.parametrize("ctx,x,n,j", CELLS,
                         ids=[f"q{c.q}-deg{len(x) - 1}-n{n}-j{j}" for c, x, n, j in CELLS])
def test_sigma_plan_equals_classified_chain_plan(ctx, x, n, j):
    ctx = field_context(ctx.p, ctx.m)  # an empty memo
    sigma_apply(x, j, LatticeSum.of(standard_lattice(ctx, n)))
    [closed] = [plan for key, plan in ctx.memo.items() if key[0] == "plan"]
    assert _leaves(closed) == gauss_binom(n, j, ctx.q ** (len(x) - 1))

    ctx = field_context(ctx.p, ctx.m)
    chain = InvariantType(ctx, [x] * j + [(1,)] * (n - j))
    assert heckelat._chain_plan(ctx, chain) == closed
