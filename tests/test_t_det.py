"""``t_det`` sums every sublattice of a given determinant.

It serves ``t_local`` (g = x^m) and the chains a determinant forces
(``t_chain`` in rank 1 or for a squarefree g).  These tests compare it with
the sum of ``t_chain`` over every chain of det g, also where g leaves a
choice of chain, and with ``sublattice_enum``.  They check that a forced
chain is neither classified nor planned, that the closed count of a forced
``d_count`` equals the enumerated count without enumerating, that a real
trie of every canonical triangle walks to ``t_det``, and that the walker
and the Smith form leave no reference cycle behind.
"""

import gc
import types

import pytest

from ffstick import heckelat
from ffstick.battery import chains_with_det
from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    d_count,
    phi_count,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_det,
    t_local,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)

# (field, g, rank): t^2 leaves a choice in rank 2, (t + 1)^2 in rank 3;
# t (t^2 + 1) is squarefree over F_3 and forces its chain.
CASES = [
    (C2, (0, 0, 1), 2),
    (C3, (0, 0, 1), 2),
    (C3, C3.pmul((0, 1), (1, 0, 1)), 3),
    (C3, C3.pmul((1, 1), (1, 1)), 3),
]
IDS = ["q2-t^2-n2", "q3-t^2-n2", "q3-t(t^2+1)-n3", "q3-(t+1)^2-n3"]


def _lattices(ctx, n):
    return [standard_lattice(ctx, n)] + [random_sublattice(ctx, n, seed, max_deg=1)
                                        for seed in (1, 2)]


@pytest.mark.parametrize("ctx,g,n", CASES, ids=IDS)
def test_t_det_is_the_sum_of_t_chain_over_every_chain(ctx, g, n):
    chains = chains_with_det(ctx, g, n)
    assert chains
    for N in _lattices(ctx, n):
        s = LatticeSum.of(N, 2)
        total = LatticeSum(ctx, n)
        for chain in chains:
            total = total + t_chain(chain, s)
        assert t_det(g, s) == total, (g, N)


@pytest.mark.parametrize("ctx,g,n", CASES, ids=IDS)
def test_t_det_on_the_standard_lattice_equals_sublattice_enum(ctx, g, n):
    A = standard_lattice(ctx, n)
    expect = LatticeSum(ctx, n, dict.fromkeys(sublattice_enum(A, g), 1))
    assert t_det(g, LatticeSum.of(A)) == expect


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forced_t_chain_neither_classifies_nor_plans(n):
    ctx = field_context(3)  # an empty memo
    g = ctx.pmul((1, 0, 1), (1, 1))  # (t^2 + 1)(t + 1)
    s = LatticeSum.of(random_sublattice(ctx, n, 1, max_deg=1))
    got = t_chain(InvariantType(ctx, [g] + [(1,)] * (n - 1)), s)
    assert not [key for key in ctx.memo if key[0] in ("types", "plan")]
    assert got == t_det(g, s)


def _squarefree_cells():
    for ctx in (C2, C3, C4):
        for n in (1, 2, 3):
            # GF(4) in rank 3 stops at degree 2, as in the forced-chain tests
            for d in range((2 if ctx is C4 and n == 3 else 3) + 1):
                for g in ctx.monic_tuples(d):
                    if all(e == 1 for _, e in ctx.pfactor(g)[1]):
                        yield ctx, g, n


def test_forced_d_count_is_closed_and_equals_the_enumerated_count(monkeypatch):
    cells = list(_squarefree_cells())
    expect = [len(sublattice_enum(standard_lattice(ctx, n), g)) for ctx, g, n in cells]
    calls = []
    real = heckelat._enum_canonical_triangles

    def counting(ctx, diags):
        calls.append(diags)
        return real(ctx, diags)

    monkeypatch.setattr(heckelat, "_enum_canonical_triangles", counting)
    fresh = {ctx.q: field_context(ctx.p, ctx.m) for ctx in (C2, C3, C4)}  # empty memos
    got = [d_count(fresh[ctx.q], [g] + [(1,)] * (n - 1)) for ctx, g, n in cells]
    assert calls == []
    assert got == expect
    assert {ctx.q for ctx, _, _ in cells} == {2, 3, 4}


@pytest.mark.parametrize("g", [(0, 2), (), (0, 0), (2,)])
def test_t_det_rejects_a_determinant_that_is_not_monic_or_is_zero(g):
    with pytest.raises(ValueError, match="monic and nonzero"):
        t_det(g, LatticeSum.of(standard_lattice(C3, 2)))


def test_operators_leave_no_closure_cycles():
    # t_det walks tries of None, sigma_apply and an unforced t_chain real
    # tries, all through _plan_sum and _row0_frames
    s = LatticeSum.of(random_sublattice(C3, 3, 1, max_deg=1))
    s2 = LatticeSum.of(random_sublattice(C3, 2, 1, max_deg=1))
    chain = InvariantType(C3, [(0, 0, 1), (1,)])  # t^2 leaves a choice in rank 2
    assert not heckelat._forced(C3, chain.det(), 2)
    mat = [[(0, 1), (1,), (2, 1)], [(), (0, 0, 1), (1,)], [(), (), (1, 1)]]
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        t_local((0, 1), 2, s)
        t_det(C3.pmul((0, 1), (1, 1)), s)
        sigma_apply((1, 0, 1), 1, s)
        t_chain(chain, s2)
        heckelat._snf_diagonal(C3, mat)
        gc.collect()
        left = sorted({f.__qualname__ for f in gc.garbage
                       if isinstance(f, types.FunctionType)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    assert [name for name in left
            if name.startswith(("_plan_sum.", "_row0_frames.", "_snf_diagonal."))] == []


# (p, m, squarefree g, g with a square factor): t (t + 1) and t^2 (t + 1)
# over F_2, t (t^2 + 1) and (t + 1)^2 over F_3, t (t + 1) and t^2 over F_4
WALKER_FIELDS = [
    (2, 1, (0, 1, 1), (0, 0, 1, 1)),
    (3, 1, (0, 1, 0, 1), (1, 2, 1)),
    (2, 2, (0, 1, 1), (0, 0, 1)),
]
WALKER_CELLS = [(p, m, g, n) for p, m, *gs in WALKER_FIELDS for g in gs for n in (1, 2, 3)]


def _every_triangle_plan(ctx, g, n):
    """Real tries over every canonical triangle of det g, memoized under a
    key no chain takes."""
    return heckelat._plan(ctx, ("every", g, n), lambda: (
        C for diags in heckelat._diag_tuples(ctx, g, n)
        for C in heckelat._enum_canonical_triangles(ctx, diags)))


def _leaves(node) -> int:
    return 1 if node is None else sum(map(_leaves, node[1].values()))


@pytest.mark.parametrize("p,m,g,n", WALKER_CELLS,
                         ids=[f"q{p ** m}-{''.join(map(str, g))}-n{n}"
                              for p, m, g, n in WALKER_CELLS])
def test_a_real_trie_of_every_triangle_walks_to_t_det(p, m, g, n):
    ctx = field_context(p, m)  # an empty memo
    plan = _every_triangle_plan(ctx, g, n)
    assert set(plan) == set(heckelat._diag_tuples(ctx, g, n))
    assert n == 1 or None not in plan.values()
    assert sum(map(_leaves, plan.values())) == phi_count(ctx, g, n)
    # a last diagonal entry of degree >= 1 makes the residue classes mod d
    # of t_det's path nontrivial
    proper = [L for L in (random_sublattice(ctx, n, seed, max_deg=2) for seed in range(40))
              if len(L.rows[-1][-1]) > 1][:2]
    assert len(proper) == 2
    for N in [standard_lattice(ctx, n)] + proper:
        s = LatticeSum.of(N, 3)
        assert heckelat._plan_sum(s, plan) == t_det(g, s), N
