"""The walk of rows 1, ..., n - 1 is memoized per field, and a memoized walk
gives what a fresh one gives.

``_plan_sum`` keeps the frames of ``_row0_frames`` on the context's memo,
keyed by a group's rows 1, ..., n - 1, the tail of C's diagonal and the
trie: None for ``t_det``'s every C, a real trie by its id, which the entry
holds so that no other trie can take it.  Each operator is applied, in an
interleaved order of m and j and twice over, on one context, and each
result must equal the same operator on a fresh context.  The sums are
sigma_1 N + 3 sigma_2 N - sigma_1 N', whose terms share rows, so a warm
walk is read by several groups, operators and diagonals.  In rank 2 or more,
``t_det(x^2)`` walks diagonal (x, x) under None and an unforced ``t_chain``
of det x^2 under a real trie, over the same rows and tail: the two entries
must stay apart.
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
    t_chain,
    t_det,
    t_local,
)

# (p, m, x a linear prime, squarefree g of degree 2)
FIELDS = {2: (2, 1, (0, 1), (0, 1, 1)), 3: (3, 1, (1, 1), (0, 1, 1)), 4: (2, 2, (0, 1), (0, 1, 1))}
CELLS = [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)]


def _inputs(ctx, q, n):
    """The sums, and the operators by name, in the interleaved order."""
    _, _, x, g = FIELDS[q]
    N = standard_lattice(ctx, n)
    other = next(L for seed in range(1, 40)
                 if not (L := random_sublattice(ctx, n, seed, max_deg=1)).is_standard)
    base = LatticeSum.of(N)
    sums = [base,
            sigma_apply(x, 1, base) + sigma_apply(x, min(2, n), base) * 3
            - sigma_apply(x, 1, LatticeSum.of(other))]
    x2 = ctx.pmul(x, x)
    ops = [
        ("t_local-1", lambda s: t_local(x, 1, s)),
        ("sigma-1", lambda s: sigma_apply(x, 1, s)),
        ("t_det-x2", lambda s: t_det(x2, s)),
        ("t_local-2", lambda s: t_local(x, 2, s)),
        ("sigma-n", lambda s: sigma_apply(x, n, s)),
        ("t_det-g", lambda s: t_det(g, s)),
    ]
    if n > 1:
        chain = InvariantType(ctx, [x2] + [(1,)] * (n - 1))
        assert not heckelat._forced(ctx, x2, n)
        ops.insert(3, ("t_chain-unforced", lambda s: t_chain(chain, s)))
    return sums, ops


@pytest.mark.parametrize("q,n", CELLS, ids=[f"q{q}-n{n}" for q, n in CELLS])
def test_warm_walks_equal_fresh_ones(q, n):
    p, m, _, _ = FIELDS[q]
    fresh = {}
    for k in range(2):
        for name, _ in _inputs(field_context(p, m), q, n)[1]:
            sums, ops = _inputs(field_context(p, m), q, n)  # an empty memo
            fresh[name, k] = dict(ops)[name](sums[k])
    ctx = field_context(p, m)
    sums, ops = _inputs(ctx, q, n)
    assert n == 1 or len({L.rows[1:] for L in sums[1].terms}) < sums[1].support_size()
    for _ in range(2):
        for name, op in ops:
            for k, s in enumerate(sums):
                got = op(s)
                assert got == fresh[name, k] and not got.is_zero, (name, k)
    assert ctx.memo["frames"]


def _det_and_chain(ctx, n, x2):
    chain = InvariantType(ctx, [x2] + [(1,)] * (n - 1))
    s = LatticeSum.of(standard_lattice(ctx, n))
    return {"t_det": lambda: t_det(x2, s), "t_chain": lambda: t_chain(chain, s)}


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (3, 3), (4, 3)],
                         ids=["q2-n2", "q3-n2", "q3-n3", "q4-n3"])
def test_none_and_real_trie_over_the_same_rows_stay_apart(q, n):
    p, m, x, _ = FIELDS[q]
    x2 = field_context(p, m).pmul(x, x)
    fresh = {name: _det_and_chain(field_context(p, m), n, x2)[name]()
             for name in ("t_det", "t_chain")}
    assert fresh["t_det"] != fresh["t_chain"]
    for order in (("t_det", "t_chain"), ("t_chain", "t_det")):
        ctx = field_context(p, m)
        runs = _det_and_chain(ctx, n, x2)
        for name in order:
            assert runs[name]() == fresh[name], (order, name)
        tails: dict = {}
        for tdiag, low, dtail, trie in ctx.memo["frames"]:
            tails.setdefault((tdiag, low, dtail), set()).add(trie is None)
        assert {True, False} in tails.values()  # a None and a real trie, one rows and tail


def test_a_freed_trie_never_answers_for_another():
    # ad hoc plans of rank 2 over diagonal (1, x), each trie keeping only the
    # C whose entry (0, 1) is the constant c.  The memo keys a trie by its
    # id, and CPython hands a freed list's id to the next list, so each
    # trie must outlive its plan in the memo
    ctx = field_context(3)
    x = (1, 1)
    s = LatticeSum.of(standard_lattice(ctx, 2))
    cs = (0, 1, 2) * 3
    # nothing else makes a list between one plan's walk and the next
    got = [heckelat._plan_sum(s, {((1,), x): [1, {c: None}]}) for c in cs]
    assert [[L.rows[0] for L in t.terms] for t in got] == [
        [((1,), ctx.pvalidate((c,)))] for c in cs]
