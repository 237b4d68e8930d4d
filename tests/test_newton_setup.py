"""The Newton path pays its set-up once per group of terms and tests each prime once.

``t_det`` makes a group's shifted rows once for all its diagonals, and a
level of the walk with no generator takes its base as its one key and row,
with no ``_steps`` or ``_affine_span`` call.  The terms of a sum that share
rows 1, ..., n - 1 share the walk of those rows, and each term then reduces
and spans row 0 alone.  The walk of those rows (``_row0_frames``) reads
only the group's rows, the tail of the diagonal and the trie, so it is
memoized on the field's context by those and runs once per distinct key.
On one Newton cell (q = 3, x = t^2 + 1, n = 3, r = 2, the four Newton test
lattices of seed 0), ``newton_verify`` made 3,516 ``_affine_span`` and
2,344 ``_steps`` calls when every level was spanned, and 25 Rabin tests when
each ``t_local`` and ``sigma_apply`` call tested x again.  Walking every
term and diagonal alone, it made 1,140 walks, 3,216 ``_reduce_row``, 428
``_steps`` and 436 ``_affine_span`` calls.  Grouped, it made 180 walks, one
per group and diagonal of each ``t_local`` and ``sigma_apply`` call, with
1,616 ``_reduce_row`` calls.  With the memo a cold run from a fresh context
makes 84 walks, one per distinct (group rows, diagonal tail, trie), with
1,406 ``_reduce_row`` calls, and a warm rerun makes none.
"""

from ffstick import heckelat
from ffstick.battery import newton_lattices
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.heckelat import LatticeSum, gauss_binom, newton_verify, sigma_apply, t_local

C3 = field_context(3)
X = (1, 0, 1)


def _counting(monkeypatch, counts, owner, name):
    real = getattr(owner, name)

    def run(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(owner, name, run)


def test_newton_cell_spans_only_levels_with_generators(monkeypatch):
    ctx = field_context(3)  # an empty memo
    lattices = newton_lattices(ctx, X, 3, 2, 0, 4)
    counts: dict = {}
    for name in ("_affine_span", "_steps", "_reduce_row", "_row0_frames"):
        _counting(monkeypatch, counts, heckelat, name)
    _counting(monkeypatch, counts, FieldCtx, "is_irreducible")
    pairs, keys = 0, set()
    plan_sum = heckelat._plan_sum

    def grouped(s, plan):
        # a group is the terms with the same canonical rows 1, ..., n - 1;
        # the tries are memoized on ctx, so their ids stay distinct
        nonlocal pairs
        groups = {L.rows[1:] for L in s.terms}
        pairs += len(groups) * len(plan)
        keys.update((rows, diags[1:], None if trie is None else id(trie))
                    for rows in groups for diags, trie in plan.items())
        return plan_sum(s, plan)

    monkeypatch.setattr(heckelat, "_plan_sum", grouped)
    assert newton_verify(ctx, X, 3, 2, test_lattices=lattices).ok
    assert counts["_row0_frames"] == len(keys) == 84 and pairs == 180
    assert counts["_reduce_row"] < 1616 and counts["_steps"] < 428
    assert counts["_affine_span"] <= 436
    assert counts["is_irreducible"] == 1
    counts.clear()
    assert newton_verify(ctx, X, 3, 2, test_lattices=lattices).ok  # warm
    assert pairs == 360 and len(keys) == 84
    assert "_row0_frames" not in counts and "is_irreducible" not in counts
    assert "_steps" not in counts and "_affine_span" not in counts


def test_newton_terms_keep_their_mass():
    # t_local(x, 2 - j) sigma_j N has mass [3 choose j]_Q times the number
    # of colength 2 - j sublattices of a rank 3 lattice, Q = 9
    Q, n = 9, 3
    for N in newton_lattices(C3, X, n, 2, 0, 4):
        base = LatticeSum.of(N)
        for j in range(3):
            term = t_local(X, 2 - j, sigma_apply(X, j, base))
            assert term.total_mass() == gauss_binom(n, j, Q) * heckelat._local_count(Q, n, 2 - j)


def test_each_prime_is_tested_once_per_field(monkeypatch):
    counts: dict = {}
    _counting(monkeypatch, counts, FieldCtx, "is_irreducible")
    base = LatticeSum.of(heckelat.standard_lattice(field_context(3), 2))  # an empty memo
    for _ in range(3):
        t_local(X, 1, sigma_apply(X, 1, base))
    assert counts["is_irreducible"] == 1
    t_local((0, 1), 1, base)
    assert counts["is_irreducible"] == 2
    t_local((0, 1), 1, LatticeSum.of(heckelat.standard_lattice(field_context(2), 2)))
    assert counts["is_irreducible"] == 3  # another field tests t again


def test_scaling_returns_a_fresh_sum():
    # k = 0 and k = 1 skip the multiply but still share no inner dict
    s = t_local(X, 1, LatticeSum.of(heckelat.standard_lattice(C3, 2)))
    held = {id(keys) for keys in s.by_diag.values()}
    for k in (0, 1, -1, 3):
        out = s * k
        assert out is not s and not held & {id(keys) for keys in out.by_diag.values()}
        assert out == LatticeSum(C3, 2, {L: c * k for L, c in s.terms.items()})
    assert (s * 0).is_zero and (s * 0).by_diag == {}


def test_zero_buckets_are_dropped():
    s = t_local(X, 1, LatticeSum.of(heckelat.standard_lattice(C3, 2)))
    t = sigma_apply(X, 1, LatticeSum.of(heckelat.standard_lattice(C3, 2)))
    assert (s - s).by_diag == {}
    assert (s + t) - t == s
    assert all(keys and all(keys.values()) for keys in ((s + t) - t).by_diag.values())
