"""Chain operators by type, checked against independent routes.

``t_chain`` and ``d_count`` read one classification of the canonical
coordinate matrices per (field, determinant, rank).  These tests compare
them with the enumerate-then-classify route (``sublattice_enum`` followed by
``quotient_invariants`` against the ambient lattice), with the Hall
polynomial count of cotypes, and bound the Smith form work of one
multiplicativity check.  The chains of a determinant (``chains_with_det``)
are checked against every tuple of divisors.
"""

import itertools
from functools import reduce

import pytest

from ffstick import heckelat
from ffstick.battery import chains_with_det
from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    d_count,
    hecke_mult_verify,
    phi_count,
    quotient_invariants,
    random_sublattice,
    standard_lattice,
    sublattice_enum,
    t_chain,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)


def _monic(ctx, max_deg):
    return [g for d in range(1, max_deg + 1) for g in ctx.monic_tuples(d)]


# (ctx, dets) per rank over fresh contexts, so each test fills their memos
# in its own order; t = (0, 1) appears over every field, so a memo that
# forgot the field would hand one field's matrices to another.
def _regression_grid(n):
    c2, c3, c4 = field_context(2), field_context(3), field_context(2, 2)
    c3_dets = _monic(c3, 2) + [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)]
    if n < 3:
        c4_dets = _monic(c4, 2) + [(0, 0, 0, 1), (0, 1, 1, 1)]
    else:
        c4_dets = [(0, 1), (1, 1), (0, 0, 1), (0, 1, 1)]
    return [(c2, _monic(c2, 3)), (c3, c3_dets), (c4, c4_dets)]


def _seeded_proper_sublattice(ctx, n):
    """The first seeded random_sublattice (max_deg=1) other than A^n."""
    return next(L for L in (random_sublattice(ctx, n, seed, max_deg=1)
                            for seed in itertools.count())
                if not L.is_standard)


def _reference_by_chain(N, g):
    """Sublattices of N with determinant g, grouped by the chain of N / N'."""
    groups = {}
    for Np in sublattice_enum(N, g):
        groups.setdefault(quotient_invariants(Np, N).chain, {})[Np] = 1
    return groups


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_chain_matches_enumerate_then_classify(n):
    for ctx, dets in _regression_grid(n):
        lattices = [standard_lattice(ctx, n), _seeded_proper_sublattice(ctx, n)]
        for g in dets:
            refs = [_reference_by_chain(N, g) for N in lattices]
            assert set(refs[0]) == set(refs[1])
            for chain in refs[0]:
                J = InvariantType(ctx, chain)
                for N, ref in zip(lattices, refs):
                    got = t_chain(J, LatticeSum.of(N))
                    assert got == LatticeSum(ctx, n, ref[chain]), (ctx, g, chain, N)
                # multiplicities and several terms are carried linearly
                mixed = LatticeSum.of(lattices[0], 2) + LatticeSum.of(lattices[1], 3)
                expect = (LatticeSum(ctx, n, refs[0][chain]) * 2
                          + LatticeSum(ctx, n, refs[1][chain]) * 3)
                assert t_chain(J, mixed) == expect
                assert d_count(ctx, J) == len(refs[0][chain])


def _qbinom(n, k, Q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= Q ** (n - i) - 1
        den *= Q ** (i + 1) - 1
    return num // den


def _hall_count(n, lam, Q):
    """Sublattices of cotype lam in a rank n lattice over a discrete valuation
    ring with residue field of size Q (Macdonald, Symmetric Functions and Hall
    Polynomials, Ch. II): prod_i Q^(l'_{i+1} (n - l'_i)) [n - l'_{i+1}
    choose l'_i - l'_{i+1}]_Q with l' the conjugate partition."""
    top = max(lam, default=0)
    conj = [sum(1 for part in lam if part > i) for i in range(top)] + [0]
    total = 1
    for a, b in zip(conj, conj[1:]):
        total *= Q ** (b * (n - a)) * _qbinom(n - b, a - b, Q)
    return total


def _partitions(e, n, cap=None):
    """Partitions of e into at most n parts, as nonincreasing n-tuples."""
    cap = e if cap is None else cap
    if n == 0:
        if e == 0:
            yield ()
        return
    for first in range(min(e, cap), -1, -1):
        for rest in _partitions(e - first, n - 1, first):
            yield (first,) + rest


def _chains_with_counts(ctx, g, n):
    """Every chain of determinant g with its cotype count, prime by prime."""
    _, factors = ctx.pfactor(g)
    per_prime = [
        [(P, lam, _hall_count(n, lam, ctx.q ** (len(P) - 1))) for lam in _partitions(e, n)]
        for P, e in factors
    ]
    for combo in itertools.product(*per_prime):
        chain = [(1,)] * n
        count = 1
        for P, lam, c in combo:
            count *= c
            for k, exp in enumerate(lam):
                for _ in range(exp):
                    chain[k] = ctx.pmul(chain[k], P)
        yield InvariantType(ctx, chain), count


@pytest.mark.parametrize("ctx,max_deg", [(C2, 3), (C3, 3), (C4, 2)],
                         ids=["q2", "q3", "q4"])
def test_d_count_matches_hall_cotype_count(ctx, max_deg):
    for n in (1, 2, 3):
        for g in _monic(ctx, max_deg):
            total = 0
            for chain, expect in _chains_with_counts(ctx, g, n):
                assert d_count(ctx, chain) == expect, (g, n, chain)
                total += expect
            assert total == phi_count(ctx, g, n)


def test_mult_check_classifies_each_matrix_once(monkeypatch):
    calls = []
    real = heckelat._snf_diagonal

    def counting(ctx, mat):
        calls.append(len(mat))
        return real(ctx, mat)

    monkeypatch.setattr(heckelat, "_snf_diagonal", counting)
    n = 2
    cha = InvariantType(C3, [(0, 0, 1), (0, 1)])
    chb = InvariantType(C3, [(1, 1), (1,)])
    dets = [cha.det(), chb.det(), cha.pointwise_mul(chb).det()]
    bound = sum(phi_count(C3, g, n) for g in dets)

    def snf_calls(k):
        ctx = field_context(3)  # equal to C3, with an empty memo
        calls.clear()
        lattices = [standard_lattice(ctx, n)] + [
            random_sublattice(ctx, n, seed, max_deg=1) for seed in range(1, k)
        ]
        assert hecke_mult_verify(ctx, cha, chb, test_lattices=lattices).ok
        return len(calls)

    two = snf_calls(2)
    assert 0 < two <= bound
    assert snf_calls(4) == two


def _brute_force_chains(ctx, g, n):
    """Every n-tuple over the monic divisors of g, in product order, whose
    entries divide in descending order and multiply to g."""
    deg = len(g) - 1
    return [t for t in itertools.product(ctx.monic_divisors(g), repeat=n)
            if sum(map(len, t)) - n == deg
            and not any(ctx.pmod(a, b) for a, b in zip(t, t[1:]))
            and reduce(ctx.pmul, t) == g]


@pytest.mark.parametrize("p,m,max_deg", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 3)],
                         ids=["q2", "q3", "q4", "q5"])
def test_chains_with_det_equals_brute_force_in_order(p, m, max_deg):
    ctx = field_context(p, m)
    for d in range(max_deg + 1):
        for g in ctx.monic_tuples(d):
            for n in range(1, 5):
                got = [c.chain for c in chains_with_det(ctx, g, n)]
                assert got == _brute_force_chains(ctx, g, n), (g, n)


def test_chains_with_det_rejects_empty_chains_and_bad_determinants():
    for n in (0, -1):
        with pytest.raises(ValueError):
            chains_with_det(C3, (0, 1), n)
    for g in ((), (2,), (0, 2)):
        with pytest.raises(ValueError, match="monic"):
            chains_with_det(C3, g, 2)
