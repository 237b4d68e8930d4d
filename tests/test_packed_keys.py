"""Lattice sums keyed by one packed int per lattice, given its diagonal.

The off diagonal entries of a canonical basis are packed as F_p digits in
w-bit slots (``heckelat._Packing``): XOR for p = 2, a SWAR add-and-correct
for odd p.  These tests check the packed addition and the pack / unpack round
trip against ``padd``, run ``t_local`` and ``sigma_apply`` against
``sublattice_enum`` at q = 5 (w = 4) and q = 9 (p^m with odd p), check that
the constructor packs like the operators, and count the row reductions of
``t_local``: the rows below row i are built once per residue class of row
i's last entry, not once per class element.
"""

import itertools
import random

import pytest

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    quotient_invariants,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_local,
)

FIELDS = {q: field_context(p, m) for q, (p, m) in
          {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}.items()}


def _random_row(ctx, rng, n, i, tdegs):
    """A row vector zero before column i, entry j below degree tdegs[j - i - 1]."""
    row = [()] * n
    for j in range(i + 1, n):
        row[j] = ctx.pvalidate([rng.randrange(ctx.q) for _ in range(tdegs[j - i - 1])])
    return row


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_packed_add_matches_padd(q):
    ctx = FIELDS[q]
    pk = heckelat._packing(ctx)
    rng = random.Random(q)
    for _ in range(200):
        n = rng.randrange(2, 5)
        i = rng.randrange(n - 1)
        tdegs = tuple(rng.randrange(4) for _ in range(n - 1 - i))
        offs, add = pk.row_layout(tdegs)
        a, b = (_random_row(ctx, rng, n, i, tdegs) for _ in range(2))
        total = [ctx.padd(x, y) for x, y in zip(a, b)]
        assert add(pk.pack(a, offs), pk.pack(b, offs)) == pk.pack(total, offs)
        # p copies of a vector add up to zero
        key = acc = pk.pack(a, offs)
        for _ in range(ctx.p - 1):
            acc = add(acc, key)
        assert acc == 0


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_pack_unpack_round_trip(q):
    ctx = FIELDS[q]
    pk = heckelat._packing(ctx)
    for n in (1, 2, 3, 4):
        for seed in range(12):
            L = random_sublattice(ctx, n, seed, max_deg=2)
            diag, key = pk.key_of(L.rows)
            assert diag == tuple(L.rows[i][i] for i in range(n))
            assert pk.rows(diag, key) == L.rows
            assert [(M.rows, c) for M, c in LatticeSum.of(L).items()] == [(L.rows, 1)]


def _power(ctx, x, m):
    out = (1,)
    for _ in range(m):
        out = ctx.pmul(out, x)
    return out


def _colength_count(Q, n, m):
    series = [1] + [0] * m
    for j in range(n):
        for k in range(1, m + 1):
            series[k] += Q ** j * series[k - 1]
    return series[m]


def _test_lattices(ctx, n):
    """A^n and seeded sublattices with a last diagonal entry of positive
    degree, so the residue classes of the last column are proper."""
    out = [standard_lattice(ctx, n)]
    seed = 0
    while len(out) < 3 and n > 1:
        L = random_sublattice(ctx, n, seed, max_deg=1)
        if len(L.rows[-1][-1]) > 1 and L not in out:
            out.append(L)
        seed += 1
    return out


@pytest.mark.parametrize("q", [5, 9])
def test_t_local_and_sigma_apply_match_sublattice_enum(q):
    ctx = FIELDS[q]
    x = ctx.monic_irreducibles(1)[-1]
    Q = ctx.q
    for n in (1, 2, 3):
        for N in _test_lattices(ctx, n):
            for m in range(3):
                if _colength_count(Q, n, m) > 400:
                    continue
                enum = sublattice_enum(N, _power(ctx, x, m))
                got = t_local(x, m, LatticeSum.of(N))
                assert got == LatticeSum(ctx, n, {M: 1 for M in enum}), (q, n, m, N)
                assert got.total_mass() == len(enum) == _colength_count(Q, n, m)
            for j in range(n + 1):
                if _colength_count(Q, n, j) > 400:
                    continue
                chain = (x,) * j + ((1,),) * (n - j)
                expect = {M: 1 for M in sublattice_enum(N, _power(ctx, x, j))
                          if quotient_invariants(M, N).chain == chain}
                assert sigma_apply(x, j, LatticeSum.of(N)) == LatticeSum(ctx, n, expect), \
                    (q, n, j, N)


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_constructor_packs_like_the_operators(q):
    ctx = FIELDS[q]
    x = ctx.monic_irreducibles(1)[0]
    n = 3
    for N in _test_lattices(ctx, n):
        base = LatticeSum.of(N)
        outs = [t_local(x, 1, base), sigma_apply(x, 2, base),
                t_chain(InvariantType(ctx, [_power(ctx, x, 2), (1,), (1,)]), base)]
        if q <= 3:
            outs.append(t_local(x, 2, sigma_apply(x, 1, base)))
        for s in outs:
            assert s.support_size() > 1
            assert LatticeSum(ctx, n, dict(s.terms)) == s
            assert LatticeSum(ctx, n, dict(s.terms)).by_diag == s.by_diag


def _compositions(m, n):
    """Ordered tuples of n nonnegative integers summing to m."""
    return [c for c in itertools.product(range(m + 1), repeat=n) if sum(c) == m]


def _shared_reductions(q, deg_x, n, m):
    """``_reduce_row`` calls of t_local(x, m, N) when the rows below row i
    are built once per span element of row i (a head with its residue mod
    d): row n-1 once per composition c, and row i < n-1 once for its base
    and each of its sum_{i<j<n-1} c_j deg x generators, per choice of the
    span elements of rows i+1, ..., n-2.  ``per_element`` multiplies
    each such choice by the q^(c_{n-1} deg x) elements of every class."""
    shared = per_element = 0
    for c in _compositions(m, n):
        gens = [deg_x * sum(c[i + 1:n - 1]) for i in range(n)]
        cls = q ** (deg_x * c[n - 1])
        shared += 1
        per_element += 1
        for i in range(n - 1):
            tails = 1
            for k in range(i + 1, n - 1):
                tails *= q ** gens[k]
            shared += (1 + gens[i]) * tails
            per_element += (1 + gens[i]) * tails * cls ** (n - 2 - i)
    return shared, per_element


@pytest.mark.parametrize("ctx,x", [(FIELDS[2], (1, 1, 1)), (FIELDS[3], (1, 1))],
                         ids=["q2-quadratic", "q3-linear"])
def test_t_local_reduces_once_per_residue_class(ctx, x, monkeypatch):
    N = next(L for L in (random_sublattice(ctx, 3, seed, max_deg=1) for seed in range(100))
             if len(L.rows[2][2]) > 1)
    s = LatticeSum.of(N)
    calls = 0
    reduce_row = heckelat._reduce_row

    def counting(*args):
        nonlocal calls
        calls += 1
        return reduce_row(*args)

    monkeypatch.setattr(heckelat, "_reduce_row", counting)
    out = t_local(x, 3, s)
    shared, per_element = _shared_reductions(ctx.q, len(x) - 1, 3, 3)
    assert out.total_mass() == _colength_count(ctx.q ** (len(x) - 1), 3, 3)
    assert calls <= shared < per_element
