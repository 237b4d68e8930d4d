"""The sieve behind the polynomial layer, against independent routes.

``monic_irreducibles`` reads the irreducibles off a sieve by degree and
``first_factors`` keeps the smallest factor of every monic polynomial; the
references are Gauss's count of monic irreducibles, Rabin's test
(``is_irreducible``) and ``pfactor``.  The direct and lattice series find the
class of each monic polynomial by a residue recursion; the reference is
``UnitGroup.class_index``, which walks the group's own step table (checked
against dividing by the modulus in ``test_class_lookup.py``), with ``pgcd``
for coprimality.  The last tests
count calls, so the per-polynomial routes cannot come back unnoticed.
"""

import pytest

from ffstick import lseries
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.lseries import euler_series, phi_series, stick_context


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def _gauss_count(q, d):
    """Monic irreducibles of degree d over F_q: (1/d) sum_{e|d} mu(e) q^(d/e)."""
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


GAUSS_GRID = [((2, 1), 6), ((3, 1), 6), ((2, 2), 6), ((5, 1), 6),
              ((7, 1), 5), ((2, 3), 5), ((3, 2), 5)]


@pytest.mark.parametrize("field,top", GAUSS_GRID, ids=[f"q{p ** m}" for (p, m), _ in GAUSS_GRID])
def test_sieve_matches_gauss_count(field, top):
    ctx = field_context(*field)
    assert ctx.monic_irreducibles(0) == ()
    for d in range(1, top + 1):
        irr = ctx.monic_irreducibles(d)
        assert len(irr) == _gauss_count(ctx.q, d), d
        assert all(len(f) == d + 1 and f[-1] == 1 for f in irr)
        assert list(irr) == sorted(irr, key=ctx.pkey)


@pytest.mark.parametrize("field,d", [((2, 1), 8), ((3, 1), 6), ((2, 2), 6), ((5, 1), 6), ((3, 2), 4)],
                         ids=["q2d8", "q3d6", "q4d6", "q5d6", "q9d4"])
def test_sieve_equals_rabin_filter(field, d):
    ctx = field_context(*field)
    rabin = tuple(f for f in ctx.monic_tuples(d) if ctx.is_irreducible(f))
    assert ctx.monic_irreducibles(d) == rabin


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_table_factorization_equals_pfactor(field):
    ctx = field_context(*field)
    for d in range(1, 5):
        table = ctx.first_factors(d)
        for i, f in enumerate(ctx.monic_tuples(d)):
            factors = ctx.pfactor(f)[1]
            # the table entry is the first factor in (degree, key) order
            irreducible = factors == [(f, 1)]
            assert table[i] == (0 if irreducible else ctx.pkey(factors[0][0]))


@pytest.mark.parametrize("field,I", [((3, 1), (0, 0, 1)), ((2, 2), (1, 1, 0, 1))],
                         ids=["q3-t^2", "q4-cubic"])
def test_residue_classes_equal_class_index(field, I):
    ctx = field_context(*field)
    S = stick_context(ctx, I)
    G = S.G
    for m, classes in enumerate(lseries._monic_classes(S, 5)):
        monics = list(ctx.monic_tuples(m))
        assert len(classes) == len(monics)
        for f, idx in zip(monics, classes):
            if ctx.pgcd(f, I) == (1,):
                assert idx == G.class_index(f), f
            else:
                assert idx == -1, f


def _count_calls(monkeypatch, name):
    calls = {name: 0}
    original = getattr(FieldCtx, name)

    def counting(self, *args, **kwargs):
        calls[name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FieldCtx, name, counting)
    return calls


def test_sieve_runs_no_rabin_test(monkeypatch):
    ctx = field_context(5)
    calls = _count_calls(monkeypatch, "is_irreducible")
    assert len(ctx.monic_irreducibles(6)) == _gauss_count(5, 6)
    assert calls["is_irreducible"] == 0


def test_lattice_series_factors_no_monic(monkeypatch):
    S = stick_context(field_context(3), (1, 0, 2, 1))
    calls = _count_calls(monkeypatch, "pfactor")
    series = phi_series(S, 2, method="lattice")
    assert calls["pfactor"] <= 1  # at most the modulus itself
    assert series == phi_series(S, 2, method="generating")


def test_direct_series_takes_no_gcd(monkeypatch):
    S = stick_context(field_context(3), (1, 0, 2, 1))  # the unit group is built first
    calls = _count_calls(monkeypatch, "pgcd")
    series = euler_series(S, 6, "direct")
    assert calls["pgcd"] == 0
    assert series == euler_series(S, 6, "euler_product")
