"""Class lookups by residue key, against the division route.

``UnitGroup.class_index`` and ``UnitGroup._row`` find residues by Horner's
rule through a step table on residue keys; the reference here is the route
they replaced, ``elements.index(pmod(g, I))``.  The grid is q in {2, 3, 4,
5, 9}, every monic modulus of degree at most 2 and seeded ones of degree 3
and 4 (with (t + 1)^3 among them).  Where q^6 <= 4096 every g of degree at
most 5 is looked up; above that, every g of degree at most deg I, which
takes each step entry with each added digit, and seeded g of degree up to 5.

The Euler product side of ``lseries.euler_dual`` reads the group's step
table and the direct side ``_monic_classes``' own, so a corrupted entry in
either must fail the check, and one in the group's must leave the direct
series as it was; where it sends a prime to a non-unit residue, the failing
record names the prime.  The last test counts divisions: a cold Euler product
makes one ``pmod`` per step entry and per prime below deg I, where a
division per class lookup made 3,678, 885 and 1,053 on its three moduli.
"""

import itertools
import random

import pytest

from ffstick import lseries
from ffstick.fieldcore import FieldCtx, Poly, field_context
from ffstick.groupring import unit_group
from ffstick.lseries import euler_series, stick_context, verify_identities

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


def _moduli(q):
    ctx = field_context(*FIELDS[q])
    rng = random.Random(q)
    out = [f for d in (1, 2) for f in ctx.monic_tuples(d)]
    out += [tuple(rng.randrange(q) for _ in range(d)) + (1,) for d in (3, 4)]
    if q == 3:
        out.append(ctx.pmul((1, 1), ctx.pmul((1, 1), (1, 1))))  # (t + 1)^3
    return out


GRID = [(q, I) for q in FIELDS for I in _moduli(q)]


def _polys(ctx, d):
    """Every polynomial of degree at most d, () included."""
    return [tuple(c) for c in itertools.product(range(ctx.q), repeat=d + 1)]


def _oracle(ctx, G):
    index = {e: i for i, e in enumerate(G.elements)}
    return lambda g: index.get(ctx.pmod(ctx.pvalidate(g), G.I))


@pytest.mark.parametrize("q, I", GRID, ids=[f"q{q}-{''.join(map(str, I))}" for q, I in GRID])
def test_class_index_and_rows_equal_the_division_route(q, I):
    ctx = field_context(*FIELDS[q])
    G = unit_group(ctx, I)
    want = _oracle(ctx, G)
    rng = random.Random(len(I) * 100 + q)
    if q ** 6 <= 4096:
        gs = _polys(ctx, 5)
    else:
        gs = _polys(ctx, len(I) - 1)
        gs += [tuple(rng.randrange(q) for _ in range(rng.randrange(7))) for _ in range(300)]
    for g in gs:
        idx = want(g)
        if idx is None:
            with pytest.raises(ValueError, match="is not a unit"):
                G.class_index(g)
        else:
            assert G.class_index(g) == idx, g
    # every row of a small group, and a seeded few of a large one
    rows = range(G.order) if G.order <= 80 else [0, G.order - 1] + rng.sample(range(G.order), 6)
    for i in rows:
        a = G.elements[i]
        assert G._row(i) == [want(ctx.pmul(a, b)) for b in G.elements], i


def test_class_index_reads_polys_and_refuses_other_fields():
    ctx = field_context(5)
    G = unit_group(ctx, (4, 0, 1))
    g = Poly(ctx, [3, 1, 4, 1, 2])
    assert G.class_index(g) == G.class_index(g.coeffs) == G.elements.index(ctx.pmod(g.coeffs, G.I))
    for zero in ((), Poly(ctx, []), (0, 0)):
        with pytest.raises(ValueError, match="is not a unit"):
            G.class_index(zero)
    with pytest.raises(ValueError, match="is not a unit"):
        G.class_index(Poly(ctx, [1, 1]))  # t + 1 divides t^2 - 1
    with pytest.raises(ValueError, match="different field"):
        G.class_index(Poly(field_context(3), [1, 1]))


def _dual(S):
    (rec,) = [r for r in verify_identities(S) if r["check_id"] == "lseries.euler_dual"]
    return rec


def _corrupt(ctx, G, r, k):
    """Make the group's step entry for residue key r add k to digit 0 of t*r mod I."""
    G._residue_key(())  # builds the step table
    base, row = G._steps[r]
    G._steps[r] = (base, ctx.add_table[ctx.add_table[row[0]][k]])


# (field, modulus, residue key r, digit k, first mismatch): the entry for r
# adds k to digit 0 of t*r mod I.  A bad entry may also send a prime to a
# non-unit (the next test); in these cases every prime lands in a unit
# class, some of them in the wrong one.
GROUP_FAULTS = [
    ((2, 1), (1, 1, 1), 3, 1, 2),
    ((2, 1), (1, 1, 0, 1), 2, 1, 3),
    ((3, 1), (1, 2, 0, 1), 7, 2, 3),
    ((3, 1), (2, 0, 1, 1), 6, 1, 4),
]


@pytest.mark.parametrize("field, I, r, k, first", GROUP_FAULTS)
def test_a_bad_group_step_fails_the_euler_dual_only_on_its_side(field, I, r, k, first):
    ctx = field_context(*field)
    S = stick_context(ctx, I)
    _corrupt(ctx, S.G, r, k)
    rec = _dual(S)
    assert rec["status"] == "fail"
    assert rec["details"]["first_mismatch"] == first
    assert euler_series(S, 6, "direct") == euler_series(stick_context(ctx, I), 6, "direct")


# (field, modulus, how many single-entry corruptions of the group's step
# table send some prime coprime to the modulus to a non-unit residue)
UNCLASSED = [((2, 1), (1, 1, 1), 3), ((3, 1), (1, 0, 1), 18), ((3, 1), (2, 0, 1, 1), 34)]


@pytest.mark.parametrize("field, I, count", UNCLASSED)
def test_a_prime_in_no_unit_class_fails_the_euler_dual_with_a_witness(field, I, count):
    ctx = field_context(*field)
    seen = 0
    for r, k in itertools.product(range(ctx.q ** (len(I) - 1)), range(1, ctx.q)):
        S = stick_context(ctx, I)
        _corrupt(ctx, S.G, r, k)
        try:
            euler_series(S, 6, "euler_product")
            continue
        except lseries.PrimeClassError as exc:
            P = exc.prime
        seen += 1
        assert ctx.is_irreducible(P) and ctx.pgcd(P, I) == (1,)
        with pytest.raises(ValueError, match="is not a unit"):
            S.G.class_index(P)
        S = stick_context(ctx, I)
        _corrupt(ctx, S.G, r, k)
        rec = _dual(S)
        assert rec["status"] == "fail"
        assert rec["details"]["witness"] == {"prime": list(P)}
        assert "first_mismatch" not in rec["details"]
    assert seen == count


@pytest.mark.parametrize("field, I", [
    ((3, 1), (1, 0, 1)), ((5, 1), (4, 0, 1)), ((2, 2), (0, 2, 1)), ((3, 1), (2, 0, 1, 1)),
])
def test_a_bad_direct_step_fails_the_euler_dual(field, I):
    ctx = field_context(*field)
    S = stick_context(ctx, I)
    list(lseries._monic_classes(S, 0))  # builds the route's own step table
    steps = S._cache["residues"]
    steps[1] = (steps[2][0], steps[1][1])  # t*1 mod I given the upper digits of t*2
    rec = _dual(S)
    assert rec["status"] == "fail"
    assert rec["details"]["first_mismatch"] == 1


@pytest.mark.parametrize("field, I, parent", [
    ((5, 1), (4, 0, 1), 3678),
    ((3, 1), (2, 0, 1, 1), 885),
    ((2, 2), (0, 2, 1), 1053),
])
def test_a_cold_euler_product_divides_once_per_step(field, I, parent, monkeypatch):
    # parent: the pdivmod calls when each class lookup divided by I
    ctx = FieldCtx(*field)
    S = stick_context(ctx, I)
    calls = [0]
    real = FieldCtx.pdivmod

    def counting(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(FieldCtx, "pdivmod", counting)
    euler_series(S, 6, "euler_product")
    assert 0 < calls[0] <= 2 * ctx.q ** (len(I) - 1) < parent
