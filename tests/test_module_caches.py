"""The tables derived from a field live in its context's ``memo``.

They die with the context, by reference counting alone, an equal context
starts without them, a caller cannot corrupt them through what it is
handed, and only accepted primes are stored.
"""

import gc
import weakref

import pytest

from ffstick import carlitz, groupring, heckelat
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.heckelat import InvariantType, LatticeSum, standard_lattice

TAGS = {"diag", "types", "plan", "frames", "packing", "prime", "psi", "phi",
        "factor", "divisors", "units"}


def _exercise(ctx):
    """Run every memoizing entry point once on ctx."""
    t = (0, 1)
    s = LatticeSum.of(standard_lattice(ctx, 2))
    carlitz.psi_cyclotomic(ctx, (1, 1, 1))
    heckelat.t_local((1, 1), 1, s)
    heckelat.t_chain(InvariantType(ctx, [t, t]), s)  # t^2 leaves a choice in rank 2
    heckelat.sigma_apply(t, 1, s)
    heckelat.d_count(ctx, [t, t])
    heckelat.phi_count(ctx, (0, 0, 1), 2)
    G = groupring.unit_group(ctx, (1, 1, 1))
    assert G.order == G.order_by_formula()
    alg = carlitz.TorsionAlgebra(ctx, (1, 1, 1))
    x = alg.x_gen()
    for a in G.elements:
        carlitz.galois_act(alg, a, carlitz.galois_act(alg, a, x))


def _tags(ctx):
    return {key if isinstance(key, str) else key[0] for key in ctx.memo}


def test_caches_do_not_keep_contexts_alive():
    refs = []
    for _ in range(2):
        ctx = field_context(3, 2)
        _exercise(ctx)
        assert _tags(ctx) == TAGS
        refs.append(weakref.ref(ctx))
        del ctx
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_contexts_die_by_reference_counting_alone():
    # no memo value, and no table a torsion algebra keeps, refers back to
    # the context, so no cycle holds it once the last name is gone
    gc.disable()
    try:
        ctx = field_context(3, 2)
        _exercise(ctx)
        assert _tags(ctx) == TAGS
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_what_the_factor_memo_hands_out_cannot_corrupt_it():
    ctx = field_context(3)
    f = ctx.pmul(ctx.pmul((1, 1), (1, 1)), ctx.pmul((1, 1), (2, 1)))  # (t + 1)^3 (t + 2)
    unit, factors = ctx.pfactor(f)
    divisors = ctx.monic_divisors(f)
    assert (unit, factors) == (1, [((1, 1), 3), ((2, 1), 1)]) and len(divisors) == 8
    factors.append(((0, 1), 1))
    factors[0] = ((1, 1), 1)
    divisors.reverse()
    divisors.pop()
    assert ctx.pfactor(f) == (1, [((1, 1), 3), ((2, 1), 1)])
    assert ctx.monic_divisors(f) == sorted(divisors + [(1,)], key=lambda d: (len(d), ctx.pkey(d)))
    # a non-monic f shares the memo of its monic multiple, with its own unit
    assert ctx.pfactor(ctx.pscale(f, 2)) == (2, [((1, 1), 3), ((2, 1), 1)])
    assert ctx.monic_divisors(ctx.pscale(f, 2)) == ctx.monic_divisors(f)


def test_the_unit_tables_never_factor_the_modulus(monkeypatch):
    def refuse(self, f):
        raise AssertionError("pfactor called")

    ctx = field_context(3)
    monkeypatch.setattr(FieldCtx, "pfactor", refuse)
    G = groupring.unit_group(ctx, (0, 2, 1))  # t (t + 2)
    assert G.order == 4 and G.elements == ((1,), (2,), (1, 1), (2, 2))
    monkeypatch.undo()
    assert G.order_by_formula() == 4


def test_an_equal_context_factors_again(monkeypatch):
    calls = []
    real = FieldCtx._factor_monic
    monkeypatch.setattr(FieldCtx, "_factor_monic",
                        lambda self, f: calls.append((self, f)) or real(self, f))
    a, b = field_context(3), field_context(3)
    f = (1, 0, 1, 0, 1)  # t^4 + t^2 + 1 = (t + 1)^2 (t + 2)^2 over F_3
    assert a.pfactor(f) == a.pfactor(f)
    assert [c for c, _ in calls] == [a]
    assert b.pfactor(f) == a.pfactor(f)
    assert [c for c, _ in calls] == [a, b] and calls[1][1] == f
    b.monic_divisors(f)
    assert len(calls) == 2


def test_an_equal_context_starts_with_an_empty_memo(monkeypatch):
    a = field_context(3, 2)
    _exercise(a)
    b = field_context(3, 2)
    assert a == b and a.memo and b.memo == {}
    calls = []
    real = FieldCtx.is_irreducible
    monkeypatch.setattr(FieldCtx, "is_irreducible", lambda self, f: calls.append(self) or real(self, f))
    heckelat._validate_prime(a, (1, 1))
    assert calls == []
    assert heckelat._validate_prime(b, (1, 1)) == (1, 1)
    assert len(calls) == 1 and calls[0] is b
    psi = carlitz.psi_dense(b, (1, 1, 1))
    assert psi == carlitz.psi_dense(a, (1, 1, 1)) and psi is not carlitz.psi_dense(a, (1, 1, 1))


def test_a_rejected_prime_is_never_stored(monkeypatch):
    ctx = field_context(3)
    calls = []
    real = FieldCtx.is_irreducible
    monkeypatch.setattr(FieldCtx, "is_irreducible", lambda self, f: calls.append(f) or real(self, f))
    for _ in range(3):
        with pytest.raises(ValueError, match="monic irreducible"):
            heckelat._validate_prime(ctx, (0, 0, 1))
        assert heckelat._validate_prime(ctx, (1, 1)) == (1, 1)
    assert calls == [(0, 0, 1), (1, 1)] + [(0, 0, 1)] * 2
    assert [key for key in ctx.memo if key[0] == "prime"] == [("prime", (1, 1))]


@pytest.mark.parametrize("x", [(0, 0, 1), (1, 2), (), (2, 0, 1)],
                         ids=["reducible", "non-monic", "zero", "reducible-quadratic"])
def test_rejected_primes_are_rejected_on_every_call(x):
    ctx = field_context(3)
    for _ in range(3):
        with pytest.raises(ValueError, match="monic irreducible"):
            heckelat._validate_prime(ctx, x)
        with pytest.raises(ValueError, match="monic irreducible"):
            heckelat.t_local(x, 1, heckelat.LatticeSum.of(heckelat.standard_lattice(ctx, 2)))
    assert ("prime", x) not in ctx.memo
