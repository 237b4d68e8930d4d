"""The tables derived from a field live in its context's ``memo``.

They die with the context, an equal context starts without them, and only
accepted primes are stored.
"""

import gc
import weakref

import pytest

from ffstick import carlitz, heckelat
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.heckelat import InvariantType, LatticeSum, standard_lattice


def _exercise(ctx):
    """Run every memoizing entry point once on ctx."""
    t = (0, 1)
    s = LatticeSum.of(standard_lattice(ctx, 2))
    carlitz.psi_cyclotomic(ctx, (1, 1, 1))
    heckelat.t_local((1, 1), 1, s)
    heckelat.t_chain(InvariantType(ctx, [t, t]), s)  # t^2 leaves a choice in rank 2
    heckelat.sigma_apply(t, 1, s)
    heckelat.d_count(ctx, [t, t])


def _tags(ctx):
    return {key if isinstance(key, str) else key[0] for key in ctx.memo}


def test_caches_do_not_keep_contexts_alive():
    refs = []
    for _ in range(2):
        ctx = field_context(3, 2)
        _exercise(ctx)
        assert _tags(ctx) == {"diag", "types", "plan", "frames", "packing", "prime", "psi", "phi"}
        refs.append(weakref.ref(ctx))
        del ctx
    gc.collect()
    assert [r() for r in refs] == [None, None]


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
