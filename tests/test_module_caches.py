"""Module-level caches share entries between equal fields but pin no context."""

import gc
import weakref

import pytest

from ffstick import carlitz, heckelat
from ffstick.fieldcore import FieldCtx, field_context


def test_caches_do_not_keep_contexts_alive():
    refs = []
    for _ in range(2):
        ctx = field_context(3, 6)
        carlitz.psi_cyclotomic(ctx, (0, 1))
        heckelat._triangles_by_type(ctx, (0, 1), 2)
        heckelat._validate_prime(ctx, (1, 1))
        heckelat.t_local((0, 1), 1, heckelat.LatticeSum.of(heckelat.standard_lattice(ctx, 2)))
        refs.append(weakref.ref(ctx))
        del ctx
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_equal_fields_share_cache_entries():
    a, b = field_context(2, 2), field_context(2, 2)
    assert carlitz.psi_dense(a, (1, 1, 1)) is carlitz.psi_dense(b, (1, 1, 1))
    assert heckelat._triangles_by_type(a, (0, 0, 1), 2) is heckelat._triangles_by_type(b, (0, 0, 1), 2)
    assert heckelat._packing(a) is heckelat._packing(b)


def test_prime_memo_is_shared_between_equal_fields(monkeypatch):
    a, b = field_context(3, 2), field_context(3, 2)
    heckelat._validate_prime(a, (1, 1))
    calls = []
    real = FieldCtx.is_irreducible
    monkeypatch.setattr(FieldCtx, "is_irreducible", lambda self, f: calls.append(f) or real(self, f))
    assert heckelat._validate_prime(b, (1, 1)) == (1, 1)
    assert calls == []
    assert all(isinstance(e, (int, tuple)) for key in heckelat._PRIMES for e in key)


@pytest.mark.parametrize("x", [(0, 0, 1), (1, 2), (), (2, 0, 1)],
                         ids=["reducible", "non-monic", "zero", "reducible-quadratic"])
def test_rejected_primes_are_rejected_on_every_call(x):
    ctx = field_context(3)
    for _ in range(3):
        with pytest.raises(ValueError, match="monic irreducible"):
            heckelat._validate_prime(ctx, x)
        with pytest.raises(ValueError, match="monic irreducible"):
            heckelat.t_local(x, 1, heckelat.LatticeSum.of(heckelat.standard_lattice(ctx, 2)))
    assert (ctx.p, ctx.m, ctx.modulus, x) not in heckelat._PRIMES
