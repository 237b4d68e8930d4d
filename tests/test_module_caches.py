"""Module-level caches share entries between equal fields but pin no context."""

import gc
import weakref

from ffstick import carlitz, heckelat
from ffstick.fieldcore import field_context


def test_caches_do_not_keep_contexts_alive():
    refs = []
    for _ in range(2):
        ctx = field_context(3, 6)
        carlitz.psi_cyclotomic(ctx, (0, 1))
        heckelat._triangles_by_type(ctx, (0, 1), 2)
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
