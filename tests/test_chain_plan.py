"""``t_chain`` applies the kept coordinate matrices from an index plan.

Each N is walked bottom up: the rows of C N below row i are built once for
every C that shares them, and row i is an entry of an affine span over F_q,
so no C is multiplied out and canonicalized on its own.  This test counts
that work and compares the result with the reference route, ``_apply_basis``
on every kept matrix.
"""

from collections import Counter

from ffstick import heckelat
from ffstick.fieldcore import field_context
from ffstick.heckelat import InvariantType, LatticeSum, random_sublattice, t_chain

def test_t_chain_builds_no_matrix_product_and_no_canonical_form(monkeypatch):
    C3 = field_context(3)  # an empty memo
    # entries of degree up to 2, so rows are reduced against every row below
    N = next(L for L in (random_sublattice(C3, 3, seed, max_deg=2) for seed in range(100))
             if all(len(L.rows[i][i]) > 1 for i in range(3)))
    chain = InvariantType(C3, [(0, 1, 1), (0, 1), (1,)])
    calls = Counter()
    for name in ("_apply_basis", "_canonical_rows"):
        real = getattr(heckelat, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(heckelat, name, counting)

    got = t_chain(chain, LatticeSum.of(N, 2))
    assert calls == Counter()

    cmats = heckelat._triangles_by_type(C3, chain.det(), 3)[chain.chain]
    ref = Counter(heckelat._apply_basis(C3, C, N.rows) for C in cmats)
    assert len(ref) == len(cmats) > 50
    assert {L.rows: c for L, c in got.items()} == {rows: 2 * c for rows, c in ref.items()}
