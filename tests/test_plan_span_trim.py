"""The walk spans each row only as far as the plan's indices reach.

An index below q^k is a combination of the first k generators of a row's
affine span, so the walk builds no longer span than the largest index it
keeps, and a row that keeps no generator is its base alone, with no span.
For sigma_j every x-row keeps index 0 alone.  This test counts the entries
``_affine_span`` returns over sigma_1..sigma_3 at q = 3, x = t^2 + 1 on the
four Newton test lattices of seed 0; spanning every row in full makes
1,724, and spanning the empty rows too (a base and no generator) 956.
"""

from ffstick import heckelat
from ffstick.battery import newton_lattices
from ffstick.fieldcore import field_context
from ffstick.heckelat import LatticeSum, sigma_apply

C3 = field_context(3)
X = (1, 0, 1)


def test_sigma_spans_only_the_kept_indices(monkeypatch):
    lattices = newton_lattices(C3, X, 3, 3, 0, 4)
    sums = {j: [sigma_apply(X, j, LatticeSum.of(N)) for N in lattices] for j in (1, 2, 3)}
    lattices = newton_lattices(field_context(3), X, 3, 3, 0, 4)  # an empty memo

    entries = []
    real = heckelat._affine_span

    def counting(*args):
        out = real(*args)
        entries.append(len(out))
        return out

    monkeypatch.setattr(heckelat, "_affine_span", counting)
    for j in (1, 2, 3):
        assert [sigma_apply(X, j, LatticeSum.of(N)) for N in lattices] == sums[j]
    assert sum(entries) == 828
