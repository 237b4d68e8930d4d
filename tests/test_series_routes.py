"""Each side of the telescoping and coefficient-pattern checks has its own route.

The left side of ``lseries.telescope_relation`` and ``got`` of
``lseries.coefficient_pattern`` come from the generating route; the right
side and ``expected`` come from the lattice count route.  Corrupting one
coefficient of the lattice route must therefore fail both records.
"""

import pytest

from ffstick import lseries
from ffstick.fieldcore import field_context
from ffstick.groupring import GroupRingElem
from ffstick.lseries import stick_context, verify_identities

phi_series = lseries.phi_series


def _perturbed_lattice_route(S, n, M=None, method="generating"):
    out = phi_series(S, n, M, method)
    if method != "lattice":
        return out
    return out[:-1] + (out[-1] + GroupRingElem.integer(S.G, 1),)


def _status(records, check_id):
    (record,) = [r for r in records if r["check_id"] == check_id]
    return record["status"]


@pytest.mark.parametrize("check_id", ["lseries.telescope_relation", "lseries.coefficient_pattern"])
def test_check_fails_when_the_lattice_route_is_corrupted(check_id, monkeypatch):
    I = (1, 0, 2, 1)
    assert _status(verify_identities(stick_context(field_context(3), I), n_max=2), check_id) == "pass"
    monkeypatch.setattr(lseries, "phi_series", _perturbed_lattice_route)
    records = verify_identities(stick_context(field_context(3), I), n_max=2)
    assert _status(records, check_id) == "fail"
