"""Chain operators refuse a chain over another field.

A chain's entries are encoded for its own field, so read over another field
they either index out of its tables or name a different polynomial.
``t_chain``, ``d_count``, ``hecke_mult_verify`` and
``InvariantType.pointwise_mul`` compare the fields first.
"""

import pytest

from ffstick.fieldcore import field_context
from ffstick.heckelat import (
    InvariantType,
    LatticeSum,
    d_count,
    hecke_mult_verify,
    standard_lattice,
    t_chain,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)


def test_t_chain_rejects_a_chain_over_another_field():
    with pytest.raises(ValueError, match="different fields"):
        t_chain(InvariantType(C3, [(2, 1)]), LatticeSum.of(standard_lattice(C2, 1)))
    with pytest.raises(ValueError, match="different fields"):
        t_chain(InvariantType(C4, [(2, 1)]), LatticeSum.of(standard_lattice(C3, 1)))


def test_d_count_rejects_a_chain_over_another_field():
    with pytest.raises(ValueError, match="different field"):
        d_count(C2, InvariantType(C3, [(2, 1)]))
    assert d_count(C3, InvariantType(C3, [(2, 1)])) == 1


def test_hecke_mult_verify_rejects_chains_over_another_field():
    a, b = InvariantType(C4, [(0, 1)]), InvariantType(C4, [(1, 1)])
    assert hecke_mult_verify(C4, a, b).ok
    with pytest.raises(ValueError, match="different field"):
        hecke_mult_verify(C3, a, b)
    with pytest.raises(ValueError, match="different field"):
        hecke_mult_verify(C3, InvariantType(C3, [(0, 1)]), b)


def test_pointwise_mul_rejects_a_chain_over_another_field():
    a, b = InvariantType(C3, [(1, 1)]), InvariantType(C4, [(2, 1)])
    with pytest.raises(ValueError, match="different fields"):
        a.pointwise_mul(b)
    with pytest.raises(ValueError, match="different fields"):
        b.pointwise_mul(a)
