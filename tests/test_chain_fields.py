"""Chain operators, and every entry point taking a polynomial, refuse one
over another field.

A chain's entries are encoded for its own field, so read over another field
they either index out of its tables or name a different polynomial.
``t_chain``, ``d_count``, ``hecke_mult_verify`` and
``InvariantType.pointwise_mul`` compare the fields first.  A ``Poly``
argument goes through ``FieldCtx.pvalidate``, which refuses a ``Poly`` over
another field.
"""

import pytest

from ffstick import carlitz, groupring, heckelat, lseries
from ffstick.fieldcore import Poly, field_context
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


def _sum():
    return LatticeSum.of(standard_lattice(C3, 1))


def _algebra():
    return carlitz.TorsionAlgebra(C3, (0, 1))


def _galois_act(f):
    alg = _algebra()
    return carlitz.galois_act(alg, f, alg.x_gen())


def test_algebra_inputs_over_another_field_are_refused():
    alg = _algebra()
    x = alg.x_gen()
    # t + 1 reads the same over F_2 and F_3, so only the field tells them apart
    assert carlitz.AlgElem(alg, [carlitz.RatFunc(C3, (1, 1))]) == alg.one().scale_poly((1, 1))
    assert carlitz.torsion_poly(C3, (1, 1)).eval_elem(x) == x.scale_poly((1, 1)) + x.pow_int(3)
    with pytest.raises(ValueError, match="over a different field"):
        carlitz.AlgElem(alg, [carlitz.RatFunc(C2, (1, 1))])
    with pytest.raises(ValueError, match="over a different field"):
        carlitz.torsion_poly(C2, (1, 1)).eval_elem(x)


# each entry point called over F_3 with f, a polynomial over another field
_ENTRY_POINTS = {
    "t_det": lambda f: heckelat.t_det(f, _sum()),
    "t_local": lambda f: heckelat.t_local(f, 1, _sum()),
    "sigma_apply": lambda f: heckelat.sigma_apply(f, 1, _sum()),
    "phi_count": lambda f: heckelat.phi_count(C3, f, 2),
    "d_count": lambda f: heckelat.d_count(C3, [f]),
    "InvariantType": lambda f: InvariantType(C3, [f]),
    "hnf_reduce": lambda f: heckelat.hnf_reduce(C3, [[f]]),
    "Lattice.scale": lambda f: standard_lattice(C3, 2).scale(f),
    "Lattice.coords_of": lambda f: standard_lattice(C3, 1).coords_of([f]),
    "sublattice_enum": lambda f: heckelat.sublattice_enum(standard_lattice(C3, 1), f),
    "predict_newton_cost": lambda f: heckelat.predict_newton_cost(C3, f, 2, 2),
    "newton_verify": lambda f: heckelat.newton_verify(C3, f, 1, 1),
    "unit_group": lambda f: groupring.unit_group(C3, f),
    "class_index": lambda f: groupring.unit_group(C3, (0, 1)).class_index(f),
    "GroupRingElem.basis": lambda f: groupring.GroupRingElem.basis(
        groupring.unit_group(C3, (0, 1)), f),
    "stick_context": lambda f: lseries.stick_context(C3, f),
    "RatFunc.num": lambda f: carlitz.RatFunc(C3, f),
    "RatFunc.den": lambda f: carlitz.RatFunc(C3, (1,), f),
    "SkewPoly": lambda f: carlitz.SkewPoly(C3, [f]),
    "carlitz_map": lambda f: carlitz.carlitz_map(C3, f),
    "torsion_poly": lambda f: carlitz.torsion_poly(C3, f),
    "psi_cyclotomic": lambda f: carlitz.psi_cyclotomic(C3, f),
    "TorsionAlgebra": lambda f: carlitz.TorsionAlgebra(C3, f),
    "galois_act": _galois_act,
    "AlgElem.scale_poly": lambda f: _algebra().one().scale_poly(f),
    "partial_fractions": lambda f: carlitz.partial_fractions(C3, f),
    "split_tensor_element": lambda f: carlitz.split_tensor_element(C3, f),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_a_polynomial_over_another_field_is_refused(name):
    call = _ENTRY_POINTS[name]
    # t + 1 has the same coefficients over F_2 and F_3, and over F_3 it is
    # monic, irreducible, split and coprime to t: every call accepts it
    call(Poly(C3, (1, 1)))
    with pytest.raises(ValueError, match="polynomial is over a different field"):
        call(Poly(C2, (1, 1)))
