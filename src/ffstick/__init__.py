"""Exact-arithmetic workbench for function field L-series coefficients,
Hecke operators on F_q[t]-lattices, and Carlitz torsion algebras.

Layers, from the ground up:

* ``fieldcore``: finite fields F_q (q a prime power), polynomial arithmetic
  and factorization over them;
* ``groupring``: the unit group of F_q[t]/I, its integral group ring and
  the central-symbol polynomial ring over it;
* ``heckelat``: canonical triangular bases for full rank sublattices of
  A^n, sublattice enumeration and counting, and the Hecke operators with
  their Newton-type and multiplicativity checks;
* ``lseries``: the coprime-class power series over Z[G_I], Stickelberger
  style elements Theta_n, and their identity battery;
* ``carlitz``: the Carlitz module, cyclotomic torsion factors Psi_I, the
  torsion algebra over F_q(t), and the tensor square split element;
* ``report``: check records and the deterministic JSON report document;
* ``battery``: one definition per check family (its check ids, anchors and
  records), shared by the subcommands and the ``verify-all`` grid;
* ``cli``: the ``ffstick`` command line surface, argument parsing and one
  thin handler per subcommand.

Everything computes over Z or F_q exactly; no floats appear anywhere.
"""

__version__ = "0.1.0"  # set first: submodules import ``report``, which reads it

from .fieldcore import (
    FieldCtx,
    Poly,
    field_context,
)
from .groupring import (
    FrobPoly,
    GroupRingElem,
    UnitGroup,
    norm_element,
    norm_residue,
    unit_group,
)
from .heckelat import (
    InvariantType,
    Lattice,
    LatticeSum,
    alternating_qbinom_sum,
    d_count,
    gauss_binom,
    hecke_mult_verify,
    hnf_reduce,
    newton_verify,
    phi_count,
    quotient_invariants,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_det,
    t_local,
)
from .lseries import (
    GrSeries,
    StickCtx,
    euler_series,
    phi_series,
    stick_context,
    stickelberger_q,
    theta1,
    theta_n,
    theta_noinf,
    verify_identities,
)
from .carlitz import (
    RatFunc,
    SkewPoly,
    TorsionAlgebra,
    carlitz_map,
    galois_act,
    partial_fractions,
    psi_cyclotomic,
    split_tensor_element,
    torsion_poly,
)

__all__ = [
    "__version__",
    # fieldcore
    "FieldCtx", "Poly", "field_context",
    # groupring
    "FrobPoly", "GroupRingElem", "UnitGroup", "norm_element", "norm_residue",
    "unit_group",
    # heckelat
    "InvariantType", "Lattice", "LatticeSum", "alternating_qbinom_sum",
    "d_count", "gauss_binom", "hecke_mult_verify", "hnf_reduce",
    "newton_verify", "phi_count", "quotient_invariants", "random_sublattice",
    "sigma_apply", "standard_lattice", "sublattice_enum", "t_chain", "t_det",
    "t_local",
    # lseries
    "GrSeries", "StickCtx", "euler_series", "phi_series",
    "stick_context", "stickelberger_q", "theta1", "theta_n", "theta_noinf",
    "verify_identities",
    # carlitz
    "RatFunc", "SkewPoly", "TorsionAlgebra", "carlitz_map", "galois_act",
    "partial_fractions", "psi_cyclotomic", "split_tensor_element",
    "torsion_poly",
]
