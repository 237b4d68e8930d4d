"""The grouped series routes against the straightforward ones.

``euler_series(method="euler_product")`` groups the primes by (degree,
class) and multiplies in (1 - [g] z^d)^(-n) once per group; here it is
compared with the expansion one prime at a time.  ``galois_act`` stops at
the last nonzero coefficient; here it is compared with the substitution
that runs over every power below the algebra's dimension.  The lattice
route of ``phi_series`` reads histograms shared by all its calls on one
StickCtx; here its result must not depend on the order of the calls.
"""

import random

import pytest

from ffstick.carlitz import AlgElem, RatFunc, TorsionAlgebra, galois_act, torsion_poly
from ffstick.fieldcore import field_context
from ffstick.groupring import GroupRingElem, UnitGroup
from ffstick.lseries import euler_series, phi_series, stick_context, verify_identities

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
C5 = field_context(5)


def _per_prime_product(S, M):
    """The Euler product expanded one prime and one power at a time."""
    ctx, G, I = S.ctx, S.G, S.I
    coeffs = [GroupRingElem.integer(G, 1)] + [GroupRingElem.zero(G)] * M
    for dP in range(1, M + 1):
        for P in ctx.monic_irreducibles(dP):
            if not ctx.pmod(I, P):
                continue  # P divides the modulus
            idx = G.class_index(P)
            new = list(coeffs)
            for m in range(dP, M + 1):
                acc, power = coeffs[m], 0
                for k in range(1, m // dP + 1):
                    power = G.mul(power, idx)  # [P]^k
                    acc = acc + coeffs[m - k * dP] * GroupRingElem(G, {power: 1})
                new[m] = acc
            coeffs = new
    return tuple(coeffs)


def _split(ctx, roots):
    I = (1,)
    for a in roots:
        I = ctx.pmul(I, (ctx.neg_table[a], 1))
    return I


# (field, modulus, order): split, irreducible and non-squarefree moduli
MODULI = [
    (C2, (0, 1, 1), 6), (C2, (1, 1, 1), 6), (C2, (1, 1, 0, 1), 6), (C2, (0, 0, 1, 1), 6),
    (C3, _split(C3, (0, 1)), 6), (C3, (1, 0, 1), 6), (C3, (1, 0, 2, 0, 1), 6),
    (C3, (1, 2, 0, 1), 5),
    (C4, _split(C4, (1, 2)), 5), (C4, next(iter(C4.monic_irreducibles(2))), 5),
    (C4, (0, 0, 1), 4),
    (C5, _split(C5, (1, 4)), 4), (C5, (2, 0, 1), 4),
]


@pytest.mark.parametrize("ctx, I, M", MODULI)
def test_grouped_euler_product_equals_the_per_prime_expansion(ctx, I, M):
    S = stick_context(ctx, I)
    grouped = euler_series(S, M, method="euler_product")
    assert grouped == _per_prime_product(stick_context(ctx, I), M)
    assert grouped == euler_series(S, M, method="direct")
    for m in range(M + 1):
        assert euler_series(stick_context(ctx, I), m, method="euler_product") == grouped[: m + 1]


@pytest.mark.parametrize("ctx, I, P", [
    (C3, (1, 0, 1), (2, 1, 1)),
    (C2, (0, 0, 1, 1), (1, 0, 1, 1)),
    (C5, (4, 0, 1), (2, 1)),
])
def test_a_misfiled_prime_fails_the_euler_dual(ctx, I, P, monkeypatch):
    real = UnitGroup.class_index

    def misfile(self, g):
        idx = real(self, g)
        return (idx + 1) % self.order if tuple(g) == P else idx

    def dual(records):
        (rec,) = [r for r in records if r["check_id"] == "lseries.euler_dual"]
        return rec

    assert dual(verify_identities(stick_context(ctx, I)))["status"] == "pass"
    monkeypatch.setattr(UnitGroup, "class_index", misfile)
    rec = dual(verify_identities(stick_context(ctx, I)))
    assert rec["status"] == "fail"
    assert rec["details"]["first_mismatch"] == len(P) - 1


def _substituted(alg, a, e):
    """e(phi_a(X)) with every power of phi_a(X) below the dimension taken."""
    ctx = alg.ctx
    image_x = torsion_poly(ctx, ctx.pmod(a, alg.I)).eval_elem(alg.x_gen())
    acc, power = alg.zero(), alg.one()
    for i, c in enumerate(e.coeffs):
        if not c.is_zero:
            acc = acc + alg.constant(c) * power
        if i + 1 < len(e.coeffs):
            power = power * image_x
    return acc


def _rand_ratfunc(ctx, rng):
    """A nonzero fraction (a + t) / (b + t)."""
    return RatFunc(ctx, (rng.randrange(ctx.q), 1), (rng.randrange(ctx.q), 1))


@pytest.mark.parametrize("ctx, I", [(C2, (1, 1, 1)), (C3, (0, 2, 1)), (C2, (1, 1, 0, 1)),
                                    (C3, (1, 0, 1))])
def test_galois_action_equals_full_substitution(ctx, I):
    alg = TorsionAlgebra(ctx, I)
    rng = random.Random(ctx.q * 1000 + len(I))
    zero = RatFunc(ctx, ())
    elems = [alg.zero(), alg.one(), alg.x_gen()]
    for top in range(alg.dim):
        # zeros above position top
        elems.append(AlgElem(alg, [_rand_ratfunc(ctx, rng) for _ in range(top + 1)]))
        elems.append(AlgElem(alg, [zero] * top + [_rand_ratfunc(ctx, rng)]))
    units = [ctx.pfrom_key(k) for k in range(1, ctx.q ** 2)]
    for a in [u for u in units if ctx.pgcd(u, I) == (1,)][:4]:
        for e in elems:
            assert galois_act(alg, a, e) == _substituted(alg, a, e)


PHI_CALLS = [(1, 2), (2, 5), (3, 3), (1, 6), (2, 1), (3, 6), (1, 0)]


@pytest.mark.parametrize("ctx, I", [(C2, (1, 1, 0, 1)), (C3, (0, 2, 1)), (C4, (0, 0, 1))])
def test_phi_lattice_route_does_not_depend_on_call_order(ctx, I):
    fresh = {nM: phi_series(stick_context(ctx, I), *nM, method="lattice") for nM in PHI_CALLS}
    for order in (PHI_CALLS, PHI_CALLS[::-1], sorted(PHI_CALLS, key=lambda nM: nM[1])):
        S = stick_context(ctx, I)
        for nM in order:
            assert phi_series(S, *nM, method="lattice") == fresh[nM]
    for nM, series in fresh.items():
        assert series == phi_series(stick_context(ctx, I), *nM, method="generating")


def test_phi_lattice_route_keeps_one_histogram_per_degree():
    S = stick_context(C3, (0, 2, 1))
    phi_series(S, 2, 3, method="lattice")
    assert len(S._cache["shapes"]) == 4
    phi_series(S, 1, 5, method="lattice")
    assert len(S._cache["shapes"]) == 6
    phi_series(S, 3, 2, method="lattice")
    assert len(S._cache["shapes"]) == 6
    assert sum(sum(h.values()) for h in S._cache["shapes"]) == sum(
        c.augmentation() for c in euler_series(S, 5))
