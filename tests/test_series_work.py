"""The series path does each piece of work once.

``phi_series(method="lattice")`` reads per-degree histograms of
(class, factorization shape) kept on the StickCtx, so one
``verify_identities(n_max=3)`` counts each monic coprime to the modulus
once, up to the largest order any of its checks asks for.  The shapes come
from the sieve tables by degree, with no polynomial built or divided:
``_factor_shapes`` makes no ``pdivmod`` or ``pfrom_key`` call, and reads
each degree's cofactor table once.  When every (n, M) call
factored its monics again, the five moduli below made 1,071, 3,224, 287,
2,353 and 1,275 ``sieve_factor`` calls.  When each monic was factored once
by dividing, ``_factor_shapes`` made 768/1,442/1,443
(``sieve_factor``/``pdivmod``/``pfrom_key``) calls at q = 4, 2,500/4,939/4,940
at q = 5, 112/317/318 at q = 2 with the cubic, 1,053/2,790/2,791 at q = 3
and 960/3,215/3,216 at q = 2 with the quartic.

``galois_act`` raises phi_a(X) only to the last nonzero power of e, and
reads phi_a(X) = sum_i c_i X^(q^i) off the algebra's table of X^(q^i), so
on e = X it makes no algebra product.  The table costs deg I - 1 Frobenius
maps when the algebra is built, and no product.  Evaluating phi_a at X by
squaring made 2 products at q = 2, I = t^2 + t + 1, and 3 at q = 3,
I = t^3 + 2t + 1, for a = t, and the loop up to the algebra's dimension 4
and 28.

``euler_series(method="euler_product")`` multiplies in one factor per
(degree, class) on plain dicts and wraps the M + 1 coefficients once: 7
``GroupRingElem`` constructions at M = 6, where a one-term element per
(prime, power) made 13,851 at q = 5, I = t^2 - 1, 1,119 at q = 3,
I = (t^2 + 1)^2 and 96 at q = 2, I = t^2 (t + 1).
"""

import pytest

from ffstick import carlitz, lseries
from ffstick.fieldcore import FieldCtx, field_context
from ffstick.groupring import GroupRingElem
from ffstick.lseries import euler_series, stick_context, verify_identities

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
C5 = field_context(5)


def _counting(monkeypatch, counts, owner, name):
    real = getattr(owner, name)

    def run(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, run)


def _largest_order(d: int, n_max: int) -> int:
    # phi_dual asks for min(6, n d + 2), theta_n and theta_noinf for n d
    return max(max(min(6, n * d + 2), n * d) for n in range(1, n_max + 1))


@pytest.mark.parametrize("ctx, I, parent", [
    (C4, (0, 1, 1), 1071),
    (C5, (4, 0, 1), 3224),
    (C2, (1, 1, 0, 1), 287),
    (C3, (1, 2, 0, 1), 2353),
    (C2, (1, 1, 0, 0, 1), 1275),
])
def test_each_coprime_monic_is_factored_once(ctx, I, parent, monkeypatch):
    # parent: the sieve_factor calls when every (n, M) call factored again
    counts: dict = {}
    inside = []
    for name in ("pdivmod", "pfrom_key", "cofactors"):
        real = getattr(FieldCtx, name)

        def run(self, *args, _real=real, _name=name):
            if inside:
                counts[_name] = counts.get(_name, 0) + 1
            return _real(self, *args)

        monkeypatch.setattr(FieldCtx, name, run)
    real_shapes = lseries._factor_shapes

    def shapes(*args):
        inside.append(True)
        try:
            return real_shapes(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(lseries, "_factor_shapes", shapes)
    S = stick_context(ctx, I)
    assert all(r["status"] == "pass" for r in verify_identities(S, n_max=3))
    M = _largest_order(S.d, 3)
    assert counts == {"cofactors": M}  # one read per degree 1..M, nothing else
    coprime = sum(c.augmentation() for c in euler_series(S, M, method="direct"))
    counted = sum(sum(hist.values()) for hist in real_shapes(S, M))
    assert counted == coprime < parent


@pytest.mark.parametrize("ctx, I", [(C2, (1, 1, 1)), (C3, (1, 2, 0, 1)), (C3, (0, 2, 1))])
def test_galois_action_on_x_makes_no_algebra_product(ctx, I, monkeypatch):
    counts: dict = {}
    _counting(monkeypatch, counts, carlitz.AlgElem, "__mul__")
    _counting(monkeypatch, counts, carlitz.AlgElem, "_frob")
    alg = carlitz.TorsionAlgebra(ctx, I)
    assert counts == {"_frob": len(I) - 2}  # X^(q^i) for 0 < i < deg I
    x = alg.x_gen()
    units = [ctx.pfrom_key(k) for k in range(ctx.q, ctx.q ** 3)]
    for a in [u for u in units if ctx.pgcd(u, I) == (1,)][:6]:
        counts.clear()
        image = carlitz.galois_act(alg, a, x)
        assert counts == {}
        assert image == carlitz.torsion_poly(ctx, ctx.pmod(a, I)).eval_elem(x)


@pytest.mark.parametrize("ctx, I", [(C5, (4, 0, 1)), (C3, (1, 0, 2, 0, 1)), (C2, (0, 0, 1, 1))])
def test_euler_product_wraps_each_coefficient_once(ctx, I, monkeypatch):
    M = 6
    counts: dict = {}
    _counting(monkeypatch, counts, GroupRingElem, "__init__")
    euler_series(stick_context(ctx, I), M, method="euler_product")
    assert counts["__init__"] <= M + 1
