"""Series over the group ring, tail law, and the Stickelberger identities."""

import random

import pytest

from ffstick.fieldcore import field_context
from ffstick.groupring import (
    FrobPoly,
    GroupRingElem,
    norm_element,
)
from ffstick.heckelat import phi_count
from ffstick.lseries import (
    euler_series,
    phi_series,
    stick_context,
    stickelberger_q,
    theta1,
    theta_n,
    theta_noinf,
    verify_identities,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
C5 = field_context(5)


def t_tminus1(ctx):
    t = (0, 1)
    return ctx.pmul(t, ctx.psub(t, (1,)))


def test_constant_term_is_one():
    for ctx, I in ((C2, (0, 1)), (C3, (1, 1, 1)), (C4, (0, 1, 1, 1))):
        S = stick_context(ctx, I)
        for method in ("direct", "euler_product"):
            E = euler_series(S, 2, method=method)
            assert E[0] == GroupRingElem.integer(S.G, 1)


def test_degree_one_modulus_over_f2():
    S = stick_context(C2, (0, 1))
    E = euler_series(S, 3)
    # only t+1 is monic linear coprime to t, and t+1 = 1 in the class group
    assert E[1] == GroupRingElem.integer(S.G, 1)
    gammas, tail = stickelberger_q(S)
    assert gammas == (GroupRingElem.integer(S.G, 1),)
    assert tail.passed


def test_quadratic_modulus_series_coefficients():
    S = stick_context(C2, (1, 1, 1))
    E = euler_series(S, 4)
    expected = GroupRingElem.basis(S.G, (0, 1)) + GroupRingElem.basis(S.G, (1, 1))
    assert E[1] == expected
    # degree-2 monics coprime to t^2+t+1 hit every class exactly once
    assert E[2] == norm_element(S.G)
    gammas, tail = stickelberger_q(S)
    assert gammas[0] == GroupRingElem.integer(S.G, 1)
    assert gammas[1] == expected
    assert tail.passed and tail.window == (2, 5)


def test_tail_law_across_sampled_moduli():
    rng = random.Random(2026)
    for ctx in (C2, C3, C4):
        moduli = []
        for d in (1, 2, 3):
            all_monic = list(ctx.monic_tuples(d))
            moduli.extend(all_monic if len(all_monic) <= 4 else rng.sample(all_monic, 4))
        for I in moduli:
            S = stick_context(ctx, I)
            _, tail = stickelberger_q(S, window=3)
            assert tail.passed, (ctx.q, I, tail.violations)


def test_tail_matches_closed_form_directly():
    S = stick_context(C3, (0, 2, 1))
    E = euler_series(S, 5)
    N = norm_element(S.G)
    for m in range(2, 6):
        assert E[m] == N * (3 ** (m - 2))


def test_euler_methods_agree():
    for ctx, I in (
        (C2, (0, 1)),
        (C2, (1, 1, 1)),
        (C2, (0, 1, 1)),
        (C3, (0, 2, 1)),
        (C3, (1, 0, 1)),
        (C4, (1, 1)),
    ):
        S = stick_context(ctx, I)
        assert euler_series(S, 6, "direct") == euler_series(S, 6, "euler_product")


def test_phi_methods_agree():
    for ctx, I in ((C2, (1, 1, 1)), (C3, (0, 2, 1)), (C2, (0, 1))):
        S = stick_context(ctx, I)
        for n in (1, 2, 3):
            M = min(6, n * S.d + 2)
            assert phi_series(S, n, M, "generating") == phi_series(S, n, M, "lattice")


def test_phi_series_rank_one_is_euler_series():
    S = stick_context(C3, (1, 1))
    assert phi_series(S, 1, 5, "generating") == euler_series(S, 5)
    assert phi_series(S, 1, 5, "lattice") == euler_series(S, 5)


def test_phi_series_linear_coefficient_weight():
    # z^1 coefficient in rank 2 weights each class by q + 1
    S = stick_context(C3, t_tminus1(C3))
    c = phi_series(S, 2, M=2, method="lattice")
    E = euler_series(S, 2)
    assert c[1] == E[1] * (3 + 1)


def test_phi_series_augmentation_matches_lattice_counts():
    S = stick_context(C2, (1, 1, 1))
    for n in (1, 2, 3):
        c = phi_series(S, n, M=4, method="generating")
        for m in range(5):
            total = sum(
                phi_count(C2, f, n) for f in C2.monic_tuples(m) if C2.pgcd(f, S.I) == (1,)
            )
            assert c[m].augmentation() == total


def test_theta1_shape_for_split_quadratic():
    # I = t(t-1): theta1(1) = F + sum of the nonzero non-one linear classes
    for ctx in (C3, C4, C5):
        S = stick_context(ctx, t_tminus1(ctx))
        E = euler_series(S, 1)
        expected = FrobPoly(S.G, [E[1], GroupRingElem.integer(S.G, 1)])
        assert theta1(S, 1) == expected


def test_theta1_degenerate_cases():
    S = stick_context(C3, (0, 2, 1))
    assert theta1(S, 0) == FrobPoly.monomial(S.G, 1)
    S1 = stick_context(C3, (2, 1))
    assert theta1(S1, 1) == FrobPoly.constant(GroupRingElem.integer(S1.G, 1))
    with pytest.raises(ValueError):
        theta1(S, -1)


def test_theta_n_rank_one_consistency():
    for ctx, I in ((C2, (1, 1, 1)), (C3, (0, 2, 1))):
        S = stick_context(ctx, I)
        assert theta_n(S, 1) == theta1(S, 1)
        assert theta_n(S, 1, method="lattice") == theta1(S, 1)


def test_theta_n_degree_one_modulus():
    S = stick_context(C3, (0, 1))
    for n in (1, 2, 3):
        assert theta_n(S, n) == FrobPoly.constant(GroupRingElem.integer(S.G, 1))


def test_theta2_product_identity():
    for ctx in (C3, C4, C5):
        q = ctx.q
        S = stick_context(ctx, t_tminus1(ctx))
        lhs = theta_n(S, 2, method="lattice")
        rhs = theta1(S, 1) * theta1(S, q) + FrobPoly.constant(S.norm() * (q * q + 1))
        assert lhs == rhs


def test_factorization_mod_norm_small_grid():
    from ffstick.groupring import norm_residue

    for ctx in (C2, C3):
        for d in (1, 2):
            for I in ctx.monic_tuples(d):
                S = stick_context(ctx, I)
                for n in (1, 2, 3):
                    lhs = theta_n(S, n, method="lattice")
                    rhs = FrobPoly.constant(GroupRingElem.integer(S.G, 1))
                    for j in range(n):
                        rhs = rhs * theta1(S, ctx.q ** j)
                    assert (lhs - rhs).map_coeffs(norm_residue) == FrobPoly.zero(S.G)


def test_telescoping_relation():
    for ctx, I in ((C3, (0, 2, 1)), (C2, (1, 1, 1)), (C2, (0, 1, 1))):
        S = stick_context(ctx, I)
        F = FrobPoly.monomial(S.G, 1)
        one = FrobPoly.constant(GroupRingElem.integer(S.G, 1))
        for n in (1, 2, 3):
            nd = n * S.d
            c = phi_series(S, n, M=nd)
            lhs = (F - one) * theta_noinf(S, n)
            rhs = F * theta_n(S, n) - FrobPoly.constant(sum(c, GroupRingElem.zero(S.G)))
            assert lhs == rhs


def test_noinf_weight_pattern():
    S = stick_context(C3, (0, 2, 1))
    nd = 2 * S.d
    c = phi_series(S, 2, M=nd)
    expected = GroupRingElem.zero(S.G)
    for i in range(nd + 1):
        expected = expected + c[nd - i] * (i + 1)
    assert theta_noinf(S, 2).eval_at_one() == expected


def test_verify_identities_batteries_pass():
    cases = [
        (C3, t_tminus1(C3), 3),
        (C2, (0, 1, 1), 3),  # unit group is trivial here
        (C2, (1, 1, 1), 3),
        (C3, (0, 1), 2),
    ]
    for ctx, I, n_max in cases:
        S = stick_context(ctx, I)
        records = verify_identities(S, n_max=n_max)
        assert records, (ctx.q, I)
        for rec in records:
            assert rec["status"] == "pass", rec
            assert rec["check_id"].startswith("lseries.")
            assert rec["anchor"]


def test_verify_identities_includes_product_check_only_when_applicable():
    ids_a = {r["check_id"] for r in verify_identities(stick_context(C3, t_tminus1(C3)))}
    ids_b = {r["check_id"] for r in verify_identities(stick_context(C3, (1, 0, 1)))}
    assert "lseries.theta2_product" in ids_a
    assert "lseries.theta2_product" not in ids_b


def test_series_are_coefficient_tuples():
    # rank 2 at q = 2: phi(z) = E(z) * E(2z)
    S = stick_context(C2, (1, 1, 1))
    E = euler_series(S, 4)
    phi = phi_series(S, 2, M=4, method="generating")
    for m in range(5):
        expected = sum((E[k] * E[m - k] * 2 ** (m - k) for k in range(m + 1)),
                       GroupRingElem.zero(S.G))
        assert phi[m] == expected
    for series in (E, euler_series(S, 4, "euler_product"), phi,
                   phi_series(S, 2, M=4, method="lattice")):
        assert isinstance(series, tuple) and len(series) == 4 + 1


def test_modulus_validation():
    with pytest.raises(ValueError):
        stick_context(C2, (1,))
    with pytest.raises(ValueError):
        stick_context(C2, ())
    with pytest.raises(ValueError):
        euler_series(stick_context(C2, (0, 1)), -1)
    with pytest.raises(ValueError):
        euler_series(stick_context(C2, (0, 1)), 2, method="sideways")
    for method in ("generating", "lattice"):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            phi_series(stick_context(C2, (0, 1)), 1, M=-1, method=method)
