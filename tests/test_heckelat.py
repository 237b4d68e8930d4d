"""Lattice canonical forms, counting, and Hecke operator identities."""

import random
from fractions import Fraction

import pytest

from ffstick import heckelat
from ffstick.fieldcore import field_context, Poly
from ffstick.heckelat import (
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
    predict_newton_cost,
    quotient_invariants,
    random_sublattice,
    sigma_apply,
    standard_lattice,
    sublattice_enum,
    t_chain,
    t_local,
)

C2 = field_context(2)
C3 = field_context(3)
C4 = field_context(2, 2)
C5 = field_context(5)

T = (0, 1)


def test_standard_lattice_shape():
    L = standard_lattice(C3, 3)
    assert L.is_standard
    assert L.det() == (1,)
    assert L.det_degree() == 0
    assert L.n == 3


def test_hnf_known_example():
    # rows t*e1 and e1+e2 span the same lattice as e1+e2 and t*e2
    L = hnf_reduce(C2, [[(0, 1), ()], [(1,), (1,)]])
    assert L.rows == (((1,), (1,)), ((), (0, 1)))
    assert L.det() == (0, 1)


def test_hnf_invariant_under_row_operations():
    rng = random.Random(11)
    for _ in range(25):
        ctx = rng.choice([C2, C3])
        n = rng.randrange(2, 4)
        L = random_sublattice(ctx, n, rng.randrange(10**6), max_deg=2)
        rows = [list(r) for r in L.rows]
        # shuffle and mix rows by adding polynomial multiples of other rows
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            f = tuple(rng.randrange(ctx.q) for _ in range(rng.randrange(1, 3)))
            f = ctx.pvalidate(f)
            rows[i] = [ctx.padd(a, ctx.pmul(f, b)) for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        # also append a redundant combination
        extra = [ctx.padd(a, b) for a, b in zip(rows[0], rows[-1])]
        assert hnf_reduce(ctx, rows + [extra]) == L


def test_hnf_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        hnf_reduce(C2, [[(1,), (1,)], [(1,), (1,)]])
    with pytest.raises(ValueError):
        hnf_reduce(C2, [[(), ()], [(), (1,)]])


def test_lattice_canonical_reduction_bounds():
    rng = random.Random(5)
    for _ in range(40):
        ctx = rng.choice([C2, C3, C4])
        n = rng.randrange(2, 4)
        L = random_sublattice(ctx, n, rng.randrange(10**6), max_deg=2)
        for i in range(n):
            di = L.rows[i][i]
            assert di and di[-1] == 1
            for j in range(i):
                assert L.rows[i][j] == ()
            for j in range(i + 1, n):
                assert len(L.rows[i][j]) < len(L.rows[j][j])


def test_coords_and_containment():
    L = hnf_reduce(C2, [[(1,), (1,)], [(), (0, 1)]])
    assert L.coords_of([(1,), (1,)]) == [(1,), ()]
    assert L.coords_of([(1,), (1, 1)]) == [(1,), (1,)]
    assert L.coords_of([(1,), ()]) is None
    amb = standard_lattice(C2, 2)
    quotient_invariants(L, amb)  # L is a sublattice of amb
    with pytest.raises(ValueError):
        quotient_invariants(amb, L)


def test_det_multiplies_along_scaling():
    L = random_sublattice(C3, 2, 77, max_deg=1)
    g = Poly(C3, (1, 1))
    assert L.scale(g).det() == C3.pmul(C3.pmul(g.coeffs, g.coeffs), L.det())


def test_sublattice_enum_index_t_count():
    # q + 1 sublattices of determinant t
    for ctx in (C2, C3, C4, C5):
        subs = sublattice_enum(standard_lattice(ctx, 2), T)
        assert len(subs) == ctx.q + 1
        assert len(set(subs)) == len(subs)


def test_sublattice_enum_det_tsquare_f2():
    subs = sublattice_enum(standard_lattice(C2, 2), (0, 0, 1))
    assert len(subs) == 7
    for N in subs:
        assert N.det() == (0, 0, 1)


def test_sublattice_enum_matches_closed_count_nonstandard():
    rng = random.Random(19)
    for _ in range(10):
        ctx = rng.choice([C2, C3])
        n = rng.randrange(1, 4)
        L = random_sublattice(ctx, n, rng.randrange(10**6), max_deg=1)
        g = ctx.pmonic(
            ctx.pvalidate(tuple(rng.randrange(ctx.q) for _ in range(2)) + (1,))
        )
        subs = sublattice_enum(L, g)
        assert len(subs) == phi_count(ctx, g, n)
        assert len(set(subs)) == len(subs)
        for N in subs:
            quotient_invariants(N, L)  # raises unless N is a sublattice of L


@pytest.mark.parametrize(
    "ctx,g,n,expect",
    [
        (C2, (0, 1), 2, 3),
        (C3, (0, 1), 2, 4),
        (C4, (0, 1), 2, 5),
        (C5, (0, 1), 2, 6),
        (C3, (0, 0, 1), 2, 13),  # q^2 + q + 1
        (C3, (0, 2, 1), 2, 16),  # (q + 1)^2 for a split square-free g
        (C3, (1, 0, 1), 2, 10),  # q^2 + 1 for irreducible g
    ],
)
def test_phi_count_table(ctx, g, n, expect):
    assert phi_count(ctx, g, n, method="closed") == expect
    assert phi_count(ctx, g, n, method="enum") == expect


def test_phi_count_methods_agree_randomized():
    rng = random.Random(31)
    for _ in range(12):
        ctx = rng.choice([C2, C3])
        n = rng.randrange(1, 4)
        d = rng.randrange(1, 4 - (n > 2))
        g = ctx.pmonic(
            ctx.pvalidate(tuple(rng.randrange(ctx.q) for _ in range(d)) + (1,))
        )
        assert phi_count(ctx, g, n, "enum") == phi_count(ctx, g, n, "closed")


def test_quotient_invariants_examples():
    N = hnf_reduce(C2, [[(0, 1), ()], [(), (0, 1)]])
    assert quotient_invariants(N).chain == ((0, 1), (0, 1))
    N2 = hnf_reduce(C2, [[(0, 0, 1), ()], [(), (1,)]])
    assert quotient_invariants(N2).chain == ((0, 0, 1), (1,))
    # a non-split extension class still has cyclic quotient
    N3 = hnf_reduce(C2, [[(0, 1), (1,)], [(), (0, 1)]])
    assert quotient_invariants(N3).chain == ((0, 0, 1), (1,))


def test_quotient_invariants_relative_pair():
    L = hnf_reduce(C3, [[(0, 1), (1,)], [(), (1,)]])
    sub = L.scale((0, 1))
    inv = quotient_invariants(sub, L)
    assert inv.chain == ((0, 1), (0, 1))
    with pytest.raises(ValueError):
        quotient_invariants(L, sub)


def test_invariant_chain_validation():
    InvariantType(C2, [(0, 0, 1), (0, 1)])
    with pytest.raises(ValueError):
        InvariantType(C2, [(0, 1), (0, 0, 1)])  # wrong order
    with pytest.raises(ValueError):
        InvariantType(C2, [(0, 1), ()])


def test_invariant_type_det_is_the_product_tuple():
    # (t + 1)^2 (t + 2), t + 1, 1 over F_3: the product (t^3 + 1)(t + 2)
    f = C3.pmul(C3.pmul((1, 1), (1, 1)), (2, 1))
    chain = InvariantType(C3, [f, (1, 1), (1,)])
    assert chain.det() == C3.pmul(f, (1, 1)) == (2, 1, 0, 2, 1)
    assert InvariantType(C3, [(1,), (1,)]).det() == (1,)


def test_invariants_sum_to_det_degree():
    rng = random.Random(23)
    for _ in range(20):
        ctx = rng.choice([C2, C3])
        n = rng.randrange(2, 4)
        N = random_sublattice(ctx, n, rng.randrange(10**6), max_deg=2)
        inv = quotient_invariants(N)
        assert inv.codim() == N.det_degree()
        assert inv.det() == N.det()


def test_d_count_partition_of_phi():
    # invariant chains of fixed determinant partition the sublattice count
    assert d_count(C2, [(0, 0, 1), (1,)]) == 6
    assert d_count(C2, [(0, 1), (0, 1)]) == 1
    assert 6 + 1 == phi_count(C2, (0, 0, 1), 2)
    # over F_3 with g = t^2: 13 = d(t^2, 1) + d(t, t)
    assert d_count(C3, [(0, 0, 1), (1,)]) + d_count(C3, [(0, 1), (0, 1)]) == 13


def test_gauss_binom_values():
    assert gauss_binom(2, 1, 2) == 3
    assert gauss_binom(4, 2, 3) == 130
    assert gauss_binom(3, 1, 4) == 21
    assert gauss_binom(5, 0, 7) == 1
    assert gauss_binom(3, 4, 2) == 0
    # symmetry and Pascal recurrence
    for Q in (2, 3, 9):
        for n in range(6):
            for k in range(n + 1):
                assert gauss_binom(n, k, Q) == gauss_binom(n, n - k, Q)
                if 0 < k <= n - 1:
                    assert gauss_binom(n, k, Q) == (
                        gauss_binom(n - 1, k - 1, Q)
                        + Q**k * gauss_binom(n - 1, k, Q)
                    )


def test_alternating_qbinom_identity():
    for Q in (2, 3, 4, 5, 8, 9, 16, 25):
        for h in range(1, 7):
            assert alternating_qbinom_sum(h, Q) == 0
    assert alternating_qbinom_sum(0, 2) == 1


def test_sigma_counts_and_codim():
    for ctx, x, qx in ((C2, (0, 1), 2), (C2, (1, 1, 1), 4), (C3, (0, 1), 3)):
        s = LatticeSum.of(standard_lattice(ctx, 3))
        for j in range(4):
            out = sigma_apply(x, j, s)
            assert out.support_size() == gauss_binom(3, j, qx)
            for N, mult in out.terms.items():
                assert mult == 1
                assert N.det_degree() == j * (len(x) - 1)


def test_sigma_extremes():
    s = LatticeSum.of(standard_lattice(C3, 2))
    assert sigma_apply(T, 0, s) == s
    topped = sigma_apply(T, 2, s)
    (N, mult), = topped.terms.items()
    assert mult == 1
    assert N == standard_lattice(C3, 2).scale(T)


def test_sigma_requires_prime():
    s = LatticeSum.of(standard_lattice(C2, 2))
    with pytest.raises(ValueError):
        sigma_apply((0, 0, 1), 1, s)  # t^2 is not irreducible
    with pytest.raises(ValueError):
        sigma_apply((0, 1), 3, s)


def test_t_local_agrees_with_sigma_in_colength_one():
    for ctx, x in ((C2, (0, 1)), (C3, (1, 1)), (C2, (1, 1, 1))):
        for n in (1, 2, 3):
            s = LatticeSum.of(standard_lattice(ctx, n))
            assert t_local(x, 1, s) == sigma_apply(x, 1, s)


def test_t_local_counts():
    # colength m count is the complete homogeneous value h_m(1, Q, .., Q^(n-1))
    for ctx, x in ((C2, (0, 1)), (C3, (0, 1))):
        Q = ctx.q
        for n in (1, 2, 3):
            s = LatticeSum.of(standard_lattice(ctx, n))
            for m in (0, 1, 2):
                out = t_local(x, m, s)
                xm = (1,)
                for _ in range(m):
                    xm = ctx.pmul(xm, x)
                assert out.support_size() == phi_count(ctx, xm, n)
                assert all(c == 1 for c in out.terms.values())


def test_operators_at_same_prime_commute():
    rng = random.Random(7)
    for ctx, x in ((C2, (0, 1)), (C3, (1, 1))):
        Ls = [random_sublattice(ctx, 2, rng.randrange(10**6)) for _ in range(2)]
        s = LatticeSum(ctx, 2, {Ls[0]: 1, Ls[1]: 2})
        a = t_local(x, 1, sigma_apply(x, 1, s))
        b = sigma_apply(x, 1, t_local(x, 1, s))
        assert a == b


def test_operators_at_distinct_primes_commute():
    s = LatticeSum.of(standard_lattice(C2, 2))
    a = t_local((0, 1), 1, t_local((1, 1), 1, s))
    b = t_local((1, 1), 1, t_local((0, 1), 1, s))
    assert a == b


def test_lattice_sum_algebra():
    L1 = standard_lattice(C2, 2)
    L2 = L1.scale(T)
    s = LatticeSum.of(L1) + 3 * LatticeSum.of(L2)
    assert s.total_mass() == 4
    assert (s - s).is_zero
    assert (2 * s).terms[L2] == 6
    items = s.items()
    assert [c for _, c in items] == [1, 3]
    with pytest.raises(ValueError):
        s + LatticeSum.of(standard_lattice(C2, 3))


@pytest.mark.parametrize("c", [2.5, 0.5, Fraction(1, 2), Fraction(2, 1), "2", True, False],
                         ids=["float", "half", "fraction", "whole-fraction", "str",
                              "true", "false"])
def test_lattice_sum_takes_only_integer_coefficients(c):
    # a sum is a formal Z-linear combination: a float mass, or a bool that
    # to_json writes as true, would reach the report through to_json
    L1 = standard_lattice(C2, 2)
    L2 = L1.scale(T)
    s = LatticeSum.of(L1) + LatticeSum.of(L2)
    for product in (lambda: s * c, lambda: c * s):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(TypeError):
        LatticeSum(C2, 2, {L1: c})
    with pytest.raises(TypeError):
        LatticeSum.of(L1, c)


def test_lattice_sum_integer_coefficients_still_work():
    L1 = standard_lattice(C2, 2)
    L2 = L1.scale(T)
    s = LatticeSum.of(L1) + LatticeSum.of(L2, 2)
    for k in (0, 1, -1, 3, -4):
        assert (s * k).total_mass() == (k * s).total_mass() == 3 * k
        assert (s * k).items() == [(L, c * k) for L, c in s.items() if k]
    assert (s * 0).is_zero
    assert LatticeSum(C2, 2, {L1: 0, L2: -2}) == LatticeSum.of(L2, -2)
    assert LatticeSum.of(L1, 0).is_zero
    assert LatticeSum.of(L1, -3).terms[L1] == -3


def test_newton_recurrence_small_grid():
    for ctx, xs in ((C2, [(0, 1), (1, 1, 1)]), (C3, [(0, 1)]), (C4, [(0, 1)])):
        for x in xs:
            for n in (1, 2):
                for r in (1, 2, 3):
                    rep = newton_verify(ctx, x, n, r)
                    assert rep.ok and rep.identity_ok


def test_newton_recurrence_rank_three():
    rep = newton_verify(C2, (0, 1), 3, 3)
    assert rep.ok
    rep = newton_verify(C3, (0, 1), 3, 2)
    assert rep.ok


def test_newton_on_non_standard_lattices():
    Ls = [random_sublattice(C2, 2, seed, max_deg=2) for seed in range(4)]
    rep = newton_verify(C2, (0, 1), 2, 2, test_lattices=Ls)
    assert rep.ok and rep.cases == 4


def test_newton_fault_injection_produces_witness():
    rep = newton_verify(C2, (0, 1), 2, 2, fault="newton")
    assert not rep.ok
    assert rep.witness is not None
    assert rep.witness["residue_mult"] != 0
    assert rep.identity_ok  # only the operator side is faulted


def test_predict_newton_cost_matches_enumeration():
    for ctx, x, n, r in ((C2, (0, 1), 2, 3), (C3, (0, 1), 2, 2), (C2, (1, 1, 1), 2, 2)):
        pred = predict_newton_cost(ctx, x, n, r)
        total = 0
        Q = ctx.q ** (len(x) - 1)
        for j in range(min(n, r) + 1):
            xm = (1,)
            for _ in range(r - j):
                xm = ctx.pmul(xm, x)
            total += gauss_binom(n, j, Q) * phi_count(ctx, xm, n)
        assert pred == total


def test_t_chain_restricts_t_local():
    # summing t_chain over all chains with det x^m recovers t_local(x, m)
    s = LatticeSum.of(standard_lattice(C2, 2))
    x = T
    full = t_local(x, 2, s)
    split = t_chain(InvariantType(C2, [(0, 0, 1), (1,)]), s)
    diag = t_chain(InvariantType(C2, [(0, 1), (0, 1)]), s)
    assert split + diag == full


def test_hecke_multiplicativity_coprime():
    cha = InvariantType(C2, [(0, 1), (1,)])
    chb = InvariantType(C2, [(1, 1), (1,)])
    rep = hecke_mult_verify(C2, cha, chb)
    assert rep.ok
    Ls = [random_sublattice(C2, 2, s) for s in (3, 8)]
    rep = hecke_mult_verify(C2, cha, chb, test_lattices=Ls)
    assert rep.ok and rep.cases == 2


def test_hecke_multiplicativity_deeper_chain():
    cha = InvariantType(C3, [(0, 0, 1), (0, 1)])
    chb = InvariantType(C3, [(1, 1), (1,)])
    rep = hecke_mult_verify(C3, cha, chb)
    assert rep.ok


def test_mult_fault_adds_to_the_first_canonical_term(monkeypatch):
    # the fault's extra copy goes to the first term of T(J J') N in
    # canonical order, whatever order the operator fills its sum in
    cases = [(InvariantType(C3, [(0, 1), (1,)]), InvariantType(C3, [(1, 1), (1,)])),
             (InvariantType(C3, [(0, 1), (1,), (1,)]), InvariantType(C3, [(1, 0, 1), (1,), (1,)]))]
    for cha, chb in cases:
        n = len(cha)
        for N in (standard_lattice(C3, n), random_sublattice(C3, n, 5)):
            first, _ = t_chain(cha.pointwise_mul(chb), LatticeSum.of(N)).items()[0]
            rep = hecke_mult_verify(C3, cha, chb, test_lattices=[N], fault="mult")
            assert not rep.ok
            assert rep.witness["residue_term"] == first.to_json()
            assert rep.witness["residue_mult"] == -1
            with monkeypatch.context() as m:
                real = heckelat._diag_tuples
                m.setattr(heckelat, "_diag_tuples", lambda *args: real(*args)[::-1])
                again = hecke_mult_verify(C3, cha, chb, test_lattices=[N], fault="mult")
            assert again.witness == rep.witness


def test_hecke_mult_rejects_common_factor():
    cha = InvariantType(C2, [(0, 1), (1,)])
    with pytest.raises(ValueError):
        hecke_mult_verify(C2, cha, cha)


def test_random_sublattice_deterministic():
    a = random_sublattice(C3, 3, 42, max_deg=2)
    b = random_sublattice(C3, 3, 42, max_deg=2)
    assert a == b and hash(a) == hash(b)
    c = random_sublattice(C3, 3, 43, max_deg=2)
    assert a != c


@pytest.mark.parametrize("make, match", [
    (lambda: LatticeSum(C2, 0), "rank must be positive"),
    (lambda: LatticeSum(C2, -1), "rank must be positive"),
    (lambda: random_sublattice(C2, 0, 1), "rank must be positive"),
    (lambda: random_sublattice(C2, -2, 1), "rank must be positive"),
    (lambda: random_sublattice(C2, 2, 1, max_deg=-1), "max_deg"),
], ids=["sum-rank-0", "sum-rank-neg", "random-rank-0", "random-rank-neg", "random-max-deg-neg"])
def test_bad_ranks_and_degrees_are_refused_up_front(make, match):
    # these built rankless empty sums, or failed inside indexing or randrange
    with pytest.raises(ValueError, match=match):
        make()


def test_lattice_json_round_shape():
    L = random_sublattice(C2, 2, 9)
    data = L.to_json()
    assert data["n"] == 2
    rebuilt = hnf_reduce(C2, [[tuple(e) for e in row] for row in data["rows"]])
    assert rebuilt == L
