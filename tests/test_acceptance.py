"""Acceptance battery: one test per headline guarantee of the package.

Each test prints a single pass/fail line through the ``announce`` fixture,
checks the mathematics exactly (integer arithmetic everywhere, so every
tolerance is equality), and enforces a wall clock bound.  Random sampling
is seeded so reruns see the same instances.
"""

import hashlib
import json
import random
import subprocess
import sys
import time

from ffstick.fieldcore import field_context, _mix
from ffstick.groupring import FrobPoly, GroupRingElem, norm_residue, unit_group
from ffstick.heckelat import (
    InvariantType,
    alternating_qbinom_sum,
    d_count,
    hecke_mult_verify,
    newton_verify,
    phi_count,
    predict_newton_cost,
    random_sublattice,
    standard_lattice,
    sublattice_enum,
)
from ffstick.lseries import (
    euler_series,
    phi_series,
    stick_context,
    stickelberger_q,
    theta1,
    theta_n,
    theta_noinf,
)
from ffstick import carlitz
from ffstick.battery import chains_with_det as _chains_with_det, newton_case as _newton_case, random_prime_chain as _random_prime_chain

SEED = 1729
NEWTON_BUDGET = 1_500_000


def test_criterion_01_tail_law(announce):
    """Sampled moduli of degree up to 3 obey s_m = q^(m-d-1) * N for m > d."""
    t0 = time.perf_counter()
    violations = []
    sampled = {}
    for q in (2, 3, 4):
        ctx = field_context({2: 2, 3: 3, 4: 2}[q], 2 if q == 4 else 1)
        pool = [I for d in (1, 2, 3) for I in ctx.monic_tuples(d)]
        rng = random.Random(_mix(SEED, q))
        picked = rng.sample(pool, 12)
        sampled[q] = len(picked)
        for I in picked:
            S = stick_context(ctx, I)
            _, tail = stickelberger_q(S, window=4)
            if not tail.passed:
                violations.append({"q": q, "I": I, "violations": tail.violations})
    elapsed = time.perf_counter() - t0
    ok = not violations and all(v >= 10 for v in sampled.values())
    announce(1, ok, elapsed,
             f"tail law s_m = q^(m-d-1)*N, degrees d+1..d+4, {sampled} moduli")
    assert ok, violations
    assert elapsed < 30.0


def test_criterion_02_dual_series_oracles(announce):
    """Direct counting and the product expansion agree, and so do the two
    phi series routes, on every modulus of degree up to 2 over F_2, F_3."""
    t0 = time.perf_counter()
    bad = []
    contexts = 0
    for q in (2, 3):
        ctx = field_context(q)
        for d in (1, 2):
            for I in ctx.monic_tuples(d):
                S = stick_context(ctx, I)
                contexts += 1
                a = euler_series(S, 6, method="direct")
                b = euler_series(S, 6, method="euler_product")
                if a != b:
                    bad.append({"q": q, "I": I, "kind": "euler"})
                    continue
                for n in (1, 2, 3):
                    M = min(6, n * S.d + 2)
                    g1 = phi_series(S, n, M=M, method="generating")
                    g2 = phi_series(S, n, M=M, method="lattice")
                    if g1 != g2:
                        bad.append({"q": q, "I": I, "n": n, "kind": "phi"})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(2, ok, elapsed,
             f"dual series oracles to order 6, {contexts} moduli, ranks 1..3")
    assert ok, bad
    assert elapsed < 60.0


def test_criterion_03_rank2_count_table(announce):
    """Brute force enumeration reproduces the rank-2 count table:
    q+1, q^2+q+1, (q+1)^2, q^2+1 by determinant shape, q in {2,3,4,5}."""
    t0 = time.perf_counter()
    bad = []
    for q in (2, 3, 4, 5):
        ctx = field_context({4: 2}.get(q, q), 2 if q == 4 else 1)
        L = standard_lattice(ctx, 2)
        for alpha in range(q):
            lin = ctx.psub((0, 1), (alpha,)) if alpha else (0, 1)
            if len(sublattice_enum(L, lin)) != q + 1:
                bad.append({"q": q, "case": "linear", "alpha": alpha})
        t = (0, 1)
        cases = [
            (ctx.pmul(t, t), q * q + q + 1, "square"),
            (ctx.pmul(t, ctx.psub(t, (1,))), q * q + 2 * q + 1, "split product"),
            (ctx.monic_irreducibles(2)[0], q * q + 1, "irreducible quadratic"),
        ]
        for g, want, label in cases:
            got = len(sublattice_enum(L, g))
            if got != want:
                bad.append({"q": q, "case": label, "got": got, "want": want})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(3, ok, elapsed,
             "rank-2 sublattice count table by enumeration, q in {2,3,4,5}")
    assert ok, bad
    assert elapsed < 10.0


def test_criterion_04_rank2_product_identity(announce):
    """For I = t(t-1): Theta_2 = theta1(1)*theta1(q) + (q^2+1)*N exactly."""
    t0 = time.perf_counter()
    bad = []
    for q in (3, 4, 5):
        ctx = field_context({4: 2}.get(q, q), 2 if q == 4 else 1)
        t = (0, 1)
        S = stick_context(ctx, ctx.pmul(t, ctx.psub(t, (1,))))
        rhs = theta1(S, 1) * theta1(S, q) + FrobPoly.constant(S.norm() * (q * q + 1))
        for method in ("generating", "lattice"):
            if theta_n(S, 2, method=method) != rhs:
                bad.append({"q": q, "method": method})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(4, ok, elapsed,
             "Theta_2 = theta1(1)*theta1(q) + (q^2+1)*N for I = t(t-1), q in {3,4,5}")
    assert ok, bad
    assert elapsed < 10.0


def test_criterion_05_factorization_mod_norm(announce):
    """Theta_n from lattice counts is congruent to the product of the
    theta1(q^j) modulo integer multiples of the norm, n up to 3."""
    t0 = time.perf_counter()
    bad = []
    cases = 0
    for q in (2, 3):
        ctx = field_context(q)
        for d in (1, 2):
            for I in ctx.monic_tuples(d):
                S = stick_context(ctx, I)
                G = S.G
                for n in (1, 2, 3):
                    lhs = theta_n(S, n, method="lattice")
                    rhs = FrobPoly.constant(GroupRingElem.integer(G, 1))
                    for j in range(n):
                        rhs = rhs * theta1(S, q ** j)
                    cases += 1
                    if (lhs - rhs).map_coeffs(norm_residue) != FrobPoly.zero(G):
                        bad.append({"q": q, "I": I, "n": n})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(5, ok, elapsed,
             f"Theta_n = prod theta1(q^j) mod Z*N, {cases} cases, lattice oracle")
    assert ok, bad
    assert elapsed < 60.0


def test_criterion_06_newton_recurrence(announce):
    """The alternating Newton sum annihilates the standard lattice and three
    seeded random sublattices for every place of degree 1 or 2, ranks 2
    and 3, colengths up to 4, within an enumeration budget; the alternating
    Gaussian binomial identity backs the coefficients."""
    t0 = time.perf_counter()
    bad = []
    capped = []
    cases = 0
    for q in (2, 3):
        ctx = field_context(q)
        for x in ((0, 1), ctx.monic_irreducibles(2)[0]):
            for n in (2, 3):
                for r in (1, 2, 3, 4):
                    cost = predict_newton_cost(ctx, x, n, r)
                    if cost > NEWTON_BUDGET:
                        capped.append((q, x, n, r, cost))
                        continue
                    rep, details = _newton_case(ctx, x, n, r, SEED, None)
                    cases += 1
                    if not rep.ok:
                        bad.append({"q": q, "x": x, "n": n, "r": r,
                                    "witness": details.get("witness")})
    ident_ok = all(
        alternating_qbinom_sum(h, Q) == 0
        for Q in (2, 3, 4, 8, 9) for h in range(1, 7)
    )
    elapsed = time.perf_counter() - t0
    # exactly one cell exceeds the budget: q=3, quadratic place, n=3, r=4,
    # whose 104,788,138 productions sit far outside the time bound
    cap_expected = len(capped) == 1 and capped[0][:1] + capped[0][2:4] == (3, 3, 4)
    ok = not bad and ident_ok and cap_expected
    announce(6, ok, elapsed,
             f"Newton recurrence on 4 lattices per case, {cases} cases, "
             f"q-binomial identity h<=6")
    for q, x, n, r, cost in capped:
        announce(6, True, 0.0,
                 f"note: case q={q}, deg x={len(x)-1}, n={n} capped at r={r-1} "
                 f"(r={r} needs {cost:,} productions)")
    assert ok, (bad, ident_ok, capped)
    assert elapsed < 120.0


def test_criterion_07_coprime_multiplicativity(announce):
    """Ten seeded coprime chain pairs per rank and field compose to the
    pointwise product operator, checked on the standard lattice and a
    random sublattice."""
    t0 = time.perf_counter()
    bad = []
    pairs_run = 0
    for q in (2, 3):
        ctx = field_context(q)
        primes = list(ctx.monic_irreducibles(1)) + list(ctx.monic_irreducibles(2))
        for n in (1, 2, 3):
            rng = random.Random(_mix(SEED, q, n))
            for k in range(10):
                P, R = rng.sample(primes, 2)
                chain_a = _random_prime_chain(ctx, P, n, rng)
                chain_b = _random_prime_chain(ctx, R, n, rng)
                lattices = [standard_lattice(ctx, n),
                            random_sublattice(ctx, n, _mix(SEED, q, n, k), max_deg=1)]
                rep = hecke_mult_verify(ctx, chain_a, chain_b, test_lattices=lattices)
                pairs_run += 1
                if not rep.ok:
                    bad.append({"q": q, "n": n, "pair": k, "witness": rep.witness})
    elapsed = time.perf_counter() - t0
    ok = not bad and pairs_run == 60
    announce(7, ok, elapsed,
             f"coprime chain multiplicativity, {pairs_run} seeded pairs")
    assert ok, bad
    assert elapsed < 60.0


def test_criterion_08_chain_partition(announce):
    """Chain counts summed over all invariant chains with a fixed
    determinant reproduce the closed form count, every monic determinant
    of degree up to 3, ranks up to 3."""
    t0 = time.perf_counter()
    bad = []
    dets = 0
    for q in (2, 3):
        ctx = field_context(q)
        for n in (1, 2, 3):
            for dg in (1, 2, 3):
                for g in ctx.monic_tuples(dg):
                    total = sum(d_count(ctx, c) for c in _chains_with_det(ctx, g, n))
                    dets += 1
                    if total != phi_count(ctx, g, n):
                        bad.append({"q": q, "n": n, "g": g, "total": total,
                                    "expected": phi_count(ctx, g, n)})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(8, ok, elapsed,
             f"chain counts partition the sublattice count, {dets} determinant cases")
    assert ok, bad
    assert elapsed < 60.0


def test_criterion_09_telescope_and_pattern(announce):
    """(F-1)*Theta'_n = F*Theta_n - (coefficient sum), and Theta'_2 at F=1
    weights the coefficients by 1, 2, .., 2d+1."""
    t0 = time.perf_counter()
    bad = []
    for q in (2, 3):
        ctx = field_context(q)
        for d in (1, 2):
            for I in ctx.monic_tuples(d):
                S = stick_context(ctx, I)
                G = S.G
                F = FrobPoly.monomial(G, 1)
                one = FrobPoly.constant(GroupRingElem.integer(G, 1))
                for n in (1, 2, 3):
                    c = phi_series(S, n, M=n * S.d, method="generating")
                    lhs = (F - one) * theta_noinf(S, n)
                    rhs = F * theta_n(S, n) - FrobPoly.constant(sum(c, GroupRingElem.zero(G)))
                    if lhs != rhs:
                        bad.append({"q": q, "I": I, "n": n, "kind": "telescope"})
                nd = 2 * S.d
                c = phi_series(S, 2, M=nd, method="generating")
                expected = GroupRingElem.zero(G)
                for i in range(nd + 1):
                    expected = expected + c[nd - i] * (i + 1)
                if theta_noinf(S, 2).eval_at_one() != expected:
                    bad.append({"q": q, "I": I, "kind": "pattern"})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(9, ok, elapsed,
             "telescoping relation and the 1..2d+1 coefficient pattern at F=1")
    assert ok, bad
    assert elapsed < 10.0


def test_criterion_10_carlitz_torsion(announce):
    """Torsion factors multiply back along divisors, have unit group degree,
    the unit action composes like the group, and the tensor square split
    element passes its checks for I = t(t-1) over F_3 and F_4."""
    t0 = time.perf_counter()
    bad = []
    for q in (2, 3):
        ctx = field_context(q)
        for d in (1, 2, 3):
            for f in ctx.monic_tuples(d):
                want = carlitz.torsion_poly(ctx, f).to_dense()
                prod = [(1,)]
                for g in ctx.monic_divisors(f):
                    prod = carlitz.xmul(ctx, prod, carlitz.psi_dense(ctx, g))
                if prod != want:
                    bad.append({"q": q, "f": f, "kind": "divisor product"})
                degree = len(carlitz.psi_dense(ctx, f)) - 1
                if degree != unit_group(ctx, f).order:
                    bad.append({"q": q, "f": f, "kind": "degree"})
    for q in (2, 3):
        ctx = field_context(q)
        for d in (1, 2):
            for I in ctx.monic_tuples(d):
                G = unit_group(ctx, I)
                if G.order > 10:
                    continue
                alg = carlitz.TorsionAlgebra(ctx, I)
                x = alg.x_gen()
                for i in range(G.order):
                    for j in range(G.order):
                        a, b = G.rep(i).coeffs, G.rep(j).coeffs
                        ab = ctx.pmod(ctx.pmul(a, b), I)
                        lhs = carlitz.galois_act(alg, a, carlitz.galois_act(alg, b, x))
                        if lhs != carlitz.galois_act(alg, ab, x):
                            bad.append({"q": q, "I": I, "kind": "action"})
    for q, diag in ((3, 2), (4, 1)):
        ctx = field_context({4: 2}.get(q, q), 2 if q == 4 else 1)
        t = (0, 1)
        p = ctx.pmul(t, ctx.psub(t, (1,)))
        rep = carlitz.split_tensor_element(ctx, p)
        const = rep.diagonal_constant
        if not rep.ok or const is None or const.num != (diag,) or const.den != (1,):
            bad.append({"q": q, "kind": "split element",
                        "checks": rep.checks})
    elapsed = time.perf_counter() - t0
    ok = not bad
    announce(10, ok, elapsed,
             "torsion factor algebra, unit action, tensor square split element")
    assert ok, bad
    assert elapsed < 60.0


def test_criterion_11_battery_determinism(announce):
    """Two full default battery runs with the same seed emit byte identical
    reports, exit 0, and finish inside five minutes."""
    t0 = time.perf_counter()
    outputs = []
    single = None
    for _ in range(2):
        r0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ffstick.cli", "verify-all", "--seed", "123"],
            capture_output=True, text=True,
        )
        single = time.perf_counter() - r0
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    elapsed = time.perf_counter() - t0
    doc = json.loads(outputs[0])
    ok = (outputs[0] == outputs[1] and doc["summary"]["failed"] == 0
          and single < 300.0)
    announce(11, ok, elapsed,
             f"default battery twice, byte identical, {doc['summary']['total']} "
             f"checks, single run {single:.0f}s")
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == (
        "c57e4966ff237e2478c887b4ca727354fa35edc3406f2143697b15e5c302b2d3")
    assert doc["summary"]["failed"] == 0
    assert single < 300.0
