"""The check families of the ``ffstick`` reports, and the ``verify-all`` grid.

A check record is {check_id, anchor, status, details} (see ``report``).  Each
family that a subcommand and ``verify-all`` both report is defined here once,
with its check-id format and anchor: the tail law (``stick q``), the Newton
recurrence (``hecke newton``), coprime multiplicativity (``hecke mult``), the
chain partition of the sublattice count (``hecke dcount``), the rank-2
product formula (``stick verify``) and the psi degree (``carlitz psi``).  The
tail law and the rank-2 product formula are records of
``lseries.verify_identities`` too, so ``lseries`` builds both records
(``tail_law_record``, ``theta2_product_record``) and this module tags them.

``verify_all`` runs the sections of ``FAMILIES`` in order, each timed on
stderr, and hands an injected fault to the family that owns it only.
"""

from __future__ import annotations

import itertools
import random

from .fieldcore import FieldCtx, field_context, _mix
from .groupring import unit_group
from .heckelat import (
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
    _diag_tuples,
    _monic,
)
from .lseries import (
    StickCtx,
    stick_context,
    stickelberger_q,
    t_times_t_minus_one,
    tail_law_record,
    theta2_product_record,
    verify_identities,
)
from . import carlitz
from .report import Stopwatch, check_record

__all__ = [
    "fmt", "tail_law", "newton_lattices", "newton_case", "newton_record", "mult",
    "random_prime_chain", "chains_with_det", "dcount", "psi", "NEWTON_FAULTS",
    "FAMILIES", "FAULTS", "verify_all",
]

NEWTON_ANCHOR = ("Newton recurrence: alternating sum of t_local(r-j) sigma_j with "
                 "Gaussian binomial power coefficients vanishes")
NEWTON_FAULTS = ("newton",)  # ``hecke newton`` takes these too
MULT_ANCHOR = ("chain operators with coprime determinants compose to the "
               "pointwise product chain operator")


def fmt(coeffs) -> str:
    """A polynomial as check ids write it: comma separated coefficients."""
    return ",".join(str(c) for c in coeffs)


def _tag(q: int, I) -> str:
    return f"[q={q},I={fmt(I)}]"


def _with_witness(details: dict, witness) -> dict:
    return {**details, "witness": witness} if witness else details


def _first_failure(ctx: FieldCtx, max_deg: int, check) -> tuple[int, dict | None]:
    """Run ``check`` on the monic polynomials of degree 1 to max_deg in
    canonical order up to the first one it returns a witness for; returns
    the number checked and that witness."""
    tested = 0
    for d in range(1, max_deg + 1):
        for f in ctx.monic_tuples(d):
            tested += 1
            witness = check(f)
            if witness:
                return tested, witness
    return tested, None


def tail_law(S: StickCtx, tail, **details) -> dict:
    """Tail-law record of modulus S from its ``TailReport``, tagged with q
    and I; ``details`` adds entries to the checked window and its violations."""
    return tail_law_record(tail, _tag(S.ctx.q, S.I), **details)


def _test_lattices(ctx: FieldCtx, n: int, count: int, *key) -> list:
    """A^n, then count - 1 random sublattices seeded by key and their index."""
    return [standard_lattice(ctx, n)] + [
        random_sublattice(ctx, n, _mix(*key, k), max_deg=1) for k in range(count - 1)
    ]


def newton_lattices(ctx: FieldCtx, x, n: int, r: int, seed: int, count: int) -> list:
    """The Newton test lattices: A^n, then count - 1 seeded random sublattices."""
    if count < 1:
        raise ValueError("the Newton check needs at least one test lattice")
    return _test_lattices(ctx, n, count, seed, ctx.q, ctx.pkey(x), n, r)


def newton_case(ctx: FieldCtx, x, n: int, r: int, seed: int, fault: str | None,
                lattices: int = 4):
    """Run the Newton check of one (x, n, r) cell; returns the
    ``NewtonReport`` and the details of its record."""
    test = newton_lattices(ctx, x, n, r, seed, lattices)
    rep = newton_verify(ctx, x, n, r, test_lattices=test, fault=fault)
    details = {
        "x": list(x), "n": n, "r": r,
        "test_lattices": len(test),
        "predicted_productions": predict_newton_cost(ctx, x, n, r),
    }
    return rep, _with_witness(details, rep.witness)


def newton_record(ctx: FieldCtx, x, n: int, r: int, passed: bool, details: dict) -> dict:
    """The record of one Newton cell, from the details of ``newton_case``."""
    return check_record(f"hecke.newton[q={ctx.q},x={fmt(x)},n={n},r={r}]",
                        NEWTON_ANCHOR, passed, details)


def mult(ctx: FieldCtx, chain_a: InvariantType, chain_b: InvariantType,
         seed: int, lattices: int) -> dict:
    """T(J) T(J') = T(J J') for one coprime pair, on A^n and lattices - 1
    seeded random sublattices."""
    if lattices < 1:
        raise ValueError("the multiplicativity check needs at least one test lattice")
    n = len(chain_a)
    test = _test_lattices(ctx, n, lattices, seed, ctx.q, n, 77)
    rep = hecke_mult_verify(ctx, chain_a, chain_b, test_lattices=test)
    details = {
        "chain": chain_a.to_json(), "chain2": chain_b.to_json(),
        "test_lattices": len(test), "cases": rep.cases,
    }
    dets = f"{fmt(chain_a.det())}*{fmt(chain_b.det())}"
    return check_record(f"hecke.mult[q={ctx.q},det={dets},n={n}]", MULT_ANCHOR,
                        rep.ok, _with_witness(details, rep.witness))


def random_prime_chain(ctx: FieldCtx, P: tuple, n: int, rng: random.Random) -> InvariantType:
    """Chain of powers of one prime with nonincreasing exponents.

    The exponent budget keeps the determinant degree at 2 or below, which
    bounds every enumeration the multiplicativity check has to run.
    """
    budget = rng.randrange(1, 3) if len(P) == 2 else 1
    exps = []
    prev = budget
    for _ in range(n):
        e = rng.randrange(0, min(prev, budget) + 1)
        exps.append(e)
        budget -= e
        prev = e
    if all(e == 0 for e in exps):
        exps[0] = 1
    chain = []
    for e in exps:
        f = (1,)
        for _ in range(e):
            f = ctx.pmul(f, P)
        chain.append(f)
    return InvariantType(ctx, chain)


def _mult_pairs(ctx: FieldCtx, n: int, seed: int, pairs: int, fault: str | None) -> dict:
    """verify-all's rank n record: seeded coprime pairs of prime power chains,
    each on A^n and one random sublattice, up to the first failure."""
    q = ctx.q
    primes = list(ctx.monic_irreducibles(1)) + list(ctx.monic_irreducibles(2))
    rng = random.Random(_mix(seed, q, n, 0xC0))
    run = 0
    witness = None
    while run < pairs and witness is None:
        run += 1
        P, R = rng.sample(primes, 2)
        chain_a = random_prime_chain(ctx, P, n, rng)
        chain_b = random_prime_chain(ctx, R, n, rng)
        lattices = [standard_lattice(ctx, n),
                    random_sublattice(ctx, n, _mix(seed, q, n, run), max_deg=1)]
        witness = hecke_mult_verify(ctx, chain_a, chain_b, test_lattices=lattices,
                                    fault=fault).witness
    return check_record(f"hecke.mult[q={q},n={n}]", MULT_ANCHOR, witness is None,
                        _with_witness({"pairs": run, "prime_pool_degrees": [1, 2]}, witness))


def chains_with_det(ctx: FieldCtx, g, n: int) -> list:
    """All length-n divisibility chains of monic polynomials with product g,
    largest entry first: the ordered factorizations of ``_diag_tuples``
    whose entries divide in descending order."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    pmod = ctx.pmod
    return [InvariantType(ctx, t) for t in _diag_tuples(ctx, _monic(ctx, g), n)
            if not any(pmod(a, b) for a, b in zip(t, t[1:]))]


def _chain_total(ctx: FieldCtx, g: tuple, n: int) -> int:
    """Sum of d_count over the invariant chains of length n and determinant g."""
    return sum(d_count(ctx, c) for c in chains_with_det(ctx, g, n))


def dcount(ctx: FieldCtx, chain: InvariantType) -> dict:
    """d_count of one chain; when the full count is small, also the partition
    of phi_count(det, n) by the chains of equal determinant."""
    det, n = chain.det(), len(chain)
    details: dict = {"chain": chain.to_json(), "value": d_count(ctx, chain), "det": list(det)}
    passed = True
    total_expected = phi_count(ctx, det, n)
    if total_expected <= 50_000:
        details["chain_total"] = _chain_total(ctx, det, n)
        details["phi_closed"] = total_expected
        passed = details["chain_total"] == total_expected
    return check_record(
        f"hecke.d_count[q={ctx.q},det={fmt(det)},n={n}]",
        "sublattices with a prescribed invariant chain; chains of equal "
        "determinant partition the full count",
        passed,
        details,
    )


def _psi_and_units(ctx: FieldCtx, I) -> tuple:
    """Psi_I (``psi_dense``'s memo list, read only) and the order of the
    unit group of A/I, which deg Psi_I equals."""
    I = ctx.pmodulus(I)
    return carlitz.psi_dense(ctx, I), unit_group(ctx, I).order


def psi(ctx: FieldCtx, I) -> dict:
    """Psi_I with its degree checked against the unit group order of A/I."""
    psi_I, order = _psi_and_units(ctx, I)
    degree = len(psi_I) - 1
    return check_record(
        f"carlitz.psi{_tag(ctx.q, I)}",
        "primitive torsion factor: exact divisor chain division, degree "
        "equals the unit group order",
        degree == order,
        {"ideal": list(I), "degree": degree, "unit_group_order": order,
         "coeffs": [list(c) for c in psi_I]},
    )


def _psi_degree(ctx: FieldCtx, fault: bool = False) -> dict:
    """verify-all's record, over the moduli of degree up to 3.  A fault adds 1
    to a copy of the unit group order at the first modulus, t."""

    def mismatch(I):
        psi_I, order = _psi_and_units(ctx, I)
        degree = len(psi_I) - 1
        if fault and I == (0, 1):
            order += 1
        return None if degree == order else {"I": list(I), "degree": degree, "order": order}

    _, bad = _first_failure(ctx, 3, mismatch)
    return check_record(
        f"carlitz.psi_degree[q={ctx.q}]",
        "degree of the primitive torsion factor equals the unit group order",
        bad is None,
        _with_witness({"max_deg": 3}, bad),
    )


def _divisor_product(ctx: FieldCtx, fault: bool = False) -> dict:
    """Over the moduli f of degree up to 3: the Psi_g of the monic divisors g
    of f multiply to the f-torsion polynomial.  ``psi_dense`` makes each
    Psi_g by exact division and raises where a division leaves a remainder;
    that fails the record at f with the error as its witness.  A fault adds
    1 to the X coefficient of a copy of the product at the first modulus, t."""

    def mismatch(f):
        divisors = ctx.monic_divisors(f)
        try:
            psis = [carlitz.psi_dense(ctx, g) for g in divisors]
        except ArithmeticError as exc:
            return {"f": list(f), "inexact_division": str(exc)}
        prod = [(1,)]
        for psi in psis:
            prod = carlitz.xmul(ctx, prod, psi)
        if fault and f == (0, 1):  # prod is xmul's own list, no memo's
            prod[1] = ctx.padd(prod[1], (1,))
        want = carlitz.torsion_poly(ctx, f).to_dense()
        if prod == want:
            return None
        return {"f": list(f), "first_mismatch": next(
            i for i, (a, b) in enumerate(itertools.zip_longest(prod, want)) if a != b)}

    count, bad = _first_failure(ctx, 3, mismatch)
    return check_record(
        f"carlitz.divisor_product[q={ctx.q}]",
        "product of primitive torsion factors over monic divisors "
        "reassembles the torsion polynomial",
        bad is None,
        _with_witness({"moduli_tested": count}, bad))


def _galois_action(ctx: FieldCtx, I: tuple, fault: bool = False) -> dict:
    """a.(b.x) = (ab).x on the torsion generator x for all unit classes a, b,
    up to the first pair that fails.  A fault compares the first pair against
    a copy of the image (ab).x plus 1, never the image the algebra keeps."""
    alg = carlitz.TorsionAlgebra(ctx, I)
    x = alg.x_gen()
    G = unit_group(ctx, I)
    act = carlitz.galois_act
    witness = None
    for a, b in itertools.product(G.elements, repeat=2):
        want = act(alg, ctx.pmod(ctx.pmul(a, b), I), x)
        if fault:  # the first pair only
            want, fault = want + alg.one(), False
        if act(alg, a, act(alg, b, x)) != want:
            witness = {"a": list(a), "b": list(b)}
            break
    return check_record(
        f"carlitz.galois_action{_tag(ctx.q, I)}",
        "torsion action of unit classes composes like the group law",
        witness is None,
        _with_witness({"group_order": G.order}, witness))


# ---------------------------------------------------------------------------
# the verify-all grid


def _series_batteries(ctxs: dict, args, fault: str | None):
    moduli = [(q, I) for q in (2, 3) for d in (1, 2) for I in ctxs[q].monic_tuples(d)]
    for k, (q, I) in enumerate(moduli):
        # an injected series or phi fault corrupts the first modulus only
        for rec in verify_identities(stick_context(ctxs[q], I), n_max=args.n_max,
                                     fault=fault if k == 0 else None):
            rec["check_id"] += _tag(q, I)
            yield rec


def _tail_law_sampling(ctxs: dict, args, fault: str | None):
    for q in (2, 3, 4):
        ctx = ctxs[q]
        rng = random.Random(_mix(args.seed, q, 0x7A11))
        for d in (1, 2, 3):
            pool = list(ctx.monic_tuples(d))
            for I in pool if len(pool) <= 4 else rng.sample(pool, 4):
                S = stick_context(ctx, I)
                yield tail_law(S, stickelberger_q(S, window=4)[1])


def _phi_table(ctxs: dict, args, fault: str | None):
    for q in (2, 3, 4, 5):
        ctx = ctxs[q]
        expected = {
            "linear": ((0, 1), q + 1),
            "square": ((0, 0, 1), q * q + q + 1),
            "split_product": (t_times_t_minus_one(ctx), q * q + 2 * q + 1),
            "irreducible_quadratic": (next(iter(ctx.monic_irreducibles(2))), q * q + 1),
        }
        for label, (g, want) in expected.items():
            got = len(sublattice_enum(standard_lattice(ctx, 2), g))
            yield check_record(
                f"hecke.phi_table[q={q},case={label}]",
                "rank-2 sublattice counts: q+1, q^2+q+1, (q+1)^2, q^2+1 "
                "by determinant shape",
                got == want,
                {"g": list(g), "expected": want, "enumerated": got},
            )


def _theta2_products(ctxs: dict, args, fault: str | None):
    for q in (3, 4, 5):
        S = stick_context(ctxs[q], t_times_t_minus_one(ctxs[q]))
        yield theta2_product_record(S, f"[q={q}]")


def _newton_grid(ctxs: dict, args, fault: str | None):
    capped = []
    for q in (2, 3):
        ctx = ctxs[q]
        for x in ((0, 1), next(iter(ctx.monic_irreducibles(2)))):
            for n, r in itertools.product((2, 3), (1, 2, 3, 4)):
                cost = predict_newton_cost(ctx, x, n, r)
                if cost > args.newton_budget:
                    capped.append({"q": q, "x": list(x), "n": n, "r": r, "predicted": cost})
                    continue
                rep, details = newton_case(ctx, x, n, r, args.seed, fault)
                yield newton_record(ctx, x, n, r, rep.ok, details)
    yield check_record(
        "hecke.newton_qbinom_identity",
        "alternating Gaussian binomial sum vanishes for h >= 1",
        all(alternating_qbinom_sum(h, Q) == 0 for Q in (2, 3, 4, 8, 9) for h in range(1, 7)),
        {"h_max": 6, "Q": [2, 3, 4, 8, 9], "skipped_over_budget": capped},
    )


def _multiplicativity(ctxs: dict, args, fault: str | None):
    for q, n in itertools.product((2, 3), (1, 2, 3)):
        yield _mult_pairs(ctxs[q], n, args.seed, args.pairs, fault)


def _chain_partitions(ctxs: dict, args, fault: str | None):
    for k, (q, n) in enumerate(itertools.product((2, 3), (1, 2, 3))):
        ctx = ctxs[q]

        def mismatch(g):
            total, closed = _chain_total(ctx, g, n), phi_count(ctx, g, n)
            if fault and k == 0 and g == (0, 1):
                total += 1  # a bridge fault: the first record's first determinant
            return None if total == closed else {"g": list(g), "chain_total": total,
                                                 "phi_closed": closed}
        tested, bad = _first_failure(ctx, 2, mismatch)
        yield check_record(
            f"hecke.bridge[q={q},n={n}]",
            "invariant chains of equal determinant partition the sublattice count",
            bad is None,
            _with_witness({"determinants_tested": tested, "max_deg": 2}, bad),
        )


def _carlitz_suite(ctxs: dict, args, fault: str | None):
    for q in (2, 3):
        # an injected fault corrupts its record at q = 2 only
        yield _divisor_product(ctxs[q], q == 2 and fault == "divisor_product")
        yield _psi_degree(ctxs[q], q == 2 and fault == "psi_degree")
    for q, I in ((2, (1, 1, 1)), (3, (0, 2, 1))):
        yield _galois_action(ctxs[q], I, q == 2 and fault == "galois")
    for q in (3, 4):
        p = t_times_t_minus_one(ctxs[q])
        rep = carlitz.split_tensor_element(ctxs[q], p)
        yield check_record(
            f"carlitz.split_element{_tag(q, p)}",
            "tensor square split element: invertibility, torsion relations, "
            "and diagonal specialization",
            rep.ok,
            {"dim": rep.dim, "weights": rep.weights, "checks": rep.checks})


# verify-all's sections in run order: (Stopwatch label, builder, faults it owns).
# perfbench's battery workload reads the labels' [time] lines in this order.
FAMILIES = (
    ("series identity batteries", _series_batteries, ("series", "phi")),
    ("tail law sampling", _tail_law_sampling, ()),
    ("sublattice count table", _phi_table, ()),
    ("rank-2 product identity", _theta2_products, ()),
    ("Newton recurrence grid", _newton_grid, NEWTON_FAULTS),
    ("coprime multiplicativity", _multiplicativity, ("mult",)),
    ("chain partition of counts", _chain_partitions, ("bridge",)),
    ("Carlitz torsion suite", _carlitz_suite, ("divisor_product", "psi_degree", "galois")),
)
FAULTS = {fault: label for label, _, faults in FAMILIES for fault in faults}  # fault -> owner


def verify_all(args) -> list[dict]:
    """The records of every family of ``FAMILIES`` in order, unsorted."""
    if args.pairs < 1:
        raise ValueError("the multiplicativity section needs at least one chain pair")
    if args.n_max < 1:
        raise ValueError("n_max must be positive")
    if args.newton_budget < 0:
        raise ValueError("newton_budget must not be negative; 0 skips every Newton cell")
    ctxs = {p ** m: field_context(p, m, seed=args.seed)
            for p, m in ((2, 1), (3, 1), (2, 2), (5, 1))}
    checks: list[dict] = []
    for label, build, faults in FAMILIES:
        with Stopwatch(label):
            checks += build(ctxs, args, args.inject_fault if args.inject_fault in faults else None)
    return checks
