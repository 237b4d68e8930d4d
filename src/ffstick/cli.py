"""Command line surface: exact computations in, deterministic JSON out.

Subcommands:

* ``stick q|theta|verify``: series coefficients, Stickelberger style
  elements, and the identity battery for a chosen modulus;
* ``hecke phi|dcount|newton|mult``: sublattice counts and the Hecke
  operator checks;
* ``carlitz psi|example39``: cyclotomic torsion factors and the tensor
  square split element;
* ``verify-all``: the whole battery over a default parameter grid.

Polynomials are comma separated little endian coefficient lists in the
integer encoding of the field context ("0,1" is t); chains of polynomials
separate entries with semicolons ("0,0,1;0,1" is the chain t^2, t).  Every
command writes a report document to stdout, or to the path given with
``--json``; wall time goes to stderr so the document bytes depend only on
the configuration and seed.  Exit status: 0 when every check passes, 1 when
some check fails, 2 for usage or validation errors (ValueError).  Any other
exception is an internal fault and propagates with its traceback.

The environment variable WORKBENCH_THREADS is only echoed into the config for
provenance; execution is sequential either way, which is what keeps the
reports reproducible.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .fieldcore import FieldCtx, field_context, _mix
from .groupring import FrobPoly, GroupRingElem, norm_residue, unit_group
from . import heckelat
from .heckelat import (
    InvariantType,
    LatticeSum,
    alternating_qbinom_sum,
    d_count,
    gauss_binom,
    hecke_mult_verify,
    newton_verify,
    phi_count,
    predict_newton_cost,
    quotient_invariants,
    random_sublattice,
    standard_lattice,
    sublattice_enum,
)
from .lseries import (
    phi_series,
    stick_context,
    stickelberger_q,
    theta1,
    theta_n,
    theta_noinf,
    verify_identities,
)
from . import carlitz as carlitz_mod
from .report import Stopwatch, check_record, exit_code, make_report, write_report

__all__ = ["main", "build_parser"]

DEFAULT_NEWTON_BUDGET = 60_000
DEFAULT_MULT_PAIRS = 10


def _poly_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integer coefficients, got {text!r}"
        )


def _chain_arg(text: str) -> list[tuple[int, ...]]:
    return [_poly_arg(part) for part in text.split(";")]


def _fmt(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _threads_echo() -> int:
    raw = os.environ.get("WORKBENCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _base_config(args, command: str) -> dict:
    return {
        "command": command,
        "p": args.p,
        "m": args.m,
        "q": args.p ** args.m,
        "seed": getattr(args, "seed", 0),
        "workbench_threads": _threads_echo(),
    }


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffstick",
        description="Exact workbench for function-field series, Hecke operators "
        "on polynomial lattices, and Carlitz torsion algebras.",
        epilog="The environment variable WORKBENCH_THREADS is only echoed into "
        "the report config; execution is always sequential.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write the report document to PATH instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every pseudo random choice (default 0)")
    sub = top.add_subparsers(dest="command", required=True)

    def field_flags(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--m", type=int, default=1, help="extension degree (q = p^m)")

    stick = sub.add_parser("stick", help="series and Stickelberger style elements")
    stick_sub = stick.add_subparsers(dest="action", required=True)

    sq = stick_sub.add_parser(parents=[common], name="q", help="polynomial part gamma_0..gamma_d and the tail law")
    field_flags(sq)
    sq.add_argument("--ideal", type=_poly_arg, required=True, help="monic modulus")
    sq.add_argument("--window", type=int, default=4, help="tail coefficients checked past d")

    st = stick_sub.add_parser(parents=[common], name="theta", help="Theta_n and the no-infinity variant")
    field_flags(st)
    st.add_argument("--ideal", type=_poly_arg, required=True)
    st.add_argument("--n", type=int, required=True, help="rank")
    st.add_argument("--method", choices=["generating", "lattice"], default="generating")

    sv = stick_sub.add_parser(parents=[common], name="verify", help="identity battery for one modulus")
    field_flags(sv)
    sv.add_argument("--ideal", type=_poly_arg, required=True)
    sv.add_argument("--n-max", type=int, default=3, dest="n_max")

    hecke = sub.add_parser("hecke", help="sublattice counts and operator checks")
    hecke_sub = hecke.add_subparsers(dest="action", required=True)

    hp = hecke_sub.add_parser(parents=[common], name="phi", help="count sublattices of A^n with a given determinant")
    field_flags(hp)
    hp.add_argument("--g", type=_poly_arg, required=True, help="monic determinant")
    hp.add_argument("--n", type=int, required=True)
    hp.add_argument("--method", choices=["closed", "enum", "both"], default="both")

    hd = hecke_sub.add_parser(parents=[common], name="dcount", help="count sublattices with a fixed invariant chain")
    field_flags(hd)
    hd.add_argument("--chain", type=_chain_arg, required=True,
                    help="semicolon separated monic chain, largest factor first")

    hn = hecke_sub.add_parser(parents=[common], name="newton", help="Newton recurrence for the local operators")
    field_flags(hn)
    hn.add_argument("--x", type=_poly_arg, required=True, help="monic irreducible place")
    hn.add_argument("--n", type=int, required=True)
    hn.add_argument("--r", type=int, required=True, help="colength")
    hn.add_argument("--lattices", type=int, default=4,
                    help="test lattices: the standard one plus seeded random ones")
    hn.add_argument("--inject-fault", choices=["newton"], default=None, dest="inject_fault")

    hm = hecke_sub.add_parser(parents=[common], name="mult", help="multiplicativity for coprime chains")
    field_flags(hm)
    hm.add_argument("--chain", type=_chain_arg, required=True)
    hm.add_argument("--chain2", type=_chain_arg, required=True)
    hm.add_argument("--lattices", type=int, default=2)

    carl = sub.add_parser("carlitz", help="torsion polynomials and the tensor square")
    carl_sub = carl.add_subparsers(dest="action", required=True)

    cp = carl_sub.add_parser(parents=[common], name="psi", help="primitive torsion factor of a modulus")
    field_flags(cp)
    cp.add_argument("--ideal", type=_poly_arg, required=True)

    ce = carl_sub.add_parser(parents=[common], name="example39", help="tensor square split element with checks")
    field_flags(ce)
    ce.add_argument("--ideal", type=_poly_arg, required=True,
                    help="monic, split, squarefree modulus")

    va = sub.add_parser(parents=[common], name="verify-all", help="full battery over the default grid")
    va.add_argument("--n-max", type=int, default=3, dest="n_max")
    va.add_argument("--newton-budget", type=int, default=DEFAULT_NEWTON_BUDGET,
                    dest="newton_budget",
                    help="cap on predicted sublattice productions per Newton case")
    va.add_argument("--pairs", type=int, default=DEFAULT_MULT_PAIRS,
                    help="coprime chain pairs per (rank, field) cell")
    va.add_argument("--inject-fault", choices=["newton"], default=None, dest="inject_fault")

    return top


# ---------------------------------------------------------------------------
# handlers: each returns (config, checks)


def _ctx(args) -> FieldCtx:
    return field_context(args.p, args.m, seed=getattr(args, "seed", 0))


def _run_stick_q(args):
    ctx = _ctx(args)
    S = stick_context(ctx, args.ideal)
    config = _base_config(args, "stick q")
    config.update({"ideal": list(S.I), "window": args.window})
    gammas, tail = stickelberger_q(S, window=args.window)
    details = {
        "d": S.d,
        "gammas": [g.to_json() for g in gammas],
        "window": list(tail.window),
        "violations": tail.violations,
        "group_order": S.G.order,
    }
    rec = check_record(
        f"lseries.tail_law[q={ctx.q},I={_fmt(S.I)}]",
        "tail of the coprime-class series: s_m = q^(m-d-1)*N for m > d",
        tail.passed,
        details,
    )
    return config, [rec]


def _run_stick_theta(args):
    ctx = _ctx(args)
    S = stick_context(ctx, args.ideal)
    config = _base_config(args, "stick theta")
    config.update({"ideal": list(S.I), "n": args.n, "method": args.method})
    if args.n < 1:
        raise ValueError("rank must be positive")
    th = theta_n(S, args.n, method=args.method)
    thp = theta_noinf(S, args.n, method=args.method)
    rec = check_record(
        f"lseries.theta_n[q={ctx.q},I={_fmt(S.I)},n={args.n}]",
        "assembly of Theta_n and Theta'_n from the weighted series coefficients",
        True,
        {"theta": th.to_json(), "theta_noinf": thp.to_json(), "F_degree": args.n * S.d},
    )
    return config, [rec]


def _run_stick_verify(args):
    ctx = _ctx(args)
    S = stick_context(ctx, args.ideal)
    config = _base_config(args, "stick verify")
    config.update({"ideal": list(S.I), "n_max": args.n_max})
    checks = [
        check_record(r["check_id"], r["anchor"], r["status"] == "pass", r["details"])
        for r in verify_identities(S, n_max=args.n_max)
    ]
    return config, checks


def _run_hecke_phi(args):
    ctx = _ctx(args)
    config = _base_config(args, "hecke phi")
    config.update({"g": list(args.g), "n": args.n, "method": args.method})
    details: dict = {"g": list(args.g), "n": args.n}
    passed = True
    if args.method in ("closed", "both"):
        details["closed"] = phi_count(ctx, args.g, args.n, method="closed")
        details["value"] = details["closed"]
    if args.method in ("enum", "both"):
        bound = details.get("closed")
        if args.method == "enum" or (bound is not None and bound <= 200_000):
            details["enum"] = phi_count(ctx, args.g, args.n, method="enum")
            details["value"] = details["enum"]
        else:
            details["enum_skipped"] = "enumeration larger than 200000 lattices"
    if "closed" in details and "enum" in details:
        passed = details["closed"] == details["enum"]
    rec = check_record(
        f"hecke.phi_count[q={ctx.q},g={_fmt(args.g)},n={args.n}]",
        "number of full rank sublattices of A^n with a prescribed determinant",
        passed,
        details,
    )
    return config, [rec]


def _run_hecke_dcount(args):
    ctx = _ctx(args)
    chain = InvariantType(ctx, args.chain)
    config = _base_config(args, "hecke dcount")
    config.update({"chain": chain.to_json()})
    value = d_count(ctx, chain)
    details: dict = {"chain": chain.to_json(), "value": value,
                     "det": list(chain.det().coeffs)}
    passed = True
    total_expected = phi_count(ctx, chain.det().coeffs, len(chain))
    if total_expected <= 50_000:
        sibling_total = sum(
            d_count(ctx, c) for c in _chains_with_det(ctx, chain.det().coeffs, len(chain))
        )
        details["chain_total"] = sibling_total
        details["phi_closed"] = total_expected
        passed = sibling_total == total_expected
    rec = check_record(
        f"hecke.d_count[q={ctx.q},det={_fmt(chain.det().coeffs)},n={len(chain)}]",
        "sublattices with a prescribed invariant chain; chains of equal "
        "determinant partition the full count",
        passed,
        details,
    )
    return config, [rec]


def _chains_with_det(ctx: FieldCtx, g: tuple, n: int):
    """All length-n divisibility chains of monic polynomials with product g."""
    out = []

    def rec(remaining, prev, acc):
        if len(acc) == n:
            if remaining == (1,):
                out.append(InvariantType(ctx, acc))
            return
        for f in ctx.monic_divisors(remaining):
            if prev is not None and ctx.pmod(prev, f):
                continue
            q, r = ctx.pdivmod(remaining, f)
            if r:
                continue
            rec(q, f, acc + [f])

    rec(ctx.pvalidate(g), None, [])
    return out


def _newton_lattices(ctx, x, n, r, seed, count):
    """The Newton test lattices: A^n, then count - 1 seeded random sublattices."""
    if count < 1:
        raise ValueError("the Newton check needs at least one test lattice")
    return [standard_lattice(ctx, n)] + [
        random_sublattice(ctx, n, _mix(seed, ctx.q, ctx.pkey(x), n, r, k), max_deg=1)
        for k in range(count - 1)
    ]


def _newton_case(ctx, x, n, r, seed, fault):
    lattices = _newton_lattices(ctx, x, n, r, seed, 4)
    rep = newton_verify(ctx, x, n, r, test_lattices=lattices, fault=fault)
    details = {
        "x": list(x), "n": n, "r": r,
        "test_lattices": len(lattices),
        "predicted_productions": predict_newton_cost(ctx, x, n, r),
    }
    if rep.witness is not None:
        details["witness"] = rep.witness
    return rep, details


def _run_hecke_newton(args):
    ctx = _ctx(args)
    config = _base_config(args, "hecke newton")
    config.update({"x": list(args.x), "n": args.n, "r": args.r,
                   "lattices": args.lattices, "inject_fault": args.inject_fault})
    lattices = _newton_lattices(ctx, args.x, args.n, args.r, args.seed, args.lattices)
    rep = newton_verify(ctx, args.x, args.n, args.r, test_lattices=lattices,
                        fault=args.inject_fault)
    details = {
        "x": list(args.x), "n": args.n, "r": args.r,
        "test_lattices": len(lattices),
        "predicted_productions": predict_newton_cost(ctx, args.x, args.n, args.r),
        "identity_ok": rep.identity_ok,
    }
    if rep.witness is not None:
        details["witness"] = rep.witness
    rec = check_record(
        f"hecke.newton[q={ctx.q},x={_fmt(args.x)},n={args.n},r={args.r}]",
        "Newton recurrence: alternating sum of t_local(r-j) sigma_j with "
        "Gaussian binomial power coefficients vanishes",
        rep.ok,
        details,
    )
    return config, [rec]


def _run_hecke_mult(args):
    ctx = _ctx(args)
    chain_a = InvariantType(ctx, args.chain)
    chain_b = InvariantType(ctx, args.chain2)
    n = len(chain_a)
    config = _base_config(args, "hecke mult")
    config.update({"chain": chain_a.to_json(), "chain2": chain_b.to_json(),
                   "lattices": args.lattices})
    lattices = [standard_lattice(ctx, n)] + [
        random_sublattice(ctx, n, _mix(args.seed, ctx.q, n, 77, k), max_deg=1)
        for k in range(max(0, args.lattices - 1))
    ]
    rep = hecke_mult_verify(ctx, chain_a, chain_b, test_lattices=lattices)
    details = {
        "chain": chain_a.to_json(), "chain2": chain_b.to_json(),
        "test_lattices": len(lattices), "cases": rep.cases,
    }
    if rep.witness is not None:
        details["witness"] = rep.witness
    rec = check_record(
        f"hecke.mult[q={ctx.q},det={_fmt(chain_a.det().coeffs)}*{_fmt(chain_b.det().coeffs)},n={n}]",
        "chain operators with coprime determinants compose to the pointwise "
        "product chain operator",
        rep.ok,
        details,
    )
    return config, [rec]


def _run_carlitz_psi(args):
    ctx = _ctx(args)
    config = _base_config(args, "carlitz psi")
    config.update({"ideal": list(args.ideal)})
    psi = carlitz_mod.psi_cyclotomic(ctx, args.ideal)
    degree = len(psi) - 1
    order = unit_group(ctx, ctx.pvalidate(args.ideal)).order
    rec = check_record(
        f"carlitz.psi[q={ctx.q},I={_fmt(args.ideal)}]",
        "primitive torsion factor: exact divisor chain division, degree "
        "equals the unit group order",
        degree == order,
        {"ideal": list(args.ideal), "degree": degree, "unit_group_order": order,
         "coeffs": [list(c.coeffs) for c in psi]},
    )
    return config, [rec]


def _run_carlitz_example39(args):
    ctx = _ctx(args)
    config = _base_config(args, "carlitz example39")
    config.update({"ideal": list(args.ideal)})
    rep = carlitz_mod.split_tensor_element(ctx, args.ideal)
    checks = []
    prefix = f"q={ctx.q},I={_fmt(args.ideal)}"
    for entry in rep.checks:
        kind = entry["check"]
        passed = entry["status"] == "pass"
        detail = {k: v for k, v in entry.items() if k not in ("check", "status")}
        detail["weights"] = rep.weights
        detail["dim"] = rep.dim
        if kind == "delta_invertible":
            checks.append(check_record(
                f"carlitz.split_invertible[{prefix},root={entry['root']}]",
                "the complementary torsion value delta_j is a unit of the torsion algebra",
                passed, detail))
        elif kind == "torsion_relation":
            checks.append(check_record(
                f"carlitz.split_torsion[{prefix},root={entry['root']}]",
                "delta_j is killed by the torsion polynomial of its linear factor",
                passed, detail))
        else:
            checks.append(check_record(
                f"carlitz.split_diagonal[{prefix}]",
                "diagonal specialization of the split element is the constant "
                "sum of partial fraction weights minus one",
                passed, detail))
    return config, checks


# ---------------------------------------------------------------------------
# the full battery


def _verify_all(args):
    seed = args.seed
    config = {
        "command": "verify-all",
        "seed": seed,
        "n_max": args.n_max,
        "newton_budget": args.newton_budget,
        "pairs": args.pairs,
        "inject_fault": args.inject_fault,
        "workbench_threads": _threads_echo(),
    }
    checks: list[dict] = []
    ctxs = {q: field_context({2: 2, 3: 3, 4: 2, 5: 5}[q], {4: 2}.get(q, 1), seed=seed)
            for q in (2, 3, 4, 5)}

    with Stopwatch("series identity batteries"):
        for q in (2, 3):
            ctx = ctxs[q]
            for d in (1, 2):
                for I in ctx.monic_tuples(d):
                    S = stick_context(ctx, I)
                    tag = f"[q={q},I={_fmt(I)}]"
                    for r in verify_identities(S, n_max=args.n_max):
                        checks.append(check_record(
                            r["check_id"] + tag, r["anchor"],
                            r["status"] == "pass", r["details"]))

    with Stopwatch("tail law sampling"):
        for q in (2, 3, 4):
            ctx = ctxs[q]
            rng = random.Random(_mix(seed, q, 0x7A11))
            for d in (1, 2, 3):
                pool = list(ctx.monic_tuples(d))
                picked = pool if len(pool) <= 4 else rng.sample(pool, 4)
                for I in picked:
                    S = stick_context(ctx, I)
                    _, tail = stickelberger_q(S, window=4)
                    checks.append(check_record(
                        f"lseries.tail_law[q={q},I={_fmt(I)}]",
                        "tail of the coprime-class series: s_m = q^(m-d-1)*N for m > d",
                        tail.passed,
                        {"window": list(tail.window), "violations": tail.violations},
                    ))

    with Stopwatch("sublattice count table"):
        for q in (2, 3, 4, 5):
            ctx = ctxs[q]
            t = (0, 1)
            tsq = (0, 0, 1)
            split = ctx.pmul(t, ctx.psub(t, (1,)))
            irred = next(iter(ctx.monic_irreducibles(2)))
            expected = {
                "linear": (t, q + 1),
                "square": (tsq, q * q + q + 1),
                "split_product": (split, q * q + 2 * q + 1),
                "irreducible_quadratic": (irred, q * q + 1),
            }
            for label, (g, want) in expected.items():
                got = len(sublattice_enum(standard_lattice(ctx, 2), g))
                checks.append(check_record(
                    f"hecke.phi_table[q={q},case={label}]",
                    "rank-2 sublattice counts: q+1, q^2+q+1, (q+1)^2, q^2+1 "
                    "by determinant shape",
                    got == want,
                    {"g": list(g), "expected": want, "enumerated": got},
                ))

    with Stopwatch("rank-2 product identity"):
        for q in (3, 4, 5):
            ctx = ctxs[q]
            t = (0, 1)
            S = stick_context(ctx, ctx.pmul(t, ctx.psub(t, (1,))))
            lhs = theta_n(S, 2, method="lattice")
            rhs = theta1(S, 1) * theta1(S, q) + FrobPoly.constant(S.norm() * (q * q + 1))
            checks.append(check_record(
                f"lseries.theta2_product[q={q}]",
                "rank-2 element for I = t(t-1): Theta_2 = theta1(1)*theta1(q) + (q^2+1)*N",
                lhs == rhs,
                {"q": q},
            ))

    with Stopwatch("Newton recurrence grid"):
        capped = []
        for q in (2, 3):
            ctx = ctxs[q]
            deg2 = next(iter(ctx.monic_irreducibles(2)))
            for x in ((0, 1), deg2):
                for n in (2, 3):
                    for r in (1, 2, 3, 4):
                        cost = predict_newton_cost(ctx, x, n, r)
                        if cost > args.newton_budget:
                            capped.append({"q": q, "x": list(x), "n": n, "r": r,
                                           "predicted": cost})
                            continue
                        rep, details = _newton_case(ctx, x, n, r, seed, args.inject_fault)
                        checks.append(check_record(
                            f"hecke.newton[q={q},x={_fmt(x)},n={n},r={r}]",
                            "Newton recurrence: alternating sum of t_local(r-j) sigma_j "
                            "with Gaussian binomial power coefficients vanishes",
                            rep.ok, details))
        ident_ok = all(
            alternating_qbinom_sum(h, Q) == 0
            for Q in (2, 3, 4, 8, 9) for h in range(1, 7)
        )
        checks.append(check_record(
            "hecke.newton_qbinom_identity",
            "alternating Gaussian binomial sum vanishes for h >= 1",
            ident_ok,
            {"h_max": 6, "Q": [2, 3, 4, 8, 9],
             "skipped_over_budget": capped},
        ))

    with Stopwatch("coprime multiplicativity"):
        for q in (2, 3):
            ctx = ctxs[q]
            primes = list(ctx.monic_irreducibles(1)) + list(ctx.monic_irreducibles(2))
            for n in (1, 2, 3):
                rng = random.Random(_mix(seed, q, n, 0xC0))
                good = 0
                pair_idx = 0
                witness = None
                while good < args.pairs:
                    pair_idx += 1
                    P, R = rng.sample(primes, 2)
                    chain_a = _random_prime_chain(ctx, P, n, rng)
                    chain_b = _random_prime_chain(ctx, R, n, rng)
                    lattices = [standard_lattice(ctx, n),
                                random_sublattice(ctx, n, _mix(seed, q, n, pair_idx), max_deg=1)]
                    rep = hecke_mult_verify(ctx, chain_a, chain_b, test_lattices=lattices)
                    if not rep.ok and witness is None:
                        witness = rep.witness
                    good += 1
                    if not rep.ok:
                        break
                detail = {"pairs": good, "prime_pool_degrees": [1, 2]}
                if witness is not None:
                    detail["witness"] = witness
                checks.append(check_record(
                    f"hecke.mult[q={q},n={n}]",
                    "chain operators with coprime determinants compose to the "
                    "pointwise product chain operator",
                    witness is None,
                    detail))

    with Stopwatch("chain partition of counts"):
        for q in (2, 3):
            ctx = ctxs[q]
            for n in (1, 2, 3):
                bad = None
                tested = 0
                for dg in (1, 2):
                    for g in ctx.monic_tuples(dg):
                        total = sum(d_count(ctx, c) for c in _chains_with_det(ctx, g, n))
                        tested += 1
                        if total != phi_count(ctx, g, n):
                            bad = {"g": list(g), "chain_total": total,
                                   "phi_closed": phi_count(ctx, g, n)}
                            break
                    if bad:
                        break
                detail: dict = {"determinants_tested": tested, "max_deg": 2}
                if bad:
                    detail["witness"] = bad
                checks.append(check_record(
                    f"hecke.bridge[q={q},n={n}]",
                    "invariant chains of equal determinant partition the "
                    "sublattice count",
                    bad is None,
                    detail))

    with Stopwatch("Carlitz torsion suite"):
        from .carlitz import _psi_dense, _xmul, torsion_poly as _tp

        for q in (2, 3):
            ctx = ctxs[q]
            bad = None
            count = 0
            for d in (1, 2, 3):
                for f in ctx.monic_tuples(d):
                    prod = [(1,)]
                    for g in ctx.monic_divisors(f):
                        prod = _xmul(ctx, prod, _psi_dense(ctx, g))
                    count += 1
                    if prod != _tp(ctx, f).to_dense():
                        bad = {"f": list(f)}
                        break
                if bad:
                    break
            checks.append(check_record(
                f"carlitz.divisor_product[q={q}]",
                "product of primitive torsion factors over monic divisors "
                "reassembles the torsion polynomial",
                bad is None,
                {"moduli_tested": count, **({"witness": bad} if bad else {})}))
            bad = None
            for d in (1, 2, 3):
                for I in ctx.monic_tuples(d):
                    degree = len(_psi_dense(ctx, I)) - 1
                    order = unit_group(ctx, I).order
                    if degree != order:
                        bad = {"I": list(I), "degree": degree, "order": order}
                        break
                if bad:
                    break
            checks.append(check_record(
                f"carlitz.psi_degree[q={q}]",
                "degree of the primitive torsion factor equals the unit group order",
                bad is None,
                {"max_deg": 3, **({"witness": bad} if bad else {})}))

        for q, I in ((2, (1, 1, 1)), (3, (0, 2, 1))):
            ctx = ctxs[q]
            alg = carlitz_mod.TorsionAlgebra(ctx, I)
            x = alg.x_gen()
            G = unit_group(ctx, I)
            ok = True
            for i in range(G.order):
                for j in range(G.order):
                    a, b = G.rep(i).coeffs, G.rep(j).coeffs
                    ab = ctx.pmod(ctx.pmul(a, b), I)
                    if carlitz_mod.galois_act(alg, a, carlitz_mod.galois_act(alg, b, x)) \
                            != carlitz_mod.galois_act(alg, ab, x):
                        ok = False
                        break
                if not ok:
                    break
            checks.append(check_record(
                f"carlitz.galois_action[q={q},I={_fmt(I)}]",
                "torsion action of unit classes composes like the group law",
                ok,
                {"group_order": G.order}))

        for q in (3, 4):
            ctx = ctxs[q]
            t = (0, 1)
            p = ctx.pmul(t, ctx.psub(t, (1,)))
            rep = carlitz_mod.split_tensor_element(ctx, p)
            checks.append(check_record(
                f"carlitz.split_element[q={q},I={_fmt(p)}]",
                "tensor square split element: invertibility, torsion relations, "
                "and diagonal specialization",
                rep.ok,
                {"dim": rep.dim, "weights": rep.weights,
                 "checks": rep.checks}))

    return config, checks


def _random_prime_chain(ctx: FieldCtx, P: tuple, n: int, rng: random.Random) -> InvariantType:
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


_HANDLERS = {
    ("stick", "q"): _run_stick_q,
    ("stick", "theta"): _run_stick_theta,
    ("stick", "verify"): _run_stick_verify,
    ("hecke", "phi"): _run_hecke_phi,
    ("hecke", "dcount"): _run_hecke_dcount,
    ("hecke", "newton"): _run_hecke_newton,
    ("hecke", "mult"): _run_hecke_mult,
    ("carlitz", "psi"): _run_carlitz_psi,
    ("carlitz", "example39"): _run_carlitz_example39,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify-all":
            with Stopwatch("verify-all total"):
                config, checks = _verify_all(args)
        else:
            handler = _HANDLERS[(args.command, args.action)]
            with Stopwatch(f"{args.command} {args.action}"):
                config, checks = handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = make_report(config, checks)
    write_report(doc, args.json)
    return exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
