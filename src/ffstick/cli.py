"""Command line surface: exact computations in, deterministic JSON out.

Subcommands:

* ``stick q|theta|verify``: series coefficients, Stickelberger style
  elements, and the identity battery for a chosen modulus;
* ``hecke phi|dcount|newton|mult``: sublattice counts and the Hecke
  operator checks;
* ``carlitz psi|example39``: cyclotomic torsion factors and the tensor
  square split element;
* ``verify-all``: the whole battery over a default parameter grid.

This module only parses arguments, echoes the configuration and calls one
thin handler per subcommand.  Every check family that ``verify-all`` also
runs, its sections and the ``--inject-fault`` choices are in ``battery``.

Polynomials are comma separated little endian coefficient lists in the
integer encoding of the field context ("0,1" is t), and zero coefficients at
the top are dropped ("0,1,0" is t too); chains of polynomials
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
import sys

from .fieldcore import dense_strip, field_context
from .heckelat import InvariantType, phi_count
# unused here: perfbench/selftest.py checks that its tracer rebinds this name
from .heckelat import quotient_invariants  # noqa: F401
from .lseries import stick_context, stickelberger_q, theta_n, theta_noinf, verify_identities
from .carlitz import split_tensor_element
from . import battery
from .battery import fmt
from .report import Stopwatch, check_record, exit_code, make_report, write_report

__all__ = ["main", "build_parser"]

DEFAULT_NEWTON_BUDGET = 60_000
DEFAULT_MULT_PAIRS = 10


def _poly_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integer coefficients, got {text!r}"
        )
    return tuple(dense_strip(coeffs))


def _chain_arg(text: str) -> list[tuple[int, ...]]:
    return [_poly_arg(part) for part in text.split(";")]


def _threads_echo() -> int:
    raw = os.environ.get("WORKBENCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _base_config(args) -> dict:
    return {
        "command": f"{args.command} {args.action}",
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

    field = argparse.ArgumentParser(add_help=False, parents=[common])
    field.add_argument("--p", type=int, required=True, help="field characteristic")
    field.add_argument("--m", type=int, default=1, help="extension degree (q = p^m)")

    stick = sub.add_parser("stick", help="series and Stickelberger style elements")
    stick_sub = stick.add_subparsers(dest="action", required=True)

    sq = stick_sub.add_parser(parents=[field], name="q", help="polynomial part gamma_0..gamma_d and the tail law")
    sq.add_argument("--ideal", type=_poly_arg, required=True, help="monic modulus")
    sq.add_argument("--window", type=int, default=4, help="tail coefficients checked past d")

    st = stick_sub.add_parser(
        parents=[field], name="theta", help="Theta_n and the no-infinity variant",
        description="Theta_n and Theta'_n by --method, checked against the other method.  "
                    "The lattice method visits every monic polynomial of degree at most "
                    "n*d, d = deg I - 1, so the check grows by a factor of about q^d with "
                    "each n: at q = 3 and deg I = 3 it took about 0.2 s at n = 4, 2 s at "
                    "n = 6 and 15 to 19 s at n = 7 on a 2-core x86-64 host.")
    st.add_argument("--ideal", type=_poly_arg, required=True)
    st.add_argument("--n", type=int, required=True, help="rank")
    st.add_argument("--method", choices=["generating", "lattice"], default="generating")

    sv = stick_sub.add_parser(parents=[field], name="verify", help="identity battery for one modulus")
    sv.add_argument("--ideal", type=_poly_arg, required=True)
    sv.add_argument("--n-max", type=int, default=3, dest="n_max")

    hecke = sub.add_parser("hecke", help="sublattice counts and operator checks")
    hecke_sub = hecke.add_subparsers(dest="action", required=True)

    hp = hecke_sub.add_parser(parents=[field], name="phi", help="count sublattices of A^n with a given determinant")
    hp.add_argument("--g", type=_poly_arg, required=True, help="monic determinant")
    hp.add_argument("--n", type=int, required=True)
    hp.add_argument("--method", choices=["closed", "enum", "both"], default="both")

    hd = hecke_sub.add_parser(parents=[field], name="dcount", help="count sublattices with a fixed invariant chain")
    hd.add_argument("--chain", type=_chain_arg, required=True,
                    help="semicolon separated monic chain, largest factor first")

    hn = hecke_sub.add_parser(parents=[field], name="newton", help="Newton recurrence for the local operators")
    hn.add_argument("--x", type=_poly_arg, required=True, help="monic irreducible place")
    hn.add_argument("--n", type=int, required=True)
    hn.add_argument("--r", type=int, required=True, help="colength, at least 1")
    hn.add_argument("--lattices", type=int, default=4,
                    help="test lattices: the standard one plus seeded random ones")

    hm = hecke_sub.add_parser(parents=[field], name="mult", help="multiplicativity for coprime chains")
    hm.add_argument("--chain", type=_chain_arg, required=True)
    hm.add_argument("--chain2", type=_chain_arg, required=True)
    hm.add_argument("--lattices", type=int, default=2)

    carl = sub.add_parser("carlitz", help="torsion polynomials and the tensor square")
    carl_sub = carl.add_subparsers(dest="action", required=True)

    cp = carl_sub.add_parser(parents=[field], name="psi", help="primitive torsion factor of a modulus")
    cp.add_argument("--ideal", type=_poly_arg, required=True)

    ce = carl_sub.add_parser(parents=[field], name="example39", help="tensor square split element with checks")
    ce.add_argument("--ideal", type=_poly_arg, required=True,
                    help="monic, split, squarefree modulus")

    va = sub.add_parser(parents=[common], name="verify-all", help="full battery over the default grid")
    va.add_argument("--n-max", type=int, default=3, dest="n_max")
    va.add_argument("--newton-budget", type=int, default=DEFAULT_NEWTON_BUDGET,
                    dest="newton_budget",
                    help="cap on predicted sublattice productions per Newton case")
    va.add_argument("--pairs", type=int, default=DEFAULT_MULT_PAIRS,
                    help="coprime chain pairs per (rank, field) cell")
    for parser, faults in ((hn, battery.NEWTON_FAULTS), (va, battery.FAULTS)):
        parser.add_argument("--inject-fault", choices=faults, dest="inject_fault",
                            help="test hook that fails a check of the fault's section: "
                            + ", ".join(f"{f} ({battery.FAULTS[f]})" for f in faults))

    return top


# ---------------------------------------------------------------------------
# handlers: each takes the parsed arguments and the field context and returns
# the config entries beyond the common ones, and the check records


def _run_stick_q(args, ctx):
    S = stick_context(ctx, args.ideal)
    gammas, tail = stickelberger_q(S, window=args.window)
    rec = battery.tail_law(S, tail, d=S.d, gammas=[g.to_json() for g in gammas],
                           group_order=S.G.order)
    return {"ideal": list(S.I), "window": args.window}, [rec]


def _run_stick_theta(args, ctx):
    S = stick_context(ctx, args.ideal)
    if args.n < 1:
        raise ValueError("rank must be positive")
    th = theta_n(S, args.n, method=args.method)
    thp = theta_noinf(S, args.n, method=args.method)
    other = "lattice" if args.method == "generating" else "generating"
    agree = (th == theta_n(S, args.n, method=other)
             and thp == theta_noinf(S, args.n, method=other))
    rec = check_record(
        f"lseries.theta_n[q={ctx.q},I={fmt(S.I)},n={args.n}]",
        "assembly of Theta_n and Theta'_n from the weighted series coefficients",
        agree,
        {"theta": th.to_json(), "theta_noinf": thp.to_json(), "F_degree": args.n * S.d},
    )
    return {"ideal": list(S.I), "n": args.n, "method": args.method}, [rec]


def _run_stick_verify(args, ctx):
    S = stick_context(ctx, args.ideal)
    return {"ideal": list(S.I), "n_max": args.n_max}, verify_identities(S, n_max=args.n_max)


def _run_hecke_phi(args, ctx):
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
        f"hecke.phi_count[q={ctx.q},g={fmt(args.g)},n={args.n}]",
        "number of full rank sublattices of A^n with a prescribed determinant",
        passed,
        details,
    )
    return {"g": list(args.g), "n": args.n, "method": args.method}, [rec]


def _run_hecke_dcount(args, ctx):
    chain = InvariantType(ctx, args.chain)
    return {"chain": chain.to_json()}, [battery.dcount(ctx, chain)]


def _run_hecke_newton(args, ctx):
    rep, details = battery.newton_case(ctx, args.x, args.n, args.r, args.seed,
                                       args.inject_fault, args.lattices)
    details["identity_ok"] = rep.identity_ok
    config = {"x": list(args.x), "n": args.n, "r": args.r,
              "lattices": args.lattices, "inject_fault": args.inject_fault}
    return config, [battery.newton_record(ctx, args.x, args.n, args.r, rep.ok, details)]


def _run_hecke_mult(args, ctx):
    chain_a = InvariantType(ctx, args.chain)
    chain_b = InvariantType(ctx, args.chain2)
    config = {"chain": chain_a.to_json(), "chain2": chain_b.to_json(),
              "lattices": args.lattices}
    return config, [battery.mult(ctx, chain_a, chain_b, args.seed, args.lattices)]


def _run_carlitz_psi(args, ctx):
    return {"ideal": list(args.ideal)}, [battery.psi(ctx, args.ideal)]


def _run_carlitz_example39(args, ctx):
    rep = split_tensor_element(ctx, args.ideal)
    checks = []
    prefix = f"q={ctx.q},I={fmt(args.ideal)}"
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
    return {"ideal": list(args.ideal)}, checks


def _run_verify_all(args):
    config = {
        "command": "verify-all",
        "seed": args.seed,
        "n_max": args.n_max,
        "newton_budget": args.newton_budget,
        "pairs": args.pairs,
        "inject_fault": args.inject_fault,
        "workbench_threads": _threads_echo(),
    }
    return config, battery.verify_all(args)


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
                config, checks = _run_verify_all(args)
        else:
            handler = _HANDLERS[(args.command, args.action)]
            with Stopwatch(f"{args.command} {args.action}"):
                entries, checks = handler(args, field_context(args.p, args.m, seed=args.seed))
            config = {**_base_config(args), **entries}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = make_report(config, checks)
    write_report(doc, args.json)
    return exit_code(doc)


if __name__ == "__main__":
    sys.exit(main())
