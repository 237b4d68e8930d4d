"""The four benchmark workloads: inputs made from a seed, operations that
return a verdict, and the correctness gate on each verdict.

Every workload is built by ``setup(name, seed, fault)``, which returns the
ordered list of operations.  An operation is a ``(name, fn)`` pair; ``fn()``
returns ``{"ok": bool, "counts": {...}}`` and, for ``battery``, ``"parts"``:
the ``verify-all`` sections read from the ``[time]`` lines on stderr, which
stand in for the one call as separate operations, each with the monotonic
readings ``t0`` and ``t1`` at which it started and ended.  ``counts`` holds only
deterministic numbers; the runner checks that they repeat exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout

# Call through the modules, so that the traced run's wrappers are seen.
from ffstick import carlitz, cli, fieldcore, groupring, heckelat, lseries, report
from tracing import SECTIONS

# verify-all's work varies by up to 2x between seeds (the coprime chain
# pairs are drawn from it), so the battery always runs the reference seed
# that the roadmap's baseline and the byte-identity checks use.
BATTERY_SEED = 123
# Smaller than verify-all's defaults (10 pairs, 60000 productions), so that a
# pass takes about 5 s and a run repeats every section several times; the
# chain operators still take about two thirds of a pass, and Newton is second.
BATTERY_PAIRS = 2
BATTERY_NEWTON_BUDGET = 15_000

# Predicted lattice productions per test lattice, as verify-all's default.
NEWTON_BUDGET = 60_000
NEWTON_LATTICES = 4

# (p, m, modulus degree, modulus kind) per series operation.
SERIES_SLOTS = [(2, 2, 2, "split"), (5, 1, 2, "split"),
                (2, 1, 3, "irreducible"), (3, 1, 3, "irreducible")]
SERIES_GALOIS_PAIRS = 3

# (p, m) per bigfield operation: q in the hundreds, both p = 2 and odd p.
BIGFIELD_FIELDS = [(5, 3), (2, 7), (3, 5), (2, 8)]
BIGFIELD_POLYS = 4
BIGFIELD_DEGREE = 6

SECTION_TIME = re.compile(r"^\[time\] (.+): ([0-9.]+) ms$")
# The check ids each verify-all section emits, by section; a few ids fit two.
SECTION_CHECKS = dict(zip(SECTIONS, [
    r"^lseries\.[a-z_0-9]+\[q=\d+,I=",
    r"^lseries\.tail_law\[",
    r"^hecke\.phi_table\[",
    r"^lseries\.theta2_product\[q=\d+\]$",
    r"^hecke\.newton",
    r"^hecke\.mult\[",
    r"^hecke\.bridge\[",
    r"^carlitz\.",
]))


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# ---------------------------------------------------------------------------
# battery: the command users run


class _Stamped(io.StringIO):
    """A stream that notes when each piece of text was written to it."""

    def __init__(self):
        super().__init__()
        self.stamps: list[tuple[float, str]] = []

    def write(self, text):
        self.stamps.append((time.monotonic(), text))
        return super().write(text)


def _battery(fault):
    import jsonschema  # only the battery validates a report

    argv = ["verify-all", "--seed", str(BATTERY_SEED), "--pairs", str(BATTERY_PAIRS),
            "--newton-budget", str(BATTERY_NEWTON_BUDGET)]
    if fault:
        argv += ["--inject-fault", fault]

    def run():
        out, err = io.StringIO(), _Stamped()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        sections = []  # (label, start, end): a [time] line is written as its section ends
        for written, line in err.stamps:
            m = SECTION_TIME.match(line)
            if m and m.group(1) != "verify-all total":
                sections.append((m.group(1), written - float(m.group(2)) / 1000.0, written))
        try:
            doc = json.loads(text)
            jsonschema.validate(doc, report.load_schema())
        except (ValueError, jsonschema.ValidationError):
            doc = None
        whole_run_ok = (doc is not None and code == report.exit_code(doc)
                        and [s for s, _, _ in sections] == SECTIONS)
        failing: set[str] = set()
        for rec in doc["checks"] if doc is not None else []:
            if rec["status"] != "pass":
                claimed = {s for s, pat in SECTION_CHECKS.items()
                           if re.match(pat, rec["check_id"])}
                whole_run_ok = whole_run_ok and bool(claimed)
                failing |= claimed
        now = time.monotonic()
        parts = [{"name": s, "t0": t0, "t1": t1, "ok": whole_run_ok and s not in failing}
                 for s, t0, t1 in sections] or [{"name": "verify-all", "t0": now, "t1": now,
                                                  "ok": False}]
        return {
            "ok": code == 0 and whole_run_ok,
            "parts": parts,
            "counts": {"report.sha256": hashlib.sha256(text.encode()).hexdigest(),
                       "report.bytes": len(text.encode()), "exit_code": code},
        }

    return [("verify-all", run)]


# ---------------------------------------------------------------------------
# newton: criterion 06's grid under the benchmark's production budget


def _newton(seed):
    ops = []
    for q in (2, 3):
        ctx = fieldcore.field_context(q, seed=seed)
        for x in ((0, 1), ctx.monic_irreducibles(2)[0]):
            for n in (2, 3):
                for r in (1, 2, 3, 4):
                    cost = heckelat.predict_newton_cost(ctx, x, n, r)
                    if cost > NEWTON_BUDGET:
                        continue
                    # seeded sublattices that are never A^n itself, so every
                    # cell runs the standard and the general t_local branch
                    rng = _rng(seed, q, x, n, r)
                    lattices = [heckelat.standard_lattice(ctx, n)]
                    while len(lattices) < NEWTON_LATTICES:
                        L = heckelat.random_sublattice(ctx, n, rng.getrandbits(32), max_deg=1)
                        if not L.is_standard:
                            lattices.append(L)
                    ops.append((f"q={q},x={x},n={n},r={r}",
                                _newton_op(ctx, x, n, r, lattices, cost)))
    return ops


def _newton_op(ctx, x, n, r, lattices, cost):
    def run():
        rep = heckelat.newton_verify(ctx, x, n, r, test_lattices=lattices)
        return {"ok": rep.ok and rep.cases == len(lattices),
                "counts": {"productions": cost * len(lattices)}}

    return run


# ---------------------------------------------------------------------------
# series: identity batteries and Carlitz checks on seeded moduli


def _series(seed):
    ops = []
    for p, m, d, kind in SERIES_SLOTS:
        ctx = fieldcore.field_context(p, m, seed=seed)
        rng = _rng(seed, p, m, d)
        if kind == "split":
            roots = rng.sample(range(ctx.q), d)
            I = (1,)
            for a in roots:
                I = ctx.pmul(I, (ctx.neg_table[a], 1))
        else:
            I = rng.choice(ctx.monic_irreducibles(d))
        ops.append((f"q={ctx.q},I={I}", _series_op(p, m, seed, I, kind == "split",
                                                   rng.getrandbits(32))))
    return ops


def _xmul(ctx, a, b):
    """Product of dense polynomials in X with F_q[t] tuple coefficients."""
    out = [()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = ctx.padd(out[i + j], ctx.pmul(ca, cb))
    return out


def _series_op(p, m, seed, I, split, pair_seed):
    def run():
        # a fresh context per modulus, as one `ffstick stick verify` call has
        ctx = fieldcore.field_context(p, m, seed=seed)
        records = lseries.verify_identities(lseries.stick_context(ctx, I), n_max=3)
        ok = all(r["status"] == "pass" for r in records)

        G = groupring.unit_group(ctx, I)
        psi = [c.coeffs for c in carlitz.psi_cyclotomic(ctx, I)]
        ok = ok and len(psi) - 1 == G.order
        prod = [(), (1,)]  # Psi_1 = X
        for g in ctx.monic_divisors(I)[1:]:
            prod = _xmul(ctx, prod, [c.coeffs for c in carlitz.psi_cyclotomic(ctx, g)])
        ok = ok and prod == carlitz.torsion_poly(ctx, I).to_dense()

        alg = carlitz.TorsionAlgebra(ctx, I)
        x = alg.x_gen()
        rng = random.Random(pair_seed)
        act = carlitz.galois_act
        for _ in range(SERIES_GALOIS_PAIRS):
            a, b = (G.elements[rng.randrange(G.order)] for _ in range(2))
            ab = ctx.pmod(ctx.pmul(a, b), I)
            ok = ok and act(alg, a, act(alg, b, x)) == act(alg, ab, x)
        if split:
            ok = ok and carlitz.split_tensor_element(ctx, I).ok
        return {"ok": ok, "counts": {"records": len(records), "psi_degree": len(psi) - 1}}

    return run


# ---------------------------------------------------------------------------
# bigfield: table building for q in the hundreds, then factorization


def _bigfield(seed):
    ops = []
    for p, m in BIGFIELD_FIELDS:
        q = p ** m
        rng = _rng(seed, p, m)
        polys = [tuple(rng.randrange(q) for _ in range(BIGFIELD_DEGREE))
                 + (rng.randrange(1, q),) for _ in range(BIGFIELD_POLYS)]
        ops.append((f"q={q}", _bigfield_op(p, m, seed, polys)))
    return ops


def _bigfield_op(p, m, seed, polys):
    def run():
        ctx = fieldcore.field_context(p, m, seed=seed)
        ok = True
        factors = 0
        for f in polys:
            unit, found = ctx.pfactor(f)
            prod = (unit,)
            for g, mult in found:
                ok = ok and g[-1] == 1 and ctx.is_irreducible(g)
                for _ in range(mult):
                    prod = ctx.pmul(prod, g)
                factors += mult
            ok = ok and prod == f
        return {"ok": ok, "counts": {"factors": factors}}

    return run


def setup(workload: str, seed: int, fault: str | None = None):
    """Inputs and operations of one workload pass, all made from ``seed``."""
    if workload == "battery":
        return _battery(fault)
    if fault:
        raise ValueError("faults can only be injected into the battery")
    return {"newton": _newton, "series": _series, "bigfield": _bigfield}[workload](seed)
