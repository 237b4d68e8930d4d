"""ffstick benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py --workload battery|newton|series|bigfield \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each pass of the workload runs in a fresh single-threaded interpreter
(``worker.py``), one pass at a time, until the next pass would end after
``--seconds``; at least one pass always runs.  Every operation's verdict is
checked, and every deterministic count must repeat exactly: between the
passes of a run, and between runs of one seed on the same code (the counts
are kept in ``.bench_build/perfbench/state.json``).  A mismatch or a failed
operation makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  Their times are in reference
seconds (``worker.SpeedClock``): wall time scaled by how fast a fixed probe
loop ran around it, because the shared host swings between two CPU speeds
about 1.5x apart, for seconds to minutes at a time.  The table shows the
wall times too.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, in wall seconds, plus the
tracing overhead: traced minus untraced ``verdict_s``.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics, each metric with its value and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import SECTIONS, section_name  # noqa: E402

WORKLOADS = ("battery", "newton", "series", "bigfield")
RUN_LIMIT_S = 170.0  # every child is killed before a run reaches this
OUT_DIR = os.path.join(".bench_build", "perfbench")

END_TO_END = [
    ("verdict_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer():
    """(metric, unit, better, source) for every per-layer metric.

    source is ("span", name, field) for a traced function's calls, inclusive
    seconds or self seconds; ("count", name) for a counter; ("ratio", num,
    den) for a ratio of counters; ("overhead",) for the tracing overhead."""
    out = []

    def span(name, *fields):
        for f in fields:
            out.append((f"{name}.{f}", "count" if f == "calls" else "s", "lower",
                        ("span", name, f)))

    def count(name, unit="count"):
        out.append((name, unit, "lower", ("count", name)))

    span("fieldcore.FieldCtx", "calls", "s")
    count("fieldcore.table_entries")
    span("fieldcore.pmul", "calls", "s")
    span("fieldcore.pdivmod", "calls", "s")
    span("fieldcore.padd", "calls")
    span("fieldcore.is_irreducible", "calls", "s")
    span("fieldcore.pfactor", "calls", "s")
    span("groupring.unit_group", "calls", "s")
    span("groupring.GroupRingElem.mul", "calls", "s")
    for fn in ("verify_identities", "euler_series", "phi_series", "theta_n",
               "stickelberger_q"):
        span(f"lseries.{fn}", "s")
    span("heckelat.t_local", "calls", "s", "self_s")
    span("heckelat.sigma_apply", "calls", "s", "self_s")
    span("heckelat.hnf_reduce", "calls", "s")
    count("heckelat.productions")
    out.append(("heckelat.t_local.support_ratio", "ratio", "higher",
                ("ratio", "heckelat.t_local.distinct_out", "heckelat.productions")))
    span("heckelat.sublattice_enum", "calls", "s")
    count("heckelat.sublattice_enum.lattices")
    span("heckelat.quotient_invariants", "calls", "s")
    span("heckelat.t_chain", "s")
    out.append(("heckelat.t_chain.keep_ratio", "ratio", "higher",
                ("ratio", "heckelat.t_chain.kept", "heckelat.t_chain.enumerated")))
    span("heckelat.d_count", "s")
    span("carlitz.psi_cyclotomic", "s")
    span("carlitz.torsion_poly", "s")
    span("carlitz.galois_act", "calls", "s")
    span("carlitz.AlgElem.inv", "calls", "s")
    span("carlitz.split_tensor_element", "s")
    for label in SECTIONS:
        span(section_name(label), "s")
    span("report.render_report", "s")
    count("report.bytes", "bytes")
    out.append(("trace.overhead_s", "s", "lower", ("overhead",)))
    return out


PER_LAYER = _per_layer()


class RunError(Exception):
    pass


def _code_digest(root: str) -> str:
    """Digest of the program and benchmark sources: counts are compared only
    between runs of identical code."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith((".py", ".json")):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, root: str, workload: str, seed: int, deadline: float,
                 fault: str | None):
        self.root = root
        self.base = [sys.executable, os.path.join(HERE, "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        if fault:
            self.base += ["--inject-fault", fault]
        self.deadline = deadline
        self.trace_out = os.path.join(root, OUT_DIR, f"trace-{workload}-seed{seed}.json.gz")
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # echoed into verify-all's report config, so pin it for stable bytes
        self.env["WORKBENCH_THREADS"] = "1"

    def child(self, *extra: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError("run time limit reached")
        start = time.monotonic()
        try:
            proc = subprocess.run(self.base + ["--spawn-at", repr(start)] + list(extra),
                                  cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"pass {' '.join(extra)} passed the run time limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_only(self) -> dict:
        return self.child("--setup-only")

    def passes(self, seconds: float, trace: bool) -> tuple[list, list, list]:
        """Untraced and traced passes, alternating when tracing, until the
        next round would end after ``seconds``.  Without tracing, a
        set-up-only interpreter runs before each pass, so that the set-up
        times are spread over the whole run."""
        plain, traced, setups = [], [], []
        end = time.monotonic() + seconds
        while True:
            start = time.monotonic()
            if not trace:
                setups.append(self.setup_only())
            plain.append(self.child())
            if trace:
                traced.append(self.child("--trace", "--trace-out", self.trace_out))
            round_s = time.monotonic() - start
            if time.monotonic() + round_s > end:
                return plain, traced, setups


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _op_medians(passes: list, key: str) -> list:
    """One value per distinct operation, its median over the passes: the
    operations differ in size by orders of magnitude, so quantiles of the
    pooled samples would jump between neighbouring operations."""
    return [statistics.median(p["ops"][i][key] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def _det_counts(p: dict) -> dict:
    """Everything in a pass that must repeat exactly."""
    out = {"ops": len(p["ops"]), **p["counts"]}
    if "layers" in p:
        out.update({f"{k}.calls": v["calls"] for k, v in p["layers"].items()})
        out.update(p["trace_counts"])
    return out


def _check_state(root: str, key: str, counts: dict) -> list[str]:
    """Compare counts with the last run of the same code, workload and seed."""
    path = os.path.join(root, OUT_DIR, "state.json")
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    old = state.get(key)
    if old is None:
        state[key] = counts
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return [f"{k}: {old.get(k)!r} before, {counts.get(k)!r} now"
            for k in sorted(set(old) | set(counts)) if old.get(k) != counts.get(k)]


def _layer_metrics(traced: list, plain: list) -> dict:
    counts = traced[0]["trace_counts"]

    def value(source):
        kind = source[0]
        if kind == "span":
            _, name, field = source
            vals = [p["layers"].get(name, {}).get(field, 0) for p in traced]
            return vals[0] if field == "calls" else statistics.median(vals)
        if kind == "count":
            return counts.get(source[1], 0)
        if kind == "ratio":
            den = counts.get(source[2], 0)
            return counts.get(source[1], 0) / den if den else 0.0
        return (statistics.median(p["verdict_ref_s"] for p in traced)
                - statistics.median(p["verdict_ref_s"] for p in plain))

    return {name: {"value": value(src), "unit": unit} for name, unit, _, src in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool,
        fault: str | None = None, root: str | None = None) -> dict:
    """One benchmark run; returns the result object and prints a summary."""
    root = root or os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffstick", "__init__.py")):
        raise RunError(f"no ffstick sources under {os.path.join(root, 'src')}")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    runner = Runner(root, workload, seed, time.monotonic() + RUN_LIMIT_S, fault)

    runner.setup_only()  # warm-up: byte-compiles the sources once, not timed
    plain, traced, setups = runner.passes(seconds, trace)

    problems = []
    ops = [op for p in plain + traced for op in p["ops"]]
    failed = sum(1 for op in ops if not op["ok"])
    for op in ops:
        if not op["ok"]:
            problems.append(f"operation {op['name']} failed {op.get('error', '')}".rstrip())
    for group in (plain, traced):
        for p in group[1:]:
            if _det_counts(p) != _det_counts(group[0]):
                problems.append("deterministic counts differ between passes")
    key = f"{_code_digest(root)}/{workload}/seed{seed}/trace{int(trace)}/fault{fault}"
    base = _det_counts((traced or plain)[0])
    problems += [f"count changed since the last run: {m}" for m in _check_state(root, key, base)]

    print(f"ffstick benchmark: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print(f"  passes: {len(plain)} untraced, {len(traced)} traced; operations: "
          f"{len(ops)} attempted, {failed} failed, fail_frac {failed / len(ops):.4f}")
    if trace:
        metrics = _layer_metrics(traced, plain)
    else:
        setups += plain  # each pass timed its own set-up too
        samples = {
            "verdict_s": [p["verdict_ref_s"] for p in plain],
            "op_p50_ms": [s * 1000.0 for s in _op_medians(plain, "ref_s")],
            "setup_s": [p["setup_ref_s"] for p in setups],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        samples["op_p90_ms"] = samples["op_p50_ms"]
        wall = {
            "verdict_s": [p["verdict_s"] for p in plain],
            "op_p50_ms": [s * 1000.0 for s in _op_medians(plain, "s")],
            "setup_s": [p["setup_s"] for p in setups],
        }
        wall["op_p90_ms"] = wall["op_p50_ms"]

        def summary(name, xs):
            return _p90(xs) if name == "op_p90_ms" else statistics.median(xs)

        metrics = {name: summary(name, samples[name]) for name, _ in END_TO_END}
        for name, unit in END_TO_END:
            lo, hi = _quartiles(samples[name])
            n = len(samples[name])
            what = f"{n} operations x {len(plain)} passes" if name.startswith("op_") else n
            line = (f"  {name:<18}{metrics[name]:>14.4f} {unit:<3} "
                    f"q1 {lo:.4f}  q3 {hi:.4f}  n={what}")
            if name in wall:
                line += f"; wall {summary(name, wall[name]):.4f}"
            print(line)
        if "productions" in plain[0]["counts"]:
            prods = plain[0]["counts"]["productions"]
            print(f"  {'productions_per_s':<18}{prods / metrics['verdict_s']:>14.1f} 1/s "
                  f"({prods} lattice productions per pass)")
        print(f"  {'fail_frac':<18}{failed / len(ops):>14.4f} ratio")
        print("  per operation, median reference ms: " + "; ".join(
            f"{op['name']} {ms:.1f}" for op, ms in zip(plain[0]["ops"], samples["op_p50_ms"])))
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<46}{m['value']:>16.6g} {m['unit']}")
    for line in problems:
        print(f"  PROBLEM: {line}")
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
