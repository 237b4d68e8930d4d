"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S --spawn-at T [--trace]
                                [--setup-only] [--inject-fault newton]
                                [--trace-out PATH]

Run by ``run.py`` with ``PYTHONPATH=src``.  ``--spawn-at`` is the parent's
``time.monotonic()`` reading from just before the spawn, so set-up time
includes interpreter start; CLOCK_MONOTONIC is shared by every process on
the machine.

Every time is given twice: in wall seconds, and in reference seconds (see
``SpeedClock``), which is what the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

PROBE_EVERY_S = 0.05
PROBE_LOOPS = 10_000
# The probe's time at the reference speed: about its time while the host's
# two vCPUs run at their faster speed, so reference seconds read close to
# wall seconds then.
REF_PROBE_S = 0.0006


class SpeedClock:
    """Converts wall time to reference seconds.

    The host swings between two CPU speeds about 1.5x apart, for a second to
    several minutes at a time, so a wall time depends on when it was taken.
    A fixed probe loop runs before every operation, after the last one, and
    every ``PROBE_EVERY_S`` from a timer signal.  Between two probes, wall
    time counts at the rate ``REF_PROBE_S`` / (their mean duration): work
    that slows with the machine is counted at the reference speed, and work
    the program adds or removes shows in full.  Time spent inside probes is
    not counted.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end), monotonic
        self._busy = False

    def probe(self, *_):
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        start = time.monotonic()
        d = {}
        for i in range(PROBE_LOOPS):
            d[i & 1023] = i
        self.probes.append((start, time.monotonic()))
        self._busy = False

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    def ref_s(self, t0: float, t1: float) -> float:
        """Reference seconds between monotonic readings t0 and t1."""
        ps = self.probes
        # gaps between probes, each with its rate; before the first and
        # after the last probe, that probe's rate holds
        total = 0.0
        for k in range(-1, len(ps)):
            lo = ps[k][1] if k >= 0 else float("-inf")
            hi = ps[k + 1][0] if k + 1 < len(ps) else float("inf")
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                near = [ps[j][1] - ps[j][0] for j in (k, k + 1) if 0 <= j < len(ps)]
                total += overlap * REF_PROBE_S * len(near) / sum(near)
        return total


def main() -> int:
    clock = SpeedClock()
    clock.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    import workloads

    ops = workloads.setup(args.workload, args.seed, args.inject_fault)
    setup_done = time.monotonic()
    setup = {"setup_s": setup_done - args.spawn_at,
             "setup_ref_s": clock.ref_s(args.spawn_at, setup_done)}
    if args.setup_only:
        clock.stop()
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        op_span = tracer.name_id("bench.op")

    results, counts = [], {}
    t0 = time.monotonic()
    for name, fn in ops:
        clock.probe()
        start = time.monotonic()
        if tracer is not None:
            span = tracer.open(op_span)
        try:
            res = fn()
        except Exception as exc:  # a raising operation is a failed verdict
            res = {"ok": False, "counts": {}, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            if tracer is not None:
                tracer.close(span)
        end = time.monotonic()
        results.extend(res.get("parts") or
                       [{"name": name, "t0": start, "t1": end, "ok": res["ok"]}])
        if "error" in res:
            results[-1]["error"] = res["error"]
        for key, value in res["counts"].items():
            counts[key] = counts.get(key, 0) + value if isinstance(value, int) else value
    t1 = time.monotonic()
    clock.stop()
    for r in results:
        r["s"] = r["t1"] - r["t0"]
        r["ref_s"] = clock.ref_s(r.pop("t0"), r.pop("t1"))

    out = {
        **setup,
        "verdict_s": t1 - t0,
        "verdict_ref_s": clock.ref_s(t0, t1),
        "ops": results,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["trace_counts"] = dict(tracer.counts)
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
