"""Self-test of the benchmark: its gates must see a failure, and the lists in
BENCHMARK.json must match what run.py reports.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Takes about one verify-all run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check_metric_lists(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END, \
        "BENCHMARK.json end_to_end differs from run.END_TO_END"
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in run.PER_LAYER], \
        "BENCHMARK.json per_layer differs from run.PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def check_rebinding(root: str) -> None:
    """Every traced function is wrapped wherever ffstick bound it by name."""
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib

    import tracing

    originals = {}
    for modname, attr, _ in tracing.SPANS:
        if "." not in attr:
            originals[attr] = getattr(importlib.import_module(modname), attr)
    tracing.install(tracing.Tracer())
    stale = [f"{modname}.{key}" for modname, mod in sys.modules.items()
             if modname.startswith("ffstick") and mod is not None
             for key, value in vars(mod).items()
             if any(value is orig for orig in originals.values())]
    assert not stale, f"unwrapped by-name imports: {stale}"
    from ffstick import cli

    assert cli.quotient_invariants.__wrapped__ is originals["quotient_invariants"]


def check_fault_is_seen(root: str) -> None:
    result = run.run("battery", seed=0, seconds=1, trace=False, fault="newton", root=root)
    assert result["failed"] > 0 and not result["correct"], result
    print(f"injected newton fault: fail_frac {result['failed'] / result['attempted']:.3f}")


def main() -> int:
    root = os.getcwd()
    check_metric_lists(root)
    check_fault_is_seen(root)
    check_rebinding(root)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
