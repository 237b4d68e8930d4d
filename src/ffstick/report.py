"""Verification report documents: assembly, canonical serialization, schema.

A report is a plain JSON object: tool version, a config echo, the list of
check records sorted by check_id, and a pass/fail summary.  Reports with the
same config and seed are byte identical across runs, which is part of the
contract: no timestamps, no timings, no floats ever appear in the document.
Wall-clock timings are a console-only concern and go to stderr.

Each check record is {check_id, anchor, status, details}.  The anchor names
the mathematical statement in plain words; details hold exact parameters and,
for failing checks, a witness under ``details["witness"]``.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import resources

from . import __version__

__all__ = [
    "check_record",
    "make_report",
    "render_report",
    "write_report",
    "load_schema",
    "exit_code",
    "Stopwatch",
]


def check_record(check_id: str, anchor: str, passed: bool, details: dict | None = None) -> dict:
    return {
        "check_id": check_id,
        "anchor": anchor,
        "status": "pass" if passed else "fail",
        "details": details or {},
    }


def make_report(config: dict, checks: list[dict]) -> dict:
    """Assemble the document; checks are sorted by id (stable for ties)."""
    ordered = sorted(checks, key=lambda c: c["check_id"])
    failed = sum(1 for c in ordered if c["status"] != "pass")
    return {
        "version": __version__,
        "config": config,
        "checks": ordered,
        "summary": {"total": len(ordered), "failed": failed},
    }


def render_report(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, one trailing
    newline.  Byte identical for equal documents."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def write_report(doc: dict, path: str | None) -> None:
    text = render_report(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def load_schema() -> dict:
    with resources.files(__package__).joinpath("report.schema.json").open("r") as fh:
        return json.load(fh)


def exit_code(doc: dict) -> int:
    return 0 if doc["summary"]["failed"] == 0 else 1


class Stopwatch:
    """Reports elapsed wall time on stderr, keeping stdout byte stable."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        ms = (time.perf_counter() - self._t0) * 1000.0
        print(f"[time] {self.label}: {ms:.1f} ms", file=sys.stderr)
        return False
