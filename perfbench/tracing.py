"""In-memory span tracer that wraps ffstick's public functions from outside.

The program is not edited: ``install`` replaces each listed function in its
defining module, in every ``ffstick`` module that imported it by name, and,
for methods, on the class.  Each wrapped call records a span (name, parent,
start, end).  The hot field primitives (``pmul``, ``pdivmod``, ``padd``) are
too frequent for a span each; their calls and time are folded into counters
keyed by the innermost open span, the layer that caused them.

Spans stay in memory until ``dump`` writes them out after the timed pass.
A span's self time is its duration minus the durations of its direct
children; everything runs in one thread, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
import time
from array import array

ROOT = -1

# (module, attribute, metric name); "Class.method" attributes patch the class.
SPANS = [
    ("ffstick.fieldcore", "FieldCtx.__init__", "fieldcore.FieldCtx"),
    ("ffstick.fieldcore", "FieldCtx.is_irreducible", "fieldcore.is_irreducible"),
    ("ffstick.fieldcore", "FieldCtx.pfactor", "fieldcore.pfactor"),
    ("ffstick.groupring", "unit_group", "groupring.unit_group"),
    ("ffstick.groupring", "GroupRingElem.__mul__", "groupring.GroupRingElem.mul"),
    ("ffstick.lseries", "verify_identities", "lseries.verify_identities"),
    ("ffstick.lseries", "euler_series", "lseries.euler_series"),
    ("ffstick.lseries", "phi_series", "lseries.phi_series"),
    ("ffstick.lseries", "theta_n", "lseries.theta_n"),
    ("ffstick.lseries", "stickelberger_q", "lseries.stickelberger_q"),
    ("ffstick.heckelat", "t_local", "heckelat.t_local"),
    ("ffstick.heckelat", "sigma_apply", "heckelat.sigma_apply"),
    ("ffstick.heckelat", "hnf_reduce", "heckelat.hnf_reduce"),
    ("ffstick.heckelat", "sublattice_enum", "heckelat.sublattice_enum"),
    ("ffstick.heckelat", "quotient_invariants", "heckelat.quotient_invariants"),
    ("ffstick.heckelat", "t_chain", "heckelat.t_chain"),
    ("ffstick.heckelat", "d_count", "heckelat.d_count"),
    ("ffstick.carlitz", "psi_cyclotomic", "carlitz.psi_cyclotomic"),
    ("ffstick.carlitz", "torsion_poly", "carlitz.torsion_poly"),
    ("ffstick.carlitz", "galois_act", "carlitz.galois_act"),
    ("ffstick.carlitz", "AlgElem.inv", "carlitz.AlgElem.inv"),
    ("ffstick.carlitz", "split_tensor_element", "carlitz.split_tensor_element"),
    ("ffstick.report", "render_report", "report.render_report"),
]

# The cli's Stopwatch labels of the verify-all sections, in run order.
SECTIONS = [
    "series identity batteries", "tail law sampling", "sublattice count table",
    "rank-2 product identity", "Newton recurrence grid", "coprime multiplicativity",
    "chain partition of counts", "Carlitz torsion suite",
]

# FieldCtx methods folded into per-parent counters: (attribute, timed).
PRIMITIVES = [("pmul", True), ("pdivmod", True), ("padd", False)]


def section_name(label: str) -> str:
    """Span name of a cli Stopwatch section: 'Newton recurrence grid' ->
    'cli.section.newton_recurrence_grid'."""
    return "cli.section." + re.sub(r"[^0-9a-z]+", "_", label.lower()).strip("_")


def colength_count(Q: int, n: int, m: int) -> int:
    """Sublattices of colength m in a rank n lattice over a local ring with
    residue field of size Q: the z^m coefficient of prod_{j<n} 1/(1 - Q^j z)."""
    series = [1] + [0] * m
    for j in range(n):
        step = Q ** j
        for k in range(1, m + 1):
            series[k] += step * series[k - 1]
    return series[m]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 if no ancestor has the same name
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = [ROOT]
        self._open_names: list[int] = [-1]
        self._depth: dict[int, int] = {}
        self.prim: dict[tuple[int, str], list] = {}
        self.counts: dict[str, int] = {}
        self.chains: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.t0)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_outer.append(1 if depth == 0 else 0)
        self.t1.append(0.0)
        self.stack.append(idx)
        self._open_names.append(nid)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self.stack.pop()
        nid = self._open_names.pop()
        self._depth[nid] -= 1

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def parent_name(self) -> str | None:
        nid = self._open_names[-1]
        return self.names[nid] if nid >= 0 else None

    # -- wrappers -----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None, push_chain=False):
        """Wrap fn in a span; ``after(args, result)`` records counts, and
        ``push_chain`` keeps the first argument visible to nested calls."""
        nid = self.name_id(name)
        open_, close, chains = self.open, self.close, self.chains

        def wrapper(*args, **kwargs):
            if push_chain:
                chains.append(args[0])
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
                if push_chain:
                    chains.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def primitive_wrapper(self, name, fn, timed):
        prim, names = self.prim, self._open_names
        clock = time.perf_counter

        if timed:
            def wrapper(*args):
                t0 = clock()
                result = fn(*args)
                dt = clock() - t0
                key = (names[-1], name)
                slot = prim.get(key)
                if slot is None:
                    prim[key] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt
                return result
        else:
            def wrapper(*args):
                key = (names[-1], name)
                slot = prim.get(key)
                if slot is None:
                    prim[key] = [1, 0.0]
                else:
                    slot[0] += 1
                return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def layers(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus the folded
        primitive counters and the named counts."""
        n = len(self.t0)
        child = [0.0] * n
        for i in range(n):
            par = self.span_parent[i]
            if par != ROOT:
                child[par] += self.t1[i] - self.t0[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.t1[i] - self.t0[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.span_outer[i]:
                rec["s"] += dur
        for (_, name), (calls, secs) in self.prim.items():
            rec = out.setdefault(name, {"calls": 0, "s": 0.0})
            rec["calls"] += calls
            rec["s"] += secs
        return out

    def dump(self, path: str) -> None:
        """Write every span and the folded counters as gzipped JSON."""
        doc = {
            "names": self.names,
            "spans": [[self.span_name[i], self.span_parent[i], self.t0[i], self.t1[i]]
                      for i in range(len(self.t0))],
            "folded": [[self.names[p] if p >= 0 else None, name, c, s]
                       for (p, name), (c, s) in sorted(self.prim.items(), key=str)],
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh)


def _rebind(orig, wrapper) -> None:
    """Point every ffstick module global bound to ``orig`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ffstick" or modname.startswith("ffstick.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced ffstick function and the cli's Stopwatch sections."""
    import importlib

    import ffstick.cli  # noqa: F401  (its by-name imports must be rebound too)
    from ffstick import fieldcore, report

    def table_entries(args, _result):
        ctx = args[0]
        tables = (ctx.add_table, ctx.sub_table, ctx.mul_table)
        tracer.count("fieldcore.table_entries",
                     sum(len(row) for t in tables for row in t)
                     + len(ctx.neg_table) + len(ctx.inv_table))

    def t_local_after(args, result):
        x, m, s = args
        if isinstance(x, fieldcore.Poly):
            x = x.coeffs
        Q = s.ctx.q ** (len(x) - 1)
        tracer.count("heckelat.productions", len(s.terms) * colength_count(Q, s.n, m))
        tracer.count("heckelat.t_local.distinct_out", len(result.terms))

    def enum_after(_args, result):
        tracer.count("heckelat.sublattice_enum.lattices", len(result))

    def quotient_after(_args, result):
        if tracer.chains and tracer.parent_name() == "heckelat.t_chain":
            tracer.count("heckelat.t_chain.enumerated")
            if result == tracer.chains[-1]:
                tracer.count("heckelat.t_chain.kept")

    def render_after(_args, result):
        tracer.count("report.bytes", len(result.encode("ascii")))

    hooks = {
        "fieldcore.FieldCtx": {"after": table_entries},
        "heckelat.t_local": {"after": t_local_after},
        "heckelat.sublattice_enum": {"after": enum_after},
        "heckelat.quotient_invariants": {"after": quotient_after},
        "heckelat.t_chain": {"push_chain": True},
        "report.render_report": {"after": render_after},
    }
    for modname, attr, name in SPANS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, tracer.span_wrapper(name, orig, **hooks.get(name, {})))
            if meth == "__mul__" and vars(cls).get("__rmul__") is orig:
                setattr(cls, "__rmul__", getattr(cls, meth))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.span_wrapper(name, orig, **hooks.get(name, {})))

    for attr, timed in PRIMITIVES:
        orig = vars(fieldcore.FieldCtx)[attr]
        setattr(fieldcore.FieldCtx, attr,
                tracer.primitive_wrapper(f"fieldcore.{attr}", orig, timed))

    sw = report.Stopwatch
    enter, exit_ = sw.__enter__, sw.__exit__

    def sw_enter(self):
        self._bench_span = tracer.open(tracer.name_id(section_name(self.label)))
        return enter(self)

    def sw_exit(self, *exc):
        try:
            return exit_(self, *exc)
        finally:
            tracer.close(self._bench_span)

    sw.__enter__, sw.__exit__ = sw_enter, sw_exit
