"""Span tracing of qetkd's public functions, installed from outside the package.

The tracer replaces each listed function with a timing wrapper in every
``qetkd`` module namespace that binds it (``prepare`` is bound in
``protocol``, ``noise``, ``qkd``, ``cli`` and the package itself), so
calls between modules are seen too.  ``uninstall`` puts every original
back.  Spans are kept in memory as a flat list; self times and the
derived per-layer counters are computed from that list after each pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) -> span name.  models.build covers every model builder.
TRACED = {
    ("spinops", "assemble"): "spinops.assemble",
    ("spinops", "eigendecompose"): "spinops.eigendecompose",
    ("spinops", "pauli_on_site"): "spinops.pauli_on_site",
    ("spinops", "require_density_matrix"): "spinops.require_density_matrix",
    ("models", "star"): "models.build",
    ("models", "chain3"): "models.build",
    ("models", "two_site"): "models.build",
    ("models", "two_site_partition_standard"): "models.build",
    ("models", "two_site_partition_alternative"): "models.build",
    ("protocol", "ground_state"): "protocol.ground_state",
    ("protocol", "prepare"): "protocol.prepare",
    ("protocol", "ensemble_for_state"): "protocol.ensemble_for_state",
    ("protocol", "optimize_bob_basis"): "protocol.optimize_bob_basis",
    ("noise", "threshold_scan"): "noise.threshold_scan",
    ("noise", "mix_state"): "noise.mix_state",
    ("noise", "default_chain_coupling"): "noise.default_chain_coupling",
    ("qkd", "run_session"): "qkd.run_session",
    ("qkd", "run_multiparty"): "qkd.run_multiparty",
    ("qkd", "verify_resource_state"): "qkd.verify_resource_state",
    ("qkd", "write_transcript"): "qkd.write_transcript",
    ("adversary", "eve_independent"): "adversary.eve_independent",
    ("adversary", "eve_postselect"): "adversary.eve_postselect",
    ("adversary", "split_attack"): "adversary.split_attack",
    ("rng", "stream"): "rng.stream",
    ("cli", "main"): "cli.main",
}

SPAN_NAMES = tuple(dict.fromkeys(TRACED.values()))

# Counters derived from the span tree, beyond <span>.calls/.self_s/.errors.
DERIVED = (
    "spinops.eigendecompose.dim_max",
    "protocol.prepare.ctx_mb",
    "noise.evals_per_scan",
    "noise.eigh_per_scan",
    "qkd.prepare_per_round",
    "qkd.verify.table_builds_per_round",
    "qkd.write_transcript.mb",
)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# Per-layer metrics measured by the benchmark runner rather than read off spans.
RUNNER = ("cli.out_mb", "trace.coverage", "trace.overhead")


def layer_metric_names() -> list[str]:
    """Every per-layer metric the span tree of a pass yields, in a fixed order."""
    names = [f"{span}.{kind}" for span in SPAN_NAMES
             for kind in ("calls", "self_s", "errors")]
    return names + list(DERIVED)


def per_layer_names() -> list[str]:
    """Every metric a traced run reports."""
    return layer_metric_names() + list(RUNNER)


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_mb", ".mb")):
        return "MB"
    if name.startswith("trace."):
        return "ratio"
    return "count"


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def aggregate(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: calls, self time, errors, derived counters."""
    out = {name: 0.0 for name in layer_metric_names()}
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.errors"] += s.error

    def count_under(child: str, parent: str) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s.name == child and _has_ancestor(spans, i, parent))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    def attr_max(name: str, key: str) -> float:
        return float(max((s.attrs.get(key, 0) for s in spans if s.name == name),
                         default=0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scans = out["noise.threshold_scan.calls"]
    out["spinops.eigendecompose.dim_max"] = attr_max("spinops.eigendecompose", "dim")
    out["protocol.prepare.ctx_mb"] = attr_max("protocol.prepare", "ctx_bytes") / 1e6
    out["noise.evals_per_scan"] = ratio(
        count_under("protocol.ensemble_for_state", "noise.threshold_scan"), scans)
    out["noise.eigh_per_scan"] = ratio(
        count_under("spinops.eigendecompose", "noise.threshold_scan"), scans)
    out["qkd.prepare_per_round"] = ratio(
        count_under("protocol.prepare", "qkd.run_session"),
        attr_sum("qkd.run_session", "rounds"))
    out["qkd.verify.table_builds_per_round"] = ratio(
        count_under("spinops.require_density_matrix", "qkd.verify_resource_state"),
        attr_sum("qkd.verify_resource_state", "rounds"))
    out["qkd.write_transcript.mb"] = attr_sum("qkd.write_transcript", "bytes") / 1e6
    return out


def root_time(spans: list[Span]) -> float:
    """Wall time covered by root spans (calls made from outside any traced call)."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


# ---------------------------------------------------------------------------
# attributes recorded on a span from the call's arguments or result
# ---------------------------------------------------------------------------

def _ctx_bytes(ctx) -> int:
    total = 0
    for value in vars(ctx).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def _attrs(span: str, bound: inspect.BoundArguments, result) -> dict:
    args = bound.arguments
    if span == "spinops.eigendecompose":
        return {"dim": int(args["h"].shape[0])}
    if span == "protocol.prepare":
        return {"ctx_bytes": _ctx_bytes(result)}
    if span == "qkd.run_session":
        return {"rounds": int(args["config"].rounds)}
    if span == "qkd.verify_resource_state":
        return {"rounds": int(args.get("rounds", 2000))}
    if span == "qkd.write_transcript":
        return {"bytes": os.path.getsize(args["path"])}
    return {}


_WITH_ATTRS = {"spinops.eigendecompose", "protocol.prepare", "qkd.run_session",
               "qkd.verify_resource_state", "qkd.write_transcript"}


class Tracer:
    """Installs span wrappers into the qetkd modules; one pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        sig = inspect.signature(fn) if span_name in _WITH_ATTRS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(span_name, parent, time.perf_counter())
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = _attrs(span_name, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in loaded qetkd modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qetkd" or name.startswith("qetkd."))]
        for (mod_name, fn_name), span_name in TRACED.items():
            original = getattr(sys.modules[f"qetkd.{mod_name}"], fn_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def bindings(self) -> list[tuple[object, str, object]]:
        """(module, attribute, original) for every binding currently replaced."""
        return list(self._patched)

    @contextlib.contextmanager
    def installed(self):
        """Trace the block; afterwards every wrapped attribute must be the original."""
        self.install()
        bindings = self.bindings()
        try:
            yield
        finally:
            self.uninstall()
        if not all(getattr(m, a) is orig for m, a, orig in bindings):
            raise RuntimeError("a wrapped qetkd attribute was not restored")

    def take(self) -> list[Span]:
        """Spans recorded since the last call; the list restarts empty."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, self.spans = self.spans, []
        return spans
