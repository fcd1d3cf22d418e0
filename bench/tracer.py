"""Span tracer for sumprod, installed from outside the program.

The tracer finds every cross-module binding of the package: an attribute
of one module that is a function defined in another (`from .setops import
productset` inside `estimates` makes `estimates.productset` one). It
replaces each binding with a wrapper that records a span, and puts the
original back on `uninstall`. Nothing in the package is edited, and a
renamed or removed function only changes which spans exist.

A span's layer is the module that defines the function. Each thread has
its own span stack; a span that starts on a worker thread with an empty
stack is the child of the innermost span open on the thread that
installed the tracer (the op thread), which for a sweep is `run_sweep`.
Spans stay in memory until `drain` hands them over.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import statistics
import threading
import time
from dataclasses import dataclass
from types import ModuleType

LAYERS = ("residues", "setops", "spectra", "estimates", "extremal", "sweeps", "cli")

# Stage groups inside a layer, by function name. A refactor that renames a
# function edits these tuples and nothing else.
STAGES = {
    "setops.sumset": ("setops", ("sumset", "sumset_fast", "_sumset_best")),
    "setops.productset": ("setops", ("productset", "dilate")),
    "setops.rep_counts": (
        "setops",
        ("additive_rep", "quotient_rep", "unit_quotient_rep", "indicator"),
    ),
    "spectra.transform": ("spectra", ("dft_counts", "spectrum_of_set", "max_nontrivial")),
    "spectra.checks": (
        "spectra",
        (
            "divisor_bound_checks",
            "parseval_bound_check",
            "cauchy_schwarz_check",
            "ring_fourier_diagnostics",
            "spectral_quadruple_count",
        ),
    ),
}
# Layers whose call arguments are fingerprinted for setops.repeat_ratio.
FINGERPRINT_LAYERS = frozenset({"setops"})
SWEEP_DRIVER = "run_sweep"
CELL_REPORTS = frozenset({"field_bound_report", "ring_bound_report"})

_NS = 1e-9


@dataclass(frozen=True)
class Binding:
    module: ModuleType
    attribute: str
    function: object
    layer: str


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    thread: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    mass: int | None
    key: object

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def layer_modules(package: ModuleType) -> dict[str, ModuleType]:
    """Every submodule of the package by short name; `__main__` runs the CLI
    on import and is never loaded."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    }


def cross_module_bindings(package: ModuleType) -> list[Binding]:
    prefix = package.__name__ + "."
    found = []
    for module in layer_modules(package).values():
        for attribute, value in vars(module).items():
            home = getattr(value, "__module__", None)
            if (
                callable(value)
                and not isinstance(value, type)
                and isinstance(home, str)
                and home.startswith(prefix)
                and home != module.__name__
            ):
                found.append(Binding(module, attribute, value, home[len(prefix) :]))
    return found


def _arg_key(value: object) -> object:
    """Value identity of one call argument, read without computing anything
    the program would otherwise compute lazily (so `ResidueSet.array` is used
    only once the program has built it)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    state = getattr(value, "__dict__", {})
    modulus = getattr(state.get("modulus"), "m", None)
    elements = state.get("elements")
    if isinstance(elements, frozenset):
        return (modulus, len(elements), hash(elements))
    array = state.get("array")
    if array is not None and hasattr(array, "tobytes"):
        return (modulus, hash(array.tobytes()))
    return ("object", id(value))


class Tracer:
    """Wraps the package's cross-module bindings while installed."""

    def __init__(self, package: ModuleType):
        self.bindings = cross_module_bindings(package)
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, function, layer: str, name: str):
        tracer = self
        fingerprint = layer in FINGERPRINT_LAYERS

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A slice copy cannot race with the op thread popping its stack.
            parent = stack[-1] if stack else (tracer._op_stack[-1:] or [None])[0]
            sid = next(tracer._ids)
            key = tuple(_arg_key(a) for a in args) if fingerprint else None
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                mass = getattr(result, "total_mass", None)
                tracer._spans.append(
                    Span(sid, parent, threading.get_ident(), layer, name, start, end, mass, key)
                )

        return traced

    def install(self) -> None:
        self._op_stack = self._stack()
        for b in self.bindings:
            setattr(b.module, b.attribute, self.wrap(b.function, b.layer, b.attribute))

    def uninstall(self) -> None:
        for b in self.bindings:
            setattr(b.module, b.attribute, b.function)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def drain(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover.

    Children on one thread nest and never overlap; children on worker
    threads can, so the covered time is the union of their intervals.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.sid: s.duration_ns - _covered_ns(s.start_ns, s.end_ns, children.get(s.sid, []))
        for s in spans
    }


class LayerTotals:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self):
        names = (*LAYERS, *STAGES)
        self.ops = 0
        self.self_ns = dict.fromkeys(names, 0)
        self.calls = dict.fromkeys(names, 0)
        self.other_self_ns = 0
        self.pairs = 0
        self.setops_calls = 0
        self.setops_repeats = 0
        self.sweep_wall_ns = 0
        self.sweep_child_ns = 0
        self.cell_ns: list[int] = []

    def add_op(self, spans: list[Span]) -> None:
        """Fold in the spans of one op (every CLI call it made)."""
        self.ops += 1
        own = self_times_ns(spans)
        by_id = {s.sid: s for s in spans}
        seen: set[tuple[str, object]] = set()
        for s in sorted(spans, key=lambda s: s.start_ns):
            if s.layer in self.self_ns:
                self.self_ns[s.layer] += own[s.sid]
                self.calls[s.layer] += 1
            else:
                self.other_self_ns += own[s.sid]
            for stage, (layer, names) in STAGES.items():
                if s.layer == layer and s.name in names:
                    self.self_ns[stage] += own[s.sid]
                    self.calls[stage] += 1
                    if stage == "setops.rep_counts" and s.mass is not None:
                        self.pairs += s.mass
            if s.layer in FINGERPRINT_LAYERS:
                self.setops_calls += 1
                if (s.name, s.key) in seen:
                    self.setops_repeats += 1
                seen.add((s.name, s.key))
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == SWEEP_DRIVER:
                self.sweep_child_ns += s.duration_ns
                if s.name in CELL_REPORTS:
                    self.cell_ns.append(s.duration_ns)
            if s.name == SWEEP_DRIVER:
                self.sweep_wall_ns += s.duration_ns

    def metrics(self, threads: int) -> dict[str, float]:
        """Per-op means, shares of the total self time, and the sweep ratios."""
        ops = max(self.ops, 1)
        total = sum(self.self_ns[layer] for layer in LAYERS) + self.other_self_ns
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] * _NS / ops
            out[f"{layer}.share"] = self.self_ns[layer] / total if total else 0.0
            out[f"{layer}.calls"] = self.calls[layer] / ops
        for stage in STAGES:
            out[f"{stage}.self_s"] = self.self_ns[stage] * _NS / ops
            out[f"{stage}.calls"] = self.calls[stage] / ops
        out["setops.rep_counts.pairs"] = self.pairs / ops
        out["setops.repeat_ratio"] = (
            self.setops_repeats / self.setops_calls if self.setops_calls else 0.0
        )
        out["sweeps.cell_s"] = statistics.median(self.cell_ns) * _NS if self.cell_ns else 0.0
        out["sweeps.parallel_efficiency"] = (
            self.sweep_child_ns / (threads * self.sweep_wall_ns) if self.sweep_wall_ns else 0.0
        )
        return out
