"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the package's layer
modules with a timing wrapper, at every module that holds a reference to
it: the defining module (so calls inside the module are caught), the
modules that imported it by name (``cli.joint_optimize``,
``optimize.sensitivity_difference``, ...) and the package ``__init__``
re-exports.  ``Tracer.uninstall`` puts the original objects back.

The evaluators are called tens of millions of times in a full preset run,
so a call does not become a span of its own: it adds to its function's
call count and self time.  Only the functions in ``SPAN_FUNCTIONS`` record
a span (name, start, end, parent span, request id), and each span carries
the call counts and self times of the traced calls made inside it.  Self
time is a call's duration minus the time spent in the traced calls it made.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

from mzi_sensitivity.errors import ZeroDerivative

PACKAGE = "mzi_sensitivity"
LAYERS = ("states", "mzi_core", "detection", "qfi", "optimize", "fock_oracle", "cli")

SPAN_FUNCTIONS = frozenset({
    "cli.run_scenario",
    "cli.sweep_rows",
    "optimize.joint_optimize",
    "optimize.optimize_bs1",
    "fock_oracle.oracle_schwinger_moments",
    "fock_oracle.oracle_field_moments",
    "fock_oracle.oracle_qfi_single",
    "fock_oracle.oracle_sensitivity",
    "fock_oracle.oracle_mean_n4",
})

SENSITIVITY_EVALS = (
    "detection.sensitivity_difference",
    "detection.sensitivity_single",
    "detection.sensitivity_homodyne",
    "detection.sensitivity_from_coefficients",
)

_ORIGINAL = "__perfbench_original__"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    zero_derivative: int = 0  # ZeroDerivative exceptions leaving the function


@dataclass
class Span:
    span_id: int
    parent_id: int
    request: str
    name: str
    start: float
    end: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)  # traced calls made inside the span
    inner_s: dict = field(default_factory=dict)  # their self time, per function

    def record(self) -> dict:
        return {
            "id": self.span_id, "parent": self.parent_id, "request": self.request,
            "name": self.name, "start": self.start, "end": self.end,
            "self_s": self.self_s, "counts": self.counts, "inner_s": self.inner_s,
        }


def public_functions(module) -> dict:
    """The module's public functions: names in ``__all__`` defined in it."""
    return {
        name: obj
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(obj := getattr(module, name, None))
        and obj.__module__ == module.__name__
    }


def is_wrapper(obj) -> bool:
    return callable(obj) and hasattr(obj, _ORIGINAL)


class Tracer:
    """Counts, self times and spans of the package's public functions."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[Span] = []
        self.request = ""
        self.joint_reports = 0
        self.joint_fallback = 0
        self.joint_hessian_verified = 0
        self.joint_request_level = 0
        self.amplitude_sizes = 0
        self._times = [0.0]  # time spent in traced callees, one entry per open call
        self._open: list[Span] = []
        self._next_id = 1
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        # one call stack is kept for the whole process, so sweep rows must
        # not run on the thread pool
        if importlib.import_module(f"{PACKAGE}.cli")._thread_cap() > 1:
            raise RuntimeError("tracing needs MZI_OPT_THREADS=1")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                qualified = f"{layer}.{name}"
                self.stats[qualified] = Stat()
                wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        times = self._times
        clock = time.perf_counter
        if name in SPAN_FUNCTIONS:
            hook = self._joint_report if name == "optimize.joint_optimize" else None

            def wrapper(*args, **kwargs):
                span = self._open_span(name)
                times.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except ZeroDerivative:
                    stat.zero_derivative += 1
                    raise
                finally:
                    elapsed = clock() - start
                    own = elapsed - times.pop()
                    times[-1] += elapsed
                    stat.calls += 1
                    stat.self_s += own
                    self._close_span(span, own)
                if hook is not None:
                    hook(result)
                return result
        else:
            hook = self._amplitude_size if name == "fock_oracle.build_state" else None

            def wrapper(*args, **kwargs):
                times.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except ZeroDerivative:
                    stat.zero_derivative += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stat.self_s += elapsed - times.pop()
                    times[-1] += elapsed
                    stat.calls += 1
                if hook is not None:
                    hook(result)
                return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _open_span(self, name: str) -> Span:
        parent = self._open[-1].span_id if self._open else 0
        span = Span(self._next_id, parent, self.request, name, time.perf_counter())
        span.counts = {n: s.calls for n, s in self.stats.items()}
        span.inner_s = {n: s.self_s for n, s in self.stats.items()}
        self._next_id += 1
        self._open.append(span)
        return span

    def _close_span(self, span: Span, own: float) -> None:
        span.end = time.perf_counter()
        span.self_s = own
        calls, inner = span.counts, span.inner_s
        span.counts = {n: s.calls - calls[n] for n, s in self.stats.items() if s.calls != calls[n]}
        span.inner_s = {n: self.stats[n].self_s - inner[n] for n in span.counts}
        self._open.pop()
        self.spans.append(span)

    # -- result hooks -------------------------------------------------------

    def _joint_report(self, report) -> None:
        self.joint_reports += 1
        self.joint_fallback += bool(report.fallback_used)
        self.joint_hessian_verified += bool(report.hessian_verified)
        if self._request_level_call():
            self.joint_request_level += 1

    def _request_level_call(self) -> bool:
        """Whether the current call serves the request as a whole, not one
        sweep row: the nearest public (or nested) function of ``cli`` on the
        stack is ``run_scenario`` or ``sweep_rows`` itself, not a row
        evaluator nested inside ``sweep_rows``."""
        frame = sys._getframe(1)
        while frame is not None:
            name = frame.f_code.co_name
            if frame.f_globals.get("__name__") == f"{PACKAGE}.cli" and not name.startswith("_"):
                return name in ("run_scenario", "sweep_rows")
            frame = frame.f_back
        return True

    def _amplitude_size(self, state) -> None:
        self.amplitude_sizes += state.amplitudes.size

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def self_s(self, name: str) -> float:
        return self.stats[name].self_s

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(layer + "."))

    def layer_zero_derivative(self, layer: str) -> int:
        return sum(s.zero_derivative for n, s in self.stats.items() if n.startswith(layer + "."))

    def sensitivity_evals(self) -> int:
        return sum(self.calls(n) for n in SENSITIVITY_EVALS)

    def evals_in(self, span_name: str) -> int:
        """Sensitivity evaluations made inside spans of ``span_name``."""
        return sum(
            span.counts.get(n, 0)
            for span in self.spans
            if span.name == span_name
            for n in SENSITIVITY_EVALS
        )
