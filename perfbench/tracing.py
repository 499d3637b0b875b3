"""Span tracing of cflimits from outside, by wrapping its public functions.

Modules bind some functions by name (``from .sphere import
chordal_distance``), so replacing ``sphere.chordal_distance`` alone would
miss the calls made through ``limitset`` or ``cf``.  ``Tracer.install``
therefore replaces every binding of a traced function in every loaded
cflimits module, and wraps methods on their class.  ``uninstall`` puts
the originals back.

Spans are kept in memory (name, start, end, parent span, problem id) and
written out at the end.  Self time is a span's duration minus the time
covered by its child spans.  The boundary hooks also count work
(``n_terms``, bytes written) and whether a solve's stop index already
satisfies its tail bound at ``tol``.

Which end-to-end metric each layer metric should move:

* ``limitset.UnitModulusNumber.power.self_s``: solve_ms.p50 on slow-tail
  and fast-tail, nothing on cli;
* ``cf.ConvergentStream.step.self_s``: solves_per_s on slow-tail, less on
  fast-tail;
* ``matprod.cocycle_limit.self_s``: solve_ms.p50 on slow-tail, barely
  fast-tail;
* ``sphere.chordal_distance.calls``/``.self_s``: solve_ms.p90 on
  finite-order, not slow-tail;
* ``rsmatrix.rs_approximants.self_s`` and ``bauermuir.*``: fast-tail;
* ``*.n_terms.sum`` and ``stop.tail_bound_share``: err_over_tol.max on
  slow-tail together with its times (any stopping-rule change shows here);
* ``svgfig.*``: solve_ms.p50 of the figure commands on cli; import time
  moves setup_s everywhere and solve_ms.p50 on cli only.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute) of every traced callable; "Class.method" for methods.
SPANS = (
    ("sphere", "chordal_distance"),
    ("sphere", "MobiusMap.apply"),
    ("sphere", "mobius_through"),
    ("cf", "ConvergentStream.step"),
    ("cf", "modified_value"),
    ("cf", "evaluate"),
    ("limitset", "UnitModulusNumber.power"),
    ("limitset", "compute_h_direct"),
    ("limitset", "compute_h_via_modifications"),
    ("limitset", "det_product"),
    ("limitset", "residue_limits"),
    ("bauermuir", "BMTransformResult.evaluate"),
    ("qseries", "verify_ramanujan_claim"),
    ("matprod", "cocycle_limit"),
    ("matprod", "residue_matrix_limits"),
    ("recur", "asymptotic_coefficients"),
    ("recur", "PoincareRecurrence.iterate"),
    ("rsmatrix", "rs_approximants"),
    ("svgfig", "scatter_svg"),
    ("svgfig", "histogram_svg"),
)
#: ``cli.main`` gets one span name per subcommand.
CLI_COMMANDS = ("verify", "limit-set", "figure", "matrix-product", "recurrence", "rs-cf")
COUNTERS = ("limitset.n_terms.sum", "matprod.n_terms.sum", "svgfig.bytes_written")


def span_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in SPANS] + [f"cli.main.{c}" for c in CLI_COMMANDS]


class Tracer:
    """Records spans of traced cflimits calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.problem_of = array("i")
        self.first = array("b")  # 0 for resumed generator segments
        self._stack: list[int] = []
        self.problem = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stop_attempts = 0
        self.stop_certified = 0
        self._undo: list[tuple[object, str, object]] = []
        for label in span_names():
            self._name_id(label)

    # -- span store ------------------------------------------------------

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, nid: int, first: int = 1) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.problem_of.append(self.problem)
        self.first.append(first)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, label: str, fn, hook=None):
        nid = self._name_id(label)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = 1
                while True:
                    idx = tracer._open(nid, first)
                    first = 0
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)
                    yield item
            return generator

        if hook is None:
            @functools.wraps(fn)
            def plain(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            return plain

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                hook(_bound(signature, args, kwargs), None)
                raise
            tracer._close(idx)
            hook(_bound(signature, args, kwargs), result)
            return result
        return hooked

    def _wrap_cli_main(self, fn):
        ids = {c: self._name_id(f"cli.main.{c}") for c in CLI_COMMANDS}
        tracer = self

        @functools.wraps(fn)
        def main(argv=None):
            idx = tracer._open(ids[argv[0]])
            try:
                return fn(argv)
            finally:
                tracer._close(idx)
        return main

    # -- boundary counts -------------------------------------------------

    def _stop(self, n: int | None, tail_bound, tol: float) -> None:
        self.stop_attempts += 1
        if n is not None and tail_bound is not None and tail_bound(n) < tol:
            self.stop_certified += 1

    def _hooks(self) -> dict:
        def limitset_solve(args, result):
            n = None if result is None else result.n_terms
            self.counters["limitset.n_terms.sum"] += n or 0
            self._stop(n, args["spec"].tail_bound, args["tol"])

        def cocycle(args, result):
            n = None if result is None else result.n_terms
            self.counters["matprod.n_terms.sum"] += n or 0
            self._stop(n, args["pair"].tail_bound, args["tol"])

        def residue_matrix(args, result):
            n = None if result is None else result.n_blocks * args["order"]
            self.counters["matprod.n_terms.sum"] += n or 0
            self._stop(n, args["tail_bound"], args["tol"])

        def svg(args, result):
            if os.path.exists(args["path"]):
                self.counters["svgfig.bytes_written"] += os.path.getsize(args["path"])

        return {
            "limitset.compute_h_direct": limitset_solve,
            "limitset.residue_limits": limitset_solve,
            "matprod.cocycle_limit": cocycle,
            "matprod.residue_matrix_limits": residue_matrix,
            "svgfig.scatter_svg": svg,
            "svgfig.histogram_svg": svg,
        }

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable, under every name cflimits binds it to."""
        import cflimits.cli

        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "cflimits" or name.startswith("cflimits."))]
        hooks = self._hooks()
        for module_name, attr in SPANS:
            module = sys.modules[f"cflimits.{module_name}"]
            label = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(label, original, hooks.get(label)))
            else:
                original = getattr(module, attr)
                self._rebind(namespaces, original, self._wrap(label, original, hooks.get(label)))
        self._rebind(namespaces, cflimits.cli.main, self._wrap_cli_main(cflimits.cli.main))

    def _rebind(self, namespaces, original, wrapper) -> None:
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "problem": np.frombuffer(self.problem_of, dtype=np.int32),
            "first": np.frombuffer(self.first, dtype=np.int8),
        }

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        self_time = duration - child
        calls = np.bincount(a["name"], weights=a["first"], minlength=len(self.names))
        self_s = np.bincount(a["name"], weights=self_time, minlength=len(self.names))
        return {label: (int(calls[i]), float(self_s[i])) for i, label in enumerate(self.names)}

    def tail_bound_share(self) -> float:
        return self.stop_certified / self.stop_attempts if self.stop_attempts else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _bound(signature: inspect.Signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    out = []
    for label in span_names():
        out.append((f"{label}.calls", "count", "lower"))
        out.append((f"{label}.self_s", "s", "lower"))
    out += [
        ("limitset.n_terms.sum", "count", "lower"),
        ("matprod.n_terms.sum", "count", "lower"),
        ("svgfig.bytes_written", "bytes", "lower"),
        ("stop.tail_bound_share", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out
