"""Per-layer spans recorded from outside the library.

Tracer.install() puts a timing wrapper at every module attribute that binds
one of LAYER_NAMES (including names imported into other modules, such as
analysis.as_matrix or schrodinger.delta_connection) and, for dataclasses,
wraps the class's __post_init__ so that every construction is counted, also
those made inside the library.  Spans (name, start, end, parent, request)
are kept in flat arrays in memory and written out once at the end.
uninstall() restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYER_NAMES = (
    "cli.main",
    "analysis.nonrel_convergence",
    "analysis.dirac_convergence",
    "analysis.correspondence_table",
    "analysis.SweepRow",
    "schrodinger.NonRelMedium",
    "schrodinger.DeltaTriple",
    "schrodinger.propagator",
    "schrodinger.three_delta_transfer",
    "schrodinger.renormalized_strengths",
    "schrodinger.mode_vectors",
    "schrodinger.transmission",
    "dirac.DiracMedium",
    "dirac.BarrierParams",
    "dirac.propagator",
    "dirac.finite_barrier_transfer",
    "dirac.barrier_limit",
    "dirac.free_mode_vectors",
    "dirac.transmission",
    "connection.ConnectionParams",
    "connection.ModePair",
    "connection.ScatteringResult",
    "connection.as_matrix",
    "connection.delta_connection",
    "connection.scatter",
    "connection.decompose",
    "connection.conserves_current",
)

# Calls whose arguments and results are kept for the accuracy figures.
CAPTURED = (
    "schrodinger.three_delta_transfer",
    "dirac.finite_barrier_transfer",
    "connection.scatter",
    "connection.decompose",
)


class Spans:
    """Spans of one traced pass, in flat arrays indexed by span id."""

    def __init__(self):
        self.name_idx = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.stack = [-1]  # ids of the open spans; -1 stands for "no parent"

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds, self seconds, raised calls.

        Self time is a span's duration minus the durations of its direct
        children, which is the part of its interval they cover.
        """
        n = len(LAYER_NAMES)
        idx = np.frombuffer(self.name_idx, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - start) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=idx.size)
        calls = np.bincount(idx, minlength=n)
        incl = np.bincount(idx, weights=dur, minlength=n)
        self_s = np.bincount(idx, weights=dur - child, minlength=n)
        raised = np.bincount(idx, weights=np.frombuffer(self.raised, dtype=np.int8), minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "incl_s": float(incl[i]),
                "self_s": float(self_s[i]),
                "raised": int(raised[i]),
            }
            for i, name in enumerate(LAYER_NAMES)
        }

    def write(self, path) -> int:
        """Write the spans as CSV; returns how many there were."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("span,parent,request,name,start_ns,end_ns,raised\n")
            for span in range(len(self.start)):
                handle.write(
                    f"{span},{self.parent[span]},{self.request[span]},"
                    f"{LAYER_NAMES[self.name_idx[span]]},{self.start[span]},"
                    f"{self.end[span]},{self.raised[span]}\n"
                )
        return len(self.start)


class Tracer:
    """Installs and removes the wrappers; each install records a fresh Spans.

    Set `request` to the index of the unit being run so that the spans of
    one unit share an identifier.  Calls named in CAPTURED are kept, with
    their arguments and results, in `captured` while `capture` is true.
    """

    def __init__(self, lib):
        self.lib = lib
        self.request = -1
        self.capture = True
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self.missing: list[str] = []
        self.spans = Spans()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, idx: int, fn):
        spans = self.spans
        names, parent, request = spans.name_idx, spans.parent, spans.request
        starts, ends, raised = spans.start, spans.end, spans.raised
        stack = spans.stack
        clock = time.perf_counter_ns
        store = self.captured.get(LAYER_NAMES[idx])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parent.append(stack[-1])
            request.append(tracer.request)
            raised.append(0)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if store is not None and tracer.capture:
                store.append((args, result))
            return result

        return traced

    def install(self) -> Spans:
        """Wrap every binding of every listed name; return the Spans they fill."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = Spans()
        lib = self.lib
        modules = [lib.package, lib.connection, lib.schrodinger, lib.dirac, lib.analysis, lib.cli]
        self.missing = []
        for idx, qualified in enumerate(LAYER_NAMES):
            module_name, attr = qualified.split(".")
            target = getattr(getattr(lib, module_name), attr, None)
            if target is None:
                self.missing.append(qualified)
            elif isinstance(target, type):
                original = getattr(target, "__post_init__", None)
                if original is None:
                    self.missing.append(qualified)
                    continue
                own = "__post_init__" in vars(target)
                self._patches.append((target, "__post_init__", original, own))
                setattr(target, "__post_init__", self._wrap(idx, original))
            else:
                wrapped = self._wrap(idx, target)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is target:
                            self._patches.append((module, name, value, True))
                            setattr(module, name, wrapped)
        return self.spans

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []
