"""Outside-in tracer for padicext: wraps public functions from here, so
nothing under src/ changes.

Coarse boundaries get one span per call (name, start, end, parent).  Hot
kernels, called millions of times, get counters and busy time summed per
enclosing coarse span instead.  Every name is patched where it is looked
up: module globals in every ``padicext`` module that holds the original
object, class attributes on the class, and the closures returned by
``VecSpace.map_from_images``.  State is kept per thread and merged by
``Tracer.report`` after the traced work has finished.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

ROOT_PARENT = "<root>"

# (trace name, module, attribute path, function giving an extra count)
COARSE = (
    ("oracle_census", "padicext.oracle", "oracle_census", None),
    ("enumerate_irreducible_submodules", "padicext.oracle",
     "enumerate_irreducible_submodules", lambda args, result: len(result)),
    ("hom_basis", "padicext.oracle", "hom_basis", None),
    ("classify_submodule", "padicext.oracle", "classify_submodule", None),
    ("matrix_group_elements", "padicext.oracle", "matrix_group_elements",
     lambda args, result: len(result)),
    ("LevelRealization.beta_kernel", "padicext.oracle",
     "LevelRealization.beta_kernel", None),
    ("catalog", "padicext.groups", "catalog", None),
    ("groups.closure_elements", "padicext.groups", "closure_elements",
     lambda args, result: len(result)),
    ("make_field", "padicext.ffield", "make_field", None),
    ("census_by_group", "padicext.census", "census_by_group", None),
    ("span_profile", "padicext.action", "span_profile", None),
    ("audit", "padicext.ramify", "audit", None),
    ("discriminant_report", "padicext.ramify", "discriminant_report", None),
    ("cli.main", "padicext.cli", "main", None),
)

HOT = (
    ("FieldCtx.mul", "padicext.ffield", "FieldCtx.mul", None),
    ("FieldCtx.frob", "padicext.ffield", "FieldCtx.frob", None),
    ("FieldCtx.pow", "padicext.ffield", "FieldCtx.pow", None),
    ("FieldCtx.__init__", "padicext.ffield", "FieldCtx.__init__", None),
    ("VecSpace.reduce", "padicext.linalg", "VecSpace.reduce", None),
    ("VecSpace.insert", "padicext.linalg", "VecSpace.insert", None),
    ("VecSpace.canon", "padicext.linalg", "VecSpace.canon", None),
    ("VecSpace.solve", "padicext.linalg", "VecSpace.solve", None),
    ("VecSpace.kernel", "padicext.linalg", "VecSpace.kernel", None),
    ("spin", "padicext.oracle", "spin", None),
    # seeds scanned: each call covers keys lo..hi-1
    ("oracle._scan_range", "padicext.oracle", "_scan_range",
     lambda args, result: args[3] - args[2]),
    ("factorize", "padicext.arith", "factorize", None),
    ("MonomialMatrix.mul", "padicext.groups", "MonomialMatrix.mul", None),
)

APPLY = "VecSpace.apply"  # the closures made by VecSpace.map_from_images


class _ThreadState:
    __slots__ = ("stack", "coarse", "open", "spans", "kernels", "counters")

    def __init__(self) -> None:
        self.stack: list = []          # one [nested seconds] cell per open call
        self.coarse: list = [ROOT_PARENT]  # names of open coarse spans
        self.open: list = []           # ids of open coarse spans
        self.spans: list = []          # (id, name, parent id, start, end)
        self.kernels: dict = {}        # (name, parent) -> [calls, incl, self]
        self.counters: dict = {}       # name -> summed extra count


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._restore: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------------

    def _finish(self, st, name, frame, t0, extra, args, result):
        dur = time.perf_counter() - t0
        st.stack.pop()
        if st.stack:
            st.stack[-1][0] += dur
        if extra is not None and result is not None:
            st.counters[name] = st.counters.get(name, 0) + extra(args, result)
        return dur

    def kernel(self, name: str, fn, extra=None):
        perf = time.perf_counter
        finish = self._finish
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            frame = [0.0]
            st.stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = finish(st, name, frame, t0, extra, args, result)
                key = (name, st.coarse[-1])
                agg = st.kernels.get(key)
                if agg is None:
                    agg = st.kernels[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
        return wrapper

    def span(self, name: str, fn, extra=None):
        perf = time.perf_counter
        finish = self._finish
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            frame = [0.0]
            sid = len(st.spans)
            parent = st.open[-1] if st.open else None
            st.spans.append(None)
            st.stack.append(frame)
            st.coarse.append(name)
            st.open.append(sid)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finish(st, name, frame, t0, extra, args, result)
                st.coarse.pop()
                st.open.pop()
                st.spans[sid] = (sid, name, parent, t0, perf())
        return wrapper

    def _apply_factory(self, map_from_images):
        kernel = self.kernel

        @functools.wraps(map_from_images)
        def wrapper(space, images):
            return kernel(APPLY, map_from_images(space, images))
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Patch padicext in place; `uninstall` undoes it."""
        import padicext.cli  # noqa: F401  (loads every module that holds a name)
        for table, make in ((COARSE, self.span), (HOT, self.kernel)):
            for name, module, path, extra in table:
                self._patch(module, path,
                            lambda fn, n=name, e=extra, m=make: m(n, fn, e))
        self._patch("padicext.linalg", "VecSpace.map_from_images",
                    self._apply_factory)

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapped = make(original)
        if outer:  # a class attribute: patched on the class only
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))
            return
        for modname, mod in list(sys.modules.items()):
            if modname != "padicext" and not modname.startswith("padicext."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def report(self) -> dict:
        """Per-name totals merged over threads: spans (calls, inclusive and
        self seconds), kernels (calls, inclusive and self seconds, and the
        same per enclosing coarse span) and extra counters."""
        spans: dict = {}
        kernels: dict = {}
        counters: dict = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            done = [s for s in st.spans if s is not None]
            selfs = self_times(done)
            for sid, name, _parent, start, end in done:
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += end - start
                agg[2] += selfs[sid]
            for (name, parent), (calls, incl, own) in st.kernels.items():
                agg = kernels.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                                "self_s": 0.0, "by_parent": {}})
                agg["calls"] += calls
                agg["incl_s"] += incl
                agg["self_s"] += own
                sub = agg["by_parent"].setdefault(parent, [0, 0.0])
                sub[0] += calls
                sub[1] += own
            for name, n in st.counters.items():
                counters[name] = counters.get(name, 0) + n
        return {
            "spans": {n: {"calls": c, "incl_s": i, "self_s": s}
                      for n, (c, i, s) in spans.items()},
            "kernels": kernels,
            "counters": counters,
        }


def self_times(spans) -> dict:
    """Self time of each span of one thread: its duration minus the part of
    its interval that its child spans cover.  Spans are
    (id, name, parent id, start, end) tuples."""
    children: dict = {}
    for sid, _name, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, _parent, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def merge_reports(reports) -> dict:
    """Sum several `Tracer.report` results (one per CLI process)."""
    out = {"spans": {}, "kernels": {}, "counters": {}}
    for rep in reports:
        for name, s in rep["spans"].items():
            agg = out["spans"].setdefault(name, {"calls": 0, "incl_s": 0.0,
                                                 "self_s": 0.0})
            for k in agg:
                agg[k] += s[k]
        for name, k in rep["kernels"].items():
            agg = out["kernels"].setdefault(name, {"calls": 0, "incl_s": 0.0,
                                                   "self_s": 0.0, "by_parent": {}})
            for key in ("calls", "incl_s", "self_s"):
                agg[key] += k[key]
            for parent, (calls, own) in k["by_parent"].items():
                sub = agg["by_parent"].setdefault(parent, [0, 0.0])
                sub[0] += calls
                sub[1] += own
        for name, n in rep["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
    return out
