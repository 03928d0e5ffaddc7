"""In-memory spans around the public functions of abxs, installed from outside.

``Tracer.install`` replaces every public function of the abxs modules, and
``scipy.integrate.quad`` (the ``quadpack`` layer), with a recording wrapper
at every place the name is bound: the defining module, each module that
imported it with ``from ... import``, and the package namespace. Calls that
go through a module attribute (``specfun.meijer_g`` inside its own flip
recursion, ``integrate.quad`` in metrics) therefore record too.
``uninstall`` puts the originals back.

Attribution limit: code with no public name (integrand lambdas, private
helpers such as ``channel._snr_pdf_smooth``) has no span, so its time counts
as self time of the nearest wrapped caller, usually ``quadpack.quad``.

Spans live in flat arrays (one row per span: name id, parent row, start,
end, raised flag) and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("cli", "metrics", "channel", "specfun", "montecarlo")


class Tracer:
    def __init__(self) -> None:
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self.counters = {}
        self._patched = []  # (namespace, attribute, original)

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own steps."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        row = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def _close(self, row: int, raised: bool) -> None:
        self.end[row] = time.perf_counter()
        if raised:
            self.raised[row] = 1
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span called name; on_return(tracer, result) may count."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = tracer._open(nid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._close(row, raised)
            if on_return is not None:
                result = on_return(tracer, result)
            return result

        traced.original = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, hooks=None) -> None:
        """Wrap every public abxs function and scipy.integrate.quad wherever bound.

        hooks maps a span name to an on_return callback for that wrapper.
        """
        import importlib

        import scipy.integrate

        hooks = hooks or {}
        targets = []  # (span name, original)
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"abxs.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_own_function(obj, mod.__name__):
                    continue
                targets.append((f"{short}.{attr}", obj))
        targets.append(("quadpack.quad", scipy.integrate.quad))

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "abxs" or n.startswith("abxs.")]
        namespaces += [scipy.integrate, sys.modules[scipy.integrate.quad.__module__]]
        for name, orig in targets:
            wrapper = self.wrap(name, orig, hooks.get(name))
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is orig:
                        self._patched.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.raised, dtype=np.int8))

    def by_name(self) -> dict:
        """name -> {calls, total_s, self_s, errors} over every recorded span."""
        nid, parent, start, end, raised = self.arrays()
        selfs = self_times(parent, start, end)
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=end - start, minlength=n)
        own = np.bincount(nid, weights=selfs, minlength=n)
        errs = np.bincount(nid, weights=raised.astype(float), minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]), "errors": int(errs[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        nid, parent, start, end, raised = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end, raised=raised)


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    In one thread spans nest strictly, so the children of a span cover
    disjoint parts of its interval and their durations simply add up.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._row = self._tracer._open(self._nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._close(self._row, exc_type is not None)
        return False


def _is_own_function(obj, module_name: str) -> bool:
    if inspect.isfunction(obj):
        return obj.__module__ == module_name
    # functools.lru_cache wrappers (channel.derived_constants)
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module_name
