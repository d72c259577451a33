"""Span recording around the calls between ``idr`` modules.

The tracer replaces, in every loaded ``idr`` module, each function that
the module imports from another ``idr`` module by a recorder, and
patches the ``StepCdf`` constructor and its ``evaluate``/``quantile``
methods the same way.  Nothing under ``src/`` changes: the patching is
undone by :meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span, or -1.  Its layer is the ``idr`` module that
defines the called function (``fitting.fit_idr`` is in ``fitting``).
A layer's self time is the duration of its spans minus the time their
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

_STEPFUN_METHODS = ("__init__", "evaluate", "quantile")
_DUMPS = ("save_model", "model_to_json")
_LOADS = ("load_model", "model_from_json")


class Tracer:
    """Records spans in memory; single-threaded, like the benchmark."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    def observe(self, name: str, callback):
        """Call ``callback(result)`` whenever span ``name`` returns."""
        self._observers[name] = callback

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        observer = self._observers.get(name)
        if observer is not None:
            observer(result)
        return result

    def _recorder(self, fn, name: str):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return recorded

    def install(self):
        """Wrap every cross-module ``idr`` import and the StepCdf methods."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "idr" or n.startswith("idr.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                origin = getattr(value, "__module__", None) or ""
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and origin.startswith("idr.")
                    and origin != module.__name__
                ):
                    name = f"{origin.split('.', 1)[1]}.{getattr(value, '__name__', attr)}"
                    self._patch(module, attr, self._recorder(value, name))
        step_cdf = sys.modules["idr.stepfun"].StepCdf
        for method in _STEPFUN_METHODS:
            label = "StepCdf" if method == "__init__" else f"StepCdf.{method}"
            self._patch(step_cdf, method, self._recorder(getattr(step_cdf, method), f"stepfun.{label}"))

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write every span as a JSON list."""
        keys = ("name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Self time and call count per layer for spans ``first`` onwards.

    Returns ``{"<layer>.self_s": ..., "<layer>.calls": ...}`` plus
    ``serialize.dump_s`` and ``serialize.load_s``, the self time of
    the save and load spans.
    """
    chunk = spans[first:]
    child = [0.0] * len(chunk)
    for name, start, end, parent in chunk:
        if parent >= first:
            child[parent - first] += end - start
    out: dict[str, float] = {"serialize.dump_s": 0.0, "serialize.load_s": 0.0}
    for (name, start, end, _), covered in zip(chunk, child):
        layer, func = name.split(".", 1)
        own = (end - start) - covered
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        if layer == "serialize":
            kind = "dump" if func in _DUMPS else "load" if func in _LOADS else None
            if kind:
                out[f"serialize.{kind}_s"] += own
    return out
