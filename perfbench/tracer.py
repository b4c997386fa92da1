"""Layer tracer that wraps catloss's public functions from outside the package.

Every public module-level function of the traced layers is replaced by a
wrapper, in every catloss module that binds it: ``channel``, ``qec``,
``restore`` and ``repeater`` import functions by name, so patching only the
defining module would miss their calls.  Each call records a span (name,
start, end, parent, root) in flat arrays kept in memory, and updates
per-function counters: calls, self time (span time minus the time its child
spans cover), distinct argument tuples, exceptions raised and, for functions
that return text, the characters returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "catloss"
LAYERS = ("series", "codes", "channel", "qec", "restore", "repeater", "cli", "fock")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._originals: dict[int, int] = {}  # id(original function) -> name index
        self._wrappers: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop all spans and counters (called before each traced pass)."""
        n = len(self.names)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.failed = [0] * n
        self.text_bytes = [0] * n
        self.keys: list[set] = [set() for _ in range(n)]
        self.unhashable = [0] * n
        self._stack: list[int] = []
        self._child: list[float] = []

    def install(self) -> None:
        """Wrap every public function of the traced layers wherever it is bound."""
        if not self._wrappers:
            self._build_wrappers()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                idx = self._originals.get(id(value))
                if idx is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[idx])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _build_wrappers(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                self._originals[id(value)] = len(self.names)
                self.names.append(f"{layer}.{attr}")
                self._wrappers.append(self._wrap(len(self.names) - 1, value))
        self.reset()

    def _wrap(self, fid: int, fn):
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, child = t._stack, t._child
            idx = len(t.span_start)
            parent = stack[-1] if stack else -1
            t.span_name.append(fid)
            t.span_parent.append(parent)
            t.span_root.append(t.span_root[parent] if parent >= 0 else idx)
            t.span_end.append(0.0)
            # Argument tuples are kept as set keys: hashing the dataclasses and
            # scalars the library passes costs far less than formatting them.
            try:
                t.keys[fid].add((args, tuple(kwargs.items())) if kwargs else args)
            except TypeError:
                t.unhashable[fid] += 1
            stack.append(idx)
            child.append(0.0)
            t.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t.failed[fid] += 1
                raise
            finally:
                end = perf_counter()
                t.span_end[idx] = end
                stack.pop()
                dur = end - t.span_start[idx]
                t.self_s[fid] += dur - child.pop()
                if child:
                    child[-1] += dur
                t.calls[fid] += 1
            if isinstance(result, str):
                t.text_bytes[fid] += len(result)
            return result

        return wrapper

    def stats(self) -> dict[str, dict]:
        """Per-function counters since the last reset, for functions called."""
        out = {}
        for fid, name in enumerate(self.names):
            calls = self.calls[fid]
            if calls == 0:
                continue
            out[name] = {
                "calls": calls,
                "self_s": self.self_s[fid],
                "unique": len(self.keys[fid]) + self.unhashable[fid],
                "failed": self.failed[fid],
                "bytes": self.text_bytes[fid],
            }
        return out

    def spans(self) -> dict[str, object]:
        """The recorded spans as parallel lists (times from perf_counter)."""
        return {
            "names": list(self.names),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "root": self.span_root.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
